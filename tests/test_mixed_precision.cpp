// Mixed-precision (fp16/bf16) training path: dtype conversion round-trips
// and edge cases, half-tagged tensor serialization, and an end-to-end
// FedAvg comparison showing half-storage sessions stay close to fp32 while
// cutting wire bytes ~2× (billed CostMeter bytes exactly, fabric
// frame bytes approximately — headers and shapes stay full width).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "baselines/split_mix.hpp"
#include "fl/runner.hpp"
#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

TEST(DtypeConvert, F16RoundTripIsExactOnGrid) {
  // Every value that survives one f32→f16→f32 trip is on the f16 grid, so a
  // second trip must be the identity (incl. subnormals and specials).
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.normal(0.0, 100.0));
    const float once = f16_bits_to_f32(f32_to_f16_bits(x));
    const float twice = f16_bits_to_f32(f32_to_f16_bits(once));
    ASSERT_EQ(once, twice) << "x=" << x;
  }
}

TEST(DtypeConvert, Bf16RoundTripIsExactOnGrid) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.normal(0.0, 1e6));
    const float once = bf16_bits_to_f32(f32_to_bf16_bits(x));
    const float twice = bf16_bits_to_f32(f32_to_bf16_bits(once));
    ASSERT_EQ(once, twice) << "x=" << x;
  }
}

TEST(DtypeConvert, EdgeCases) {
  // Zeros keep their sign.
  EXPECT_EQ(f32_to_f16_bits(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16_bits(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_bf16_bits(-0.0f), 0x8000u);

  // Exactly representable small integers and powers of two are preserved.
  for (float v : {1.0f, -2.0f, 0.5f, 1024.0f, -0.25f}) {
    EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(v)), v);
    EXPECT_EQ(bf16_bits_to_f32(f32_to_bf16_bits(v)), v);
  }

  // f16 overflow saturates to inf; bf16 keeps the f32 exponent range.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(1e6f)), inf);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(-1e6f)), -inf);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(inf)), inf);
  EXPECT_EQ(bf16_bits_to_f32(f32_to_bf16_bits(inf)), inf);

  // NaN stays NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(f32_to_f16_bits(nan))));
  EXPECT_TRUE(std::isnan(bf16_bits_to_f32(f32_to_bf16_bits(nan))));

  // f16 subnormal range (|x| < 2^-14) round-trips onto the subnormal grid.
  const float sub = 3.0e-6f;
  const float snapped = f16_bits_to_f32(f32_to_f16_bits(sub));
  EXPECT_GT(snapped, 0.0f);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(snapped)), snapped);
  // Below half the smallest subnormal, rounds to zero.
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(1.0e-8f)), 0.0f);
}

// The batch converters (which take the F16C path when compiled in) must
// agree bit-for-bit with the scalar ones.
TEST(DtypeConvert, BatchMatchesScalar) {
  Rng rng(5);
  std::vector<float> src(1000);
  for (auto& v : src) v = static_cast<float>(rng.normal(0.0, 10.0));
  src[0] = 0.0f;
  src[1] = -0.0f;
  src[2] = std::numeric_limits<float>::infinity();
  src[3] = 1e-7f;  // f16 subnormal
  src[4] = 70000.0f;  // f16 overflow

  for (Dtype d : {Dtype::F16, Dtype::BF16}) {
    std::vector<std::uint16_t> bits(src.size());
    f32_to_half(src.data(), bits.data(), static_cast<std::int64_t>(src.size()),
                d);
    std::vector<float> back(src.size());
    half_to_f32(bits.data(), back.data(),
                static_cast<std::int64_t>(bits.size()), d);
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(bits[i], f32_to_half_bits(src[i], d))
          << dtype_name(d) << " encode mismatch at " << i << " (" << src[i]
          << ")";
      ASSERT_EQ(back[i], half_bits_to_f32(bits[i], d))
          << dtype_name(d) << " decode mismatch at " << i;
    }
  }
}

TEST(DtypeConvert, RoundToDtypeIsIdempotent) {
  Rng rng(6);
  Tensor t({31, 17});
  t.randn(rng, 5.0f);
  for (Dtype d : {Dtype::F16, Dtype::BF16}) {
    Tensor once = t;
    round_to_dtype(once.values(), d);
    Tensor twice = once;
    round_to_dtype(twice.values(), d);
    for (std::int64_t i = 0; i < t.numel(); ++i)
      ASSERT_EQ(once[i], twice[i]);
  }
}

TEST(PrecisionConfig, Defaults) {
  Precision p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.effective_loss_scale(), 1.0);
  p.dtype = Dtype::F16;
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.effective_loss_scale(), 1024.0);
  p.dtype = Dtype::BF16;
  EXPECT_EQ(p.effective_loss_scale(), 1.0);
  p.loss_scale = 64.0;
  EXPECT_EQ(p.effective_loss_scale(), 64.0);
}

TEST(HalfSerialization, TaggedTensorShipsHalfWidthAndRoundTripsExactly) {
  Rng rng(8);
  Tensor t({5, 9, 3});
  t.randn(rng, 2.0f);
  const std::int64_t f32_bytes = t.serialized_bytes();

  for (Dtype d : {Dtype::F16, Dtype::BF16}) {
    Tensor q = t;
    q.quantize_storage(d);
    EXPECT_EQ(q.dtype(), d);
    // Quantizing is value-rounding, not a dtype-variant refactor: the shape
    // and fp32 working view are unchanged.
    EXPECT_TRUE(q.same_shape(t));

    // Header + shape stay 4-byte; payload halves.
    EXPECT_EQ(q.serialized_bytes(), f32_bytes - t.numel() * 2);

    std::ostringstream os;
    q.save(os);
    const std::string blob = os.str();
    EXPECT_EQ(static_cast<std::int64_t>(blob.size()), q.serialized_bytes());

    std::istringstream is(blob);
    Tensor back = Tensor::load(is);
    EXPECT_EQ(back.dtype(), d);
    ASSERT_TRUE(back.same_shape(q));
    // Values sit on the half grid, so the 2-byte round-trip is lossless.
    for (std::int64_t i = 0; i < q.numel(); ++i) ASSERT_EQ(q[i], back[i]);
  }
}

TEST(HalfSerialization, F32FormatIsUnchanged) {
  // An untagged tensor must serialize byte-identically to the historical
  // rank-only header format (dtype bits zero).
  Rng rng(9);
  Tensor t({4, 4});
  t.randn(rng);
  std::ostringstream os;
  t.save(os);
  const std::string blob = os.str();
  ASSERT_GE(blob.size(), 4u);
  EXPECT_EQ(blob[0], 2);  // rank
  EXPECT_EQ(blob[1], 0);  // dtype byte: F32
  EXPECT_EQ(static_cast<std::int64_t>(blob.size()),
            (1 + 2) * 4 + t.numel() * 4);
  std::istringstream is(blob);
  Tensor back = Tensor::load(is);
  EXPECT_EQ(back.dtype(), Dtype::F32);
  for (std::int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t[i], back[i]);
}

// --- End-to-end: half-storage FedAvg vs fp32 ------------------------------

FederatedDataset mp_dataset() {
  DatasetConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_clients = 8;
  dcfg.hw = 8;
  dcfg.mean_train_samples = 24;
  return FederatedDataset::generate(dcfg);
}

std::vector<DeviceProfile> mp_fleet(int n) {
  std::vector<DeviceProfile> fleet(static_cast<std::size_t>(n));
  for (auto& d : fleet) d.capacity_macs = 1e12;
  return fleet;
}

SessionConfig mp_config() {
  SessionConfig cfg;
  cfg.rounds = 5;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.eval_every = 0;
  cfg.seed = 13;
  return cfg;
}

TEST(MixedPrecisionE2E, HalfStorageTracksFp32AndHalvesBilledBytes) {
  auto data = mp_dataset();
  auto run = [&](Precision prec) {
    Rng rng(7);
    Model init(ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), rng);
    SessionConfig cfg = mp_config();
    cfg.local.precision = prec;
    FederationEngine runner(testing::fedavg(init), data,
                            mp_fleet(data.num_clients()), cfg);
    runner.run();
    return std::make_tuple(
        runner.history(), runner.costs().network_bytes(),
        runner.strategy_as<FedAvgStrategy>().model().weights());
  };

  auto [hist32, bytes32, w32] = run(Precision{});
  for (Dtype d : {Dtype::F16, Dtype::BF16}) {
    Precision prec;
    prec.dtype = d;
    auto [hist16, bytes16, w16] = run(prec);

    // Billing scales the fp32 byte quote by exactly dtype_bytes/4.
    EXPECT_DOUBLE_EQ(bytes16, bytes32 * 0.5) << dtype_name(d);

    // Training runs on the half grid but must track the fp32 trajectory:
    // same round count, losses close, final weights close.
    ASSERT_EQ(hist16.size(), hist32.size());
    for (std::size_t i = 0; i < hist16.size(); ++i)
      EXPECT_NEAR(hist16[i].avg_loss, hist32[i].avg_loss, 0.15)
          << dtype_name(d) << " round " << i;
    ASSERT_EQ(w16.size(), w32.size());
    double max_diff = 0.0;
    for (std::size_t t = 0; t < w16.size(); ++t) {
      ASSERT_TRUE(w16[t].same_shape(w32[t]));
      // The server keeps fp32 master weights (clients quantize on entry),
      // so the aggregate stays untagged.
      EXPECT_EQ(w16[t].dtype(), Dtype::F32);
      for (std::int64_t i = 0; i < w16[t].numel(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(static_cast<double>(w16[t][i]) -
                                     w32[t][i]));
    }
    EXPECT_LT(max_diff, 0.1) << dtype_name(d);
  }
}

TEST(MixedPrecisionE2E, AsyncFedBuffBillsHalfBytesInHalfMode) {
  // FedBuff bills each absorbed update's down + up transfer at the
  // session's wire width, in-process and over the fabric alike.
  auto data = mp_dataset();
  auto billed = [&](bool fabric, Dtype dtype) {
    Rng rng(7);
    Model init(ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), rng);
    SessionConfig cfg = mp_config();
    cfg.mode = SessionMode::Async;
    cfg.async.concurrency = 3;
    cfg.async.buffer_size = 2;
    cfg.async.aggregations = 6;
    cfg.use_fabric = fabric;
    cfg.local.precision.dtype = dtype;
    FederationEngine runner(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data,
        mp_fleet(data.num_clients()), cfg);
    runner.run();
    return runner.costs().network_bytes();
  };
  for (bool fabric : {false, true}) {
    const double bytes32 = billed(fabric, Dtype::F32);
    EXPECT_GT(bytes32, 0.0);
    EXPECT_DOUBLE_EQ(billed(fabric, Dtype::F16), 0.5 * bytes32)
        << (fabric ? "fabric" : "in-process");
  }
}

TEST(MixedPrecisionE2E, SplitMixBillsHalfBytesInHalfMode) {
  // SplitMix bills each trained base's down + up transfer at the session's
  // wire width, in-process and over a flat fabric alike. The fleet affords
  // every base, so each client trains several tasks a round.
  auto data = mp_dataset();
  auto billed = [&](bool fabric, Dtype dtype) {
    SessionConfig cfg = mp_config();
    cfg.use_fabric = fabric;
    cfg.local.precision.dtype = dtype;
    FederationEngine runner(
        std::make_unique<SplitMixStrategy>(
            ModelSpec::conv(1, 8, 4, 4, {4, 8}, {1, 1}, {1, 2}), 4),
        data, mp_fleet(data.num_clients()), cfg);
    runner.run();
    EXPECT_EQ(runner.history().front().participants,
              4 * cfg.clients_per_round);
    return runner.costs().network_bytes();
  };
  for (bool fabric : {false, true}) {
    const double bytes32 = billed(fabric, Dtype::F32);
    EXPECT_GT(bytes32, 0.0);
    EXPECT_DOUBLE_EQ(billed(fabric, Dtype::F16), 0.5 * bytes32)
        << (fabric ? "fabric" : "in-process");
  }
}

TEST(MixedPrecisionE2E, FabricWireBytesDropRoughlyTwofold) {
  auto data = mp_dataset();
  auto run = [&](Precision prec) {
    Rng rng(7);
    Model init(ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), rng);
    SessionConfig cfg = mp_config();
    cfg.rounds = 2;
    cfg.use_fabric = true;
    cfg.local.precision = prec;
    FederationEngine runner(testing::fedavg(init),
                            data, mp_fleet(data.num_clients()), cfg);
    runner.run();
    const FederationServer* fabric = runner.fabric();
    EXPECT_NE(fabric, nullptr);
    return std::make_pair(
        static_cast<double>(fabric->stats().bytes_sent.load()),
        runner.history());
  };

  auto [bytes32, hist32] = run(Precision{});
  Precision prec;
  prec.dtype = Dtype::F16;
  auto [bytes16, hist16] = run(prec);

  // Real serialized frames: weight payloads halve, headers/shapes/metrics
  // stay full width — so strictly between 2× and the header-only floor.
  EXPECT_LT(bytes16, 0.62 * bytes32);
  EXPECT_GT(bytes16, 0.45 * bytes32);

  // The half session still trains sanely over the fabric.
  ASSERT_EQ(hist16.size(), hist32.size());
  for (std::size_t i = 0; i < hist16.size(); ++i)
    EXPECT_NEAR(hist16[i].avg_loss, hist32[i].avg_loss, 0.15);
}

// Fabric and in-process rounds must stay bitwise identical in half mode:
// quantization happens before the wire, and the half round-trip is exact.
TEST(MixedPrecisionE2E, FabricMatchesInProcessBitwiseInHalfMode) {
  auto data = mp_dataset();
  auto run = [&](bool fabric) {
    Rng rng(7);
    Model init(ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), rng);
    SessionConfig cfg = mp_config();
    cfg.rounds = 3;
    cfg.use_fabric = fabric;
    cfg.local.precision.dtype = Dtype::F16;
    FederationEngine runner(testing::fedavg(init),
                            data, mp_fleet(data.num_clients()), cfg);
    runner.run();
    return std::make_pair(
        runner.history(),
        runner.strategy_as<FedAvgStrategy>().model().weights());
  };
  auto [hist_ip, w_ip] = run(false);
  auto [hist_fb, w_fb] = run(true);

  ASSERT_EQ(hist_ip.size(), hist_fb.size());
  for (std::size_t i = 0; i < hist_ip.size(); ++i)
    EXPECT_EQ(hist_ip[i].avg_loss, hist_fb[i].avg_loss);
  ASSERT_EQ(w_ip.size(), w_fb.size());
  for (std::size_t t = 0; t < w_ip.size(); ++t)
    for (std::int64_t i = 0; i < w_ip[t].numel(); ++i)
      ASSERT_EQ(w_ip[t][i], w_fb[t][i]) << "tensor " << t;
}

}  // namespace
}  // namespace fedtrans
