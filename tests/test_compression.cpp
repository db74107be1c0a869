// Tests for uplink delta compression: top-k sparsification, uniform
// quantization, error feedback, and FedAvgStrategy sessions that compress
// their uplinks (network accounting + accuracy under compression).

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/check.hpp"
#include "fl/compression.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

WeightSet make_delta(std::vector<std::vector<float>> tensors) {
  WeightSet ws;
  for (auto& vals : tensors) {
    const int n = static_cast<int>(vals.size());
    ws.push_back(Tensor::from({n}, std::move(vals)));
  }
  return ws;
}

std::int64_t count_nonzero(const WeightSet& ws) {
  std::int64_t n = 0;
  for (const Tensor& t : ws)
    for (std::int64_t i = 0; i < t.numel(); ++i)
      if (t[i] != 0.0f) ++n;
  return n;
}

// -------------------------------------------------------------------- topk

TEST(TopKCompressionTest, KeepsExactlyKLargestMagnitudes) {
  auto ws = make_delta({{0.1f, -5.0f, 0.2f, 3.0f}, {-0.3f, 4.0f, 0.05f,
                                                    -2.0f}});
  TopKCompression comp(0.5);  // 8 entries → keep 4
  comp.compress(ws);
  EXPECT_EQ(count_nonzero(ws), 4);
  // Survivors are the four largest magnitudes: −5, 4, 3, −2.
  EXPECT_EQ(ws[0][1], -5.0f);
  EXPECT_EQ(ws[0][3], 3.0f);
  EXPECT_EQ(ws[1][1], 4.0f);
  EXPECT_EQ(ws[1][3], -2.0f);
  EXPECT_EQ(ws[0][0], 0.0f);
}

TEST(TopKCompressionTest, TiesResolveToExactlyK) {
  auto ws = make_delta({{1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f}});
  TopKCompression comp(0.25);  // keep 2 of 8 equal values
  comp.compress(ws);
  EXPECT_EQ(count_nonzero(ws), 2);
}

TEST(TopKCompressionTest, RatioOneIsIdentity) {
  auto ws = make_delta({{1.0f, -2.0f, 3.0f}});
  auto copy = ws;
  TopKCompression comp(1.0);
  comp.compress(ws);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(ws[0][i], copy[0][i]);
}

TEST(TopKCompressionTest, AtLeastOneSurvives) {
  auto ws = make_delta({{0.5f, 0.25f, 0.1f, 0.9f}});
  TopKCompression comp(0.01);  // 0.04 entries → floor 0, clamped to 1
  comp.compress(ws);
  EXPECT_EQ(count_nonzero(ws), 1);
  EXPECT_EQ(ws[0][3], 0.9f);
}

TEST(TopKCompressionTest, BytesScaleWithRatio) {
  TopKCompression tenth(0.1), half(0.5);
  WeightSet ws{Tensor({1000})};
  EXPECT_EQ(tenth.compressed_bytes(ws), 8.0 * 100);
  EXPECT_EQ(half.compressed_bytes(ws), 8.0 * 500);
  // Dense fp32 equivalent is 4000 bytes: 10% top-k saves 5×.
  NoCompression none;
  EXPECT_LT(tenth.compressed_bytes(ws), none.compressed_bytes(ws));
}

TEST(TopKCompressionTest, BytesBillValuesAtStorageWidth) {
  // A 4-byte index plus the survivor's value at its storage width; the
  // dense upload bills every tensor at its own width.
  WeightSet d = make_delta(
      {std::vector<float>(60, 1.0f), std::vector<float>(40, 2.0f)});
  const TopKCompression topk(0.1);  // 10 survivors
  EXPECT_EQ(topk.compressed_bytes(d), 10.0 * (4 + 4));
  EXPECT_EQ(NoCompression().compressed_bytes(d), 100.0 * 4);
  for (Tensor& t : d) t.quantize_storage(Dtype::F16);
  EXPECT_EQ(topk.compressed_bytes(d), 10.0 * (4 + 2));
  EXPECT_EQ(NoCompression().compressed_bytes(d), 100.0 * 2);
  d[0].quantize_storage(Dtype::F32);
  EXPECT_EQ(topk.compressed_bytes(d), 10.0 * (4 + 4));
  EXPECT_EQ(NoCompression().compressed_bytes(d), 60.0 * 4 + 40.0 * 2);
}

TEST(TopKCompressionTest, RejectsInvalidRatio) {
  EXPECT_THROW(TopKCompression(0.0), Error);
  EXPECT_THROW(TopKCompression(1.5), Error);
}

// ------------------------------------------------------------ quantization

TEST(UniformQuantizationTest, ErrorBoundedByHalfStep) {
  Rng rng(3);
  WeightSet ws{Tensor({64})};
  ws[0].randn(rng, 1.0f);
  WeightSet orig = ws;
  UniformQuantization comp(8);
  comp.compress(ws);
  float mx = 0.0f;
  for (std::int64_t i = 0; i < 64; ++i)
    mx = std::max(mx, std::fabs(orig[0][i]));
  const float step = mx / 127.0f;
  for (std::int64_t i = 0; i < 64; ++i)
    EXPECT_LE(std::fabs(ws[0][i] - orig[0][i]), step / 2.0f + 1e-6f);
}

TEST(UniformQuantizationTest, PreservesZeroTensor) {
  WeightSet ws{Tensor({8})};
  UniformQuantization comp(4);
  comp.compress(ws);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(ws[0][i], 0.0f);
}

TEST(UniformQuantizationTest, FourBitIsCoarserThanEight) {
  Rng rng(4);
  WeightSet ws{Tensor({256})};
  ws[0].randn(rng, 1.0f);
  WeightSet w8 = ws, w4 = ws;
  UniformQuantization q8(8), q4(4);
  q8.compress(w8);
  q4.compress(w4);
  double err8 = 0.0, err4 = 0.0;
  for (std::int64_t i = 0; i < 256; ++i) {
    err8 += std::fabs(w8[0][i] - ws[0][i]);
    err4 += std::fabs(w4[0][i] - ws[0][i]);
  }
  EXPECT_LT(err8, err4);
}

TEST(UniformQuantizationTest, BytesMatchBitWidth) {
  UniformQuantization q8(8);
  WeightSet ws{Tensor({100}), Tensor({50})};
  q8.compress(ws);
  // 150 params × 1 byte + 2 scales × 4 bytes.
  EXPECT_EQ(q8.compressed_bytes(ws), 150.0 + 8.0);
}

TEST(UniformQuantizationTest, BillingIsPureAndOrderIndependent) {
  // compressed_bytes is a pure function of the delta handed in — one
  // shared compressor instance bills a two-tensor delta identically whether
  // queried cold, after compressing a one-tensor delta, or concurrently
  // from many threads (the regression: the tensor count used to be cached
  // from the last compress() call).
  UniformQuantization q8(8);
  WeightSet two{Tensor({100}), Tensor({50})};
  WeightSet one{Tensor({64})};
  const double cold = q8.compressed_bytes(two);
  EXPECT_EQ(cold, 150.0 + 8.0);

  q8.compress(one);  // would have clobbered the cached tensor count
  EXPECT_EQ(q8.compressed_bytes(two), cold);
  q8.compress(two);
  EXPECT_EQ(q8.compressed_bytes(one), 64.0 + 4.0);

  // Thread sweep: interleaved compress/bill on one shared instance from
  // several threads must produce the same per-shape bills every time.
  std::vector<double> bills(16);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&, w] {
      for (int i = 0; i < 4; ++i) {
        WeightSet mine = (w + i) % 2 == 0
                             ? WeightSet{Tensor({100}), Tensor({50})}
                             : WeightSet{Tensor({64})};
        q8.compress(mine);
        bills[static_cast<std::size_t>(w * 4 + i)] =
            q8.compressed_bytes(mine);
      }
    });
  for (auto& t : workers) t.join();
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(bills[static_cast<std::size_t>(w * 4 + i)],
                (w + i) % 2 == 0 ? 150.0 + 8.0 : 64.0 + 4.0)
          << "worker " << w << " iteration " << i;
}

TEST(UniformQuantizationTest, RejectsInvalidBits) {
  EXPECT_THROW(UniformQuantization(0), Error);
  EXPECT_THROW(UniformQuantization(17), Error);
}

// ---------------------------------------------------------- error feedback

TEST(ErrorFeedbackTest, ResidualIsDroppedMass) {
  auto ws = make_delta({{5.0f, 0.1f}});
  ErrorFeedback ef;
  const WeightSet pre = ws;
  TopKCompression comp(0.5);
  comp.compress(ws);  // keeps 5.0, drops 0.1
  ef.store_residual(7, pre, ws);
  ASSERT_TRUE(ef.has_residual(7));

  auto next = make_delta({{0.0f, 0.0f}});
  ef.add_residual(7, next);
  EXPECT_EQ(next[0][0], 0.0f);
  EXPECT_NEAR(next[0][1], 0.1f, 1e-6f);
}

TEST(ErrorFeedbackTest, UnknownClientIsNoop) {
  ErrorFeedback ef;
  auto ws = make_delta({{1.0f}});
  ef.add_residual(3, ws);
  EXPECT_EQ(ws[0][0], 1.0f);
  EXPECT_FALSE(ef.has_residual(3));
}

TEST(ErrorFeedbackTest, ShapeDriftResetsResidualInsteadOfFoldingGarbage) {
  // A returning client whose model spec changed between participations
  // presents deltas whose shapes no longer match the stored residual —
  // both hooks must reset the residual (loudly), never fold or store a
  // cross-shape difference.
  ErrorFeedback ef;
  ef.store_residual(5, make_delta({{1.0f, 2.0f}}),
                    make_delta({{0.5f, 2.0f}}));
  ASSERT_TRUE(ef.has_residual(5));

  // add_residual with a drifted delta: the delta passes through untouched
  // and the stale residual is dropped.
  auto wider = make_delta({{1.0f, 1.0f, 1.0f}});
  ef.add_residual(5, wider);
  EXPECT_EQ(wider[0][0], 1.0f);
  EXPECT_EQ(wider[0][1], 1.0f);
  EXPECT_EQ(wider[0][2], 1.0f);
  EXPECT_FALSE(ef.has_residual(5));

  // store_residual with mismatched pre/post shapes: nothing is stored and
  // any prior residual is cleared.
  ef.store_residual(9, make_delta({{1.0f}}), make_delta({{0.5f}}));
  ASSERT_TRUE(ef.has_residual(9));
  ef.store_residual(9, make_delta({{1.0f, 2.0f}}), make_delta({{0.5f}}));
  EXPECT_FALSE(ef.has_residual(9));

  // Same tensor count but different per-tensor shapes is still a drift —
  // the old tensor-count check used to let this through.
  ef.store_residual(2, make_delta({{1.0f, 2.0f}}),
                    make_delta({{0.5f, 1.0f}}));
  ASSERT_TRUE(ef.has_residual(2));
  auto reshaped = make_delta({{0.0f, 0.0f, 0.0f}});
  ef.add_residual(2, reshaped);
  EXPECT_FALSE(ef.has_residual(2));
  ef.store_residual(2, make_delta({{1.0f, 2.0f, 3.0f}}),
                    make_delta({{0.5f}}));
  EXPECT_FALSE(ef.has_residual(2));
}

TEST(ErrorFeedbackTest, MassConservation) {
  // EF's defining invariant: at every round,
  //   Σ uploads + current residual == Σ dense deltas.
  // Nothing the compressor drops is ever lost — it stays in the residual
  // until a later round's budget admits it.
  ErrorFeedback ef;
  TopKCompression comp(0.5);
  WeightSet uploaded_sum = make_delta({{0.0f, 0.0f}});
  WeightSet dense_sum = make_delta({{0.0f, 0.0f}});
  for (int round = 0; round < 6; ++round) {
    auto delta = make_delta({{1.0f, 0.4f}});
    ws_add(dense_sum, delta);
    ef.add_residual(0, delta);
    const WeightSet pre = delta;
    comp.compress(delta);
    ef.store_residual(0, pre, delta);
    ws_add(uploaded_sum, delta);

    // Reconstruct the residual via the public API to check conservation.
    auto residual_probe = make_delta({{0.0f, 0.0f}});
    ef.add_residual(0, residual_probe);
    for (std::int64_t i = 0; i < 2; ++i)
      EXPECT_NEAR(uploaded_sum[0][i] + residual_probe[0][i], dense_sum[0][i],
                  1e-5f)
          << "round " << round << " coord " << i;
  }
  // And the starved coordinate is eventually transmitted.
  EXPECT_GT(uploaded_sum[0][1], 0.0f);
}

// -------------------------------------------------------------- runner use

DatasetConfig tiny_data(int clients = 10) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 20;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 13;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 4;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

TEST(CompressedRunnerTest, TopKSlashesUplinkBytes) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(21);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);

  SessionConfig dense_cfg;
  dense_cfg.rounds = 4;
  dense_cfg.clients_per_round = 4;
  dense_cfg.local.steps = 2;
  dense_cfg.local.batch = 6;
  FederationEngine dense(testing::fedavg(init), data, fleet, dense_cfg);
  dense.run();

  FedAvgOptions comp;
  comp.compression = CompressionKind::TopK;
  comp.topk_ratio = 0.05;
  FederationEngine compressed(testing::fedavg(init, comp),
                              data, fleet, dense_cfg);
  compressed.run();

  EXPECT_LT(compressed.costs().network_bytes(),
            0.7 * dense.costs().network_bytes())
      << "5% top-k should cut total transfer substantially";
}

TEST(CompressedRunnerTest, UplinkBillsTheSessionWireWidth) {
  // Top-k survivors ship their values at the session's storage width, so
  // an fp16 session bills 6 bytes per survivor instead of 8; 8-bit codes
  // plus one fp32 scale per tensor cost the same in both.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(21);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);
  ASSERT_EQ(init.num_params(), 774);
  ASSERT_EQ(init.weights().size(), 14u);

  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.local.steps = 2;
  cfg.local.batch = 6;
  FedAvgOptions topk;
  topk.compression = CompressionKind::TopK;
  topk.topk_ratio = 0.2;
  topk.error_feedback = true;
  FedAvgOptions quant8;
  quant8.compression = CompressionKind::Quant8;
  auto bytes_up = [&](const FedAvgOptions& opts, bool half) {
    SessionConfig c = cfg;
    if (half) c.with_precision(Dtype::F16);
    FederationEngine e(testing::fedavg(init, opts), data, fleet, c);
    e.run();
    return e.costs().bytes_up();
  };

  // 24 uploads of floor(0.2 · 774) = 154 survivors each.
  EXPECT_EQ(bytes_up(topk, false), 29568.0);
  EXPECT_EQ(bytes_up(topk, true), 22176.0);
  // 24 uploads of 774 one-byte codes plus 14 fp32 scales.
  EXPECT_EQ(bytes_up(quant8, false), 19920.0);
  EXPECT_EQ(bytes_up(quant8, true), 19920.0);
}

TEST(CompressedRunnerTest, QuantizedTrainingStillLearns) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(22);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);

  SessionConfig cfg;
  cfg.rounds = 20;
  cfg.clients_per_round = 5;
  cfg.local.steps = 6;
  cfg.local.batch = 8;
  FedAvgOptions opts;
  opts.compression = CompressionKind::Quant8;
  FederationEngine runner(testing::fedavg(init, opts), data, fleet, cfg);
  FederationEngine probe(testing::fedavg(init, opts), data, fleet, cfg);
  const double acc0 =
      mean_client_accuracy(probe.strategy_as<FedAvgStrategy>().model(), data);
  runner.run();
  EXPECT_GT(
      mean_client_accuracy(runner.strategy_as<FedAvgStrategy>().model(), data),
      acc0 + 0.15);
}

TEST(CompressedRunnerTest, ErrorFeedbackImprovesAggressiveTopK) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(23);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);

  SessionConfig cfg;
  cfg.rounds = 25;
  cfg.clients_per_round = 5;
  cfg.local.steps = 6;
  cfg.local.batch = 8;
  FedAvgOptions opts;
  opts.compression = CompressionKind::TopK;
  opts.topk_ratio = 0.02;  // aggressive: 2% of coordinates per round

  FederationEngine without(testing::fedavg(init, opts), data, fleet, cfg);
  without.run();
  opts.error_feedback = true;
  FederationEngine with(testing::fedavg(init, opts), data, fleet, cfg);
  with.run();

  // EF must not hurt, and final train loss should improve (accuracy at this
  // scale is noisy, loss is the steadier signal).
  const double loss_without = without.history().back().avg_loss;
  const double loss_with = with.history().back().avg_loss;
  EXPECT_LE(loss_with, loss_without + 0.05);
}

}  // namespace
}  // namespace fedtrans
