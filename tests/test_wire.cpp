// Property tests for the federation-fabric wire protocol (net/wire.hpp):
// random messages survive encode→decode bit-exactly, and truncated or
// corrupted frames raise Error at the framing layer instead of crashing or
// yielding silently corrupt payloads.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "model/spec.hpp"
#include "net/wire.hpp"

namespace fedtrans {
namespace {

WeightSet random_weight_set(Rng& rng, int max_tensors = 5) {
  WeightSet ws;
  const int n = rng.uniform_int(0, max_tensors);
  for (int t = 0; t < n; ++t) {
    std::vector<int> shape;
    const int ndim = rng.uniform_int(1, 3);
    for (int d = 0; d < ndim; ++d) shape.push_back(rng.uniform_int(1, 7));
    Tensor w(shape);
    w.randn(rng, 2.0f);
    ws.push_back(std::move(w));
  }
  return ws;
}

FabricMessage random_message(Rng& rng) {
  FabricMessage m;
  m.type = static_cast<MsgType>(rng.uniform_int(1, 5));
  m.round = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  m.sender = rng.uniform_int(-1, 512);
  m.receiver = rng.uniform_int(-1, 512);
  if (m.type == MsgType::ModelDown || m.type == MsgType::UpdateUp ||
      m.type == MsgType::JoinRound)
    m.task = rng.uniform_int(0, 4096);
  if (m.type == MsgType::ModelDown || m.type == MsgType::UpdateUp)
    m.weights = random_weight_set(rng);
  if (m.type == MsgType::ModelDown) {
    for (auto& s : m.rng_state) s = rng.next_u64();
    // Heterogeneous payloads carry their architecture on the wire (v2);
    // shared-blob broadcasts leave it empty.
    if (rng.uniform_int(0, 1) == 1)
      m.spec_text = ModelSpec::conv(1, 8, 4, 4, {6, 8}).serialize();
  }
  if (m.type == MsgType::UpdateUp) {
    m.avg_loss = rng.uniform(-10.0, 10.0);
    m.num_samples = rng.uniform_int(0, 10000);
    m.macs_used = rng.uniform(0.0, 1e12);
  }
  if (m.type == MsgType::Abort) m.reason = "dropout: client went offline";
  return m;
}

void expect_equal(const FabricMessage& a, const FabricMessage& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.receiver, b.receiver);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    ASSERT_EQ(a.weights[i].shape(), b.weights[i].shape());
    for (std::int64_t j = 0; j < a.weights[i].numel(); ++j)
      EXPECT_EQ(a.weights[i][j], b.weights[i][j]) << "tensor " << i;
  }
  EXPECT_EQ(a.task, b.task);
  if (a.type == MsgType::ModelDown) {
    EXPECT_EQ(a.rng_state, b.rng_state);
    EXPECT_EQ(a.spec_text, b.spec_text);
  }
  if (a.type == MsgType::UpdateUp) {
    EXPECT_EQ(a.avg_loss, b.avg_loss);
    EXPECT_EQ(a.num_samples, b.num_samples);
    EXPECT_EQ(a.macs_used, b.macs_used);
  }
  if (a.type == MsgType::Abort) {
    EXPECT_EQ(a.reason, b.reason);
  }
}

TEST(WireTest, RandomMessagesRoundTripBitwise) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const FabricMessage msg = random_message(rng);
    const std::string frame = encode_message(msg);
    EXPECT_EQ(frame_size(frame), frame.size());
    expect_equal(msg, decode_message(frame));
  }
}

TEST(WireTest, WeightSetCodecRoundTripsBitwise) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const WeightSet ws = random_weight_set(rng, 8);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_weight_set(ss, ws);
    const WeightSet back = read_weight_set(ss);
    ASSERT_EQ(ws.size(), back.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ASSERT_EQ(ws[i].shape(), back[i].shape());
      for (std::int64_t j = 0; j < ws[i].numel(); ++j)
        EXPECT_EQ(ws[i][j], back[i][j]);
    }
  }
}

TEST(WireTest, EveryTruncationFailsCleanly) {
  Rng rng(99);
  const FabricMessage msg = random_message(rng);
  const std::string frame = encode_message(msg);
  // Chop the frame at a spread of lengths (every prefix for short frames);
  // each must throw Error — never crash, never decode.
  const std::size_t step = std::max<std::size_t>(1, frame.size() / 97);
  for (std::size_t cut = 0; cut < frame.size(); cut += step)
    EXPECT_THROW(decode_message(frame.substr(0, cut)), Error)
        << "truncated at " << cut << "/" << frame.size();
}

TEST(WireTest, SingleByteCorruptionIsDetected) {
  Rng rng(123);
  FabricMessage msg;
  msg.type = MsgType::UpdateUp;
  msg.round = 3;
  msg.sender = 5;
  msg.receiver = kServerId;
  msg.weights = random_weight_set(rng, 4);
  msg.avg_loss = 1.25;
  msg.num_samples = 64;
  const std::string frame = encode_message(msg);

  // Flip one byte at a spread of positions. Header corruption trips the
  // magic/version/type/length checks; payload corruption trips the
  // checksum. Either way decode_message must throw, not return garbage.
  const std::size_t step = std::max<std::size_t>(1, frame.size() / 61);
  for (std::size_t pos = 0; pos < frame.size(); pos += step) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW(decode_message(bad), Error) << "corrupt byte " << pos;
  }
}

TEST(WireTest, TrailingGarbageIsRejected) {
  FabricMessage msg;
  msg.type = MsgType::JoinRound;
  msg.round = 1;
  std::string frame = encode_message(msg);
  frame += "xx";
  EXPECT_THROW(decode_message(frame), Error);
}

TEST(WireTest, FrameSizeSplitsConcatenatedFrames) {
  Rng rng(5);
  const FabricMessage a = random_message(rng);
  const FabricMessage b = random_message(rng);
  const std::string fa = encode_message(a);
  const std::string fb = encode_message(b);
  const std::string stream = fa + fb;
  const std::size_t split = frame_size(stream);
  ASSERT_EQ(split, fa.size());
  expect_equal(a, decode_message(std::string_view(stream).substr(0, split)));
  expect_equal(b, decode_message(std::string_view(stream).substr(split)));
}

TEST(WireTest, PartialUpBundleRoundTripsBitwise) {
  Rng rng(17);
  PartialUpdate p;
  p.shard = 2;
  for (int i = 0; i < 4; ++i) {
    UpdateEntry e;
    e.task = 2 + 3 * i;  // slot i of shard 2 in a 3-shard topology
    e.client = rng.uniform_int(0, 64);
    e.delta = random_weight_set(rng);
    e.avg_loss = rng.uniform(-4.0, 4.0);
    e.num_samples = rng.uniform_int(1, 512);
    e.macs_used = rng.uniform(0.0, 1e9);
    p.entries.push_back(std::move(e));
  }
  const std::string frame =
      encode_partial_up(9, aggregator_id(2), kServerId, p);
  EXPECT_EQ(frame_type(frame), MsgType::PartialUp);
  EXPECT_EQ(frame_size(frame), frame.size());
  const PartialUpdate back = decode_partial_up(frame);
  EXPECT_EQ(back.round, 9u);
  EXPECT_EQ(back.sender, aggregator_id(2));
  EXPECT_EQ(back.shard, 2);
  ASSERT_EQ(back.entries.size(), p.entries.size());
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].task, p.entries[i].task);
    EXPECT_EQ(back.entries[i].client, p.entries[i].client);
    EXPECT_EQ(back.entries[i].avg_loss, p.entries[i].avg_loss);
    EXPECT_EQ(back.entries[i].num_samples, p.entries[i].num_samples);
    EXPECT_EQ(back.entries[i].macs_used, p.entries[i].macs_used);
    ASSERT_EQ(back.entries[i].delta.size(), p.entries[i].delta.size());
    for (std::size_t t = 0; t < p.entries[i].delta.size(); ++t)
      for (std::int64_t j = 0; j < p.entries[i].delta[t].numel(); ++j)
        EXPECT_EQ(back.entries[i].delta[t][j], p.entries[i].delta[t][j]);
  }
  // Bundles have their own decoders; the flat-message one refuses them.
  EXPECT_THROW(decode_message(frame), Error);
  // Corruption anywhere still trips the checksum.
  std::string bad = frame;
  bad[frame.size() / 2] = static_cast<char>(bad[frame.size() / 2] ^ 0x10);
  EXPECT_THROW(decode_partial_up(bad), Error);
}

PartialUpdate random_reduced_bundle(Rng& rng, int entries, int groups) {
  PartialUpdate p;
  p.shard = rng.uniform_int(0, 7);
  p.reduced = true;
  for (int i = 0; i < entries; ++i) {
    UpdateEntry e;
    e.task = rng.uniform_int(0, 4096);
    e.client = rng.uniform_int(0, 512);
    // Metrics only: reduced bundles never carry per-task deltas.
    e.avg_loss = rng.uniform(-4.0, 4.0);
    e.num_samples = rng.uniform_int(1, 512);
    e.macs_used = rng.uniform(0.0, 1e9);
    p.entries.push_back(std::move(e));
  }
  for (int g = 0; g < groups; ++g) {
    ReducedGroup r;
    r.key = rng.uniform_int(0, 4);
    r.min_slot = rng.uniform_int(0, 4096);
    r.count = rng.uniform_int(1, 32);
    r.weight = rng.uniform(1.0, 1e4);
    r.sum = random_weight_set(rng);
    p.groups.push_back(std::move(r));
  }
  return p;
}

void expect_equal_reduced(const PartialUpdate& a, const PartialUpdate& b) {
  EXPECT_EQ(a.reduced, b.reduced);
  EXPECT_EQ(a.shard, b.shard);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].task, b.entries[i].task);
    EXPECT_EQ(a.entries[i].client, b.entries[i].client);
    EXPECT_EQ(a.entries[i].avg_loss, b.entries[i].avg_loss);
    EXPECT_EQ(a.entries[i].num_samples, b.entries[i].num_samples);
    EXPECT_EQ(a.entries[i].macs_used, b.entries[i].macs_used);
    EXPECT_TRUE(b.entries[i].delta.empty());
  }
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].key, b.groups[g].key);
    EXPECT_EQ(a.groups[g].min_slot, b.groups[g].min_slot);
    EXPECT_EQ(a.groups[g].count, b.groups[g].count);
    EXPECT_EQ(a.groups[g].weight, b.groups[g].weight);
    ASSERT_EQ(a.groups[g].sum.size(), b.groups[g].sum.size());
    for (std::size_t t = 0; t < a.groups[g].sum.size(); ++t)
      for (std::int64_t j = 0; j < a.groups[g].sum[t].numel(); ++j)
        EXPECT_EQ(a.groups[g].sum[t][j], b.groups[g].sum[t][j]);
  }
}

TEST(WireTest, ReducedPartialUpRoundTripsBitwise) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const PartialUpdate p =
        random_reduced_bundle(rng, rng.uniform_int(1, 8),
                              rng.uniform_int(1, 4));
    const std::string frame =
        encode_partial_up(7, aggregator_id(3), kServerId, p);
    EXPECT_EQ(frame_type(frame), MsgType::PartialUp);
    EXPECT_EQ(frame_size(frame), frame.size());
    const PartialUpdate back = decode_partial_up(frame);
    EXPECT_EQ(back.round, 7u);
    EXPECT_EQ(back.sender, aggregator_id(3));
    expect_equal_reduced(p, back);
  }
}

TEST(WireTest, ReducedPartialUpEdgeCases) {
  Rng rng(37);
  // Zero-task / zero-group: a valid (if pointless) reduced bundle — the
  // codec must not conflate "no groups" with the verbatim layout.
  PartialUpdate empty;
  empty.shard = 0;
  empty.reduced = true;
  const PartialUpdate back =
      decode_partial_up(encode_partial_up(1, aggregator_id(0), kServerId,
                                          empty));
  EXPECT_TRUE(back.reduced);
  EXPECT_TRUE(back.entries.empty());
  EXPECT_TRUE(back.groups.empty());

  // Max-slot extremes survive the trip (slot ids are i32 on the wire).
  PartialUpdate wide = random_reduced_bundle(rng, 1, 1);
  wide.entries[0].task = std::numeric_limits<std::int32_t>::max();
  wide.groups[0].min_slot = std::numeric_limits<std::int32_t>::max();
  wide.groups[0].key = std::numeric_limits<std::int32_t>::max();
  const PartialUpdate wback =
      decode_partial_up(encode_partial_up(2, aggregator_id(1), kServerId,
                                          wide));
  expect_equal_reduced(wide, wback);

  // A "reduced" bundle whose entry still carries a delta is a codec
  // violation the decoder refuses (it would double-count the update).
  PartialUpdate lying = random_reduced_bundle(rng, 1, 1);
  lying.entries[0].delta = random_weight_set(rng, 3);
  while (lying.entries[0].delta.empty())
    lying.entries[0].delta = random_weight_set(rng, 3);
  EXPECT_THROW(decode_partial_up(encode_partial_up(3, aggregator_id(0),
                                                   kServerId, lying)),
               Error);

  // The retry flag rides bundle headers exactly like flat frames, and a
  // duplicate-delivered flagged frame decodes to identical content.
  const PartialUpdate p = random_reduced_bundle(rng, 2, 2);
  const std::string flagged =
      encode_partial_up(4, aggregator_id(2), kServerId, p, kFlagRetry);
  expect_equal_reduced(p, decode_partial_up(flagged));
  expect_equal_reduced(decode_partial_up(flagged), decode_partial_up(flagged));
}

TEST(WireTest, ReducedPartialUpFuzzedTruncationAndCorruption) {
  Rng rng(41);
  const PartialUpdate p = random_reduced_bundle(rng, 3, 2);
  const std::string frame =
      encode_partial_up(9, aggregator_id(1), kServerId, p);
  const std::size_t tstep = std::max<std::size_t>(1, frame.size() / 97);
  for (std::size_t cut = 0; cut < frame.size(); cut += tstep)
    EXPECT_THROW(decode_partial_up(frame.substr(0, cut)), Error)
        << "truncated at " << cut << "/" << frame.size();
  const std::size_t cstep = std::max<std::size_t>(1, frame.size() / 61);
  for (std::size_t pos = 0; pos < frame.size(); pos += cstep) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW(decode_partial_up(bad), Error) << "corrupt byte " << pos;
  }
  std::string trailing = frame;
  trailing += "zz";
  EXPECT_THROW(decode_partial_up(trailing), Error);
}

TEST(WireTest, ShardDownBundleRoundTripsBitwise) {
  Rng rng(23);
  ShardDownlink d;
  d.shard = 1;
  d.leaf_lo = 1;
  d.leaf_hi = 2;
  // Bodies are opaque byte strings (embedded NULs included).
  d.bodies.push_back(std::string("level0\0body", 11));
  d.bodies.push_back("level1body");
  for (int i = 0; i < 5; ++i) {
    DownlinkTask t;
    t.task = 1 + 2 * i;
    t.client = rng.uniform_int(0, 64);
    t.body = static_cast<std::uint32_t>(i % 2);
    t.reduce = i % 3 == 0 ? -1 : i % 3;
    for (auto& s : t.rng_state) s = rng.next_u64();
    d.tasks.push_back(t);
  }
  const std::string frame = encode_shard_down(4, kServerId, aggregator_id(1), d);
  EXPECT_EQ(frame_type(frame), MsgType::ShardDown);
  const ShardDownlink back = decode_shard_down(frame);
  EXPECT_EQ(back.round, 4u);
  EXPECT_EQ(back.shard, 1);
  EXPECT_EQ(back.leaf_lo, 1);
  EXPECT_EQ(back.leaf_hi, 2);
  ASSERT_EQ(back.bodies.size(), 2u);
  EXPECT_EQ(back.bodies[0], d.bodies[0]);
  EXPECT_EQ(back.bodies[1], d.bodies[1]);
  ASSERT_EQ(back.tasks.size(), d.tasks.size());
  for (std::size_t i = 0; i < d.tasks.size(); ++i) {
    EXPECT_EQ(back.tasks[i].task, d.tasks[i].task);
    EXPECT_EQ(back.tasks[i].client, d.tasks[i].client);
    EXPECT_EQ(back.tasks[i].body, d.tasks[i].body);
    EXPECT_EQ(back.tasks[i].reduce, d.tasks[i].reduce);
    EXPECT_EQ(back.tasks[i].rng_state, d.tasks[i].rng_state);
  }
  EXPECT_THROW(decode_message(frame), Error);
  // A task referencing a body past the table is rejected at decode.
  ShardDownlink oob = d;
  oob.tasks[0].body = 7;
  EXPECT_THROW(
      decode_shard_down(encode_shard_down(4, kServerId, kServerId, oob)),
      Error);
  // An interior-split bundle covering several leaves round-trips its
  // routing metadata too; an inverted range is rejected at decode.
  ShardDownlink wide = d;
  wide.shard = -1;
  wide.leaf_lo = 4;
  wide.leaf_hi = 8;
  const ShardDownlink wide_back = decode_shard_down(
      encode_shard_down(4, kServerId, aggregator_id(9), wide));
  EXPECT_EQ(wide_back.shard, -1);
  EXPECT_EQ(wide_back.leaf_lo, 4);
  EXPECT_EQ(wide_back.leaf_hi, 8);
  ShardDownlink inverted = d;
  inverted.leaf_lo = 3;
  inverted.leaf_hi = 3;
  EXPECT_THROW(decode_shard_down(encode_shard_down(
                   4, kServerId, aggregator_id(3), inverted)),
               Error);
}

TEST(WireTest, RetryFlagRidesTheHeader) {
  FabricMessage msg;
  msg.type = MsgType::UpdateUp;
  msg.round = 2;
  msg.sender = 3;
  msg.receiver = kServerId;
  msg.flags = kFlagRetry;
  const FabricMessage back = decode_message(encode_message(msg));
  EXPECT_EQ(back.flags, kFlagRetry);
  msg.flags = 0;
  EXPECT_EQ(decode_message(encode_message(msg)).flags, 0);
}

TEST(WireTest, WireVersionIsSix) {
  // Regression pin for the protocol rev: the v6 features (quantized
  // partials, broadcast-cache elision, delta downlinks) changed the frame
  // payloads, so mixed-version peers must be rejected at the header.
  EXPECT_EQ(kWireVersion, 6);

  Rng rng(53);
  FabricMessage msg;
  msg.type = MsgType::UpdateUp;
  msg.round = 1;
  msg.sender = 2;
  msg.receiver = kServerId;
  msg.weights = random_weight_set(rng);
  const PartialUpdate p = random_reduced_bundle(rng, 2, 1);
  ShardDownlink d;
  d.bodies.push_back("body");
  DownlinkTask t;
  d.tasks.push_back(t);
  const std::string frames[] = {
      encode_message(msg), encode_partial_up(1, aggregator_id(0), kServerId, p),
      encode_shard_down(1, kServerId, aggregator_id(0), d)};
  for (const std::string& frame : frames) {
    // Every on-the-wire version other than ours must be rejected by every
    // decoder — stale (v5 and earlier) or future alike.
    for (const std::uint16_t v : {std::uint16_t{5}, std::uint16_t{7}}) {
      std::string bad = frame;
      bad[4] = static_cast<char>(v & 0xff);
      bad[5] = static_cast<char>(v >> 8);
      EXPECT_THROW(decode_message(bad), Error);
      EXPECT_THROW(decode_partial_up(bad), Error);
      EXPECT_THROW(decode_shard_down(bad), Error);
    }
  }
}

TEST(WireTest, QuantizedPartialUpInt8RoundTripsWithinScale) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    PartialUpdate p = random_reduced_bundle(rng, rng.uniform_int(1, 6),
                                            rng.uniform_int(1, 4));
    p.quant = kPartialQuantInt8;
    const std::string frame =
        encode_partial_up(5, aggregator_id(1), kServerId, p);
    // The same bundle encodes to the same bytes — quantization is a pure
    // function of the values, no hidden state.
    EXPECT_EQ(frame, encode_partial_up(5, aggregator_id(1), kServerId, p));
    const PartialUpdate back = decode_partial_up(frame);
    EXPECT_EQ(back.quant, kPartialQuantInt8);
    EXPECT_TRUE(back.reduced);
    ASSERT_EQ(back.groups.size(), p.groups.size());
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      EXPECT_EQ(back.groups[g].key, p.groups[g].key);
      EXPECT_EQ(back.groups[g].weight, p.groups[g].weight);
      ASSERT_EQ(back.groups[g].sum.size(), p.groups[g].sum.size());
      // One shared scale per group: every element lands within half an
      // int8 step of the original, and decoded tensors are plain fp32.
      float amax = 0.0f;
      for (const Tensor& w : p.groups[g].sum)
        for (std::int64_t j = 0; j < w.numel(); ++j)
          amax = std::max(amax, std::abs(w[j]));
      const float scale = amax / 127.0f;
      for (std::size_t t = 0; t < p.groups[g].sum.size(); ++t) {
        ASSERT_EQ(back.groups[g].sum[t].shape(), p.groups[g].sum[t].shape());
        EXPECT_EQ(back.groups[g].sum[t].dtype(), Dtype::F32);
        for (std::int64_t j = 0; j < p.groups[g].sum[t].numel(); ++j)
          EXPECT_NEAR(back.groups[g].sum[t][j], p.groups[g].sum[t][j],
                      scale * 0.5f + 1e-7f)
              << "group " << g << " tensor " << t << " elem " << j;
      }
    }
    // int8 group sums are genuinely smaller on the wire than fp32 ones.
    PartialUpdate exact = p;
    exact.quant = kPartialQuantF32;
    bool has_values = false;
    for (const ReducedGroup& g : p.groups)
      for (const Tensor& w : g.sum) has_values = has_values || w.numel() > 0;
    if (has_values) {
      EXPECT_LT(frame.size(),
                encode_partial_up(5, aggregator_id(1), kServerId, exact)
                    .size());
    }
  }
}

TEST(WireTest, QuantizedPartialUpF16RoundTripsWithinHalfPrecision) {
  Rng rng(67);
  PartialUpdate p = random_reduced_bundle(rng, 3, 3);
  p.quant = kPartialQuantF16;
  const PartialUpdate back =
      decode_partial_up(encode_partial_up(6, aggregator_id(2), kServerId, p));
  EXPECT_EQ(back.quant, kPartialQuantF16);
  ASSERT_EQ(back.groups.size(), p.groups.size());
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    ASSERT_EQ(back.groups[g].sum.size(), p.groups[g].sum.size());
    for (std::size_t t = 0; t < p.groups[g].sum.size(); ++t) {
      EXPECT_EQ(back.groups[g].sum[t].dtype(), Dtype::F32);
      for (std::int64_t j = 0; j < p.groups[g].sum[t].numel(); ++j) {
        const float v = p.groups[g].sum[t][j];
        // fp16 keeps 11 significand bits: relative error <= 2^-11.
        EXPECT_NEAR(back.groups[g].sum[t][j], v,
                    std::abs(v) * (1.0f / 2048.0f) + 1e-6f);
      }
    }
  }

  // An unknown quantization mode is refused at encode, before any bytes
  // reach the wire.
  PartialUpdate bad = random_reduced_bundle(rng, 1, 1);
  bad.quant = 3;
  EXPECT_THROW(encode_partial_up(7, aggregator_id(0), kServerId, bad), Error);
}

TEST(WireTest, ShardDownElisionRoundTripsThroughBroadcastCache) {
  Rng rng(71);
  ShardDownlink d;
  d.shard = 0;
  d.leaf_lo = 0;
  d.leaf_hi = 1;
  // Bodies follow the real [spec string][weights] layout so spec digests
  // are meaningful.
  for (int b = 0; b < 2; ++b) {
    std::ostringstream os(std::ios::binary);
    write_string(os, ModelSpec::conv(1, 8, 4, 4, {6, 8 + b}).serialize());
    write_weight_set(os, random_weight_set(rng, 3));
    d.bodies.push_back(os.str());
  }
  for (int i = 0; i < 4; ++i) {
    DownlinkTask t;
    t.task = i;
    t.client = i;
    t.body = static_cast<std::uint32_t>(i % 2);
    for (auto& s : t.rng_state) s = rng.next_u64();
    d.tasks.push_back(t);
  }

  // Cold round: everything ships, the receiver caches what it decoded.
  BroadcastCache cache;
  const std::string cold = encode_shard_down(3, kServerId, aggregator_id(0), d);
  const ShardDownlink cold_back = decode_shard_down(cold, &cache);
  EXPECT_EQ(cold_back.bodies, d.bodies);
  EXPECT_EQ(cache.size(), 2u);

  // Warm round: the sender elides body 0; the receiver reconstructs it
  // from its cache and the bundle decodes identically to a cold one.
  const std::vector<std::uint8_t> elide = {1, 0};
  const std::string warm =
      encode_shard_down(4, kServerId, aggregator_id(0), d, 0, &elide);
  // An elided entry ships the u64 hash where the u64 length prefix would
  // have been — the saving is exactly the body's bytes.
  EXPECT_EQ(warm.size(), cold.size() - d.bodies[0].size());
  const ShardDownlink warm_back = decode_shard_down(warm, &cache);
  EXPECT_EQ(warm_back.bodies, d.bodies);
  for (const std::uint8_t m : warm_back.missing) EXPECT_EQ(m, 0);
  ASSERT_EQ(warm_back.tasks.size(), d.tasks.size());
  for (std::size_t i = 0; i < d.tasks.size(); ++i)
    EXPECT_EQ(warm_back.tasks[i].rng_state, d.tasks[i].rng_state);

  // A cache miss (cold receiver, or no cache at all) must not fabricate
  // payload: the body comes back empty and flagged missing.
  BroadcastCache empty_cache;
  const ShardDownlink miss = decode_shard_down(warm, &empty_cache);
  ASSERT_EQ(miss.missing.size(), 2u);
  EXPECT_EQ(miss.missing[0], 1);
  EXPECT_EQ(miss.missing[1], 0);
  EXPECT_TRUE(miss.bodies[0].empty());
  EXPECT_EQ(miss.bodies[1], d.bodies[1]);
  const ShardDownlink no_cache = decode_shard_down(warm);
  EXPECT_EQ(no_cache.missing[0], 1);

  // A same-spec body with new content evicts the cached one (the sender
  // mirrors this rule, so it would not have elided against stale bytes).
  std::ostringstream os(std::ios::binary);
  write_string(os, ModelSpec::conv(1, 8, 4, 4, {6, 8}).serialize());
  write_weight_set(os, random_weight_set(rng, 3));
  ShardDownlink next = d;
  next.bodies[0] = os.str();
  BroadcastCache evicting;
  decode_shard_down(encode_shard_down(5, kServerId, aggregator_id(0), d),
                    &evicting);
  decode_shard_down(encode_shard_down(6, kServerId, aggregator_id(0), next),
                    &evicting);
  EXPECT_EQ(evicting.find(broadcast_body_hash(d.bodies[0])), nullptr);
  ASSERT_NE(evicting.find(broadcast_body_hash(next.bodies[0])), nullptr);
}

TEST(WireTest, WeightDeltaCodecReconstructsBitwise) {
  Rng rng(73);
  WeightSet prev = random_weight_set(rng, 6);
  while (prev.size() < 3) prev = random_weight_set(rng, 6);
  WeightSet next;
  for (const Tensor& w : prev) next.push_back(w);
  // Tensor 0 stays identical (Same), tensor 1 gets a smooth additive nudge
  // (Delta or Literal — the writer proves bitwise reconstruction and picks),
  // tensor 2 is rewritten wholesale (Literal).
  for (std::int64_t j = 0; j < next[1].numel(); ++j) next[1][j] += 0.25f;
  next[2].randn(rng, 3.0f);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_weight_delta(ss, 41, prev, next);
  std::uint64_t base = 0;
  const WeightSet back = read_weight_delta(ss, prev, base);
  EXPECT_EQ(base, 41u);
  ASSERT_EQ(back.size(), next.size());
  for (std::size_t t = 0; t < next.size(); ++t) {
    ASSERT_EQ(back[t].shape(), next[t].shape());
    EXPECT_EQ(back[t].dtype(), next[t].dtype());
    for (std::int64_t j = 0; j < next[t].numel(); ++j)
      EXPECT_EQ(back[t][j], next[t][j]) << "tensor " << t << " elem " << j;
  }

  // A non-fp32 literal keeps its dtype tag across the trip.
  WeightSet half_next;
  for (const Tensor& w : prev) half_next.push_back(w);
  half_next[0].quantize_storage(Dtype::F16);
  std::stringstream hs(std::ios::in | std::ios::out | std::ios::binary);
  write_weight_delta(hs, 7, prev, half_next);
  const WeightSet half_back = read_weight_delta(hs, prev, base);
  EXPECT_EQ(half_back[0].dtype(), Dtype::F16);

  // Shape drift between writer and reader is refused.
  WeightSet skewed = prev;
  skewed.pop_back();
  std::stringstream bs(std::ios::in | std::ios::out | std::ios::binary);
  write_weight_delta(bs, 1, prev, next);
  EXPECT_THROW(read_weight_delta(bs, skewed, base), Error);
}

TEST(WireTest, DeltaModelDownRequiresMatchingBase) {
  Rng rng(79);
  WeightSet prev = random_weight_set(rng, 5);
  while (prev.empty()) prev = random_weight_set(rng, 5);
  WeightSet next;
  for (const Tensor& w : prev) next.push_back(w);
  next[0][0] += 1.0f;
  const std::string spec = ModelSpec::conv(1, 8, 4, 4, {6, 8}).serialize();

  // The exact payload a delta-flagged ModelDown carries:
  // [slot][spec][delta section][rng state].
  std::ostringstream os(std::ios::binary);
  write_pod<std::int32_t>(os, 3);
  write_string(os, spec);
  write_weight_delta(os, 12, prev, next);
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& s : rng_state) s = rng.next_u64();
  os.write(reinterpret_cast<const char*>(rng_state.data()),
           sizeof(rng_state));
  const std::string frame = encode_frame(MsgType::ModelDown, 9, kServerId, 4,
                                         os.str(), kFlagDelta);

  const FabricMessage msg = decode_message(frame, &prev, 12);
  EXPECT_EQ(msg.flags & kFlagDelta, kFlagDelta);
  EXPECT_EQ(msg.delta_base, 12u);
  EXPECT_EQ(msg.task, 3);
  EXPECT_EQ(msg.spec_text, spec);
  EXPECT_EQ(msg.rng_state, rng_state);
  ASSERT_EQ(msg.weights.size(), next.size());
  for (std::size_t t = 0; t < next.size(); ++t)
    for (std::int64_t j = 0; j < next[t].numel(); ++j)
      EXPECT_EQ(msg.weights[t][j], next[t][j]);

  // No previous model, or a previous model at the wrong version, must land
  // in frames_rejected territory — never silently wrong weights.
  EXPECT_THROW(decode_message(frame), Error);
  EXPECT_THROW(decode_message(frame, &prev, 11), Error);
}

TEST(WireTest, HostileCountsThrowInsteadOfAllocating) {
  // Well-framed bundles (checksums valid) whose count prefixes claim far
  // more elements than the payload holds: every decoder must reject them
  // as Error before sizing an allocation from the count.
  constexpr std::uint32_t kHuge = 0xFFFFFFF0u;
  const auto frame = [](MsgType type, const std::ostringstream& os) {
    return encode_frame(type, 1, kServerId, aggregator_id(0), os.str(), 0);
  };
  const auto shard_down_head = [](std::ostringstream& os) {
    write_pod<std::int32_t>(os, 0);  // shard
    write_pod<std::int32_t>(os, 0);  // leaf_lo
    write_pod<std::int32_t>(os, 1);  // leaf_hi
  };
  const auto reduced_head = [](std::ostringstream& os, std::uint8_t quant) {
    write_pod<std::int32_t>(os, 0);  // shard
    write_pod<std::uint8_t>(os, 1);  // reduced
    write_pod<std::uint8_t>(os, quant);
    write_pod<std::uint32_t>(os, 0);  // no entries
  };
  const auto group_head = [](std::ostringstream& os) {
    write_pod<std::uint32_t>(os, 1);  // one group
    write_pod<std::int32_t>(os, 0);   // key
    write_pod<std::int32_t>(os, 0);   // min slot
    write_pod<std::int32_t>(os, 1);   // count
    write_pod<double>(os, 1.0);       // weight
    write_pod<float>(os, 1.0f);       // int8 scale
  };

  {  // ShardDown body table
    std::ostringstream os(std::ios::binary);
    shard_down_head(os);
    write_pod<std::uint32_t>(os, kHuge);
    EXPECT_THROW(decode_shard_down(frame(MsgType::ShardDown, os)), Error);
  }
  {  // ShardDown task list
    std::ostringstream os(std::ios::binary);
    shard_down_head(os);
    write_pod<std::uint32_t>(os, 0);
    write_pod<std::uint32_t>(os, kHuge);
    EXPECT_THROW(decode_shard_down(frame(MsgType::ShardDown, os)), Error);
  }
  {  // verbatim PartialUp entries
    std::ostringstream os(std::ios::binary);
    write_pod<std::int32_t>(os, 0);
    write_pod<std::uint8_t>(os, 0);
    write_pod<std::uint32_t>(os, kHuge);
    EXPECT_THROW(decode_partial_up(frame(MsgType::PartialUp, os)), Error);
  }
  {  // reduced PartialUp groups
    std::ostringstream os(std::ios::binary);
    reduced_head(os, kPartialQuantF32);
    write_pod<std::uint32_t>(os, kHuge);
    EXPECT_THROW(decode_partial_up(frame(MsgType::PartialUp, os)), Error);
  }
  {  // int8 group: tensor count
    std::ostringstream os(std::ios::binary);
    reduced_head(os, kPartialQuantInt8);
    group_head(os);
    write_pod<std::uint32_t>(os, kHuge);
    EXPECT_THROW(decode_partial_up(frame(MsgType::PartialUp, os)), Error);
  }
  {  // int8 group: element count of one tensor
    std::ostringstream os(std::ios::binary);
    reduced_head(os, kPartialQuantInt8);
    group_head(os);
    write_pod<std::uint32_t>(os, 1);  // one tensor
    write_pod<std::uint32_t>(os, 2);  // rank
    write_pod<std::int32_t>(os, 0x7FFFFFFF);
    write_pod<std::int32_t>(os, 0x7FFFFFFF);
    write_pod<std::int8_t>(os, 1);
    EXPECT_THROW(decode_partial_up(frame(MsgType::PartialUp, os)), Error);
  }
}

TEST(WireTest, BadMagicAndVersionAreRejected) {
  FabricMessage msg;
  msg.type = MsgType::Ack;
  std::string frame = encode_message(msg);
  {
    std::string bad = frame;
    bad[0] = 'X';
    EXPECT_THROW(decode_message(bad), Error);
    EXPECT_THROW(frame_size(bad), Error);
  }
  {
    std::string bad = frame;
    bad[4] = static_cast<char>(0x7f);  // version
    EXPECT_THROW(decode_message(bad), Error);
  }
  {
    std::string bad = frame;
    bad[6] = static_cast<char>(0xee);  // message type
    EXPECT_THROW(decode_message(bad), Error);
  }
}

}  // namespace
}  // namespace fedtrans
