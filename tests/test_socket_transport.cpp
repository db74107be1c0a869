// Socket-transport tests: (1) incremental wire-frame reassembly — a frame
// fed to the FrameAssembler one byte at a time (or many frames in odd-sized
// chunks) pops out whole and decodes cleanly, short buffers report
// NeedMoreBytes instead of corruption, and a corrupted payload is still
// rejected by the checksum at decode time; (2) frames pushed through the
// real socketpair channel — including torn writes and tiny read chunks —
// arrive with envelope metadata and bytes identical to SimTransport's, in
// the same delivery order, with the shared fault injection drawing the same
// faults on both transports; (3) fault-free FedAvg and FedTrans sessions
// over SocketTransport loopback are bitwise identical to SimTransport
// sessions; (4) the listener/connector helpers move frames between real
// endpoints with incremental reads; (5) fedtrans_socket_* metrics tie out
// against FabricStats byte-for-byte.

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 16;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n, std::uint64_t seed = 9) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = seed;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

std::string sample_frame(std::uint32_t round, std::int32_t sender,
                         int payload_scale) {
  FabricMessage msg;
  msg.type = MsgType::UpdateUp;
  msg.round = round;
  msg.sender = sender;
  msg.receiver = kServerId;
  msg.task = 3;
  msg.avg_loss = 0.5;
  msg.num_samples = 10;
  msg.macs_used = 1e6;
  msg.weights.push_back(Tensor({payload_scale, 3}));
  Rng rng(round + 99);
  msg.weights.back().randn(rng, 0.5f);
  return encode_message(msg);
}

TEST(FrameAssemblerTest, ByteAtATimeReassembly) {
  const std::string frame = sample_frame(1, 4, 5);
  FrameAssembler assembler;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    assembler.feed(frame.data() + i, 1);
    EXPECT_FALSE(assembler.next_frame().has_value())
        << "frame completed early at byte " << i;
  }
  assembler.feed(frame.data() + frame.size() - 1, 1);
  auto out = assembler.next_frame();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  EXPECT_EQ(assembler.buffered(), 0u);

  const FabricMessage msg = decode_message(*out);
  EXPECT_EQ(msg.type, MsgType::UpdateUp);
  EXPECT_EQ(msg.sender, 4);
}

TEST(FrameAssemblerTest, ManyFramesAcrossOddChunks) {
  std::string stream;
  std::vector<std::string> frames;
  for (int i = 0; i < 7; ++i) {
    frames.push_back(sample_frame(static_cast<std::uint32_t>(i), i, 2 + i));
    stream += frames.back();
  }
  FrameAssembler assembler;
  std::vector<std::string> got;
  // Feed in chunks of 13 bytes — frames straddle every chunk boundary.
  for (std::size_t off = 0; off < stream.size(); off += 13) {
    assembler.feed(stream.data() + off, std::min<std::size_t>(13, stream.size() - off));
    while (auto f = assembler.next_frame()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_EQ(got[i], frames[i]);
}

TEST(FrameAssemblerTest, ShortBuffersAreNeedMoreBytesNotErrors) {
  const std::string frame = sample_frame(2, 1, 4);
  std::size_t total = 0;
  // Every proper prefix — header fragments included — is "keep reading".
  EXPECT_EQ(try_frame_size(std::string_view(frame).substr(0, 3), total),
            FrameStatus::NeedMoreBytes);
  EXPECT_EQ(try_frame_size(std::string_view(frame).substr(0, kWireHeaderBytes),
                           total),
            FrameStatus::NeedMoreBytes);
  EXPECT_EQ(try_frame_size(
                std::string_view(frame).substr(0, frame.size() - 1), total),
            FrameStatus::NeedMoreBytes);
  EXPECT_EQ(try_frame_size(frame, total), FrameStatus::FrameReady);
  EXPECT_EQ(total, frame.size());
}

TEST(FrameAssemblerTest, BadMagicIsStreamCorruption) {
  std::string garbage = sample_frame(3, 2, 4);
  garbage[0] = 'X';  // clobber the magic
  FrameAssembler assembler;
  assembler.feed(garbage);
  EXPECT_THROW(assembler.next_frame(), Error);
}

TEST(FrameAssemblerTest, CorruptPayloadStillRejectedByChecksum) {
  std::string frame = sample_frame(4, 5, 6);
  frame[frame.size() - 2] ^= 0x20;  // flip a payload byte
  FrameAssembler assembler;
  assembler.feed(frame);
  // Framing only checks lengths — the frame pops out...
  auto out = assembler.next_frame();
  ASSERT_TRUE(out.has_value());
  // ...and the decoder's checksum catches the corruption.
  EXPECT_THROW(decode_message(*out), Error);
}

TEST(SocketTransportTest, TornWritesAndTinyReadsMatchSimBitwise) {
  auto fleet = tiny_fleet(6);
  SocketOptions chunky;
  chunky.read_chunk = 7;   // frames arrive split across many reads
  chunky.write_chunk = 5;  // and leave in torn writes
  SimTransport sim(fleet, {}, 0);
  SocketTransport sock(fleet, {}, 0, chunky);

  std::vector<std::string> frames;
  for (int c = 0; c < 6; ++c)
    frames.push_back(sample_frame(1, c, 3 + c));

  for (int c = 0; c < 6; ++c) {
    ASSERT_TRUE(sim.send(c, kServerId, frames[static_cast<std::size_t>(c)],
                         0.25 * c));
    ASSERT_TRUE(sock.send(c, kServerId, frames[static_cast<std::size_t>(c)],
                          0.25 * c));
  }

  const auto via_sim = sim.drain(kServerId);
  const auto via_sock = sock.drain(kServerId);
  ASSERT_EQ(via_sim.size(), via_sock.size());
  for (std::size_t i = 0; i < via_sim.size(); ++i) {
    EXPECT_EQ(via_sim[i].src, via_sock[i].src);
    EXPECT_EQ(via_sim[i].dst, via_sock[i].dst);
    EXPECT_EQ(via_sim[i].seq, via_sock[i].seq);
    EXPECT_EQ(via_sim[i].sent_at_s, via_sock[i].sent_at_s);
    EXPECT_EQ(via_sim[i].deliver_at_s, via_sock[i].deliver_at_s);
    EXPECT_EQ(via_sim[i].frame, via_sock[i].frame) << "frame bytes differ";
    EXPECT_NO_THROW(decode_message(via_sock[i].frame));
  }
  EXPECT_EQ(sim.stats().frames_delivered.load(),
            sock.stats().frames_delivered.load());
  EXPECT_EQ(sim.stats().bytes_delivered.load(),
            sock.stats().bytes_delivered.load());
}

TEST(SocketTransportTest, FaultDrawsAreTransportIndependent) {
  auto fleet = tiny_fleet(8);
  FaultConfig faults;
  faults.drop_prob = 0.3;
  faults.dup_prob = 0.2;
  faults.reorder_prob = 0.25;
  faults.seed = 77;
  SimTransport sim(fleet, faults, 0);
  SocketTransport sock(fleet, faults, 0, {});

  int delivered_sim = 0, delivered_sock = 0;
  for (int i = 0; i < 40; ++i) {
    const int c = i % 8;
    const std::string frame = sample_frame(static_cast<std::uint32_t>(i), c, 2);
    delivered_sim += sim.send(c, kServerId, frame, 0.1 * i) ? 1 : 0;
    delivered_sock += sock.send(c, kServerId, frame, 0.1 * i) ? 1 : 0;
  }
  EXPECT_EQ(delivered_sim, delivered_sock)
      << "the same frames must draw the same drops on both transports";
  EXPECT_EQ(sim.stats().frames_dropped.load(),
            sock.stats().frames_dropped.load());
  EXPECT_EQ(sim.stats().frames_duplicated.load(),
            sock.stats().frames_duplicated.load());
  EXPECT_EQ(sim.stats().frames_reordered.load(),
            sock.stats().frames_reordered.load());

  const auto a = sim.drain(kServerId);
  const auto b = sock.drain(kServerId);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].deliver_at_s, b[i].deliver_at_s);
    EXPECT_EQ(a[i].frame, b[i].frame);
  }
}

TEST(SocketTransportTest, LargeFramesSurviveKernelBufferPressure) {
  // A frame far bigger than a socketpair's kernel buffer (~200 KB default)
  // forces the writer through its pump-to-relieve path.
  auto fleet = tiny_fleet(2);
  SocketTransport sock(fleet, {}, 0, {});
  const std::string big = sample_frame(1, 0, 300000);  // ~3.6 MB payload
  ASSERT_GT(big.size(), 1000000u);
  ASSERT_TRUE(sock.send(0, kServerId, big, 0.0));
  const auto inbox = sock.drain(kServerId);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].frame, big);
  EXPECT_TRUE(sock.drain(kServerId).empty());
}

TEST(SocketTransportTest, SocketMetricsTieOutAgainstFabricStats) {
  auto before = MetricsRegistry::global().snapshot();
  const double frames0 = before.counters["fedtrans_socket_frames_total"];
  const double bytes0 = before.counters["fedtrans_socket_bytes_total"];

  auto fleet = tiny_fleet(4);
  FaultConfig faults;
  faults.dup_prob = 0.4;  // duplicates cross the socket twice
  faults.seed = 5;
  SocketTransport sock(fleet, faults, 0, {});
  for (int i = 0; i < 20; ++i)
    sock.send(i % 4, kServerId, sample_frame(static_cast<std::uint32_t>(i),
                                             i % 4, 2));

  auto after = MetricsRegistry::global().snapshot();
  const auto delivered = sock.stats().frames_delivered.load();
  const auto delivered_bytes = sock.stats().bytes_delivered.load();
  // Every delivered envelope (duplicates included) crossed the socket
  // exactly once, prefixed by one envelope header.
  EXPECT_EQ(after.counters["fedtrans_socket_frames_total"] - frames0,
            static_cast<double>(delivered));
  EXPECT_EQ(after.counters["fedtrans_socket_bytes_total"] - bytes0,
            static_cast<double>(delivered_bytes +
                                kSocketEnvelopeBytes * delivered));
}

TEST(SocketParityTest, FedAvgSocketLoopbackMatchesSimBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig on_sim;
      on_sim.rounds = 3;
      on_sim.clients_per_round = 4;
      on_sim.local.steps = 3;
      on_sim.local.batch = 6;
      on_sim.eval_every = 2;
      on_sim.eval_clients = 6;
      on_sim.seed = seed;
      on_sim.use_fabric = true;
      FederationEngine a(testing::fedavg(init), data, fleet, on_sim);
      a.run();

      SessionConfig on_socket = on_sim;
      SocketOptions chunky;
      chunky.read_chunk = 11;  // exercise reassembly on every frame
      chunky.write_chunk = 9;
      on_socket.with_socket_transport(chunky);
      FederationEngine b(testing::fedavg(init), data, fleet, on_socket);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->transport().name(), "socket");
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);

      auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
      auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;

      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].accuracy, b.history()[r].accuracy);
        EXPECT_EQ(a.history()[r].cum_macs, b.history()[r].cum_macs);
      }
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(SocketParityTest, FedTransSocketLoopbackMatchesSimBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());

  FedTransConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 13;
  SessionConfig session = SessionConfig::from(cfg);
  session.use_fabric = true;

  FederationEngine a(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                     data, fleet, session);
  session.with_socket_transport();
  FederationEngine b(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                     data, fleet, session);
  a.run();
  b.run();
  auto& fa = a.strategy_as<FedTransStrategy>();
  auto& fb = b.strategy_as<FedTransStrategy>();

  ASSERT_EQ(fa.num_models(), fb.num_models());
  EXPECT_GE(fa.num_models(), 2) << "transformation should have fired";
  for (int k = 0; k < fa.num_models(); ++k) {
    auto wa = fa.model(k).weights();
    auto wb = fb.model(k).weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
          << "model " << k << " tensor " << i;
  }
}

TEST(SocketListenerTest, UnixFramesCrossProcessBoundaryStyleSockets) {
  const std::string path = ::testing::TempDir() + "fedtrans_ut.sock";
  SocketListener listener = SocketListener::bind_unix(path);

  const std::string f1 = sample_frame(1, 2, 6);
  const std::string f2 = sample_frame(2, 3, 4);
  std::thread peer([&] {
    const int fd = connect_unix(path);
    send_frame_fd(fd, f1);
    send_frame_fd(fd, f2);
    ::close(fd);
  });

  const int fd = listener.accept_fd();
  FdFrameReader reader(fd, /*read_chunk=*/5);  // force split reads
  EXPECT_EQ(reader.read_frame(), f1);
  EXPECT_EQ(reader.read_frame(), f2);
  peer.join();
  ::close(fd);
}

TEST(SocketListenerTest, TcpLoopbackRoundTrip) {
  SocketListener listener = SocketListener::bind_tcp(0);
  ASSERT_GT(listener.port(), 0);

  const std::string f = sample_frame(9, 1, 8);
  std::thread peer([&] {
    const int fd = connect_tcp("127.0.0.1", listener.port());
    send_frame_fd(fd, f);
    ::close(fd);
  });

  const int fd = listener.accept_fd();
  FdFrameReader reader(fd);
  EXPECT_EQ(reader.read_frame(), f);
  peer.join();
  ::close(fd);
}

}  // namespace
}  // namespace fedtrans
