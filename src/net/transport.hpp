#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// How a Byzantine client misbehaves for a round it attacks (see
/// FaultConfig::byzantine_prob; docs/robustness.md for the threat model).
enum class ByzantineMode : std::uint8_t {
  None = 0,
  /// Upload −Δ instead of Δ (classic sign-flipping attack).
  SignFlip,
  /// Upload λ·Δ (λ = FaultConfig::byzantine_lambda) — a scaled/boosted
  /// update that dominates any linear mean.
  ScaledUpdate,
  /// Train honestly but on label-flipped local data (y → C−1−y), so the
  /// update is a well-formed gradient toward the wrong task.
  LabelFlip,
  /// Train and upload honestly, but report a near-perfect training loss —
  /// gaming loss-driven coordinators (FedTrans utility learning, loss-aware
  /// selectors) rather than the weight aggregate.
  UtilityInflate,
};

/// Fault-injection knobs of the transport layer. All probabilities are
/// per-frame (or per-client-per-round for dropout) and are drawn from a
/// counter-hashed generator keyed on (seed, link, sequence number), so fault
/// decisions are bit-reproducible regardless of the order in which threads
/// hit the transport — and regardless of which Transport implementation
/// carries the bytes.
struct FaultConfig {
  /// Probability a frame is lost in transit (applies per direction).
  double drop_prob = 0.0;
  /// Probability a frame is delivered twice (receiver-side dedup required).
  double dup_prob = 0.0;
  /// Probability a frame is delayed behind its link successor (reordering).
  /// This perturbs the simulated delivery timestamps (and hence the
  /// (deliver_at, seq) order receivers consume in). Synchronous rounds
  /// drain complete mailboxes and reduce in task order, so their outcomes
  /// are reorder-invariant by design. In async sessions a reordered
  /// frame's later delivery moves its job's update arrival, and with it
  /// the order the engine folds updates in (and whether the update beats
  /// the ack-timeout deadline).
  double reorder_prob = 0.0;
  /// Probability a client goes offline mid-round: it trains, then vanishes
  /// before its update leaves the device (an Abort may be attempted).
  double dropout_prob = 0.0;
  /// Probability a leaf aggregator is dead for a whole round (per (round,
  /// leaf) — a per-shard fault domain). The leaf's parent redirects its
  /// client partition to an alive sibling; with no alive sibling the
  /// partition's tasks are lost for the round.
  double leaf_death_prob = 0.0;
  /// Probability a client behaves Byzantine for a round — drawn per (seed,
  /// round, client) like dropout, so attack schedules are bit-reproducible
  /// across thread counts and transports. Unlike the wire faults above this
  /// models *client* behavior, so it also applies to in-process (non-fabric)
  /// sessions. What an attacking client does is `byzantine_mode`.
  double byzantine_prob = 0.0;
  ByzantineMode byzantine_mode = ByzantineMode::SignFlip;
  /// Scale factor λ of ByzantineMode::ScaledUpdate.
  double byzantine_lambda = 10.0;
  std::uint64_t seed = 0x5eedf417ULL;
};

/// Deterministic per-(round, client) Byzantine draw — a pure function of
/// (f.seed, round, client), mirroring Transport::client_dropped_out but
/// usable without a transport (the in-process engine path asks too).
bool byzantine_client(const FaultConfig& f, std::uint32_t round,
                      std::int32_t client);

/// Aggregate transport counters (monotone; atomic so fabric workers can
/// update them concurrently).
struct FabricStats {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_delivered{0};
  std::atomic<std::uint64_t> frames_dropped{0};
  std::atomic<std::uint64_t> frames_duplicated{0};
  std::atomic<std::uint64_t> frames_reordered{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_delivered{0};
  std::atomic<std::uint64_t> client_dropouts{0};
  /// Delivered frames a receiver could not decode. The transports never
  /// corrupt bytes, so any nonzero value here is a codec bug, not a
  /// fault-injection artifact — fault-free tests assert it stays zero.
  std::atomic<std::uint64_t> frames_rejected{0};
  /// Retry-policy resends (FabricTopology::max_retries) of frames lost in
  /// transit, split by direction so CostMeter can bill them: `down` counts
  /// server→client traffic, `up` counts client→server and shard→root.
  std::atomic<std::uint64_t> frames_retried{0};
  std::atomic<std::uint64_t> retry_bytes_down{0};
  std::atomic<std::uint64_t> retry_bytes_up{0};
  /// Leaf-failover events (a dead leaf's partition redirected to a sibling,
  /// FaultConfig::leaf_death_prob) and the redirected-bundle traffic, billed
  /// through CostMeter like retry resends.
  std::atomic<std::uint64_t> leaf_failovers{0};
  std::atomic<std::uint64_t> failover_bytes_down{0};
  /// Bytes delivered into the root's mailbox — the tree's fan-in pressure
  /// (what numeric partial aggregation collapses from O(clients) to
  /// O(branching); bench_fabric_throughput reports it per round).
  std::atomic<std::uint64_t> bytes_root_in{0};
  /// Bytes of downlink-direction frames sent (JoinRound/ModelDown/
  /// ShardDown) — the denominator the wire v6 broadcast-cache and
  /// delta-downlink savings are measured against.
  std::atomic<std::uint64_t> bytes_downlink{0};
  /// Broadcast-cache elisions (FabricTopology::broadcast_cache): bundle
  /// bodies shipped as a 64-bit hash because the receiving aggregator
  /// already held the bytes, and the body bytes that never travelled.
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_saved_bytes{0};
  /// Delta ModelDowns (FabricTopology::delta_downlink): frames shipped as
  /// a round-over-round diff, and the bytes saved vs the full payload.
  std::atomic<std::uint64_t> delta_downlinks{0};
  std::atomic<std::uint64_t> delta_saved_bytes{0};
};

/// A frame in flight / delivered: opaque bytes plus simulated-time stamps.
struct Envelope {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  /// Simulated send/delivery instants (seconds since round start). Delivery
  /// is send + link transfer time; faults may push it further back.
  double sent_at_s = 0.0;
  double deliver_at_s = 0.0;
  /// Per-link sequence number (FIFO order before fault perturbation).
  std::uint64_t seq = 0;
  std::string frame;
};

/// Canonical delivery order every transport's receivers consume in:
/// (deliver_at, src, seq) — the total order that makes fault-free rounds
/// independent of which implementation carried the bytes.
bool envelope_earlier(const Envelope& a, const Envelope& b);

/// Abstract transport between the federation server (endpoint `kServerId` =
/// -1), optional shard aggregators (`aggregator_id(k)` = -2 - k, see
/// wire.hpp), and `num_clients` client endpoints (ids 0..n-1).
///
/// The base class owns everything that must be implementation-independent
/// for fault-free rounds to stay bitwise identical across transports: the
/// fleet (simulated link latency and device lookup), the counter-hashed
/// fault draws (drop/dup/reorder/dropout/leaf-death), per-link sequence
/// numbers, envelope timestamp stamping, and the FabricStats accounting.
/// Implementations only decide how stamped envelopes travel from send() to
/// the destination's drain(): `SimTransport` moves them through
/// in-process mailboxes; `SocketTransport` (net/socket_transport.hpp)
/// serializes them over real non-blocking sockets and reassembles frames
/// incrementally on the receive side.
class Transport {
 public:
  Transport(std::vector<DeviceProfile> fleet, FaultConfig faults,
            int num_aggregators);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int num_clients() const { return static_cast<int>(fleet_.size()); }
  int num_aggregators() const { return num_aggregators_; }

  /// Queue a frame from `src` to `dst` (either kServerId or a client id),
  /// `sent_at_s` seconds into the simulated round. Returns false if the
  /// frame was lost to fault injection. Thread-safe.
  virtual bool send(std::int32_t src, std::int32_t dst, std::string frame,
                    double sent_at_s = 0.0) = 0;

  /// Drain every pending frame for `dst` in delivery order. Thread-safe.
  virtual std::vector<Envelope> drain(std::int32_t dst) = 0;

  /// Implementation tag ("sim", "socket") for diagnostics and metrics.
  virtual std::string name() const = 0;

  /// Deterministic per-(round, client) dropout draw — the same question
  /// always gets the same answer, independent of thread schedule.
  bool client_dropped_out(std::uint32_t round, std::int32_t client) const;

  /// Deterministic per-(round, leaf) death draw for the tree's per-shard
  /// fault domains (leaf indexed by its partition id, not endpoint id).
  bool leaf_dead(std::uint32_t round, std::int32_t leaf) const;

  /// One-way simulated transfer time of `bytes` to/from `client`.
  double link_time_s(std::int32_t client, std::size_t bytes) const;

  /// The device behind a client endpoint (agents derive compute time).
  const DeviceProfile& device(std::int32_t client) const;

  const FabricStats& stats() const { return stats_; }
  FabricStats& stats_mutable() { return stats_; }
  const FaultConfig& faults() const { return faults_; }

 protected:
  /// A send() stamped for delivery: the envelope (timestamps, sequence
  /// number) plus the trailing duplicate when the dup fault fired.
  struct Stamped {
    Envelope env;
    std::optional<Envelope> dup;
  };

  /// Shared front half of every send(): sequence the frame on its link,
  /// count it sent, apply the drop/reorder/dup draws, and stamp simulated
  /// timestamps (client-radio latency; zero-latency backbone between
  /// negative endpoints). Returns nullopt when the frame was dropped —
  /// already counted and traced. Identical across implementations, which is
  /// what keeps fault sequences and envelope metadata bitwise equal.
  std::optional<Stamped> stamp(std::int32_t src, std::int32_t dst,
                               std::string frame, double sent_at_s);

  /// Shared back half: delivered/duplicated/root-fan-in accounting for a
  /// stamped send that reached the destination's queue.
  void account_delivered(const Stamped& s);

  /// Uniform [0,1) hash draw for fault decision `salt` on frame
  /// (link, seq) — counter-based, schedule-independent.
  double fault_draw(std::uint64_t link, std::uint64_t seq,
                    std::uint64_t salt) const;

  /// Endpoint index on the canonical dense layout: 0 = server, c+1 =
  /// client c, n+1+k = aggregator k. Checks the endpoint exists.
  int endpoint_index(std::int32_t endpoint) const;
  int num_endpoints() const {
    return num_clients() + 1 + num_aggregators_;
  }

  std::vector<DeviceProfile> fleet_;
  FaultConfig faults_;
  int num_aggregators_ = 0;
  std::mutex seq_m_;
  std::unordered_map<std::uint64_t, std::uint64_t> link_seq_;
  FabricStats stats_;
};

/// In-process simulated transport: stamped envelopes go straight into the
/// destination's mutex-guarded mailbox, so fabric workers running on the
/// shared ThreadPool can send/receive concurrently. Time is virtual — a
/// frame is visible to its receiver immediately, carrying the simulated
/// delivery instant receivers order by.
///
/// Mailboxes are allocated lazily, on first touch: a million-client
/// population (src/pop) keeps descriptors for every client but only the
/// per-round cohort ever exchanges frames, so idle clients cost this
/// transport nothing.
class SimTransport final : public Transport {
 public:
  SimTransport(std::vector<DeviceProfile> fleet, FaultConfig faults,
               int num_aggregators = 0);

  bool send(std::int32_t src, std::int32_t dst, std::string frame,
            double sent_at_s = 0.0) override;
  std::vector<Envelope> drain(std::int32_t dst) override;
  std::string name() const override { return "sim"; }

 private:
  struct Mailbox {
    std::mutex m;
    std::vector<Envelope> q;
  };

  Mailbox& mailbox(std::int32_t endpoint);

  std::mutex boxes_m_;  ///< guards the map, not the mailboxes
  std::unordered_map<int, std::unique_ptr<Mailbox>> boxes_;
};

/// Which Transport implementation a fabric session runs over.
enum class TransportKind : std::uint8_t {
  Sim,     ///< in-process mailboxes (the default; zero syscalls)
  Socket,  ///< real non-blocking sockets, loopback (net/socket_transport)
};

/// Tuning knobs of the socket transport (ignored by TransportKind::Sim).
struct SocketOptions {
  /// Max bytes consumed per recv() call. Small values force frames to
  /// arrive split across many reads — the incremental reassembly path the
  /// loopback tests exercise on purpose.
  int read_chunk = 4096;
  /// Max bytes per write() call (torn writes); 0 = write whole frames.
  int write_chunk = 0;
};

/// Factory behind SessionConfig::transport: build the requested transport
/// over `fleet` with the shared fault model.
std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::vector<DeviceProfile> fleet,
                                          FaultConfig faults,
                                          int num_aggregators = 0,
                                          const SocketOptions& socket = {});

}  // namespace fedtrans
