#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "fl/session.hpp"
#include "model/model.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace fedtrans {

/// Ground-truth outcome of one task of a fabric round (indexed like the
/// coordinator's task list). Billing needs the truth even when the
/// corresponding message never reached the server.
enum class ClientOutcome : std::uint8_t {
  Trained,   ///< update arrived; eligible for aggregation
  LostDown,  ///< invitation/model lost on the downlink — no compute burned
  LostUp,    ///< trained, but the update was lost on the uplink
  Dropout,   ///< trained, then the device went offline before uploading
};

/// What one exchange produced, per task slot — plus the round's
/// retry-policy resend traffic (FabricTopology::max_retries) and leaf
/// failover traffic, split by direction so the engine can bill them
/// through CostMeter.
///
/// In numeric partial-aggregation rounds (`reduced == true`) the per-slot
/// results carry metrics only (empty delta): the deltas were pre-summed in
/// the tree and arrive as `groups`, one per reduce key, for the strategy's
/// `absorb_reduced` hook.
struct ExchangeResult {
  std::vector<LocalTrainResult> results;  ///< valid iff outcome == Trained
  std::vector<ClientOutcome> outcomes;
  /// Simulated instant each slot's update reached the root (valid iff
  /// Trained): the delivery instant of the frame that carried it there, or
  /// in-process the exchange's start plus the task's task_round_time_s.
  /// The async event loop folds completions in this order.
  std::vector<double> arrived_at_s;
  bool reduced = false;
  std::vector<ReducedGroup> groups;  ///< reduced mode only, merged at root
  double retry_down_bytes = 0.0;
  double retry_up_bytes = 0.0;
  double failover_down_bytes = 0.0;
  int leaf_failovers = 0;
  /// Downlink bytes the round's delta ModelDowns saved vs full payloads
  /// (FabricTopology::delta_downlink); credited back through CostMeter.
  double delta_saved_bytes = 0.0;
};

/// Deterministic shape of the aggregation tree implied by a FabricTopology:
/// tier 0 is the root (`kServerId`), tiers 1..levels-1 are aggregator
/// tiers, and the bottom tier holds the `shards` leaves. Interior tiers
/// shrink by the branching factor going up (node (t, j)'s children are
/// tier-(t+1) nodes [j·b, (j+1)·b) clamped). Every participant of the
/// simulated fabric derives the same tree from the same topology, so
/// routing needs no wire-level discovery — bundles only carry the leaf
/// range they cover.
class FabricTree {
 public:
  FabricTree() = default;  ///< flat fabric: no aggregators
  explicit FabricTree(const FabricTopology& topo);

  int levels() const { return levels_; }
  int leaves() const { return levels_ >= 2 ? width_.back() : 0; }
  int branching() const { return branching_; }
  int num_aggregators() const { return total_; }
  int tier_width(int tier) const {
    return width_[static_cast<std::size_t>(tier - 1)];
  }
  /// Endpoint id of node j of tier t (t in [1, levels); leaves are the
  /// bottom tier). Leaves keep the historical ids aggregator_id(0..L-1).
  std::int32_t node_id(int tier, int j) const;
  std::int32_t leaf_id(int leaf) const { return node_id(levels_ - 1, leaf); }
  /// Endpoint of node (t, j)'s parent — the root for t == 1.
  std::int32_t parent_id(int tier, int j) const;
  /// Children of node (t, j) as indices [lo, hi) into tier t + 1.
  std::pair<int, int> child_range(int tier, int j) const;
  /// Leaf partitions covered by the subtree under node (t, j) as [lo, hi).
  std::pair<int, int> leaf_range(int tier, int j) const;
  /// The tier-`tier` node whose subtree covers `leaf`.
  int node_covering(int tier, int leaf) const;
  /// Siblings of leaf `s` (its parent's child range, including itself).
  std::pair<int, int> sibling_range(int leaf) const;

 private:
  int levels_ = 1;
  int branching_ = 1;
  std::vector<int> width_;   ///< width_[t-1] = nodes on tier t
  std::vector<int> offset_;  ///< offset_[t-1] = first aggregator index of t
  int total_ = 0;
};

/// Per-client memory of the last model each client decoded from a
/// ModelDown, shared between the downlink senders (who diff the next
/// round's payload against it, FabricTopology::delta_downlink) and the
/// ClientAgent pollers (who record what actually got decoded). The store
/// is only advanced after a client's poll completes — every delta sent
/// within a round is diffed against the same base — and only when the
/// client decoded exactly one ModelDown that round: a multi-slot client
/// decodes several models per round, so its slot is erased rather than
/// left ambiguous (it simply keeps receiving full payloads). Entries are
/// versioned; the version rides the wire and a mismatch rejects the frame,
/// so a desynchronized diff can never silently corrupt client weights.
class DeltaStore {
 public:
  struct Entry {
    std::uint64_t version = 0;
    std::uint64_t spec_digest = 0;  ///< fnv1a64 of the model's spec text
    WeightSet weights;
  };

  /// The client's current entry (shared snapshot; senders and the client's
  /// own poll may read concurrently), or nullptr when none is held.
  std::shared_ptr<const Entry> peek(int client) const;
  void update(int client, std::shared_ptr<const Entry> e);
  void erase(int client);

 private:
  mutable std::mutex m_;
  std::unordered_map<int, std::shared_ptr<const Entry>> map_;
};

/// Reject a topology no fabric can run — levels outside 1..6, no shard, a
/// negative branching factor, partial aggregation without a tree, a
/// negative retry budget or a non-positive ack timeout, quantized partials
/// without the numeric reduction — with an Error.
void validate_topology(const FabricTopology& topo);

/// Edge-device worker: owns one client's fabric endpoint. On receipt of a
/// (JoinRound, ModelDown) pair for a task slot it materializes the payload
/// model — the round prototype for shared-blob broadcasts, or the
/// architecture serialized into the frame for heterogeneous strategies —
/// replays the coordinator-forked Rng, runs local_train, and uploads
/// UpdateUp per task to the coordinator that sent the model (the root, or
/// a shard aggregator in hierarchical topologies) — or Abort, if the fault
/// injector says the device dropped out mid-round. A lost UpdateUp is
/// resent `ack_timeout_s` apart, up to `max_retries` times.
class ClientAgent {
 public:
  ClientAgent(int id, const ClientDataProvider& data, LocalTrainConfig local,
              FabricTopology policy);

  /// Drain this client's mailbox for `round`, train every task whose
  /// invitation and model both arrived, and record each task's outcome in
  /// its slot of `outcomes` (slots are disjoint across agents, so workers
  /// write concurrently without coordination). `store`, when given, is the
  /// fabric's DeltaStore: delta-flagged ModelDowns decode against the
  /// client's entry, and the entry advances to what this poll decoded.
  void poll(std::uint32_t round, const Model& prototype, Transport& net,
            std::vector<ClientOutcome>& outcomes, DeltaStore* store = nullptr);

  /// What training one received task left on the device.
  struct TaskRun {
    ClientOutcome outcome = ClientOutcome::Trained;
    double done_s = 0.0;   ///< upload-ready instant
    LocalTrainResult res;  ///< metrics; the delta left in the UpdateUp
  };
  /// The device's one train site: train the task `down` carries (payload
  /// architecture, weights and coordinator-forked Rng all arrived in the
  /// frame, delivered at `down_at_s`), then upload UpdateUp to the frame's
  /// sender under the retry policy — unless the device drops out of
  /// `down.round` after training. Outcome is Trained iff the upload was
  /// delivered. The virtual train span carries the task slot.
  TaskRun train_and_upload(const FabricMessage& down, double down_at_s,
                           const Model& prototype, Transport& net);

 private:
  int id_;
  const ClientDataProvider* data_;
  LocalTrainConfig local_;
  FabricTopology policy_;
};

/// Multithreaded federation coordinator: executes the per-round protocol
///
///   Broadcast — JoinRound + ModelDown frame per task slot
///   Collect   — ClientAgent workers run concurrently on the shared
///               ThreadPool; the server drains its mailbox, deduplicates,
///               and matches UpdateUp/Abort frames to the task list
///   (Aggregation stays with the caller — the FederationEngine folds the
///    collected deltas with exactly the same fixed-order reduction as its
///    in-process path, which is what makes fault-free fabric runs bitwise
///    identical.)
///
/// Both scheduling modes cross the fabric through this one round: an
/// asynchronous (FedBuff) dispatch is a one-task round started at the
/// dispatch instant, keyed by its job id.
///
/// A flat topology is the degenerate tree: the root is its only leaf, and
/// fans out and matches updates with the same code a leaf aggregator runs.
/// With a tree topology (FabricTopology::levels >= 2) the same round runs
/// over an aggregation tree of arbitrary depth: the root ships one bundled
/// ShardDown frame per child, interior tiers split bundles among their
/// children, and each leaf aggregator fans its bundle out to its client
/// partition (task slot i belongs to leaf i % shards), collects the
/// partition's UpdateUps — node-parallel on the shared ThreadPool — and
/// forwards one bundled PartialUp upstream, merged tier by tier back to
/// the root. By default bundles carry the per-task updates verbatim, so
/// the root reassembles exactly the task list a flat round would have
/// collected and fault-free tree rounds of any depth stay bitwise
/// identical to flat ones. With FabricTopology::partial_aggregation the
/// aggregators instead reduce their updates numerically (per reduce group:
/// Σ num_samples·Δ + the weight total, folded in ascending min-slot order
/// at every merge point) and only per-task metrics ride verbatim.
///
/// Leaves are per-shard fault domains: a leaf dead for the round
/// (FaultConfig::leaf_death_prob) has its partition's bundle redirected to
/// an alive sibling one ack-timeout later — billed as failover traffic and
/// counted in FabricStats::leaf_failovers. With no alive sibling the
/// partition is lost for the round (LostDown).
///
/// Straggler policy (overcommit/deadline) is applied by the strategy before
/// broadcast from predicted completion times, FedScale-style, so the task
/// list the fabric sees is already deadline-trimmed.
class FederationServer {
 public:
  FederationServer(const Model& prototype, const ClientDataProvider& data,
                   std::vector<DeviceProfile> fleet, LocalTrainConfig local,
                   FaultConfig faults, FabricTopology topology = {},
                   TransportKind transport = TransportKind::Sim,
                   SocketOptions socket = {});

  /// Shared-model exchange: every task downloads the same `global` weight
  /// snapshot (encoded once) into the prototype architecture. `clients[i]`
  /// is task slot i's client; `client_rngs[i]` is the coordinator-forked
  /// generator it must train with. Slot order is preserved in the result.
  /// `reduce_keys` (one per slot) turns on the numeric reduction for this
  /// round when the topology opts in; empty = verbatim bundles. The root's
  /// frames leave at simulated instant `start_s` (an async dispatch starts
  /// its one-task round at the dispatch instant).
  ExchangeResult run_round(std::uint32_t round, const WeightSet& global,
                           const std::vector<int>& clients,
                           const std::vector<Rng>& client_rngs,
                           const std::vector<std::int32_t>& reduce_keys = {},
                           double start_s = 0.0);

  /// Heterogeneous exchange: task slot i downloads `payloads[i]` —
  /// architecture and weights ride the wire, so clients may train
  /// different submodels (and one client may appear in several slots).
  ExchangeResult run_round(std::uint32_t round,
                           const std::vector<Model*>& payloads,
                           const std::vector<int>& clients,
                           const std::vector<Rng>& client_rngs,
                           const std::vector<std::int32_t>& reduce_keys = {},
                           double start_s = 0.0);

  const Transport& transport() const { return *net_; }
  const FabricStats& stats() const { return net_->stats(); }
  int num_clients() const { return net_->num_clients(); }
  const FabricTopology& topology() const { return topo_; }
  const FabricTree& tree() const { return tree_; }
  bool sharded() const { return topo_.levels >= 2; }

 private:
  /// Fills a round's task bundle with its [spec][weights] body table and
  /// points each task at the body it downloads (the per-overload encoder).
  using BodyEncoder = std::function<void(ShardDownlink&)>;

  void send_join(std::uint32_t round, std::int32_t task, int client,
                 std::int32_t coordinator, double sent_at_s);
  /// Build the round's task bundle (every slot, encoded bodies) and ship
  /// it: a flat root fans it out itself, as the degenerate tree's only
  /// leaf; a tree root splits it among its children.
  void broadcast(std::uint32_t round, const std::vector<int>& clients,
                 const std::vector<Rng>& client_rngs,
                 const std::vector<std::int32_t>& reduce_keys,
                 const BodyEncoder& encode, double start_s);
  /// Tree broadcast: per root child, the ShardDown bundle of its leaf
  /// range, leaving at `start_s`; interior tiers split bundles downward;
  /// leaves fan out to per-client JoinRound + ModelDown frames.
  void broadcast_sharded(std::uint32_t round, const ShardDownlink& all,
                         double start_s);
  /// Send one pre-filtered bundle down to node (tier, j): leaf bundles
  /// apply the failover policy, interior bundles go straight down with the
  /// retry policy.
  void send_bundle(std::uint32_t round, std::int32_t src, int tier, int j,
                   const ShardDownlink& d, double sent_at_s);
  /// Interior downlink pass for tiers 1..levels-2: split each received
  /// bundle among the node's children (node-parallel per tier).
  void route_tiers_down(std::uint32_t round);
  void fan_out_shards(std::uint32_t round);
  /// A leaf's fan-out of one bundle: JoinRound + ModelDown per task from
  /// `node`, leaving at `at_s`; records slot → reduce key in `served`.
  void fan_out(std::uint32_t round, std::int32_t node, const ShardDownlink& d,
               double at_s, std::map<std::int32_t, std::int32_t>& served);
  /// Concurrent ClientAgent polling (one worker per distinct client).
  void poll_agents(std::uint32_t round, const std::vector<int>& clients,
                   ExchangeResult& out);
  /// A leaf's update matching: drain `node`'s mailbox and keep the first
  /// admissible UpdateUp of each slot it fanned out (`served`), stamped
  /// with its delivery instant, noting the last delivery instant per
  /// partition in `up_at`.
  std::map<std::int32_t, UpdateEntry> match_updates(
      std::uint32_t round, std::int32_t node,
      const std::map<std::int32_t, std::int32_t>& served,
      const std::vector<int>& clients, std::map<std::int32_t, double>& up_at);
  /// Collect: poll the agents, gather the round's updates at the root —
  /// a flat root matches its own mailbox like a leaf — and write them back
  /// into the task list (or, reduced, the group list).
  void collect(std::uint32_t round, const std::vector<int>& clients,
               ExchangeResult& out);
  /// Tree part of collect: leaves match their partition(s) and forward
  /// PartialUp bundles, interior tiers merge child bundles upward
  /// (node-parallel), and the root merges what reached it.
  PartialUpdate collect_tree(std::uint32_t round,
                             const std::vector<int>& clients,
                             ExchangeResult& out);
  ExchangeResult exchange(std::uint32_t round,
                          const std::vector<int>& clients,
                          const std::vector<Rng>& client_rngs,
                          const std::vector<std::int32_t>& reduce_keys,
                          const BodyEncoder& encode, double start_s);
  /// The leaf serving partition `s` in `round` under the failover policy
  /// (itself when alive, else the next alive sibling, wrapping; -1 when
  /// the whole sibling group is dead).
  int owner_leaf(std::uint32_t round, int s) const;

  // Wire v6 broadcast-cache bookkeeping (topo_.broadcast_cache). Aggregator
  // state is indexed by aggregator index (aggregator_id(k) → k); each
  // node's cache and known-map are touched only by the single worker that
  // drains or feeds that node, so no locking is needed.
  /// Elision mask for sending bundle `d` to aggregator `dst`: marks every
  /// body the receiver's cache is known to hold, and bills the elided bytes
  /// into FabricStats. Empty when caching is off or nothing can be elided.
  std::vector<std::uint8_t> elide_mask_for(std::int32_t dst,
                                           const ShardDownlink& d);
  /// After a confirmed delivery of `d` to `dst`, replay the receiver's
  /// cache-eviction rule into its known-map (bodies in table order).
  void note_bundle_known(std::int32_t dst, const ShardDownlink& d);
  /// Drop tasks referencing bodies the decode left missing (elided bodies
  /// absent from this node's cache) — they surface as LostDown.
  static void drop_missing_bodies(ShardDownlink& d, std::int32_t node);

  /// Sender-side view of a broadcast body (what a client will decode) for
  /// delta-downlink diffing.
  struct ParsedBody {
    std::uint64_t spec_digest = 0;
    std::string spec;
    WeightSet weights;
  };
  static ParsedBody parse_body(const std::string& body);
  /// Encode task `slot`'s ModelDown payload for `client`: a delta against
  /// the client's DeltaStore entry when the topology opts in, the store
  /// matches and the diff is smaller — else the full `body`-backed payload.
  /// Savings are billed into FabricStats at the decision point.
  std::string model_down_for(std::int32_t slot, int client,
                             const std::string& body,
                             const ParsedBody* parsed,
                             const std::array<std::uint64_t, 4>& rng_state,
                             std::uint8_t& flags);

  Model prototype_;
  const ClientDataProvider* data_;
  LocalTrainConfig local_;
  FabricTopology topo_;
  FabricTree tree_;
  std::unique_ptr<Transport> net_;
  /// Per-round, per-leaf fan-out memory: slot → reduce key of the tasks
  /// this leaf served (written only by the owning leaf's worker; a flat
  /// root is the single leaf), plus the round's numeric-mode flag.
  /// Consumed by the leaf's collect pass.
  std::vector<std::map<std::int32_t, std::int32_t>> leaf_served_;
  bool reduced_round_ = false;
  /// Receiver-side broadcast caches, one per aggregator (broadcast_cache).
  std::vector<BroadcastCache> bcast_cache_;
  /// Sender-side mirror of each aggregator's cache contents: spec digest →
  /// body hash, advanced only after a confirmed-delivered send, consulted
  /// by elide_mask_for.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> child_known_;
  /// Per-client last-decoded-model memory for delta downlinks.
  DeltaStore delta_store_;
};

}  // namespace fedtrans
