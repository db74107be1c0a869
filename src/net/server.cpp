#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "fl/byzantine.hpp"
#include "fl/weights.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

FabricTree::FabricTree(const FabricTopology& topo) : levels_(topo.levels) {
  FT_CHECK_MSG(levels_ >= 2, "a fabric tree needs at least root + leaves");
  const int tiers = levels_ - 1;
  branching_ = topo.branching;
  if (branching_ <= 0) {
    // Auto fan-out: the smallest branching whose (levels-1)-fold power
    // covers the leaves, so every tier (including the root's) shrinks
    // about evenly.
    branching_ =
        tiers >= 2 ? std::max(2, static_cast<int>(std::ceil(std::pow(
                                     static_cast<double>(topo.shards),
                                     1.0 / static_cast<double>(tiers)))))
                   : topo.shards;
  }
  width_.assign(static_cast<std::size_t>(tiers), 0);
  width_[static_cast<std::size_t>(tiers - 1)] = topo.shards;
  for (int t = tiers - 2; t >= 0; --t)
    width_[static_cast<std::size_t>(t)] =
        (width_[static_cast<std::size_t>(t + 1)] + branching_ - 1) /
        branching_;
  // Leaves keep the historical endpoint ids aggregator_id(0..shards-1);
  // interior tiers take the ids above them, bottom-up.
  offset_.assign(static_cast<std::size_t>(tiers), 0);
  for (int t = tiers - 2; t >= 0; --t)
    offset_[static_cast<std::size_t>(t)] =
        offset_[static_cast<std::size_t>(t + 1)] +
        width_[static_cast<std::size_t>(t + 1)];
  total_ = 0;
  for (int w : width_) total_ += w;
}

std::int32_t FabricTree::node_id(int tier, int j) const {
  return aggregator_id(offset_[static_cast<std::size_t>(tier - 1)] + j);
}

std::int32_t FabricTree::parent_id(int tier, int j) const {
  if (tier == 1) return kServerId;
  return node_id(tier - 1, j / branching_);
}

std::pair<int, int> FabricTree::child_range(int tier, int j) const {
  const int below = tier_width(tier + 1);
  return {std::min(below, j * branching_),
          std::min(below, (j + 1) * branching_)};
}

std::pair<int, int> FabricTree::leaf_range(int tier, int j) const {
  // Tiers nest by powers of the branching factor: node (t, j) covers
  // leaves [j·b^(tiers-t), (j+1)·b^(tiers-t)) clamped to the leaf count.
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  const auto n = static_cast<std::int64_t>(leaves());
  return {static_cast<int>(std::min<std::int64_t>(n, j * span)),
          static_cast<int>(std::min<std::int64_t>(n, (j + 1) * span))};
}

std::pair<int, int> FabricTree::sibling_range(int leaf) const {
  if (levels_ == 2) return {0, leaves()};  // all leaves share the root
  return child_range(levels_ - 2, leaf / branching_);
}

int FabricTree::node_covering(int tier, int leaf) const {
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  return static_cast<int>(leaf / span);
}

namespace {

/// Send `encode(0)`; on loss resend `encode(kFlagRetry)` every
/// `ack_timeout_s` simulated seconds, up to `max_retries` times. Returns
/// whether any attempt was delivered. Every resend is counted in
/// FabricStats (frames_retried + the directional retry-byte counter the
/// engine bills through CostMeter).
bool send_with_retry(Transport& net, std::int32_t src, std::int32_t dst,
                     double first_at_s, const FabricTopology& policy,
                     bool downlink,
                     const std::function<std::string(std::uint8_t)>& encode) {
  std::string frame = encode(0);
  const std::size_t bytes = frame.size();
  if (net.send(src, dst, std::move(frame), first_at_s)) return true;
  static Histogram retry_latency_h("fedtrans_retry_latency_seconds");
  for (int k = 1; k <= policy.max_retries; ++k) {
    net.stats_mutable().frames_retried.fetch_add(1,
                                                 std::memory_order_relaxed);
    auto& counter = downlink ? net.stats_mutable().retry_bytes_down
                             : net.stats_mutable().retry_bytes_up;
    counter.fetch_add(bytes, std::memory_order_relaxed);
    const double resend_s =
        first_at_s + static_cast<double>(k) * policy.ack_timeout_s;
    FT_VSPAN_ARG("server", "retry", resend_s, 0.0, track_of_endpoint(dst),
                 "attempt", k);
    if (net.send(src, dst, encode(kFlagRetry), resend_s)) {
      // Latency the retry policy added before this frame finally left:
      // k ack-timeouts from the first (lost) attempt.
      retry_latency_h.observe(resend_s - first_at_s);
      return true;
    }
  }
  return false;
}

/// Drain `node`'s mailbox, handing every frame `decode` parses to `use`
/// along with its envelope. An undecodable frame is treated as loss, but
/// counted: the transport never corrupts bytes, so frames_rejected > 0
/// means a codec bug (asserted 0 in tests).
template <typename Decode, typename Use>
void for_each_decoded(Transport& net, std::int32_t node, Decode&& decode,
                      Use&& use) {
  for (Envelope& env : net.drain(node)) {
    decltype(decode(env.frame)) msg;
    try {
      msg = decode(env.frame);
    } catch (const Error&) {
      net.stats_mutable().frames_rejected.fetch_add(1,
                                                    std::memory_order_relaxed);
      continue;
    }
    use(msg, env);
  }
}

/// The PartialUp bundles in `node`'s mailbox for `round`, first arrival per
/// (sender, partition), their entries stamped with the bundle's delivery
/// instant — duplicate deliveries dedup at bundle granularity; Ack/Abort
/// frames are bookkeeping only. `last_s` advances to the latest kept
/// delivery instant.
std::vector<PartialUpdate> drain_bundles(Transport& net, std::int32_t node,
                                         std::uint32_t round,
                                         double& last_s) {
  std::vector<PartialUpdate> bundles;
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for_each_decoded(
      net, node,
      [](const std::string& frame) -> std::optional<PartialUpdate> {
        if (frame_type(frame) != MsgType::PartialUp) return std::nullopt;
        return decode_partial_up(frame);
      },
      [&](std::optional<PartialUpdate>& p, const Envelope& env) {
        if (!p || p->round != round) return;
        if (!seen.insert({p->sender, p->shard}).second) return;
        last_s = std::max(last_s, env.deliver_at_s);
        for (UpdateEntry& e : p->entries) e.arrived_at_s = env.deliver_at_s;
        bundles.push_back(std::move(*p));
      });
  return bundles;
}

/// The [slot][spec][weights] head shared by every ModelDown payload: the
/// `body` argument is the [spec string][weights] section (encoded once per
/// distinct payload), the Rng state is appended per task.
std::string model_down_payload(std::int32_t slot, const std::string& body,
                               const std::array<std::uint64_t, 4>& rng_state) {
  std::ostringstream head(std::ios::binary);
  write_pod<std::int32_t>(head, slot);
  std::string payload = head.str();
  payload.reserve(payload.size() + body.size() + sizeof(rng_state));
  payload.append(body);
  payload.append(reinterpret_cast<const char*>(rng_state.data()),
                 sizeof(rng_state));
  return payload;
}

/// Encode the [empty spec][weight blob] body of a shared-model broadcast.
std::string shared_body(const WeightSet& global) {
  std::ostringstream os(std::ios::binary);
  write_string(os, std::string{});  // empty spec: use the prototype
  write_weight_set(os, global);
  return os.str();
}

/// Slot/sender validation shared by every update consumer (flat collect,
/// leaf match, root merge): a task id is admissible iff it indexes the
/// round's task list and was reported by the client owning that slot.
/// First-arrival dedup stays with the caller — the structures differ.
bool admissible_slot(std::int32_t task, std::int32_t sender,
                     const std::vector<int>& clients) {
  return task >= 0 && task < static_cast<std::int32_t>(clients.size()) &&
         clients[static_cast<std::size_t>(task)] == sender;
}

/// Encode the [spec][weights] body of a heterogeneous payload model
/// (params() walks mutably, hence the non-const ref).
std::string task_body(Model& payload) {
  std::ostringstream os(std::ios::binary);
  write_string(os, payload.spec().serialize());
  auto ps = payload.params();
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(ps.size()));
  for (auto& p : ps) p.value->save(os);
  return os.str();
}

/// Filter a downlink bundle to the tasks of leaf range [lo, hi),
/// rebuilding the body table with only the bodies that range references —
/// how interior nodes split a bundle among their children (and how the
/// root builds its per-child bundles from the full task list).
ShardDownlink subset_bundle(const ShardDownlink& d, int shards, int lo,
                            int hi) {
  ShardDownlink out;
  out.leaf_lo = lo;
  out.leaf_hi = hi;
  out.shard = hi - lo == 1 ? lo : -1;
  std::unordered_map<std::uint32_t, std::uint32_t> body_map;
  for (const DownlinkTask& t : d.tasks) {
    const int leaf = static_cast<int>(t.task) % shards;
    if (leaf < lo || leaf >= hi) continue;
    auto [it, fresh] = body_map.emplace(
        t.body, static_cast<std::uint32_t>(out.bodies.size()));
    if (fresh) out.bodies.push_back(d.bodies[t.body]);
    DownlinkTask nt = t;
    nt.body = it->second;
    out.tasks.push_back(nt);
  }
  return out;
}

/// Aggregator-state index of an aggregator endpoint (aggregator_id(k) → k).
std::size_t agg_index(std::int32_t endpoint) {
  return static_cast<std::size_t>(-2 - endpoint);
}

/// Per-tensor shape equality (delta downlinks may only diff a client's
/// stored model against a payload of identical geometry).
bool ws_shapes_match(const WeightSet& a, const WeightSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!a[i].same_shape(b[i])) return false;
  return true;
}

/// The smallest task slot a PartialUp covers (entries are present in both
/// verbatim and reduced mode; empty bundles are never sent).
std::int32_t bundle_min_slot(const PartialUpdate& p) {
  std::int32_t lo = std::numeric_limits<std::int32_t>::max();
  for (const UpdateEntry& e : p.entries) lo = std::min(lo, e.task);
  return lo;
}

/// Merge child bundles into one upstream bundle. Entries concatenate; in
/// reduced mode the per-key groups fold element-wise. Bundles are merged
/// in ascending min-slot order — the canonical order that keeps the
/// numeric reduction deterministic for a given tree shape, and independent
/// of the shape altogether when every bundle holds a single update.
PartialUpdate merge_bundles(std::vector<PartialUpdate> bundles,
                            bool reduced) {
  std::sort(bundles.begin(), bundles.end(),
            [](const PartialUpdate& a, const PartialUpdate& b) {
              const auto sa = bundle_min_slot(a), sb = bundle_min_slot(b);
              if (sa != sb) return sa < sb;
              return a.shard < b.shard;
            });
  PartialUpdate m;
  m.reduced = reduced;
  std::map<std::int32_t, std::size_t> by_key;  // reduce key → m.groups slot
  for (PartialUpdate& p : bundles) {
    for (UpdateEntry& e : p.entries) m.entries.push_back(std::move(e));
    for (ReducedGroup& g : p.groups) {
      auto it = by_key.find(g.key);
      if (it == by_key.end()) {
        by_key.emplace(g.key, m.groups.size());
        m.groups.push_back(std::move(g));
        continue;
      }
      ReducedGroup& dst = m.groups[it->second];
      ws_axpy(dst.sum, 1.0f, g.sum);
      dst.weight += g.weight;
      dst.count += g.count;
      dst.min_slot = std::min(dst.min_slot, g.min_slot);
    }
  }
  std::sort(m.groups.begin(), m.groups.end(),
            [](const ReducedGroup& a, const ReducedGroup& b) {
              return a.min_slot < b.min_slot;
            });
  return m;
}

}  // namespace

std::shared_ptr<const DeltaStore::Entry> DeltaStore::peek(int client) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(client);
  return it == map_.end() ? nullptr : it->second;
}

void DeltaStore::update(int client, std::shared_ptr<const Entry> e) {
  std::lock_guard<std::mutex> lk(m_);
  map_[client] = std::move(e);
}

void DeltaStore::erase(int client) {
  std::lock_guard<std::mutex> lk(m_);
  map_.erase(client);
}

ClientAgent::ClientAgent(int id, const ClientDataProvider& data,
                         LocalTrainConfig local, FabricTopology policy)
    : id_(id), data_(&data), local_(local), policy_(policy) {}

void ClientAgent::poll(std::uint32_t round, const Model& prototype,
                       Transport& net,
                       std::vector<ClientOutcome>& outcomes,
                       DeltaStore* store) {
  FT_SPAN_ARG("client", "poll", "client", id_);
  // The model this device decoded last round — the base every delta-flagged
  // ModelDown of this round was diffed against. Snapshotted once up front:
  // the store only advances after this poll, so all of the round's frames
  // (duplicates included) decode against the same base.
  std::shared_ptr<const DeltaStore::Entry> prev;
  if (store != nullptr) prev = store->peek(id_);

  // Drain the mailbox first: duplicates and reordered frames all land here.
  // Invitations and models are paired per task slot; the agent keeps the
  // first arrival of each and ignores the rest.
  std::set<std::int32_t> invited;
  std::map<std::int32_t, FabricMessage> downs;  // task -> first ModelDown
  std::map<std::int32_t, double> down_at_s;

  for_each_decoded(
      net, id_,
      [&prev](const std::string& frame) {
        return decode_message(frame, prev ? &prev->weights : nullptr,
                              prev ? prev->version : 0);
      },
      [&](FabricMessage& msg, const Envelope& env) {
        if (msg.round != round) return;
        if (msg.type == MsgType::JoinRound) {
          if (invited.insert(msg.task).second) {
            FabricMessage ack;
            ack.type = MsgType::Ack;
            ack.round = round;
            ack.sender = id_;
            ack.receiver = msg.sender;
            net.send(id_, msg.sender, encode_message(ack), env.deliver_at_s);
          }
        } else if (msg.type == MsgType::ModelDown) {
          if (downs.find(msg.task) == downs.end()) {
            down_at_s[msg.task] = env.deliver_at_s;
            downs.emplace(msg.task, std::move(msg));
          }
        }
      });

  // Mid-round dropout is a per-(round, client) device event: if it fires,
  // every task trains (burning real compute) and then vanishes unsent.
  const bool dropped_out = net.client_dropped_out(round, id_);
  bool trained_any = false;
  double last_done_s = 0.0;
  std::set<std::int32_t> coordinators;  // distinct ModelDown senders

  for (auto& [task, msg] : downs) {
    // The invitation is load-bearing: a task whose JoinRound never arrived
    // does not participate even if the model frame made it through.
    if (invited.find(task) == invited.end()) continue;
    if (task < 0 || task >= static_cast<std::int32_t>(outcomes.size()))
      continue;
    const TaskRun run = train_and_upload(msg, down_at_s[task], prototype, net);
    trained_any = true;
    last_done_s = std::max(last_done_s, run.done_s);
    coordinators.insert(msg.sender);
    outcomes[static_cast<std::size_t>(task)] = run.outcome;
  }

  if (dropped_out && trained_any) {
    // The device vanished after training. It attempts a courtesy Abort to
    // each coordinator it trained for, riding the same lossy links as
    // everything else.
    for (std::int32_t coord : coordinators) {
      FabricMessage abort_msg;
      abort_msg.type = MsgType::Abort;
      abort_msg.round = round;
      abort_msg.sender = id_;
      abort_msg.receiver = coord;
      abort_msg.reason = "dropout";
      net.send(id_, coord, encode_message(abort_msg), last_done_s);
    }
    net.stats_mutable().client_dropouts.fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  // Advance the delta store to what this device actually decoded — even on
  // dropout or a missing invitation, the bytes were decoded and are what
  // the next round's diff must be based on. Exactly one ModelDown: record
  // it. Several (a multi-slot round): the "previous model" is ambiguous,
  // so the entry is erased and the client goes back to full payloads. None
  // decoded: the old entry (still what the device last saw) stands.
  if (store != nullptr) {
    if (downs.size() == 1) {
      auto e = std::make_shared<DeltaStore::Entry>();
      FabricMessage& only = downs.begin()->second;
      e->version = prev ? prev->version + 1 : 1;
      e->spec_digest =
          fnv1a64(only.spec_text.data(), only.spec_text.size());
      e->weights = std::move(only.weights);
      store->update(id_, std::move(e));
    } else if (downs.size() > 1) {
      store->erase(id_);
    }
  }
}

ClientAgent::TaskRun ClientAgent::train_and_upload(const FabricMessage& down,
                                                   double down_at_s,
                                                   const Model& prototype,
                                                   Transport& net) {
  // Train exactly as the in-process path would: the payload architecture
  // (prototype or on-the-wire spec), the weights, and the coordinator-
  // forked Rng all arrived on the wire.
  // The spec sizes every tensor the Model allocates, so it must count
  // exactly the weights the frame carried before the Model is built: a
  // corrupt width then fails here, not in the allocator.
  std::optional<ModelSpec> spec;
  if (!down.spec_text.empty()) {
    spec = ModelSpec::deserialize(down.spec_text);
    FT_CHECK_MSG(model_param_count(*spec) ==
                     static_cast<double>(ws_numel(down.weights)),
                 "ModelDown spec does not match the weights it carries");
  }
  Rng spawn(0);  // init weights are overwritten below
  Model local = spec ? Model(*spec, spawn) : prototype;
  local.set_weights(down.weights);
  Rng rng;
  rng.set_state(down.rng_state);
  TaskRun run;
  run.res =
      byzantine_local_train(local, data_->client(id_), data_->num_classes(),
                            local_, rng, net.faults(), down.round, id_);

  const double compute_s =
      run.res.macs_used / net.device(id_).compute_macs_per_s;
  run.done_s = down_at_s + compute_s;
  // The device's train window on the simulated timeline: model arrival to
  // upload-ready, on the client's own track.
  FT_VSPAN_ARG("client", "train", down_at_s, compute_s, kTrackClients + id_,
               "task", down.task);

  if (net.client_dropped_out(down.round, id_)) {
    run.outcome = ClientOutcome::Dropout;
    return run;
  }

  // Upload to the coordinator that sent the model (the root, or the leaf
  // owning this slot), resending a lost frame under the retry policy. A
  // dropped-out device never retries — it is gone.
  FabricMessage up;
  up.type = MsgType::UpdateUp;
  up.round = down.round;
  up.sender = id_;
  up.receiver = down.sender;
  up.task = down.task;
  up.weights = std::move(run.res.delta);
  up.avg_loss = run.res.avg_loss;
  up.num_samples = run.res.num_samples;
  up.macs_used = run.res.macs_used;
  const bool delivered = send_with_retry(
      net, id_, down.sender, run.done_s, policy_, /*downlink=*/false,
      [&up](std::uint8_t flags) {
        up.flags = flags;
        return encode_message(up);
      });
  run.outcome = delivered ? ClientOutcome::Trained : ClientOutcome::LostUp;
  return run;
}

void validate_topology(const FabricTopology& topo) {
  FT_CHECK_MSG(topo.levels >= 1 && topo.levels <= 6,
               "fabric topology supports 1 (flat) up to 6 aggregation "
               "levels, got " << topo.levels);
  FT_CHECK_MSG(topo.shards >= 1, "fabric topology needs >= 1 shard");
  FT_CHECK_MSG(topo.branching >= 0, "negative fabric branching factor");
  FT_CHECK_MSG(!topo.partial_aggregation || topo.levels >= 2,
               "partial aggregation needs an aggregation tree (levels >= 2)");
  FT_CHECK_MSG(topo.max_retries >= 0 && topo.ack_timeout_s > 0.0,
               "fabric retry policy needs max_retries >= 0 and a positive "
               "ack timeout");
  FT_CHECK_MSG(topo.quantize_partials == PartialQuant::None ||
                   topo.partial_aggregation,
               "quantized partials (with_quantized_partials) require the "
               "numeric reduction (with_partial_aggregation) — verbatim "
               "bundles must stay bit-exact");
}

FederationServer::FederationServer(const Model& prototype,
                                   const ClientDataProvider& data,
                                   std::vector<DeviceProfile> fleet,
                                   LocalTrainConfig local, FaultConfig faults,
                                   FabricTopology topology,
                                   TransportKind transport,
                                   SocketOptions socket)
    : prototype_(prototype), data_(&data), local_(local), topo_(topology) {
  FT_CHECK_MSG(static_cast<int>(fleet.size()) == data.num_clients(),
               "fabric fleet size must match client count");
  validate_topology(topo_);
  if (sharded()) tree_ = FabricTree(topo_);
  if (topo_.broadcast_cache && sharded()) {
    // One receiver cache + one sender-side known-map per aggregator; sized
    // once so the per-node state never reallocates under the node-parallel
    // routing workers.
    bcast_cache_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
    child_known_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
  }
  net_ = make_transport(transport, std::move(fleet), faults,
                        tree_.num_aggregators(), socket);
}

int FederationServer::owner_leaf(std::uint32_t round, int s) const {
  if (!net_->leaf_dead(round, s)) return s;
  const auto [lo, hi] = tree_.sibling_range(s);
  for (int k = 1; k < hi - lo; ++k) {
    const int cand = lo + (s - lo + k) % (hi - lo);
    if (!net_->leaf_dead(round, cand)) return cand;
  }
  return -1;  // the whole fault domain is down this round
}

std::vector<std::uint8_t> FederationServer::elide_mask_for(
    std::int32_t dst, const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return {};
  const auto& known = child_known_[agg_index(dst)];
  std::vector<std::uint8_t> mask(d.bodies.size(), 0);
  // Decide per body against the receiver cache as it will evolve while it
  // decodes this bundle in table order (a later same-spec body evicts an
  // earlier one), so replay the eviction rule alongside the decisions.
  std::unordered_map<std::uint64_t, std::uint64_t> view = known;
  std::uint64_t hits = 0, saved = 0;
  for (std::size_t i = 0; i < d.bodies.size(); ++i) {
    const std::uint64_t hash = broadcast_body_hash(d.bodies[i]);
    const std::uint64_t spec = broadcast_body_spec_digest(d.bodies[i]);
    const auto it = view.find(spec);
    if (it != view.end() && it->second == hash) {
      mask[i] = 1;
      ++hits;
      saved += d.bodies[i].size();  // elided entry ships the hash instead
    }
    view[spec] = hash;
  }
  if (hits > 0) {
    net_->stats_mutable().cache_hits.fetch_add(hits,
                                               std::memory_order_relaxed);
    net_->stats_mutable().cache_saved_bytes.fetch_add(
        saved, std::memory_order_relaxed);
  }
  return mask;
}

void FederationServer::note_bundle_known(std::int32_t dst,
                                         const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return;
  auto& known = child_known_[agg_index(dst)];
  for (const std::string& b : d.bodies)
    known[broadcast_body_spec_digest(b)] = broadcast_body_hash(b);
}

void FederationServer::drop_missing_bodies(ShardDownlink& d,
                                           std::int32_t node) {
  bool any = false;
  for (const std::uint8_t m : d.missing) any = any || m != 0;
  if (!any) return;
  const std::size_t before = d.tasks.size();
  d.tasks.erase(std::remove_if(d.tasks.begin(), d.tasks.end(),
                               [&d](const DownlinkTask& t) {
                                 return d.missing[t.body] != 0;
                               }),
                d.tasks.end());
  FT_LOG_WARN("aggregator " << node << " round " << d.round << ": dropped "
                            << before - d.tasks.size()
                            << " downlink task(s) whose elided broadcast "
                               "body was missing from the cache (lost for "
                               "the round)");
}

FederationServer::ParsedBody FederationServer::parse_body(
    const std::string& body) {
  std::istringstream is(body, std::ios::binary);
  ParsedBody p;
  p.spec = read_string(is);
  p.spec_digest = fnv1a64(p.spec.data(), p.spec.size());
  p.weights = read_weight_set(is);
  return p;
}

std::string FederationServer::model_down_for(
    std::int32_t slot, int client, const std::string& body,
    const ParsedBody* parsed, const std::array<std::uint64_t, 4>& rng_state,
    std::uint8_t& flags) {
  flags = 0;
  if (topo_.delta_downlink && parsed != nullptr) {
    const auto entry = delta_store_.peek(client);
    if (entry && entry->spec_digest == parsed->spec_digest &&
        ws_shapes_match(entry->weights, parsed->weights)) {
      std::ostringstream os(std::ios::binary);
      write_pod<std::int32_t>(os, slot);
      write_string(os, parsed->spec);
      write_weight_delta(os, entry->version, entry->weights, parsed->weights);
      os.write(reinterpret_cast<const char*>(rng_state.data()),
               sizeof(rng_state));
      std::string delta_payload = os.str();
      // A diff that is not actually smaller (every tensor changed) falls
      // back to the full payload, so the saving is never negative.
      const std::size_t full =
          sizeof(slot) + body.size() + sizeof(rng_state);
      if (delta_payload.size() < full) {
        flags = kFlagDelta;
        net_->stats_mutable().delta_downlinks.fetch_add(
            1, std::memory_order_relaxed);
        net_->stats_mutable().delta_saved_bytes.fetch_add(
            full - delta_payload.size(), std::memory_order_relaxed);
        return delta_payload;
      }
    }
  }
  return model_down_payload(slot, body, rng_state);
}

void FederationServer::send_join(std::uint32_t round, std::int32_t task,
                                 int client, std::int32_t coordinator,
                                 double sent_at_s) {
  FabricMessage join;
  join.type = MsgType::JoinRound;
  join.round = round;
  join.sender = coordinator;
  join.receiver = client;
  join.task = task;
  net_->send(coordinator, client, encode_message(join), sent_at_s);
}

void FederationServer::broadcast(std::uint32_t round,
                                 const std::vector<int>& clients,
                                 const std::vector<Rng>& client_rngs,
                                 const std::vector<std::int32_t>& reduce_keys,
                                 const BodyEncoder& encode, double start_s) {
  FT_SPAN_ARG("server", "broadcast", "tasks", clients.size());
  // One bundle holds the whole round: each distinct payload body encoded
  // once, and per task only the (tiny) slot id and Rng-state sections of
  // the ModelDown payload differ — one encode plus a couple of memcpys per
  // client rather than n WeightSet deep copies.
  ShardDownlink all;
  all.tasks.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    DownlinkTask& t = all.tasks[i];
    t.task = static_cast<std::int32_t>(i);
    t.client = clients[i];
    t.reduce = reduce_keys.empty() ? -1 : reduce_keys[i];
    t.rng_state = client_rngs[i].state();
  }
  encode(all);
  leaf_served_.assign(sharded() ? static_cast<std::size_t>(topo_.shards) : 1,
                      {});
  if (sharded()) {
    broadcast_sharded(round, all, start_s);
  } else {
    // Flat: the root is the degenerate tree's only leaf and fans the
    // bundle out to every client itself, at the round's start.
    fan_out(round, kServerId, all, start_s, leaf_served_[0]);
  }
}

void FederationServer::broadcast_sharded(std::uint32_t round,
                                         const ShardDownlink& all,
                                         double start_s) {
  FT_SPAN_ARG("server", "broadcast_sharded", "tasks", all.tasks.size());
  // Root → tree: one bundle per root child, holding each body its leaf
  // range references once. Interior tiers split their bundle further; a
  // bundle lost despite retries leaves its whole subtree's tasks at
  // LostDown.
  for (int j = 0; j < tree_.tier_width(1); ++j) {
    const auto [lo, hi] = tree_.leaf_range(1, j);
    send_bundle(round, kServerId, 1, j,
                subset_bundle(all, topo_.shards, lo, hi), start_s);
  }
  route_tiers_down(round);
  fan_out_shards(round);
}

void FederationServer::send_bundle(std::uint32_t round, std::int32_t src,
                                   int tier, int j, const ShardDownlink& d,
                                   double sent_at_s) {
  if (d.tasks.empty()) return;
  // One delivery attempt under the retry policy. The elide mask is computed
  // once per destination decision — retries reuse it, so cache savings are
  // counted once even when the frame is resent. A delivered send advances
  // the receiver's known-map only when `advance` holds.
  const auto ship = [&](std::int32_t dst, double at_s, bool advance) {
    const std::vector<std::uint8_t> elide = elide_mask_for(dst, d);
    if (send_with_retry(*net_, src, dst, at_s, topo_, /*downlink=*/true,
                        [&](std::uint8_t flags) {
                          return encode_shard_down(
                              round, src, dst, d, flags,
                              elide.empty() ? nullptr : &elide);
                        }) &&
        advance)
      note_bundle_known(dst, d);
  };
  if (tier < topo_.levels - 1) {  // interior destination: straight down
    ship(tree_.node_id(tier, j), sent_at_s, true);
    return;
  }
  // Leaf destination: the per-shard fault domain. An alive leaf gets its
  // partition's bundle under the retry policy; a dead one costs the parent
  // the first (wasted) send, and one ack-timeout later the partition is
  // redirected to the alive sibling — billed as failover traffic. With the
  // whole sibling group down the partition is lost for the round.
  const int owner = owner_leaf(round, j);
  if (owner == j) {
    ship(tree_.leaf_id(j), sent_at_s, true);
    return;
  }
  // The wasted frame elides against the dead leaf's known-map (the sender
  // cannot know the leaf is dead yet), but never advances it — the mail
  // rots undecoded, so the leaf's cache saw nothing.
  const std::vector<std::uint8_t> dead_elide =
      elide_mask_for(tree_.leaf_id(j), d);
  std::string wasted =
      encode_shard_down(round, src, tree_.leaf_id(j), d, 0,
                        dead_elide.empty() ? nullptr : &dead_elide);
  const std::size_t bytes = wasted.size();
  net_->send(src, tree_.leaf_id(j), std::move(wasted), sent_at_s);
  if (owner < 0) return;
  FT_VSPAN_ARG("server", "leaf_failover", sent_at_s + topo_.ack_timeout_s,
               0.0, track_of_endpoint(tree_.leaf_id(owner)), "dead_leaf", j);
  net_->stats_mutable().leaf_failovers.fetch_add(1,
                                                 std::memory_order_relaxed);
  net_->stats_mutable().failover_bytes_down.fetch_add(
      bytes, std::memory_order_relaxed);
  // The redirected bundle lands one ack-timeout after the sibling's own
  // bundle, which the parent sends next, so it must not advance the
  // sibling's known-map: the own bundle would elide bodies the sibling's
  // cache does not hold yet when it decodes them.
  ship(tree_.leaf_id(owner), sent_at_s + topo_.ack_timeout_s, false);
}

void FederationServer::route_tiers_down(std::uint32_t round) {
  FT_SPAN("server", "route_tiers_down");
  // Interior downlink passes, one tier at a time (node-parallel within a
  // tier: nodes own disjoint subtrees and mailboxes are thread-safe).
  for (int t = 1; t + 1 <= topo_.levels - 1; ++t) {
    ThreadPool::global().parallel_for(
        tree_.tier_width(t), 1, [&](std::int64_t nlo, std::int64_t nhi) {
          for (std::int64_t jj = nlo; jj < nhi; ++jj) {
            const int j = static_cast<int>(jj);
            const std::int32_t node = tree_.node_id(t, j);
            std::set<std::int32_t> handled;  // first arrival per leaf range
            for_each_decoded(
                *net_, node,
                [&](const std::string& frame) {
                  return decode_shard_down(
                      frame, topo_.broadcast_cache
                                 ? &bcast_cache_[agg_index(node)]
                                 : nullptr);
                },
                [&](ShardDownlink& d, const Envelope& env) {
                  if (d.round != round) return;
                  if (!handled.insert(d.leaf_lo).second) return;
                  drop_missing_bodies(d, node);
                  const auto [clo, chi] = tree_.child_range(t, j);
                  for (int c = clo; c < chi; ++c) {
                    const auto [llo, lhi] = tree_.leaf_range(t + 1, c);
                    send_bundle(round, node, t + 1, c,
                                subset_bundle(d, topo_.shards, llo, lhi),
                                env.deliver_at_s);
                  }
                });
          }
        });
  }
}

void FederationServer::fan_out_shards(std::uint32_t round) {
  FT_SPAN("server", "fan_out_shards");
  // Leaves fan their bundle(s) out to the client partition — node-parallel
  // on the shared ThreadPool: a leaf may serve several partitions after a
  // failover, but partitions are disjoint and the transport mailboxes are
  // thread-safe. A leaf dead this round fans out nothing.
  ThreadPool::global().parallel_for(
      topo_.shards, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const std::int32_t leaf = tree_.leaf_id(static_cast<int>(s));
          if (net_->leaf_dead(round, static_cast<std::int32_t>(s))) {
            net_->drain(leaf);  // dead for the round: the mail rots
            continue;
          }
          std::set<std::int32_t> handled;  // first arrival per partition
          for_each_decoded(
              *net_, leaf,
              [&](const std::string& frame) {
                return decode_shard_down(frame,
                                         topo_.broadcast_cache
                                             ? &bcast_cache_[agg_index(leaf)]
                                             : nullptr);
              },
              [&](ShardDownlink& d, const Envelope& env) {
                if (d.round != round) return;
                if (!handled.insert(d.shard).second) return;
                drop_missing_bodies(d, leaf);
                // Both per-client frames leave when the bundle arrived — a
                // retried ShardDown must not invite clients retroactively.
                fan_out(round, leaf, d, env.deliver_at_s,
                        leaf_served_[static_cast<std::size_t>(s)]);
              });
        }
      });
}

void FederationServer::fan_out(std::uint32_t round, std::int32_t node,
                               const ShardDownlink& d, double at_s,
                               std::map<std::int32_t, std::int32_t>& served) {
  // JoinRound + ModelDown per task: the payloads are byte-identical
  // whichever node sends them (only the coordinator id differs), so agents
  // train bit-identically under any tree shape. One parse per distinct
  // body, built lazily — rounds without delta downlinks never deserialize.
  std::vector<std::unique_ptr<ParsedBody>> parsed(d.bodies.size());
  for (const DownlinkTask& t : d.tasks) {
    send_join(round, t.task, t.client, node, at_s);
    const ParsedBody* pb = nullptr;
    if (topo_.delta_downlink) {
      auto& slot = parsed[t.body];
      if (!slot)
        slot = std::make_unique<ParsedBody>(parse_body(d.bodies[t.body]));
      pb = slot.get();
    }
    std::uint8_t flags = 0;
    const std::string payload = model_down_for(
        t.task, t.client, d.bodies[t.body], pb, t.rng_state, flags);
    net_->send(node, t.client,
               encode_frame(MsgType::ModelDown, round, node, t.client,
                            payload, flags),
               at_s);
    served[t.task] = t.reduce;
  }
}

void FederationServer::poll_agents(std::uint32_t round,
                                   const std::vector<int>& clients,
                                   ExchangeResult& out) {
  FT_SPAN_ARG("server", "poll_agents", "tasks", clients.size());
  // ClientAgent workers run concurrently on the shared ThreadPool — one
  // poll per *distinct* client (an agent drains its whole mailbox, which
  // may hold several task slots). Each task slot is written by exactly one
  // agent, so the result is independent of the thread schedule; nested
  // parallel_for inside local_train runs inline.
  std::vector<int> distinct;
  distinct.reserve(clients.size());
  std::set<int> seen_clients;
  for (int c : clients)
    if (seen_clients.insert(c).second) distinct.push_back(c);

  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(distinct.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          // Agents are stateless per-round workers (id + config + borrowed
          // data): build one on the stack per distinct client instead of
          // keeping a live object per population member. At a million
          // clients the always-materialized agent vector is exactly the
          // kind of resident cost the descriptor population avoids.
          ClientAgent(distinct[static_cast<std::size_t>(i)], *data_, local_,
                      topo_)
              .poll(round, prototype_, *net_, out.outcomes,
                    topo_.delta_downlink ? &delta_store_ : nullptr);
      });
}

std::map<std::int32_t, UpdateEntry> FederationServer::match_updates(
    std::uint32_t round, std::int32_t node,
    const std::map<std::int32_t, std::int32_t>& served,
    const std::vector<int>& clients, std::map<std::int32_t, double>& up_at) {
  // Duplicates are dropped on the floor here (first arrival wins); stale
  // rounds, unknown slots and sender/slot mismatches are ignored, and Ack
  // and Abort are bookkeeping-only: the agents' ground-truth outcomes
  // already account for dropouts.
  std::map<std::int32_t, UpdateEntry> matched;  // slot -> first win
  for_each_decoded(
      *net_, node,
      [](const std::string& frame) { return decode_message(frame); },
      [&](FabricMessage& msg, const Envelope& env) {
        if (msg.round != round || msg.type != MsgType::UpdateUp) return;
        const std::int32_t i = msg.task;
        if (!admissible_slot(i, msg.sender, clients)) return;
        // A leaf only owns slots it fanned out itself.
        if (served.find(i) == served.end()) return;
        if (matched.count(i) != 0) return;
        UpdateEntry e;
        e.task = i;
        e.client = msg.sender;
        e.delta = std::move(msg.weights);
        e.avg_loss = msg.avg_loss;
        e.num_samples = msg.num_samples;
        e.macs_used = msg.macs_used;
        e.arrived_at_s = env.deliver_at_s;
        matched.emplace(i, std::move(e));
        auto& at = up_at[i % topo_.shards];
        at = std::max(at, env.deliver_at_s);
      });
  return matched;
}

void FederationServer::collect(std::uint32_t round,
                               const std::vector<int>& clients,
                               ExchangeResult& out) {
  FT_SPAN("server", sharded() ? "collect_sharded" : "collect");
  poll_agents(round, clients, out);

  PartialUpdate merged;
  if (!sharded()) {
    // Flat: the root, as the degenerate tree's only leaf, matches its own
    // mailbox and keeps the entries rather than forwarding them.
    std::map<std::int32_t, double> up_at;
    for (auto& [slot, e] :
         match_updates(round, kServerId, leaf_served_[0], clients, up_at))
      merged.entries.push_back(std::move(e));
  } else {
    merged = collect_tree(round, clients, out);
  }

  // Root: write the surviving entries back into the task list — the same
  // slot/sender validation and first-arrival dedup at every tree depth
  // (and, in a numeric round, hand over the merged reduce groups the
  // engine's absorb_reduced path consumes).
  std::vector<bool> seen(clients.size(), false);
  for (UpdateEntry& e : merged.entries) {
    if (!admissible_slot(e.task, e.client, clients)) continue;
    const auto slot = static_cast<std::size_t>(e.task);
    if (seen[slot]) continue;
    seen[slot] = true;
    LocalTrainResult& res = out.results[slot];
    res.delta = std::move(e.delta);
    res.avg_loss = e.avg_loss;
    res.num_samples = e.num_samples;
    res.macs_used = e.macs_used;
    out.arrived_at_s[slot] = e.arrived_at_s;
  }
  if (reduced_round_) out.groups = std::move(merged.groups);
  // An agent that believes its update was delivered must be matched at the
  // root; anything else is a fabric bug.
  for (std::size_t i = 0; i < clients.size(); ++i)
    if (out.outcomes[i] == ClientOutcome::Trained)
      FT_CHECK_MSG(seen[i], "delivered update missing from root mailbox");
}

PartialUpdate FederationServer::collect_tree(std::uint32_t round,
                                             const std::vector<int>& clients,
                                             ExchangeResult& out) {
  // Leaf pass: each alive leaf matches the partitions it served at fan-out
  // and forwards one PartialUp per partition upstream — node-parallel on
  // the shared ThreadPool (partitions are disjoint, so outcome flips never
  // race). In a numeric round the leaf folds its updates into per-key
  // partial sums in slot order and ships metrics-only entries; a bundle
  // lost despite the retry policy takes its partition's trained updates
  // down with it.
  ThreadPool::global().parallel_for(
      topo_.shards, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const std::int32_t leaf = tree_.leaf_id(static_cast<int>(s));
          const auto& served = leaf_served_[static_cast<std::size_t>(s)];
          if (served.empty()) {
            net_->drain(leaf);  // dead or idle: nothing was fanned out
            continue;
          }
          std::map<std::int32_t, double> up_at;  // partition -> last deliver
          std::map<std::int32_t, UpdateEntry> matched =
              match_updates(round, leaf, served, clients, up_at);
          if (matched.empty()) continue;

          // One bundle per served partition, slots in ascending order
          // (matched is slot-sorted); numeric rounds fold the deltas into
          // per-key groups as they go and keep the metrics verbatim.
          std::map<std::int32_t, PartialUpdate> parts;
          for (auto& [slot, e] : matched) {
            PartialUpdate& p = parts[slot % topo_.shards];
            if (reduced_round_) {
              const std::int32_t key = served.at(slot);
              ReducedGroup* g = nullptr;
              for (ReducedGroup& cand : p.groups)
                if (cand.key == key) g = &cand;
              if (g == nullptr) {
                ReducedGroup fresh;
                fresh.key = key;
                fresh.min_slot = slot;
                fresh.sum = ws_zeros_like(e.delta);
                p.groups.push_back(std::move(fresh));
                g = &p.groups.back();
              }
              ws_axpy(g->sum, static_cast<float>(e.num_samples), e.delta);
              g->weight += static_cast<double>(e.num_samples);
              g->count += 1;
              g->min_slot = std::min(g->min_slot, slot);
              e.delta.clear();  // the sum rides instead; metrics stay
            }
            p.entries.push_back(std::move(e));
          }
          for (auto& [part, p] : parts) {
            p.shard = part;
            p.reduced = reduced_round_;
            p.quant = reduced_round_
                          ? static_cast<std::uint8_t>(topo_.quantize_partials)
                          : kPartialQuantF32;
            const std::int32_t parent =
                tree_.parent_id(topo_.levels - 1, static_cast<int>(s));
            const bool delivered = send_with_retry(
                *net_, leaf, parent, up_at[part], topo_, /*downlink=*/false,
                [&](std::uint8_t flags) {
                  return encode_partial_up(round, leaf, parent, p, flags);
                });
            if (!delivered) {
              // The partition's partial aggregate never reached its
              // parent: the trained updates are lost on the (backbone)
              // uplink.
              for (const UpdateEntry& e : p.entries) {
                auto& o = out.outcomes[static_cast<std::size_t>(e.task)];
                if (o == ClientOutcome::Trained) o = ClientOutcome::LostUp;
              }
            }
          }
        }
      });

  // Interior tiers merge child bundles upward, tier by tier (node-parallel
  // within a tier; nodes cover disjoint subtrees). Duplicate deliveries
  // dedup at bundle granularity (first arrival per (sender, partition)).
  FT_SPAN("server", "partial_merge");
  for (int t = topo_.levels - 2; t >= 1; --t) {
    ThreadPool::global().parallel_for(
        tree_.tier_width(t), 1, [&](std::int64_t nlo, std::int64_t nhi) {
          for (std::int64_t jj = nlo; jj < nhi; ++jj) {
            const int j = static_cast<int>(jj);
            const std::int32_t node = tree_.node_id(t, j);
            double last_s = 0.0;
            std::vector<PartialUpdate> bundles =
                drain_bundles(*net_, node, round, last_s);
            if (bundles.empty()) continue;
            PartialUpdate m = merge_bundles(std::move(bundles),
                                            reduced_round_);
            m.shard = j;
            m.quant = reduced_round_
                          ? static_cast<std::uint8_t>(topo_.quantize_partials)
                          : kPartialQuantF32;
            const std::int32_t parent = tree_.parent_id(t, j);
            const bool delivered = send_with_retry(
                *net_, node, parent, last_s, topo_, /*downlink=*/false,
                [&](std::uint8_t flags) {
                  return encode_partial_up(round, node, parent, m, flags);
                });
            if (!delivered) {
              for (const UpdateEntry& e : m.entries) {
                auto& o = out.outcomes[static_cast<std::size_t>(e.task)];
                if (o == ClientOutcome::Trained) o = ClientOutcome::LostUp;
              }
            }
          }
        });
  }

  // Root: merge the surviving bundles back into one entry list (and, in a
  // numeric round, the merged reduce groups).
  double last_s = 0.0;
  return merge_bundles(drain_bundles(*net_, kServerId, round, last_s),
                       reduced_round_);
}

ExchangeResult FederationServer::exchange(
    std::uint32_t round, const std::vector<int>& clients,
    const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys, const BodyEncoder& encode,
    double start_s) {
  FT_SPAN_ARG("server", "exchange", "tasks", clients.size());
  FT_CHECK_MSG(clients.size() == client_rngs.size(),
               "one forked Rng per task slot required");
  FT_CHECK_MSG(reduce_keys.empty() || reduce_keys.size() == clients.size(),
               "one reduce key per task slot required");
  reduced_round_ =
      topo_.partial_aggregation && sharded() && !reduce_keys.empty();
  ExchangeResult out;
  out.results.resize(clients.size());
  out.outcomes.assign(clients.size(), ClientOutcome::LostDown);
  out.arrived_at_s.assign(clients.size(), 0.0);
  out.reduced = reduced_round_;
  const std::uint64_t retry_down0 = net_->stats().retry_bytes_down.load();
  const std::uint64_t retry_up0 = net_->stats().retry_bytes_up.load();
  const std::uint64_t failovers0 = net_->stats().leaf_failovers.load();
  const std::uint64_t failover_b0 = net_->stats().failover_bytes_down.load();
  const std::uint64_t delta_saved0 = net_->stats().delta_saved_bytes.load();

  broadcast(round, clients, client_rngs, reduce_keys, encode, start_s);
  collect(round, clients, out);

  out.retry_down_bytes = static_cast<double>(
      net_->stats().retry_bytes_down.load() - retry_down0);
  out.retry_up_bytes = static_cast<double>(
      net_->stats().retry_bytes_up.load() - retry_up0);
  out.leaf_failovers = static_cast<int>(
      net_->stats().leaf_failovers.load() - failovers0);
  out.failover_down_bytes = static_cast<double>(
      net_->stats().failover_bytes_down.load() - failover_b0);
  out.delta_saved_bytes = static_cast<double>(
      net_->stats().delta_saved_bytes.load() - delta_saved0);
  return out;
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const WeightSet& global,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys, double start_s) {
  // One body, which every task (body index 0) downloads into the
  // prototype architecture.
  return exchange(
      round, clients, client_rngs, reduce_keys,
      [&](ShardDownlink& all) { all.bodies.push_back(shared_body(global)); },
      start_s);
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const std::vector<Model*>& payloads,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys, double start_s) {
  FT_CHECK_MSG(payloads.size() == clients.size(),
               "one payload model per task slot required");
  // Architecture + weights ride the frame: the agent rebuilds the exact
  // submodel this task trains, no shared prototype required. The engine
  // hands tasks in the same payload_key group one Model instance, so the
  // (large) spec + weights body is encoded once per distinct instance.
  return exchange(round, clients, client_rngs, reduce_keys,
                  [&](ShardDownlink& all) {
                    std::unordered_map<const Model*, std::uint32_t> index;
                    for (std::size_t i = 0; i < payloads.size(); ++i) {
                      const auto [it, fresh] = index.emplace(
                          payloads[i],
                          static_cast<std::uint32_t>(all.bodies.size()));
                      if (fresh) all.bodies.push_back(task_body(*payloads[i]));
                      all.tasks[i].body = it->second;
                    }
                  },
                  start_s);
}

}  // namespace fedtrans
