#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fl/weights.hpp"

namespace fedtrans {

/// Versioned, length-prefixed binary wire protocol for the federation
/// fabric. A frame is
///
///   [magic u32][version u16][type u8][flags u8]
///   [round u32][sender i32][receiver i32]
///   [payload_len u64][checksum u64][payload bytes]
///
/// with all integers little-endian and `checksum` an FNV-1a 64 digest
/// covering both the header prefix (everything before the checksum field)
/// and the payload. Decoding validates magic, version, type, length and
/// checksum before touching the payload, so truncated or corrupted frames —
/// including corrupted routing fields — raise `Error` instead of yielding
/// silently corrupt state (the same contract as `common/serial.hpp`, which
/// encodes the payloads themselves).

/// Fabric message kinds, in protocol order within a round.
enum class MsgType : std::uint8_t {
  JoinRound = 1,  ///< server → client: invitation to participate in `round`
  ModelDown = 2,  ///< server → client: global weights + the client's Rng seed
  UpdateUp = 3,   ///< client → server: trained delta + training metrics
  Ack = 4,        ///< client → server: JoinRound accepted
  Abort = 5,      ///< client → server: client gives up on the round
  PartialUp = 6,  ///< shard → root: partial aggregate (bundled updates)
  ShardDown = 7,  ///< root → shard: bundled downlink for one shard's tasks
};

constexpr std::uint32_t kWireMagic = 0x46544E46u;  // "FTNF"
/// v2: JoinRound/ModelDown/UpdateUp carry a per-round task slot id, and
/// ModelDown carries an optional serialized ModelSpec — one client can now
/// train several heterogeneous submodels per round, which is what lets
/// every Strategy (HeteroFL crops, SplitMix base ensembles, FedTrans model
/// families) run over the fabric, not just single-global-model FedAvg.
/// v3: hierarchical aggregation frames — PartialUp (a shard aggregator's
/// bundled partial aggregate, forwarded upstream) and ShardDown (the root's
/// bundled downlink for one shard, fanned out by the leaf) — plus the
/// kFlagRetry header flag marking retry-policy resends of lost frames.
/// v4: deep-tree routing + numeric reduction — ShardDown carries the leaf
/// range its bundle covers (so interior aggregators of a >2-level tree can
/// split it among their children) and a per-task reduce-group key;
/// PartialUp gains a reduced mode whose payload is per-group numeric
/// partial sums (Σ weight·Δ + weight totals) with the per-task entries
/// carrying metrics only.
/// v5: mixed-precision payloads — every serialized tensor's header word
/// carries a storage-dtype tag (byte 1; 0 = f32, 1 = f16, 2 = bf16) and
/// half-tagged tensors ship 2 bytes/element, halving ModelDown/UpdateUp
/// payloads in mixed-precision sessions. F32 tensors encode byte-identically
/// to v4, so the payload format is backward compatible.
/// v6: bandwidth reducers — (a) reduced PartialUp bundles carry a quant
/// byte after the mode byte and may ship their per-group numeric sums
/// int8-quantized (one fp32 scale per group) or f16-tagged instead of
/// dense fp32; (b) ShardDown body tables are content-addressed — each body
/// entry ships either its bytes or, when the sender knows the receiver
/// already caches that exact body, just its 64-bit content hash; (c)
/// ModelDown frames flagged kFlagDelta diff against the client's previous
/// model with a per-tensor {same, additive delta, literal} section instead
/// of shipping the full weights.
constexpr std::uint16_t kWireVersion = 6;
/// Fixed frame header size in bytes (see layout above).
constexpr std::size_t kWireHeaderBytes = 4 + 2 + 1 + 1 + 4 + 4 + 4 + 8 + 8;
/// Sender/receiver id of the federation server (clients are their >= 0 ids).
constexpr std::int32_t kServerId = -1;
/// Endpoint id of shard aggregator `k` in a hierarchical fabric (the root
/// keeps kServerId; leaves take the ids below it).
constexpr std::int32_t aggregator_id(int k) { return -2 - k; }

/// Header flag bits (byte 8 of the frame).
constexpr std::uint8_t kFlagRetry = 0x1;  ///< resend of a lost frame
/// ModelDown only: the weight section is a round-over-round delta against
/// the receiver's previous model (see write_weight_delta), not full weights.
constexpr std::uint8_t kFlagDelta = 0x2;

/// On-wire encoding of a reduced PartialUp's per-group sums (the quant byte
/// that follows the mode byte): dense fp32 (the v5 format), int8 with one
/// fp32 scale per group, or f16-tagged tensors. Interior aggregators always
/// decode back to fp32 before folding, so accumulation stays full-precision
/// regardless of the hop encoding.
constexpr std::uint8_t kPartialQuantF32 = 0;
constexpr std::uint8_t kPartialQuantInt8 = 1;
constexpr std::uint8_t kPartialQuantF16 = 2;

/// One fabric message. A tagged union kept flat for simplicity: only the
/// fields meaningful for `type` are encoded on the wire (see wire.cpp).
struct FabricMessage {
  MsgType type = MsgType::Ack;
  /// Header flag bits (kFlagRetry marks a retry-policy resend).
  std::uint8_t flags = 0;
  std::uint32_t round = 0;
  std::int32_t sender = kServerId;
  std::int32_t receiver = kServerId;

  /// JoinRound/ModelDown/UpdateUp: the round's task slot this frame belongs
  /// to (index into the coordinator's task list). Strategies that train one
  /// model per client use slot == selection index; SplitMix-style
  /// strategies give one slot per (client, base) pair.
  std::int32_t task = 0;

  /// ModelDown: serialized ModelSpec of the payload model, or empty when
  /// the receiver should use its round prototype (single-global-model
  /// strategies broadcast one shared weight blob).
  std::string spec_text;

  /// ModelDown: global weights. UpdateUp: the client's delta.
  WeightSet weights;
  /// ModelDown: state of the per-client Rng forked by the coordinator, so
  /// the client replays the exact local-training randomness the in-process
  /// path would have drawn.
  std::array<std::uint64_t, 4> rng_state{};

  // UpdateUp metrics.
  double avg_loss = 0.0;
  std::int32_t num_samples = 0;
  double macs_used = 0.0;

  /// Abort: human-readable cause ("dropout", ...).
  std::string reason;

  /// ModelDown with kFlagDelta: version stamp of the previous model the
  /// delta section was diffed against (see write_weight_delta). 0 for
  /// full-weight frames.
  std::uint64_t delta_base = 0;
};

/// One task's update inside a PartialUp bundle — the same fields an
/// UpdateUp frame carries, plus the originating client so the root can
/// validate slot/sender matches exactly as it would for direct uplinks.
struct UpdateEntry {
  std::int32_t task = 0;
  std::int32_t client = 0;
  WeightSet delta;
  double avg_loss = 0.0;
  std::int32_t num_samples = 0;
  double macs_used = 0.0;
  /// Decode side only, never on the wire: delivery instant of the frame
  /// that carried this entry to the node that drained it.
  double arrived_at_s = 0.0;
};

/// One reduce group's numeric partial aggregate inside a reduced PartialUp:
/// the running weighted sum of the group's deltas plus the weight total,
/// exactly the pair every weighted-linear-sum strategy accumulates. Groups
/// merge associatively up the tree (element-wise sum + weight add), folded
/// in ascending min_slot order at every aggregator so the reduction is
/// deterministic for a given tree shape.
struct ReducedGroup {
  /// Strategy reduce key (Strategy::reduce_key): members have
  /// shape-identical deltas and land in the same strategy accumulator.
  std::int32_t key = 0;
  /// Smallest task slot folded into this group (canonical merge order, and
  /// the engine's handle back to a representative task/payload).
  std::int32_t min_slot = 0;
  /// Number of updates folded in.
  std::int32_t count = 0;
  /// Σ reduce-weight (num_samples) over the folded updates.
  double weight = 0.0;
  /// Σ num_samples·Δ over the folded updates.
  WeightSet sum;
};

/// A shard aggregator's partial aggregate: every update of its task
/// partition that survived the client uplinks, bundled into one upstream
/// frame. In verbatim mode (`reduced == false`, the default) entries ride
/// with their deltas bit-exact — the numeric reduction happens at the
/// engine in fixed task order, which is what keeps tree rounds bitwise
/// identical to flat ones. In reduced mode the deltas are pre-summed into
/// `groups` and the entries carry metrics only (empty delta).
struct PartialUpdate {
  std::uint32_t round = 0;
  std::int32_t sender = kServerId;
  std::int32_t shard = 0;
  bool reduced = false;
  /// Wire encoding of the group sums (kPartialQuant*; reduced mode only).
  /// In-memory sums are always fp32 — the codec quantizes at encode and
  /// dequantizes at decode, so merges accumulate full-precision.
  std::uint8_t quant = kPartialQuantF32;
  std::vector<UpdateEntry> entries;
  std::vector<ReducedGroup> groups;  ///< reduced mode only
};

/// One task's downlink inside a ShardDown bundle. `body` indexes the
/// bundle's payload-body table: the referenced body holds the exact
/// [spec string][weights] section a flat ModelDown would carry, so leaves
/// reconstruct byte-identical per-client ModelDown frames. `reduce` is the
/// task's numeric reduce-group key (-1 = verbatim round; the leaf forwards
/// the update unreduced).
struct DownlinkTask {
  std::int32_t task = 0;
  std::int32_t client = 0;
  std::uint32_t body = 0;
  std::int32_t reduce = -1;
  std::array<std::uint64_t, 4> rng_state{};
};

/// A bundled downlink travelling down the aggregation tree: a table of
/// distinct payload bodies (each encoded once — ladder strategies ship one
/// submodel per capacity level per shard, single-model strategies one
/// weight blob) plus the covered task list referencing them.
/// `leaf_lo`/`leaf_hi` is the tree-routing metadata: the half-open range of
/// leaf partitions this bundle covers. A leaf-level bundle covers exactly
/// one partition (`shard`, with leaf_hi == leaf_lo + 1); an interior node
/// receiving a wider range splits the bundle among its children. `shard`
/// is the destination partition for leaf bundles and -1 for interior ones.
struct ShardDownlink {
  std::uint32_t round = 0;
  std::int32_t shard = 0;
  std::int32_t leaf_lo = 0;
  std::int32_t leaf_hi = 1;
  std::vector<std::string> bodies;
  std::vector<DownlinkTask> tasks;
  /// Decode-side only (never encoded): missing[i] != 0 marks a body the
  /// sender elided (shipping only its content hash) that the receiver's
  /// broadcast cache could not reconstruct. Tasks referencing a missing
  /// body are lost for the round — routers must drop them (they surface as
  /// LostDown), not treat the empty placeholder as payload.
  std::vector<std::uint8_t> missing;
};

/// Content-addressed store of broadcast bodies an aggregator has already
/// received, letting repeat ShardDown frames ship a 64-bit hash instead of
/// re-shipping the body bytes (wire v6 (b)). Bodies are keyed by their
/// FNV-1a content hash; to bound growth the cache keeps one body per model
/// spec (the body's leading length-prefixed spec string), so a new round's
/// weights for the same spec evict the previous round's body. Senders
/// mirror this eviction rule in their per-receiver "known" maps, so an
/// elision decision is only made for hashes the receiver still holds.
class BroadcastCache {
 public:
  /// Record a body that arrived shipped in full. Idempotent — duplicate
  /// frames (retry storms, network dup faults) re-put the same bytes.
  void put(const std::string& body);
  /// Look up a body by content hash; nullptr on miss.
  const std::string* find(std::uint64_t hash) const;

  std::size_t size() const { return by_hash_.size(); }

 private:
  /// spec digest → content hash currently cached for that spec.
  std::unordered_map<std::uint64_t, std::uint64_t> by_spec_;
  /// content hash → body bytes.
  std::unordered_map<std::uint64_t, std::string> by_hash_;
};

/// Content hash of a broadcast body (the elision key on the wire).
std::uint64_t broadcast_body_hash(const std::string& body);
/// Digest of the body's leading length-prefixed spec string — the cache
/// eviction key (one cached body per distinct model spec). Falls back to
/// the content hash for bodies too short to carry a spec prefix.
std::uint64_t broadcast_body_spec_digest(const std::string& body);

/// FNV-1a 64-bit digest (the frame checksum).
std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Serialize a message into a self-contained frame.
std::string encode_message(const FabricMessage& msg);

/// Low-level framing: wrap an already-encoded payload in a checksummed
/// frame. Lets a broadcaster serialize a large shared payload section (the
/// weight set of a ModelDown) once and reuse it across receivers instead
/// of deep-copying the WeightSet into a FabricMessage per client.
/// `payload` must follow the per-type layout encode_message produces.
std::string encode_frame(MsgType type, std::uint32_t round,
                         std::int32_t sender, std::int32_t receiver,
                         const std::string& payload, std::uint8_t flags = 0);

/// Parse a frame produced by encode_message. Throws `Error` on short
/// buffers, bad magic/version/type, length mismatch, checksum mismatch, or
/// a payload that does not decode cleanly. PartialUp/ShardDown bundles have
/// their own decoders below. A ModelDown flagged kFlagDelta requires the
/// receiver's previous model: `prev` supplies it and `prev_version` its
/// version stamp, which must match the frame's delta_base (a mismatch — or
/// a delta frame with no `prev` at all — throws, so desynchronized senders
/// surface as rejected frames, never as silently wrong weights).
FabricMessage decode_message(std::string_view frame,
                             const WeightSet* prev = nullptr,
                             std::uint64_t prev_version = 0);

/// Bundle codecs for the hierarchical frames (validated exactly like
/// decode_message: magic, version, type, length, checksum, clean payload).
/// encode_shard_down's optional `elide` mask (parallel to d.bodies)
/// replaces marked bodies with their content hash on the wire — callers
/// may only mark bodies they know the receiver's BroadcastCache holds.
/// decode_shard_down reconstructs elided bodies from `cache` (and puts
/// fully-shipped ones into it); without a cache, or on a cache miss, the
/// affected bodies come back empty with d.missing[i] set.
std::string encode_partial_up(std::uint32_t round, std::int32_t sender,
                              std::int32_t receiver, const PartialUpdate& p,
                              std::uint8_t flags = 0);
PartialUpdate decode_partial_up(std::string_view frame);
std::string encode_shard_down(std::uint32_t round, std::int32_t sender,
                              std::int32_t receiver, const ShardDownlink& d,
                              std::uint8_t flags = 0,
                              const std::vector<std::uint8_t>* elide = nullptr);
ShardDownlink decode_shard_down(std::string_view frame,
                                BroadcastCache* cache = nullptr);

/// Cheap peek at a frame's message type (validates magic and the type
/// byte only) — lets a mixed-traffic receiver route a frame to the right
/// decoder without a full parse.
MsgType frame_type(std::string_view frame);

/// Total frame size implied by a buffer holding at least the fixed header;
/// lets stream consumers split concatenated frames. Throws on bad magic or
/// a buffer shorter than the header.
std::size_t frame_size(std::string_view buffer);

/// Result of probing a byte stream for a complete frame. A short buffer is
/// a normal streaming condition (the peer's next write is still in flight),
/// not corruption — stream consumers must wait for more bytes, while
/// `frame_size`'s throwing contract stays reserved for whole-frame buffers.
enum class FrameStatus : std::uint8_t {
  FrameReady,     ///< the buffer holds at least one complete frame
  NeedMoreBytes,  ///< header or payload still incomplete — keep reading
};

/// Probe `buffer` (the unconsumed prefix of a byte stream) for one complete
/// frame. Returns NeedMoreBytes while the fixed header — or the payload it
/// announces — has not fully arrived; returns FrameReady and sets
/// `frame_bytes` to the frame's total size once it has. `frame_bytes` is
/// also set (to the implied total) when the header is complete but the
/// payload is short, and left 0 while the header itself is partial. Still
/// throws on bad magic or a corrupt length field: those are stream
/// corruption, which waiting cannot fix.
FrameStatus try_frame_size(std::string_view buffer, std::size_t& frame_bytes);

/// Incremental frame reassembly for stream transports: feed raw bytes as
/// they arrive (partial headers, split payloads, several frames per read —
/// any segmentation), pop complete frames out. The assembler only splits
/// the stream on length-prefix boundaries; each popped frame still goes
/// through the full decode_message/decode_partial_up validation (checksum
/// included). Feeding bytes that cannot start a frame (bad magic, corrupt
/// length) throws `Error` from next_frame — a byte stream that lost sync
/// cannot be resynchronized and the connection must be torn down.
class FrameAssembler {
 public:
  /// Append `n` raw stream bytes.
  void feed(const char* data, std::size_t n);
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Pop the next complete frame, or nullopt while more bytes are needed.
  std::optional<std::string> next_frame();

  /// Bytes buffered but not yet popped as frames.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted opportunistically
};

/// WeightSet codec shared by ModelDown/UpdateUp payloads (tensor count,
/// then each tensor's shape + raw fp32 data — bit-exact round trip).
void write_weight_set(std::ostream& os, const WeightSet& ws);
WeightSet read_weight_set(std::istream& is);

/// Round-over-round weight-delta codec (wire v6 (c), the section a
/// ModelDown flagged kFlagDelta carries instead of write_weight_set):
///
///   [base_version u64][count u32]
///   [per tensor: mode u8, then for Delta/Literal the serialized tensor]
///
/// with per-tensor modes Same (receiver reuses prev[i] verbatim), Delta
/// (receiver adds the shipped fp32 difference to prev[i]) and Literal (the
/// tensor ships in full, dtype tag preserved). The writer proves bitwise
/// reconstruction before choosing Same or Delta — Same requires prev[i]
/// and next[i] byte-identical (data and dtype tag), Delta requires
/// prev[i] + (next[i] − prev[i]) to round-trip to next[i]'s exact bits on
/// every element — and falls back to Literal otherwise, so the decoded set
/// is always bit-exact to `next` no matter which modes were picked.
/// `prev` and `next` must have the same tensor count and shapes.
void write_weight_delta(std::ostream& os, std::uint64_t base_version,
                        const WeightSet& prev, const WeightSet& next);
/// Reconstruct `next` from the delta section and the receiver's previous
/// model. Validates tensor count/shapes against `prev` and returns the
/// frame's base_version through `base_version`.
WeightSet read_weight_delta(std::istream& is, const WeightSet& prev,
                            std::uint64_t& base_version);

}  // namespace fedtrans
