#include "net/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <sstream>
#include <streambuf>

#include "common/check.hpp"
#include "common/serial.hpp"

namespace fedtrans {

namespace {

/// Read-only streambuf over a borrowed byte range: lets the decoder parse a
/// frame's payload in place instead of copying a model-sized blob into a
/// stringstream first. Seekable, so serial.hpp's stream_remaining guard
/// stays active.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view v) {
    char* p = const_cast<char*>(v.data());  // never written: get area only
    setg(p, p, p + v.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
    char* base = eback();
    char* to = dir == std::ios_base::beg   ? base + off
               : dir == std::ios_base::cur ? gptr() + off
                                           : egptr() + off;
    if (to < base || to > egptr()) return pos_type(off_type(-1));
    setg(base, to, egptr());
    return pos_type(to - base);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// Reject a count prefix claiming more elements than the bytes left could
/// encode at `min_bytes` apiece, before anything is allocated for it.
void check_count(std::istream& is, std::uint64_t count,
                 std::uint64_t min_bytes, const char* what) {
  FT_CHECK_MSG(count <= stream_remaining(is) / min_bytes,
               what << " count " << count << " exceeds remaining stream");
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void write_weight_set(std::ostream& os, const WeightSet& ws) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(ws.size()));
  for (const Tensor& t : ws) t.save(os);
}

WeightSet read_weight_set(std::istream& is) {
  const auto n = read_pod<std::uint32_t>(is);
  // Every tensor carries at least its 4-byte header word.
  check_count(is, n, sizeof(std::int32_t), "weight-set tensor");
  WeightSet ws;
  ws.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ws.push_back(Tensor::load(is));
  return ws;
}

namespace {

/// Reduced-group sum codec for quantized PartialUp bundles (wire v6 (a)).
/// Int8 layout: one fp32 scale for the whole group, then per tensor
/// [rank u32][dims i32...] and numel int8 codes with v ≈ code·scale.
void write_group_sum_int8(std::ostream& os, const WeightSet& sum) {
  float mx = 0.0f;
  for (const Tensor& t : sum)
    for (std::int64_t i = 0; i < t.numel(); ++i)
      mx = std::max(mx, std::fabs(t[i]));
  const float scale = mx / 127.0f;
  write_pod(os, scale);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(sum.size()));
  for (const Tensor& t : sum) {
    const auto& shape = t.shape();
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(shape.size()));
    for (const int dim : shape) write_pod<std::int32_t>(os, dim);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const float q =
          scale > 0.0f
              ? std::min(127.0f, std::max(-127.0f, std::round(t[i] / scale)))
              : 0.0f;
      write_pod<std::int8_t>(os, static_cast<std::int8_t>(q));
    }
  }
}

WeightSet read_group_sum_int8(std::istream& is) {
  const auto scale = read_pod<float>(is);
  FT_CHECK_MSG(std::isfinite(scale) && scale >= 0.0f,
               "int8 PartialUp group scale corrupt: " << scale);
  const auto n = read_pod<std::uint32_t>(is);
  check_count(is, n, sizeof(std::uint32_t), "int8 PartialUp tensor");
  WeightSet sum;
  sum.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto rank = read_pod<std::uint32_t>(is);
    FT_CHECK_MSG(rank <= 8, "int8 PartialUp tensor rank corrupt: " << rank);
    std::vector<int> shape(rank);
    std::uint64_t numel = 1;
    for (std::uint32_t k = 0; k < rank; ++k) {
      shape[k] = read_pod<std::int32_t>(is);
      FT_CHECK_MSG(shape[k] > 0, "int8 PartialUp tensor dim corrupt");
      // One code byte per element. Checking every partial product keeps it
      // within the bytes left, so the next multiply cannot overflow.
      numel *= static_cast<std::uint64_t>(shape[k]);
      check_count(is, numel, 1, "int8 PartialUp element");
    }
    Tensor t(shape);
    for (std::int64_t j = 0; j < t.numel(); ++j)
      t[j] = static_cast<float>(read_pod<std::int8_t>(is)) * scale;
    sum.push_back(std::move(t));
  }
  return sum;
}

void write_group_sum(std::ostream& os, const WeightSet& sum,
                     std::uint8_t quant) {
  switch (quant) {
    case kPartialQuantF32: write_weight_set(os, sum); break;
    case kPartialQuantInt8: write_group_sum_int8(os, sum); break;
    case kPartialQuantF16: {
      WeightSet half = sum;
      for (Tensor& t : half) t.quantize_storage(Dtype::F16);
      write_weight_set(os, half);
      break;
    }
    default: FT_CHECK_MSG(false, "PartialUp quant byte invalid: " << int{quant});
  }
}

WeightSet read_group_sum(std::istream& is, std::uint8_t quant) {
  switch (quant) {
    case kPartialQuantF32: return read_weight_set(is);
    case kPartialQuantInt8: return read_group_sum_int8(is);
    case kPartialQuantF16: {
      WeightSet sum = read_weight_set(is);
      // Values sit on the f16 grid; retag to fp32 so downstream merges
      // accumulate (and re-encode) from a clean full-precision set.
      for (Tensor& t : sum) t.quantize_storage(Dtype::F32);
      return sum;
    }
    default: FT_CHECK_MSG(false, "PartialUp quant byte corrupt: " << int{quant});
  }
  return {};
}

}  // namespace

namespace {

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::JoinRound) &&
         t <= static_cast<std::uint8_t>(MsgType::ShardDown);
}

/// Shared header validation for every decoder: checks magic, version, type,
/// length and checksum, returns the parsed fixed header fields and the
/// payload view.
struct FrameHeader {
  MsgType type;
  std::uint8_t flags;
  std::uint32_t round;
  std::int32_t sender;
  std::int32_t receiver;
  std::string_view payload;
};

FrameHeader parse_header(std::string_view frame) {
  FT_CHECK_MSG(frame.size() >= kWireHeaderBytes,
               "wire frame truncated: " << frame.size() << " bytes < "
                                        << kWireHeaderBytes << " header");
  std::istringstream is(std::string(frame.substr(0, kWireHeaderBytes)),
                        std::ios::binary);
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == kWireMagic, "bad wire magic");
  const auto version = read_pod<std::uint16_t>(is);
  FT_CHECK_MSG(version == kWireVersion,
               "unsupported wire version " << version);
  const auto raw_type = read_pod<std::uint8_t>(is);
  FT_CHECK_MSG(valid_type(raw_type),
               "unknown wire message type " << int{raw_type});

  FrameHeader h;
  h.type = static_cast<MsgType>(raw_type);
  h.flags = read_pod<std::uint8_t>(is);
  h.round = read_pod<std::uint32_t>(is);
  h.sender = read_pod<std::int32_t>(is);
  h.receiver = read_pod<std::int32_t>(is);
  const auto payload_len = read_pod<std::uint64_t>(is);
  const auto checksum = read_pod<std::uint64_t>(is);

  FT_CHECK_MSG(frame.size() - kWireHeaderBytes == payload_len,
               "wire frame length mismatch: header says "
                   << payload_len << " payload bytes, buffer has "
                   << frame.size() - kWireHeaderBytes);
  h.payload = frame.substr(kWireHeaderBytes);
  std::uint64_t digest = fnv1a64(frame.data(), kWireHeaderBytes - 8);
  digest ^= fnv1a64(h.payload.data(), h.payload.size());
  FT_CHECK_MSG(digest == checksum,
               "wire checksum mismatch — corrupted frame");
  return h;
}

/// Rejects trailing garbage after a payload decode (a long frame is as
/// malformed as a short one).
void expect_consumed(std::istream& is) {
  is.peek();
  FT_CHECK_MSG(is.eof(), "wire payload has trailing bytes");
}

std::string encode_payload(const FabricMessage& msg) {
  std::ostringstream os(std::ios::binary);
  switch (msg.type) {
    case MsgType::ModelDown:
      write_pod(os, msg.task);
      write_string(os, msg.spec_text);
      write_weight_set(os, msg.weights);
      write_pod(os, msg.rng_state);
      break;
    case MsgType::UpdateUp:
      write_pod(os, msg.task);
      write_weight_set(os, msg.weights);
      write_pod(os, msg.avg_loss);
      write_pod(os, msg.num_samples);
      write_pod(os, msg.macs_used);
      break;
    case MsgType::Abort:
      write_string(os, msg.reason);
      break;
    case MsgType::JoinRound:
      write_pod(os, msg.task);
      break;
    case MsgType::Ack:
      break;  // header-only
    case MsgType::PartialUp:
    case MsgType::ShardDown:
      FT_CHECK_MSG(false, "bundle frames use encode_partial_up / "
                          "encode_shard_down, not encode_message");
  }
  return os.str();
}

void decode_payload(FabricMessage& msg, std::string_view payload,
                    const WeightSet* prev, std::uint64_t prev_version) {
  ViewBuf buf(payload);
  std::istream is(&buf);
  switch (msg.type) {
    case MsgType::ModelDown:
      msg.task = read_pod<std::int32_t>(is);
      msg.spec_text = read_string(is);
      if (msg.flags & kFlagDelta) {
        // A delta frame is only decodable against the exact model version
        // it was diffed from; anything else is a sender/receiver desync
        // that must surface as a rejected frame, not as wrong weights.
        FT_CHECK_MSG(prev != nullptr,
                     "delta ModelDown but receiver holds no previous model");
        msg.weights = read_weight_delta(is, *prev, msg.delta_base);
        FT_CHECK_MSG(msg.delta_base == prev_version,
                     "delta ModelDown base version "
                         << msg.delta_base << " != receiver's "
                         << prev_version);
      } else {
        msg.weights = read_weight_set(is);
      }
      msg.rng_state = read_pod<std::array<std::uint64_t, 4>>(is);
      break;
    case MsgType::UpdateUp:
      msg.task = read_pod<std::int32_t>(is);
      msg.weights = read_weight_set(is);
      msg.avg_loss = read_pod<double>(is);
      msg.num_samples = read_pod<std::int32_t>(is);
      msg.macs_used = read_pod<double>(is);
      break;
    case MsgType::Abort:
      msg.reason = read_string(is);
      break;
    case MsgType::JoinRound:
      msg.task = read_pod<std::int32_t>(is);
      break;
    case MsgType::Ack:
      break;
    case MsgType::PartialUp:
    case MsgType::ShardDown:
      FT_CHECK_MSG(false, "bundle frames use decode_partial_up / "
                          "decode_shard_down, not decode_message");
  }
  expect_consumed(is);
}

}  // namespace

std::string encode_frame(MsgType type, std::uint32_t round,
                         std::int32_t sender, std::int32_t receiver,
                         const std::string& payload, std::uint8_t flags) {
  // Assemble via string appends — one allocation, one payload copy — since
  // broadcast calls this once per client with a model-sized payload.
  std::string frame;
  frame.reserve(kWireHeaderBytes + payload.size());
  auto append_pod = [&frame](const auto& v) {
    frame.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_pod(kWireMagic);
  append_pod(kWireVersion);
  append_pod(static_cast<std::uint8_t>(type));
  append_pod(flags);
  append_pod(round);
  append_pod(sender);
  append_pod(receiver);
  append_pod(std::uint64_t{payload.size()});
  // The digest covers the header prefix too, so corruption of the routing
  // fields (round/sender/receiver) is caught, not just payload damage.
  std::uint64_t digest = fnv1a64(frame.data(), kWireHeaderBytes - 8);
  digest ^= fnv1a64(payload.data(), payload.size());
  append_pod(digest);
  frame.append(payload);
  return frame;
}

std::string encode_message(const FabricMessage& msg) {
  return encode_frame(msg.type, msg.round, msg.sender, msg.receiver,
                      encode_payload(msg), msg.flags);
}

std::size_t frame_size(std::string_view buffer) {
  FT_CHECK_MSG(buffer.size() >= kWireHeaderBytes,
               "wire buffer shorter than frame header ("
                   << buffer.size() << " < " << kWireHeaderBytes << ")");
  std::istringstream is(std::string(buffer.substr(0, kWireHeaderBytes)),
                        std::ios::binary);
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == kWireMagic,
               "bad wire magic");
  (void)read_pod<std::uint16_t>(is);  // version
  (void)read_pod<std::uint8_t>(is);   // type
  (void)read_pod<std::uint8_t>(is);   // flags
  (void)read_pod<std::uint32_t>(is);  // round
  (void)read_pod<std::int32_t>(is);   // sender
  (void)read_pod<std::int32_t>(is);   // receiver
  const auto payload_len = read_pod<std::uint64_t>(is);
  // A corrupt length field must throw here, not wrap size_t into a bogus
  // small frame size that would make a stream consumer mis-split (or never
  // advance past) the buffer.
  FT_CHECK_MSG(payload_len <=
                   std::numeric_limits<std::size_t>::max() - kWireHeaderBytes,
               "wire frame length field corrupt: " << payload_len);
  return kWireHeaderBytes + static_cast<std::size_t>(payload_len);
}

FrameStatus try_frame_size(std::string_view buffer, std::size_t& frame_bytes) {
  frame_bytes = 0;
  if (buffer.size() >= sizeof(std::uint32_t)) {
    // Validate the magic as soon as it is readable: a stream that does not
    // open with it has lost framing sync, and no amount of further bytes
    // will recover it.
    std::uint32_t magic = 0;
    std::memcpy(&magic, buffer.data(), sizeof(magic));
    FT_CHECK_MSG(magic == kWireMagic, "bad wire magic");
  }
  if (buffer.size() < kWireHeaderBytes) return FrameStatus::NeedMoreBytes;
  frame_bytes = frame_size(buffer.substr(0, kWireHeaderBytes));
  return buffer.size() >= frame_bytes ? FrameStatus::FrameReady
                                      : FrameStatus::NeedMoreBytes;
}

void FrameAssembler::feed(const char* data, std::size_t n) {
  if (n == 0) return;
  // Compact the consumed prefix before growing, so the buffer never holds
  // more than one partial frame's worth of dead bytes.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<std::string> FrameAssembler::next_frame() {
  const std::string_view rest = std::string_view(buf_).substr(pos_);
  std::size_t total = 0;
  if (try_frame_size(rest, total) == FrameStatus::NeedMoreBytes)
    return std::nullopt;
  std::string frame(rest.substr(0, total));
  pos_ += total;
  return frame;
}

FabricMessage decode_message(std::string_view frame, const WeightSet* prev,
                             std::uint64_t prev_version) {
  const FrameHeader h = parse_header(frame);
  FabricMessage msg;
  msg.type = h.type;
  msg.flags = h.flags;
  msg.round = h.round;
  msg.sender = h.sender;
  msg.receiver = h.receiver;
  decode_payload(msg, h.payload, prev, prev_version);
  return msg;
}

MsgType frame_type(std::string_view frame) {
  FT_CHECK_MSG(frame.size() >= kWireHeaderBytes,
               "wire frame truncated: " << frame.size() << " bytes < "
                                        << kWireHeaderBytes << " header");
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), sizeof(magic));
  FT_CHECK_MSG(magic == kWireMagic, "bad wire magic");
  const auto raw_type = static_cast<std::uint8_t>(frame[6]);
  FT_CHECK_MSG(valid_type(raw_type),
               "unknown wire message type " << int{raw_type});
  return static_cast<MsgType>(raw_type);
}

std::string encode_partial_up(std::uint32_t round, std::int32_t sender,
                              std::int32_t receiver, const PartialUpdate& p,
                              std::uint8_t flags) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, p.shard);
  write_pod<std::uint8_t>(os, p.reduced ? 1 : 0);
  if (p.reduced) {
    FT_CHECK_MSG(p.quant <= kPartialQuantF16,
                 "PartialUp quant byte invalid: " << int{p.quant});
    write_pod<std::uint8_t>(os, p.quant);
  }
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(p.entries.size()));
  for (const UpdateEntry& e : p.entries) {
    write_pod(os, e.task);
    write_pod(os, e.client);
    write_weight_set(os, e.delta);
    write_pod(os, e.avg_loss);
    write_pod(os, e.num_samples);
    write_pod(os, e.macs_used);
  }
  if (p.reduced) {
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(p.groups.size()));
    for (const ReducedGroup& g : p.groups) {
      write_pod(os, g.key);
      write_pod(os, g.min_slot);
      write_pod(os, g.count);
      write_pod(os, g.weight);
      write_group_sum(os, g.sum, p.quant);
    }
  }
  return encode_frame(MsgType::PartialUp, round, sender, receiver, os.str(),
                      flags);
}

PartialUpdate decode_partial_up(std::string_view frame) {
  const FrameHeader h = parse_header(frame);
  FT_CHECK_MSG(h.type == MsgType::PartialUp,
               "expected a PartialUp frame, got type "
                   << int{static_cast<std::uint8_t>(h.type)});
  ViewBuf buf(h.payload);
  std::istream is(&buf);
  PartialUpdate p;
  p.round = h.round;
  p.sender = h.sender;
  p.shard = read_pod<std::int32_t>(is);
  const auto mode = read_pod<std::uint8_t>(is);
  FT_CHECK_MSG(mode <= 1, "PartialUp mode byte corrupt: " << int{mode});
  p.reduced = mode == 1;
  if (p.reduced) {
    p.quant = read_pod<std::uint8_t>(is);
    FT_CHECK_MSG(p.quant <= kPartialQuantF16,
                 "PartialUp quant byte corrupt: " << int{p.quant});
  }
  const auto n = read_pod<std::uint32_t>(is);
  // task, client, delta count, loss, samples, MACs
  check_count(is, n, 32, "PartialUp entry");
  p.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    UpdateEntry e;
    e.task = read_pod<std::int32_t>(is);
    e.client = read_pod<std::int32_t>(is);
    e.delta = read_weight_set(is);
    e.avg_loss = read_pod<double>(is);
    e.num_samples = read_pod<std::int32_t>(is);
    e.macs_used = read_pod<double>(is);
    // Reduced bundles carry metrics only: a delta here means the encoder
    // and the mode byte disagree — reject rather than double-count.
    FT_CHECK_MSG(!p.reduced || e.delta.empty(),
                 "reduced PartialUp entry carries a delta");
    p.entries.push_back(std::move(e));
  }
  if (p.reduced) {
    const auto ng = read_pod<std::uint32_t>(is);
    // key, min slot, count, weight, and at least a 4-byte sum
    check_count(is, ng, 24, "PartialUp group");
    p.groups.reserve(ng);
    for (std::uint32_t i = 0; i < ng; ++i) {
      ReducedGroup g;
      g.key = read_pod<std::int32_t>(is);
      g.min_slot = read_pod<std::int32_t>(is);
      g.count = read_pod<std::int32_t>(is);
      g.weight = read_pod<double>(is);
      g.sum = read_group_sum(is, p.quant);
      p.groups.push_back(std::move(g));
    }
  }
  expect_consumed(is);
  return p;
}

std::string encode_shard_down(std::uint32_t round, std::int32_t sender,
                              std::int32_t receiver, const ShardDownlink& d,
                              std::uint8_t flags,
                              const std::vector<std::uint8_t>* elide) {
  FT_CHECK_MSG(elide == nullptr || elide->size() == d.bodies.size(),
               "ShardDown elide mask size " << (elide ? elide->size() : 0)
                                            << " != body count "
                                            << d.bodies.size());
  std::ostringstream os(std::ios::binary);
  write_pod(os, d.shard);
  write_pod(os, d.leaf_lo);
  write_pod(os, d.leaf_hi);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(d.bodies.size()));
  for (std::size_t i = 0; i < d.bodies.size(); ++i) {
    const bool skip = elide != nullptr && (*elide)[i] != 0;
    write_pod<std::uint8_t>(os, skip ? 0 : 1);  // shipped flag
    if (skip)
      write_pod<std::uint64_t>(os, broadcast_body_hash(d.bodies[i]));
    else
      write_string(os, d.bodies[i]);
  }
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(d.tasks.size()));
  for (const DownlinkTask& t : d.tasks) {
    write_pod(os, t.task);
    write_pod(os, t.client);
    write_pod(os, t.body);
    write_pod(os, t.reduce);
    write_pod(os, t.rng_state);
  }
  return encode_frame(MsgType::ShardDown, round, sender, receiver,
                      os.str(), flags);
}

ShardDownlink decode_shard_down(std::string_view frame,
                                BroadcastCache* cache) {
  const FrameHeader h = parse_header(frame);
  FT_CHECK_MSG(h.type == MsgType::ShardDown,
               "expected a ShardDown frame, got type "
                   << int{static_cast<std::uint8_t>(h.type)});
  ViewBuf buf(h.payload);
  std::istream is(&buf);
  ShardDownlink d;
  d.round = h.round;
  d.shard = read_pod<std::int32_t>(is);
  d.leaf_lo = read_pod<std::int32_t>(is);
  d.leaf_hi = read_pod<std::int32_t>(is);
  FT_CHECK_MSG(d.leaf_lo >= 0 && d.leaf_hi > d.leaf_lo,
               "ShardDown leaf range corrupt: [" << d.leaf_lo << ", "
                                                 << d.leaf_hi << ")");
  const auto nb = read_pod<std::uint32_t>(is);
  // shipped flag plus a length prefix or a hash
  check_count(is, nb, 9, "ShardDown body");
  d.bodies.reserve(nb);
  d.missing.assign(nb, 0);
  for (std::uint32_t i = 0; i < nb; ++i) {
    const auto shipped = read_pod<std::uint8_t>(is);
    FT_CHECK_MSG(shipped <= 1,
                 "ShardDown body flag corrupt: " << int{shipped});
    if (shipped) {
      d.bodies.push_back(read_string(is));
      // Cache in arrival order: a later same-spec body in this very bundle
      // evicts an earlier one exactly as the sender's known-map replay does.
      if (cache != nullptr) cache->put(d.bodies.back());
    } else {
      const auto hash = read_pod<std::uint64_t>(is);
      const std::string* hit = cache != nullptr ? cache->find(hash) : nullptr;
      if (hit != nullptr) {
        d.bodies.push_back(*hit);
      } else {
        // Sender believed we cached this body and we did not — the tasks
        // referencing it are lost for the round (routers drop them), but
        // the frame itself is well-formed.
        d.bodies.emplace_back();
        d.missing[i] = 1;
      }
    }
  }
  const auto nt = read_pod<std::uint32_t>(is);
  // task, client, body, reduce key, Rng state
  check_count(is, nt, 48, "ShardDown task");
  d.tasks.reserve(nt);
  for (std::uint32_t i = 0; i < nt; ++i) {
    DownlinkTask t;
    t.task = read_pod<std::int32_t>(is);
    t.client = read_pod<std::int32_t>(is);
    t.body = read_pod<std::uint32_t>(is);
    t.reduce = read_pod<std::int32_t>(is);
    t.rng_state = read_pod<std::array<std::uint64_t, 4>>(is);
    FT_CHECK_MSG(t.body < nb, "ShardDown task references body " << t.body
                                  << " of " << nb);
    d.tasks.push_back(t);
  }
  expect_consumed(is);
  return d;
}

std::uint64_t broadcast_body_hash(const std::string& body) {
  return fnv1a64(body.data(), body.size());
}

std::uint64_t broadcast_body_spec_digest(const std::string& body) {
  // Body layout: [spec string (u64 length + bytes)][weight section]. The
  // digest covers the spec bytes only, so all rounds of the same model
  // land on one cache slot.
  if (body.size() >= sizeof(std::uint64_t)) {
    std::uint64_t len = 0;
    std::memcpy(&len, body.data(), sizeof(len));
    if (len <= body.size() - sizeof(len))
      return fnv1a64(body.data() + sizeof(len),
                     static_cast<std::size_t>(len));
  }
  return broadcast_body_hash(body);
}

void BroadcastCache::put(const std::string& body) {
  const std::uint64_t hash = broadcast_body_hash(body);
  const std::uint64_t spec = broadcast_body_spec_digest(body);
  auto it = by_spec_.find(spec);
  if (it != by_spec_.end()) {
    if (it->second == hash) return;  // duplicate frame — already cached
    by_hash_.erase(it->second);
    it->second = hash;
  } else {
    by_spec_.emplace(spec, hash);
  }
  by_hash_[hash] = body;
}

const std::string* BroadcastCache::find(std::uint64_t hash) const {
  const auto it = by_hash_.find(hash);
  return it == by_hash_.end() ? nullptr : &it->second;
}

namespace {

/// Per-tensor delta modes (wire v6 (c)).
constexpr std::uint8_t kDeltaSame = 0;     ///< receiver reuses prev[i]
constexpr std::uint8_t kDeltaAdd = 1;      ///< fp32 difference, added to prev[i]
constexpr std::uint8_t kDeltaLiteral = 2;  ///< full tensor, dtype preserved

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

}  // namespace

void write_weight_delta(std::ostream& os, std::uint64_t base_version,
                        const WeightSet& prev, const WeightSet& next) {
  FT_CHECK_MSG(prev.size() == next.size(),
               "weight-delta tensor count mismatch: prev "
                   << prev.size() << " vs next " << next.size());
  write_pod(os, base_version);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(next.size()));
  for (std::size_t i = 0; i < next.size(); ++i) {
    const Tensor& p = prev[i];
    const Tensor& n = next[i];
    FT_CHECK_MSG(p.same_shape(n),
                 "weight-delta tensor " << i << " shape mismatch");
    const std::size_t bytes =
        static_cast<std::size_t>(n.numel()) * sizeof(float);
    if (p.dtype() == n.dtype() &&
        std::memcmp(p.data(), n.data(), bytes) == 0) {
      write_pod<std::uint8_t>(os, kDeltaSame);
      continue;
    }
    // Additive mode is only sound when the receiver's prev + diff provably
    // reproduces next's exact bits on every element (and both sides are
    // plain fp32, so no storage grid re-snaps the reconstruction).
    if (p.dtype() == Dtype::F32 && n.dtype() == Dtype::F32) {
      Tensor d = n;
      bool exact = true;
      for (std::int64_t j = 0; j < n.numel() && exact; ++j) {
        d[j] = n[j] - p[j];
        exact = bits_equal(p[j] + d[j], n[j]);
      }
      if (exact) {
        write_pod<std::uint8_t>(os, kDeltaAdd);
        d.save(os);
        continue;
      }
    }
    write_pod<std::uint8_t>(os, kDeltaLiteral);
    n.save(os);
  }
}

WeightSet read_weight_delta(std::istream& is, const WeightSet& prev,
                            std::uint64_t& base_version) {
  base_version = read_pod<std::uint64_t>(is);
  const auto n = read_pod<std::uint32_t>(is);
  FT_CHECK_MSG(n == prev.size(),
               "weight-delta tensor count " << n
                   << " != previous model's " << prev.size());
  WeightSet out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto mode = read_pod<std::uint8_t>(is);
    switch (mode) {
      case kDeltaSame:
        out.push_back(prev[i]);
        break;
      case kDeltaAdd: {
        Tensor d = Tensor::load(is);
        FT_CHECK_MSG(d.same_shape(prev[i]),
                     "weight-delta tensor " << i << " shape mismatch");
        Tensor r = prev[i];
        for (std::int64_t j = 0; j < r.numel(); ++j) r[j] += d[j];
        out.push_back(std::move(r));
        break;
      }
      case kDeltaLiteral:
        out.push_back(Tensor::load(is));
        FT_CHECK_MSG(out.back().same_shape(prev[i]),
                     "weight-delta tensor " << i << " shape mismatch");
        break;
      default:
        FT_CHECK_MSG(false, "weight-delta mode byte corrupt: " << int{mode});
    }
  }
  return out;
}

}  // namespace fedtrans
