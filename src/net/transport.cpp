#include "net/transport.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

namespace {

/// Stable key for a directed link (endpoints are >= -1 - num_aggregators).
std::uint64_t link_key(std::int32_t src, std::int32_t dst) {
  const auto s = static_cast<std::uint64_t>(static_cast<std::uint32_t>(src));
  const auto t = static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  return (s << 32) | t;
}

}  // namespace

bool envelope_earlier(const Envelope& a, const Envelope& b) {
  if (a.deliver_at_s != b.deliver_at_s) return a.deliver_at_s < b.deliver_at_s;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

Transport::Transport(std::vector<DeviceProfile> fleet, FaultConfig faults,
                     int num_aggregators)
    : fleet_(std::move(fleet)),
      faults_(faults),
      num_aggregators_(num_aggregators) {
  FT_CHECK_MSG(!fleet_.empty(), "transport needs at least one client link");
  FT_CHECK_MSG(num_aggregators >= 0, "negative aggregator count");
}

int Transport::endpoint_index(std::int32_t endpoint) const {
  // 0 = root server, 1..n = clients, n+1.. = shard aggregators (negative
  // ids below kServerId, see aggregator_id()).
  const int idx = endpoint == kServerId ? 0
                  : endpoint >= 0
                      ? endpoint + 1
                      : num_clients() + 1 + (-endpoint - 2);
  FT_CHECK_MSG(idx >= 0 && idx < num_endpoints(),
               "unknown transport endpoint " << endpoint);
  return idx;
}

double Transport::fault_draw(std::uint64_t link, std::uint64_t seq,
                             std::uint64_t salt) const {
  return hash01(faults_.seed, link, seq, salt);
}

double Transport::link_time_s(std::int32_t client, std::size_t bytes) const {
  return transfer_time_s(device(client), static_cast<double>(bytes));
}

const DeviceProfile& Transport::device(std::int32_t client) const {
  FT_CHECK_MSG(client >= 0 && client < num_clients(),
               "unknown client link " << client);
  return fleet_[static_cast<std::size_t>(client)];
}

bool Transport::client_dropped_out(std::uint32_t round,
                                   std::int32_t client) const {
  if (faults_.dropout_prob <= 0.0) return false;
  return hash01(faults_.seed, 0xd20u, round,
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    client))) < faults_.dropout_prob;
}

bool Transport::leaf_dead(std::uint32_t round, std::int32_t leaf) const {
  if (faults_.leaf_death_prob <= 0.0) return false;
  return hash01(faults_.seed, 0x1eafu, round,
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    leaf))) < faults_.leaf_death_prob;
}

bool byzantine_client(const FaultConfig& f, std::uint32_t round,
                      std::int32_t client) {
  if (f.byzantine_prob <= 0.0 || f.byzantine_mode == ByzantineMode::None)
    return false;
  return hash01(f.seed, 0xb12a47u, round,
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    client))) < f.byzantine_prob;
}

std::optional<Transport::Stamped> Transport::stamp(std::int32_t src,
                                                   std::int32_t dst,
                                                   std::string frame,
                                                   double sent_at_s) {
  FT_CHECK_MSG(src != dst, "transport loopback send");
  const std::uint64_t link = link_key(src, dst);
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(seq_m_);
    seq = link_seq_[link]++;
  }
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(frame.size(), std::memory_order_relaxed);
  // Downlink-direction accounting by peeking the frame's type byte (byte 6,
  // after magic + version) — cheaper and less invasive than threading a
  // direction flag through every server send site.
  if (frame.size() > 6) {
    const auto t = static_cast<std::uint8_t>(frame[6]);
    if (t == static_cast<std::uint8_t>(MsgType::JoinRound) ||
        t == static_cast<std::uint8_t>(MsgType::ModelDown) ||
        t == static_cast<std::uint8_t>(MsgType::ShardDown))
      stats_.bytes_downlink.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  static Histogram frame_bytes_h("fedtrans_frame_bytes");
  frame_bytes_h.observe(static_cast<double>(frame.size()));

  if (faults_.drop_prob > 0.0 &&
      fault_draw(link, seq, 0xd209u) < faults_.drop_prob) {
    stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
    FT_VSPAN_ARG("net", "frame_dropped", sent_at_s, 0.0,
                 track_of_endpoint(dst), "bytes",
                 static_cast<double>(frame.size()));
    return std::nullopt;
  }

  // The bottleneck of every link is the client's radio; the server/
  // aggregator backbone is free — a frame between two negative endpoints
  // (root ↔ shard aggregator) has zero latency. A reordering fault pushes
  // the frame one extra transfer back, behind its successor on the link.
  const std::int32_t client = src < 0 ? dst : src;
  const double lat = client < 0 ? 0.0 : link_time_s(client, frame.size());
  Stamped s;
  Envelope& env = s.env;
  env.src = src;
  env.dst = dst;
  env.sent_at_s = sent_at_s;
  env.seq = seq;
  env.deliver_at_s = sent_at_s + lat;
  if (faults_.reorder_prob > 0.0 &&
      fault_draw(link, seq, 0x2e02de2ULL) < faults_.reorder_prob) {
    env.deliver_at_s += lat;
    stats_.frames_reordered.fetch_add(1, std::memory_order_relaxed);
  }
  if (faults_.dup_prob > 0.0 &&
      fault_draw(link, seq, 0xd0b1eULL) < faults_.dup_prob) {
    s.dup = env;
    s.dup->deliver_at_s += lat;  // the duplicate trails the original
    s.dup->frame = frame;
  }
  env.frame = std::move(frame);
  return s;
}

void Transport::account_delivered(const Stamped& s) {
  const bool dup = s.dup.has_value();
  const std::size_t bytes = s.env.frame.size();
  // Frame in flight on the simulated timeline, drawn on the receiver's
  // track (zero-latency backbone frames show up as instants).
  FT_VSPAN_ARG("net", "frame", s.env.sent_at_s,
               s.env.deliver_at_s - s.env.sent_at_s,
               track_of_endpoint(s.env.dst), "bytes",
               static_cast<double>(bytes));
  stats_.frames_delivered.fetch_add(dup ? 2 : 1, std::memory_order_relaxed);
  stats_.bytes_delivered.fetch_add(dup ? 2 * bytes : bytes,
                                   std::memory_order_relaxed);
  if (s.env.dst == kServerId)
    stats_.bytes_root_in.fetch_add(dup ? 2 * bytes : bytes,
                                   std::memory_order_relaxed);
  if (dup) stats_.frames_duplicated.fetch_add(1, std::memory_order_relaxed);
}

SimTransport::SimTransport(std::vector<DeviceProfile> fleet,
                           FaultConfig faults, int num_aggregators)
    : Transport(std::move(fleet), faults, num_aggregators) {}

SimTransport::Mailbox& SimTransport::mailbox(std::int32_t endpoint) {
  const int idx = endpoint_index(endpoint);
  std::lock_guard<std::mutex> lk(boxes_m_);
  auto& slot = boxes_[idx];
  if (!slot) slot = std::make_unique<Mailbox>();
  return *slot;
}

bool SimTransport::send(std::int32_t src, std::int32_t dst, std::string frame,
                        double sent_at_s) {
  auto stamped = stamp(src, dst, std::move(frame), sent_at_s);
  if (!stamped) return false;

  // Account first, then hand the envelopes over by move: the duplicate's
  // copy was prepared by stamp(), outside any mailbox lock, so under
  // contention — every uplink targets the one server mailbox — the critical
  // section is just the queue pushes, never a frame-sized copy.
  account_delivered(*stamped);
  Mailbox& box = mailbox(dst);
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(box.m);
    box.q.push_back(std::move(stamped->env));
    if (stamped->dup) box.q.push_back(std::move(*stamped->dup));
    depth = box.q.size();
  }
  static Histogram queue_depth_h("fedtrans_mailbox_depth");
  queue_depth_h.observe(static_cast<double>(depth));
  return true;
}

std::vector<Envelope> SimTransport::drain(std::int32_t dst) {
  Mailbox& box = mailbox(dst);
  std::vector<Envelope> out;
  {
    std::lock_guard<std::mutex> lk(box.m);
    out.swap(box.q);
  }
  std::sort(out.begin(), out.end(), envelope_earlier);
  return out;
}

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::vector<DeviceProfile> fleet,
                                          FaultConfig faults,
                                          int num_aggregators,
                                          const SocketOptions& socket) {
  switch (kind) {
    case TransportKind::Sim:
      return std::make_unique<SimTransport>(std::move(fleet), faults,
                                            num_aggregators);
    case TransportKind::Socket:
      return std::make_unique<SocketTransport>(std::move(fleet), faults,
                                               num_aggregators, socket);
  }
  FT_CHECK_MSG(false, "unknown transport kind");
  return nullptr;
}

}  // namespace fedtrans
