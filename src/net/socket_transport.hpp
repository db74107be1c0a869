#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"

namespace fedtrans {

/// Bytes prepended to every wire frame on a socket channel: the envelope
/// metadata (endpoints, simulated timestamps, link sequence number) that
/// SimTransport keeps in process memory has to travel with the frame once
/// real bytes are involved. Layout (host-endian; both ends of a channel run
/// on the same machine):
///   [u32 magic][i32 src][i32 dst][f64 sent_at_s][f64 deliver_at_s]
///   [u64 seq][u64 frame_len]
inline constexpr std::uint32_t kSocketEnvelopeMagic = 0x4654534bu;  // "KSTF"
inline constexpr std::size_t kSocketEnvelopeBytes = 4 + 4 + 4 + 8 + 8 + 8 + 8;

/// Transport implementation that pushes frames through real non-blocking
/// Unix-domain sockets (one socketpair per destination endpoint, created on
/// first touch) instead of in-process mailboxes. Fault injection, envelope
/// stamping, and per-link sequencing all come from the shared Transport
/// base, so a fault-free round over this transport is bitwise identical to
/// the same round over SimTransport — what changes is only that frames are
/// serialized, chunked through the kernel, and reassembled incrementally on
/// the receive side (possibly split across many recv() calls, the path
/// SocketOptions::read_chunk / write_chunk shrink on purpose in tests).
///
/// Writers serialize per destination under a channel write mutex, so
/// envelopes never interleave mid-frame; a full kernel buffer is relieved by
/// pumping the destination's read side (both ends live in this process), so
/// send() never blocks indefinitely and never drops bytes.
class SocketTransport final : public Transport {
 public:
  SocketTransport(std::vector<DeviceProfile> fleet, FaultConfig faults,
                  int num_aggregators = 0, SocketOptions options = {});
  ~SocketTransport() override;

  bool send(std::int32_t src, std::int32_t dst, std::string frame,
            double sent_at_s = 0.0) override;
  std::vector<Envelope> drain(std::int32_t dst) override;
  std::string name() const override { return "socket"; }

  const SocketOptions& options() const { return options_; }

 private:
  /// One destination endpoint's socket channel: the write end all senders
  /// share, the read end the receiver pumps, and the user-space reassembly
  /// state for envelopes that arrived split across reads.
  struct Channel {
    int write_fd = -1;
    int read_fd = -1;
    std::mutex write_m;  ///< serializes whole envelopes onto the socket
    std::mutex read_m;   ///< guards rbuf/rpos/pending
    std::string rbuf;    ///< raw bytes off the socket, not yet framed
    std::size_t rpos = 0;  ///< consumed prefix of rbuf
    std::vector<Envelope> pending;  ///< reassembled, not yet delivered
  };

  Channel& channel(std::int32_t endpoint);
  /// Move every readable byte off `ch`'s socket into rbuf and peel complete
  /// envelopes into `pending`. Caller holds ch.read_m.
  void pump_locked(Channel& ch);
  /// Write one serialized envelope, chunked per options_.write_chunk,
  /// relieving a full kernel buffer by pumping the read side. Caller holds
  /// ch.write_m.
  void write_envelope_locked(Channel& ch, const Envelope& env);

  SocketOptions options_;
  std::mutex channels_m_;  ///< guards the map, not the channels
  std::unordered_map<int, std::unique_ptr<Channel>> channels_;
};

/// Listening socket for the multi-process topology (root accepts one
/// connection per leaf-aggregator process). Supports Unix-domain (path) and
/// TCP loopback binds; `bind_tcp(0)` picks a free port, readable via
/// port(). Accepted fds are blocking — frame pacing in the multi-process
/// demo is request/response, not event-driven.
class SocketListener {
 public:
  static SocketListener bind_unix(const std::string& path);
  static SocketListener bind_tcp(int port);
  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&&) = delete;
  SocketListener(const SocketListener&) = delete;
  ~SocketListener();

  /// Block until a peer connects; returns the connected fd (caller owns).
  int accept_fd();
  int fd() const { return fd_; }
  int port() const { return port_; }
  const std::string& path() const { return path_; }

 private:
  SocketListener() = default;
  int fd_ = -1;
  int port_ = 0;       ///< TCP binds only
  std::string path_;   ///< Unix-domain binds only (unlinked on destruction)
};

/// Connect to a listener (blocking). Returns the connected fd.
int connect_unix(const std::string& path);
int connect_tcp(const std::string& host, int port);

/// Write one wire frame (wire.hpp format, no envelope header) to a
/// connected blocking fd, handling short writes. Throws Error on a dead
/// peer.
void send_frame_fd(int fd, std::string_view frame);

/// Incremental frame reader over a connected fd: read() into a
/// FrameAssembler until a complete wire frame pops out. Used by both sides
/// of the multi-process demo, so frames split across arbitrary recv
/// boundaries reassemble transparently.
class FdFrameReader {
 public:
  explicit FdFrameReader(int fd, std::size_t read_chunk = 4096)
      : fd_(fd), read_chunk_(read_chunk) {}

  /// Block until the next complete frame arrives. Throws Error if the peer
  /// closes mid-frame or the stream is corrupt.
  std::string read_frame();

 private:
  int fd_;
  std::size_t read_chunk_;
  FrameAssembler assembler_;
};

}  // namespace fedtrans
