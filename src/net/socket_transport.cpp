#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace fedtrans {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  FT_CHECK_MSG(flags >= 0, "fcntl(F_GETFL): " << std::strerror(errno));
  FT_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL): " << std::strerror(errno));
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod_at(const std::string& buf, std::size_t& off) {
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

std::string serialize_envelope(const Envelope& env) {
  std::string out;
  out.reserve(kSocketEnvelopeBytes + env.frame.size());
  append_pod(out, kSocketEnvelopeMagic);
  append_pod(out, env.src);
  append_pod(out, env.dst);
  append_pod(out, env.sent_at_s);
  append_pod(out, env.deliver_at_s);
  append_pod(out, env.seq);
  append_pod(out, static_cast<std::uint64_t>(env.frame.size()));
  out.append(env.frame);
  return out;
}

Counter& socket_frames_total() {
  static Counter c("fedtrans_socket_frames_total");
  return c;
}

Counter& socket_bytes_total() {
  static Counter c("fedtrans_socket_bytes_total");
  return c;
}

}  // namespace

SocketTransport::SocketTransport(std::vector<DeviceProfile> fleet,
                                 FaultConfig faults, int num_aggregators,
                                 SocketOptions options)
    : Transport(std::move(fleet), faults, num_aggregators),
      options_(options) {
  FT_CHECK_MSG(options_.read_chunk > 0, "read_chunk must be positive");
  FT_CHECK_MSG(options_.write_chunk >= 0, "negative write_chunk");
}

SocketTransport::~SocketTransport() {
  for (auto& [idx, ch] : channels_) {
    if (ch->write_fd >= 0) ::close(ch->write_fd);
    if (ch->read_fd >= 0) ::close(ch->read_fd);
  }
}

SocketTransport::Channel& SocketTransport::channel(std::int32_t endpoint) {
  const int idx = endpoint_index(endpoint);
  std::lock_guard<std::mutex> lk(channels_m_);
  auto& slot = channels_[idx];
  if (!slot) {
    slot = std::make_unique<Channel>();
    int fds[2] = {-1, -1};
    FT_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 "socketpair: " << std::strerror(errno));
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    slot->write_fd = fds[0];
    slot->read_fd = fds[1];
  }
  return *slot;
}

void SocketTransport::pump_locked(Channel& ch) {
  // Compact the consumed prefix before growing the buffer again.
  if (ch.rpos > 0 && (ch.rpos == ch.rbuf.size() || ch.rpos >= 4096)) {
    ch.rbuf.erase(0, ch.rpos);
    ch.rpos = 0;
  }
  char buf[65536];
  const std::size_t chunk =
      std::min(sizeof(buf), static_cast<std::size_t>(options_.read_chunk));
  for (;;) {
    const ssize_t n = ::read(ch.read_fd, buf, chunk);
    if (n > 0) {
      ch.rbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the kernel buffer is dry — everything sent so far is here.
    break;
  }
  // Peel complete envelopes; a partial header or payload stays buffered
  // until the next pump (incremental reassembly — no byte count is special).
  while (ch.rbuf.size() - ch.rpos >= kSocketEnvelopeBytes) {
    std::size_t off = ch.rpos;
    const auto magic = read_pod_at<std::uint32_t>(ch.rbuf, off);
    FT_CHECK_MSG(magic == kSocketEnvelopeMagic, "bad socket envelope magic");
    Envelope env;
    env.src = read_pod_at<std::int32_t>(ch.rbuf, off);
    env.dst = read_pod_at<std::int32_t>(ch.rbuf, off);
    env.sent_at_s = read_pod_at<double>(ch.rbuf, off);
    env.deliver_at_s = read_pod_at<double>(ch.rbuf, off);
    env.seq = read_pod_at<std::uint64_t>(ch.rbuf, off);
    const auto frame_len = read_pod_at<std::uint64_t>(ch.rbuf, off);
    if (ch.rbuf.size() - off < frame_len) break;
    env.frame.assign(ch.rbuf, off, frame_len);
    ch.rpos = off + frame_len;
    ch.pending.push_back(std::move(env));
  }
}

void SocketTransport::write_envelope_locked(Channel& ch,
                                            const Envelope& env) {
  const std::string bytes = serialize_envelope(env);
  const std::size_t tear =
      options_.write_chunk > 0 ? static_cast<std::size_t>(options_.write_chunk)
                               : bytes.size();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t want = std::min(tear, bytes.size() - off);
    const ssize_t n = ::write(ch.write_fd, bytes.data() + off, want);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full. Both ends live in this process, so relieve the
      // pressure ourselves: move the backlog into user space and retry.
      std::lock_guard<std::mutex> rlk(ch.read_m);
      pump_locked(ch);
      continue;
    }
    FT_CHECK_MSG(false, "socket write failed: " << std::strerror(errno));
  }
  socket_frames_total().inc();
  socket_bytes_total().add(static_cast<double>(bytes.size()));
}

bool SocketTransport::send(std::int32_t src, std::int32_t dst,
                           std::string frame, double sent_at_s) {
  auto stamped = stamp(src, dst, std::move(frame), sent_at_s);
  if (!stamped) return false;
  account_delivered(*stamped);
  Channel& ch = channel(dst);
  {
    std::lock_guard<std::mutex> lk(ch.write_m);
    write_envelope_locked(ch, stamped->env);
    if (stamped->dup) write_envelope_locked(ch, *stamped->dup);
  }
  return true;
}

std::vector<Envelope> SocketTransport::drain(std::int32_t dst) {
  Channel& ch = channel(dst);
  std::vector<Envelope> out;
  {
    std::lock_guard<std::mutex> lk(ch.read_m);
    pump_locked(ch);
    out.swap(ch.pending);
  }
  std::sort(out.begin(), out.end(), envelope_earlier);
  return out;
}

SocketListener SocketListener::bind_unix(const std::string& path) {
  SocketListener l;
  l.path_ = path;
  l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FT_CHECK_MSG(l.fd_ >= 0, "socket(AF_UNIX): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a crashed previous run
  FT_CHECK_MSG(::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" << path << "): " << std::strerror(errno));
  FT_CHECK_MSG(::listen(l.fd_, 64) == 0,
               "listen: " << std::strerror(errno));
  return l;
}

SocketListener SocketListener::bind_tcp(int port) {
  SocketListener l;
  l.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  FT_CHECK_MSG(l.fd_ >= 0, "socket(AF_INET): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  FT_CHECK_MSG(::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(tcp:" << port << "): " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  FT_CHECK_MSG(::getsockname(l.fd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0,
               "getsockname: " << std::strerror(errno));
  l.port_ = static_cast<int>(ntohs(addr.sin_port));
  FT_CHECK_MSG(::listen(l.fd_, 64) == 0,
               "listen: " << std::strerror(errno));
  return l;
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

int SocketListener::accept_fd() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    FT_CHECK_MSG(errno == EINTR, "accept: " << std::strerror(errno));
  }
}

namespace {

/// Connect with a short retry window: the multi-process demo forks children
/// that connect to a listener the parent bound pre-fork, so a refused
/// connect only happens under unusual scheduling — retry rather than die.
int connect_retrying(int fd, const sockaddr* addr, socklen_t len,
                     const char* what) {
  for (int attempt = 0;; ++attempt) {
    if (::connect(fd, addr, len) == 0) return fd;
    if (errno == EINTR) continue;
    const bool transient = errno == ECONNREFUSED || errno == ENOENT;
    FT_CHECK_MSG(transient && attempt < 100,
                 "connect(" << what << "): " << std::strerror(errno));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FT_CHECK_MSG(fd >= 0, "socket(AF_UNIX): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return connect_retrying(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr), path.c_str());
}

int connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FT_CHECK_MSG(fd >= 0, "socket(AF_INET): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  FT_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "bad address: " << host);
  return connect_retrying(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr), host.c_str());
}

void send_frame_fd(int fd, std::string_view frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    FT_CHECK_MSG(n < 0 && errno == EINTR,
                 "frame write failed: " << std::strerror(errno));
  }
  socket_frames_total().inc();
  socket_bytes_total().add(static_cast<double>(frame.size()));
}

std::string FdFrameReader::read_frame() {
  for (;;) {
    if (auto frame = assembler_.next_frame()) return std::move(*frame);
    std::vector<char> buf(read_chunk_);
    const ssize_t n = ::read(fd_, buf.data(), buf.size());
    if (n > 0) {
      assembler_.feed(buf.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    FT_CHECK_MSG(n != 0, "peer closed mid-frame ("
                             << assembler_.buffered() << " bytes buffered)");
    FT_CHECK_MSG(false, "frame read failed: " << std::strerror(errno));
  }
}

}  // namespace fedtrans
