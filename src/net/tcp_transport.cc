#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "net/wire_format.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace nomad {
namespace net {

namespace {

// The hello keeps a fixed u32 length prefix, so a peer on any framing can
// read it and refuse on its magic. Every frame after it carries a LEB128
// prefix: 7 bits per byte, low group first, high bit set on all but the
// last byte. A receiver takes at most five prefix bytes (any u32 length);
// a longer prefix is malformed.
constexpr size_t kHelloPrefixBytes = 4;
constexpr size_t kMaxPrefixBytes = 5;
// A connection's input starts at this size and grows only when a frame
// outgrows it; recv() fills whatever part is free.
constexpr size_t kRecvChunk = 64 * 1024;
// A drained buffer keeps its capacity for reuse up to this size; a burst
// (the barrier h-row exchange, the final w-row gather) gives its memory
// back once it has passed.
constexpr size_t kKeepCapacity = 64 * 1024;

// Empties `buf`, keeping its capacity unless a burst grew it.
template <typename T>
void Recycle(std::vector<T>* buf) {
  if (buf->capacity() * sizeof(T) > kKeepCapacity) {
    std::vector<T>().swap(*buf);
  } else {
    buf->clear();
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Token frames are small and latency-sensitive; Nagle would batch them
  // behind ACKs. Best-effort: a failure only costs latency.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Blocking exact-size read with a deadline, used only during the
// handshake (the communicator thread never blocks).
Status ReadExact(int fd, uint8_t* buf, size_t n, double timeout_seconds) {
  Stopwatch watch;
  size_t got = 0;
  while (got < n) {
    const double left = timeout_seconds - watch.ElapsedSeconds();
    if (left <= 0) return Status::IOError("handshake read timed out");
    struct pollfd pfd = {fd, POLLIN, 0};
    const int pr = poll(&pfd, 1, std::max(1, static_cast<int>(left * 1e3)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (pr == 0) continue;
    const ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r == 0) return Status::IOError("peer closed during handshake");
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("recv");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteExact(int fd, const uint8_t* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

// Appends [LEB128 length][payload] to `out`; returns the bytes appended.
size_t AppendFrame(const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* out) {
  uint8_t prefix[(sizeof(size_t) * 8 + 6) / 7];
  size_t n = 0;
  size_t len = payload.size();
  while (len >= 0x80) {
    prefix[n++] = static_cast<uint8_t>(len | 0x80);
    len >>= 7;
  }
  prefix[n++] = static_cast<uint8_t>(len);
  out->insert(out->end(), prefix, prefix + n);
  out->insert(out->end(), payload.begin(), payload.end());
  return n + payload.size();
}

enum class Prefix { kIncomplete, kOk, kMalformed };

// Decodes the LEB128 prefix at the front of `avail` bytes.
Prefix DecodeLength(const uint8_t* data, size_t avail, uint64_t* len,
                    size_t* prefix_bytes) {
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxPrefixBytes; ++i) {
    if (i == avail) return Prefix::kIncomplete;
    value |= static_cast<uint64_t>(data[i] & 0x7F) << (7 * i);
    if ((data[i] & 0x80) == 0) {
      *len = value;
      *prefix_bytes = i + 1;
      return Prefix::kOk;
    }
  }
  return Prefix::kMalformed;
}

struct Conn {
  // Guarded by Impl::send_mu, which the communicator takes to mark the
  // peer dead; the communicator itself reads it without the lock.
  int fd = -1;
  // Framed bytes Send() appended and the communicator has not taken yet;
  // guarded by Impl::send_mu.
  std::vector<uint8_t> outbuf;
  // Set by the Send() that found no wakeup pending (that Send() writes the
  // wake pipe); cleared by the communicator right before it takes outbuf.
  std::atomic<bool> wake_pending{false};
  // Communicator only: the taken buffer and how much of it is on the wire.
  std::vector<uint8_t> sending;
  size_t sent = 0;
  // Communicator only: inbound bytes, [0, in_len) valid; a partial frame
  // waits here for the rest of its bytes.
  std::vector<uint8_t> inbuf;
  size_t in_len = 0;
};

// Reassembled inbound frames: payloads back to back in `bytes`, and one
// (source rank, end offset) entry per frame.
struct InboundFrames {
  std::vector<uint8_t> bytes;
  std::vector<std::pair<int, size_t>> ends;
};

}  // namespace

struct TcpTransport::Impl {
  int rank = -1;
  int world = 0;
  TcpOptions options;
  int listen_fd = -1;
  int listen_port = 0;
  std::vector<Conn> conns;  // indexed by peer rank; [rank] unused
  std::mutex send_mu;
  int wake_pipe[2] = {-1, -1};
  std::thread comm;
  std::atomic<bool> established{false};
  std::atomic<bool> closing{false};
  bool closed = false;  // guarded by close_mu; Close() is idempotent
  std::mutex close_mu;
  // The communicator appends each recv()'s frames to `arrived` under
  // recv_mu; TryReceive() swaps them out into `taken` and pops from there
  // without the lock (it has a single caller at a time).
  std::mutex recv_mu;
  InboundFrames arrived;
  InboundFrames taken;
  size_t taken_next = 0;    // next entry of taken.ends
  size_t taken_offset = 0;  // where that frame starts in taken.bytes
  std::atomic<int64_t> messages_sent{0};
  std::atomic<int64_t> messages_received{0};
  std::atomic<int64_t> bytes_sent{0};
  std::atomic<int64_t> bytes_received{0};
  // Liveness bookkeeping: last time any bytes arrived from each peer
  // (heartbeat or data), and the communicator thread's last beacon time.
  std::vector<std::atomic<int64_t>> last_heard_ns;
  int64_t last_beat_ns = 0;  // comm thread only

  HelloFrame MyHello() const {
    HelloFrame hello;
    hello.rank = rank;
    hello.world = world;
    hello.k = options.hello_k;
    hello.precision =
        options.hello_f32 ? WirePrecision::kF32 : WirePrecision::kF64;
    hello.codec = options.hello_codec;
    return hello;
  }

  Status ValidatePeerHello(const HelloFrame& hello, int expected_rank) const {
    if (hello.world != world) {
      return Status::FailedPrecondition(
          "peer world " + std::to_string(hello.world) + " != " +
          std::to_string(world));
    }
    if (expected_rank >= 0 && hello.rank != expected_rank) {
      return Status::FailedPrecondition(
          "peer claims rank " + std::to_string(hello.rank) + ", expected " +
          std::to_string(expected_rank));
    }
    if (options.hello_k != 0 && hello.k != 0 && hello.k != options.hello_k) {
      return Status::FailedPrecondition(
          "peer k " + std::to_string(hello.k) + " != " +
          std::to_string(options.hello_k));
    }
    const WirePrecision mine =
        options.hello_f32 ? WirePrecision::kF32 : WirePrecision::kF64;
    if (hello.precision != mine) {
      return Status::FailedPrecondition(
          "peer factor precision differs from ours");
    }
    if (hello.codec != options.hello_codec) {
      return Status::FailedPrecondition(
          "wire codec mismatch: peer advertises codec byte " +
          std::to_string(static_cast<int>(hello.codec)) + ", ours is " +
          std::to_string(static_cast<int>(options.hello_codec)));
    }
    return Status::OK();
  }

  // Sends our [u32 length][hello] and reads/validates the peer's.
  Status Handshake(int fd, int expected_rank, double timeout,
                   int* peer_rank) {
    std::vector<uint8_t> hello_payload;
    EncodeHello(MyHello(), &hello_payload);
    std::vector<uint8_t> framed(kHelloPrefixBytes);
    const uint32_t hello_len = static_cast<uint32_t>(hello_payload.size());
    std::memcpy(framed.data(), &hello_len, kHelloPrefixBytes);
    framed.insert(framed.end(), hello_payload.begin(), hello_payload.end());
    NOMAD_RETURN_IF_ERROR(WriteExact(fd, framed.data(), framed.size()));
    uint8_t len_buf[kHelloPrefixBytes];
    NOMAD_RETURN_IF_ERROR(ReadExact(fd, len_buf, kHelloPrefixBytes, timeout));
    uint32_t len = 0;
    std::memcpy(&len, len_buf, kHelloPrefixBytes);
    if (len == 0 || len > 64) {
      return Status::IOError("handshake frame has implausible length " +
                             std::to_string(len));
    }
    std::vector<uint8_t> payload(len);
    NOMAD_RETURN_IF_ERROR(ReadExact(fd, payload.data(), len, timeout));
    auto hello = DecodeHello(payload.data(), payload.size());
    if (!hello.ok()) return hello.status();
    NOMAD_RETURN_IF_ERROR(ValidatePeerHello(hello.value(), expected_rank));
    *peer_rank = hello.value().rank;
    return Status::OK();
  }

  // Moves the complete frames at the front of a connection's input into
  // `arrived`, under one lock. Returns false on a malformed, empty or
  // oversized length prefix: the connection is poisoned.
  bool ExtractFrames(int src, Conn* conn) {
    const uint8_t* data = conn->inbuf.data();
    size_t at = 0;
    int64_t frames = 0;
    std::string poisoned;
    std::unique_lock<std::mutex> lock(recv_mu, std::defer_lock);
    while (at < conn->in_len) {
      uint64_t len = 0;
      size_t prefix = 0;
      const Prefix parsed =
          DecodeLength(data + at, conn->in_len - at, &len, &prefix);
      if (parsed == Prefix::kIncomplete) break;
      if (parsed == Prefix::kMalformed) {
        poisoned = "a malformed length prefix";
        break;
      }
      if (len == 0 || len > options.max_frame_bytes) {
        poisoned = "a " + std::to_string(len) + "-byte frame length";
        break;
      }
      if (conn->in_len - at - prefix < len) break;
      const uint8_t* payload = data + at + prefix;
      // Heartbeat beacons are transport-internal: their arrival already
      // refreshed last_heard_ns, so they are counted but never surfaced.
      const bool beacon =
          len >= 2 && payload[0] == static_cast<uint8_t>(MsgType::kControl) &&
          payload[1] == static_cast<uint8_t>(ControlKind::kHeartbeat);
      if (!beacon) {
        if (!lock.owns_lock()) lock.lock();
        arrived.bytes.insert(arrived.bytes.end(), payload, payload + len);
        arrived.ends.emplace_back(src, arrived.bytes.size());
      }
      at += prefix + static_cast<size_t>(len);
      ++frames;
    }
    if (lock.owns_lock()) lock.unlock();
    messages_received.fetch_add(frames, std::memory_order_relaxed);
    bytes_received.fetch_add(static_cast<int64_t>(at),
                             std::memory_order_relaxed);
    if (!poisoned.empty()) {
      NOMAD_LOG(kWarning) << "tcp transport: dropping rank-" << src
                          << " connection after " << poisoned;
      return false;
    }
    if (at > 0) {
      std::memmove(conn->inbuf.data(), data + at, conn->in_len - at);
      conn->in_len -= at;
    }
    return true;
  }

  // Reads everything the peer sent until the socket would block. Returns
  // false when the connection is done (EOF, error, or a poisoned stream).
  bool ReadFrom(int peer, Conn* conn) {
    for (;;) {
      if (conn->in_len == conn->inbuf.size()) {
        conn->inbuf.resize(std::max(kRecvChunk, 2 * conn->inbuf.size()));
      }
      const size_t room = conn->inbuf.size() - conn->in_len;
      const ssize_t r =
          recv(conn->fd, conn->inbuf.data() + conn->in_len, room, 0);
      if (r > 0) {
        last_heard_ns[static_cast<size_t>(peer)].store(
            NowNs(), std::memory_order_relaxed);
        conn->in_len += static_cast<size_t>(r);
        if (!ExtractFrames(peer, conn)) return false;
        // A short read drained the socket; poll reports anything newer.
        if (static_cast<size_t>(r) < room) return true;
        continue;
      }
      // Orderly peer close: normal during shutdown, a dead peer
      // otherwise. Either way this direction is done.
      if (r == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno != EINTR) return false;
    }
  }

  // Writes one peer's taken bytes, taking what Send() queued since each
  // time they are all on the wire, until the queue is empty or the socket
  // would block (the unsent tail then waits for POLLOUT). Returns false
  // when the connection failed.
  bool WriteTo(Conn* conn) {
    for (;;) {
      while (conn->sent < conn->sending.size()) {
        const ssize_t r =
            send(conn->fd, conn->sending.data() + conn->sent,
                 conn->sending.size() - conn->sent, MSG_NOSIGNAL);
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
          if (errno == EINTR) continue;
          return false;
        }
        conn->sent += static_cast<size_t>(r);
      }
      Recycle(&conn->sending);
      conn->sent = 0;
      // Cleared before the take: a Send() appending after it finds no
      // wakeup pending and writes the pipe, so no frame is left behind.
      conn->wake_pending.store(false);
      {
        std::lock_guard<std::mutex> lock(send_mu);
        conn->sending.swap(conn->outbuf);
      }
      if (conn->sending.empty()) return true;
    }
  }

  void MarkDead(int peer) {
    Conn& conn = conns[static_cast<size_t>(peer)];
    {
      std::lock_guard<std::mutex> lock(send_mu);
      if (conn.fd >= 0) {
        close(conn.fd);
        conn.fd = -1;
      }
      conn.outbuf.clear();
    }
    conn.sending.clear();
    conn.sent = 0;
  }

  /// Appends one heartbeat beacon to every live peer's output once the
  /// interval elapsed. Runs on the communicator thread, so its poll
  /// timeout bounds the beacon jitter.
  void MaybeBeat() {
    if (!options.heartbeat.enabled()) return;
    const int64_t now = NowNs();
    const int64_t interval_ns =
        static_cast<int64_t>(options.heartbeat.interval_seconds * 1e9);
    if (now - last_beat_ns < interval_ns) return;
    last_beat_ns = now;
    ControlFrame beat;
    beat.kind = ControlKind::kHeartbeat;
    beat.rank = rank;
    std::vector<uint8_t> payload;
    EncodeControl(beat, &payload);
    std::lock_guard<std::mutex> lock(send_mu);
    for (int r = 0; r < world; ++r) {
      Conn& conn = conns[static_cast<size_t>(r)];
      if (r == rank || conn.fd < 0) continue;
      const size_t wire_bytes = AppendFrame(payload, &conn.outbuf);
      messages_sent.fetch_add(1, std::memory_order_relaxed);
      bytes_sent.fetch_add(static_cast<int64_t>(wire_bytes),
                           std::memory_order_relaxed);
    }
  }

  void CommLoop() {
    std::vector<struct pollfd> pfds;
    std::vector<int> pfd_rank;
    Stopwatch closing_watch;
    bool closing_seen = false;
    // With heartbeats on, wake often enough to beat on time.
    const int poll_ms =
        options.heartbeat.enabled()
            ? std::max(1, std::min(200, static_cast<int>(
                                            options.heartbeat
                                                .interval_seconds *
                                            1e3 / 4)))
            : 200;
    for (;;) {
      // Read before the buffers are taken: whatever Send() queued before
      // Close() set the flag is then part of this pass.
      const bool flushing = closing.load(std::memory_order_acquire);
      MaybeBeat();
      pfds.clear();
      pfd_rank.clear();
      pfds.push_back({wake_pipe[0], POLLIN, 0});
      pfd_rank.push_back(-1);
      bool any_outbound = false;
      for (int r = 0; r < world; ++r) {
        Conn& conn = conns[static_cast<size_t>(r)];
        if (conn.fd < 0) continue;
        if (!WriteTo(&conn)) {
          MarkDead(r);
          continue;
        }
        short events = POLLIN;
        if (conn.sent < conn.sending.size()) {
          events |= POLLOUT;
          any_outbound = true;
        }
        pfds.push_back({conn.fd, events, 0});
        pfd_rank.push_back(r);
      }
      if (flushing) {
        if (!closing_seen) {
          closing_seen = true;
          closing_watch.Restart();
        }
        // Exit once every queued frame is on the wire (or the flush
        // deadline passes — a vanished peer must not wedge Close()).
        if (!any_outbound ||
            closing_watch.ElapsedSeconds() > options.connect_timeout_seconds) {
          return;
        }
      }
      const int pr =
          poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_ms);
      if (pr < 0 && errno != EINTR) return;
      for (size_t i = 0; i < pfds.size(); ++i) {
        const int peer = pfd_rank[i];
        if (peer < 0) {
          if (pfds[i].revents & POLLIN) {
            uint8_t drain[256];
            while (read(wake_pipe[0], drain, sizeof(drain)) > 0) {
            }
          }
          continue;
        }
        // POLLOUT needs nothing here: the next pass writes the tail.
        Conn& conn = conns[static_cast<size_t>(peer)];
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) &&
            !ReadFrom(peer, &conn)) {
          MarkDead(peer);
        }
      }
    }
  }
};

Result<TcpPeer> ParseTcpPeer(const std::string& spec) {
  TcpPeer peer;
  const size_t colon = spec.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    port_str = spec;
  } else {
    peer.host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (peer.host.empty() || port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("bad peer spec '" + spec +
                                   "' (expected host:port)");
  }
  peer.port = std::atoi(port_str.c_str());
  // Port 0 is legal: "this rank listens ephemeral and is never dialed"
  // (in the mesh only lower ranks are dialed, see Establish()).
  if (peer.port < 0 || peer.port > 65535) {
    return Status::InvalidArgument("bad peer port in '" + spec + "'");
  }
  return peer;
}

TcpTransport::TcpTransport(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

TcpTransport::~TcpTransport() { Close(); }

Result<std::unique_ptr<TcpTransport>> TcpTransport::Listen(
    int rank, int world, int port, TcpOptions options) {
  if (world < 1 || rank < 0 || rank >= world) {
    return Status::InvalidArgument("rank " + std::to_string(rank) +
                                   " outside world " + std::to_string(world));
  }
  auto impl = std::make_unique<Impl>();
  impl->rank = rank;
  impl->world = world;
  impl->options = options;
  impl->conns = std::vector<Conn>(static_cast<size_t>(world));
  impl->last_heard_ns =
      std::vector<std::atomic<int64_t>>(static_cast<size_t>(world));

  impl->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(impl->listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    const Status s = Errno("bind port " + std::to_string(port));
    close(impl->listen_fd);
    return s;
  }
  if (listen(impl->listen_fd, world + 4) < 0) {
    const Status s = Errno("listen");
    close(impl->listen_fd);
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(impl->listen_fd,
                  reinterpret_cast<struct sockaddr*>(&addr), &addr_len) < 0) {
    const Status s = Errno("getsockname");
    close(impl->listen_fd);
    return s;
  }
  impl->listen_port = ntohs(addr.sin_port);
  const Status nonblocking = SetNonBlocking(impl->listen_fd);
  if (!nonblocking.ok()) {
    close(impl->listen_fd);
    return nonblocking;
  }
  return std::unique_ptr<TcpTransport>(new TcpTransport(std::move(impl)));
}

int TcpTransport::listen_port() const { return impl_->listen_port; }
int TcpTransport::rank() const { return impl_->rank; }
int TcpTransport::world() const { return impl_->world; }

Status TcpTransport::Establish(const std::vector<TcpPeer>& peers) {
  Impl& im = *impl_;
  if (static_cast<int>(peers.size()) != im.world) {
    return Status::InvalidArgument(
        "peer list has " + std::to_string(peers.size()) + " entries for world " +
        std::to_string(im.world));
  }
  if (im.established.load()) {
    return Status::FailedPrecondition("transport already established");
  }
  // Only the ranks below us are ever dialed; their ports must be real.
  // Higher ranks dial in, so their peer entries may carry port 0
  // ("ephemeral, never dialed") — that is how a mesh avoids fixed ports.
  for (int r = 0; r < im.rank; ++r) {
    if (peers[static_cast<size_t>(r)].port == 0) {
      return Status::InvalidArgument(
          "peer rank " + std::to_string(r) + " has port 0 but rank " +
          std::to_string(im.rank) + " must dial it");
    }
  }
  const double timeout = im.options.connect_timeout_seconds;
  Stopwatch watch;
  int pending_accepts = im.world - 1 - im.rank;
  std::vector<bool> connected(static_cast<size_t>(im.world), false);
  connected[static_cast<size_t>(im.rank)] = true;
  int pending_connects = im.rank;

  while (pending_accepts > 0 || pending_connects > 0) {
    if (watch.ElapsedSeconds() > timeout) {
      return Status::IOError(
          "mesh not established within " + std::to_string(timeout) +
          "s (still waiting for " + std::to_string(pending_accepts) +
          " accepts, " + std::to_string(pending_connects) + " connects)");
    }
    // Accept side: ranks above us dial in and identify via hello.
    for (;;) {
      const int fd = accept(im.listen_fd, nullptr, nullptr);
      if (fd < 0) break;
      int peer_rank = -1;
      const Status s = im.Handshake(fd, /*expected_rank=*/-1,
                                    timeout - watch.ElapsedSeconds(),
                                    &peer_rank);
      if (!s.ok() || peer_rank <= im.rank ||
          connected[static_cast<size_t>(peer_rank)]) {
        NOMAD_LOG(kWarning) << "tcp transport: rejecting inbound peer: "
                            << (s.ok() ? "bad or duplicate rank" : s.ToString());
        close(fd);
        continue;
      }
      im.conns[static_cast<size_t>(peer_rank)].fd = fd;
      connected[static_cast<size_t>(peer_rank)] = true;
      --pending_accepts;
    }
    // Connect side: we dial every rank below us, retrying while they boot.
    for (int r = 0; r < im.rank; ++r) {
      if (connected[static_cast<size_t>(r)]) continue;
      struct addrinfo hints = {};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      struct addrinfo* res = nullptr;
      const std::string port_str = std::to_string(peers[static_cast<size_t>(r)].port);
      if (getaddrinfo(peers[static_cast<size_t>(r)].host.c_str(),
                      port_str.c_str(), &hints, &res) != 0 ||
          res == nullptr) {
        continue;  // DNS hiccup: retry next round
      }
      const int fd = socket(res->ai_family, res->ai_socktype, 0);
      if (fd < 0) {
        freeaddrinfo(res);
        continue;
      }
      const int cr = connect(fd, res->ai_addr, res->ai_addrlen);
      freeaddrinfo(res);
      if (cr < 0) {
        close(fd);  // peer not listening yet; retry next round
        continue;
      }
      int peer_rank = -1;
      const Status s = im.Handshake(fd, /*expected_rank=*/r,
                                    timeout - watch.ElapsedSeconds(),
                                    &peer_rank);
      if (!s.ok()) {
        close(fd);
        return s;  // a live but incompatible peer is a config error
      }
      im.conns[static_cast<size_t>(r)].fd = fd;
      connected[static_cast<size_t>(r)] = true;
      --pending_connects;
    }
    if (pending_accepts > 0 || pending_connects > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  for (int r = 0; r < im.world; ++r) {
    const int fd = im.conns[static_cast<size_t>(r)].fd;
    if (fd < 0) continue;
    NOMAD_RETURN_IF_ERROR(SetNonBlocking(fd));
    SetNoDelay(fd);
  }
  if (pipe(im.wake_pipe) < 0) return Errno("pipe");
  NOMAD_RETURN_IF_ERROR(SetNonBlocking(im.wake_pipe[0]));
  NOMAD_RETURN_IF_ERROR(SetNonBlocking(im.wake_pipe[1]));
  const int64_t now = NowNs();
  for (auto& t : im.last_heard_ns) t.store(now, std::memory_order_relaxed);
  im.established.store(true, std::memory_order_release);
  im.comm = std::thread([&im] { im.CommLoop(); });
  return Status::OK();
}

Status TcpTransport::Send(int dest, std::vector<uint8_t> frame) {
  Impl& im = *impl_;
  if (dest < 0 || dest >= im.world || dest == im.rank) {
    return Status::InvalidArgument("tcp: bad destination rank " +
                                   std::to_string(dest));
  }
  // Reject here instead of letting the receiver poison the connection: its
  // ExtractFrames() drops the whole link on a zero or oversized length
  // prefix. Senders that can legitimately exceed the limit (coalesced
  // codec flushes) split before calling Send().
  if (frame.empty()) {
    return Status::InvalidArgument("tcp: empty frame");
  }
  if (frame.size() > im.options.max_frame_bytes) {
    return Status::InvalidArgument(
        "tcp: frame of " + std::to_string(frame.size()) +
        " bytes exceeds max_frame_bytes " +
        std::to_string(im.options.max_frame_bytes));
  }
  if (!im.established.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("tcp: transport not established");
  }
  if (im.closing.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("tcp: transport closed");
  }
  Conn& conn = im.conns[static_cast<size_t>(dest)];
  size_t wire_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(im.send_mu);
    if (conn.fd < 0) {
      // The connection died (EPIPE/ECONNRESET/EOF, observed by the
      // communicator thread) — a liveness condition, not a usage error.
      return Status::Unavailable("tcp: rank " + std::to_string(dest) +
                                 " is unreachable (connection lost)");
    }
    wire_bytes = AppendFrame(frame, &conn.outbuf);
  }
  im.messages_sent.fetch_add(1, std::memory_order_relaxed);
  im.bytes_sent.fetch_add(static_cast<int64_t>(wire_bytes),
                          std::memory_order_relaxed);
  if (!conn.wake_pending.exchange(true)) {
    const uint8_t wake = 1;
    [[maybe_unused]] const ssize_t r = write(im.wake_pipe[1], &wake, 1);
  }
  return Status::OK();
}

bool TcpTransport::TryReceive(std::vector<uint8_t>* frame, int* src) {
  Impl& im = *impl_;
  InboundFrames& taken = im.taken;
  if (im.taken_next == taken.ends.size()) {
    Recycle(&taken.bytes);
    Recycle(&taken.ends);
    im.taken_next = 0;
    im.taken_offset = 0;
    std::lock_guard<std::mutex> lock(im.recv_mu);
    taken.bytes.swap(im.arrived.bytes);
    taken.ends.swap(im.arrived.ends);
  }
  if (im.taken_next == taken.ends.size()) return false;
  const auto [from, end] = taken.ends[im.taken_next++];
  frame->assign(taken.bytes.begin() + static_cast<ptrdiff_t>(im.taken_offset),
                taken.bytes.begin() + static_cast<ptrdiff_t>(end));
  im.taken_offset = end;
  *src = from;
  return true;
}

PeerStatus TcpTransport::peer_status(int peer) const {
  Impl& im = *impl_;
  if (peer < 0 || peer >= im.world || peer == im.rank ||
      !im.established.load(std::memory_order_acquire)) {
    return PeerStatus::kAlive;
  }
  {
    std::lock_guard<std::mutex> lock(im.send_mu);
    if (im.conns[static_cast<size_t>(peer)].fd < 0) return PeerStatus::kDead;
  }
  if (im.options.heartbeat.enabled()) {
    const double silent_seconds =
        static_cast<double>(
            NowNs() - im.last_heard_ns[static_cast<size_t>(peer)].load(
                          std::memory_order_relaxed)) *
        1e-9;
    if (silent_seconds > im.options.heartbeat.effective_timeout()) {
      return PeerStatus::kDead;
    }
  }
  return PeerStatus::kAlive;
}

TransportStats TcpTransport::stats() const {
  const Impl& im = *impl_;
  TransportStats s;
  s.messages_sent = im.messages_sent.load(std::memory_order_relaxed);
  s.messages_received = im.messages_received.load(std::memory_order_relaxed);
  s.bytes_sent = im.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = im.bytes_received.load(std::memory_order_relaxed);
  return s;
}

Status TcpTransport::Close() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.close_mu);
    if (im.closed) return Status::OK();
    im.closed = true;
  }
  im.closing.store(true, std::memory_order_release);
  if (im.comm.joinable()) {
    const uint8_t wake = 1;
    [[maybe_unused]] const ssize_t r = write(im.wake_pipe[1], &wake, 1);
    im.comm.join();
  }
  {
    // send_mu also covers concurrent peer_status() readers of conn.fd.
    std::lock_guard<std::mutex> lock(im.send_mu);
    for (Conn& conn : im.conns) {
      if (conn.fd >= 0) {
        shutdown(conn.fd, SHUT_RDWR);
        close(conn.fd);
        conn.fd = -1;
      }
    }
  }
  if (im.listen_fd >= 0) {
    close(im.listen_fd);
    im.listen_fd = -1;
  }
  for (int& fd : im.wake_pipe) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
  return Status::OK();
}

}  // namespace net
}  // namespace nomad
