#ifndef NOMAD_NET_TCP_TRANSPORT_H_
#define NOMAD_NET_TCP_TRANSPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace nomad {
namespace net {

/// Address of one rank in a TCP job: where its listener accepts peers.
struct TcpPeer {
  std::string host = "127.0.0.1";  ///< Hostname or dotted IPv4 address.
  int port = 0;                    ///< Listening port (0 = ephemeral, only
                                   ///< meaningful for the local rank).
};

/// Parses "host:port" into a TcpPeer; a bare "port" means 127.0.0.1.
/// Port 0 is accepted and means "listens ephemeral, never dialed" —
/// valid for any rank that only receives connections (in the mesh, every
/// rank above the dialer; see Establish()).
Result<TcpPeer> ParseTcpPeer(const std::string& spec);

/// Tuning knobs for a TCP endpoint.
struct TcpOptions {
  /// How long Establish() keeps retrying connects/accepts before giving up
  /// — ranks of one job start at different times.
  double connect_timeout_seconds = 20.0;
  /// Hard ceiling on one frame's payload; an inbound length prefix above
  /// this kills the connection instead of allocating unbounded memory.
  size_t max_frame_bytes = static_cast<size_t>(1) << 22;
  /// Latent dimensionality advertised in the handshake hello; peers with
  /// differing nonzero values refuse to connect. 0 = don't check.
  int hello_k = 0;
  /// True to advertise f32 factor payloads in the handshake hello.
  bool hello_f32 = false;
  /// Wire-codec spec byte (WireCodecSpec::ToByte(), net/codec.h) advertised
  /// in the handshake hello; peers with a different byte refuse to connect.
  /// The transport itself never codes frames — the byte only guarantees
  /// both ends stacked the same CodecTransport, like k and precision.
  uint8_t hello_codec = 0;
  /// Liveness detection (off by default). When enabled, the communicator
  /// thread emits kHeartbeat control beacons every interval, swallows
  /// inbound ones, and peer_status() reports a peer kDead after the
  /// timeout of silence — in addition to the always-on connection-loss
  /// detection.
  HeartbeatOptions heartbeat;
};

/// Transport between processes (or machines) over nonblocking TCP sockets.
///
/// Topology: full mesh, one socket per unordered rank pair, both directions
/// multiplexed over it. Rank i initiates the connections to all j < i and
/// accepts from all j > i; a handshake hello (net/wire_format.h) identifies
/// and validates each peer before any frame moves.
///
/// Framing: the hello crosses the wire as [u32 length][hello]; every frame
/// after it as [LEB128 length][payload bytes] (1 byte of length up to 127
/// payload bytes, 2 up to 16383). The hello magic ("NOM2") names this
/// framing, so a peer on another framing is refused at connect.
///
/// A communicator thread owns all sockets after Establish(). Send() appends
/// the framed payload to the peer's contiguous outbound buffer under a
/// short lock and writes the wake pipe only when no wakeup is pending, so
/// neither a syscall nor a wait behind one sits on the send path. The
/// communicator swaps each buffer out under the lock and writes it outside
/// it, keeping an unsent tail for the next pass. It takes and writes each
/// peer's buffer at most once per 50 us write window: after a pass that
/// put bytes on a socket it only reads until the window has passed, so a
/// queued frame waits at most one window and a burst leaves in one send()
/// per peer (stats().writes counts them). Close()'s flush ignores the
/// window. Each recv()'s complete frames enter the receive queue under
/// one lock; TryReceive() swaps the queue out and pops from its own copy.
/// Send() never blocks on the network, and an idle endpoint burns no CPU.
///
/// Lifecycle: Listen() binds the local listener (port 0 picks an ephemeral
/// port, see listen_port()); Establish() blocks until the full mesh is
/// connected; Close() flushes queued sends and disconnects. The destructor
/// calls Close().
class TcpTransport final : public Transport {
 public:
  /// Binds and listens on `port` for rank `rank` of `world`. No peer
  /// connections are made yet — call Establish() next. Returns IOError
  /// when the port cannot be bound.
  static Result<std::unique_ptr<TcpTransport>> Listen(
      int rank, int world, int port, TcpOptions options = TcpOptions());

  /// Closes the endpoint (flushing pending sends) if still open.
  ~TcpTransport() override;

  /// The locally bound listening port (the requested one, or the
  /// kernel-assigned port when Listen() was given 0).
  int listen_port() const;

  /// Connects the full mesh: `peers[r]` is where rank r listens
  /// (peers[rank()] is ignored — this endpoint is already bound). Blocks
  /// until every peer is connected and validated or the connect timeout
  /// expires; starts the communicator thread on success.
  Status Establish(const std::vector<TcpPeer>& peers);

  int rank() const override;   ///< This endpoint's rank.
  int world() const override;  ///< Ranks in the job.

  /// Queues one frame for `dest`; the communicator thread writes it out.
  /// An empty frame or one above max_frame_bytes is InvalidArgument.
  Status Send(int dest, std::vector<uint8_t> frame) override;

  /// Pops the oldest fully-reassembled inbound frame, if any.
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override;

  /// Traffic counters; bytes include the length prefixes.
  TransportStats stats() const override;

  /// kDead once the peer's connection is gone (socket error, EOF, its
  /// Close()) or — with heartbeats enabled — after the heartbeat timeout
  /// of silence. Always kAlive before Establish() and for this rank.
  PeerStatus peer_status(int peer) const override;

  /// Flushes pending sends onto the sockets (bounded by the connect
  /// timeout), stops the communicator thread, and closes all sockets.
  Status Close() override;

 private:
  struct Impl;
  explicit TcpTransport(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_TCP_TRANSPORT_H_
