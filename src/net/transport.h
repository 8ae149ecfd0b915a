#ifndef NOMAD_NET_TRANSPORT_H_
#define NOMAD_NET_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace nomad {
namespace net {

/// Byte/message counters of one transport endpoint. All counters are
/// cumulative since construction and include both token and control
/// frames; bytes count encoded payloads (the TCP backend's length prefixes
/// are included in the byte totals, since that is what crosses the wire).
struct TransportStats {
  int64_t messages_sent = 0;      ///< Frames accepted by Send().
  int64_t messages_received = 0;  ///< Frames handed out by TryReceive().
  int64_t bytes_sent = 0;         ///< Encoded bytes out (framing included).
  int64_t bytes_received = 0;     ///< Encoded bytes in (framing included).
};

/// Liveness verdict for one peer, as seen by this endpoint. Backends
/// without heartbeats (the default) report every peer kAlive; with
/// heartbeats enabled a peer turns kDead once nothing — beacon or data —
/// has been heard from it for the configured timeout, or (TCP) once its
/// connection is gone. The verdict is computed, not latched: callers that
/// need a permanent death declaration (the distributed solver) latch it
/// themselves.
enum class PeerStatus {
  kAlive = 0,  ///< Heard from recently (or liveness tracking is off).
  kDead = 1,   ///< Heartbeat timeout expired or the connection is lost.
};

/// Liveness-detection knobs shared by the transport backends. Disabled by
/// default: interval_seconds <= 0 means no beacons are sent and
/// peer_status() never reports kDead from silence alone.
struct HeartbeatOptions {
  /// How often this endpoint emits a kHeartbeat control frame to every
  /// peer. <= 0 disables liveness tracking entirely.
  double interval_seconds = 0.0;
  /// Silence longer than this declares a peer dead. Should be several
  /// intervals so one delayed beacon does not kill a healthy peer; <= 0
  /// picks 4 x interval.
  double timeout_seconds = 0.0;

  /// True when liveness tracking is on.
  bool enabled() const { return interval_seconds > 0.0; }
  /// The effective timeout (the explicit one, or 4 x interval).
  double effective_timeout() const {
    return timeout_seconds > 0.0 ? timeout_seconds : 4.0 * interval_seconds;
  }
};

/// Point-to-point message transport between `world` ranks — the seam that
/// lets the distributed NOMAD solver run unchanged over threads
/// (LoopbackTransport) or processes/machines (TcpTransport).
///
/// Contract, shared by every backend:
///  - Frames are opaque byte payloads (encoded by net/wire_format.h) and
///    are delivered reliably, without duplication, and in FIFO order *per
///    (sender, receiver) pair*. No ordering holds across senders.
///  - Send() is thread-safe and non-blocking: it queues the frame and
///    returns; delivery happens asynchronously (immediately for loopback,
///    via the communicator thread for TCP).
///  - TryReceive() is non-blocking and must only be called from one thread
///    at a time (the solver's driver thread); it returns frames from all
///    peers merged into one stream, tagged with the source rank.
class Transport {
 public:
  virtual ~Transport() = default;  ///< Backends are owned via unique_ptr.

  /// This endpoint's rank in [0, world()).
  virtual int rank() const = 0;

  /// Number of ranks in the job (>= 1).
  virtual int world() const = 0;

  /// Queues one encoded frame for delivery to `dest` (which must not be
  /// this rank). Returns InvalidArgument for a bad destination,
  /// FailedPrecondition after Close(), and Unavailable when the peer is
  /// unreachable (dead connection, fault-injected drop) — an Unavailable
  /// send may be retried; the frame it carried was not delivered.
  virtual Status Send(int dest, std::vector<uint8_t> frame) = 0;

  /// Pops the oldest pending inbound frame into `*frame` (and its sender
  /// into `*src`); returns false when nothing is pending.
  virtual bool TryReceive(std::vector<uint8_t>* frame, int* src) = 0;

  /// Snapshot of this endpoint's traffic counters (thread-safe).
  virtual TransportStats stats() const = 0;

  /// Liveness verdict for `peer` (thread-safe; this rank itself is always
  /// kAlive). The default implementation reports every peer kAlive —
  /// backends opt into real detection via HeartbeatOptions.
  virtual PeerStatus peer_status(int peer) const {
    (void)peer;
    return PeerStatus::kAlive;
  }

  /// Flushes queued sends (TCP: drains the per-peer send buffers onto the
  /// sockets) and tears the endpoint down; Send() fails afterwards while
  /// TryReceive() keeps serving frames that already arrived. Idempotent.
  virtual Status Close() = 0;

  /// Sends a copy of `frame` to every rank except this one; stops at the
  /// first error. A world-of-one broadcast is a no-op.
  Status Broadcast(const std::vector<uint8_t>& frame);
};

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_TRANSPORT_H_
