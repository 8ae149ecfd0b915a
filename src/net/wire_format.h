#ifndef NOMAD_NET_WIRE_FORMAT_H_
#define NOMAD_NET_WIRE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

namespace nomad {
/// The multi-process distributed layer: wire formats, transports
/// (loopback + TCP), and the distributed NOMAD solver built on them.
namespace net {

// The codecs memcpy fixed-width integers and IEEE floats straight into the
// payload, so the wire byte order is the host byte order. Every platform
// this library targets is little-endian; a big-endian port would add byte
// swaps here (and only here).
static_assert(std::endian::native == std::endian::little,
              "net/ wire format assumes a little-endian host");

/// First byte of every payload: what kind of frame follows. Values are part
/// of the wire contract and must never be reused.
enum class MsgType : uint8_t {
  kHello = 1,    ///< Connection handshake (HelloFrame).
  kToken = 2,    ///< Item-token hand-off: ownership of column j plus its
                 ///< current h_j row moves to the receiving rank.
  kHRow = 3,     ///< h-row state broadcast during a trace barrier — same
                 ///< codec as kToken but no ownership transfer.
  kWRow = 4,     ///< w-row gather to rank 0 at the end of training — same
                 ///< codec as kToken, `id` is the user row index.
  kControl = 5,  ///< Protocol control message (ControlFrame).
  kBatch = 6,    ///< Codec-coalesced bundle of frames (net/codec.h): one
                 ///< transport payload carrying [u32 len][frame] sub-frames.
                 ///< Only emitted/consumed by a negotiated CodecTransport;
                 ///< a solver receiving one raw reports a codec mismatch.
};

/// Reads the MsgType byte of a payload without decoding the rest; rejects
/// empty payloads and unknown type bytes with InvalidArgument.
Result<MsgType> PeekType(const uint8_t* data, size_t size);

/// Storage precision tag carried by factor-row frames. Matches the order of
/// nomad::Precision (f64 = 0, f32 = 1) but is its own type so the wire
/// contract does not move if the solver enum grows.
enum class WirePrecision : uint8_t {
  kF64 = 0,   ///< 8-byte IEEE double payload entries.
  kF32 = 1,   ///< 4-byte IEEE float payload entries.
  kBf16 = 2,  ///< 2-byte bfloat16 entries (top half of an IEEE float).
              ///< Wire-only: produced/consumed by a negotiated
              ///< CodecTransport (net/codec.h), never by the solver.
  kF16 = 3,   ///< 2-byte IEEE 754 half entries. Wire-only, like kBf16.
};

/// Payload bytes per factor entry for a WirePrecision tag.
constexpr size_t WireEntryBytes(WirePrecision precision) {
  return precision == WirePrecision::kF64   ? 8
         : precision == WirePrecision::kF32 ? 4
                                            : 2;
}

/// The WirePrecision tag for a Real storage type (float or double).
template <typename Real>
constexpr WirePrecision WirePrecisionOf() {
  static_assert(sizeof(Real) == 4 || sizeof(Real) == 8,
                "factor rows are float or double");
  return sizeof(Real) == 4 ? WirePrecision::kF32 : WirePrecision::kF64;
}

/// Hard ceiling on the latent dimensionality a factor-row frame may claim.
/// Real models run k in the tens-to-hundreds; the cap bounds the allocation
/// a malformed (or hostile) frame can demand before the length check.
constexpr int kMaxWireK = 4096;

/// Fixed header size of a factor-row frame; the Real payload follows. The
/// header is padded to 16 bytes so the payload entries stay naturally
/// aligned for double when the frame sits at the start of an allocated
/// buffer — which lets DecodeFactorRow hand out a borrowed pointer instead
/// of copying.
constexpr size_t kFactorRowHeaderBytes = 16;

/// Flag bits carried in a factor-row frame's flags word (formerly the
/// all-zero reserved word, so old frames decode unchanged).
enum FactorRowFlags : uint32_t {
  /// kToken only: the frame is an authoritative re-grant of a token lost
  /// with a dead rank. The receiver must accept it and reset its version
  /// counter to the frame's even if a (stale) higher local version exists.
  kFactorRowFlagRegrant = 1u << 0,
  /// kToken/kHRow: the payload is delta-coded against the receiver's cached
  /// copy of this row (net/codec.h). Such frames are produced and unwrapped
  /// entirely inside a negotiated CodecTransport pair; DecodeFactorRow
  /// rejects them so a codec mismatch surfaces as a clean error.
  kFactorRowFlagDelta = 1u << 1,
};

/// Every flag bit a decoder understands; frames with unknown bits set are
/// rejected, keeping the word extensible without silent misinterpretation.
constexpr uint32_t kFactorRowKnownFlags =
    kFactorRowFlagRegrant | kFactorRowFlagDelta;

/// Decoded view of a factor-row frame (kToken / kHRow / kWRow). `values`
/// points into the caller's payload buffer and is valid only while that
/// buffer lives.
template <typename Real>
struct FactorRowView {
  MsgType type = MsgType::kToken;  ///< Which of the three row kinds.
  int32_t id = 0;        ///< Item column j (kToken/kHRow) or user row i
                         ///< (kWRow).
  uint32_t version = 0;  ///< Monotonic per-column hop counter; receivers
                         ///< check it only ever advances (kToken/kHRow).
  uint32_t flags = 0;    ///< FactorRowFlags bits (0 for normal traffic).
  int k = 0;             ///< Latent dimensionality of `values`.
  const Real* values = nullptr;  ///< The k factor entries, borrowed from
                                 ///< the payload buffer. Naturally aligned
                                 ///< whenever the frame starts at an
                                 ///< allocated buffer (16-byte header).
};

/// Encodes a factor-row frame into `out` (cleared first). Layout:
/// [type u8][precision u8][k u16][id i32][version u32][flags u32]
/// [k × Real]. `type` must be kToken, kHRow, or kWRow; k in [1, kMaxWireK];
/// `flags` must only use kFactorRowKnownFlags bits.
template <typename Real>
void EncodeFactorRow(MsgType type, int32_t id, uint32_t version,
                     const Real* values, int k, std::vector<uint8_t>* out,
                     uint32_t flags = 0);

/// Decodes a factor-row frame, validating shape before trusting any field:
/// truncated or oversized payloads, k outside [1, kMaxWireK], negative ids,
/// unknown precision bytes, and frames whose precision does not match the
/// requested Real all return InvalidArgument (a cross-precision run is a
/// deployment error the protocol surfaces cleanly rather than reinterprets).
template <typename Real>
Result<FactorRowView<Real>> DecodeFactorRow(const uint8_t* data, size_t size);

/// Connection handshake, exchanged once per TCP connection (and validated
/// by the distributed solver on every backend): both ends must agree on
/// world size, latent dimensionality, and storage precision before any
/// token moves.
struct HelloFrame {
  int32_t rank = -1;  ///< Sender's rank in [0, world).
  int32_t world = 0;  ///< Sender's world size.
  int k = 0;          ///< Latent dimensionality (0 = not yet known).
  WirePrecision precision = WirePrecision::kF64;  ///< Factor storage.
  uint8_t codec = 0;  ///< Negotiated wire-codec stages as a
                      ///< WireCodecSpec byte (net/codec.h); 0 = none. Both
                      ///< ends must agree, exactly like k and precision.
};

/// Encodes a HelloFrame into `out` (cleared first). Layout:
/// [type u8][magic u32][rank i32][world i32][k u16][precision u8][codec u8].
/// The magic, "NOM2", also names the TCP framing that follows the hello
/// (LEB128 length prefixes), so peers on another framing refuse each other.
void EncodeHello(const HelloFrame& hello, std::vector<uint8_t>* out);

/// Decodes and validates a HelloFrame (magic, exact length, known
/// precision, rank within world).
Result<HelloFrame> DecodeHello(const uint8_t* data, size_t size);

/// Control-message kinds of the distributed NOMAD protocol (see
/// docs/ARCHITECTURE.md, "Distributed layer", for the message flow).
/// Values are part of the wire contract.
enum class ControlKind : uint8_t {
  kBarrierRequest = 1,  ///< rank → 0: my local epoch threshold passed.
  kBarrierEnter = 2,    ///< 0 → all: quiesce workers, start the barrier.
  kTraceSync = 3,       ///< rank → 0: current held-token count (resent as
                        ///< in-flight tokens arrive, until conserved).
  kEvalStart = 4,       ///< 0 → all: every token accounted for; exchange
                        ///< h rows and evaluate.
  kHRowDone = 5,        ///< rank → all: sent all my held h rows (`count`).
  kPartialEval = 6,     ///< rank → 0: partial test-error sum + traffic.
  kResume = 7,          ///< 0 → all: trace point done; resume or stop.
  kWDone = 8,           ///< rank → 0: sent all my w rows (`count`).
  kShutdown = 9,        ///< 0 → all: final state gathered; disconnect.
  kHeartbeat = 10,      ///< transport-level liveness beacon; swallowed by
                        ///< the receiving endpoint, never surfaced to the
                        ///< solver.
  kDeathNotice = 11,    ///< 0 → all: rank `count` was declared dead; latch
                        ///< it, quiesce, and enter the recovery barrier.
  kTokenRegrant = 12,   ///< 0 → all: `count` lost tokens of dead rank
                        ///< `held` were re-materialized and redistributed.
  kLeaseSync = 13,      ///< survivor → all survivors: recovery channel
                        ///< flush marker carrying the sender's held-token
                        ///< count; per-pair FIFO makes everything sent
                        ///< before it visible once it arrives.
};

/// One decoded control message. The integer/real fields are a superset:
/// each kind documents which it uses (unused fields are encoded as zero).
struct ControlFrame {
  ControlKind kind = ControlKind::kBarrierRequest;  ///< Message kind.
  uint8_t flag = 0;      ///< kResume: 1 = stop training after this barrier.
  int32_t rank = -1;     ///< Sender's rank.
  int32_t epoch = 0;     ///< Barrier epoch the message belongs to.
  int64_t held = 0;      ///< kTraceSync: tokens currently held by sender.
  int64_t updates = 0;   ///< kTraceSync/kPartialEval: sender's local SGD
                         ///< update count; kResume: global sum.
  int64_t count = 0;     ///< kHRowDone/kWDone: rows the sender emitted;
                         ///< kPartialEval: test ratings in the partial sum.
  int64_t tokens_sent = 0;      ///< kPartialEval: sender's remote tokens out.
  int64_t tokens_received = 0;  ///< kPartialEval: remote tokens in.
  int64_t bytes_sent = 0;       ///< kPartialEval: transport bytes out.
  int64_t bytes_received = 0;   ///< kPartialEval: transport bytes in.
  double sq_err = 0.0;   ///< kPartialEval: partial squared-error sum;
                         ///< kResume: the aggregated global test RMSE.
  double seconds = 0.0;  ///< kTraceSync/kPartialEval: sender's training
                         ///< seconds; kResume: rank 0's training clock.
};

/// Encodes a ControlFrame into `out` (cleared first). Fixed 83-byte layout:
/// [type u8][kind u8][flag u8][rank i32][epoch i32][7 × i64][2 × f64].
void EncodeControl(const ControlFrame& frame, std::vector<uint8_t>* out);

/// Decodes a ControlFrame; wrong length or unknown kind is InvalidArgument.
Result<ControlFrame> DecodeControl(const uint8_t* data, size_t size);

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_WIRE_FORMAT_H_
