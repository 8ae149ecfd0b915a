#ifndef NOMAD_NET_CODEC_H_
#define NOMAD_NET_CODEC_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "net/wire_format.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace nomad {
namespace net {

/// Wire codecs: composable payload-compression stages layered between the
/// distributed solver and its Transport (the shape of ytsaurus's
/// yt/ytlib/codecs layer, specialized to NOMAD's three frame families).
///
/// Three stages, each independently negotiable:
///  - **bf16 / f16 quantization** of factor-row payloads (kToken/kHRow):
///    the double-accumulating SGD kernels tolerate low-precision *storage*,
///    so the k wire entries shrink 4x (f64) or 2x (f32). kWRow gather
///    frames always stay full precision — the returned model is exact.
///  - **delta encoding** of rows against the receiver's last-seen copy per
///    (peer, column) channel: unchanged entries (common once quantization
///    floors small SGD steps, and across consecutive barrier broadcasts)
///    cost one bitmask bit instead of a full entry. Falls back to full
///    rows whenever it would not strictly shrink the frame, after
///    lease-flush/recovery markers, and for flagged (regrant) tokens.
///  - **batch coalescing**: token frames buffer per peer and ship as one
///    kBatch frame per flush — one transport length prefix instead of one
///    per token. Oversized flushes split into multiple frames, each within
///    the transport's max_frame_bytes.
///
/// Everything here is transparent to the solver: a CodecTransport pair
/// encodes on one end and restores solver-native frames on the other.

/// Converts an IEEE float to bfloat16 (round to nearest even; NaN stays
/// NaN, infinities and signed zeros map exactly).
uint16_t Bf16FromF32(float value);

/// Expands a bfloat16 to the IEEE float it denotes (exact).
float F32FromBf16(uint16_t bits);

/// Converts an IEEE float to IEEE 754 binary16 (round to nearest even,
/// with half subnormals; overflow goes to infinity, NaN stays NaN).
uint16_t F16FromF32(float value);

/// Expands a binary16 to the IEEE float it denotes (exact).
float F32FromF16(uint16_t bits);

/// Which codec stages a job runs. Both ends of every channel must agree —
/// the spec serializes into the Hello handshake's codec byte and the TCP
/// transport refuses mismatched peers, exactly like k and precision.
struct WireCodecSpec {
  bool bf16 = false;   ///< Quantize kToken/kHRow payload entries to bf16.
  bool f16 = false;    ///< Quantize to IEEE half instead (excludes bf16).
  bool delta = false;  ///< Delta-encode rows against the receiver's cache.
  bool batch = false;  ///< Coalesce token frames into kBatch bundles.

  /// True when any stage is on (a disabled spec means "no codec layer").
  bool enabled() const { return bf16 || f16 || delta || batch; }

  /// True when a quantization stage is on.
  bool quantizes() const { return bf16 || f16; }

  /// The wire precision factor-row payloads travel at under this spec
  /// (`native` when no quantization stage is on).
  WirePrecision WireOf(WirePrecision native) const {
    if (bf16) return WirePrecision::kBf16;
    if (f16) return WirePrecision::kF16;
    return native;
  }

  /// One-byte encoding for the Hello handshake (bit 0 bf16, 1 f16,
  /// 2 delta, 3 batch).
  uint8_t ToByte() const;

  /// Decodes a Hello codec byte; unknown bits or bf16+f16 together are
  /// InvalidArgument.
  static Result<WireCodecSpec> FromByte(uint8_t byte);

  /// Parses a CLI spec: "none", or "+"-joined stage names out of
  /// {bf16, f16, delta, batch} (e.g. "bf16+delta"). bf16 and f16 are
  /// mutually exclusive; unknown or repeated stages are InvalidArgument.
  static Result<WireCodecSpec> Parse(const std::string& spec);

  /// Canonical spec string ("none" when disabled).
  std::string ToString() const;

  /// Stage-for-stage equality (what the hello handshake compares).
  bool operator==(const WireCodecSpec& other) const {
    return bf16 == other.bf16 && f16 == other.f16 && delta == other.delta &&
           batch == other.batch;
  }
};

/// Coalesces `frames` into one kBatch payload:
/// [type u8][reserved u8][count u16] then count x [u32 len][frame bytes].
/// Exposed for tests; CodecTransport sizes its bundles itself.
void EncodeBatch(const std::vector<std::vector<uint8_t>>& frames,
                 std::vector<uint8_t>* out);

/// Splits a kBatch payload back into its sub-frames, validating the header,
/// that every sub-frame is non-empty, and that the lengths tile the payload
/// exactly; anything else is InvalidArgument.
Result<std::vector<std::vector<uint8_t>>> DecodeBatch(const uint8_t* data,
                                                      size_t size);

/// Tuning knobs and wiring for one CodecTransport endpoint.
struct CodecOptions {
  WireCodecSpec spec;  ///< Stages to run (must match every peer's).

  /// Solver-native factor precision: what EncodeFactorRow produced on the
  /// send side and what the receive side restores frames to.
  WirePrecision native = WirePrecision::kF64;

  /// Item columns of the job: the delta caches hold one slot per column,
  /// and a received row whose id is at or past this count bypasses them on
  /// its way to the solver's shape check. Any number of threads may send
  /// once this is set. 0 = grow the caches on demand, which allows only
  /// one sending thread.
  int32_t columns = 0;

  /// Ceiling on any single transport payload this codec emits. Must not
  /// exceed the transport's own limit (TcpOptions::max_frame_bytes) —
  /// coalesced flushes larger than this split into multiple frames.
  size_t max_frame_bytes = 1 << 22;

  /// Flush a peer's batch buffer once it holds this many frames…
  int batch_max_frames = 64;
  /// …or this many payload bytes, whichever comes first.
  size_t batch_max_bytes = 1 << 14;

  /// Registry for the nomad_dist_codec_* series (null = counters stay
  /// internal-only) and the rank label they carry.
  obs::MetricsRegistry* registry = nullptr;
  int metrics_rank = -1;  ///< Value of the `rank` label.
};

/// Decorates a Transport with the negotiated codec stages. The solver
/// stacks one of these over whatever endpoint it was handed (loopback,
/// TCP, or a FaultInjectingTransport), so every stage composes with fault
/// injection and heartbeats unchanged.
///
/// Contract notes on top of Transport's:
///  - Send() keeps the per-(sender, receiver) FIFO order: buffered tokens
///    are flushed before any non-token frame to the same peer goes out.
///  - With batching on, an accepted token may sit in the per-peer buffer
///    until the next threshold crossing or FlushAll() — the solver's
///    driver flushes every pump step, bounding the latency, and a flush
///    that fails (peer unavailable) keeps the frames buffered for retry.
///  - Delta caches are flat per-column slots on each end of each channel,
///    allocated on the channel's first row: cols × (k × wire bytes + 5)
///    bytes per channel end (1.4 MB for 20k columns at k=32 in bf16).
///    The recovery protocol's kLeaseSync channel markers empty them on
///    both ends (same FIFO position), so post-recovery rows always go
///    full — regrants never decode against pre-death state.
///  - Token ownership, not a lock, guards the sending end's slots: only
///    the thread that holds column j's token sends column j's rows, or the
///    driver with every worker parked (barrier h-row broadcasts, the
///    kLeaseSync clear). That is the rule that already lets a worker write
///    h_j unlocked, so an unbatched Send() takes no mutex. It commits the
///    row to its slot before the base send, and clears the slot when that
///    send fails — the receiver never saw the row, so the column's next
///    row goes full. With CodecOptions::columns unset the slot table grows
///    on demand, and only one thread may send.
///  - A delta frame whose base version misses the receiver cache is
///    dropped (counted in stale_rejects). Per-channel FIFO plus exclusive
///    token ownership guarantee this only happens to injected duplicate or
///    re-ordered replicas, which the solver's hop-version check would
///    discard anyway.
class CodecTransport final : public Transport {
 public:
  /// Borrows `base` (not owned; must outlive this decorator).
  CodecTransport(Transport* base, const CodecOptions& options);
  ~CodecTransport() override;

  int rank() const override;   ///< Forwards to the base transport.
  int world() const override;  ///< Forwards to the base transport.

  /// Encodes `frame` through the negotiated stages and forwards it (or
  /// buffers it, with batching on — see the class comment).
  Status Send(int dest, std::vector<uint8_t> frame) override;

  /// Pops the next solver-visible frame: unwraps kBatch bundles, restores
  /// quantized/delta factor rows to the native precision, drops stale
  /// delta replicas, and passes control frames through.
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override;

  TransportStats stats() const override;  ///< Base stats (post-codec bytes).

  PeerStatus peer_status(int peer) const override;  ///< Forwards to base.

  /// Flushes every peer's batch buffer now. The distributed driver calls
  /// this once per pump step and before quiescing, so buffered tokens
  /// never stall the conservation census. No-op without the batch stage.
  Status FlushAll();

  /// FlushAll(), then closes the base transport.
  Status Close() override;

  /// The spec this endpoint runs.
  const WireCodecSpec& spec() const { return options_.spec; }

  /// Counters of the codec work done so far (thread-safe snapshot). The
  /// same numbers export as nomad_dist_codec_* when a registry is wired.
  struct CodecStats {
    int64_t raw_bytes = 0;      ///< Payload bytes accepted from the solver.
    int64_t coded_bytes = 0;    ///< Payload bytes handed to the transport.
    int64_t delta_hits = 0;     ///< Rows shipped as deltas.
    int64_t delta_full = 0;     ///< Delta-eligible rows shipped full.
    int64_t stale_rejects = 0;  ///< Delta replicas dropped on receive.
    int64_t flushes = 0;        ///< Batch flushes that shipped frames.
    int64_t split_flushes = 0;  ///< Flushes split over several frames.
  };
  /// Snapshot of the counters above.
  CodecStats codec_stats() const;

 private:
  /// The delta baselines of one directed channel: one flat slot per
  /// column, indexed by column id, holding a present flag, the hop version
  /// of the last row that crossed and its k wire-precision entries. Rows of
  /// a width other than the first cached row's bypass the cache. On the
  /// sending end, slot j belongs to whoever holds token j (class comment);
  /// the receiving end's caches are the driver thread's.
  struct RowCache {
    size_t row_bytes = 0;        // k × wire entry bytes (0 = unused)
    std::vector<uint8_t> slots;  // column j at j × (5 + row_bytes)
  };

  /// Per-destination sender state. Workers send concurrently: the slots
  /// need no lock (token ownership), `mu` guards the batch buffer alone.
  struct PeerTx {
    std::once_flag sized;  // sizes `cache` once when columns > 0
    RowCache cache;        // delta baseline per column
    std::mutex mu;
    std::deque<std::vector<uint8_t>> buffer;  // coalescing buffer (mu)
    size_t buffered_bytes = 0;                // (mu)
  };

  /// The cache slot of column `id` for rows of `row_bytes`, grown on first
  /// use; null when the row bypasses the cache.
  uint8_t* Slot(RowCache* cache, int32_t id, size_t row_bytes) const;

  /// Quantize + delta stages for one outgoing factor row, rewritten in
  /// place. Commits the row to its cache slot and returns that slot, so a
  /// failed send can clear it; null when the row bypasses the cache.
  uint8_t* EncodeFactorForWire(PeerTx* tx, std::vector<uint8_t>* frame);

  /// Restores one received wire factor row to a native frame in place;
  /// false = stale delta replica, drop it.
  bool DecodeFactorForSolver(int src, std::vector<uint8_t>* frame);

  /// Sends tx->buffer to `dest` as max_frame_bytes-sized kBatch bundles
  /// (requires tx->mu held). On error the unsent tail stays buffered.
  Status FlushLocked(int dest, PeerTx* tx);

  Transport* const base_;
  const CodecOptions options_;
  const size_t native_entry_bytes_;
  const size_t wire_entry_bytes_;

  std::vector<std::unique_ptr<PeerTx>> tx_;  // index: destination rank
  std::vector<RowCache> rx_;  // index: source rank (driver thread only)
  std::deque<std::pair<int, std::vector<uint8_t>>> unbatched_;

  std::atomic<int64_t> raw_bytes_{0};
  std::atomic<int64_t> coded_bytes_{0};
  std::atomic<int64_t> delta_hits_{0};
  std::atomic<int64_t> delta_full_{0};
  std::atomic<int64_t> stale_rejects_{0};
  std::atomic<int64_t> flushes_{0};
  std::atomic<int64_t> split_flushes_{0};

  obs::Counter m_raw_bytes_;
  obs::Counter m_coded_bytes_;
  obs::Counter m_delta_hits_;
  obs::Counter m_delta_full_;
  obs::Counter m_stale_rejects_;
  obs::Counter m_flushes_;
  obs::Counter m_split_flushes_;
};

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_CODEC_H_
