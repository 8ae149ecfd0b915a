#include "net/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.h"

namespace nomad {
namespace net {

namespace {

// Fixed header of a kBatch bundle: [type u8][reserved u8][count u16].
constexpr size_t kBatchHeaderBytes = 4;

// Delta payload prefix after the 16-byte factor header:
// [base_version u32][nchanged u16], then ceil(k/8) mask bytes and the
// changed entries in wire precision.
constexpr size_t kDeltaPrefixBytes = 4 + 2;

// A delta-cache slot: [present u8][hop version u32], then the row's k
// wire-precision entries.
constexpr size_t kSlotHeaderBytes = 1 + 4;

template <typename T>
void Append(std::vector<uint8_t>* out, T value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
T ReadAt(const uint8_t* data, size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(uint8_t* data, size_t offset, T value) {
  std::memcpy(data + offset, &value, sizeof(T));
}

// Whether two `w`-byte wire entries differ (w is 2, 4 or 8).
bool EntryDiffers(const uint8_t* a, const uint8_t* b, size_t w) {
  switch (w) {
    case 2:
      return ReadAt<uint16_t>(a, 0) != ReadAt<uint16_t>(b, 0);
    case 4:
      return ReadAt<uint32_t>(a, 0) != ReadAt<uint32_t>(b, 0);
    default:
      return ReadAt<uint64_t>(a, 0) != ReadAt<uint64_t>(b, 0);
  }
}

bool IsLeaseSyncControl(const std::vector<uint8_t>& frame) {
  return frame.size() >= 2 &&
         frame[0] == static_cast<uint8_t>(MsgType::kControl) &&
         frame[1] == static_cast<uint8_t>(ControlKind::kLeaseSync);
}

}  // namespace

uint16_t Bf16FromF32(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if ((bits & 0x7F800000u) == 0x7F800000u && (bits & 0x007FFFFFu) != 0) {
    // NaN: truncate the mantissa but force a bit so it stays a NaN.
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest even on the 16 dropped bits; the carry propagates
  // into the exponent, so overflow saturates to infinity correctly.
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>(bits >> 16);
}

float F32FromBf16(uint16_t bits) {
  const uint32_t wide = static_cast<uint32_t>(bits) << 16;
  float value;
  std::memcpy(&value, &wide, sizeof(value));
  return value;
}

uint16_t F16FromF32(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t abs = bits & 0x7FFFFFFFu;
  if (abs >= 0x7F800000u) {  // infinity or NaN
    return static_cast<uint16_t>(
        sign | (abs > 0x7F800000u ? 0x7E00u : 0x7C00u));
  }
  if (abs >= 0x47800000u) {  // >= 2^16: beyond half range even after rounding
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs >= 0x38800000u) {  // normal half (>= 2^-14)
    const uint32_t exp = abs >> 23;          // biased-127, in [113, 142]
    const uint32_t mant = abs & 0x007FFFFFu;
    uint32_t half = ((exp - 112u) << 10) | (mant >> 13);
    const uint32_t dropped = mant & 0x1FFFu;  // 13 discarded mantissa bits
    if (dropped > 0x1000u || (dropped == 0x1000u && (half & 1u))) ++half;
    // A carry out of the max normal (65504) lands exactly on 0x7C00 = inf.
    return static_cast<uint16_t>(sign | half);
  }
  // Subnormal half: round value * 2^24 to the integer mantissa. The
  // implicit float mantissa bit sits at 2^23, so the mantissa shifts right
  // by 126 - exp ∈ [14, 24] (14 just under the smallest normal, 24 at the
  // smallest subnormal); anything smaller underflows to signed zero.
  const uint32_t exp = abs >> 23;
  const uint32_t shift = 126u - exp;
  if (exp == 0 || shift > 24u) return sign;  // underflows to signed zero
  const uint32_t mant24 = (abs & 0x007FFFFFu) | 0x00800000u;
  uint32_t half = mant24 >> shift;
  const uint32_t dropped = mant24 & ((1u << shift) - 1u);
  const uint32_t midpoint = 1u << (shift - 1);
  if (dropped > midpoint || (dropped == midpoint && (half & 1u))) ++half;
  // half can round up to 0x0400, which is exactly the smallest normal.
  return static_cast<uint16_t>(sign | half);
}

float F32FromF16(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exp = (bits >> 10) & 0x1Fu;
  const uint32_t mant = bits & 0x3FFu;
  uint32_t wide;
  if (exp == 0x1Fu) {  // infinity or NaN
    wide = sign | 0x7F800000u | (mant << 13);
  } else if (exp == 0) {
    if (mant == 0) {
      wide = sign;  // signed zero
    } else {
      // Subnormal: mant * 2^-24, renormalized into the float format.
      uint32_t m = mant;
      uint32_t e = 113;  // biased-127 exponent of 2^-14
      while ((m & 0x400u) == 0) {
        m <<= 1;
        --e;
      }
      wide = sign | (e << 23) | ((m & 0x3FFu) << 13);
    }
  } else {
    wide = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float value;
  std::memcpy(&value, &wide, sizeof(value));
  return value;
}

uint8_t WireCodecSpec::ToByte() const {
  uint8_t byte = 0;
  if (bf16) byte |= 1u << 0;
  if (f16) byte |= 1u << 1;
  if (delta) byte |= 1u << 2;
  if (batch) byte |= 1u << 3;
  return byte;
}

Result<WireCodecSpec> WireCodecSpec::FromByte(uint8_t byte) {
  if ((byte & ~0x0Fu) != 0) {
    return Status::InvalidArgument("unknown wire-codec bits in byte " +
                                   std::to_string(static_cast<int>(byte)));
  }
  WireCodecSpec spec;
  spec.bf16 = (byte & (1u << 0)) != 0;
  spec.f16 = (byte & (1u << 1)) != 0;
  spec.delta = (byte & (1u << 2)) != 0;
  spec.batch = (byte & (1u << 3)) != 0;
  if (spec.bf16 && spec.f16) {
    return Status::InvalidArgument(
        "wire codec byte sets both bf16 and f16 quantization");
  }
  return spec;
}

Result<WireCodecSpec> WireCodecSpec::Parse(const std::string& text) {
  WireCodecSpec spec;
  if (text.empty() || text == "none") return spec;
  size_t at = 0;
  while (at <= text.size()) {
    const size_t plus = text.find('+', at);
    const std::string stage =
        text.substr(at, plus == std::string::npos ? plus : plus - at);
    bool* field = nullptr;
    if (stage == "bf16") {
      field = &spec.bf16;
    } else if (stage == "f16") {
      field = &spec.f16;
    } else if (stage == "delta") {
      field = &spec.delta;
    } else if (stage == "batch") {
      field = &spec.batch;
    } else {
      return Status::InvalidArgument(
          "unknown wire-codec stage \"" + stage +
          "\" (expected none, or +-joined bf16|f16|delta|batch)");
    }
    if (*field) {
      return Status::InvalidArgument("wire-codec stage \"" + stage +
                                     "\" given twice");
    }
    *field = true;
    if (plus == std::string::npos) break;
    at = plus + 1;
  }
  if (spec.bf16 && spec.f16) {
    return Status::InvalidArgument(
        "bf16 and f16 quantization are mutually exclusive");
  }
  return spec;
}

std::string WireCodecSpec::ToString() const {
  if (!enabled()) return "none";
  std::string out;
  const auto add = [&out](const char* stage) {
    if (!out.empty()) out += '+';
    out += stage;
  };
  if (bf16) add("bf16");
  if (f16) add("f16");
  if (delta) add("delta");
  if (batch) add("batch");
  return out;
}

void EncodeBatch(const std::vector<std::vector<uint8_t>>& frames,
                 std::vector<uint8_t>* out) {
  NOMAD_CHECK(!frames.empty() && frames.size() <= 0xFFFF)
      << "batch of " << frames.size() << " frames";
  out->clear();
  size_t total = kBatchHeaderBytes;
  for (const auto& frame : frames) total += 4 + frame.size();
  out->reserve(total);
  Append<uint8_t>(out, static_cast<uint8_t>(MsgType::kBatch));
  Append<uint8_t>(out, 0);
  Append<uint16_t>(out, static_cast<uint16_t>(frames.size()));
  for (const auto& frame : frames) {
    NOMAD_CHECK(!frame.empty());
    Append<uint32_t>(out, static_cast<uint32_t>(frame.size()));
    const size_t at = out->size();
    out->resize(at + frame.size());
    std::memcpy(out->data() + at, frame.data(), frame.size());
  }
}

Result<std::vector<std::vector<uint8_t>>> DecodeBatch(const uint8_t* data,
                                                      size_t size) {
  if (size < kBatchHeaderBytes) {
    return Status::InvalidArgument("truncated batch frame: " +
                                   std::to_string(size) + " bytes");
  }
  if (data[0] != static_cast<uint8_t>(MsgType::kBatch)) {
    return Status::InvalidArgument("not a batch frame (type byte " +
                                   std::to_string(static_cast<int>(data[0])) +
                                   ")");
  }
  if (data[1] != 0) {
    return Status::InvalidArgument("batch frame reserved byte is non-zero");
  }
  const uint16_t count = ReadAt<uint16_t>(data, 2);
  if (count == 0) {
    return Status::InvalidArgument("batch frame carries zero sub-frames");
  }
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(count);
  size_t at = kBatchHeaderBytes;
  for (uint16_t i = 0; i < count; ++i) {
    if (size - at < 4) {
      return Status::InvalidArgument("truncated batch frame: sub-frame " +
                                     std::to_string(i) + " length missing");
    }
    const uint32_t len = ReadAt<uint32_t>(data, at);
    at += 4;
    if (len == 0) {
      return Status::InvalidArgument("batch frame sub-frame " +
                                     std::to_string(i) + " is empty");
    }
    if (size - at < len) {
      return Status::InvalidArgument("truncated batch frame: sub-frame " +
                                     std::to_string(i) + " needs " +
                                     std::to_string(len) + " bytes");
    }
    frames.emplace_back(data + at, data + at + len);
    at += len;
  }
  if (at != size) {
    return Status::InvalidArgument(
        "oversized batch frame: " + std::to_string(size - at) +
        " trailing bytes after the last sub-frame");
  }
  return frames;
}

CodecTransport::CodecTransport(Transport* base, const CodecOptions& options)
    : base_(base),
      options_(options),
      native_entry_bytes_(WireEntryBytes(options.native)),
      wire_entry_bytes_(
          WireEntryBytes(options.spec.WireOf(options.native))) {
  NOMAD_CHECK(base_ != nullptr);
  NOMAD_CHECK(options_.native == WirePrecision::kF64 ||
              options_.native == WirePrecision::kF32)
      << "native precision must be a solver storage precision";
  NOMAD_CHECK(options_.batch_max_frames >= 1 &&
              options_.batch_max_frames <= 0xFFFF);
  const int world = base_->world();
  tx_.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) tx_.push_back(std::make_unique<PeerTx>());
  rx_.resize(static_cast<size_t>(world));
  if (options_.registry != nullptr) {
    const obs::Labels rl = {{"rank", std::to_string(options_.metrics_rank)}};
    m_raw_bytes_ =
        options_.registry->GetCounter("nomad_dist_codec_raw_bytes_total", rl);
    m_coded_bytes_ = options_.registry->GetCounter(
        "nomad_dist_codec_coded_bytes_total", rl);
    m_delta_hits_ =
        options_.registry->GetCounter("nomad_dist_codec_delta_hits_total", rl);
    m_delta_full_ =
        options_.registry->GetCounter("nomad_dist_codec_delta_full_total", rl);
    m_stale_rejects_ = options_.registry->GetCounter(
        "nomad_dist_codec_stale_rejects_total", rl);
    m_flushes_ =
        options_.registry->GetCounter("nomad_dist_codec_flushes_total", rl);
    m_split_flushes_ = options_.registry->GetCounter(
        "nomad_dist_codec_split_flushes_total", rl);
  }
}

CodecTransport::~CodecTransport() = default;

int CodecTransport::rank() const { return base_->rank(); }

int CodecTransport::world() const { return base_->world(); }

TransportStats CodecTransport::stats() const { return base_->stats(); }

PeerStatus CodecTransport::peer_status(int peer) const {
  return base_->peer_status(peer);
}

uint8_t* CodecTransport::Slot(RowCache* cache, int32_t id,
                              size_t row_bytes) const {
  if (options_.columns > 0 && id >= options_.columns) return nullptr;
  if (cache->row_bytes == 0) cache->row_bytes = row_bytes;
  if (cache->row_bytes != row_bytes) return nullptr;
  const size_t slot_bytes = kSlotHeaderBytes + row_bytes;
  const size_t at = static_cast<size_t>(id) * slot_bytes;
  if (at >= cache->slots.size()) {
    cache->slots.resize(std::max(
        {static_cast<size_t>(options_.columns) * slot_bytes, at + slot_bytes,
         2 * cache->slots.size()}));
  }
  return cache->slots.data() + at;
}

uint8_t* CodecTransport::EncodeFactorForWire(PeerTx* tx,
                                             std::vector<uint8_t>* frame) {
  if (frame->size() < kFactorRowHeaderBytes) return nullptr;
  uint8_t* const f = frame->data();
  const int k = ReadAt<uint16_t>(f, 2);
  const int32_t id = ReadAt<int32_t>(f, 4);
  const uint32_t flags = ReadAt<uint32_t>(f, 12);
  const size_t expected =
      kFactorRowHeaderBytes + static_cast<size_t>(k) * native_entry_bytes_;
  if (k < 1 || k > kMaxWireK || id < 0 || frame->size() != expected ||
      f[1] != static_cast<uint8_t>(options_.native)) {
    // Not a frame this solver's encoder produced; leave it alone and let
    // the receiving end report the protocol violation.
    return nullptr;
  }

  // Stage 1: quantize the payload entries into wire precision in place,
  // front to back: entry i's 2 wire bytes land at 2i, before the wide
  // entries still unread.
  const size_t w = wire_entry_bytes_;
  const size_t row_bytes = static_cast<size_t>(k) * w;
  uint8_t* const payload = f + kFactorRowHeaderBytes;
  if (options_.spec.quantizes()) {
    // Locals, not members: the byte writes below may alias any member.
    const bool f32 = options_.native == WirePrecision::kF32;
    const bool bf16 = options_.spec.bf16;
    for (int i = 0; i < k; ++i) {
      const float value =
          f32 ? ReadAt<float>(payload, static_cast<size_t>(i) * 4)
              : static_cast<float>(
                    ReadAt<double>(payload, static_cast<size_t>(i) * 8));
      WriteAt<uint16_t>(payload, static_cast<size_t>(i) * 2,
                        bf16 ? Bf16FromF32(value) : F16FromF32(value));
    }
  }
  f[1] = static_cast<uint8_t>(options_.spec.WireOf(options_.native));
  uint8_t* slot = nullptr;
  if (options_.spec.delta) {
    if (id < options_.columns) {
      // Senders share the table: the first row sizes it for every column,
      // so it never grows after that.
      std::call_once(tx->sized, [&] { Slot(&tx->cache, id, row_bytes); });
    }
    slot = Slot(&tx->cache, id, row_bytes);
  }

  // Stage 2: the change mask against the receiver's last-seen copy of this
  // row. Flagged frames (regrants) always go full — their semantics must
  // not depend on any cache the receiver may have lost.
  const size_t full_size = kFactorRowHeaderBytes + row_bytes;
  const size_t mask_bytes = static_cast<size_t>(k + 7) / 8;
  const size_t fixed = kFactorRowHeaderBytes + kDeltaPrefixBytes + mask_bytes;
  uint8_t mask[kMaxWireK / 8];  // the first mask_bytes are used
  std::memset(mask, 0, mask_bytes);
  size_t nchanged = 0;
  bool delta = false;
  if (options_.spec.delta && flags == 0) {
    if (slot != nullptr && slot[0] != 0) {
      for (int i = 0; i < k && fixed + nchanged * w < full_size; ++i) {
        const size_t at = static_cast<size_t>(i) * w;
        if (EntryDiffers(payload + at, slot + kSlotHeaderBytes + at, w)) {
          mask[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
          ++nchanged;
        }
      }
      delta = fixed + nchanged * w < full_size;
    }
    if (delta) {
      delta_hits_.fetch_add(1, std::memory_order_relaxed);
      m_delta_hits_.Inc();
    } else {
      delta_full_.fetch_add(1, std::memory_order_relaxed);
      m_delta_full_.Inc();
    }
  }

  // Stage 3: commit the row's wire image to its slot, after reading the
  // old version the delta decodes against.
  uint32_t base_version = 0;
  if (slot != nullptr) {
    base_version = ReadAt<uint32_t>(slot, 1);
    slot[0] = 1;
    std::memcpy(slot + 1, f + 8, 4);  // the hop version
    std::memcpy(slot + kSlotHeaderBytes, payload, row_bytes);
  }

  // Stage 4: shorter than the full row, so the delta overwrites the
  // payload, reading the changed entries back from the slot.
  if (delta) {
    WriteAt<uint32_t>(f, 12, kFactorRowFlagDelta);
    WriteAt<uint32_t>(payload, 0, base_version);
    WriteAt<uint16_t>(payload, 4, static_cast<uint16_t>(nchanged));
    std::memcpy(payload + kDeltaPrefixBytes, mask, mask_bytes);
    uint8_t* out = payload + kDeltaPrefixBytes + mask_bytes;
    for (size_t b = 0; b < mask_bytes; ++b) {
      for (unsigned m = mask[b]; m != 0; m &= m - 1) {
        const size_t i = b * 8 + static_cast<size_t>(std::countr_zero(m));
        std::memcpy(out, slot + kSlotHeaderBytes + i * w, w);
        out += w;
      }
    }
  }
  frame->resize(delta ? fixed + nchanged * w : full_size);
  return slot;
}

Status CodecTransport::Send(int dest, std::vector<uint8_t> frame) {
  if (!options_.spec.enabled() || frame.empty() || dest < 0 ||
      dest >= world()) {
    return base_->Send(dest, std::move(frame));
  }
  const size_t raw_size = frame.size();
  const uint8_t type = frame[0];
  PeerTx& tx = *tx_[static_cast<size_t>(dest)];

  // No lock: the sender holds the row's token, or is the driver with every
  // worker parked, so no other thread touches its slot (class comment).
  uint8_t* slot = nullptr;  // committed by the encode
  if ((type == static_cast<uint8_t>(MsgType::kToken) ||
       type == static_cast<uint8_t>(MsgType::kHRow)) &&
      (options_.spec.quantizes() || options_.spec.delta)) {
    slot = EncodeFactorForWire(&tx, &frame);
  }

  if (options_.spec.batch && type == static_cast<uint8_t>(MsgType::kToken)) {
    // Buffered tokens are committed: FIFO order makes later deltas decode
    // against them, and a failed flush keeps them queued for retry.
    std::lock_guard<std::mutex> lock(tx.mu);
    tx.buffered_bytes += frame.size();
    tx.buffer.push_back(std::move(frame));
    raw_bytes_.fetch_add(static_cast<int64_t>(raw_size),
                         std::memory_order_relaxed);
    m_raw_bytes_.Inc(static_cast<int64_t>(raw_size));
    if (tx.buffer.size() >=
            static_cast<size_t>(options_.batch_max_frames) ||
        tx.buffered_bytes >= options_.batch_max_bytes) {
      // A threshold flush that fails leaves the tokens buffered; the
      // driver's per-step FlushAll retries until the peer heals or is
      // declared dead.
      (void)FlushLocked(dest, &tx);
    }
    return Status::OK();
  }

  // Any non-buffered frame must not overtake buffered tokens: flush first
  // so the per-pair FIFO contract survives coalescing.
  std::unique_lock<std::mutex> lock;
  Status sent;
  if (options_.spec.batch) {
    lock = std::unique_lock<std::mutex>(tx.mu);
    sent = FlushLocked(dest, &tx);
  }

  const bool lease_sync = IsLeaseSyncControl(frame);
  const size_t coded_size = frame.size();
  if (sent.ok()) sent = base_->Send(dest, std::move(frame));
  if (!sent.ok()) {
    // Not delivered, so the receiver's baseline did not move: the column's
    // next row must go full.
    if (slot != nullptr) slot[0] = 0;
    return sent;
  }
  raw_bytes_.fetch_add(static_cast<int64_t>(raw_size),
                       std::memory_order_relaxed);
  m_raw_bytes_.Inc(static_cast<int64_t>(raw_size));
  coded_bytes_.fetch_add(static_cast<int64_t>(coded_size),
                         std::memory_order_relaxed);
  m_coded_bytes_.Inc(static_cast<int64_t>(coded_size));
  // The recovery protocol's channel-flush marker: everything after it on
  // this channel decodes against a fresh cache on the receiving end, so
  // the sending end starts over too (full rows until re-warmed).
  if (lease_sync) std::ranges::fill(tx.cache.slots, 0);
  return sent;
}

Status CodecTransport::FlushLocked(int dest, PeerTx* tx) {
  if (tx->buffer.empty()) return Status::OK();
  int groups = 0;
  while (!tx->buffer.empty()) {
    // Greedy prefix of the buffer that fits one transport frame.
    size_t count = 0;
    size_t bytes = kBatchHeaderBytes;
    while (count < tx->buffer.size() &&
           count < static_cast<size_t>(options_.batch_max_frames)) {
      const size_t add = 4 + tx->buffer[count].size();
      if (count > 0 && bytes + add > options_.max_frame_bytes) break;
      bytes += add;
      ++count;
    }
    Status sent;
    size_t coded_size = 0;
    if (count == 1 && bytes > options_.max_frame_bytes) {
      // The bundle overhead alone would overflow: ship the frame raw.
      std::vector<uint8_t> one = tx->buffer.front();
      coded_size = one.size();
      sent = base_->Send(dest, std::move(one));
    } else {
      std::vector<std::vector<uint8_t>> group(
          tx->buffer.begin(),
          tx->buffer.begin() + static_cast<long>(count));
      std::vector<uint8_t> bundle;
      EncodeBatch(group, &bundle);
      coded_size = bundle.size();
      sent = base_->Send(dest, std::move(bundle));
    }
    if (!sent.ok()) {
      // Unsent frames stay buffered (in order) for the next flush.
      if (groups > 0) {
        flushes_.fetch_add(1, std::memory_order_relaxed);
        m_flushes_.Inc();
      }
      return sent;
    }
    coded_bytes_.fetch_add(static_cast<int64_t>(coded_size),
                           std::memory_order_relaxed);
    m_coded_bytes_.Inc(static_cast<int64_t>(coded_size));
    for (size_t i = 0; i < count; ++i) {
      tx->buffered_bytes -= tx->buffer.front().size();
      tx->buffer.pop_front();
    }
    ++groups;
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  m_flushes_.Inc();
  if (groups > 1) {
    split_flushes_.fetch_add(1, std::memory_order_relaxed);
    m_split_flushes_.Inc();
  }
  return Status::OK();
}

Status CodecTransport::FlushAll() {
  if (!options_.spec.batch) return Status::OK();
  Status first_error;
  const int n = world();
  for (int dest = 0; dest < n; ++dest) {
    if (dest == rank()) continue;
    PeerTx& tx = *tx_[static_cast<size_t>(dest)];
    std::lock_guard<std::mutex> lock(tx.mu);
    const Status flushed = FlushLocked(dest, &tx);
    if (!flushed.ok() && first_error.ok()) first_error = flushed;
  }
  return first_error;
}

bool CodecTransport::DecodeFactorForSolver(int src,
                                           std::vector<uint8_t>* frame) {
  std::vector<uint8_t>& in = *frame;
  if (in.size() < kFactorRowHeaderBytes) return true;  // solver reports it
  const int k = ReadAt<uint16_t>(in.data(), 2);
  const int32_t id = ReadAt<int32_t>(in.data(), 4);
  const uint32_t version = ReadAt<uint32_t>(in.data(), 8);
  const uint32_t flags = ReadAt<uint32_t>(in.data(), 12);
  const WirePrecision wire = options_.spec.WireOf(options_.native);
  if (k < 1 || k > kMaxWireK || id < 0 ||
      in[1] != static_cast<uint8_t>(wire) ||
      (flags & ~kFactorRowKnownFlags) != 0 || src < 0 ||
      static_cast<size_t>(src) >= rx_.size()) {
    return true;  // malformed — hand it to the solver's decoder to report
  }
  RowCache& cache = rx_[static_cast<size_t>(src)];
  const size_t w = wire_entry_bytes_;
  const size_t row_bytes = static_cast<size_t>(k) * w;
  const uint8_t* entries = nullptr;  // null = the frame's own payload

  if ((flags & kFactorRowFlagDelta) != 0) {
    if (!options_.spec.delta) return true;  // solver rejects the flag
    const size_t mask_bytes = static_cast<size_t>(k + 7) / 8;
    const size_t fixed = kFactorRowHeaderBytes + kDeltaPrefixBytes + mask_bytes;
    if (in.size() < fixed) {
      NOMAD_LOG(kWarning) << "codec: truncated delta frame from rank " << src;
      return false;
    }
    const uint32_t base_version =
        ReadAt<uint32_t>(in.data(), kFactorRowHeaderBytes);
    const uint16_t nchanged =
        ReadAt<uint16_t>(in.data(), kFactorRowHeaderBytes + 4);
    if (nchanged > k || in.size() != fixed + nchanged * w) {
      NOMAD_LOG(kWarning) << "codec: malformed delta frame from rank " << src;
      return false;
    }
    // An id past the job's columns or another row width: no slot, so the
    // solver gets the frame and rejects its flag.
    uint8_t* const slot = Slot(&cache, id, row_bytes);
    if (slot == nullptr) return true;
    if (slot[0] == 0 || ReadAt<uint32_t>(slot, 1) != base_version) {
      // A replica re-ordered past the row's real traffic (only injected
      // duplicates/delays get here — see the class comment). The solver's
      // hop-version check would discard it too; drop it before it can
      // decode against the wrong baseline.
      return false;
    }
    // Mask byte b marks entries 8b..8b+7; bits past k are ignored.
    const uint8_t* const mask =
        in.data() + kFactorRowHeaderBytes + kDeltaPrefixBytes;
    const auto marks = [mask, k](size_t b) {
      const int bits = std::min(8, k - static_cast<int>(b) * 8);
      return static_cast<unsigned>(mask[b]) & ((1u << bits) - 1u);
    };
    int taken = 0;
    for (size_t b = 0; b < mask_bytes; ++b) taken += std::popcount(marks(b));
    if (taken != nchanged) {
      NOMAD_LOG(kWarning) << "codec: delta mask/count mismatch from rank "
                          << src;
      return false;
    }
    const uint8_t* changed = mask + mask_bytes;
    for (size_t b = 0; b < mask_bytes; ++b) {
      for (unsigned m = marks(b); m != 0; m &= m - 1) {
        const size_t i = b * 8 + static_cast<size_t>(std::countr_zero(m));
        std::memcpy(slot + kSlotHeaderBytes + i * w, changed, w);
        changed += w;
      }
    }
    WriteAt<uint32_t>(slot, 1, version);
    WriteAt<uint32_t>(in.data(), 12, flags & ~kFactorRowFlagDelta);
    entries = slot + kSlotHeaderBytes;
  } else {
    if (in.size() != kFactorRowHeaderBytes + row_bytes) return true;
    // Monotone update: a delayed replica of an older full row must not
    // roll the baseline back under the sender's feet.
    uint8_t* const slot =
        options_.spec.delta ? Slot(&cache, id, row_bytes) : nullptr;
    if (slot != nullptr &&
        (slot[0] == 0 || version >= ReadAt<uint32_t>(slot, 1))) {
      slot[0] = 1;
      WriteAt<uint32_t>(slot, 1, version);
      std::memcpy(slot + kSlotHeaderBytes, in.data() + kFactorRowHeaderBytes,
                  row_bytes);
    }
    if (!options_.spec.quantizes()) return true;  // native full row, as-is
  }

  // Restore the solver-native row in place.
  in.resize(kFactorRowHeaderBytes +
            static_cast<size_t>(k) * native_entry_bytes_);
  in[1] = static_cast<uint8_t>(options_.native);
  uint8_t* const out = in.data() + kFactorRowHeaderBytes;
  if (entries == nullptr) entries = out;
  if (!options_.spec.quantizes()) {
    std::memcpy(out, entries, row_bytes);  // delta-only: native entries
    return true;
  }
  // Back to front: each wide entry lands past the narrow ones still unread.
  const bool f32 = options_.native == WirePrecision::kF32;
  const bool bf16 = options_.spec.bf16;
  for (int i = k - 1; i >= 0; --i) {
    const uint16_t q = ReadAt<uint16_t>(entries, static_cast<size_t>(i) * 2);
    const float value = bf16 ? F32FromBf16(q) : F32FromF16(q);
    if (f32) {
      WriteAt<float>(out, static_cast<size_t>(i) * 4, value);
    } else {
      WriteAt<double>(out, static_cast<size_t>(i) * 8,
                      static_cast<double>(value));
    }
  }
  return true;
}

bool CodecTransport::TryReceive(std::vector<uint8_t>* frame, int* src) {
  if (!options_.spec.enabled()) return base_->TryReceive(frame, src);
  std::vector<uint8_t>& raw = *frame;
  for (;;) {
    int from = -1;
    if (!unbatched_.empty()) {
      from = unbatched_.front().first;
      raw = std::move(unbatched_.front().second);
      unbatched_.pop_front();
    } else if (!base_->TryReceive(frame, &from)) {
      return false;
    }
    if (raw.empty()) continue;
    const uint8_t type = raw[0];
    if (type == static_cast<uint8_t>(MsgType::kBatch)) {
      auto sub = DecodeBatch(raw.data(), raw.size());
      if (!sub.ok()) {
        NOMAD_LOG(kWarning) << "codec: dropping corrupt batch from rank "
                            << from << ": " << sub.status().ToString();
        continue;
      }
      for (auto& f : sub.value()) unbatched_.emplace_back(from, std::move(f));
      continue;
    }
    if ((type == static_cast<uint8_t>(MsgType::kToken) ||
         type == static_cast<uint8_t>(MsgType::kHRow)) &&
        (options_.spec.quantizes() || options_.spec.delta)) {
      if (!DecodeFactorForSolver(from, frame)) {
        stale_rejects_.fetch_add(1, std::memory_order_relaxed);
        m_stale_rejects_.Inc();
        continue;
      }
    }
    if (IsLeaseSyncControl(raw) && from >= 0 &&
        static_cast<size_t>(from) < rx_.size()) {
      // Channel-flush marker: discard this channel's delta baselines, in
      // the same stream position where the sender discarded its own.
      std::ranges::fill(rx_[static_cast<size_t>(from)].slots, 0);
    }
    *src = from;
    return true;
  }
}

Status CodecTransport::Close() {
  const Status flushed = FlushAll();
  const Status closed = base_->Close();
  return flushed.ok() ? closed : flushed;
}

CodecTransport::CodecStats CodecTransport::codec_stats() const {
  CodecStats stats;
  stats.raw_bytes = raw_bytes_.load(std::memory_order_relaxed);
  stats.coded_bytes = coded_bytes_.load(std::memory_order_relaxed);
  stats.delta_hits = delta_hits_.load(std::memory_order_relaxed);
  stats.delta_full = delta_full_.load(std::memory_order_relaxed);
  stats.stale_rejects = stale_rejects_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.split_flushes = split_flushes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace net
}  // namespace nomad
