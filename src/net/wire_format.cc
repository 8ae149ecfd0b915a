#include "net/wire_format.h"

#include <string>

#include "util/logging.h"

namespace nomad {
namespace net {

namespace {

constexpr uint32_t kHelloMagic = 0x324d4f4e;  // "NOM2" read as LE u32
constexpr size_t kHelloBytes = 1 + 4 + 4 + 4 + 2 + 1 + 1;
constexpr size_t kControlBytes = 1 + 1 + 1 + 4 + 4 + 7 * 8 + 2 * 8;

// Append/read fixed-width scalars. The host is little-endian (asserted in
// the header), so memcpy writes the wire byte order directly.
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

bool IsFactorRowType(MsgType type) {
  return type == MsgType::kToken || type == MsgType::kHRow ||
         type == MsgType::kWRow;
}

}  // namespace

Result<MsgType> PeekType(const uint8_t* data, size_t size) {
  if (size == 0) return Status::InvalidArgument("empty payload");
  const uint8_t raw = data[0];
  if (raw < static_cast<uint8_t>(MsgType::kHello) ||
      raw > static_cast<uint8_t>(MsgType::kBatch)) {
    return Status::InvalidArgument("unknown message type byte " +
                                   std::to_string(static_cast<int>(raw)));
  }
  return static_cast<MsgType>(raw);
}

template <typename Real>
void EncodeFactorRow(MsgType type, int32_t id, uint32_t version,
                     const Real* values, int k, std::vector<uint8_t>* out,
                     uint32_t flags) {
  NOMAD_CHECK(IsFactorRowType(type));
  NOMAD_CHECK(k >= 1 && k <= kMaxWireK) << "k=" << k;
  NOMAD_CHECK(id >= 0) << "id=" << id;
  // Delta frames have their own payload layout and are built only inside
  // net/codec.cc; this encoder emits full rows exclusively.
  NOMAD_CHECK((flags & ~kFactorRowKnownFlags) == 0 &&
              (flags & kFactorRowFlagDelta) == 0)
      << "flags=" << flags;
  out->clear();
  out->reserve(kFactorRowHeaderBytes + static_cast<size_t>(k) * sizeof(Real));
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint8_t>(out, static_cast<uint8_t>(WirePrecisionOf<Real>()));
  Append<uint16_t>(out, static_cast<uint16_t>(k));
  Append<int32_t>(out, id);
  Append<uint32_t>(out, version);
  Append<uint32_t>(out, flags);  // flags word doubles as alignment padding
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(k) * sizeof(Real));
  std::memcpy(out->data() + at, values, static_cast<size_t>(k) * sizeof(Real));
}

template <typename Real>
Result<FactorRowView<Real>> DecodeFactorRow(const uint8_t* data, size_t size) {
  if (size < kFactorRowHeaderBytes) {
    return Status::InvalidArgument(
        "truncated factor-row frame: " + std::to_string(size) +
        " bytes, header needs " + std::to_string(kFactorRowHeaderBytes));
  }
  const MsgType type = static_cast<MsgType>(data[0]);
  if (!IsFactorRowType(type)) {
    return Status::InvalidArgument("not a factor-row frame (type byte " +
                                   std::to_string(static_cast<int>(data[0])) +
                                   ")");
  }
  // A delta-coded row only makes sense between a negotiated CodecTransport
  // pair; reaching this decoder means no codec unwrapped it. Reject before
  // the size checks — delta payloads are variable-length by design.
  const uint32_t raw_flags = ReadAt<uint32_t>(data, 12);
  if ((raw_flags & kFactorRowFlagDelta) != 0) {
    return Status::InvalidArgument(
        "delta-coded factor row without a negotiated wire codec");
  }
  const uint8_t precision = data[1];
  if (precision == static_cast<uint8_t>(WirePrecision::kBf16) ||
      precision == static_cast<uint8_t>(WirePrecision::kF16)) {
    return Status::InvalidArgument(
        std::string("quantized (") +
        (precision == static_cast<uint8_t>(WirePrecision::kBf16) ? "bf16"
                                                                 : "f16") +
        ") factor row without a negotiated wire codec");
  }
  if (precision != static_cast<uint8_t>(WirePrecision::kF64) &&
      precision != static_cast<uint8_t>(WirePrecision::kF32)) {
    return Status::InvalidArgument("unknown precision byte " +
                                   std::to_string(static_cast<int>(precision)));
  }
  if (precision != static_cast<uint8_t>(WirePrecisionOf<Real>())) {
    return Status::InvalidArgument(
        std::string("precision mismatch: frame carries ") +
        (precision == static_cast<uint8_t>(WirePrecision::kF32) ? "f32"
                                                                : "f64") +
        " but the decoder expects " + (sizeof(Real) == 4 ? "f32" : "f64"));
  }
  const int k = ReadAt<uint16_t>(data, 2);
  if (k < 1 || k > kMaxWireK) {
    return Status::InvalidArgument("factor-row k out of range: " +
                                   std::to_string(k));
  }
  const size_t expected =
      kFactorRowHeaderBytes + static_cast<size_t>(k) * sizeof(Real);
  if (size < expected) {
    return Status::InvalidArgument(
        "truncated factor-row frame: " + std::to_string(size) +
        " bytes, expected " + std::to_string(expected));
  }
  if (size > expected) {
    return Status::InvalidArgument(
        "oversized factor-row frame: " + std::to_string(size) +
        " bytes, expected " + std::to_string(expected));
  }
  FactorRowView<Real> view;
  view.type = type;
  view.id = ReadAt<int32_t>(data, 4);
  if (view.id < 0) {
    return Status::InvalidArgument("negative factor-row id " +
                                   std::to_string(view.id));
  }
  view.version = ReadAt<uint32_t>(data, 8);
  view.flags = ReadAt<uint32_t>(data, 12);
  if ((view.flags & ~kFactorRowKnownFlags) != 0) {
    return Status::InvalidArgument("factor-row frame carries unknown flags " +
                                   std::to_string(view.flags));
  }
  if (view.flags != 0 && type != MsgType::kToken) {
    return Status::InvalidArgument(
        "factor-row flags are only defined for token frames");
  }
  view.k = k;
  view.values = reinterpret_cast<const Real*>(data + kFactorRowHeaderBytes);
  return view;
}

template void EncodeFactorRow<float>(MsgType, int32_t, uint32_t, const float*,
                                     int, std::vector<uint8_t>*, uint32_t);
template void EncodeFactorRow<double>(MsgType, int32_t, uint32_t,
                                      const double*, int,
                                      std::vector<uint8_t>*, uint32_t);
template Result<FactorRowView<float>> DecodeFactorRow<float>(const uint8_t*,
                                                             size_t);
template Result<FactorRowView<double>> DecodeFactorRow<double>(const uint8_t*,
                                                               size_t);

void EncodeHello(const HelloFrame& hello, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(kHelloBytes);
  Append<uint8_t>(out, static_cast<uint8_t>(MsgType::kHello));
  Append<uint32_t>(out, kHelloMagic);
  Append<int32_t>(out, hello.rank);
  Append<int32_t>(out, hello.world);
  Append<uint16_t>(out, static_cast<uint16_t>(hello.k));
  Append<uint8_t>(out, static_cast<uint8_t>(hello.precision));
  Append<uint8_t>(out, hello.codec);
}

Result<HelloFrame> DecodeHello(const uint8_t* data, size_t size) {
  if (size != kHelloBytes) {
    return Status::InvalidArgument("hello frame is " + std::to_string(size) +
                                   " bytes, expected " +
                                   std::to_string(kHelloBytes));
  }
  if (data[0] != static_cast<uint8_t>(MsgType::kHello)) {
    return Status::InvalidArgument("not a hello frame");
  }
  if (ReadAt<uint32_t>(data, 1) != kHelloMagic) {
    return Status::InvalidArgument("bad hello magic (not a NOMAD peer?)");
  }
  HelloFrame hello;
  hello.rank = ReadAt<int32_t>(data, 5);
  hello.world = ReadAt<int32_t>(data, 9);
  hello.k = ReadAt<uint16_t>(data, 13);
  const uint8_t precision = data[15];
  if (precision != static_cast<uint8_t>(WirePrecision::kF64) &&
      precision != static_cast<uint8_t>(WirePrecision::kF32)) {
    return Status::InvalidArgument("hello: unknown precision byte " +
                                   std::to_string(static_cast<int>(precision)));
  }
  hello.precision = static_cast<WirePrecision>(precision);
  hello.codec = data[16];  // validated against the local spec by the caller
  if (hello.world < 1 || hello.rank < 0 || hello.rank >= hello.world) {
    return Status::InvalidArgument(
        "hello: rank " + std::to_string(hello.rank) + " outside world " +
        std::to_string(hello.world));
  }
  return hello;
}

void EncodeControl(const ControlFrame& frame, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(kControlBytes);
  Append<uint8_t>(out, static_cast<uint8_t>(MsgType::kControl));
  Append<uint8_t>(out, static_cast<uint8_t>(frame.kind));
  Append<uint8_t>(out, frame.flag);
  Append<int32_t>(out, frame.rank);
  Append<int32_t>(out, frame.epoch);
  Append<int64_t>(out, frame.held);
  Append<int64_t>(out, frame.updates);
  Append<int64_t>(out, frame.count);
  Append<int64_t>(out, frame.tokens_sent);
  Append<int64_t>(out, frame.tokens_received);
  Append<int64_t>(out, frame.bytes_sent);
  Append<int64_t>(out, frame.bytes_received);
  Append<double>(out, frame.sq_err);
  Append<double>(out, frame.seconds);
}

Result<ControlFrame> DecodeControl(const uint8_t* data, size_t size) {
  if (size != kControlBytes) {
    return Status::InvalidArgument("control frame is " + std::to_string(size) +
                                   " bytes, expected " +
                                   std::to_string(kControlBytes));
  }
  if (data[0] != static_cast<uint8_t>(MsgType::kControl)) {
    return Status::InvalidArgument("not a control frame");
  }
  const uint8_t kind = data[1];
  if (kind < static_cast<uint8_t>(ControlKind::kBarrierRequest) ||
      kind > static_cast<uint8_t>(ControlKind::kLeaseSync)) {
    return Status::InvalidArgument("unknown control kind " +
                                   std::to_string(static_cast<int>(kind)));
  }
  ControlFrame frame;
  frame.kind = static_cast<ControlKind>(kind);
  frame.flag = data[2];
  frame.rank = ReadAt<int32_t>(data, 3);
  frame.epoch = ReadAt<int32_t>(data, 7);
  frame.held = ReadAt<int64_t>(data, 11);
  frame.updates = ReadAt<int64_t>(data, 19);
  frame.count = ReadAt<int64_t>(data, 27);
  frame.tokens_sent = ReadAt<int64_t>(data, 35);
  frame.tokens_received = ReadAt<int64_t>(data, 43);
  frame.bytes_sent = ReadAt<int64_t>(data, 51);
  frame.bytes_received = ReadAt<int64_t>(data, 59);
  frame.sq_err = ReadAt<double>(data, 67);
  frame.seconds = ReadAt<double>(data, 75);
  return frame;
}

}  // namespace net
}  // namespace nomad
