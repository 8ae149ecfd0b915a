#include "net/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/loopback_transport.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"
#include "util/logging.h"

namespace nomad {
namespace net {
namespace {

// ---- quantization conversions ----

TEST(CodecConversionTest, Bf16GoldenValues) {
  EXPECT_EQ(Bf16FromF32(0.0f), 0x0000);
  EXPECT_EQ(Bf16FromF32(-0.0f), 0x8000);
  EXPECT_EQ(Bf16FromF32(1.0f), 0x3F80);
  EXPECT_EQ(Bf16FromF32(-2.0f), 0xC000);
  EXPECT_EQ(Bf16FromF32(0.5f), 0x3F00);
  EXPECT_EQ(Bf16FromF32(std::numeric_limits<float>::infinity()), 0x7F80);
  EXPECT_EQ(Bf16FromF32(-std::numeric_limits<float>::infinity()), 0xFF80);
  // Round to nearest even on the 16 dropped bits: 1 + 2^-8 is exactly
  // half-way between 1.0 (even) and the next bf16 up, so it rounds down;
  // an odd low bit rounds up instead.
  EXPECT_EQ(Bf16FromF32(1.00390625f), 0x3F80);   // tie -> even (1.0)
  EXPECT_EQ(Bf16FromF32(1.01171875f), 0x3F82);   // tie -> even (1.015625)
  // NaN survives as NaN (mantissa truncation must not produce infinity).
  const uint16_t nan16 =
      Bf16FromF32(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(F32FromBf16(nan16)));
}

TEST(CodecConversionTest, F16GoldenValues) {
  EXPECT_EQ(F16FromF32(0.0f), 0x0000);
  EXPECT_EQ(F16FromF32(-0.0f), 0x8000);
  EXPECT_EQ(F16FromF32(1.0f), 0x3C00);
  EXPECT_EQ(F16FromF32(-2.0f), 0xC000);
  EXPECT_EQ(F16FromF32(65504.0f), 0x7BFF);  // the largest normal half
  // 65520 is half-way to 65536; nearest-even carries into the exponent and
  // lands exactly on the infinity encoding.
  EXPECT_EQ(F16FromF32(65520.0f), 0x7C00);
  EXPECT_EQ(F16FromF32(1.0e6f), 0x7C00);  // far overflow saturates too
  EXPECT_EQ(F16FromF32(std::numeric_limits<float>::infinity()), 0x7C00);
  EXPECT_EQ(F16FromF32(-std::numeric_limits<float>::infinity()), 0xFC00);
  // Subnormal range: 2^-24 is the smallest half subnormal; 2^-25 ties back
  // to (even) zero; 1.5 * 2^-25 rounds up to the smallest subnormal.
  EXPECT_EQ(F16FromF32(0x1p-24f), 0x0001);
  EXPECT_EQ(F16FromF32(0x1p-25f), 0x0000);
  EXPECT_EQ(F16FromF32(0x1.8p-25f), 0x0001);
  EXPECT_EQ(F16FromF32(-0x1p-24f), 0x8001);
  EXPECT_EQ(F16FromF32(0x1p-14f), 0x0400);  // smallest normal half
  EXPECT_TRUE(
      std::isnan(F32FromF16(F16FromF32(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(CodecConversionTest, Bf16DecodeEncodeIsIdentityForEveryPattern) {
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = F32FromBf16(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(F32FromBf16(Bf16FromF32(f))));
      continue;  // NaN payloads may be quieted, not preserved bit-exactly
    }
    EXPECT_EQ(Bf16FromF32(f), h) << "bf16 pattern " << bits;
  }
}

TEST(CodecConversionTest, F16DecodeEncodeIsIdentityForEveryPattern) {
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = F32FromF16(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(F32FromF16(F16FromF32(f))));
      continue;
    }
    EXPECT_EQ(F16FromF32(f), h) << "f16 pattern " << bits;
  }
}

// ---- spec parsing and the hello byte ----

TEST(WireCodecSpecTest, ParsesAndPrintsCanonically) {
  auto none = WireCodecSpec::Parse("none");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().enabled());
  EXPECT_EQ(none.value().ToString(), "none");

  auto bf16 = WireCodecSpec::Parse("bf16");
  ASSERT_TRUE(bf16.ok());
  EXPECT_TRUE(bf16.value().bf16);
  EXPECT_TRUE(bf16.value().quantizes());
  EXPECT_EQ(bf16.value().ToString(), "bf16");

  auto full = WireCodecSpec::Parse("f16+delta+batch");
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.value().f16);
  EXPECT_TRUE(full.value().delta);
  EXPECT_TRUE(full.value().batch);

  // Stage order does not matter; printing is canonical.
  auto reordered = WireCodecSpec::Parse("delta+bf16");
  ASSERT_TRUE(reordered.ok());
  EXPECT_EQ(reordered.value().ToString(), "bf16+delta");
}

TEST(WireCodecSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(WireCodecSpec::Parse("gzip").ok());
  EXPECT_FALSE(WireCodecSpec::Parse("bf16+f16").ok());
  EXPECT_FALSE(WireCodecSpec::Parse("bf16+bf16").ok());
  EXPECT_FALSE(WireCodecSpec::Parse("bf16+").ok());
}

TEST(WireCodecSpecTest, HelloByteRoundTripsEveryValidCombination) {
  for (uint8_t byte = 0; byte <= 0x0F; ++byte) {
    auto spec = WireCodecSpec::FromByte(byte);
    if ((byte & 0x03) == 0x03) {
      EXPECT_FALSE(spec.ok()) << "bf16|f16 byte " << int{byte} << " accepted";
      continue;
    }
    ASSERT_TRUE(spec.ok()) << "byte " << int{byte};
    EXPECT_EQ(spec.value().ToByte(), byte);
    // The CLI string survives the same trip.
    auto reparsed = WireCodecSpec::Parse(spec.value().ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value(), spec.value());
  }
  EXPECT_FALSE(WireCodecSpec::FromByte(0x10).ok());
  EXPECT_FALSE(WireCodecSpec::FromByte(0xFF).ok());
}

// ---- batch bundles ----

TEST(BatchCodecTest, GoldenBytesAndRoundTrip) {
  const std::vector<std::vector<uint8_t>> frames = {{0xAA, 0xBB},
                                                    {0x11, 0x22, 0x33}};
  std::vector<uint8_t> bundle;
  EncodeBatch(frames, &bundle);
  const std::vector<uint8_t> expected = {
      6,    0,    2,    0,                 // [kBatch][reserved][count=2]
      2,    0,    0,    0,    0xAA, 0xBB,  // [len=2][frame 0]
      3,    0,    0,    0,    0x11, 0x22, 0x33};
  EXPECT_EQ(bundle, expected);

  auto decoded = DecodeBatch(bundle.data(), bundle.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), frames);
}

TEST(BatchCodecTest, RejectsTruncationAndCorruption) {
  std::vector<uint8_t> bundle;
  EncodeBatch({{1, 2, 3, 4}, {5, 6}}, &bundle);

  // Every proper prefix must fail cleanly.
  for (size_t cut = 0; cut < bundle.size(); ++cut) {
    auto decoded = DecodeBatch(bundle.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }

  std::vector<uint8_t> wrong_type = bundle;
  wrong_type[0] = 2;  // kToken
  EXPECT_FALSE(DecodeBatch(wrong_type.data(), wrong_type.size()).ok());

  std::vector<uint8_t> bad_reserved = bundle;
  bad_reserved[1] = 7;
  EXPECT_FALSE(DecodeBatch(bad_reserved.data(), bad_reserved.size()).ok());

  std::vector<uint8_t> zero_count = bundle;
  zero_count[2] = 0;
  zero_count[3] = 0;
  EXPECT_FALSE(DecodeBatch(zero_count.data(), zero_count.size()).ok());

  std::vector<uint8_t> length_overrun = bundle;
  length_overrun[4] = 0xFF;  // first sub-frame claims 255 bytes
  EXPECT_FALSE(
      DecodeBatch(length_overrun.data(), length_overrun.size()).ok());

  std::vector<uint8_t> trailing = bundle;
  trailing.push_back(0xEE);
  auto t = DecodeBatch(trailing.data(), trailing.size());
  EXPECT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("trailing"), std::string::npos);

  std::vector<uint8_t> empty_sub = bundle;
  empty_sub[4] = 0;  // first sub-frame claims 0 bytes
  EXPECT_FALSE(DecodeBatch(empty_sub.data(), empty_sub.size()).ok());
}

// ---- codec transport helpers ----

struct CodecPair {
  std::vector<std::unique_ptr<Transport>> fabric;
  std::unique_ptr<CodecTransport> tx;  // wraps fabric[0]
  std::unique_ptr<CodecTransport> rx;  // wraps fabric[1]
};

CodecPair MakePair(const WireCodecSpec& spec,
                   WirePrecision native = WirePrecision::kF64,
                   size_t max_frame_bytes = 1 << 22,
                   int batch_max_frames = 64) {
  CodecPair pair;
  pair.fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = spec;
  opts.native = native;
  opts.max_frame_bytes = max_frame_bytes;
  opts.batch_max_frames = batch_max_frames;
  pair.tx = std::make_unique<CodecTransport>(pair.fabric[0].get(), opts);
  pair.rx = std::make_unique<CodecTransport>(pair.fabric[1].get(), opts);
  return pair;
}

template <typename Real>
std::vector<Real> SpecialRow(int k) {
  std::vector<Real> row(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    switch (i % 6) {
      case 0:
        row[static_cast<size_t>(i)] = std::numeric_limits<Real>::quiet_NaN();
        break;
      case 1:
        row[static_cast<size_t>(i)] = std::numeric_limits<Real>::infinity();
        break;
      case 2:
        row[static_cast<size_t>(i)] = -std::numeric_limits<Real>::infinity();
        break;
      case 3:
        row[static_cast<size_t>(i)] = static_cast<Real>(1e-40);  // denormal
        break;
      case 4:
        row[static_cast<size_t>(i)] = static_cast<Real>(-0.0);
        break;
      default:
        row[static_cast<size_t>(i)] = static_cast<Real>(0.25 * i - 3.5);
    }
  }
  return row;
}

template <typename Real>
void QuantizedRoundTripAt(const WireCodecSpec& spec, int k) {
  CodecPair pair = MakePair(spec, WirePrecisionOf<Real>());
  const std::vector<Real> row = SpecialRow<Real>(k);
  std::vector<uint8_t> frame;
  EncodeFactorRow<Real>(MsgType::kToken, /*id=*/k + 3, /*version=*/7u,
                        row.data(), k, &frame);
  ASSERT_TRUE(pair.tx->Send(1, frame).ok());
  std::vector<uint8_t> got;
  int src = -1;
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));
  EXPECT_EQ(src, 0);
  auto view = DecodeFactorRow<Real>(got.data(), got.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().id, k + 3);
  EXPECT_EQ(view.value().version, 7u);
  ASSERT_EQ(view.value().k, k);
  for (int i = 0; i < k; ++i) {
    const float f = static_cast<float>(row[static_cast<size_t>(i)]);
    const float expected =
        spec.bf16 ? F32FromBf16(Bf16FromF32(f)) : F32FromF16(F16FromF32(f));
    const Real got_v = view.value().values[i];
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got_v)) << "entry " << i;
    } else {
      EXPECT_EQ(static_cast<Real>(expected), got_v) << "entry " << i;
    }
  }
}

TEST(CodecTransportTest, QuantizedRoundTripSweep) {
  for (const char* spec_text : {"bf16", "f16", "bf16+delta"}) {
    auto spec = WireCodecSpec::Parse(spec_text);
    ASSERT_TRUE(spec.ok());
    for (int k : {1, 8, 32, 129}) {
      QuantizedRoundTripAt<double>(spec.value(), k);
      QuantizedRoundTripAt<float>(spec.value(), k);
    }
  }
}

TEST(CodecTransportTest, GoldenBf16WireBytes) {
  // Wrap only the sender: the raw endpoint on the other side exposes the
  // exact bytes a negotiated peer would see on the wire.
  auto fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("bf16").value();
  CodecTransport tx(fabric[0].get(), opts);

  const std::vector<double> row = {1.0, -2.0, 0.5, 3.0};
  std::vector<uint8_t> frame;
  EncodeFactorRow<double>(MsgType::kToken, /*id=*/7, /*version=*/3u,
                          row.data(), 4, &frame);
  ASSERT_TRUE(tx.Send(1, frame).ok());

  std::vector<uint8_t> wire;
  int src = -1;
  ASSERT_TRUE(fabric[1]->TryReceive(&wire, &src));
  const std::vector<uint8_t> expected = {
      2,    2,    4,    0,              // [kToken][kBf16][k=4]
      7,    0,    0,    0,              // id
      3,    0,    0,    0,              // version
      0,    0,    0,    0,              // flags
      0x80, 0x3F, 0x00, 0xC0,           // 1.0, -2.0 as bf16
      0x00, 0x3F, 0x40, 0x40};          // 0.5, 3.0 as bf16
  EXPECT_EQ(wire, expected);
}

TEST(CodecTransportTest, GoldenDeltaWireBytes) {
  auto fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("bf16+delta").value();
  CodecTransport tx(fabric[0].get(), opts);

  std::vector<double> row = {1.0, -2.0, 0.5, 3.0, 4.0, -8.0, 0.25, 16.0};
  std::vector<uint8_t> frame;
  EncodeFactorRow<double>(MsgType::kToken, /*id=*/9, /*version=*/5u,
                          row.data(), 8, &frame);
  ASSERT_TRUE(tx.Send(1, frame).ok());
  std::vector<uint8_t> wire;
  int src = -1;
  ASSERT_TRUE(fabric[1]->TryReceive(&wire, &src));  // first row goes full
  EXPECT_EQ(wire.size(), kFactorRowHeaderBytes + 8 * 2);

  row[2] = 0.25;  // one bf16-visible change
  EncodeFactorRow<double>(MsgType::kToken, 9, 6u, row.data(), 8, &frame);
  ASSERT_TRUE(tx.Send(1, frame).ok());
  ASSERT_TRUE(fabric[1]->TryReceive(&wire, &src));
  const std::vector<uint8_t> expected = {
      2,    2,    8,    0,         // [kToken][kBf16][k=8]
      9,    0,    0,    0,         // id
      6,    0,    0,    0,         // version
      2,    0,    0,    0,         // flags = kFactorRowFlagDelta
      5,    0,    0,    0,         // base_version = 5
      1,    0,                     // nchanged = 1
      0x04,                        // mask: entry 2
      0x80, 0x3E};                 // 0.25 as bf16
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(tx.codec_stats().delta_hits, 1);

  // The raw receiver has no codec, so the solver-facing decoder must
  // reject the frame cleanly — that is the cross-codec-mismatch contract.
  auto view = DecodeFactorRow<double>(wire.data(), wire.size());
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("without a negotiated wire codec"),
            std::string::npos)
      << view.status().ToString();
}

TEST(CodecTransportTest, QuantizedFrameWithoutCodecIsRejected) {
  auto fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("bf16").value();
  CodecTransport tx(fabric[0].get(), opts);
  const std::vector<double> row = SpecialRow<double>(8);
  std::vector<uint8_t> frame;
  EncodeFactorRow<double>(MsgType::kToken, 1, 1u, row.data(), 8, &frame);
  ASSERT_TRUE(tx.Send(1, frame).ok());
  std::vector<uint8_t> wire;
  int src = -1;
  ASSERT_TRUE(fabric[1]->TryReceive(&wire, &src));
  auto view = DecodeFactorRow<double>(wire.data(), wire.size());
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("without a negotiated wire codec"),
            std::string::npos);
}

TEST(CodecTransportTest, DeltaDecodesExactlyAndLeaseSyncResetsCaches) {
  CodecPair pair = MakePair(WireCodecSpec::Parse("bf16+delta").value());
  std::vector<double> row = {1.0, -2.0, 0.5, 3.0, 4.0, -8.0, 0.25, 16.0};
  std::vector<uint8_t> frame;
  std::vector<uint8_t> got;
  int src = -1;

  EncodeFactorRow<double>(MsgType::kToken, 4, 10u, row.data(), 8, &frame);
  ASSERT_TRUE(pair.tx->Send(1, frame).ok());
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));

  row[5] = -8.5;
  row[7] = 0.0;
  EncodeFactorRow<double>(MsgType::kToken, 4, 11u, row.data(), 8, &frame);
  ASSERT_TRUE(pair.tx->Send(1, frame).ok());
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));
  EXPECT_EQ(pair.tx->codec_stats().delta_hits, 1);
  auto view = DecodeFactorRow<double>(got.data(), got.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().version, 11u);
  EXPECT_EQ(view.value().flags, 0u);  // the delta flag never leaks upward
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(view.value().values[i],
              static_cast<double>(F32FromBf16(
                  Bf16FromF32(static_cast<float>(row[static_cast<size_t>(i)])))))
        << "entry " << i;
  }

  // The recovery protocol's channel-flush marker invalidates both ends'
  // caches at the same stream position: the next send must go full again.
  ControlFrame marker;
  marker.kind = ControlKind::kLeaseSync;
  marker.rank = 0;
  std::vector<uint8_t> ctrl;
  EncodeControl(marker, &ctrl);
  ASSERT_TRUE(pair.tx->Send(1, ctrl).ok());
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));  // marker passes through
  EXPECT_EQ(got[1], static_cast<uint8_t>(ControlKind::kLeaseSync));

  row[0] = 2.0;
  EncodeFactorRow<double>(MsgType::kToken, 4, 12u, row.data(), 8, &frame);
  const int64_t full_before = pair.tx->codec_stats().delta_full;
  ASSERT_TRUE(pair.tx->Send(1, frame).ok());
  EXPECT_EQ(pair.tx->codec_stats().delta_full, full_before + 1);
  EXPECT_EQ(pair.tx->codec_stats().delta_hits, 1);  // unchanged
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));
  auto after = DecodeFactorRow<double>(got.data(), got.size());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().version, 12u);
}

TEST(CodecTransportTest, StaleDeltaReplicaIsDroppedNotDecoded) {
  // A delta whose base version misses the receiver cache — only injected
  // duplicates/delays can produce one — must be dropped, never decoded
  // against the wrong baseline.
  auto fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("bf16+delta").value();
  CodecTransport rx(fabric[1].get(), opts);

  // Hand-craft a delta frame against base version 999 the receiver never
  // saw, and push it through the raw sender endpoint.
  std::vector<uint8_t> frame = {
      2, 2, 8, 0,                  // [kToken][kBf16][k=8]
      4, 0, 0, 0,                  // id
      13, 0, 0, 0,                 // version
      2, 0, 0, 0,                  // flags = delta
      0xE7, 0x03, 0, 0,            // base_version = 999
      1, 0,                        // nchanged = 1
      0x01,                        // mask: entry 0
      0x80, 0x3F};                 // 1.0
  ASSERT_TRUE(fabric[0]->Send(1, frame).ok());
  std::vector<uint8_t> got;
  int src = -1;
  EXPECT_FALSE(rx.TryReceive(&got, &src));  // dropped, nothing surfaced
  EXPECT_EQ(rx.codec_stats().stale_rejects, 1);
}

TEST(CodecTransportTest, BatchCoalescesAndSplitsOversizedFlushes) {
  // k=8 f64 token frames are 80 bytes (84 with the bundle's length word).
  // A 128-byte frame ceiling fits exactly one per bundle, so flushing five
  // must produce five transport frames, each within the ceiling — the
  // regression for the TCP oversized-frame poisoning.
  auto fabric = MakeLoopbackFabric(2);
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("batch").value();
  opts.max_frame_bytes = 128;
  opts.batch_max_frames = 64;
  opts.batch_max_bytes = 1 << 20;  // only FlushAll() triggers the flush
  CodecTransport tx(fabric[0].get(), opts);

  const std::vector<double> row = SpecialRow<double>(8);
  std::vector<uint8_t> frame;
  for (int i = 0; i < 5; ++i) {
    EncodeFactorRow<double>(MsgType::kToken, i, 1u, row.data(), 8, &frame);
    ASSERT_TRUE(tx.Send(1, frame).ok());
  }
  std::vector<uint8_t> none;
  int src = -1;
  EXPECT_FALSE(fabric[1]->TryReceive(&none, &src));  // all buffered
  ASSERT_TRUE(tx.FlushAll().ok());

  int bundles = 0;
  int sub_frames = 0;
  std::vector<uint8_t> wire;
  while (fabric[1]->TryReceive(&wire, &src)) {
    ++bundles;
    EXPECT_LE(wire.size(), size_t{128});
    EXPECT_EQ(wire[0], static_cast<uint8_t>(MsgType::kBatch));
    auto sub = DecodeBatch(wire.data(), wire.size());
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    for (const auto& f : sub.value()) {
      EXPECT_TRUE(DecodeFactorRow<double>(f.data(), f.size()).ok());
      ++sub_frames;
    }
  }
  EXPECT_EQ(bundles, 5);
  EXPECT_EQ(sub_frames, 5);
  EXPECT_EQ(tx.codec_stats().flushes, 1);
  EXPECT_EQ(tx.codec_stats().split_flushes, 1);
}

TEST(CodecTransportTest, BatchedTokensUnwrapInOrderAtTheReceiver) {
  CodecPair pair = MakePair(WireCodecSpec::Parse("bf16+delta+batch").value());
  const std::vector<double> row = SpecialRow<double>(8);
  std::vector<uint8_t> frame;
  for (int i = 0; i < 3; ++i) {
    EncodeFactorRow<double>(MsgType::kToken, i, 2u, row.data(), 8, &frame);
    ASSERT_TRUE(pair.tx->Send(1, frame).ok());
  }
  // A control frame must not overtake the buffered tokens.
  ControlFrame ctrl;
  ctrl.kind = ControlKind::kTraceSync;
  ctrl.rank = 0;
  std::vector<uint8_t> cbuf;
  EncodeControl(ctrl, &cbuf);
  ASSERT_TRUE(pair.tx->Send(1, cbuf).ok());

  std::vector<uint8_t> got;
  int src = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pair.rx->TryReceive(&got, &src)) << "token " << i;
    auto view = DecodeFactorRow<double>(got.data(), got.size());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().id, i);
  }
  ASSERT_TRUE(pair.rx->TryReceive(&got, &src));
  EXPECT_EQ(got[0], static_cast<uint8_t>(MsgType::kControl));
  EXPECT_FALSE(pair.rx->TryReceive(&got, &src));
}

// ---- seeded streams: byte identity and a mutation search ----

// A Transport that records what is sent and hands out a scripted inbox on
// receive, so one CodecTransport can play every peer's end of a channel.
class ScriptTransport final : public Transport {
 public:
  explicit ScriptTransport(int world) : world_(world) {}
  int rank() const override { return 0; }
  int world() const override { return world_; }
  Status Send(int dest, std::vector<uint8_t> frame) override {
    sent.emplace_back(dest, std::move(frame));
    return Status::OK();
  }
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override {
    if (inbox.empty()) return false;
    *src = inbox.front().first;
    frame->assign(inbox.front().second.begin(), inbox.front().second.end());
    inbox.pop_front();
    return true;
  }
  TransportStats stats() const override { return {}; }
  Status Close() override { return Status::OK(); }

  std::vector<std::pair<int, std::vector<uint8_t>>> sent;
  std::deque<std::pair<int, std::vector<uint8_t>>> inbox;

 private:
  const int world_;
};

// FNV-1a over framed (peer, length, bytes) records.
void Digest(uint64_t* h, int peer, const std::vector<uint8_t>& frame) {
  const auto add = [h](uint8_t byte) {
    *h ^= byte;
    *h *= 1099511628211ULL;
  };
  add(static_cast<uint8_t>(peer));
  for (int shift = 0; shift < 32; shift += 8) {
    add(static_cast<uint8_t>(frame.size() >> shift));
  }
  for (const uint8_t byte : frame) add(byte);
}

struct StreamResult {
  uint64_t wire = 1469598103934665603ULL;
  uint64_t decoded = 1469598103934665603ULL;
  int frames = 0;             // frames the receiver surfaced
  int64_t stale_rejects = 0;  // frames the receiver dropped
};

bool IsDelta(const std::vector<uint8_t>& frame) {
  uint32_t flags = 0;
  if (frame.size() >= kFactorRowHeaderBytes) {
    std::memcpy(&flags, frame.data() + 12, sizeof(flags));
  }
  return (flags & kFactorRowFlagDelta) != 0;
}

// What the solver sees of native value `v` after the codec's round trip.
template <typename Real>
Real Restored(const WireCodecSpec& spec, Real v) {
  const float f = static_cast<float>(v);
  if (spec.bf16) return static_cast<Real>(F32FromBf16(Bf16FromF32(f)));
  if (spec.f16) return static_cast<Real>(F32FromF16(F16FromF32(f)));
  return v;
}

// 3 peers × 50 columns × 6 hops per column through one sender and one
// receiver. Hops change no entry, one, half or all of them; the stream also
// carries a kLeaseSync marker followed by a regrant-flagged token, and the
// receiver is fed a delayed older full-row replica and a duplicated
// replica of the first delta frame (or, without delta, of the first
// frame) of hop 2.
template <typename Real>
StreamResult RunSeededStream(const WireCodecSpec& spec, int k) {
  constexpr int kPeers = 3;
  constexpr int kCols = 50;
  constexpr int kHops = 6;
  CodecOptions opts;
  opts.spec = spec;
  opts.native = WirePrecisionOf<Real>();
  ScriptTransport tx_base(kPeers + 1);
  ScriptTransport rx_base(kPeers + 1);
  CodecTransport tx(&tx_base, opts);
  CodecTransport rx(&rx_base, opts);

  // Uniform in [-2, 2) straight from the engine's output, which the
  // standard fixes (the <random> distributions vary by library).
  std::mt19937_64 rng(1000 + static_cast<uint64_t>(k));
  const auto draw = [&rng] {
    return static_cast<Real>(static_cast<double>(rng() >> 11) * 0x1.0p-51 -
                             2.0);
  };
  std::vector<std::vector<Real>> rows(kPeers * kCols);
  for (auto& row : rows) {
    row.resize(static_cast<size_t>(k));
    for (Real& v : row) v = draw();
  }
  std::vector<uint32_t> version(kPeers * kCols, 0);
  // Native rows by (peer, column, version), to check every decoded value.
  std::map<std::tuple<int, int32_t, uint32_t>, std::vector<Real>> sent_rows;

  StreamResult result;
  std::vector<uint8_t> got;
  const auto deliver = [&](int peer, const std::vector<uint8_t>& wire) {
    rx_base.inbox.emplace_back(peer + 1, wire);
    int src = -1;
    while (rx.TryReceive(&got, &src)) {
      Digest(&result.decoded, src, got);
      ++result.frames;
      if (got[0] == static_cast<uint8_t>(MsgType::kControl)) continue;
      auto view = DecodeFactorRow<Real>(got.data(), got.size());
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      const auto it =
          sent_rows.find({src - 1, view.value().id, view.value().version});
      ASSERT_NE(it, sent_rows.end());
      for (int i = 0; i < k; ++i) {
        ASSERT_EQ(view.value().values[i],
                  Restored(spec, it->second[static_cast<size_t>(i)]))
            << "entry " << i;
      }
    }
  };
  std::vector<uint8_t> wire;  // the last frame the sender put on the wire
  const auto send = [&](int peer, const std::vector<uint8_t>& frame) {
    ASSERT_TRUE(tx.Send(peer + 1, frame).ok());
    ASSERT_EQ(tx_base.sent.size(), size_t{1});
    wire = std::move(tx_base.sent.back().second);
    tx_base.sent.clear();
    Digest(&result.wire, peer + 1, wire);
    deliver(peer, wire);
  };

  std::vector<uint8_t> delayed;  // hop 0 of (peer 0, column 3)
  bool duplicated = false;
  bool regranted = false;
  std::vector<uint8_t> frame;
  for (int hop = 0; hop < kHops; ++hop) {
    if (hop == 3) {
      ControlFrame marker;
      marker.kind = ControlKind::kLeaseSync;
      marker.rank = 0;
      EncodeControl(marker, &frame);
      send(1, frame);
    }
    for (int n = 0; n < kPeers * kCols; ++n) {
      const int at = (n * 37 + hop * 11) % (kPeers * kCols);
      const int peer = at / kCols;
      const int32_t col = at % kCols;
      std::vector<Real>& row = rows[static_cast<size_t>(at)];
      if (hop > 0) {
        const int mode = static_cast<int>(rng() % 4);
        const int changes = mode == 3 ? k : mode == 2 ? k / 2 : mode;
        const int start = static_cast<int>(rng() % static_cast<uint64_t>(k));
        for (int c = 0; c < changes; ++c) {
          row[static_cast<size_t>((start + c) % k)] = draw();
        }
      }
      const uint32_t v = ++version[static_cast<size_t>(at)];
      // The first hop to peer 1 after its marker is a regrant.
      const bool regrant = hop == 3 && peer == 1 && !regranted;
      regranted = regranted || regrant;
      const MsgType type = rng() % 8 == 0 ? MsgType::kHRow : MsgType::kToken;
      EncodeFactorRow<Real>(regrant ? MsgType::kToken : type, col, v,
                            row.data(), k, &frame,
                            regrant ? kFactorRowFlagRegrant : 0u);
      sent_rows[{peer, col, v}] = row;
      send(peer, frame);
      if (hop == 0 && at == 3) delayed = wire;
      if (hop == 2 && !duplicated && (IsDelta(wire) || !spec.delta)) {
        deliver(peer, wire);
        duplicated = true;
      }
    }
    if (hop == 2) deliver(0, delayed);
  }
  result.stale_rejects = rx.codec_stats().stale_rejects;
  return result;
}

struct StreamCase {
  const char* spec;
  bool f32;  // native precision: f32 (else f64)
  int k;
  uint64_t wire;     // digest of every frame put on the wire
  uint64_t decoded;  // digest of every frame the receiver surfaced
  int frames;
};

// A digest that moves means the codec changed the bytes on the wire or the
// frames the solver sees; the test prints the row it measured.
constexpr StreamCase kStreamCases[] = {
    {"bf16", false, 8, 0xca633dfcefe268fb, 0xe0e789fca78d34e3, 903},
    {"bf16", false, 32, 0xf04515da68576e04, 0xe8286ab58d59742c, 903},
    {"bf16", false, 129, 0xe70b929787be4794, 0xf20b91d055084ade, 903},
    {"bf16", true, 8, 0xca633dfcefe268fb, 0x759e774f2613917a, 903},
    {"bf16", true, 32, 0xf04515da68576e04, 0x23c0857a7492fb41, 903},
    {"bf16", true, 129, 0xe70b929787be4794, 0xdbe646f13d4a9759, 903},
    {"f16", false, 8, 0x0baedd03bb7efa00, 0x357eeb43b2334621, 903},
    {"f16", false, 32, 0x54deacaeada19e1b, 0x8316b35eb0001c67, 903},
    {"f16", false, 129, 0x897286cafbff40cd, 0x1393b0f47224e25d, 903},
    {"f16", true, 8, 0x0baedd03bb7efa00, 0x472d2397e13f49dc, 903},
    {"f16", true, 32, 0x54deacaeada19e1b, 0xad2953a0fd75a641, 903},
    {"f16", true, 129, 0x897286cafbff40cd, 0xfb0c60987d39c3fc, 903},
    {"delta", false, 8, 0xebffa75c7728fbbb, 0xdcee1b4fee804f44, 902},
    {"delta", false, 32, 0xd31ef95bef1ab1cc, 0xf72fe79f55766add, 902},
    {"delta", false, 129, 0x1d7187d0f055d039, 0x3cb852138f430353, 902},
    {"delta", true, 8, 0x2d56e650ad1c2751, 0xa491e26059eacc6a, 902},
    {"delta", true, 32, 0x85c764f367050a3c, 0x613e3072bcca43fd, 902},
    {"delta", true, 129, 0xd27c0aea4f8b869a, 0x9b8c1b12c0c67684, 902},
    {"bf16+delta", false, 8, 0xa70030daecfde8f7, 0x751c139a65eb806c, 902},
    {"bf16+delta", false, 32, 0x1c3cfc98eb41a6af, 0xd4dbf633fe776d61, 902},
    {"bf16+delta", false, 129, 0xff72ef8df190d3c9, 0x046046b887c0e652, 902},
    {"bf16+delta", true, 8, 0xa70030daecfde8f7, 0xceab4d94b9e2a9a1, 902},
    {"bf16+delta", true, 32, 0x1c3cfc98eb41a6af, 0xb6c7ec055deccd16, 902},
    {"bf16+delta", true, 129, 0xff72ef8df190d3c9, 0x4938a36b3cdfbc7f, 902},
    {"f16+delta", false, 8, 0xda7a2cc5c323a929, 0xccc5685b0de24114, 902},
    {"f16+delta", false, 32, 0xebb7c40b63d8cb33, 0x208883e2e820931b, 902},
    {"f16+delta", false, 129, 0x2ada3b5fee09861a, 0x445ec973600ce415, 902},
    {"f16+delta", true, 8, 0xda7a2cc5c323a929, 0x1a28e04ed74013f4, 902},
    {"f16+delta", true, 32, 0xebb7c40b63d8cb33, 0x9789b4deec98022f, 902},
    {"f16+delta", true, 129, 0x2ada3b5fee09861a, 0xcb3925db9752f950, 902},
};

TEST(CodecTransportTest, SeededStreamBytesArePinned) {
  for (const StreamCase& c : kStreamCases) {
    SCOPED_TRACE(std::string(c.spec) + (c.f32 ? " f32" : " f64") +
                 " k=" + std::to_string(c.k));
    const WireCodecSpec spec = WireCodecSpec::Parse(c.spec).value();
    const StreamResult r = c.f32 ? RunSeededStream<float>(spec, c.k)
                                 : RunSeededStream<double>(spec, c.k);
    EXPECT_EQ(r.stale_rejects, spec.delta ? 1 : 0);
    EXPECT_EQ(r.frames, c.frames);
    EXPECT_EQ(r.wire, c.wire);
    EXPECT_EQ(r.decoded, c.decoded);
    if (r.wire != c.wire || r.decoded != c.decoded || r.frames != c.frames) {
      std::printf("    {\"%s\", %s, %d, 0x%016llx, 0x%016llx, %d},\n",
                  c.spec, c.f32 ? "true" : "false", c.k,
                  static_cast<unsigned long long>(r.wire),
                  static_cast<unsigned long long>(r.decoded), r.frames);
    }
  }
}

// The k=8 bf16 frames of GoldenDeltaWireBytes: column 9's full row at
// version 5, then the one-entry delta to version 6.
const std::vector<uint8_t> kGoldenFull = {
    2,    2,    8,    0,    9,    0,    0,    0,     // [kToken][kBf16][k][id]
    5,    0,    0,    0,    0,    0,    0,    0,     // version, flags
    0x80, 0x3F, 0x00, 0xC0, 0x00, 0x3F, 0x40, 0x40,  // 1.0 -2.0 0.5 3.0
    0x80, 0x40, 0x00, 0xC1, 0x80, 0x3E, 0x80, 0x41};  // 4.0 -8.0 0.25 16.0
const std::vector<uint8_t> kGoldenDelta = {
    2, 2, 8, 0, 9, 0, 0, 0, 6, 0, 0, 0, 2, 0, 0, 0,  // delta flag
    5, 0, 0, 0, 1, 0, 0x04, 0x80, 0x3E};             // entry 2 = 0.25

TEST(CodecTransportTest, MutatedFramesAreDecodedDroppedOrLeftToTheSolver) {
  // Seeded mutations of the golden frames through a fresh receiver whose
  // channel already holds the golden full row. Each input must decode to
  // a row the solver accepts, be dropped, or reach the solver in a shape
  // it rejects; and the golden delta that follows must still decode.
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // each malformed delta logs a warning
  constexpr int32_t kCols = 16;
  CodecOptions opts;
  opts.spec = WireCodecSpec::Parse("bf16+delta").value();
  opts.columns = kCols;
  const std::vector<double> v5 = {1.0, -2.0, 0.5, 3.0, 4.0, -8.0, 0.25, 16.0};
  std::vector<double> v6 = v5;
  v6[2] = 0.25;
  std::mt19937_64 rng(17);
  int dropped = 0;
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    ScriptTransport base(2);
    CodecTransport rx(&base, opts);
    std::vector<uint8_t> got;
    int src = -1;
    const auto feed = [&](const std::vector<uint8_t>& frame) {
      base.inbox.emplace_back(1, frame);
      return rx.TryReceive(&got, &src);
    };
    const auto expect_row = [&](uint32_t version,
                                const std::vector<double>& values) {
      auto view = DecodeFactorRow<double>(got.data(), got.size());
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      EXPECT_EQ(view.value().id, 9);
      EXPECT_EQ(view.value().version, version);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(view.value().values[i], values[static_cast<size_t>(i)]);
      }
    };
    ASSERT_TRUE(feed(kGoldenFull));
    expect_row(5, v5);

    std::vector<uint8_t> input = rng() % 2 == 0 ? kGoldenFull : kGoldenDelta;
    const int op = static_cast<int>(rng() % 5);
    SCOPED_TRACE("iteration " + std::to_string(iter) + " op " +
                 std::to_string(op));
    if (op == 0) {  // flip 1-3 bits
      for (int n = static_cast<int>(rng() % 3); n >= 0; --n) {
        input[rng() % input.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
    } else if (op == 1) {  // truncate
      input.resize(rng() % input.size());
    } else if (op == 2) {  // extend
      for (int n = static_cast<int>(rng() % 8); n >= 0; --n) {
        input.push_back(static_cast<uint8_t>(rng()));
      }
    } else {  // an id at or past the job's columns
      const int32_t id = op == 3 ? kCols : std::numeric_limits<int32_t>::max();
      std::memcpy(input.data() + 4, &id, sizeof(id));
    }

    bool moved_baseline = false;  // the input decoded as column 9's row
    if (!feed(input)) {
      ++dropped;
      EXPECT_LT(op, 3) << "a row with an out-of-range id was dropped";
    } else {
      // What the solver's pump accepts: a token or h row of this job's
      // shape. Anything else fails the job with InvalidArgument.
      auto view = DecodeFactorRow<double>(got.data(), got.size());
      if (view.ok() && got[0] != static_cast<uint8_t>(MsgType::kWRow) &&
          view.value().k == 8 && view.value().id < kCols) {
        ++decoded;
        moved_baseline = view.value().id == 9;
        EXPECT_LT(op, 3) << "a row with an out-of-range id decoded";
      } else {
        ++rejected;
      }
      EXPECT_FALSE(rx.TryReceive(&got, &src));  // one frame in, one out
    }
    if (feed(kGoldenDelta)) {
      if (!moved_baseline) expect_row(6, v6);
    } else {
      EXPECT_TRUE(moved_baseline) << "the golden delta was dropped";
    }
    ASSERT_TRUE(feed(kGoldenFull));
    expect_row(5, v5);
  }
  SetLogLevel(log_level);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---- TCP integration: hello negotiation + the oversized-frame fix ----

TEST(CodecTcpTest, HelloCodecMismatchRefusesToConnect) {
  TcpOptions opts0;
  opts0.hello_codec = WireCodecSpec::Parse("bf16+delta").value().ToByte();
  opts0.connect_timeout_seconds = 2.0;
  TcpOptions opts1;
  opts1.hello_codec = 0;  // rank 1 runs no codec
  opts1.connect_timeout_seconds = 2.0;

  auto t0 = TcpTransport::Listen(0, 2, 0, opts0);
  ASSERT_TRUE(t0.ok()) << t0.status().ToString();
  auto t1 = TcpTransport::Listen(1, 2, 0, opts1);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  const std::vector<TcpPeer> peers = {
      {"127.0.0.1", t0.value()->listen_port()},
      {"127.0.0.1", t1.value()->listen_port()}};

  Status s0, s1;
  std::thread r0([&] { s0 = t0.value()->Establish(peers); });
  std::thread r1([&] { s1 = t1.value()->Establish(peers); });
  r0.join();
  r1.join();
  // Rank 1 dials rank 0 and must surface the mismatch; rank 0 never sees a
  // valid peer and times out.
  EXPECT_FALSE(s1.ok());
  EXPECT_NE(s1.message().find("wire codec mismatch"), std::string::npos)
      << s1.ToString();
  EXPECT_FALSE(s0.ok());
}

TEST(CodecTcpTest, SendRejectsOversizedFrameWithoutPoisoningTheLink) {
  TcpOptions opts;
  opts.max_frame_bytes = 256;
  opts.connect_timeout_seconds = 10.0;
  auto t0 = TcpTransport::Listen(0, 2, 0, opts);
  ASSERT_TRUE(t0.ok());
  auto t1 = TcpTransport::Listen(1, 2, 0, opts);
  ASSERT_TRUE(t1.ok());
  const std::vector<TcpPeer> peers = {
      {"127.0.0.1", t0.value()->listen_port()},
      {"127.0.0.1", t1.value()->listen_port()}};
  Status s0, s1;
  std::thread r0([&] { s0 = t0.value()->Establish(peers); });
  std::thread r1([&] { s1 = t1.value()->Establish(peers); });
  r0.join();
  r1.join();
  ASSERT_TRUE(s0.ok()) << s0.ToString();
  ASSERT_TRUE(s1.ok()) << s1.ToString();

  // Before the fix this frame crossed the wire and the receiver dropped
  // the whole connection on its length prefix; now the sender rejects it.
  std::vector<uint8_t> oversized(1000, 0x5A);
  oversized[0] = static_cast<uint8_t>(MsgType::kControl);
  const Status rejected = t0.value()->Send(1, oversized);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("max_frame_bytes"), std::string::npos);

  // The link stays healthy: a well-sized frame still goes through.
  ControlFrame ctrl;
  ctrl.kind = ControlKind::kTraceSync;
  ctrl.rank = 0;
  std::vector<uint8_t> small;
  EncodeControl(ctrl, &small);
  ASSERT_TRUE(t0.value()->Send(1, small).ok());
  std::vector<uint8_t> got;
  int src = -1;
  for (int spin = 0; spin < 2000 && !t1.value()->TryReceive(&got, &src);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0], static_cast<uint8_t>(MsgType::kControl));
  EXPECT_EQ(src, 0);
  ASSERT_TRUE(t0.value()->Close().ok());
  ASSERT_TRUE(t1.value()->Close().ok());
}

}  // namespace
}  // namespace net
}  // namespace nomad
