#include "net/wire_format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace nomad {
namespace net {
namespace {

template <typename Real>
std::vector<Real> MakeRow(int k) {
  std::vector<Real> row(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    row[static_cast<size_t>(i)] = static_cast<Real>(0.25 * i - 3.5);
  }
  return row;
}

template <typename Real>
void RoundTripAt(int k) {
  const std::vector<Real> row = MakeRow<Real>(k);
  std::vector<uint8_t> buf;
  EncodeFactorRow<Real>(MsgType::kToken, /*id=*/k + 7, /*version=*/99u,
                        row.data(), k, &buf);
  EXPECT_EQ(buf.size(),
            kFactorRowHeaderBytes + static_cast<size_t>(k) * sizeof(Real));
  auto peek = PeekType(buf.data(), buf.size());
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek.value(), MsgType::kToken);
  auto view = DecodeFactorRow<Real>(buf.data(), buf.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().type, MsgType::kToken);
  EXPECT_EQ(view.value().id, k + 7);
  EXPECT_EQ(view.value().version, 99u);
  ASSERT_EQ(view.value().k, k);
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(view.value().values[i], row[static_cast<size_t>(i)]);
  }
}

// k = 129 exercises the unaligned tail the SIMD kernels care about: the
// payload is not a multiple of any vector width, so a byte-count bug in
// either codec shows up as a truncation error or a corrupt last entry.
TEST(WireFormatTest, FactorRowRoundTripsF64) {
  for (int k : {8, 32, 129}) RoundTripAt<double>(k);
}

TEST(WireFormatTest, FactorRowRoundTripsF32) {
  for (int k : {8, 32, 129}) RoundTripAt<float>(k);
}

TEST(WireFormatTest, AllRowTypesSurviveRoundTrip) {
  const std::vector<double> row = MakeRow<double>(8);
  for (MsgType type : {MsgType::kToken, MsgType::kHRow, MsgType::kWRow}) {
    std::vector<uint8_t> buf;
    EncodeFactorRow<double>(type, 3, 1u, row.data(), 8, &buf);
    auto view = DecodeFactorRow<double>(buf.data(), buf.size());
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().type, type);
  }
}

TEST(WireFormatTest, TruncatedFramesAreRejected) {
  const std::vector<double> row = MakeRow<double>(32);
  std::vector<uint8_t> buf;
  EncodeFactorRow<double>(MsgType::kToken, 1, 0u, row.data(), 32, &buf);
  // Every proper prefix must fail cleanly — header-only prefixes, partial
  // payloads, and the degenerate empty buffer.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{11}, size_t{15}, size_t{16},
                     buf.size() - 8, buf.size() - 1}) {
    auto view = DecodeFactorRow<double>(buf.data(), cut);
    EXPECT_FALSE(view.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireFormatTest, OversizedFramesAreRejected) {
  const std::vector<float> row = MakeRow<float>(8);
  std::vector<uint8_t> buf;
  EncodeFactorRow<float>(MsgType::kToken, 1, 0u, row.data(), 8, &buf);
  buf.push_back(0xAB);  // trailing garbage must not be silently ignored
  auto view = DecodeFactorRow<float>(buf.data(), buf.size());
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("oversized"), std::string::npos)
      << view.status().ToString();
}

TEST(WireFormatTest, CrossPrecisionMismatchIsACleanError) {
  const std::vector<float> frow = MakeRow<float>(16);
  std::vector<uint8_t> f32_frame;
  EncodeFactorRow<float>(MsgType::kToken, 5, 2u, frow.data(), 16, &f32_frame);
  auto as_f64 = DecodeFactorRow<double>(f32_frame.data(), f32_frame.size());
  EXPECT_FALSE(as_f64.ok());
  EXPECT_EQ(as_f64.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(as_f64.status().message().find("precision mismatch"),
            std::string::npos)
      << as_f64.status().ToString();

  const std::vector<double> drow = MakeRow<double>(16);
  std::vector<uint8_t> f64_frame;
  EncodeFactorRow<double>(MsgType::kToken, 5, 2u, drow.data(), 16,
                          &f64_frame);
  auto as_f32 = DecodeFactorRow<float>(f64_frame.data(), f64_frame.size());
  EXPECT_FALSE(as_f32.ok());
  EXPECT_NE(as_f32.status().message().find("precision mismatch"),
            std::string::npos);
}

TEST(WireFormatTest, CorruptHeaderFieldsAreRejected) {
  const std::vector<double> row = MakeRow<double>(8);
  std::vector<uint8_t> buf;
  EncodeFactorRow<double>(MsgType::kToken, 1, 0u, row.data(), 8, &buf);

  std::vector<uint8_t> bad_precision = buf;
  bad_precision[1] = 9;  // unknown precision byte
  EXPECT_FALSE(
      DecodeFactorRow<double>(bad_precision.data(), bad_precision.size())
          .ok());

  std::vector<uint8_t> bad_k = buf;
  const uint16_t huge_k = kMaxWireK + 1;
  std::memcpy(bad_k.data() + 2, &huge_k, sizeof(huge_k));
  EXPECT_FALSE(DecodeFactorRow<double>(bad_k.data(), bad_k.size()).ok());

  std::vector<uint8_t> bad_id = buf;
  const int32_t negative = -4;
  std::memcpy(bad_id.data() + 4, &negative, sizeof(negative));
  EXPECT_FALSE(DecodeFactorRow<double>(bad_id.data(), bad_id.size()).ok());

  std::vector<uint8_t> bad_flags = buf;
  bad_flags[13] = 1;  // flags bit 8 — beyond kFactorRowKnownFlags
  EXPECT_FALSE(
      DecodeFactorRow<double>(bad_flags.data(), bad_flags.size()).ok());

  std::vector<uint8_t> not_a_row = buf;
  not_a_row[0] = static_cast<uint8_t>(MsgType::kControl);
  EXPECT_FALSE(
      DecodeFactorRow<double>(not_a_row.data(), not_a_row.size()).ok());
}

TEST(WireFormatTest, RegrantFlagRoundTripsOnTokens) {
  const std::vector<double> row = MakeRow<double>(8);
  std::vector<uint8_t> buf;
  EncodeFactorRow<double>(MsgType::kToken, 3, 7u, row.data(), 8, &buf,
                          kFactorRowFlagRegrant);
  auto view = DecodeFactorRow<double>(buf.data(), buf.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().flags, kFactorRowFlagRegrant);

  // The flag is only meaningful on token frames; a flagged kHRow is a
  // protocol violation and must not decode.
  std::vector<uint8_t> hrow = buf;
  hrow[0] = static_cast<uint8_t>(MsgType::kHRow);
  EXPECT_FALSE(DecodeFactorRow<double>(hrow.data(), hrow.size()).ok());
}

TEST(WireFormatTest, PeekTypeRejectsGarbage) {
  EXPECT_FALSE(PeekType(nullptr, 0).ok());
  const uint8_t unknown = 200;
  EXPECT_FALSE(PeekType(&unknown, 1).ok());
  const uint8_t zero = 0;
  EXPECT_FALSE(PeekType(&zero, 1).ok());
}

TEST(WireFormatTest, HelloRoundTrips) {
  HelloFrame hello;
  hello.rank = 3;
  hello.world = 8;
  hello.k = 32;
  hello.precision = WirePrecision::kF32;
  std::vector<uint8_t> buf;
  EncodeHello(hello, &buf);
  auto decoded = DecodeHello(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().rank, 3);
  EXPECT_EQ(decoded.value().world, 8);
  EXPECT_EQ(decoded.value().k, 32);
  EXPECT_EQ(decoded.value().precision, WirePrecision::kF32);
}

TEST(WireFormatTest, HelloRejectsBadMagicLengthAndRank) {
  HelloFrame hello;
  hello.rank = 0;
  hello.world = 2;
  std::vector<uint8_t> buf;
  EncodeHello(hello, &buf);
  EXPECT_FALSE(DecodeHello(buf.data(), buf.size() - 1).ok());
  std::vector<uint8_t> oversized = buf;
  oversized.push_back(0);
  EXPECT_FALSE(DecodeHello(oversized.data(), oversized.size()).ok());
  std::vector<uint8_t> bad_magic = buf;
  bad_magic[2] ^= 0xFF;
  EXPECT_FALSE(DecodeHello(bad_magic.data(), bad_magic.size()).ok());
  // The magic names the framing that follows the hello ("NOM2": LEB128
  // length prefixes), so a peer on the old u32 framing ("NOM1") is refused.
  EXPECT_EQ(std::string(buf.begin() + 1, buf.begin() + 5), "NOM2");
  std::vector<uint8_t> old_framing = buf;
  old_framing[4] = '1';
  EXPECT_FALSE(DecodeHello(old_framing.data(), old_framing.size()).ok());
  HelloFrame bad_rank;
  bad_rank.rank = 5;
  bad_rank.world = 2;
  EncodeHello(bad_rank, &buf);
  EXPECT_FALSE(DecodeHello(buf.data(), buf.size()).ok());
}

TEST(WireFormatTest, ControlRoundTripsEveryKind) {
  for (uint8_t raw = static_cast<uint8_t>(ControlKind::kBarrierRequest);
       raw <= static_cast<uint8_t>(ControlKind::kLeaseSync); ++raw) {
    ControlFrame frame;
    frame.kind = static_cast<ControlKind>(raw);
    frame.flag = 1;
    frame.rank = 2;
    frame.epoch = 17;
    frame.held = 123;
    frame.updates = 1'000'000'007;
    frame.count = 55;
    frame.tokens_sent = 42;
    frame.tokens_received = 43;
    frame.bytes_sent = 1 << 20;
    frame.bytes_received = 1 << 19;
    frame.sq_err = 3.25;
    frame.seconds = 0.125;
    std::vector<uint8_t> buf;
    EncodeControl(frame, &buf);
    auto peek = PeekType(buf.data(), buf.size());
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(peek.value(), MsgType::kControl);
    auto decoded = DecodeControl(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const ControlFrame& d = decoded.value();
    EXPECT_EQ(static_cast<uint8_t>(d.kind), raw);
    EXPECT_EQ(d.flag, 1);
    EXPECT_EQ(d.rank, 2);
    EXPECT_EQ(d.epoch, 17);
    EXPECT_EQ(d.held, 123);
    EXPECT_EQ(d.updates, 1'000'000'007);
    EXPECT_EQ(d.count, 55);
    EXPECT_EQ(d.tokens_sent, 42);
    EXPECT_EQ(d.tokens_received, 43);
    EXPECT_EQ(d.bytes_sent, 1 << 20);
    EXPECT_EQ(d.bytes_received, 1 << 19);
    EXPECT_EQ(d.sq_err, 3.25);
    EXPECT_EQ(d.seconds, 0.125);
  }
}

TEST(WireFormatTest, ControlRejectsBadLengthAndKind) {
  ControlFrame frame;
  std::vector<uint8_t> buf;
  EncodeControl(frame, &buf);
  EXPECT_FALSE(DecodeControl(buf.data(), buf.size() - 1).ok());
  std::vector<uint8_t> oversized = buf;
  oversized.push_back(0);
  EXPECT_FALSE(DecodeControl(oversized.data(), oversized.size()).ok());
  std::vector<uint8_t> bad_kind = buf;
  bad_kind[1] = 200;
  EXPECT_FALSE(DecodeControl(bad_kind.data(), bad_kind.size()).ok());
}

}  // namespace
}  // namespace net
}  // namespace nomad
