// Unit tests for the hand-rolled wire format (common/serde.h).
#include "common/serde.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/rng.h"

namespace qrdtm {
namespace {

TEST(Serde, RoundTripsFixedWidthIntegers) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RoundTripsExtremeValues) {
  Writer w;
  w.u64(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i64(std::numeric_limits<std::int64_t>::max());
  Reader r(w.bytes());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::max());
}

TEST(Serde, RoundTripsDoubles) {
  const double values[] = {0.0, -0.0, 1.5, -3.25e300, 1e-300,
                           std::numeric_limits<double>::infinity()};
  Writer w;
  for (double v : values) w.f64(v);
  Reader r(w.bytes());
  for (double v : values) EXPECT_EQ(r.f64(), v);
}

TEST(Serde, RoundTripsStringsAndBlobs) {
  Writer w;
  w.str("");
  w.str("hello quorum");
  w.blob(Bytes{});
  w.blob(Bytes{0x00, 0xFF, 0x10});
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello quorum");
  EXPECT_EQ(r.blob(), Bytes{});
  EXPECT_EQ(r.blob(), (Bytes{0x00, 0xFF, 0x10}));
  EXPECT_TRUE(r.done());
}

TEST(Serde, VectorHelperRoundTrips) {
  std::vector<std::uint64_t> v = {1, 2, 3, 1ull << 60};
  Writer w;
  encode_vec(w, v, [](Writer& w2, std::uint64_t x) { w2.u64(x); });
  Reader r(w.bytes());
  auto got =
      decode_vec<std::uint64_t>(r, [](Reader& r2) { return r2.u64(); });
  EXPECT_EQ(got, v);
}

TEST(Serde, UnderflowThrows) {
  Writer w;
  w.u16(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), SerdeError);
}

TEST(Serde, TruncatedStringThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r(w.bytes());
  EXPECT_THROW(r.str(), SerdeError);
}

TEST(Serde, CorruptVectorCountThrows) {
  Writer w;
  w.u32(0xFFFFFFFFu);
  Reader r(w.bytes());
  EXPECT_THROW(
      (decode_vec<std::uint8_t>(r, [](Reader& r2) { return r2.u8(); })),
      SerdeError);
}

TEST(Serde, ExpectDoneCatchesTrailingGarbage) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW(r.expect_done(), SerdeError);
}

// Property: random sequences of typed writes decode back identically.
TEST(SerdeProperty, RandomRoundTrips) {
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    Writer w;
    std::vector<std::uint64_t> expected;
    std::vector<int> kinds;
    int n = static_cast<int>(rng.below(20)) + 1;
    for (int i = 0; i < n; ++i) {
      int kind = static_cast<int>(rng.below(4));
      std::uint64_t v = rng.next();
      kinds.push_back(kind);
      switch (kind) {
        case 0:
          w.u8(static_cast<std::uint8_t>(v));
          expected.push_back(static_cast<std::uint8_t>(v));
          break;
        case 1:
          w.u16(static_cast<std::uint16_t>(v));
          expected.push_back(static_cast<std::uint16_t>(v));
          break;
        case 2:
          w.u32(static_cast<std::uint32_t>(v));
          expected.push_back(static_cast<std::uint32_t>(v));
          break;
        default:
          w.u64(v);
          expected.push_back(v);
          break;
      }
    }
    Reader r(w.bytes());
    for (int i = 0; i < n; ++i) {
      std::uint64_t got = 0;
      switch (kinds[i]) {
        case 0:
          got = r.u8();
          break;
        case 1:
          got = r.u16();
          break;
        case 2:
          got = r.u32();
          break;
        default:
          got = r.u64();
          break;
      }
      ASSERT_EQ(got, expected[i]) << "iter " << iter << " field " << i;
    }
    EXPECT_TRUE(r.done());
  }
}

// Byte-at-a-time little-endian reference: what the wire format means,
// independent of how Writer copies a field.
void put_le_ref(Bytes& out, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// Property: every fixed-width field is laid out little-endian, byte for
// byte, whatever the host copies it with -- and reads back to its value.
TEST(SerdeProperty, FixedWidthFieldsMatchLittleEndianReference) {
  Rng rng(4321);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t v = rng.next();
    double d;
    std::memcpy(&d, &v, sizeof(d));  // any bit pattern, NaNs included

    Writer w;
    w.u16(static_cast<std::uint16_t>(v));
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    w.i64(static_cast<std::int64_t>(v));
    w.f64(d);

    Bytes ref;
    put_le_ref(ref, static_cast<std::uint16_t>(v), 2);
    put_le_ref(ref, static_cast<std::uint32_t>(v), 4);
    put_le_ref(ref, v, 8);
    put_le_ref(ref, v, 8);
    put_le_ref(ref, v, 8);
    ASSERT_EQ(w.bytes(), ref) << "iter " << iter;

    Reader r(ref);
    EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(r.u64(), v);
    EXPECT_EQ(r.i64(), static_cast<std::int64_t>(v));
    const double got = r.f64();
    std::uint64_t bits;
    std::memcpy(&bits, &got, sizeof(bits));
    EXPECT_EQ(bits, v);
    EXPECT_TRUE(r.done());
  }
}

}  // namespace
}  // namespace qrdtm
