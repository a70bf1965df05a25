#include <gtest/gtest.h>

#include <cstdio>

#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace soreorg {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "NotFound: missing");

  EXPECT_TRUE(Status::Backoff().IsBackoff());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("").compare(Slice("a")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("bc")));
}

TEST(SliceTest, EmptyIsMinusInfinity) {
  // The tree uses the empty slice as -infinity separator; it must compare
  // below every non-empty key.
  EXPECT_LT(Slice("").compare(Slice(std::string(1, '\0'))), 0);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice in(buf);
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed16(&in, &v16));
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v16, 0xbeef);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    PutVarint64(&buf, v);
  }
  Slice in(buf);
  for (uint64_t want : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                        ~0ull}) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, want);
  }
}

TEST(CodingTest, VarintTruncated) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  Slice in(buf.data(), buf.size() - 1);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a, Slice("hello"));
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, U64KeyOrderMatchesNumericOrder) {
  std::string prev = EncodeU64Key(0);
  for (uint64_t v : {1ull, 2ull, 255ull, 256ull, 65535ull, 1ull << 31,
                     (1ull << 63) + 5}) {
    std::string cur = EncodeU64Key(v);
    EXPECT_LT(Slice(prev).compare(cur), 0) << v;
    EXPECT_EQ(DecodeU64Key(cur), v);
    prev = cur;
  }
}

TEST(Crc32cTest, KnownProperties) {
  const char* data = "hello world";
  uint32_t c1 = crc32c::Value(data, 11);
  uint32_t c2 = crc32c::Value(data, 11);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, crc32c::Value(data, 10));
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(c1)), c1);
  EXPECT_NE(crc32c::Mask(c1), c1);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const char* data = "hello world";
  uint32_t whole = crc32c::Value(data, 11);
  uint32_t split = crc32c::Extend(crc32c::Value(data, 5), data + 5, 6);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, StandardCheckValue) {
  // The CRC-32C check value from the catalogue of parametrised CRCs.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::ExtendBytewise(0, "123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, HardwarePathMatchesBytewiseOracle) {
  // Random lengths 0..5000 at start offsets 0..7, chained from random
  // initial CRCs: Extend (hardware when present) must equal the
  // byte-at-a-time table.
  std::fprintf(stderr, "[crc32c] hardware=%d\n",
               crc32c::IsHardwareAccelerated() ? 1 : 0);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Random rnd(seed);
    std::string buf(5000 + 8, '\0');
    for (char& c : buf) c = static_cast<char>(rnd.Next());
    for (int iter = 0; iter < 300; ++iter) {
      const size_t off = rnd.Uniform(8);
      const size_t len = rnd.Uniform(5001);
      const uint32_t init =
          iter % 3 == 0 ? 0 : static_cast<uint32_t>(rnd.Next());
      const char* p = buf.data() + off;
      const uint32_t want = crc32c::ExtendBytewise(init, p, len);
      ASSERT_EQ(crc32c::Extend(init, p, len), want)
          << "seed " << seed << " off " << off << " len " << len;
    }
  }
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(17), b(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Random r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

}  // namespace
}  // namespace soreorg
