// Unit tests for the common utilities: bytes, serialization, Result, RNG,
// SimClock.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace securecloud {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0x7f, 0x80, 0xff, 0xde, 0xad};
  const std::string hex = hex_encode(data);
  EXPECT_EQ(hex, "00017f80ffdead");
  EXPECT_EQ(hex_decode(hex), data);
}

TEST(Bytes, HexDecodeUppercase) {
  EXPECT_EQ(hex_decode("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Bytes, HexDecodeStrictRejectsMalformed) {
  Bytes out;
  EXPECT_FALSE(hex_decode_strict("abc", out));   // odd length
  EXPECT_FALSE(hex_decode_strict("zz", out));    // non-hex
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(hex_decode_strict("", out));       // empty is valid
}

TEST(Bytes, EndianCodecsRoundTrip) {
  std::uint8_t buf[8];
  store_le32(buf, 0x12345678u);
  EXPECT_EQ(load_le32(ByteView(buf, 4)), 0x12345678u);
  EXPECT_EQ(buf[0], 0x78);

  store_be32(buf, 0x12345678u);
  EXPECT_EQ(load_be32(ByteView(buf, 4)), 0x12345678u);
  EXPECT_EQ(buf[0], 0x12);

  store_le64(buf, 0x0102030405060708ull);
  EXPECT_EQ(load_le64(ByteView(buf, 8)), 0x0102030405060708ull);
  store_be64(buf, 0x0102030405060708ull);
  EXPECT_EQ(load_be64(ByteView(buf, 8)), 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x01);
}

TEST(Bytes, SerializerRoundTrip) {
  Bytes b;
  put_u8(b, 7);
  put_u32(b, 123456u);
  put_u64(b, 0xdeadbeefcafebabeull);
  put_blob(b, Bytes{1, 2, 3});
  put_str(b, "hello");

  ByteReader r(b);
  std::uint8_t v8;
  std::uint32_t v32;
  std::uint64_t v64;
  Bytes blob;
  std::string s;
  ASSERT_TRUE(r.get_u8(v8));
  ASSERT_TRUE(r.get_u32(v32));
  ASSERT_TRUE(r.get_u64(v64));
  ASSERT_TRUE(r.get_blob(blob));
  ASSERT_TRUE(r.get_str(s));
  EXPECT_EQ(v8, 7);
  EXPECT_EQ(v32, 123456u);
  EXPECT_EQ(v64, 0xdeadbeefcafebabeull);
  EXPECT_EQ(blob, (Bytes{1, 2, 3}));
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderRejectsTruncation) {
  Bytes b;
  put_blob(b, Bytes(10, 0xaa));
  b.resize(b.size() - 1);  // truncate payload

  ByteReader r(b);
  Bytes blob;
  EXPECT_FALSE(r.get_blob(blob));
}

TEST(Bytes, ReaderRejectsOversizedLengthPrefix) {
  Bytes b;
  put_u32(b, 0xffffffffu);  // claims 4 GiB payload
  ByteReader r(b);
  Bytes blob;
  EXPECT_FALSE(r.get_blob(blob));
}

TEST(Bytes, ReaderBoundsCountsByRemainingBytes) {
  Bytes b;
  put_u32(b, 2);
  put_u64(b, 1);
  put_u64(b, 2);
  std::uint32_t n = 0;
  ByteReader fits(b);
  ASSERT_TRUE(fits.get_count(n, 8));  // two 8-byte entries follow
  EXPECT_EQ(n, 2u);
  ByteReader too_wide(b);
  EXPECT_FALSE(too_wide.get_count(n, 9));  // 18 bytes cannot fit in 16

  Bytes huge;
  put_u32(huge, 0xffffffffu);  // four billion entries in zero bytes
  ByteReader hostile(huge);
  EXPECT_FALSE(hostile.get_count(n, 1));
}

TEST(Result, OkAndErrorPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Error::not_found("missing");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(err.error().message, "missing");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, StatusDefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e = Error::integrity("bad MAC");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Result, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::kIntegrityViolation), "integrity_violation");
  EXPECT_STREQ(to_string(ErrorCode::kAttestationFailure), "attestation_failure");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(42);
  const int n = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(42);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(42);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[50] * 3);
  // All values in range.
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 100000);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled.begin(), shuffled.end());
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(SimClock, CycleAccounting) {
  SimClock clock(2.0);  // 2 GHz
  clock.advance_cycles(2'000'000'000);
  EXPECT_DOUBLE_EQ(clock.seconds(), 1.0);
  EXPECT_EQ(clock.nanos(), 1'000'000'000u);
  clock.reset();
  EXPECT_EQ(clock.cycles(), 0u);
}

TEST(SimClock, AdvanceNsConvertsToCycles) {
  SimClock clock(2.6);
  clock.advance_ns(1000);
  EXPECT_EQ(clock.cycles(), 2600u);
}

// Regression: the conversion used a double intermediate, which loses
// low-order cycles once ns * hz exceeds 2^53 (e.g. a ~31s advance at
// 2.6 GHz was already off by a few cycles). The 128-bit integer path
// must be exact for any input.
TEST(SimClock, AdvanceNsExactForHugeDurations) {
  SimClock clock(2.6);
  clock.advance_ns(1'000'000'000'000'000'000ull);  // 10^18 ns
  EXPECT_EQ(clock.cycles(), 2'600'000'000'000'000'000ull);

  clock.reset();
  // 2^53 + 1 ns: a double intermediate cannot even represent the input,
  // so the old path silently dropped cycles. Exact: floor((2^53+1)*13/5).
  clock.advance_ns((1ull << 53) + 1);
  EXPECT_EQ(clock.cycles(), 23'418'718'062'326'581ull);
}

TEST(SimClock, ClockShardFlushesExactTotals) {
  SimClock clock(2.0);
  {
    ClockShard shard(clock);
    shard.advance_cycles(100);
    shard.advance_ns(50);  // 100 cycles at 2 GHz
    EXPECT_EQ(shard.pending(), 200u);
    EXPECT_EQ(clock.cycles(), 0u);  // batched, not yet visible
    shard.flush();
    EXPECT_EQ(clock.cycles(), 200u);
    shard.advance_cycles(7);
  }  // destructor flushes the tail
  EXPECT_EQ(clock.cycles(), 207u);
}

}  // namespace
}  // namespace securecloud
