// Unit tests for src/common: Buffer serialization, checks, RNG, units.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/units.h"

namespace cts {
namespace {

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(CTS_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(CTS_CHECK_EQ(3, 3));
  EXPECT_NO_THROW(CTS_CHECK_LT(1, 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(CTS_CHECK(false), CheckError);
  EXPECT_THROW(CTS_CHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(CTS_CHECK_MSG(false, "context " << 42), CheckError);
}

TEST(Check, MessageContainsExpressionAndOperands) {
  try {
    CTS_CHECK_EQ(2 + 2, 5);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2"), std::string::npos);
    EXPECT_NE(what.find("lhs=4"), std::string::npos);
    EXPECT_NE(what.find("rhs=5"), std::string::npos);
  }
}

TEST(Buffer, ScalarRoundTrip) {
  Buffer b;
  b.write_u8(0xab);
  b.write_u32(0xdeadbeefu);
  b.write_u64(0x0123456789abcdefULL);
  b.write_i32(-42);

  EXPECT_EQ(b.read_u8(), 0xab);
  EXPECT_EQ(b.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(b.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(b.read_i32(), -42);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Buffer, LittleEndianLayout) {
  Buffer b;
  b.write_u32(0x01020304u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data()[0], 0x04);
  EXPECT_EQ(b.data()[3], 0x01);
}

TEST(Buffer, StringRoundTrip) {
  Buffer b;
  b.write_string("hello terasort");
  b.write_string("");
  EXPECT_EQ(b.read_string(), "hello terasort");
  EXPECT_EQ(b.read_string(), "");
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Buffer, UnderrunThrows) {
  Buffer b;
  b.write_u8(1);
  (void)b.read_u8();
  EXPECT_THROW((void)b.read_u8(), CheckError);
  EXPECT_THROW((void)b.read_u32(), CheckError);
}

TEST(Buffer, RewindAndSeek) {
  Buffer b;
  b.write_u32(7);
  b.write_u32(9);
  EXPECT_EQ(b.read_u32(), 7u);
  b.rewind();
  EXPECT_EQ(b.read_u32(), 7u);
  b.seek(4);
  EXPECT_EQ(b.read_u32(), 9u);
  EXPECT_THROW(b.seek(100), CheckError);
}

TEST(Buffer, CloneIsDeepAndPreservesCursor) {
  Buffer b;
  b.write_u32(1);
  b.write_u32(2);
  (void)b.read_u32();
  Buffer c = b.Clone();
  EXPECT_EQ(c.read_u32(), 2u);
  EXPECT_EQ(b.read_u32(), 2u);  // original cursor unaffected by clone's
}

TEST(Buffer, ReadViewIsZeroCopyWindow) {
  Buffer b;
  const std::vector<std::uint8_t> data{10, 20, 30, 40};
  b.write_bytes(data);
  const auto v = b.read_view(2);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(b.remaining(), 2u);
}

TEST(Buffer, TakeStealsBytes) {
  Buffer b;
  b.write_u8(5);
  const auto bytes = b.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(Random, SplitMixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(SplitMix64(s1), SplitMix64(s2) + 1);  // streams advanced equally
}

TEST(Random, Mix64SpreadsNearbyInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Random, XoshiroDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool all_equal = true;
  Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Random, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Random, BelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Random, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stopwatch, ElapsedIsMonotonic) {
  Stopwatch w;
  const double t1 = w.elapsed();
  const double t2 = w.elapsed();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
}

TEST(Stopwatch, AccumulatorSums) {
  Accumulator acc;
  acc.start();
  acc.stop();
  acc.start();
  acc.stop();
  EXPECT_GE(acc.total(), 0.0);
  acc.reset();
  EXPECT_EQ(acc.total(), 0.0);
}

TEST(Units, HumanBytes) {
  EXPECT_EQ(HumanBytes(12e9), "12.00 GB");
  EXPECT_EQ(HumanBytes(750e6), "750.00 MB");
  EXPECT_EQ(HumanBytes(1500), "1.50 kB");
  EXPECT_EQ(HumanBytes(17), "17 B");
}

TEST(Units, HumanRate) {
  EXPECT_EQ(HumanRate(100 * kMbps), "100.0 Mbps");
  EXPECT_EQ(HumanRate(12.5e6), "100.0 Mbps");  // 12.5 MB/s == 100 Mbps
}

TEST(Units, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(945.72), "945.72 s");
  EXPECT_EQ(HumanSeconds(0.0025), "2.50 ms");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("demo");
  t.set_header({"stage", "sec"});
  t.add_row({"Map", "1.86"});
  t.add_row({"Shuffle", "945.72"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("Shuffle"), std::string::npos);
  EXPECT_NE(s.find("945.72"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t("bad");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace cts
