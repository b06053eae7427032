// Pins the benchmark's own arithmetic (perfbench/benchstats.h).
#include "perfbench/benchstats.h"

#include <gtest/gtest.h>

namespace cts::perfbench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  // Too few samples: no percentile has ten beyond it.
  EXPECT_EQ(TailPercentile(0), -1);
  EXPECT_EQ(TailPercentile(10), -1);
  EXPECT_EQ(TailPercentile(11), 9);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(25), 60);
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  // The rule's two halves for every n: the returned percentile keeps
  // at least ten samples beyond it, and the next one up does not.
  for (std::size_t n = 11; n <= 2000; ++n) {
    const int p = TailPercentile(n);
    EXPECT_GE(SamplesBeyond(n, p), 10u) << "n=" << n;
    EXPECT_LT(SamplesBeyond(n, p + 1), 10u) << "n=" << n;
  }
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(21 - i);  // 20 .. 1, unsorted
  EXPECT_EQ(Percentile(v, 50), 10);
  EXPECT_EQ(Percentile(v, 75), 15);
  EXPECT_EQ(Percentile(v, 100), 20);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(BarrierWait, SumsEachNodesGapToTheSlowest) {
  // Two stages on three nodes. Map: 1, 3, 2 s -> waits 2 + 0 + 1.
  // Reduce: node 2 runs it in two slices (0.5 + 0.5 = 1 s), node 0
  // takes 4 s, node 1 never runs it -> waits 0 + 4 + 3.
  const ComputeLog log = {
      {"Map", 0, 0.0, 1.0},    {"Reduce", 0, 3.0, 7.0},
      {"Map", 1, 0.0, 3.0},    {"Map", 2, 0.0, 2.0},
      {"Reduce", 2, 3.0, 3.5}, {"Reduce", 2, 4.0, 4.5},
  };
  EXPECT_DOUBLE_EQ(BarrierWaitSeconds(log, 3), 3.0 + 7.0);
  EXPECT_DOUBLE_EQ(BarrierWaitSeconds({}, 3), 0.0);
  EXPECT_DOUBLE_EQ(StageBusySeconds(log, {"Reduce"}), 5.0);
}

TEST(SpeedupError, AgainstThePublishedSpeedups) {
  // Table II (K = 16): 2.16x, 3.39x; Table III (K = 20): 1.97x, 2.20x.
  EXPECT_EQ(kPaperSpeedups[0], 2.16);
  EXPECT_EQ(kPaperSpeedups[1], 3.39);
  EXPECT_EQ(kPaperSpeedups[2], 1.97);
  EXPECT_EQ(kPaperSpeedups[3], 2.20);
  EXPECT_EQ(SpeedupError(kPaperSpeedups), 0.0);
  // The worst row sets the error, in either direction.
  EXPECT_DOUBLE_EQ(SpeedupError({2.16, 3.39 * 0.9, 1.97 * 1.05, 2.20}), 0.1);
  EXPECT_DOUBLE_EQ(SpeedupError({2.16 * 1.2, 3.39, 1.97, 2.20}), 0.2);
  // Rows as bench_table2/bench_table3 print them: 2.16x, 3.16x, 2.06x,
  // 2.21x; Table II r = 5 is the worst at 3.16 against 3.39.
  EXPECT_NEAR(SpeedupError({2.16, 3.16, 2.06, 2.21}), 0.23 / 3.39, 1e-12);
}

TEST(Calibration, FixedWork) {
  // The same work on every call and every build: a changed kernel would
  // rescale every reference second.
  EXPECT_EQ(CalibrationWork(), 89235594916ULL);
  EXPECT_EQ(CalibrationWork(), CalibrationWork());
}

TEST(Calibration, ReferenceSeconds) {
  // A host running the calibration at the reference speed reads wall
  // seconds; one running it twice as slow reads half.
  EXPECT_DOUBLE_EQ(ReferenceSeconds(0.6, 0.02, 0.02, 0.02), 0.6);
  EXPECT_DOUBLE_EQ(ReferenceSeconds(1.2, 0.04, 0.04, 0.02), 0.6);
  // The two calibrations are averaged.
  EXPECT_DOUBLE_EQ(ReferenceSeconds(0.9, 0.02, 0.04, 0.02), 0.6);
  EXPECT_DOUBLE_EQ(ReferenceSeconds(0.6, kCalibrationRefSeconds,
                                    kCalibrationRefSeconds),
                   0.6);
}

TEST(MetricName, Grammar) {
  for (const char* ok : {"op_p50_s", "setup_s",
                         "simscen.replay_s.coded_r3.full", "9lives",
                         "a-b.c_d", "x"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/name", "brace{x}", "colon:x"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Digest, BitwiseOverDoubles) {
  Digest a, b, c;
  a.Add(0.0);
  b.Add(-0.0);
  c.Add(0.0);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
  Digest s1, s2;
  s1.Add(std::string("ab"));
  s1.Add(std::string("c"));
  s2.Add(std::string("a"));
  s2.Add(std::string("bc"));
  EXPECT_NE(s1.value(), s2.value());
}

}  // namespace
}  // namespace cts::perfbench
