// Tests for the TeraValidate module: checksums and partitioned-output
// validation, including on real sort outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "codedterasort/coded_terasort.h"
#include "keyvalue/teravalidate.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

TEST(Checksum, OrderInsensitive) {
  const TeraGen gen(1);
  auto recs = gen.generate(0, 500);
  const RecordChecksum forward = ChecksumOfRecords(recs);
  std::reverse(recs.begin(), recs.end());
  EXPECT_EQ(ChecksumOfRecords(recs), forward);
}

TEST(Checksum, SplitInsensitiveViaMerge) {
  const TeraGen gen(2);
  const auto recs = gen.generate(0, 100);
  RecordChecksum split = ChecksumOfRecords({recs.data(), 40});
  split.merge(ChecksumOfRecords({recs.data() + 40, 60}));
  EXPECT_EQ(split, ChecksumOfRecords(recs));
}

TEST(Checksum, DetectsContentChange) {
  const TeraGen gen(3);
  auto recs = gen.generate(0, 100);
  const RecordChecksum original = ChecksumOfRecords(recs);
  recs[50].value[10] ^= 1;
  EXPECT_FALSE(ChecksumOfRecords(recs) == original);
}

TEST(Checksum, DetectsDuplicationEvenWhenXorCancels) {
  // Replacing a record with a duplicate of another changes the XOR
  // accumulator; duplicating a PAIR cancels in XOR but not in SUM.
  const TeraGen gen(4);
  auto recs = gen.generate(0, 100);
  const RecordChecksum original = ChecksumOfRecords(recs);
  recs[1] = recs[0];
  recs[3] = recs[2];
  auto doubled = recs;
  EXPECT_FALSE(ChecksumOfRecords(doubled) == original);
}

TEST(Checksum, MatchesInputStreamHelper) {
  const TeraGen gen(5);
  EXPECT_EQ(ChecksumOfInput(gen, 256),
            ChecksumOfRecords(gen.generate(0, 256)));
}

// Golden checksum of the paper workload's input stream: pins
// HashRecord and TeraGen together, so a kernel change that altered
// both sides of the validator's comparison still fails here.
TEST(Checksum, GoldenInputChecksum) {
  const RecordChecksum sum =
      ChecksumOfInput(TeraGen(2017, KeyDistribution::kUniform), 100000);
  EXPECT_EQ(sum.xor_hash, 0xe4a28f8b5fc3ae1aULL);
  EXPECT_EQ(sum.sum_hash, 0xfe1fffa22b47ef04ULL);
  EXPECT_EQ(sum.count, 100000u);
}

TEST(Validate, AcceptsCorrectPartitionedOutput) {
  const TeraGen gen(6);
  auto recs = gen.generate(0, 300);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  std::sort(recs.begin(), recs.end(), RecordLess);
  const std::vector<std::vector<Record>> partitions = {
      {recs.begin(), recs.begin() + 100},
      {recs.begin() + 100, recs.begin() + 250},
      {recs.begin() + 250, recs.end()},
  };
  const ValidationReport report = ValidatePartitions(partitions, expected);
  EXPECT_TRUE(report.valid) << report.error;
}

TEST(Validate, AcceptsEmptyPartitions) {
  const TeraGen gen(6);
  auto recs = gen.generate(0, 10);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  std::sort(recs.begin(), recs.end(), RecordLess);
  const std::vector<std::vector<Record>> partitions = {{}, recs, {}};
  EXPECT_TRUE(ValidatePartitions(partitions, expected).valid);
}

TEST(Validate, RejectsIntraPartitionDisorder) {
  const TeraGen gen(7);
  auto recs = gen.generate(0, 100);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  // Unsorted partition.
  const std::vector<std::vector<Record>> partitions = {recs};
  const ValidationReport report = ValidatePartitions(partitions, expected);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.error.find("order violation"), std::string::npos);
}

TEST(Validate, RejectsCrossPartitionDisorder) {
  const TeraGen gen(8);
  auto recs = gen.generate(0, 100);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  std::sort(recs.begin(), recs.end(), RecordLess);
  // Swap the halves: each is sorted, but the boundary is inverted.
  const std::vector<std::vector<Record>> partitions = {
      {recs.begin() + 50, recs.end()},
      {recs.begin(), recs.begin() + 50},
  };
  EXPECT_FALSE(ValidatePartitions(partitions, expected).valid);
}

TEST(Validate, RejectsMissingRecords) {
  const TeraGen gen(9);
  auto recs = gen.generate(0, 100);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  std::sort(recs.begin(), recs.end(), RecordLess);
  recs.pop_back();
  const std::vector<std::vector<Record>> partitions = {recs};
  const ValidationReport report = ValidatePartitions(partitions, expected);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.error.find("count mismatch"), std::string::npos);
}

TEST(Validate, RejectsSubstitutedRecords) {
  const TeraGen gen(10);
  auto recs = gen.generate(0, 100);
  const RecordChecksum expected = ChecksumOfRecords(recs);
  std::sort(recs.begin(), recs.end(), RecordLess);
  recs[30].value[0] ^= 0x55;  // same count, altered content
  const std::vector<std::vector<Record>> partitions = {recs};
  const ValidationReport report = ValidatePartitions(partitions, expected);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.error.find("checksum"), std::string::npos);
}

// ---- Large inputs: the checks split over several threads and must
// return the serial verdict, naming the lowest (partition, index). ----

TEST(Checksum, InputStreamMatchesRecordsAtEverySize) {
  const TeraGen gen(11);
  for (const std::uint64_t n : {0ULL, 1ULL, 100003ULL}) {
    EXPECT_EQ(ChecksumOfInput(gen, n), ChecksumOfRecords(gen.generate(0, n)))
        << "n=" << n;
  }
}

class LargeValidate : public ::testing::Test {
 protected:
  static constexpr std::size_t kRecords = 200000;

  void SetUp() override {
    sorted_ = TeraGen(12).generate(0, kRecords);
    expected_ = ChecksumOfRecords(sorted_);
    std::sort(sorted_.begin(), sorted_.end(), RecordLess);
  }

  // Four equal partitions of the sorted records.
  std::vector<std::vector<Record>> Quarters() const {
    std::vector<std::vector<Record>> parts;
    const std::size_t q = kRecords / 4;
    for (std::size_t p = 0; p < 4; ++p) {
      parts.emplace_back(sorted_.begin() + static_cast<std::ptrdiff_t>(p * q),
                         sorted_.begin() +
                             static_cast<std::ptrdiff_t>((p + 1) * q));
    }
    return parts;
  }

  std::string Error(const std::vector<std::vector<Record>>& parts) const {
    const ValidationReport report = ValidatePartitions(parts, expected_);
    EXPECT_EQ(report.valid, report.error.empty());
    return report.error;
  }

  std::vector<Record> sorted_;
  RecordChecksum expected_;
};

TEST_F(LargeValidate, AcceptsSortedOutput) {
  EXPECT_EQ(Error(Quarters()), "");
}

TEST_F(LargeValidate, ReportsLowestOfTwoInsideViolations) {
  auto parts = Quarters();
  std::swap(parts[3][100], parts[3][101]);
  std::swap(parts[1][30000], parts[1][30001]);
  EXPECT_EQ(Error(parts), "order violation at partition 1 index 30001");
}

TEST_F(LargeValidate, ReportsBoundaryViolationAfterEmptyPartition) {
  auto parts = Quarters();
  // Partition 2 is empty; partition 3 starts below partition 1's last
  // record, and is disordered further in too.
  parts[2].clear();
  parts[3].insert(parts[3].begin(), parts[1][10]);
  std::swap(parts[3][40000], parts[3][40001]);
  EXPECT_EQ(Error(parts), "order violation at partition 3 index 0");
}

TEST_F(LargeValidate, BoundaryCheckPrecedesInsideCheck) {
  auto parts = Quarters();
  std::swap(parts[1].front(), parts[0].back());
  std::swap(parts[1][5], parts[1][6]);
  EXPECT_EQ(Error(parts), "order violation at partition 1 index 0");
}

TEST_F(LargeValidate, EverySplitPointNamesTheSwappedPair) {
  // Swapping a sorted neighbour pair (j-1, j) makes j the only
  // violation. Positions N*k/T for T <= 8 cover the thread split points
  // on any host with up to 8 threads.
  std::vector<std::size_t> positions;
  for (std::size_t t = 1; t <= 8; ++t) {
    for (std::size_t k = 1; k < t; ++k) {
      const std::size_t split = kRecords * k / t;
      positions.insert(positions.end(), {split - 1, split, split + 1});
    }
  }
  std::vector<std::vector<Record>> whole = {sorted_};
  for (const std::size_t j : positions) {
    std::swap(whole[0][j - 1], whole[0][j]);
    EXPECT_EQ(Error(whole),
              "order violation at partition 0 index " + std::to_string(j));
    std::swap(whole[0][j - 1], whole[0][j]);
  }
}

TEST_F(LargeValidate, ReportsCountThenChecksumMismatch) {
  auto parts = Quarters();
  parts[2].pop_back();
  EXPECT_EQ(Error(parts), "record count mismatch: got 199999, expected 200000");
  parts = Quarters();
  parts[2][7].value[20] ^= 1;
  EXPECT_EQ(Error(parts),
            "checksum mismatch: output is not a permutation of the input");
}

TEST(Validate, RealTeraSortOutputValidates) {
  SortConfig config;
  config.num_nodes = 5;
  config.num_records = 5000;
  const AlgorithmResult result = RunTeraSort(config);
  const RecordChecksum expected = ChecksumOfInput(
      TeraGen(config.seed, config.distribution), config.num_records);
  const ValidationReport report =
      ValidatePartitions(result.partitions, expected);
  EXPECT_TRUE(report.valid) << report.error;
}

TEST(Validate, RealCodedTeraSortOutputValidates) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 3;
  config.num_records = 5000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const RecordChecksum expected = ChecksumOfInput(
      TeraGen(config.seed, config.distribution), config.num_records);
  const ValidationReport report =
      ValidatePartitions(result.partitions, expected);
  EXPECT_TRUE(report.valid) << report.error;
}

}  // namespace
}  // namespace cts
