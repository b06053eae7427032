// Unit + property tests for src/keyvalue: records, TeraGen,
// partitioners, record IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/record.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"

namespace cts {
namespace {

TEST(Record, SizeIs100Bytes) {
  EXPECT_EQ(sizeof(Record), 100u);
  EXPECT_EQ(kRecordBytes, 100u);
}

TEST(Record, KeyComparisonIsBigEndianInteger) {
  const Key a = MakeKey(5);
  const Key b = MakeKey(6);
  const Key c = MakeKey(0x0100000000000000ULL);
  EXPECT_TRUE(KeyLess(a, b));
  EXPECT_FALSE(KeyLess(b, a));
  EXPECT_TRUE(KeyLess(b, c));
  EXPECT_EQ(CompareKeys(a, a), 0);
}

TEST(Record, KeyPrefixRoundTrip) {
  const std::uint64_t p = 0x0123456789abcdefULL;
  EXPECT_EQ(KeyPrefix(MakeKey(p)), p);
  EXPECT_EQ(KeyPrefix(MakeKey(0)), 0u);
  EXPECT_EQ(KeyPrefix(MakeKey(~std::uint64_t{0})), ~std::uint64_t{0});
}

TEST(Record, SuffixBreaksTiesWithoutChangingPrefix) {
  const Key a = MakeKey(7, 1);
  const Key b = MakeKey(7, 2);
  EXPECT_EQ(KeyPrefix(a), KeyPrefix(b));
  EXPECT_TRUE(KeyLess(a, b));
}

TEST(Record, RecordLessOrdersByKeyThenValue) {
  Record r1{}, r2{};
  r1.key = MakeKey(1);
  r2.key = MakeKey(2);
  EXPECT_TRUE(RecordLess(r1, r2));
  r2.key = r1.key;
  r1.value.fill(1);
  r2.value.fill(2);
  EXPECT_TRUE(RecordLess(r1, r2));
  EXPECT_FALSE(RecordLess(r2, r1));
}

TEST(TeraGen, DeterministicPerSeedAndIndex) {
  const TeraGen gen1(42), gen2(42), gen3(43);
  EXPECT_EQ(gen1.record(0), gen2.record(0));
  EXPECT_EQ(gen1.record(999), gen2.record(999));
  EXPECT_FALSE(gen1.record(0) == gen3.record(0));
  EXPECT_FALSE(gen1.record(0) == gen1.record(1));
}

TEST(TeraGen, GenerateMatchesPointQueries) {
  const TeraGen gen(7);
  const auto batch = gen.generate(100, 50);
  ASSERT_EQ(batch.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(batch[i], gen.record(100 + i));
  }
}

TEST(TeraGen, ValueEmbedsRowId) {
  const TeraGen gen(1);
  const Record r = gen.record(0x0102030405060708ULL);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.value[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(TeraGen, ValueFillerIsPrintable) {
  const TeraGen gen(1);
  const Record r = gen.record(12345);
  for (std::size_t i = 8; i < kValueBytes; ++i) {
    EXPECT_GE(r.value[i], 'A');
    EXPECT_LE(r.value[i], 'A' + 15);
  }
}

// Golden bytes: FNV-1a 64 over TeraGen(2017, d).record(i * 7919 + 3)
// for i < 200000, one value per distribution in enum order. Any change
// to the key or value layout (teragen.h) changes these.
TEST(TeraGen, GoldenRecordBytes) {
  const std::pair<KeyDistribution, std::uint64_t> golden[] = {
      {KeyDistribution::kUniform, 0xaee3e416e1c104f7ULL},
      {KeyDistribution::kSorted, 0x6a08d5417bdfc2a2ULL},
      {KeyDistribution::kReverseSorted, 0xc9062dbb60297936ULL},
      {KeyDistribution::kSkewed, 0xbfd514dbde5b7535ULL},
      {KeyDistribution::kFewDistinct, 0xf37c668a3f555ca3ULL},
      {KeyDistribution::kBalanced, 0x1463cc3ee293ff50ULL},
  };
  for (const auto& [dist, expected] : golden) {
    const TeraGen gen(2017, dist);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t i = 0; i < 200000; ++i) {
      const Record rec = gen.record(i * 7919 + 3);
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&rec);
      for (std::size_t b = 0; b < kRecordBytes; ++b) {
        h = (h ^ bytes[b]) * 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(h, expected) << "distribution " << static_cast<int>(dist);
  }
}

TEST(TeraGen, UniformKeysSpreadAcrossDomain) {
  const TeraGen gen(42);
  const auto recs = gen.generate(0, 20000);
  // Bucket the prefixes into 16 ranges; expect rough uniformity.
  int counts[16] = {};
  for (const auto& r : recs) ++counts[KeyPrefix(r.key) >> 60];
  for (int c : counts) {
    EXPECT_GT(c, 20000 / 16 * 0.8);
    EXPECT_LT(c, 20000 / 16 * 1.2);
  }
}

TEST(TeraGen, SortedDistributionIsSorted) {
  const TeraGen gen(42, KeyDistribution::kSorted);
  const auto recs = gen.generate(0, 1000);
  EXPECT_TRUE(IsSorted(recs));
}

TEST(TeraGen, ReverseSortedIsDescending) {
  const TeraGen gen(42, KeyDistribution::kReverseSorted);
  const auto recs = gen.generate(0, 1000);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_FALSE(KeyLess(recs[i - 1].key, recs[i].key));
  }
}

TEST(TeraGen, SkewedConcentratesLow) {
  const TeraGen gen(42, KeyDistribution::kSkewed);
  const auto recs = gen.generate(0, 10000);
  std::size_t low_half = 0;
  for (const auto& r : recs) {
    if (KeyPrefix(r.key) < (std::uint64_t{1} << 63)) ++low_half;
  }
  // u^4 < 1/2 iff u < 0.84, so ~84% of keys land in the low half.
  EXPECT_GT(low_half, recs.size() * 3 / 4);
}

TEST(TeraGen, BalancedSpreadsEveryContiguousRangeEvenly) {
  const TeraGen gen(42, KeyDistribution::kBalanced);
  const RangePartitioner part(7);
  // Any contiguous index window of n records puts n/K ± O(1) keys in
  // each partition — that is the low-discrepancy property the exact
  // load-identity tests rely on.
  for (const std::uint64_t start : {0ULL, 131ULL, 9999ULL}) {
    std::vector<int> counts(7, 0);
    const std::uint64_t n = 700;
    for (const auto& r : gen.generate(start, n)) {
      ++counts[static_cast<std::size_t>(part.partition(r.key))];
    }
    for (int c : counts) {
      EXPECT_GE(c, 97);
      EXPECT_LE(c, 103);
    }
  }
}

TEST(TeraGen, BalancedKeysAreDistinct) {
  const TeraGen gen(42, KeyDistribution::kBalanced);
  const auto recs = gen.generate(0, 4096);
  std::vector<std::uint64_t> prefixes;
  prefixes.reserve(recs.size());
  for (const auto& r : recs) prefixes.push_back(KeyPrefix(r.key));
  std::sort(prefixes.begin(), prefixes.end());
  EXPECT_EQ(std::adjacent_find(prefixes.begin(), prefixes.end()),
            prefixes.end());
}

TEST(TeraGen, FewDistinctHasAtMost256Keys) {
  const TeraGen gen(42, KeyDistribution::kFewDistinct);
  const auto recs = gen.generate(0, 5000);
  std::map<std::uint64_t, int> prefixes;
  for (const auto& r : recs) ++prefixes[KeyPrefix(r.key)];
  EXPECT_LE(prefixes.size(), 256u);
  EXPECT_GT(prefixes.size(), 100u);  // should still be diverse
}

TEST(RangePartitioner, CoversAllPartitions) {
  const RangePartitioner part(4);
  EXPECT_EQ(part.num_partitions(), 4);
  EXPECT_EQ(part.partition(MakeKey(0)), 0);
  EXPECT_EQ(part.partition(MakeKey(~std::uint64_t{0})), 3);
}

TEST(RangePartitioner, BoundariesAreConsistentWithLookup) {
  const RangePartitioner part(7);
  for (PartitionId p = 0; p < 7; ++p) {
    const std::uint64_t lo = part.boundary(p);
    EXPECT_EQ(part.partition(MakeKey(lo)), p) << "p=" << p;
    if (lo > 0) {
      EXPECT_EQ(part.partition(MakeKey(lo - 1)), p - 1) << "p=" << p;
    }
  }
}

TEST(RangePartitioner, MonotoneInKey) {
  const RangePartitioner part(5);
  PartitionId prev = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    const std::uint64_t prefix = x * 0x0041893475134ULL;  // increasing
    const PartitionId p = part.partition(MakeKey(prefix));
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(RangePartitioner, UniformKeysBalance) {
  const RangePartitioner part(16);
  const TeraGen gen(3);
  std::vector<int> counts(16, 0);
  for (const auto& r : gen.generate(0, 32000)) {
    ++counts[static_cast<std::size_t>(part.partition(r.key))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 2000 * 0.85);
    EXPECT_LT(c, 2000 * 1.15);
  }
}

TEST(RangePartitioner, SinglePartitionTakesEverything) {
  const RangePartitioner part(1);
  EXPECT_EQ(part.partition(MakeKey(0)), 0);
  EXPECT_EQ(part.partition(MakeKey(~std::uint64_t{0})), 0);
}

TEST(SampledPartitioner, SplittersPartitionTheDomain) {
  const SampledPartitioner part({MakeKey(100), MakeKey(200)});
  EXPECT_EQ(part.num_partitions(), 3);
  EXPECT_EQ(part.partition(MakeKey(50)), 0);
  EXPECT_EQ(part.partition(MakeKey(100)), 1);  // splitter owned by right
  EXPECT_EQ(part.partition(MakeKey(150)), 1);
  EXPECT_EQ(part.partition(MakeKey(200)), 2);
  EXPECT_EQ(part.partition(MakeKey(999)), 2);
}

TEST(SampledPartitioner, RejectsDescendingSplitters) {
  EXPECT_THROW(SampledPartitioner({MakeKey(5), MakeKey(3)}), CheckError);
}

TEST(SampledPartitioner, FromSampleBalancesSkewedData) {
  const TeraGen gen(11, KeyDistribution::kSkewed);
  const auto recs = gen.generate(0, 20000);
  std::vector<Key> sample;
  for (std::size_t i = 0; i < recs.size(); i += 10) {
    sample.push_back(recs[i].key);
  }
  const auto part = SampledPartitioner::FromSample(sample, 8);
  std::vector<int> counts(8, 0);
  for (const auto& r : recs) {
    ++counts[static_cast<std::size_t>(part.partition(r.key))];
  }
  // A RangePartitioner would put ~84% in the low half; the sampled one
  // must keep every reducer within 2x of fair share.
  for (int c : counts) {
    EXPECT_GT(c, 20000 / 8 / 2);
    EXPECT_LT(c, 20000 / 8 * 2);
  }
}

TEST(Partitioner, SerializeRoundTripRange) {
  const RangePartitioner part(9);
  Buffer b;
  part.serialize(b);
  const auto restored = Partitioner::Deserialize(b);
  EXPECT_EQ(restored->num_partitions(), 9);
  for (std::uint64_t x : {0ULL, 123ULL << 40, ~0ULL}) {
    EXPECT_EQ(restored->partition(MakeKey(x)), part.partition(MakeKey(x)));
  }
}

TEST(Partitioner, SerializeRoundTripSampled) {
  const SampledPartitioner part({MakeKey(10), MakeKey(20), MakeKey(30)});
  Buffer b;
  part.serialize(b);
  const auto restored = Partitioner::Deserialize(b);
  EXPECT_EQ(restored->num_partitions(), 4);
  for (std::uint64_t x : {5ULL, 10ULL, 15ULL, 25ULL, 35ULL}) {
    EXPECT_EQ(restored->partition(MakeKey(x)), part.partition(MakeKey(x)));
  }
}

TEST(RecordIO, PackUnpackRoundTrip) {
  const TeraGen gen(5);
  const auto recs = gen.generate(0, 257);
  Buffer b;
  const std::size_t written = PackRecords(recs, b);
  EXPECT_EQ(written, PackedSize(recs.size()));
  const auto restored = UnpackRecords(b);
  EXPECT_EQ(restored, recs);
}

TEST(RecordIO, EmptyListRoundTrip) {
  Buffer b;
  PackRecords({}, b);
  EXPECT_TRUE(UnpackRecords(b).empty());
}

TEST(RecordIO, MultipleListsInOneBuffer) {
  const TeraGen gen(5);
  const auto a = gen.generate(0, 10);
  const auto c = gen.generate(10, 20);
  Buffer b;
  PackRecords(a, b);
  PackRecords(c, b);
  EXPECT_EQ(UnpackRecords(b), a);
  EXPECT_EQ(UnpackRecords(b), c);
}

TEST(RecordIO, UnpackIntoAppends) {
  const TeraGen gen(5);
  const auto a = gen.generate(0, 5);
  const auto c = gen.generate(5, 5);
  Buffer b;
  PackRecords(a, b);
  PackRecords(c, b);
  std::vector<Record> merged;
  UnpackRecordsInto(b, merged);
  UnpackRecordsInto(b, merged);
  ASSERT_EQ(merged.size(), 10u);
  EXPECT_EQ(merged[0], a[0]);
  EXPECT_EQ(merged[9], c[4]);
}

TEST(RecordIO, TruncatedBufferThrows) {
  Buffer b;
  b.write_u64(100);  // claims 100 records, provides none
  EXPECT_THROW(UnpackRecords(b), CheckError);
}

// InPlaceUnpack appends what UnpackRecordsInto appends, from bytes the
// caller writes, and keeps its truncation check.
TEST(RecordIO, InPlaceUnpackMatchesUnpackRecordsInto) {
  const TeraGen gen(5);
  const auto first = gen.generate(0, 3);
  const auto list = gen.generate(3, 7);
  Buffer packed;
  PackRecords(list, packed);
  // A list followed by stray bytes: both unpackers read only its count.
  packed.write_u64(0xabcdef);
  const std::span<const std::uint8_t> bytes = packed.span();

  std::vector<Record> expected = first;
  Buffer in = packed.Clone();
  UnpackRecordsInto(in, expected);

  std::vector<Record> got = first;
  InPlaceUnpack sink(got, bytes.size());
  ASSERT_EQ(sink.count_bytes().size(), sizeof(std::uint64_t));
  ASSERT_EQ(sink.record_bytes().size(), bytes.size() - sizeof(std::uint64_t));
  std::copy(bytes.begin(), bytes.begin() + 8, sink.count_bytes().begin());
  std::copy(bytes.begin() + 8, bytes.end(), sink.record_bytes().begin());
  sink.Finish();
  EXPECT_EQ(got, expected);

  // A count the bytes cannot hold, and a list too short for its count
  // header, fail as UnpackRecordsInto does.
  std::vector<Record> pool;
  InPlaceUnpack truncated(pool, 8 + 2 * kRecordBytes);
  truncated.count_bytes()[0] = 3;
  EXPECT_THROW(truncated.Finish(), CheckError);
  EXPECT_THROW(InPlaceUnpack(pool, 7), CheckError);
}

TEST(RecordIO, IsSortedPermutationDetectsReordering) {
  const TeraGen gen(5);
  auto recs = gen.generate(0, 100);
  auto sorted = recs;
  std::sort(sorted.begin(), sorted.end(), RecordLess);
  EXPECT_TRUE(IsSortedPermutationOf(recs, sorted));
  EXPECT_FALSE(IsSortedPermutationOf(recs, recs) && !IsSorted(recs));
  // Tampering with one record breaks the permutation property.
  sorted[0].value[0] ^= 0xff;
  EXPECT_FALSE(IsSortedPermutationOf(recs, sorted));
}

// SortRecords must reproduce std::sort(..., RecordLess) byte for byte.
void ExpectSortsLikeStdSort(std::vector<Record> records) {
  auto expected = records;
  std::sort(expected.begin(), expected.end(), RecordLess);
  SortRecords(records);
  EXPECT_TRUE(records == expected);  // Record == compares all 100 bytes
}

TEST(SortRecords, MatchesStdSortForEveryDistribution) {
  for (const KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kSorted,
        KeyDistribution::kReverseSorted, KeyDistribution::kSkewed,
        KeyDistribution::kFewDistinct, KeyDistribution::kBalanced}) {
    SCOPED_TRACE(static_cast<int>(dist));
    ExpectSortsLikeStdSort(TeraGen(2017, dist).generate(1000, 20000));
  }
}

TEST(SortRecords, MatchesStdSortWithDuplicatesAndTinyInputs) {
  const auto recs = TeraGen(5, KeyDistribution::kFewDistinct).generate(0, 3000);
  // Every record three times, in three different orders.
  std::vector<Record> dup = recs;
  dup.insert(dup.end(), recs.rbegin(), recs.rend());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    dup.push_back(recs[(i * 7) % recs.size()]);
  }
  ExpectSortsLikeStdSort(dup);
  // Same key, values differing only in the last byte.
  std::vector<Record> ties(100, recs[0]);
  for (std::size_t i = 0; i < ties.size(); ++i) {
    ties[i].value[kValueBytes - 1] = static_cast<std::uint8_t>(i * 37);
  }
  ExpectSortsLikeStdSort(ties);
  ExpectSortsLikeStdSort({});
  ExpectSortsLikeStdSort({recs[0]});
  ExpectSortsLikeStdSort({recs[1], recs[0]});
  ExpectSortsLikeStdSort({recs[0], recs[1]});
  ExpectSortsLikeStdSort({recs[2], recs[2]});
}

// The bucket pass keys on the bits below those every prefix shares:
// one reducer's key range, prefixes differing only in their low bits,
// and prefixes differing only in the top bit.
TEST(SortRecords, MatchesStdSortWhenPrefixesShareHighBits) {
  const RangePartitioner part(4);
  std::vector<Record> range;
  for (const Record& rec : TeraGen(7).generate(0, 20000)) {
    if (part.partition(rec.key) == 2) range.push_back(rec);
  }
  ExpectSortsLikeStdSort(range);
  std::vector<Record> low_bits = TeraGen(7).generate(0, 5000);
  for (std::size_t i = 0; i < low_bits.size(); ++i) {
    const std::uint64_t prefix = 0x1234567890abc000ULL + (i * 2654435761u) % 97;
    const Key key = MakeKey(prefix, low_bits[i].key[8]);
    low_bits[i].key = key;
  }
  ExpectSortsLikeStdSort(low_bits);
  std::vector<Record> top_bit = TeraGen(7).generate(0, 1000);
  for (std::size_t i = 0; i < top_bit.size(); ++i) {
    top_bit[i].key = MakeKey(i % 2 == 0 ? 0 : std::uint64_t{1} << 63,
                             static_cast<std::uint16_t>(i));
  }
  ExpectSortsLikeStdSort(top_bit);
}

TEST(RecordIO, IsSortedPermutationRejectsSizeMismatch) {
  const TeraGen gen(5);
  const auto recs = gen.generate(0, 10);
  auto sorted = gen.generate(0, 9);
  std::sort(sorted.begin(), sorted.end(), RecordLess);
  EXPECT_FALSE(IsSortedPermutationOf(recs, sorted));
}

}  // namespace
}  // namespace cts
