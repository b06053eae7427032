// Golden outputs of the live node programs: TeraSort and CodedTeraSort
// pinned byte for byte on a handful of cells.
//
// Each row pins, for one (algorithm, config) cell, FNV-1a digests over
//  * every partition's record bytes (and its size), in node order;
//  * every node's NodeWork, CodecStats included, field by field;
//  * the Shuffle stage's ChannelCounters;
//  * the shuffle log's (sender, receivers, bytes) entries, sorted, since
//    the log's own order follows the racy global send order.
// The record path (TeraGen, Map, Pack/Encode, Unpack/Decode, the Reduce
// sort) may get faster, but never change one of these. On a mismatch
// the test prints the row it computed, in table syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codedterasort/coded_terasort.h"
#include "keyvalue/teragen.h"
#include "obs/timeline.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

struct Cell {
  const char* label;
  int nodes;
  int redundancy;
  KeyDistribution distribution;
  PartitionerKind partitioner;
  ShuffleSync sync;
};

// The live-k4 shape; a skewed input whose sampled partitions outgrow an
// even share; ties on few distinct keys; collective sampling with the
// nonblocking shuffle.
constexpr Cell kCells[] = {
    {"k4r2-uniform", 4, 2, KeyDistribution::kUniform, PartitionerKind::kRange,
     ShuffleSync::kBarrier},
    {"k5r3-skewed-sampled", 5, 3, KeyDistribution::kSkewed,
     PartitionerKind::kSampled, ShuffleSync::kBarrier},
    {"k6r2-fewdistinct", 6, 2, KeyDistribution::kFewDistinct,
     PartitionerKind::kRange, ShuffleSync::kBarrier},
    {"k4r3-distsampled-overlapped", 4, 3, KeyDistribution::kUniform,
     PartitionerKind::kDistributedSampled, ShuffleSync::kOverlapped},
};

constexpr std::uint64_t kRecords = 30000;

SortConfig CellConfig(const Cell& cell) {
  SortConfig config;
  config.num_nodes = cell.nodes;
  config.redundancy = cell.redundancy;
  config.num_records = kRecords;
  config.seed = 2017;
  config.distribution = cell.distribution;
  config.partitioner = cell.partitioner;
  config.shuffle_sync = cell.sync;
  return config;
}

template <typename T>
std::uint64_t Mix(std::uint64_t h, const T& v) {
  return obs::FnvMix(h, &v, sizeof v);
}

std::uint64_t PartitionDigest(const AlgorithmResult& run) {
  std::uint64_t h = obs::kFnvOffset;
  for (const std::vector<Record>& p : run.partitions) {
    h = Mix(h, static_cast<std::uint64_t>(p.size()));
    if (!p.empty()) h = obs::FnvMix(h, p.data(), p.size() * kRecordBytes);
  }
  return h;
}

std::uint64_t WorkDigest(const AlgorithmResult& run) {
  std::uint64_t h = obs::kFnvOffset;
  for (const NodeWork& w : run.work) {
    for (const std::uint64_t v :
         {w.map_bytes, w.map_files, w.pack_bytes, w.unpack_bytes,
          w.codec.packets_encoded, w.codec.encode_xor_bytes,
          w.codec.encode_payload_bytes, w.codec.packets_decoded,
          w.codec.decode_xor_bytes, w.codec.decoded_bytes, w.reduce_bytes}) {
      h = Mix(h, v);
    }
  }
  return h;
}

std::uint64_t TrafficDigest(const AlgorithmResult& run) {
  const auto it = run.traffic.find(stage::kShuffle);
  const simmpi::ChannelCounters c =
      it == run.traffic.end() ? simmpi::ChannelCounters{} : it->second;
  std::uint64_t h = obs::kFnvOffset;
  for (const std::uint64_t v :
       {c.unicast_msgs, c.unicast_bytes, c.mcast_msgs, c.mcast_bytes,
        c.mcast_recipient_bytes, c.comm_creations}) {
    h = Mix(h, v);
  }
  return h;
}

std::uint64_t LogDigest(const AlgorithmResult& run) {
  std::vector<std::tuple<NodeId, std::vector<NodeId>, std::uint64_t>> entries;
  for (const simnet::Transmission& t : run.shuffle_log) {
    entries.emplace_back(t.src, t.dsts, t.bytes);
  }
  std::sort(entries.begin(), entries.end());
  std::uint64_t h = Mix(obs::kFnvOffset,
                        static_cast<std::uint64_t>(entries.size()));
  for (const auto& [src, dsts, bytes] : entries) {
    h = Mix(h, src);
    for (const NodeId d : dsts) h = Mix(h, d);
    h = Mix(h, bytes);
  }
  return h;
}

struct GoldenRun {
  const char* label;
  std::uint64_t partitions;
  std::uint64_t work;
  std::uint64_t traffic;
  std::uint64_t log;
};

// One row per cell, TeraSort then CodedTeraSort.
constexpr GoldenRun kGoldenRuns[] = {
    {"terasort/k4r2-uniform",
     0x62b2422e1f0fa768ULL, 0x4a21ccdecf36430bULL, 0xe347350b0728146cULL,
     0x5c60ca9127bac5b8ULL},
    {"coded/k4r2-uniform",
     0x62b2422e1f0fa768ULL, 0xf3cca113444c8950ULL, 0x7ca83af9d5ab1dddULL,
     0x6d5d927e1d6b2ff9ULL},
    {"terasort/k5r3-skewed-sampled",
     0x002e57fb0d6e03e4ULL, 0xd059968611a49b34ULL, 0x10132e782970d5a5ULL,
     0x7e5cdb710c09483dULL},
    {"coded/k5r3-skewed-sampled",
     0x002e57fb0d6e03e4ULL, 0xf533a5f1b09a5fb9ULL, 0xbbc0016277ed717fULL,
     0x114a4993e5b5644dULL},
    {"terasort/k6r2-fewdistinct",
     0x750029b62d9bf30fULL, 0x2daffd4e9603020fULL, 0x31d6a01dc9a83e39ULL,
     0x87b55d6b0028cd1cULL},
    {"coded/k6r2-fewdistinct",
     0x750029b62d9bf30fULL, 0x367191db3127bc6aULL, 0xafb60b711e60ca5dULL,
     0xe4dde2f7a010fad1ULL},
    {"terasort/k4r3-distsampled-overlapped",
     0x832096ececce25c5ULL, 0x01cf1af1eb9a3ef8ULL, 0x0f0a4d345a7b6c3bULL,
     0x732cc1210d396138ULL},
    {"coded/k4r3-distsampled-overlapped",
     0x6b5024cf2ce77768ULL, 0x06dc8a27826b1669ULL, 0x335366f8cf1f0eedULL,
     0x752d9726fb01ba02ULL},
};

TEST(LiveGolden, PartitionsCountersAndLogsArePinned) {
  std::size_t row = 0;
  for (const Cell& cell : kCells) {
    const SortConfig config = CellConfig(cell);
    for (const bool coded : {false, true}) {
      const AlgorithmResult run =
          coded ? RunCodedTeraSort(config) : RunTeraSort(config);
      const std::string label =
          std::string(coded ? "coded/" : "terasort/") + cell.label;
      const GoldenRun got{label.c_str(), PartitionDigest(run), WorkDigest(run),
                          TrafficDigest(run), LogDigest(run)};
      char text[200];
      std::snprintf(text, sizeof text,
                    "{\"%s\",\n     0x%016" PRIx64 "ULL, 0x%016" PRIx64
                    "ULL, 0x%016" PRIx64 "ULL,\n     0x%016" PRIx64 "ULL},",
                    got.label, got.partitions, got.work, got.traffic,
                    got.log);
      const bool match = row < std::size(kGoldenRuns) &&
                         label == kGoldenRuns[row].label &&
                         got.partitions == kGoldenRuns[row].partitions &&
                         got.work == kGoldenRuns[row].work &&
                         got.traffic == kGoldenRuns[row].traffic &&
                         got.log == kGoldenRuns[row].log;
      EXPECT_TRUE(match) << "row " << row << "\n    " << text;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kGoldenRuns));
}

// TeraGen at the ends and the middle of the index space, where the
// lane arithmetic (index * odd constant + lane) wraps.
struct GoldenRecord {
  KeyDistribution distribution;
  std::uint64_t index;
  std::uint64_t digest;  // FNV-1a over the 100 record bytes
};

constexpr std::uint64_t kMid = std::uint64_t{1} << 63;
constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();

constexpr GoldenRecord kGoldenRecords[] = {
    {KeyDistribution::kUniform, 0, 0xa69bc3a48a44f23cULL},
    {KeyDistribution::kUniform, kMid, 0x0f2ae945f7a46800ULL},
    {KeyDistribution::kUniform, kLast, 0x81e0840792c98880ULL},
    {KeyDistribution::kSorted, 0, 0x8a7481f61dee96aeULL},
    {KeyDistribution::kSorted, kMid, 0xea32e98eac3b930eULL},
    {KeyDistribution::kSorted, kLast, 0xc64a0f3b4143891fULL},
    {KeyDistribution::kReverseSorted, 0, 0xaefc5c3c8fdc3376ULL},
    {KeyDistribution::kReverseSorted, kMid, 0xa74b8ad246f02156ULL},
    {KeyDistribution::kReverseSorted, kLast, 0xfa4f50f5aee2a7b7ULL},
    {KeyDistribution::kSkewed, 0, 0x9764dc18294a0f7eULL},
    {KeyDistribution::kSkewed, kMid, 0x50372e0c3ca751c0ULL},
    {KeyDistribution::kSkewed, kLast, 0xb4ada3e1fa3194d3ULL},
    {KeyDistribution::kFewDistinct, 0, 0x67708218fcabf38eULL},
    {KeyDistribution::kFewDistinct, kMid, 0x9fdcdbbdabbb56f2ULL},
    {KeyDistribution::kFewDistinct, kLast, 0x9c738b811672d7c4ULL},
    {KeyDistribution::kBalanced, 0, 0x8a7481f61dee96aeULL},
    {KeyDistribution::kBalanced, kMid, 0xea32e98eac3b930eULL},
    {KeyDistribution::kBalanced, kLast, 0x212c809c59d553c7ULL},
};

TEST(LiveGolden, TeraGenEdgeIndicesArePinned) {
  constexpr std::pair<KeyDistribution, const char*> kDistributions[] = {
      {KeyDistribution::kUniform, "kUniform"},
      {KeyDistribution::kSorted, "kSorted"},
      {KeyDistribution::kReverseSorted, "kReverseSorted"},
      {KeyDistribution::kSkewed, "kSkewed"},
      {KeyDistribution::kFewDistinct, "kFewDistinct"},
      {KeyDistribution::kBalanced, "kBalanced"},
  };
  std::size_t row = 0;
  for (const auto& [dist, name] : kDistributions) {
    const TeraGen gen(2017, dist);
    for (const auto& [index, index_name] :
         {std::pair<std::uint64_t, const char*>{0, "0"}, {kMid, "kMid"},
          {kLast, "kLast"}}) {
      const Record rec = gen.record(index);
      const std::uint64_t digest =
          obs::FnvMix(obs::kFnvOffset, &rec, sizeof rec);
      const bool match = row < std::size(kGoldenRecords) &&
                         kGoldenRecords[row].distribution == dist &&
                         kGoldenRecords[row].index == index &&
                         kGoldenRecords[row].digest == digest;
      char text[120];
      std::snprintf(text, sizeof text,
                    "{KeyDistribution::%s, %s, 0x%016" PRIx64 "ULL},", name,
                    index_name, digest);
      EXPECT_TRUE(match) << "row " << row << "\n    " << text;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kGoldenRecords));
}

}  // namespace
}  // namespace cts
