// Randomized (seeded, reproducible) property sweep over the
// configuration space: random K, r, record counts, seeds,
// distributions, partitioners and codegen modes. Every sampled
// configuration must satisfy the full battery of whole-system
// invariants. This catches interaction bugs that the hand-picked
// parameterized sweeps can miss (e.g. skew x tiny files x batched
// codegen).
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/loads.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "common/random.h"
#include "keyvalue/teravalidate.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

struct RandomConfig {
  SortConfig sort;
  bool compare_with_plain;  // partitioner identical across algorithms?
};

RandomConfig Draw(Xoshiro256& rng) {
  RandomConfig rc;
  SortConfig& c = rc.sort;
  c.num_nodes = 2 + static_cast<int>(rng.below(7));           // 2..8
  c.redundancy = 1 + static_cast<int>(
                         rng.below(static_cast<std::uint64_t>(c.num_nodes)));
  c.num_records = rng.below(3000);  // includes 0 and < K cases
  c.seed = rng();
  switch (rng.below(6)) {
    case 0: c.distribution = KeyDistribution::kUniform; break;
    case 1: c.distribution = KeyDistribution::kSorted; break;
    case 2: c.distribution = KeyDistribution::kReverseSorted; break;
    case 3: c.distribution = KeyDistribution::kSkewed; break;
    case 4: c.distribution = KeyDistribution::kFewDistinct; break;
    default: c.distribution = KeyDistribution::kBalanced; break;
  }
  switch (rng.below(3)) {
    case 0:
      c.partitioner = PartitionerKind::kRange;
      rc.compare_with_plain = true;
      break;
    case 1:
      c.partitioner = PartitionerKind::kSampled;
      c.sample_size = 1 + rng.below(500);
      rc.compare_with_plain = true;
      break;
    default:
      // Distributed sampling derives different splitters for different
      // placements, so partition contents differ between algorithms
      // (the flattened output must still agree).
      c.partitioner = PartitionerKind::kDistributedSampled;
      c.sample_size = 1 + rng.below(500);
      rc.compare_with_plain = false;
      break;
  }
  c.codegen_mode =
      rng.below(2) == 0 ? CodeGenMode::kCommSplit : CodeGenMode::kBatched;
  // Half the sweep exercises the overlapped (nonblocking) shuffle;
  // every invariant below must hold identically for it.
  c.shuffle_sync =
      rng.below(2) == 0 ? ShuffleSync::kBarrier : ShuffleSync::kOverlapped;
  return rc;
}

std::vector<Record> Flatten(const AlgorithmResult& r) {
  std::vector<Record> all;
  for (const auto& p : r.partitions) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

class RandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomSweep, AllInvariantsHold) {
  Xoshiro256 rng(0xC0DED + static_cast<std::uint64_t>(GetParam()));
  const RandomConfig rc = Draw(rng);
  const SortConfig& config = rc.sort;
  SCOPED_TRACE(::testing::Message()
               << "K=" << config.num_nodes << " r=" << config.redundancy
               << " records=" << config.num_records
               << " dist=" << static_cast<int>(config.distribution)
               << " part=" << static_cast<int>(config.partitioner)
               << " codegen=" << static_cast<int>(config.codegen_mode)
               << " sync=" << static_cast<int>(config.shuffle_sync)
               << " seed=" << config.seed);

  const AlgorithmResult coded = RunCodedTeraSort(config);
  const AlgorithmResult plain = RunTeraSort(config);

  // 1. Conservation.
  ASSERT_EQ(coded.total_output_records(), config.num_records);
  ASSERT_EQ(plain.total_output_records(), config.num_records);

  // 2. Sorted permutation, via TeraValidate.
  const RecordChecksum expected = ChecksumOfInput(
      TeraGen(config.seed, config.distribution), config.num_records);
  const ValidationReport coded_report =
      ValidatePartitions(coded.partitions, expected);
  EXPECT_TRUE(coded_report.valid) << coded_report.error;
  const ValidationReport plain_report =
      ValidatePartitions(plain.partitions, expected);
  EXPECT_TRUE(plain_report.valid) << plain_report.error;

  // 3. Algorithm agreement.
  if (rc.compare_with_plain) {
    EXPECT_EQ(coded.partitions, plain.partitions);
  } else {
    EXPECT_EQ(Flatten(coded), Flatten(plain));
  }

  // 4. Combinatorial traffic identities.
  const int K = config.num_nodes;
  const int r = config.redundancy;
  const auto shuffle = coded.traffic.at(stage::kShuffle);
  if (r < K) {
    EXPECT_EQ(shuffle.mcast_msgs, Binomial(K, r + 1) *
                                      static_cast<std::uint64_t>(r + 1));
    EXPECT_EQ(coded.traffic.at(stage::kCodeGen).comm_creations,
              Binomial(K, r + 1));
  } else {
    EXPECT_EQ(shuffle.transmitted_bytes(), 0u);
  }
  EXPECT_EQ(shuffle.unicast_msgs, 0u);
  EXPECT_EQ(plain.traffic.at(stage::kShuffle).unicast_msgs,
            static_cast<std::uint64_t>(K) * (K - 1));

  // 5. Work identities.
  const NodeWork coded_work = coded.total_work();
  EXPECT_EQ(coded_work.map_bytes,
            config.total_bytes() * static_cast<std::uint64_t>(r));
  EXPECT_EQ(coded_work.reduce_bytes, config.total_bytes());
  EXPECT_EQ(coded_work.map_files,
            static_cast<std::uint64_t>(K) * Binomial(K - 1, r - 1));
  if (r < K) {
    EXPECT_EQ(coded_work.codec.packets_encoded,
              Binomial(K, r + 1) * static_cast<std::uint64_t>(r + 1));
    EXPECT_EQ(coded_work.codec.packets_decoded,
              coded_work.codec.packets_encoded *
                  static_cast<std::uint64_t>(r));
  }

  // 6. Transport hygiene: nothing left in flight.
  // (Checked inside Run*TeraSort; reaching here means it held.)
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep, ::testing::Range(0, 30));

// ---- Eq. (2) exactness on the generic CMR engine ----
//
// With intermediate values of one fixed size s divisible by r, the
// measured payload loads are EXACTLY the paper's eq. (2) — no routing
// variance, no ragged-segment padding:
//   uncoded: N*(K-r)*s / (N*K*s)              = 1 - r/K
//   coded:   C(K,r+1)*(r+1)*(s/r) / (N*K*s)   = (1/r)*(1 - r/K)
// And overlap must not change a single byte on the wire: the
// barrier-synchronous and overlapped shuffles of the same
// configuration move identical payloads and identical wire traffic.

// Deterministic app emitting exactly `iv_bytes` per (file, reducer).
class FixedSizeIvApp final : public cmr::CmrApp {
 public:
  explicit FixedSizeIvApp(std::size_t iv_bytes) : iv_bytes_(iv_bytes) {}

  std::string name() const override { return "FixedSizeIv"; }

  std::vector<std::string> make_file(FileId file,
                                     std::uint64_t /*seed*/) const override {
    return {std::to_string(file)};
  }

  std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records,
      int num_reducers) const override {
    const auto file = static_cast<std::uint8_t>(std::stoi(records.at(0)));
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(static_cast<std::size_t>(num_reducers));
    for (int q = 0; q < num_reducers; ++q) {
      std::vector<std::uint8_t> iv(iv_bytes_);
      for (std::size_t i = 0; i < iv.size(); ++i) {
        iv[i] = static_cast<std::uint8_t>(file * 31 + q * 7 + i);
      }
      out.push_back(std::move(iv));
    }
    return out;
  }

  std::string reduce(
      int reducer,
      const std::vector<std::vector<std::uint8_t>>& values) const override {
    std::uint64_t checksum = 0;
    for (const auto& v : values) {
      for (const std::uint8_t b : v) checksum = checksum * 131 + b;
    }
    return std::to_string(reducer) + ":" + std::to_string(checksum);
  }

 private:
  std::size_t iv_bytes_;
};

class CmrLoadIdentity
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CmrLoadIdentity, PayloadLoadsMatchEquation2UnderBothSyncs) {
  const auto [K, r] = GetParam();
  // 720 is divisible by every r in the sweep, so coded segments are
  // perfectly even and the identities hold exactly.
  const FixedSizeIvApp app(720);
  ASSERT_EQ(720 % r, 0);

  cmr::CmrConfig config;
  config.num_nodes = K;
  config.redundancy = r;

  for (const cmr::ShuffleMode mode :
       {cmr::ShuffleMode::kUncoded, cmr::ShuffleMode::kCoded}) {
    config.mode = mode;
    config.sync = ShuffleSync::kBarrier;
    const cmr::CmrResult barrier = RunCmr(app, config);
    config.sync = ShuffleSync::kOverlapped;
    const cmr::CmrResult overlapped = RunCmr(app, config);

    const double expected = mode == cmr::ShuffleMode::kCoded
                                ? CodedLoad(K, r)
                                : UncodedLoad(K, r);
    EXPECT_DOUBLE_EQ(barrier.measured_payload_load(), expected)
        << "mode=" << static_cast<int>(mode);
    EXPECT_DOUBLE_EQ(overlapped.measured_payload_load(), expected)
        << "mode=" << static_cast<int>(mode);

    // Overlap changes WHEN bytes move, never how many or which:
    // payloads, wire traffic, message counts, per-transmission logs
    // (up to initiation order) and outputs are all identical.
    EXPECT_EQ(barrier.shuffled_payload_bytes,
              overlapped.shuffled_payload_bytes);
    EXPECT_EQ(barrier.total_iv_bytes, overlapped.total_iv_bytes);
    const auto& bt = barrier.traffic.at(stage::kShuffle);
    const auto& ot = overlapped.traffic.at(stage::kShuffle);
    EXPECT_EQ(bt.transmitted_bytes(), ot.transmitted_bytes());
    EXPECT_EQ(bt.unicast_msgs, ot.unicast_msgs);
    EXPECT_EQ(bt.mcast_msgs, ot.mcast_msgs);
    EXPECT_EQ(bt.mcast_recipient_bytes, ot.mcast_recipient_bytes);
    EXPECT_EQ(barrier.shuffle_log.size(), overlapped.shuffle_log.size());
    EXPECT_EQ(barrier.outputs, overlapped.outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CmrLoadIdentity,
    ::testing::Values(std::pair{2, 1}, std::pair{4, 1}, std::pair{4, 2},
                      std::pair{6, 2}, std::pair{6, 3}, std::pair{8, 2},
                      std::pair{8, 4}, std::pair{9, 3}, std::pair{10, 5},
                      std::pair{6, 6}),
    [](const auto& info) {
      std::string name = "K";
      name += std::to_string(info.param.first);
      name += "r";
      name += std::to_string(info.param.second);
      return name;
    });

}  // namespace
}  // namespace cts
