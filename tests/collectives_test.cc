// Tests for simmpi's allgather and the distributed sampled partitioner
// built on it.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "codedterasort/coded_terasort.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

void RunNodes(simmpi::World& world,
              const std::function<void(simmpi::Comm&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world.num_nodes()));
  for (NodeId n = 0; n < world.num_nodes(); ++n) {
    threads.emplace_back([&, n] {
      try {
        simmpi::Comm comm = simmpi::Comm::World(world, n);
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(n)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(Collectives, AllgatherDeliversEveryPayloadInRankOrder) {
  constexpr int K = 5;
  simmpi::World world(K);
  RunNodes(world, [&](simmpi::Comm& comm) {
    Buffer mine;
    mine.write_i32(comm.rank() * comm.rank());
    auto all = comm.allgather(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(K));
    for (int m = 0; m < K; ++m) {
      Buffer b = all[static_cast<std::size_t>(m)].Clone();
      EXPECT_EQ(b.read_i32(), m * m);
    }
  });
}

TEST(Collectives, AllgatherIsAccountedAsDataPlane) {
  constexpr int K = 4;
  simmpi::World world(K);
  world.stats().set_stage("AG");
  RunNodes(world, [&](simmpi::Comm& comm) {
    Buffer mine;
    mine.resize(100);
    (void)comm.allgather(mine);
  });
  const auto s = world.stats().stage("AG");
  EXPECT_EQ(s.unicast_msgs, static_cast<std::uint64_t>(K) * (K - 1));
  EXPECT_EQ(s.unicast_bytes, static_cast<std::uint64_t>(K) * (K - 1) * 100);
}

TEST(Collectives, WorkOnSubCommunicators) {
  constexpr int K = 6;
  simmpi::World world(K);
  RunNodes(world, [&](simmpi::Comm& comm) {
    auto half = comm.split(comm.rank() % 2, comm.rank());
    ASSERT_TRUE(half.has_value());
    Buffer mine;
    mine.write_i32(comm.rank());
    const auto all = half->allgather(mine);
    ASSERT_EQ(all.size(), 3u);
    for (int m = 0; m < 3; ++m) {
      Buffer b = all[static_cast<std::size_t>(m)].Clone();
      EXPECT_EQ(b.read_i32(), 2 * m + comm.rank() % 2);
    }
  });
}

// ---- Distributed sampled partitioner ----

TEST(DistributedSampling, AllNodesDeriveIdenticalSplitters) {
  constexpr int K = 4;
  simmpi::World world(K);
  std::vector<std::vector<Key>> splitters(K);
  const TeraGen gen(11, KeyDistribution::kSkewed);
  RunNodes(world, [&](simmpi::Comm& comm) {
    // Node n owns records [n*1000, (n+1)*1000).
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {static_cast<std::uint64_t>(comm.rank()) * 1000, 1000}};
    const SampledPartitioner part =
        BuildDistributedSampledPartitioner(comm, gen, ranges, 200);
    splitters[static_cast<std::size_t>(comm.rank())] = part.splitters();
  });
  for (int n = 1; n < K; ++n) {
    EXPECT_EQ(splitters[static_cast<std::size_t>(n)], splitters[0]);
  }
}

TEST(DistributedSampling, BalancesSkewedSort) {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 12000;
  config.distribution = KeyDistribution::kSkewed;
  config.partitioner = PartitionerKind::kDistributedSampled;
  config.sample_size = 500;
  const AlgorithmResult result = RunTeraSort(config);
  // Sorted permutation of the input...
  std::vector<Record> all;
  for (const auto& p : result.partitions) {
    all.insert(all.end(), p.begin(), p.end());
  }
  const auto input = TeraGen(config.seed, config.distribution)
                         .generate(0, config.num_records);
  EXPECT_TRUE(IsSortedPermutationOf(input, all));
  // ...with every reducer within 2x of fair share despite the skew.
  for (const auto& p : result.partitions) {
    EXPECT_LT(p.size(), config.num_records / 6 * 2);
  }
}

TEST(DistributedSampling, CodedSortAgreesWithPlainSort) {
  // Both algorithms sample from the SAME record multiset (every record
  // is on some node in both placements), but with different per-node
  // layouts; outputs must still be the identical sorted dataset even
  // though partition boundaries may differ.
  SortConfig config;
  config.num_nodes = 5;
  config.num_records = 5000;
  config.distribution = KeyDistribution::kSkewed;
  config.partitioner = PartitionerKind::kDistributedSampled;
  const AlgorithmResult plain = RunTeraSort(config);
  config.redundancy = 2;
  const AlgorithmResult coded = RunCodedTeraSort(config);
  auto flatten = [](const AlgorithmResult& r) {
    std::vector<Record> all;
    for (const auto& p : r.partitions) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  };
  EXPECT_EQ(flatten(plain), flatten(coded));
}

TEST(DistributedSampling, MakePartitionerRefusesIt) {
  SortConfig config;
  config.partitioner = PartitionerKind::kDistributedSampled;
  EXPECT_THROW((void)MakePartitioner(config), CheckError);
}

}  // namespace
}  // namespace cts
