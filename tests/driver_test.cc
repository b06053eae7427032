// Tests for the driver layer: cluster harness, stage runner,
// recorder, and partitioner construction.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "common/check.h"
#include "driver/cluster.h"
#include "driver/partition_util.h"
#include "keyvalue/teragen.h"

namespace cts {
namespace {

TEST(Cluster, RunsOneThreadPerNode) {
  simmpi::World world(6);
  RunRecorder recorder(6);
  std::atomic<int> ran{0};
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder&) {
    EXPECT_EQ(comm.size(), 6);
    ++ran;
  });
  EXPECT_EQ(ran.load(), 6);
}

TEST(Cluster, RethrowsNodeFailure) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  EXPECT_THROW(
      RunOnCluster(world, recorder,
                   [&](simmpi::Comm& comm, RunRecorder&) {
                     // All nodes fail before any communication, so no
                     // peer blocks on a missing message.
                     CTS_CHECK_MSG(false, "injected failure on node "
                                              << comm.my_global());
                   }),
      CheckError);
}

// A node that throws before it sends must not hang the peers waiting
// on it: RunOnCluster aborts the World, the blocked receives throw
// simmpi::Aborted, and the failed node's own exception is rethrown.
TEST(Cluster, NodeFailureAbortsBlockedPeers) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  try {
    RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder&) {
      CTS_CHECK_MSG(comm.rank() != 0, "injected failure before send");
      (void)comm.recv(0, 0);
    });
    FAIL() << "RunOnCluster returned normally";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure before send"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cluster, StageRunnerLabelsTrafficPerStage) {
  simmpi::World world(2);
  RunRecorder recorder(2);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    StageRunner stages(comm, rec);
    Buffer b;
    b.resize(64);
    stages.run("first", [&] {
      if (comm.rank() == 0) {
        comm.send(1, 0, b.Clone());
      } else {
        (void)comm.recv(0, 0);
      }
    });
    stages.run("second", [&] {
      if (comm.rank() == 1) {
        comm.send(0, 0, b.Clone());
        comm.send(0, 1, b.Clone());
      } else {
        (void)comm.recv(1, 0);
        (void)comm.recv(1, 1);
      }
    });
  });
  EXPECT_EQ(world.stats().stage("first").unicast_msgs, 1u);
  EXPECT_EQ(world.stats().stage("second").unicast_msgs, 2u);
}

TEST(Cluster, StageRunnerRecordsWallPerNode) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    StageRunner stages(comm, rec);
    stages.run("work", [&] {});
    stages.run("more", [&] {});
  });
  const auto wall = recorder.wall_max();
  ASSERT_TRUE(wall.count("work"));
  ASSERT_TRUE(wall.count("more"));
  EXPECT_GE(wall.at("work"), 0.0);
}

TEST(Recorder, CollectsPartitionsAndWork) {
  RunRecorder recorder(2);
  NodeWork w0;
  w0.map_bytes = 100;
  recorder.set_work(0, w0);
  NodeWork w1;
  w1.map_bytes = 200;
  recorder.set_work(1, w1);
  recorder.set_partition(1, {Record{}});
  EXPECT_EQ(recorder.work()[0].map_bytes, 100u);
  EXPECT_EQ(recorder.work()[1].map_bytes, 200u);
  auto partitions = recorder.take_partitions();
  EXPECT_TRUE(partitions[0].empty());
  EXPECT_EQ(partitions[1].size(), 1u);
}

TEST(NodeWorkAccumulation, SumsAllFields) {
  NodeWork a;
  a.map_bytes = 1;
  a.map_files = 2;
  a.pack_bytes = 3;
  a.unpack_bytes = 4;
  a.reduce_bytes = 5;
  a.codec.packets_encoded = 6;
  NodeWork b = a;
  b += a;
  EXPECT_EQ(b.map_bytes, 2u);
  EXPECT_EQ(b.map_files, 4u);
  EXPECT_EQ(b.pack_bytes, 6u);
  EXPECT_EQ(b.unpack_bytes, 8u);
  EXPECT_EQ(b.reduce_bytes, 10u);
  EXPECT_EQ(b.codec.packets_encoded, 12u);
}

TEST(PartitionUtil, RangeByDefault) {
  SortConfig config;
  config.num_nodes = 5;
  const auto part = MakePartitioner(config);
  EXPECT_EQ(part->num_partitions(), 5);
  EXPECT_EQ(part->partition(MakeKey(0)), 0);
}

TEST(PartitionUtil, SampledIsDeterministicAcrossCalls) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 10000;
  config.partitioner = PartitionerKind::kSampled;
  config.distribution = KeyDistribution::kSkewed;
  const auto a = MakePartitioner(config);
  const auto b = MakePartitioner(config);
  const TeraGen gen(config.seed, config.distribution);
  for (const auto& rec : gen.generate(0, 500)) {
    EXPECT_EQ(a->partition(rec.key), b->partition(rec.key));
  }
}

TEST(PartitionUtil, SampledHandlesTinyInputs) {
  SortConfig config;
  config.num_nodes = 3;
  config.num_records = 2;  // fewer records than sample or partitions
  config.partitioner = PartitionerKind::kSampled;
  const auto part = MakePartitioner(config);
  EXPECT_EQ(part->num_partitions(), 3);
}

TEST(AlgorithmResult, TotalsAndAggregates) {
  AlgorithmResult result;
  result.partitions = {{Record{}, Record{}}, {Record{}}};
  NodeWork w;
  w.reduce_bytes = 7;
  result.work = {w, w, w};
  EXPECT_EQ(result.total_output_records(), 3u);
  EXPECT_EQ(result.total_work().reduce_bytes, 21u);
}

}  // namespace
}  // namespace cts
