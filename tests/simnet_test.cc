// Tests for the discrete-event schedule simulator and its agreement
// with the analytics closed forms on real shuffle logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analytics/report.h"
#include "codedterasort/coded_terasort.h"
#include "simnet/schedule.h"
#include "terasort/terasort.h"

namespace cts::simnet {
namespace {

LinkModel UnitLink() {
  LinkModel link;
  link.bytes_per_sec = 1.0;  // 1 byte/s: durations equal byte counts
  link.multicast_log_coeff = 0.0;
  return link;
}

// Lower bound for any parallel schedule: the busiest single link's
// total occupancy (the shape of analytics' parallel closed form).
double BusiestLinkSeconds(const TransmissionLog& log, const LinkModel& link,
                          int num_nodes, bool full_duplex) {
  std::vector<double> tx(static_cast<std::size_t>(num_nodes), 0.0);
  std::vector<double> rx(static_cast<std::size_t>(num_nodes), 0.0);
  for (const Transmission& t : log) {
    tx[static_cast<std::size_t>(t.src)] += link.tx_seconds(t);
    for (const NodeId d : t.dsts) {
      rx[static_cast<std::size_t>(d)] += link.rx_seconds(t);
    }
  }
  double bound = 0;
  for (std::size_t n = 0; n < tx.size(); ++n) {
    bound = std::max(bound, full_duplex ? std::max(tx[n], rx[n])
                                        : tx[n] + rx[n]);
  }
  return bound;
}

TEST(LinkModel, TxAppliesMulticastPenaltyRxDoesNot) {
  LinkModel link;
  link.bytes_per_sec = 100.0;
  link.multicast_log_coeff = 0.5;
  const Transmission unicast{0, {1}, 100};
  EXPECT_DOUBLE_EQ(link.tx_seconds(unicast), 1.0);
  EXPECT_DOUBLE_EQ(link.rx_seconds(unicast), 1.0);
  const Transmission mcast{0, {1, 2, 3, 4}, 100};
  EXPECT_DOUBLE_EQ(link.tx_seconds(mcast), 1.0 + 0.5 * 2.0);  // log2(4)=2
  EXPECT_DOUBLE_EQ(link.rx_seconds(mcast), 1.0);
}

TEST(Serial, MakespanIsSumOfDurations) {
  const TransmissionLog log{{0, {1}, 10}, {1, {0}, 20}, {0, {2}, 5}};
  EXPECT_DOUBLE_EQ(SerialMakespan(log, UnitLink()), 35.0);
  EXPECT_DOUBLE_EQ(SerialMakespan({}, UnitLink()), 0.0);
}

TEST(Parallel, DisjointTransfersOverlapCompletely) {
  // 0->1 and 2->3 share no links: makespan = max, not sum.
  const TransmissionLog log{{0, {1}, 10}, {2, {3}, 30}};
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 4, true), 30.0);
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 4, false), 30.0);
}

TEST(Parallel, SharedSenderSerializes) {
  const TransmissionLog log{{0, {1}, 10}, {0, {2}, 10}};
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 3, true), 20.0);
}

TEST(Parallel, SharedReceiverSerializes) {
  const TransmissionLog log{{0, {2}, 10}, {1, {2}, 10}};
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 3, true), 20.0);
}

TEST(Parallel, HalfDuplexSerializesOpposingDirections) {
  // 0->1 then 1->0: full duplex overlaps after the first finishes...
  // actually 1 must receive before sending in list order; half duplex
  // gives 20, full duplex also 20 here (1's send waits for its recv in
  // list order? no — list order only gates resource availability).
  const TransmissionLog log{{0, {1}, 10}, {1, {0}, 10}};
  // Full duplex: 1's uplink and 0's downlink are free at t=0, but 1's
  // downlink is busy until 10 — independent resources, so the second
  // transfer runs [0,10] too.
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 2, true), 10.0);
  // Half duplex: node links are shared, so the transfers serialize.
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 2, false), 20.0);
}

TEST(Parallel, MulticastOccupiesAllReceivers) {
  const TransmissionLog log{{0, {1, 2}, 10}, {3, {2}, 10}};
  // The second transfer shares receiver 2's downlink.
  EXPECT_DOUBLE_EQ(ParallelMakespan(log, UnitLink(), 4, true), 20.0);
}

TEST(Parallel, NeverBeatsTheLinkBound) {
  const TransmissionLog log{{0, {1}, 7},  {1, {2}, 13}, {2, {0}, 5},
                            {0, {2}, 11}, {1, {0}, 3},  {2, {1}, 9}};
  for (const bool fd : {true, false}) {
    const double makespan = ParallelMakespan(log, UnitLink(), 3, fd);
    const double bound = BusiestLinkSeconds(log, UnitLink(), 3, fd);
    EXPECT_GE(makespan + 1e-12, bound);
    EXPECT_LE(makespan, SerialMakespan(log, UnitLink()) + 1e-12);
  }
}

// ---- Replay edge cases ----

TEST(Replay, EmptyLogIsZeroEverywhere) {
  for (const Discipline d :
       {Discipline::kSerial, Discipline::kParallelHalfDuplex,
        Discipline::kParallelFullDuplex}) {
    for (const ReplayOrder o : {ReplayOrder::kLogOrder,
                                ReplayOrder::kPerSender}) {
      EXPECT_DOUBLE_EQ(ReplayMakespan({}, UnitLink(), 4, d, o), 0.0);
    }
  }
}

TEST(Replay, SingleNodeWorldHasNothingToSend) {
  // A 1-node world can log no transmissions (src == dst is invalid);
  // every discipline agrees on an empty makespan.
  for (const Discipline d :
       {Discipline::kSerial, Discipline::kParallelHalfDuplex,
        Discipline::kParallelFullDuplex}) {
    EXPECT_DOUBLE_EQ(ReplayMakespan({}, UnitLink(), 1, d), 0.0);
  }
}

TEST(Replay, MulticastFanoutOnePenaltyVanishes) {
  LinkModel link;
  link.bytes_per_sec = 1.0;
  link.multicast_log_coeff = 10.0;  // huge coeff must not matter
  const Transmission fanout1{0, {1}, 25};
  EXPECT_FALSE(fanout1.is_multicast());
  EXPECT_DOUBLE_EQ(link.tx_seconds(fanout1), 25.0);
  EXPECT_DOUBLE_EQ(link.tx_seconds(fanout1), link.rx_seconds(fanout1));
  const TransmissionLog log{fanout1};
  for (const Discipline d :
       {Discipline::kSerial, Discipline::kParallelHalfDuplex,
        Discipline::kParallelFullDuplex}) {
    EXPECT_DOUBLE_EQ(ReplayMakespan(log, link, 2, d), 25.0);
  }
}

TEST(Replay, SingleSenderSerialEqualsParallel) {
  // All traffic leaves one node: its uplink serializes everything, so
  // the shared-medium sum and the per-node-link replays coincide,
  // under both initiation orders.
  const TransmissionLog log{
      {0, {1}, 10, 0}, {0, {2}, 20, 1}, {0, {3}, 5, 2}, {0, {1}, 15, 3}};
  const double serial = ReplayMakespan(log, UnitLink(), 4,
                                       Discipline::kSerial);
  EXPECT_DOUBLE_EQ(serial, 50.0);
  for (const Discipline d : {Discipline::kParallelHalfDuplex,
                             Discipline::kParallelFullDuplex}) {
    for (const ReplayOrder o : {ReplayOrder::kLogOrder,
                                ReplayOrder::kPerSender}) {
      EXPECT_DOUBLE_EQ(ReplayMakespan(log, UnitLink(), 4, d, o), serial);
    }
  }
}

TEST(Parallel, RejectsOutOfRangeNodes) {
  const TransmissionLog log{{0, {5}, 10}};
  EXPECT_THROW(ParallelMakespan(log, UnitLink(), 3, true), CheckError);
}

// ---- Cross-validation against real shuffle logs ----

TEST(CrossValidation, SerialReplayMatchesAnalyticsTeraSort) {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 6000;
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    TeraSortNode(comm, rec, config);
  });
  const auto log = world.stats().transmission_log(stage::kShuffle);
  EXPECT_EQ(log.size(), 6u * 5u);

  const CostModel model;
  LinkModel link;
  link.bytes_per_sec = model.effective_link_rate();
  link.multicast_log_coeff = model.multicast_log_coeff;
  const double replay = SerialMakespan(log, link);
  const double closed =
      model.unicast_seconds(static_cast<double>(
          world.stats().stage(stage::kShuffle).unicast_bytes));
  EXPECT_NEAR(replay, closed, closed * 1e-9);
}

TEST(CrossValidation, SerialReplayMatchesAnalyticsCoded) {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    CodedTeraSortNode(comm, rec, config);
  });
  const auto log = world.stats().transmission_log(stage::kShuffle);
  EXPECT_EQ(log.size(), Binomial(6, 3) * 3);
  for (const auto& t : log) {
    EXPECT_EQ(t.dsts.size(), 2u);  // every packet reaches r receivers
  }

  const CostModel model;
  LinkModel link;
  link.bytes_per_sec = model.effective_link_rate();
  link.multicast_log_coeff = model.multicast_log_coeff;
  const double replay = SerialMakespan(log, link);
  const auto counters = world.stats().stage(stage::kShuffle);
  const double closed = model.multicast_seconds(
      static_cast<double>(counters.mcast_bytes), 2.0);
  EXPECT_NEAR(replay, closed, closed * 1e-9);
}

TEST(CrossValidation, ParallelReplayBoundedByClosedForms) {
  // Event-driven parallel makespan must lie between the link bound
  // (analytics' parallel closed form) and the serial sum.
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 8000;
  config.distribution = KeyDistribution::kBalanced;
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    TeraSortNode(comm, rec, config);
  });
  const auto log = world.stats().transmission_log(stage::kShuffle);
  const LinkModel link;  // defaults
  for (const bool fd : {true, false}) {
    const double makespan = ParallelMakespan(log, link, 8, fd);
    EXPECT_GE(makespan + 1e-12, BusiestLinkSeconds(log, link, 8, fd));
    EXPECT_LE(makespan, SerialMakespan(log, link) + 1e-12);
  }
  // TeraSort's serial-by-sender order parallelizes poorly as-is (node
  // 0 sends everything first), but still beats the serial medium.
  EXPECT_LT(ParallelMakespan(log, link, 8, true),
            SerialMakespan(log, link) * 0.8);
}

}  // namespace
}  // namespace cts::simnet
