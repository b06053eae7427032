// Tests for the scenario engine: topology/cluster-profile semantics,
// the degenerate-scenario cross-check against simnet::ReplayMakespan
// (homogeneous single rack, no contention — 1e-9 relative agreement),
// and straggler / oversubscription behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "analytics/report.h"
#include "common/random.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "driver/cluster.h"
#include "obs/timeline.h"
#include "simnet/schedule.h"
#include "simscen/engine.h"
#include "simscen/netsim.h"
#include "simscen/scenario.h"
#include "terasort/terasort.h"

namespace cts::simscen {
namespace {

using simnet::Discipline;
using simnet::LinkModel;
using simnet::ReplayOrder;
using simnet::Transmission;
using simnet::TransmissionLog;

// Unit-rate single rack: durations equal byte counts.
Topology UnitRack(int num_nodes) {
  Topology t = Topology::SingleRack(num_nodes);
  t.access_bytes_per_sec = 1.0;
  t.multicast_log_coeff = 0.0;
  return t;
}

constexpr Discipline kAllDisciplines[] = {
    Discipline::kSerial, Discipline::kParallelHalfDuplex,
    Discipline::kParallelFullDuplex};
constexpr ReplayOrder kAllOrders[] = {ReplayOrder::kLogOrder,
                                      ReplayOrder::kPerSender};

// ---- Topology & ClusterProfile semantics ----

TEST(Topology, RackAssignmentAndCoreCrossing) {
  Topology t = Topology::Oversubscribed(/*num_nodes=*/6, /*nodes_per_rack=*/2,
                                        /*factor=*/3.0);
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(1), 0);
  EXPECT_EQ(t.rack_of(2), 1);
  EXPECT_EQ(t.rack_of(5), 2);
  EXPECT_TRUE(t.core_is_finite());
  EXPECT_DOUBLE_EQ(t.core_bytes_per_sec, 6.0 * t.access_bytes_per_sec / 3.0);
  EXPECT_FALSE(t.crosses_core(Transmission{0, {1}, 10}));
  EXPECT_TRUE(t.crosses_core(Transmission{0, {2}, 10}));
  EXPECT_TRUE(t.crosses_core(Transmission{0, {1, 4}, 10}));  // one remote dst
}

TEST(Topology, SingleRackNeverCrossesCore) {
  const Topology t = Topology::SingleRack(4);
  EXPECT_FALSE(t.core_is_finite());
  EXPECT_FALSE(t.crosses_core(Transmission{0, {1, 2, 3}, 10}));
}

TEST(ClusterProfile, SlowNodeStretchesOnlyThatNode) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kSlowNode;
  p.straggler.node = 2;
  p.straggler.slowdown = 3.0;
  EXPECT_DOUBLE_EQ(p.compute_seconds(0, 0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(p.compute_seconds(2, 0, 10.0), 30.0);
}

TEST(ClusterProfile, SpeedMultipliersDivideDurations) {
  ClusterProfile p;
  p.speed = {1.0, 0.5, 2.0};
  EXPECT_DOUBLE_EQ(p.compute_seconds(1, 0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(p.compute_seconds(2, 0, 10.0), 5.0);
}

TEST(ClusterProfile, ShiftedExpIsDeterministicAndAtLeastShift) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kShiftedExp;
  p.straggler.shift = 1.0;
  p.straggler.mean = 0.5;
  p.straggler.seed = 7;
  double sum = 0;
  for (int n = 0; n < 4; ++n) {
    for (int s = 0; s < 3; ++s) {
      const double f = p.straggler_factor(n, s);
      EXPECT_GE(f, 1.0);
      EXPECT_DOUBLE_EQ(f, p.straggler_factor(n, s));  // reproducible
      sum += f;
    }
  }
  // Distinct (node, stage) pairs draw distinct factors.
  EXPECT_NE(p.straggler_factor(0, 0), p.straggler_factor(1, 0));
  EXPECT_NE(p.straggler_factor(0, 0), p.straggler_factor(0, 1));
  // Mean factor should be near shift + mean (loose, 12 draws).
  EXPECT_NEAR(sum / 12.0, 1.5, 0.75);
}

// ---- Degenerate network replay: single rack == simnet ----

void ExpectDegenerateMatch(const TransmissionLog& log, int num_nodes) {
  const Topology topo = Topology::SingleRack(num_nodes);
  const LinkModel link;  // defaults — same constants as the topology
  for (const Discipline d : kAllDisciplines) {
    for (const ReplayOrder o : kAllOrders) {
      const double expect = simnet::ReplayMakespan(log, link, num_nodes, d, o);
      const double got = NetMakespan(log, topo, d, o);
      EXPECT_NEAR(got, expect, expect * 1e-9)
          << "discipline=" << static_cast<int>(d)
          << " order=" << static_cast<int>(o);
    }
  }
}

TEST(NetMakespan, EmptyLogIsZero) {
  for (const Discipline d : kAllDisciplines) {
    for (const ReplayOrder o : kAllOrders) {
      EXPECT_DOUBLE_EQ(NetMakespan({}, UnitRack(3), d, o), 0.0);
    }
  }
}

TEST(NetMakespan, SyntheticUnicastsMatchSimnet) {
  TransmissionLog log{{0, {1}, 10, 0}, {0, {2}, 20, 1}, {1, {2}, 5, 2},
                      {2, {0}, 7, 3},  {3, {1}, 9, 4},  {1, {3}, 11, 5}};
  ExpectDegenerateMatch(log, 4);
}

TEST(NetMakespan, SyntheticMulticastsMatchSimnet) {
  TransmissionLog log{{0, {1, 2, 3}, 12, 0},
                      {1, {0, 2}, 8, 1},
                      {3, {0, 1}, 10, 2},
                      {2, {3}, 6, 3}};
  ExpectDegenerateMatch(log, 4);
}

TEST(NetMakespan, LaterEntryMustWaitForBlockedPredecessorsLink) {
  // The per-link FIFO property that distinguishes simnet's list
  // schedule from eager admission: B (0->2) is blocked on 0's uplink
  // until A finishes, and E (3->2), although its links are idle at
  // t=0, must not overtake B on 2's downlink.
  const TransmissionLog log{{0, {1}, 10, 0}, {0, {2}, 10, 1}, {3, {2}, 10, 2}};
  const Topology topo = UnitRack(4);
  LinkModel unit;
  unit.bytes_per_sec = 1.0;
  unit.multicast_log_coeff = 0.0;
  const double expect = simnet::ReplayMakespan(
      log, unit, 4, Discipline::kParallelFullDuplex, ReplayOrder::kLogOrder);
  EXPECT_DOUBLE_EQ(expect, 30.0);  // A [0,10], B [10,20], E [20,30]
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   30.0);
  // Per-sender order lets E's sender initiate independently: E [0,10],
  // B [10,20].
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kPerSender),
                   20.0);
}

TEST(NetMakespan, MulticastReleasesReceiversBeforeSenderTail) {
  // Fanout-2 multicast with coeff 1 streams 2x its payload on the
  // sender's uplink; a follow-up unicast into one of its receivers may
  // start at the receiver-release time (t=10), not the sender-tail
  // time (t=20) — matching simnet's rx_end vs tx_end split.
  Topology topo = UnitRack(3);
  topo.multicast_log_coeff = 1.0;  // penalty = 1 + log2(2) = 2
  const TransmissionLog log{{0, {1, 2}, 10, 0}, {1, {2}, 10, 1}};
  LinkModel link;
  link.bytes_per_sec = 1.0;
  link.multicast_log_coeff = 1.0;
  const double expect = simnet::ReplayMakespan(
      log, link, 3, Discipline::kParallelFullDuplex, ReplayOrder::kLogOrder);
  EXPECT_DOUBLE_EQ(expect, 20.0);  // mcast tx [0,20]; unicast [10,20]
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

TEST(NetMakespan, RealTeraSortLogsMatchSimnet) {
  for (const ShuffleSync sync :
       {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
    SortConfig config;
    config.num_nodes = 6;
    config.num_records = 6000;
    config.shuffle_sync = sync;
    const AlgorithmResult result = RunTeraSort(config);
    ExpectDegenerateMatch(result.shuffle_log, config.num_nodes);
  }
}

TEST(NetMakespan, RealCodedTeraSortLogsMatchSimnet) {
  for (const ShuffleSync sync :
       {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
    SortConfig config;
    config.num_nodes = 6;
    config.redundancy = 2;
    config.num_records = 6000;
    config.shuffle_sync = sync;
    const AlgorithmResult result = RunCodedTeraSort(config);
    ExpectDegenerateMatch(result.shuffle_log, config.num_nodes);
  }
}

// ---- Straggler-sampler golden regression values ----
//
// The scenario sweeps publish numbers derived from these samplers; a
// silent change to the ClusterProfile RNG (seeding, mixing, the
// shifted-exponential transform) would shift every published cell.
// These constants were produced by the shipped implementation — a
// mismatch means the sampler changed, not that the test is stale.

TEST(StragglerSamplers, ShiftedExpMatchesGoldenValues) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kShiftedExp;
  p.straggler.shift = 1.0;
  p.straggler.mean = 0.5;
  p.straggler.seed = 2017;
  const struct {
    NodeId node;
    int stage;
    double factor;
  } golden[] = {
      {0, 0, 2.4843404255324195}, {0, 1, 1.2776713779528857},
      {1, 0, 1.3586403296308975}, {1, 1, 1.365690649062504},
      {2, 0, 1.7091230016346275}, {2, 1, 1.6057415058511517},
  };
  for (const auto& g : golden) {
    EXPECT_NEAR(p.straggler_factor(g.node, g.stage), g.factor,
                g.factor * 1e-12)
        << "node " << g.node << " stage " << g.stage;
  }
  // Parameters and seed feed the draw.
  p.straggler.seed = 7;
  p.straggler.shift = 2.0;
  p.straggler.mean = 1.5;
  EXPECT_NEAR(p.straggler_factor(1, 3), 3.3508073399655709,
              3.3508073399655709 * 1e-12);
}

TEST(StragglerSamplers, SlowNodeAndFailStopAreExact) {
  ClusterProfile p = ClusterProfile::Homogeneous(3);
  p.straggler.kind = StragglerKind::kSlowNode;
  p.straggler.node = 1;
  p.straggler.slowdown = 7.5;
  EXPECT_DOUBLE_EQ(p.straggler_factor(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 0), 7.5);
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 5), 7.5);  // stage-independent
  // Fail-stop is a time window applied by the engine, never a rate.
  p.straggler.kind = StragglerKind::kFailStop;
  p.straggler.fail_at = 1.0;
  p.straggler.recovery = 100.0;
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 0), 1.0);
}

// ---- NetMakespan properties over randomized topologies ----
//
// Two invariants over ~200 random (log, topology) pairs and every
// discipline/order:
//   * byte conservation — every payload byte in the log is delivered,
//     and no flow outlives the reported makespan;
//   * monotonicity in link rates — doubling every rate exactly halves
//     the makespan (time is inverse-linear when the whole fabric
//     scales), and widening one resource never hurts.

simnet::TransmissionLog RandomLog(Xoshiro256& rng, int n) {
  TransmissionLog log;
  const int m = 1 + static_cast<int>(rng.below(24));
  for (int i = 0; i < m; ++i) {
    Transmission t;
    t.src = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const int fanout =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    for (int d = 0; d < n && static_cast<int>(t.dsts.size()) < fanout; ++d) {
      if (d != t.src && rng.below(2) == 0) {
        t.dsts.push_back(d);
      }
    }
    if (t.dsts.empty()) {
      t.dsts.push_back(t.src == 0 ? 1 : 0);
    }
    t.bytes = 1 + rng.below(1000);
    t.seq = static_cast<std::uint64_t>(i);
    log.push_back(std::move(t));
  }
  return log;
}

Topology RandomTopology(Xoshiro256& rng, int n) {
  Topology t;
  t.num_nodes = n;
  t.nodes_per_rack = 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(n)));
  t.access_bytes_per_sec = 0.5 + 4.0 * rng.uniform();
  t.core_bytes_per_sec = rng.below(2) == 0
                             ? std::numeric_limits<double>::infinity()
                             : 0.3 + 4.0 * rng.uniform();
  t.multicast_log_coeff = rng.below(2) == 0 ? 0.0 : rng.uniform();
  return t;
}

TEST(NetMakespanProperty, ConservesBytesAndIsMonotoneInLinkRates) {
  Xoshiro256 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomTopology(rng, n);
    double total_bytes = 0;
    for (const auto& t : log) {
      total_bytes += static_cast<double>(t.bytes);
    }

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats stats;
        const double makespan = NetMakespan(log, topo, d, o, {}, &stats);
        ASSERT_GT(makespan, 0.0);

        // Byte conservation: everything in the log was delivered and
        // every flow finished within the makespan.
        EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, total_bytes);
        ASSERT_EQ(stats.flow_end.size(), log.size());
        for (const double e : stats.flow_end) {
          EXPECT_GT(e, 0.0);
          EXPECT_LE(e, makespan * (1 + 1e-12));
        }

        // Scaling the whole fabric by 2 exactly halves the makespan
        // (admission decisions are scale-free; rates divide by powers
        // of two exactly).
        Topology twice = topo;
        twice.access_bytes_per_sec *= 2.0;
        twice.core_bytes_per_sec *= 2.0;
        EXPECT_NEAR(NetMakespan(log, twice, d, o), makespan / 2.0,
                    makespan * 1e-12);

        // Widening a single resource never hurts.
        Topology wider_core = topo;
        wider_core.core_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_core, d, o),
                  makespan * (1 + 1e-9));
        Topology wider_access = topo;
        wider_access.access_bytes_per_sec *= 2.0;
        EXPECT_LE(NetMakespan(log, wider_access, d, o),
                  makespan * (1 + 1e-9));
      }
    }
  }
}

// ---- Per-rack uplink/downlink pipes ----

constexpr double kInfRate = std::numeric_limits<double>::infinity();

Topology RandomRackPipeTopology(Xoshiro256& rng, int n) {
  Topology t = RandomTopology(rng, n);
  // Asymmetric pipes: up and down drawn independently, each
  // occasionally left infinite (mixed finite/infinite bookkeeping),
  // but at least one finite so the water-filling path is exercised.
  if (rng.below(4) != 0) {
    t.rack_uplink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (rng.below(4) != 0) {
    t.rack_downlink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (t.rack_uplink_bytes_per_sec == kInfRate &&
      t.rack_downlink_bytes_per_sec == kInfRate) {
    t.rack_downlink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (rng.below(2) == 0) t.rack_aware_multicast = true;
  return t;
}

TEST(RackPipeProperty, ConservesBytesAndIsMonotoneInPipeRates) {
  Xoshiro256 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomRackPipeTopology(rng, n);
    double total_bytes = 0;
    for (const auto& t : log) {
      total_bytes += static_cast<double>(t.bytes);
    }

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats stats;
        const double makespan = NetMakespan(log, topo, d, o, {}, &stats);
        ASSERT_GT(makespan, 0.0);

        // Byte conservation survives the pipe constraints.
        EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, total_bytes);
        ASSERT_EQ(stats.flow_end.size(), log.size());
        for (const double e : stats.flow_end) {
          EXPECT_GT(e, 0.0);
          EXPECT_LE(e, makespan * (1 + 1e-12));
        }

        // Scaling the whole fabric (access, core and both rack pipes)
        // by 2 exactly halves the makespan.
        Topology twice = topo;
        twice.access_bytes_per_sec *= 2.0;
        twice.core_bytes_per_sec *= 2.0;
        twice.rack_uplink_bytes_per_sec *= 2.0;
        twice.rack_downlink_bytes_per_sec *= 2.0;
        EXPECT_NEAR(NetMakespan(log, twice, d, o), makespan / 2.0,
                    makespan * 1e-12);

        // Widening one pipe never hurts — and removing both entirely
        // (back to the shared-core-only fabric) never hurts either.
        Topology wider_up = topo;
        wider_up.rack_uplink_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_up, d, o), makespan * (1 + 1e-9));
        Topology wider_down = topo;
        wider_down.rack_downlink_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_down, d, o),
                  makespan * (1 + 1e-9));
        Topology no_pipes = topo;
        no_pipes.rack_uplink_bytes_per_sec =
            std::numeric_limits<double>::infinity();
        no_pipes.rack_downlink_bytes_per_sec =
            std::numeric_limits<double>::infinity();
        EXPECT_LE(NetMakespan(log, no_pipes, d, o), makespan * (1 + 1e-9));
      }
    }
  }
}

TEST(RackPipeProperty, InfinitePipesAreBitForBitTheSharedCorePath) {
  // Explicitly-infinite rack pipes must not change a single bit of the
  // core-only replay (an infinite pipe is never put on a flow's pipe
  // list), and effectively-unconstrained *finite* pipes — which do
  // enter the water-filling — must land within 1e-9.
  Xoshiro256 rng(20260809);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomTopology(rng, n);

    Topology infinite = topo;
    infinite.rack_uplink_bytes_per_sec =
        std::numeric_limits<double>::infinity();
    infinite.rack_downlink_bytes_per_sec =
        std::numeric_limits<double>::infinity();
    Topology huge = topo;
    huge.rack_uplink_bytes_per_sec = 1e12;
    huge.rack_downlink_bytes_per_sec = 1e12;

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats base_stats;
        const double base = NetMakespan(log, topo, d, o, {}, &base_stats);

        NetReplayStats inf_stats;
        const double with_inf =
            NetMakespan(log, infinite, d, o, {}, &inf_stats);
        EXPECT_EQ(with_inf, base);
        ASSERT_EQ(inf_stats.flow_end.size(), base_stats.flow_end.size());
        for (std::size_t i = 0; i < base_stats.flow_end.size(); ++i) {
          EXPECT_EQ(inf_stats.flow_end[i], base_stats.flow_end[i]);
        }

        const double with_huge = NetMakespan(log, huge, d, o);
        EXPECT_NEAR(with_huge, base, base * 1e-9);
      }
    }
  }
}

// Unit-access two-rack fabric ({0,1} | {2,3}), infinite core, so only
// the configured rack pipe constrains. Durations equal byte counts
// divided by the binding rate.
Topology TwoRackPipes(double up, double down) {
  Topology t;
  t.num_nodes = 4;
  t.nodes_per_rack = 2;
  t.access_bytes_per_sec = 1.0;
  t.multicast_log_coeff = 0.0;
  t.rack_uplink_bytes_per_sec = up;
  t.rack_downlink_bytes_per_sec = down;
  return t;
}

TEST(RackPipes, UplinkIsSharedByFlowsLeavingTheRack) {
  const Topology topo = TwoRackPipes(/*up=*/0.5, /*down=*/kInfRate);
  // One 10 B crossing flow: capped by rack 0's 0.5 B/s uplink.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10, 0}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
  // Two concurrent flows out of rack 0 share its uplink: 0.25 each.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10, 0}, {1, {3}, 10, 1}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   40.0);
  // Opposite directions use different uplinks: no sharing.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10, 0}, {3, {1}, 10, 1}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

TEST(RackPipes, DownlinkIsSharedByFlowsEnteringTheRack) {
  const Topology topo = TwoRackPipes(/*up=*/kInfRate, /*down=*/0.5);
  // Both flows enter rack 1: its downlink is the shared bottleneck.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10, 0}, {1, {3}, 10, 1}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   40.0);
  // Opposite directions enter different racks: no sharing.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10, 0}, {3, {1}, 10, 1}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

TEST(RackPipes, RackAwareMulticastPutsOneCopyOnTheDownlink) {
  // A fanout-2 multicast into rack 1: the rack-oblivious sender pushes
  // two copies through the 0.5 B/s downlink (effective 0.25 B/s); with
  // rack-aware multicast the rack switch replicates, one copy, 0.5.
  const TransmissionLog log{{0, {2, 3}, 10, 0}};
  Topology topo = TwoRackPipes(/*up=*/kInfRate, /*down=*/0.5);
  for (const Discipline d : kAllDisciplines) {
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, topo, d, ReplayOrder::kLogOrder), 40.0);
  }
  topo.rack_aware_multicast = true;
  for (const Discipline d : kAllDisciplines) {
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, topo, d, ReplayOrder::kLogOrder), 20.0);
  }
}

TEST(RackPipes, CrossRackBytesCountsCopiesEnteringOtherRacks) {
  Topology topo = TwoRackPipes(kInfRate, kInfRate);
  const TransmissionLog log{
      {0, {1}, 10, 0},        // rack-local: free
      {0, {2}, 100, 1},       // one copy across
      {0, {2, 3}, 1000, 2},   // two copies across (per receiver)
      {2, {0, 3}, 10000, 3},  // one across (dst 3 is rack-local)
  };
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, topo), 100 + 2000 + 10000);
  // Rack-aware multicast ships one copy per destination rack.
  topo.rack_aware_multicast = true;
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, topo), 100 + 1000 + 10000);
  // A single rack never crosses.
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, Topology::SingleRack(4)), 0.0);
}

// ---- Network-stage outages (fail-stop during the shuffle) ----

TEST(NetMakespanOutage, InFlightTransferLosesProgressAndRestartsAfter) {
  // 10 B at rate 1 from node 0 to node 1; node 1 dies at t=5 with the
  // transfer halfway. The 5 delivered-so-far bytes are lost and the
  // whole payload retransmits once the node is back at t=20.
  const TransmissionLog log{{0, {1}, 10, 0}};
  LinkOutage outage{/*node=*/1, /*start=*/5.0, /*end=*/20.0};
  for (const Discipline d :
       {Discipline::kParallelFullDuplex, Discipline::kParallelHalfDuplex}) {
    for (const ReplayOrder o : kAllOrders) {
      NetReplayStats stats;
      const double makespan =
          NetMakespan(log, UnitRack(3), d, o, outage, &stats);
      EXPECT_DOUBLE_EQ(makespan, 30.0) << static_cast<int>(d);
      ASSERT_EQ(stats.flow_end.size(), 1u);
      EXPECT_GE(stats.flow_end[0], outage.end);  // finishes after window
      EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 10.0);
    }
  }
}

TEST(NetMakespanOutage, FollowersOvertakeTheRequeuedTransfer) {
  // A (0->1) is in flight when node 1 dies at t=5; re-queuing releases
  // node 0's uplink, so B (0->2) — otherwise FIFO-blocked behind A —
  // runs during the outage. A retransmits at t=50.
  const TransmissionLog log{{0, {1}, 10, 0}, {0, {2}, 10, 1}};
  LinkOutage outage{/*node=*/1, /*start=*/5.0, /*end=*/50.0};
  for (const ReplayOrder o : kAllOrders) {
    NetReplayStats stats;
    const double makespan = NetMakespan(
        log, UnitRack(3), Discipline::kParallelFullDuplex, o, outage, &stats);
    EXPECT_DOUBLE_EQ(makespan, 60.0);
    EXPECT_DOUBLE_EQ(stats.flow_end[0], 60.0);  // A: restarted at 50
    EXPECT_DOUBLE_EQ(stats.flow_end[1], 15.0);  // B: overtook during outage
    EXPECT_GE(stats.flow_end[0], outage.end);
    EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 20.0);
  }
}

TEST(NetMakespanOutage, TransferToDeadNodeWaitsOutTheWindow) {
  // The outage covers the stage start: nothing touching node 1 can be
  // admitted until it lifts.
  const TransmissionLog log{{0, {1}, 10, 0}};
  LinkOutage outage{/*node=*/1, /*start=*/0.0, /*end=*/12.0};
  for (const Discipline d :
       {Discipline::kParallelFullDuplex, Discipline::kParallelHalfDuplex}) {
    const double makespan = NetMakespan(log, UnitRack(2), d,
                                        ReplayOrder::kLogOrder, outage);
    EXPECT_DOUBLE_EQ(makespan, 22.0);
  }
}

TEST(NetMakespanOutage, MulticastWithOneDeadReceiverRetransmits) {
  // A fanout-2 multicast is in flight when one receiver dies: the
  // whole payload re-queues and both receivers get it after the
  // window (the replay treats a transmission as atomic).
  const TransmissionLog log{{0, {1, 2}, 10, 0}};
  LinkOutage outage{/*node=*/2, /*start=*/4.0, /*end=*/25.0};
  NetReplayStats stats;
  const double makespan =
      NetMakespan(log, UnitRack(3), Discipline::kParallelFullDuplex,
                  ReplayOrder::kLogOrder, outage, &stats);
  EXPECT_DOUBLE_EQ(makespan, 35.0);
  EXPECT_GE(stats.flow_end[0], outage.end);
  EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 10.0);
}

TEST(NetMakespanOutage, SerialMediumRestartsTheInterruptedTransfer) {
  // Serial discipline, unit rate: the first transfer (0->1) overlaps
  // the outage of node 0 and restarts at its end; the second holds
  // the medium behind it (the paper's one-at-a-time program order).
  const TransmissionLog log{{0, {1}, 10, 0}, {2, {1}, 5, 1}};
  LinkOutage outage{/*node=*/0, /*start=*/5.0, /*end=*/12.0};
  NetReplayStats stats;
  const double makespan =
      NetMakespan(log, UnitRack(3), Discipline::kSerial,
                  ReplayOrder::kLogOrder, outage, &stats);
  EXPECT_DOUBLE_EQ(stats.flow_end[0], 22.0);  // 12 + 10
  EXPECT_DOUBLE_EQ(stats.flow_end[1], 27.0);
  EXPECT_DOUBLE_EQ(makespan, 27.0);
}

TEST(NetMakespanOutage, WindowOutsideTheStageIsANoop) {
  const TransmissionLog log{{0, {1}, 10, 0}, {1, {0}, 10, 1}};
  for (const Discipline d : kAllDisciplines) {
    const double base =
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder);
    // Already over when the stage starts (active() is false)...
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder,
                    LinkOutage{0, -10.0, 0.0}),
        base);
    // ...or strikes long after the last byte.
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder,
                    LinkOutage{0, 1000.0, 2000.0}),
        base);
    // A node not in the log is irrelevant however the window falls.
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(3), d, ReplayOrder::kLogOrder,
                    LinkOutage{2, 0.0, 1000.0}),
        base);
  }
}

TEST(ReplayScenario, FailStopDuringShuffleFreezesLinksAndRequeues) {
  // Synthetic run: 2 s of Map, then a 10 B shuffle transfer 0->1 at
  // unit rate. Node 1 dies at absolute t=4 (2 s into the shuffle, the
  // transfer in flight) and recovers at t=14: the transfer restarts
  // and the shuffle stage stretches from 10 s to 22 s.
  ScenarioRun run;
  run.algorithm = "synthetic";
  run.num_nodes = 2;
  run.stages.push_back({stage::kMap, StageKind::kCompute, {2.0, 2.0}});
  run.stages.push_back({stage::kShuffle, StageKind::kNetwork, {}});
  run.shuffle_log = {{0, {1}, 10, 0}};

  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(2);
  s.topology = UnitRack(2);
  s.discipline = Discipline::kParallelFullDuplex;

  const ScenarioOutcome base = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(base.spans[1].end, 12.0);

  s.cluster.straggler.kind = StragglerKind::kFailStop;
  s.cluster.straggler.node = 1;
  s.cluster.straggler.fail_at = 4.0;
  s.cluster.straggler.recovery = 10.0;
  const ScenarioOutcome out = ReplayScenario(run, s);
  // Stage-local: outage [2, 12); transfer restarts at 12, done at 22.
  EXPECT_DOUBLE_EQ(out.spans[1].end, 24.0);
  EXPECT_DOUBLE_EQ(out.makespan, 24.0);
}

// ---- Oversubscribed core ----

TEST(NetMakespan, CrossRackFlowsShareTheCore) {
  // Two racks of two; both 10-byte flows cross and the 1 B/s core
  // halves their rates: makespan 20 instead of the uncontended 10.
  Topology topo = Topology::Oversubscribed(4, 2, 4.0);
  topo.access_bytes_per_sec = 1.0;
  topo.core_bytes_per_sec = 1.0;
  topo.multicast_log_coeff = 0.0;
  const TransmissionLog log{{0, {2}, 10, 0}, {1, {3}, 10, 1}};
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
  // An in-rack flow is unaffected by the congested core.
  const TransmissionLog local{{0, {1}, 10, 0}};
  EXPECT_DOUBLE_EQ(NetMakespan(local, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   10.0);
}

TEST(NetMakespan, OversubscriptionIsMonotone) {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 6000;
  const AlgorithmResult result = RunTeraSort(config);
  double prev = NetMakespan(result.shuffle_log,
                            Topology::SingleRack(config.num_nodes),
                            Discipline::kParallelFullDuplex,
                            ReplayOrder::kLogOrder);
  for (const double factor : {1.0, 4.0, 16.0}) {
    const Topology topo =
        Topology::Oversubscribed(config.num_nodes, 2, factor);
    const double t = NetMakespan(result.shuffle_log, topo,
                                 Discipline::kParallelFullDuplex,
                                 ReplayOrder::kLogOrder);
    EXPECT_GE(t + 1e-12, prev);
    prev = t;
  }
}

TEST(NetMakespan, SerialRateLimitedByCongestedCore) {
  Topology topo = Topology::Oversubscribed(4, 2, 1.0);
  topo.access_bytes_per_sec = 2.0;
  topo.core_bytes_per_sec = 1.0;
  topo.multicast_log_coeff = 0.0;
  // In-rack at 2 B/s (5 s), cross-rack at 1 B/s (10 s): serial sum.
  const TransmissionLog log{{0, {1}, 10, 0}, {0, {2}, 10, 1}};
  EXPECT_DOUBLE_EQ(
      NetMakespan(log, topo, Discipline::kSerial, ReplayOrder::kLogOrder),
      15.0);
}

// ---- Full-run scenario replay ----

AlgorithmResult SmallTeraSort() {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 6000;
  config.distribution = KeyDistribution::kBalanced;
  return RunTeraSort(config);
}

AlgorithmResult SmallCoded() {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  config.distribution = KeyDistribution::kBalanced;
  return RunCodedTeraSort(config);
}

Scenario DegenerateScenario(int num_nodes, Discipline d, ReplayOrder o) {
  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(num_nodes);
  s.topology = Topology::SingleRack(num_nodes);
  s.discipline = d;
  s.order = o;
  return s;
}

TEST(ReplayScenario, DegenerateMatchesAnalyticsBreakdown) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  for (const AlgorithmResult& result : {SmallTeraSort(), SmallCoded()}) {
    const StageBreakdown closed =
        SimulateRun(result, model, scale, ShuffleSchedule::kSerial);
    const ScenarioOutcome out = ReplayScenario(
        result, model, scale,
        DegenerateScenario(result.config.num_nodes, Discipline::kSerial,
                           ReplayOrder::kLogOrder));
    // Compute stages must agree with the closed-form max-over-nodes.
    for (const char* name : {stage::kMap, stage::kPack, stage::kEncode,
                             stage::kUnpack, stage::kDecode, stage::kReduce,
                             stage::kCodeGen}) {
      const double expect = closed.stage(name);
      const double got = out.breakdown().stage(name);
      EXPECT_NEAR(got, expect, expect * 1e-9 + 1e-12) << name;
    }
    // The serial shuffle must agree with the replayed closed pipeline.
    const double shuffle_expect = ReplayShuffleSeconds(
        result, model, scale, ShuffleSchedule::kSerial);
    EXPECT_NEAR(out.breakdown().stage(stage::kShuffle), shuffle_expect,
                shuffle_expect * 1e-9);
    // Makespan is the sum of barrier-synchronized spans.
    double sum = 0;
    for (const auto& span : out.spans) sum += span.seconds();
    EXPECT_NEAR(out.makespan, sum, sum * 1e-9);
  }
}

TEST(ReplayScenario, DegenerateParallelShuffleMatchesReplayMakespan) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  const AlgorithmResult result = SmallCoded();
  for (const Discipline d :
       {Discipline::kParallelHalfDuplex, Discipline::kParallelFullDuplex}) {
    for (const ReplayOrder o : kAllOrders) {
      const ScenarioOutcome out = ReplayScenario(
          result, model, scale,
          DegenerateScenario(result.config.num_nodes, d, o));
      const ShuffleSchedule sched = d == Discipline::kParallelFullDuplex
                                        ? ShuffleSchedule::kParallelFullDuplex
                                        : ShuffleSchedule::kParallelHalfDuplex;
      const double expect =
          ReplayShuffleSeconds(result, model, scale, sched, o);
      EXPECT_NEAR(out.breakdown().stage(stage::kShuffle), expect,
                  expect * 1e-9);
    }
  }
}

TEST(ReplayScenario, SlowNodeStretchesMapAndTotal) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  const AlgorithmResult result = SmallCoded();
  const Scenario base = DegenerateScenario(6, Discipline::kSerial,
                                           ReplayOrder::kLogOrder);
  Scenario straggled = base;
  straggled.cluster.straggler.kind = StragglerKind::kSlowNode;
  straggled.cluster.straggler.node = 0;
  straggled.cluster.straggler.slowdown = 4.0;

  const ScenarioOutcome b = ReplayScenario(result, model, scale, base);
  const ScenarioOutcome s = ReplayScenario(result, model, scale, straggled);
  EXPECT_GT(s.makespan, b.makespan);
  // The balanced workload spreads Map evenly, so the slow node
  // dominates and the Map span stretches by ~the full slowdown.
  EXPECT_NEAR(s.breakdown().stage(stage::kMap),
              4.0 * b.breakdown().stage(stage::kMap),
              b.breakdown().stage(stage::kMap) * 0.1);
  // The network stage is unaffected.
  EXPECT_DOUBLE_EQ(s.breakdown().stage(stage::kShuffle),
                   b.breakdown().stage(stage::kShuffle));
}

TEST(ReplayScenario, FailStopOutageDelaysExactlyRecovery) {
  // Synthetic two-stage run: node 1 computes 10 s per stage; an outage
  // window inside stage A pushes its completion (and everything after
  // the barrier) out by the recovery time.
  ScenarioRun run;
  run.algorithm = "synthetic";
  run.num_nodes = 2;
  run.stages.push_back({"A", StageKind::kCompute, {4.0, 10.0}});
  run.stages.push_back({"B", StageKind::kCompute, {10.0, 2.0}});

  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(2);
  s.topology = Topology::SingleRack(2);
  s.cluster.straggler.kind = StragglerKind::kFailStop;
  s.cluster.straggler.node = 1;
  s.cluster.straggler.fail_at = 5.0;
  s.cluster.straggler.recovery = 7.0;

  const ScenarioOutcome out = ReplayScenario(run, s);
  // Stage A: node 1 works [0,5], offline [5,12], finishes at 17.
  EXPECT_DOUBLE_EQ(out.spans[0].end, 17.0);
  // Stage B starts after the barrier and after the outage: plain 10 s.
  EXPECT_DOUBLE_EQ(out.spans[1].end, 27.0);
  EXPECT_DOUBLE_EQ(out.makespan, 27.0);

  // A node that begins a stage mid-outage waits for recovery first.
  s.cluster.straggler.fail_at = 0.0;
  s.cluster.straggler.recovery = 3.0;
  const ScenarioOutcome out2 = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(out2.spans[0].end, 13.0);  // starts at 3, +10
}

TEST(ReplayScenario, CmrEventsReplayThroughTheSameEngine) {
  cmr::CmrConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.mode = cmr::ShuffleMode::kCoded;
  const auto app = cmr::MakeGrepApp("map", 40);
  const cmr::CmrResult result = cmr::RunCmr(*app, config);
  ASSERT_FALSE(result.stage_order.empty());
  ASSERT_FALSE(result.compute_events.empty());

  const ScenarioRun run = BuildScenarioRunFromEvents(
      "CMR-Grep", config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log);
  ASSERT_EQ(run.stages.size(), result.stage_order.size());

  Scenario base = DegenerateScenario(4, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kLogOrder);
  const ScenarioOutcome b = ReplayScenario(run, base);
  EXPECT_GT(b.makespan, 0.0);

  Scenario slow = base;
  slow.cluster.straggler.kind = StragglerKind::kSlowNode;
  slow.cluster.straggler.node = 1;
  slow.cluster.straggler.slowdown = 10.0;
  EXPECT_GT(ReplayScenario(run, slow).makespan, b.makespan);
}

TEST(ReplayScenario, OverlappedCmrStragglerStillStretchesPipelinedStage) {
  // The overlapped uncoded CMR engine merges Map into the Shuffle
  // stage (pipelined). The stage is network-priced, but its measured
  // per-node compute must still respond to a straggler: the stage
  // ends when both the transfers and the slowest node are done.
  cmr::CmrConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.mode = cmr::ShuffleMode::kUncoded;
  config.sync = ShuffleSync::kOverlapped;
  const auto app = cmr::MakeGrepApp("map", 40);
  const cmr::CmrResult result = cmr::RunCmr(*app, config);

  const ScenarioRun run = BuildScenarioRunFromEvents(
      "CMR-Grep-overlapped", config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log);
  const auto shuffle_stage =
      std::find_if(run.stages.begin(), run.stages.end(),
                   [](const ScenarioRun::Stage& s) {
                     return s.name == stage::kShuffle;
                   });
  ASSERT_NE(shuffle_stage, run.stages.end());
  ASSERT_EQ(shuffle_stage->kind, StageKind::kNetwork);
  ASSERT_FALSE(shuffle_stage->node_seconds.empty());  // pipelined compute

  Scenario base = DegenerateScenario(4, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kLogOrder);
  const double baseline = ReplayScenario(run, base).makespan;
  Scenario slow = base;
  slow.cluster.straggler.kind = StragglerKind::kSlowNode;
  slow.cluster.straggler.node = 0;
  // Enormous slowdown: the compute leg must dominate the stage even
  // though the stage is network-priced.
  slow.cluster.straggler.slowdown = 1e6;
  EXPECT_GT(ReplayScenario(run, slow).makespan, baseline * 10);
}

TEST(ReplayScenario, OversubscribedCoreFlipsTheWinner) {
  // The headline scenario: on a non-blocking full-duplex fabric the
  // parallel shuffle drains fast and TeraSort's r=1 Map wins; on a
  // heavily oversubscribed core, CodedTeraSort's smaller cross-rack
  // footprint wins.
  const CostModel model;
  const RunScale scale = PaperScale(6000, 2400000);
  const AlgorithmResult ts = SmallTeraSort();
  const AlgorithmResult cts = SmallCoded();

  Scenario fast = DegenerateScenario(6, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kPerSender);
  const double ts_fast = ReplayScenario(ts, model, scale, fast).makespan;
  const double cts_fast = ReplayScenario(cts, model, scale, fast).makespan;

  Scenario congested = fast;
  congested.topology = Topology::Oversubscribed(6, 2, 64.0);
  const double ts_slow = ReplayScenario(ts, model, scale, congested).makespan;
  const double cts_slow =
      ReplayScenario(cts, model, scale, congested).makespan;

  // Congestion must hurt TeraSort (bigger cross-rack footprint) more.
  EXPECT_GT(ts_slow / ts_fast, cts_slow / cts_fast);
}

// ---- Ordering-hook seam ----

// Forces one fixed permutation of the first multi-candidate decision
// batch; every later decision stays canonical.
class FirstDecisionPermutationHook : public OrderingHook {
 public:
  explicit FirstDecisionPermutationHook(std::vector<std::size_t> perm)
      : perm_(std::move(perm)) {}

  std::vector<std::size_t> Choose(const OrderingDecision& d) override {
    ++decisions_;
    if (decisions_ > 1) return d.candidates;
    widths_.push_back(d.candidates.size());
    std::vector<std::size_t> out;
    for (const std::size_t p : perm_) out.push_back(d.candidates.at(p));
    return out;
  }

  int decisions() const { return decisions_; }
  const std::vector<std::size_t>& widths() const { return widths_; }

 private:
  const std::vector<std::size_t> perm_;
  int decisions_ = 0;
  std::vector<std::size_t> widths_;
};

TEST(NetMakespan, TieOrderPermutationInvariance) {
  // Three disjoint equal-size unicasts on a unit-rate rack: all three
  // complete at the same instant, so the DES faces one genuine
  // three-way completion tie. Whatever order the batch is processed
  // in, the replay must be bit-for-bit identical — makespan, per-flow
  // completion times, and delivered bytes.
  const Topology topo = UnitRack(6);
  TransmissionLog log;
  log.push_back({0, {1}, 500, 0});
  log.push_back({2, {3}, 500, 1});
  log.push_back({4, {5}, 500, 2});

  NetReplayStats canonical;
  const double base = NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                                  ReplayOrder::kLogOrder, {}, &canonical);
  EXPECT_DOUBLE_EQ(base, 500.0);

  std::vector<std::size_t> perm = {0, 1, 2};
  int permutations = 0;
  do {
    FirstDecisionPermutationHook hook(perm);
    NetReplayStats stats;
    const double m =
        NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                    ReplayOrder::kLogOrder, {}, &stats, &hook);
    ASSERT_GE(hook.decisions(), 1) << "no simultaneous-event batch seen";
    ASSERT_EQ(hook.widths().front(), 3u) << "expected a three-way tie";
    // Bitwise, not approximate: tie order must not leak into results.
    EXPECT_EQ(m, base);
    EXPECT_EQ(stats.flow_end, canonical.flow_end);
    EXPECT_EQ(stats.flow_start, canonical.flow_start);
    EXPECT_EQ(stats.delivered_payload_bytes,
              canonical.delivered_payload_bytes);
    ++permutations;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(permutations, 6);
}

TEST(NetMakespan, HookReceivesOutageRequeueDecisions) {
  // Full duplex: node 1 both receives (0 -> 1) and transmits (1 -> 2)
  // when the outage freezes it, so the requeue batch holds two flows.
  const Topology topo = UnitRack(4);
  TransmissionLog log;
  log.push_back({0, {1}, 1000, 0});
  log.push_back({1, {2}, 1000, 1});

  LinkOutage outage;
  outage.node = 1;
  outage.start = 200;
  outage.end = 300;

  class CountingHook : public OrderingHook {
   public:
    std::vector<std::size_t> Choose(const OrderingDecision& d) override {
      if (d.kind == OrderingDecision::Kind::kOutageRequeue) {
        requeue_widths.push_back(d.candidates.size());
      }
      return d.candidates;
    }
    std::vector<std::size_t> requeue_widths;
  } hook;

  NetReplayStats stats;
  NetMakespan(log, topo, Discipline::kParallelFullDuplex,
              ReplayOrder::kLogOrder, outage, &stats, &hook);
  ASSERT_EQ(hook.requeue_widths.size(), 1u);
  EXPECT_EQ(hook.requeue_widths.front(), 2u);
  EXPECT_EQ(stats.delivered_payload_bytes, 2000.0);
}

// Another interleaving of `log` that keeps every sender's seq order: a
// seeded random merge of the per-sender queues, with seq renumbered to
// the new global order (what a different thread race would have
// recorded). origin[i] is the position in `log` of new entry i.
TransmissionLog Reinterleave(const TransmissionLog& log, int num_nodes,
                             std::uint64_t seed,
                             std::vector<std::size_t>* origin) {
  std::vector<std::vector<std::size_t>> queues(
      static_cast<std::size_t>(num_nodes));
  for (std::size_t i = 0; i < log.size(); ++i) {
    queues[static_cast<std::size_t>(log[i].src)].push_back(i);
  }
  for (auto& q : queues) {
    std::sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      return log[a].seq < log[b].seq;
    });
    std::reverse(q.begin(), q.end());  // pop_back yields seq order
  }
  Xoshiro256 rng(seed);
  TransmissionLog out;
  origin->clear();
  while (out.size() < log.size()) {
    const auto n = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(num_nodes)));
    if (queues[n].empty()) continue;
    origin->push_back(queues[n].back());
    queues[n].pop_back();
    out.push_back(log[origin->back()]);
    out.back().seq = out.size() - 1;
  }
  return out;
}

TEST(NetMakespan, PerSenderReplayIgnoresLogInterleaving) {
  // The global seq order of a live log is a thread race; only each
  // sender's own order is program order. A kPerSender replay must
  // therefore price any interleaving that keeps the per-sender orders
  // bitwise identically — makespan, every transmission's completion
  // time, and the number of max-min recomputations — on a shared core
  // and with finite rack pipes alike.
  SortConfig config;
  config.num_nodes = 8;
  config.redundancy = 3;
  config.num_records = 40000;  // uniform keys: unequal packet sizes
  const TransmissionLog log = RunCodedTeraSort(config).shuffle_log;
  ASSERT_FALSE(log.empty());
  std::vector<std::size_t> origin;
  const TransmissionLog other =
      Reinterleave(log, config.num_nodes, 20261017, &origin);
  ASSERT_FALSE(std::is_sorted(origin.begin(), origin.end()))
      << "the reinterleaving must actually move entries";

  for (const Topology& topo :
       {Topology::Oversubscribed(8, 2, 4.0),
        Topology::RackOversubscribed(8, 2, 4.0, 2.0, 3.0)}) {
    for (const Discipline d : {Discipline::kParallelHalfDuplex,
                               Discipline::kParallelFullDuplex}) {
      NetReplayStats a;
      NetReplayStats b;
      const double ma =
          NetMakespan(log, topo, d, ReplayOrder::kPerSender, {}, &a);
      const double mb =
          NetMakespan(other, topo, d, ReplayOrder::kPerSender, {}, &b);
      EXPECT_EQ(ma, mb);
      EXPECT_EQ(a.maxmin_recomputations, b.maxmin_recomputations);
      ASSERT_EQ(b.flow_end.size(), origin.size());
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < origin.size(); ++i) {
        if (b.flow_end[i] != a.flow_end[origin[i]]) ++mismatched;
      }
      EXPECT_EQ(mismatched, 0u);
    }
  }
}

// ---- Golden replays: the flow DES pinned bit for bit ----
//
// Seeded synthetic logs replayed under every parallel discipline,
// order, topology family and outage setting, with a timeline probe.
// Each case pins the %a makespan, one FNV-1a digest over the per-flow
// time bits, the delivered bytes and the timeline digest, and the
// three DES counters. Any change to the scheduler's arithmetic or
// event order changes a row. On a mismatch the test prints the row it
// computed, in table syntax.

// `flows` transmissions from uniformly drawn senders, each to
// 1..max_fanout distinct receivers, with 8-64 KB payloads (unequal, so
// completions rarely tie), in a seeded global interleaving.
TransmissionLog SyntheticLog(int k, int flows, int max_fanout,
                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TransmissionLog log;
  for (int i = 0; i < flows; ++i) {
    Transmission t;
    t.src = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(k)));
    const auto fanout =
        1 + rng.below(static_cast<std::uint64_t>(max_fanout));
    while (t.dsts.size() < fanout) {
      const auto d =
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(k)));
      if (d != t.src &&
          std::find(t.dsts.begin(), t.dsts.end(), d) == t.dsts.end()) {
        t.dsts.push_back(d);
      }
    }
    t.bytes = 8000 + rng.below(56001);
    t.seq = static_cast<std::uint64_t>(i);
    log.push_back(std::move(t));
  }
  return log;
}

// Equal-size unicasts in rounds: in round j node n sends to node
// n + 1 + (j mod (k - 1)), mod k, so a round's flows finish at the same
// instant and the DES faces k-way completion ties.
TransmissionLog EqualBytesLog(int k, int rounds) {
  TransmissionLog log;
  for (int j = 0; j < rounds; ++j) {
    for (int n = 0; n < k; ++n) {
      const auto dst = static_cast<NodeId>((n + 1 + j % (k - 1)) % k);
      log.push_back({static_cast<NodeId>(n), {dst}, 12000, log.size()});
    }
  }
  return log;
}

struct GoldenLog {
  const char* name;
  int k;
  TransmissionLog log;
};

std::vector<GoldenLog> GoldenLogs() {
  // Seeds picked so that node 3 has a flow in flight when the golden
  // outage starts, in every case: each outage row re-queues.
  return {{"K8-unicast", 8, SyntheticLog(8, 400, 1, 1405)},
          {"K8-multicast", 8, SyntheticLog(8, 400, 4, 1405)},
          {"K16-unicast", 16, SyntheticLog(16, 576, 1, 1409)},
          {"K16-multicast", 16, SyntheticLog(16, 576, 4, 1412)},
          {"K16-ties", 16, EqualBytesLog(16, 30)}};
}

std::vector<std::pair<const char*, Topology>> GoldenTopologies(int k) {
  Topology aware = Topology::RackOversubscribed(k, 4, 2.0, 1.5, 3.0);
  aware.rack_aware_multicast = true;
  return {{"single-rack", Topology::SingleRack(k)},
          {"oversub", Topology::Oversubscribed(k, 4, 2.0)},
          {"rack-oversub", Topology::RackOversubscribed(k, 4, 2.0, 1.5, 3.0)},
          {"rack-aware", aware}};
}

constexpr Discipline kParallelDisciplines[] = {
    Discipline::kParallelHalfDuplex, Discipline::kParallelFullDuplex};

LinkOutage GoldenOutage(bool on) {
  LinkOutage outage;
  if (on) {
    outage.node = 3;
    outage.start = 0.002;
    outage.end = 0.02;
  }
  return outage;
}

std::string CaseLabel(const GoldenLog& g, const char* topo, Discipline d,
                      ReplayOrder order, bool outage) {
  return std::string(g.name) + "/" + topo + "/" +
         (d == Discipline::kParallelFullDuplex ? "full" : "half") + "/" +
         (order == ReplayOrder::kLogOrder ? "log" : "per-sender") + "/" +
         (outage ? "outage" : "clean");
}

std::string HexFloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::uint64_t ReplayDigest(const NetReplayStats& s,
                           const obs::Timeline& timeline) {
  std::uint64_t h = obs::kFnvOffset;
  for (const double x : s.flow_end) h = obs::FnvMix(h, &x, sizeof x);
  for (const double x : s.flow_start) h = obs::FnvMix(h, &x, sizeof x);
  h = obs::FnvMix(h, &s.delivered_payload_bytes,
                  sizeof s.delivered_payload_bytes);
  const std::uint64_t td = timeline.Digest();
  return obs::FnvMix(h, &td, sizeof td);
}

struct GoldenReplay {
  const char* makespan;
  std::uint64_t digest;
  std::uint64_t started;
  std::uint64_t requeued;
  std::uint64_t recomputations;
};

// Rows in case order: log x topology x discipline x order x outage.
constexpr GoldenReplay kGoldenReplays[] = {
    {"0x1.4b7221366d9c8p-1", 0x62417919ac57a584ULL, 400, 0, 0},
    {"0x1.5486236dd9ed2p-1", 0x9e70c5949524efcbULL, 401, 1, 0},
    {"0x1.d7b318067bb52p-2", 0xf3362aba54408056ULL, 400, 0, 0},
    {"0x1.c39001db69cf9p-2", 0xfb05c173e8ca68ccULL, 401, 1, 0},
    {"0x1.8c2b6584ec4cdp-2", 0x1bbd7e9c3a07c1deULL, 400, 0, 0},
    {"0x1.9ca792a288ff3p-2", 0x4ed59245abe2272fULL, 402, 2, 0},
    {"0x1.238aa32f5b2cp-2", 0x6ccb9eb13a25158fULL, 400, 0, 0},
    {"0x1.3344ba4f818p-2", 0x5e8c8393a4c8b1edULL, 402, 2, 0},
    {"0x1.4b7221366d9c8p-1", 0x62417919ac57a584ULL, 400, 0, 313},
    {"0x1.5486236dd9ed2p-1", 0x9e70c5949524efcbULL, 401, 1, 313},
    {"0x1.d7b318067bb52p-2", 0xf3362aba54408056ULL, 400, 0, 361},
    {"0x1.c39001db69cf9p-2", 0xfb05c173e8ca68ccULL, 401, 1, 367},
    {"0x1.8cefb7b360144p-2", 0xd0da5e6c6f67b22fULL, 400, 0, 363},
    {"0x1.9ce974dbc34dap-2", 0x9ede7ccbd1b94e6eULL, 402, 2, 364},
    {"0x1.1f1bda972d346p-2", 0x92bb459f64ddf94aULL, 400, 0, 391},
    {"0x1.385961dcb38fcp-2", 0x838aeca762367532ULL, 402, 2, 389},
    {"0x1.6a6a0da074434p-1", 0x90a03994b33d05e1ULL, 400, 0, 314},
    {"0x1.735421402bb4ep-1", 0xc4ce8970cf16ace0ULL, 401, 1, 314},
    {"0x1.170c33bc71ca4p-1", 0xab3d58c1664207c9ULL, 400, 0, 359},
    {"0x1.27c525608d333p-1", 0xb5e373f1c57c02a9ULL, 401, 1, 354},
    {"0x1.d24c251814b2fp-2", 0x44b62568fde0306aULL, 400, 0, 368},
    {"0x1.e28771d354bcbp-2", 0x1027b4a2645d1b99ULL, 402, 2, 370},
    {"0x1.750cb0e4057cep-2", 0xa09e30cc3874178bULL, 400, 0, 391},
    {"0x1.7cda55634df5dp-2", 0x6642a4ffd9fee28dULL, 402, 2, 385},
    {"0x1.6a6a0da074434p-1", 0x90a03994b33d05e1ULL, 400, 0, 314},
    {"0x1.735421402bb4ep-1", 0xc4ce8970cf16ace0ULL, 401, 1, 314},
    {"0x1.170c33bc71ca4p-1", 0xab3d58c1664207c9ULL, 400, 0, 359},
    {"0x1.27c525608d333p-1", 0xb5e373f1c57c02a9ULL, 401, 1, 354},
    {"0x1.d24c251814b2fp-2", 0x44b62568fde0306aULL, 400, 0, 368},
    {"0x1.e28771d354bcbp-2", 0x1027b4a2645d1b99ULL, 402, 2, 370},
    {"0x1.750cb0e4057cep-2", 0xa09e30cc3874178bULL, 400, 0, 391},
    {"0x1.7cda55634df5dp-2", 0x6642a4ffd9fee28dULL, 402, 2, 385},
    {"0x1.5a6e00d1a6292p+0", 0x89434912199ff87eULL, 400, 0, 0},
    {"0x1.5fd36c954e7bfp+0", 0x765c9ec3bdb47bc7ULL, 401, 1, 0},
    {"0x1.545b4937f3426p+0", 0x7a21da53de69a1bfULL, 400, 0, 0},
    {"0x1.4d7b92651de8dp+0", 0x1db9ede6b05bee55ULL, 401, 1, 0},
    {"0x1.e780d145c8269p-1", 0xbd8e78c2489947c3ULL, 400, 0, 0},
    {"0x1.f24ba8cd18cc4p-1", 0x43a8d13281fdb3acULL, 401, 1, 0},
    {"0x1.730231e829168p-1", 0xb81d1d568760cc8cULL, 400, 0, 0},
    {"0x1.68e6e473ebb68p-1", 0x86e8397f5ad71b27ULL, 402, 2, 0},
    {"0x1.5a6e00d1a6292p+0", 0x89434912199ff87eULL, 400, 0, 661},
    {"0x1.5fd36c954e7bfp+0", 0x765c9ec3bdb47bc7ULL, 401, 1, 663},
    {"0x1.545b4937f3426p+0", 0x7a21da53de69a1bfULL, 400, 0, 659},
    {"0x1.4d7b92651de8dp+0", 0x1db9ede6b05bee55ULL, 401, 1, 660},
    {"0x1.e7a3283d089abp-1", 0xf851b5648a791b04ULL, 400, 0, 689},
    {"0x1.f26dffc459407p-1", 0x9b907294501a7cf1ULL, 401, 1, 691},
    {"0x1.734ed5a46eebap-1", 0xab6e342cf0c169d3ULL, 400, 0, 711},
    {"0x1.69c65e6c883cap-1", 0x3b392c8030dc979cULL, 402, 2, 705},
    {"0x1.c5416e5236952p+0", 0xb3ccdcd607c178b3ULL, 400, 0, 661},
    {"0x1.caa6da15dee82p+0", 0x760fa457fcd85f67ULL, 401, 1, 663},
    {"0x1.beeec99b6c3b2p+0", 0x38cf8028a7800c19ULL, 400, 0, 667},
    {"0x1.b46fda53ca19ep+0", 0x7fe94cb2d1c14831ULL, 401, 1, 670},
    {"0x1.607566761ca34p+0", 0xba7560a74a969ab1ULL, 400, 0, 690},
    {"0x1.65dad239c4f61p+0", 0x4bf72f36de521c51ULL, 401, 1, 692},
    {"0x1.32c37f1484348p+0", 0x00d8dd0def15323bULL, 400, 0, 709},
    {"0x1.1eef4a1a0be09p+0", 0x36f6f0ad780a0658ULL, 402, 2, 710},
    {"0x1.40acaf4768d27p+0", 0xabd3f899b7dd57b8ULL, 400, 0, 603},
    {"0x1.46086974d27f2p+0", 0x3907187179df7aebULL, 401, 1, 604},
    {"0x1.372aa41fb46cp+0", 0xc1a430843363d889ULL, 400, 0, 610},
    {"0x1.444841b2509c2p+0", 0xd5a7621452461955ULL, 401, 1, 605},
    {"0x1.e7537ca5445cp-1", 0x630755ad217c8038ULL, 400, 0, 626},
    {"0x1.f20af10017b56p-1", 0xf963852084d191d7ULL, 401, 1, 627},
    {"0x1.a51a2c478b6d1p-1", 0x8cd277d11f61deeaULL, 400, 0, 633},
    {"0x1.9cbabd0c2bb0ep-1", 0xfc99f60d1419bc6aULL, 401, 1, 644},
    {"0x1.2ea5de2991f71p-1", 0x1553e7d880933c13ULL, 576, 0, 0},
    {"0x1.35eb0e9eb0162p-1", 0xd70bbc4dabd9f65bULL, 577, 1, 0},
    {"0x1.7b0b7ce9dbfe5p-2", 0xf824e4cde4952e6cULL, 576, 0, 0},
    {"0x1.78ef59925927fp-2", 0x96abc323a50d2924ULL, 577, 1, 0},
    {"0x1.4c85f5dd9fd21p-2", 0xaf97ce0050cdaf9bULL, 576, 0, 0},
    {"0x1.50b1c93b47d4cp-2", 0x96f77de20430d1a0ULL, 578, 2, 0},
    {"0x1.dd24989e40354p-3", 0xeee7c3cc7b1c2422ULL, 576, 0, 0},
    {"0x1.d458632a93abep-3", 0x08cde096e7a3fcecULL, 578, 2, 0},
    {"0x1.2ea5de2991f71p-1", 0x1553e7d880933c13ULL, 576, 0, 565},
    {"0x1.35eb0e9eb0162p-1", 0xd70bbc4dabd9f65bULL, 577, 1, 564},
    {"0x1.7b0b7ce9dbfe5p-2", 0xf824e4cde4952e6cULL, 576, 0, 574},
    {"0x1.78ef59925927fp-2", 0x96abc323a50d2924ULL, 577, 1, 575},
    {"0x1.4d4a6a92aacaap-2", 0xb9f80530614c664fULL, 576, 0, 574},
    {"0x1.51763df052cd5p-2", 0x482b5a973a80df0bULL, 578, 2, 576},
    {"0x1.eaa42c1625768p-3", 0x30b4956006a2a3cfULL, 576, 0, 575},
    {"0x1.f760405bee04cp-3", 0xa2d30a3b0eacebf0ULL, 578, 2, 577},
    {"0x1.5e4d9667fd871p-1", 0xd2f2333de22df3b9ULL, 576, 0, 566},
    {"0x1.6592c6dd1ba61p-1", 0xc43e368f4038aae4ULL, 577, 1, 566},
    {"0x1.01dbc138ce393p-1", 0x43bddc66db815277ULL, 576, 0, 573},
    {"0x1.e4ae5b29a847dp-2", 0xf859d9956ec56a0cULL, 577, 1, 577},
    {"0x1.ca51cc776d71ep-2", 0xfd3879ec0efa3f45ULL, 576, 0, 575},
    {"0x1.c7873b7d6df55p-2", 0x4a7f93cd84e09330ULL, 578, 2, 577},
    {"0x1.67183582ae4d5p-2", 0xec02580b20058b36ULL, 576, 0, 575},
    {"0x1.646646e4d8267p-2", 0x06b0079a9861d9eeULL, 578, 2, 577},
    {"0x1.5e4d9667fd871p-1", 0xd2f2333de22df3b9ULL, 576, 0, 566},
    {"0x1.6592c6dd1ba61p-1", 0xc43e368f4038aae4ULL, 577, 1, 566},
    {"0x1.01dbc138ce393p-1", 0x43bddc66db815277ULL, 576, 0, 573},
    {"0x1.e4ae5b29a847dp-2", 0xf859d9956ec56a0cULL, 577, 1, 577},
    {"0x1.ca51cc776d71ep-2", 0xfd3879ec0efa3f45ULL, 576, 0, 575},
    {"0x1.c7873b7d6df55p-2", 0x4a7f93cd84e09330ULL, 578, 2, 577},
    {"0x1.67183582ae4d5p-2", 0xec02580b20058b36ULL, 576, 0, 575},
    {"0x1.646646e4d8267p-2", 0x06b0079a9861d9eeULL, 578, 2, 577},
    {"0x1.5eb77058098fap+0", 0xecd8bb0de3fb356dULL, 576, 0, 0},
    {"0x1.632028b06ade9p+0", 0x63319a4f78b3770fULL, 577, 1, 0},
    {"0x1.cb332812d1a4cp-1", 0xd86130104777684aULL, 576, 0, 0},
    {"0x1.9995368f4ceccp-1", 0x66032729b4464dc4ULL, 577, 1, 0},
    {"0x1.cba51a0c0933fp-1", 0x78f897f2a7a6f147ULL, 576, 0, 0},
    {"0x1.d4768abccbd1ep-1", 0x02d9fa302c401627ULL, 577, 1, 0},
    {"0x1.11ef5d9a0c49ep-1", 0x51b168152bb081dfULL, 576, 0, 0},
    {"0x1.1f5c90ce316e9p-1", 0x0ca4119de653a32cULL, 579, 3, 0},
    {"0x1.5eb77058098fap+0", 0xecd8bb0de3fb356dULL, 576, 0, 992},
    {"0x1.632028b06ade9p+0", 0x63319a4f78b3770fULL, 577, 1, 993},
    {"0x1.cb332812d1a4cp-1", 0xd86130104777684aULL, 576, 0, 992},
    {"0x1.9995368f4ceccp-1", 0x66032729b4464dc4ULL, 577, 1, 996},
    {"0x1.cba51a0c0933fp-1", 0x78f897f2a7a6f147ULL, 576, 0, 994},
    {"0x1.d4768abccbd1ep-1", 0x02d9fa302c401627ULL, 577, 1, 995},
    {"0x1.11f75a5c55258p-1", 0x0590e5a7f7c80366ULL, 576, 0, 994},
    {"0x1.1f5d598d82e13p-1", 0x95f6f3452f0fa0e3ULL, 579, 3, 996},
    {"0x1.c0087dd2f8adp+0", 0x9f63c199878ba03fULL, 576, 0, 992},
    {"0x1.c492c1fc15bap+0", 0xf503f59b8bde87baULL, 577, 1, 993},
    {"0x1.439b8b043de04p+0", 0xb869c6cd44018148ULL, 576, 0, 994},
    {"0x1.49d6ae78f42a3p+0", 0x3d246100954fbd46ULL, 577, 1, 996},
    {"0x1.503dc1ed11032p+0", 0x755d63e7a0b1d7f4ULL, 576, 0, 994},
    {"0x1.54a2679c881b2p+0", 0x6966b8499c47faf9ULL, 577, 1, 995},
    {"0x1.f1126a98dd302p-1", 0x001af332a002736dULL, 576, 0, 994},
    {"0x1.f0a189e90a252p-1", 0x250fa3fa40b625f1ULL, 578, 2, 996},
    {"0x1.6e4bae09a4d41p+0", 0x0beba2178cbc33a8ULL, 576, 0, 964},
    {"0x1.72d5f232c1e11p+0", 0x8e9950eed822a93fULL, 577, 1, 965},
    {"0x1.19c8c7d657a17p+0", 0x354543eb11676777ULL, 576, 0, 965},
    {"0x1.1cafbfd79bf44p+0", 0xdaed0f79473a3f38ULL, 577, 1, 969},
    {"0x1.15272681b34c2p+0", 0x861d0796fd92e08fULL, 576, 0, 968},
    {"0x1.198bcc312a644p+0", 0xea4aec7eb4c52e4dULL, 577, 1, 969},
    {"0x1.b24d5371145a6p-1", 0xb0849c284e358211ULL, 576, 0, 968},
    {"0x1.991ebccf1f4c2p-1", 0x81b7c02f505cde02ULL, 578, 2, 970},
    {"0x1.490f48d818a8fp-3", 0x87033e6405c45443ULL, 480, 0, 0},
    {"0x1.6de16e4fceabep-3", 0x826ddb859a9dc7ffULL, 480, 0, 0},
    {"0x1.1763ebbc4ee52p-2", 0xdf3bcce80417e0d7ULL, 480, 0, 0},
    {"0x1.ba7448855061ap-3", 0x68c5ae59e50ebe3eULL, 481, 1, 0},
    {"0x1.f0b1a315e19a1p-6", 0x08b6a6e012f94bdeULL, 480, 0, 0},
    {"0x1.93e8a19915262p-5", 0x011f3743089c223aULL, 482, 2, 0},
    {"0x1.f0b1a315e19a1p-6", 0x08b6a6e012f94bdeULL, 480, 0, 0},
    {"0x1.03e6e817a0a0fp-4", 0x03590ec5827bec64ULL, 482, 2, 0},
    {"0x1.490f48d818a8fp-3", 0x87033e6405c45443ULL, 480, 0, 118},
    {"0x1.6de16e4fceabep-3", 0x826ddb859a9dc7ffULL, 480, 0, 118},
    {"0x1.1763ebbc4ee52p-2", 0xdf3bcce80417e0d7ULL, 480, 0, 223},
    {"0x1.ba7448855061ap-3", 0x68c5ae59e50ebe3eULL, 481, 1, 198},
    {"0x1.9de95d3ce6ab3p-5", 0x3dd3d71c3d902eb8ULL, 480, 0, 34},
    {"0x1.f848431692348p-5", 0xa31a30ed4ec0dff1ULL, 482, 2, 50},
    {"0x1.9de95d3ce6ab3p-5", 0x3dd3d71c3d902eb8ULL, 480, 0, 34},
    {"0x1.191d6d30d4215p-4", 0xceb62957b23da8adULL, 482, 2, 70},
    {"0x1.a74cb3c4705aep-3", 0x1ef2e4d806266b46ULL, 480, 0, 354},
    {"0x1.cc1ed93c2662fp-3", 0xd4b8c296117a6fe9ULL, 480, 0, 354},
    {"0x1.36b1e0faa9769p-3", 0xb55045a0c772b366ULL, 480, 0, 367},
    {"0x1.1d33727f9d511p-3", 0x498c58597cff981dULL, 481, 1, 371},
    {"0x1.2e27cbbe60b58p-4", 0x2f56cc862e63e0cbULL, 480, 0, 40},
    {"0x1.71d8e4dbcde66p-4", 0x08d7fc882767d429ULL, 482, 2, 316},
    {"0x1.2e27cbbe60b58p-4", 0x2f56cc862e63e0cbULL, 480, 0, 40},
    {"0x1.b3fe6d9601cbep-4", 0x841669587dda4463ULL, 482, 2, 293},
    {"0x1.a74cb3c4705aep-3", 0x1ef2e4d806266b46ULL, 480, 0, 354},
    {"0x1.cc1ed93c2662fp-3", 0xd4b8c296117a6fe9ULL, 480, 0, 354},
    {"0x1.36b1e0faa9769p-3", 0xb55045a0c772b366ULL, 480, 0, 367},
    {"0x1.1d33727f9d511p-3", 0x498c58597cff981dULL, 481, 1, 371},
    {"0x1.2e27cbbe60b58p-4", 0x2f56cc862e63e0cbULL, 480, 0, 40},
    {"0x1.71d8e4dbcde66p-4", 0x08d7fc882767d429ULL, 482, 2, 316},
    {"0x1.2e27cbbe60b58p-4", 0x2f56cc862e63e0cbULL, 480, 0, 40},
    {"0x1.b3fe6d9601cbep-4", 0x841669587dda4463ULL, 482, 2, 293},
};

TEST(NetMakespanGolden, ReplaysAreBitForBitPinned) {
  std::size_t row = 0;
  std::uint64_t requeued = 0;
  for (const GoldenLog& g : GoldenLogs()) {
    for (const auto& [topo_name, topo] : GoldenTopologies(g.k)) {
      for (const Discipline d : kParallelDisciplines) {
        for (const ReplayOrder order : kAllOrders) {
          for (const bool outage : {false, true}) {
            obs::Timeline timeline;
            TimelineProbe probe;
            probe.timeline = &timeline;
            NetReplayStats s;
            const double m = NetMakespan(g.log, topo, d, order,
                                         GoldenOutage(outage), &s, nullptr,
                                         probe);
            requeued += s.flows_requeued;
            const std::string makespan = HexFloat(m);
            const std::uint64_t digest = ReplayDigest(s, timeline);
            char got[160];
            std::snprintf(got, sizeof got,
                          "{\"%s\", 0x%016" PRIx64 "ULL, %" PRIu64
                          ", %" PRIu64 ", %" PRIu64 "},",
                          makespan.c_str(), digest, s.flows_started,
                          s.flows_requeued, s.maxmin_recomputations);
            const bool match =
                row < std::size(kGoldenReplays) &&
                makespan == kGoldenReplays[row].makespan &&
                digest == kGoldenReplays[row].digest &&
                s.flows_started == kGoldenReplays[row].started &&
                s.flows_requeued == kGoldenReplays[row].requeued &&
                s.maxmin_recomputations ==
                    kGoldenReplays[row].recomputations;
            EXPECT_TRUE(match)
                << "row " << row << " "
                << CaseLabel(g, topo_name, d, order, outage)
                << "\n    " << got;
            ++row;
          }
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(kGoldenReplays));
  EXPECT_GT(requeued, 0u) << "the outage must hit in-flight flows";
}

// Records every OrderingDecision the DES hands the hook and returns
// the canonical order: a digest of (kind, time bits, candidates) over
// the whole replay pins the tie and re-queue batches that
// check/explore's DPOR explorer branches on.
class RecordingHook : public OrderingHook {
 public:
  std::vector<std::size_t> Choose(const OrderingDecision& d) override {
    const auto kind = static_cast<std::uint64_t>(d.kind);
    digest_ = obs::FnvMix(digest_, &kind, sizeof kind);
    digest_ = obs::FnvMix(digest_, &d.time, sizeof d.time);
    const std::uint64_t width = d.candidates.size();
    digest_ = obs::FnvMix(digest_, &width, sizeof width);
    for (const std::size_t c : d.candidates) {
      const std::uint64_t v = c;
      digest_ = obs::FnvMix(digest_, &v, sizeof v);
    }
    ++(d.kind == OrderingDecision::Kind::kCompletionTie ? ties_ : requeues_);
    return d.candidates;
  }
  std::uint64_t digest() const { return digest_; }
  std::uint64_t ties() const { return ties_; }
  std::uint64_t requeues() const { return requeues_; }

 private:
  std::uint64_t digest_ = obs::kFnvOffset;
  std::uint64_t ties_ = 0;
  std::uint64_t requeues_ = 0;
};

struct GoldenDecisions {
  std::uint64_t ties;
  std::uint64_t requeues;
  std::uint64_t digest;
};

// Rows in case order: log x topology x discipline x order x outage,
// over two equal-bytes logs and the K16 multicast log on the
// single-rack and rack-oversubscribed topologies.
constexpr GoldenDecisions kGoldenDecisions[] = {
    {124, 0, 0xcb672bc8a06b8ea2ULL},
    {124, 0, 0x80198199f1d4ec58ULL},
    {32, 0, 0x443c47e066178bf6ULL},
    {48, 0, 0xa1c36142522d70b3ULL},
    {40, 0, 0x56ccdfca74897504ULL},
    {44, 1, 0xcbfefce9f22a01c4ULL},
    {40, 0, 0x56ccdfca74897504ULL},
    {64, 1, 0x08965862a8c54fcfULL},
    {104, 0, 0x1ffd672a56629656ULL},
    {104, 0, 0xaa784bb260f2352bULL},
    {48, 0, 0xf02c6cfec49b7f32ULL},
    {55, 0, 0xb9c8b62ed5ffdabfULL},
    {68, 0, 0x841aaee381a0e1a7ULL},
    {120, 1, 0x3724f850b9601792ULL},
    {68, 0, 0x841aaee381a0e1a7ULL},
    {105, 1, 0x8fad584c40ef71e8ULL},
    {128, 0, 0x17793d0a19b9bbc9ULL},
    {128, 0, 0x97b1b0939572c4b3ULL},
    {129, 0, 0xb467775e99be6f29ULL},
    {119, 0, 0xe5ecc28e676bf6dfULL},
    {30, 0, 0xa015356dff0f4617ULL},
    {42, 1, 0x30ba01163d406843ULL},
    {30, 0, 0xa015356dff0f4617ULL},
    {56, 1, 0xdd76412864ee5312ULL},
    {72, 0, 0x21349dd755e7d7f9ULL},
    {72, 0, 0x13900d41851ea91cULL},
    {69, 0, 0xd64076b35403ac97ULL},
    {76, 0, 0x088db2e993b8c3ffULL},
    {40, 0, 0xb9a0927cb4f1a253ULL},
    {77, 1, 0x79687c703e60f386ULL},
    {40, 0, 0xb9a0927cb4f1a253ULL},
    {90, 1, 0x5130bfa4038b6e42ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 1, 0x2a1d010c205cd33bULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 0, 0xcbf29ce484222325ULL},
    {0, 1, 0x25b873ad723a511bULL},
};

TEST(NetMakespanGolden, OrderingDecisionsArePinned) {
  std::size_t row = 0;
  std::uint64_t ties = 0;
  std::uint64_t requeues = 0;
  const std::vector<GoldenLog> logs = {
      {"K8-ties", 8, EqualBytesLog(8, 40)},
      {"K16-ties", 16, EqualBytesLog(16, 30)},
      {"K16-multicast", 16, SyntheticLog(16, 576, 4, 1412)}};
  for (const GoldenLog& g : logs) {
    for (const auto& [topo_name, topo] : GoldenTopologies(g.k)) {
      if (std::string(topo_name) != "single-rack" &&
          std::string(topo_name) != "rack-oversub") {
        continue;
      }
      for (const Discipline d : kParallelDisciplines) {
        for (const ReplayOrder order : kAllOrders) {
          for (const bool outage : {false, true}) {
            RecordingHook hook;
            NetMakespan(g.log, topo, d, order, GoldenOutage(outage),
                        nullptr, &hook);
            ties += hook.ties();
            requeues += hook.requeues();
            char got[96];
            std::snprintf(got, sizeof got,
                          "{%" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL},",
                          hook.ties(), hook.requeues(), hook.digest());
            const bool match = row < std::size(kGoldenDecisions) &&
                               hook.ties() == kGoldenDecisions[row].ties &&
                               hook.requeues() ==
                                   kGoldenDecisions[row].requeues &&
                               hook.digest() == kGoldenDecisions[row].digest;
            EXPECT_TRUE(match)
                << "row " << row << " "
                << CaseLabel(g, topo_name, d, order, outage)
                << "\n    " << got;
            ++row;
          }
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(kGoldenDecisions));
  EXPECT_GT(ties, 0u) << "no completion-tie batch was exercised";
  EXPECT_GT(requeues, 0u) << "no outage re-queue batch was exercised";
}

}  // namespace
}  // namespace cts::simscen
