// The flight recorder's determinism invariants (src/obs/timeline.h):
// the key grammar, bitwise series digests, and the two sampling paths
// — the live virtual-time series derived from a cached execution and
// the DES series sampled along scenario time — must reproduce bit for
// bit across reruns and across host threads. The Chrome-trace counter
// export must round-trip through ValidateTrace.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/run_result.h"
#include "job/job.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "simscen/engine.h"

namespace cts::obs {
namespace {

SortConfig SmallConfig(int r = 1) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = r;
  config.num_records = 20000;
  config.seed = 2017;
  return config;
}

TEST(TimelineKey, Grammar) {
  EXPECT_TRUE(ValidTimelineKey("des/inflight_flows"));
  EXPECT_TRUE(ValidTimelineKey("live/shuffle_bytes/bytes"));
  EXPECT_TRUE(ValidTimelineKey("sim9/p99-lat/ms"));
  EXPECT_FALSE(ValidTimelineKey(""));
  EXPECT_FALSE(ValidTimelineKey("no_subsystem"));
  EXPECT_FALSE(ValidTimelineKey("Upper/name"));
  EXPECT_FALSE(ValidTimelineKey("des/"));
  EXPECT_FALSE(ValidTimelineKey("des//unit"));
  EXPECT_FALSE(ValidTimelineKey("a/b/c/d"));
  EXPECT_FALSE(ValidTimelineKey("des/spa ce"));
  EXPECT_FALSE(ValidTimelineKey("des:colon/x"));
}

TEST(Timeline, DigestIsBitwise) {
  Timeline a, b;
  a.Sample("t/x", 0, 0.0);
  b.Sample("t/x", 0, -0.0);  // numerically equal, different bits
  EXPECT_NE(a.SeriesDigest("t/x"), b.SeriesDigest("t/x"));
  EXPECT_FALSE(a == b);

  Timeline c;
  c.Sample("t/x", 0, 0.0);
  EXPECT_EQ(a.SeriesDigest("t/x"), c.SeriesDigest("t/x"));
  EXPECT_EQ(a.Digest(), c.Digest());
  EXPECT_TRUE(a == c);

  // The digest of an absent series is the digest of the bare key:
  // stable, and distinct per key.
  EXPECT_NE(a.SeriesDigest("t/absent"), a.SeriesDigest("t/other"));
}

TEST(Timeline, ValidateCatchesViolations) {
  Timeline ok;
  ok.Sample("des/inflight_flows", 0, 1);
  ok.Sample("des/inflight_flows", 0.5, 2);
  EXPECT_EQ(ok.Validate(), "");

  Timeline bad_key;
  bad_key.Sample("NotASubsystem/x", 0, 1);
  EXPECT_NE(bad_key.Validate(), "");

  Timeline backwards;
  backwards.Sample("des/x", 1.0, 1);
  backwards.Sample("des/x", 0.5, 2);
  EXPECT_NE(backwards.Validate(), "");

  Timeline nonfinite;
  nonfinite.Sample("des/x", 0, std::numeric_limits<double>::infinity());
  EXPECT_NE(nonfinite.Validate(), "");
}

TEST(Timeline, MergeConcatenatesSeries) {
  Timeline a, b;
  a.Sample("live/x", 0, 1);
  b.Sample("live/x", 1, 2);
  b.Sample("des/y", 0, 3);
  a.Merge(b);
  EXPECT_EQ(a.series().at("live/x").size(), 2u);
  EXPECT_EQ(a.series().at("des/y").size(), 1u);
  EXPECT_EQ(a.Validate(), "");
}

// The ctest invariant the ISSUE names: the same JobSpec evaluated
// twice through the same cache yields a bitwise-identical timeline.
TEST(Timeline, LiveSeriesReproduceBitwise) {
  job::JobSpec spec;
  spec.algorithm = "terasort";
  spec.config = SmallConfig();
  spec.backend = job::Backend::kLive;

  job::RunCache cache;
  const job::JobResult first = job::RunJob(spec, cache);
  const job::JobResult second = job::RunJob(spec, cache);

  ASSERT_FALSE(first.timeline.empty());
  EXPECT_EQ(first.timeline.Validate(), "");
  EXPECT_TRUE(first.timeline == second.timeline);
  EXPECT_EQ(first.timeline.Digest(), second.timeline.Digest());
  EXPECT_TRUE(first.timeline.series().count("live/stage_bytes/bytes"));
  EXPECT_TRUE(first.timeline.series().count("live/shuffle_bytes/bytes"));
  EXPECT_TRUE(first.timeline.series().count("live/stripe_contention"));
}

// Shuffle rounds come from each sender's own seq order, never from
// the racy global interleaving: two logs that differ only in how the
// senders' transmissions interleave give bitwise-equal round series.
TEST(Timeline, LiveShuffleRoundsIgnoreSenderInterleaving) {
  AlgorithmResult by_sender;
  by_sender.config = SmallConfig();
  by_sender.config.num_nodes = 3;
  AlgorithmResult round_robin = by_sender;
  // Sender s's i-th transmission carries 10^s * (i + 1) bytes.
  const std::uint64_t scale[] = {1, 10, 100};
  std::uint64_t seq = 0;
  for (NodeId s = 0; s < 3; ++s) {
    for (std::uint64_t i = 0; i < 2; ++i) {
      by_sender.shuffle_log.push_back(
          {s, {(s + 1) % 3}, scale[s] * (i + 1), seq++});
    }
  }
  seq = 0;
  for (std::uint64_t i = 0; i < 2; ++i) {
    for (NodeId s = 0; s < 3; ++s) {
      round_robin.shuffle_log.push_back(
          {s, {(s + 1) % 3}, scale[s] * (i + 1), seq++});
    }
  }

  const Timeline a = BuildLiveTimeline(by_sender);
  const Timeline b = BuildLiveTimeline(round_robin);
  for (const char* key :
       {"live/shuffle_bytes/bytes", "live/shuffle_round_bytes/bytes"}) {
    EXPECT_EQ(a.SeriesDigest(key), b.SeriesDigest(key)) << key;
  }
  // One tick per round plus the zero tick; round i = every sender's
  // i-th transmission.
  const auto& rounds = a.series().at("live/shuffle_round_bytes/bytes");
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].value, 111.0);
  EXPECT_EQ(rounds[1].value, 222.0);
  EXPECT_EQ(a.series().at("live/shuffle_bytes/bytes").size(), 3u);
}

// The DES series are a pure function of (run, scenario): replaying on
// the main thread and on a freshly spawned host thread — and under
// both network disciplines — must produce identical bits. The DES
// itself is single-threaded; this pins that no thread-local or clock
// state leaks into the samples.
TEST(Timeline, ReplaySeriesReproduceAcrossHostThreads) {
  job::RunCache cache;
  const SortConfig config = SmallConfig();
  const auto run = cache.GetScenarioRun("terasort", config,
                                        /*paper_records=*/0,
                                        /*from_events=*/false);

  for (const simnet::Discipline discipline :
       {simnet::Discipline::kSerial,
        simnet::Discipline::kParallelFullDuplex}) {
    simscen::Scenario scenario =
        simscen::Scenario::Baseline(config.num_nodes);
    scenario.discipline = discipline;

    Timeline main_thread;
    simscen::ReplayScenario(*run, scenario, &main_thread);
    ASSERT_FALSE(main_thread.empty());
    EXPECT_EQ(main_thread.Validate(), "");
    EXPECT_TRUE(main_thread.series().count("des/inflight_flows"));
    EXPECT_TRUE(main_thread.series().count("des/requeue_depth"));
    EXPECT_TRUE(main_thread.series().count("des/link_utilization"));

    Timeline other_thread;
    std::thread worker([&] {
      simscen::ReplayScenario(*run, scenario, &other_thread);
    });
    worker.join();
    EXPECT_TRUE(main_thread == other_thread);
    EXPECT_EQ(main_thread.Digest(), other_thread.Digest());
  }
}

// A kReplay job embeds both the live series and the DES series in one
// timeline, and two evaluations through one cache agree bit for bit.
TEST(Timeline, ReplayJobEmbedsBothSubsystems) {
  job::JobSpec spec;
  spec.algorithm = "coded";
  spec.config = SmallConfig(/*r=*/3);
  spec.backend = job::Backend::kReplay;

  job::RunCache cache;
  const job::JobResult first = job::RunJob(spec, cache);
  const job::JobResult second = job::RunJob(spec, cache);

  EXPECT_EQ(first.timeline.Validate(), "");
  EXPECT_TRUE(first.timeline.series().count("live/stage_bytes/bytes"));
  EXPECT_TRUE(first.timeline.series().count("des/inflight_flows"));
  EXPECT_TRUE(first.timeline == second.timeline);
}

TEST(Trace, CounterExportRoundTrips) {
  Timeline tl;
  tl.Sample("des/inflight_flows", 0, 1);
  tl.Sample("des/inflight_flows", 0.25, 3);
  tl.Sample("live/stripe_contention", 0.5, 0.75);

  Trace trace;
  AppendTimelineCounters(tl, trace, /*pid=*/0, /*tid=*/5);
  EXPECT_EQ(ValidateTrace(trace), "");
  std::size_t counters = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'C') ++counters;
  }
  EXPECT_EQ(counters, tl.total_samples());

  // A counter series violating the key grammar must fail validation.
  Trace bad;
  bad.add_counter(0, 5, "NotAKey", 0.0, 1.0);
  EXPECT_NE(ValidateTrace(bad), "");

  // Time going backwards within one series must fail validation.
  Trace backwards;
  backwards.add_counter(0, 5, "des/x", 1.0, 1.0);
  backwards.add_counter(0, 5, "des/x", 0.0, 2.0);
  EXPECT_NE(ValidateTrace(backwards), "");
}

}  // namespace
}  // namespace cts::obs
