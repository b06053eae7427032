// Live-path timeline construction: logical ticks over the
// deterministic byproducts of a finished run. See timeline.h for the
// series contract.

#include "obs/timeline.h"

#include <algorithm>
#include <vector>

#include "driver/run_result.h"

namespace cts::obs {

Timeline BuildLiveTimeline(const AlgorithmResult& result) {
  Timeline tl;

  // Stage-barrier ticks: tick s is the end of the s-th stage in
  // execution order; the series carry the cumulative transport bytes
  // and message count once that stage's traffic is on the wire.
  // Virtual time is the tick index itself — the live path has no
  // deterministic clock, the barrier sequence *is* its time axis.
  double cum_bytes = 0;
  double cum_msgs = 0;
  tl.Sample("live/stage_bytes/bytes", 0, 0);
  tl.Sample("live/stage_msgs", 0, 0);
  for (std::size_t s = 0; s < result.stage_order.size(); ++s) {
    const auto it = result.traffic.find(result.stage_order[s]);
    if (it != result.traffic.end()) {
      cum_bytes += static_cast<double>(it->second.transmitted_bytes());
      cum_msgs += static_cast<double>(it->second.unicast_msgs +
                                      it->second.mcast_msgs);
    }
    tl.Sample("live/stage_bytes/bytes", static_cast<double>(s + 1),
              cum_bytes);
    tl.Sample("live/stage_msgs", static_cast<double>(s + 1), cum_msgs);
  }

  // Shuffle-round ticks: round i is every sender's i-th transmission
  // in that sender's own seq order (its program order; every sender
  // fires once per round under both sync modes). The global seq order
  // across senders is a thread race, so it never shapes a round.
  // Cumulative bytes in flight plus the per-round burst.
  if (!result.shuffle_log.empty() && result.config.num_nodes > 0) {
    std::vector<std::vector<const simnet::Transmission*>> sent(
        static_cast<std::size_t>(result.config.num_nodes));
    for (const auto& t : result.shuffle_log) {
      sent[static_cast<std::size_t>(t.src)].push_back(&t);
    }
    std::size_t rounds = 0;
    for (auto& own : sent) {
      std::sort(own.begin(), own.end(),
                [](const simnet::Transmission* a,
                   const simnet::Transmission* b) { return a->seq < b->seq; });
      rounds = std::max(rounds, own.size());
    }
    double cum = 0;
    tl.Sample("live/shuffle_bytes/bytes", 0, 0);
    for (std::size_t round = 0; round < rounds; ++round) {
      double round_bytes = 0;
      for (const auto& own : sent) {
        if (round < own.size()) {
          round_bytes += static_cast<double>(own[round]->bytes);
        }
      }
      cum += round_bytes;
      const auto tick = static_cast<double>(round + 1);
      tl.Sample("live/shuffle_bytes/bytes", tick, cum);
      tl.Sample("live/shuffle_round_bytes/bytes", tick, round_bytes);
    }
  }

  // End-of-run tick: values frozen into the cached result by
  // RunCache::Execute (run_metrics deltas). These are the quantities
  // that would *not* be reproducible if read live — arena hit counts
  // and stripe try_lock contention depend on thread interleaving —
  // so the timeline only ever sees the captured copy.
  const auto metric = [&](const char* name) -> double {
    auto it = result.run_metrics.find(name);
    return it == result.run_metrics.end() ? 0 : it->second;
  };
  const double hits = metric("simmpi/arena_hits");
  const double misses = metric("simmpi/arena_misses");
  const double end_tick =
      static_cast<double>(result.stage_order.size());
  if (hits + misses > 0) {
    tl.Sample("live/arena_hit_rate", end_tick, hits / (hits + misses));
  }
  tl.Sample("live/stripe_contention", end_tick,
            metric("simmpi/stripe_lock_contention"));

  return tl;
}

}  // namespace cts::obs
