// Timeline: a deterministic flight recorder for metric time series.
//
// Where MetricRegistry::Snapshot() answers "how much, by the end of
// the run", a Timeline answers "when": it records (t, value) samples
// of named series along *virtual* time — the DES samples at sim-time
// tick boundaries (netsim's TimelineProbe), the live path at logical
// barriers (stage index, shuffle round). No clock is ever read:
// every sample is a pure function of the run's inputs, so two
// executions of the same JobSpec produce bitwise-identical series
// (a ctest invariant in timeline_test) and the wallclock/rand rules
// in tools/repo_lint.py apply to the sampling paths unchanged.
//
// Series are keyed by the grammar
//
//   <subsystem>/<name>[/<unit>]
//
// (lowercase subsystem, e.g. des/inflight_flows,
// live/shuffle_bytes/bytes) — enforced by Validate() here, by the
// `timelinekey` rule in repo_lint.py at the call-site level, and by
// tools/trace_check.py on exported counter tracks.
//
// Consumers:
//   * obs::AppendTimelineCounters (trace.h) exports each series as a
//     Chrome-trace counter track ("ph":"C").
//   * bench::JsonReport::add_timeline embeds sample counts, final
//     values and digests as the "timeline" block of bench JSON.
//   * the run ledger (ledger.h) stores per-series FNV digests so
//     ctstat can detect timeline drift without storing every sample.
//
// Header-only on purpose, like metrics.h: simscen sits *below*
// cts_obs in the link order (cts_obs links cts_simscen for the trace
// builders), so the DES can only see obs headers that need no
// obs translation unit. BuildLiveTimeline, which needs
// driver/run_result.h, lives in timeline.cc inside cts_obs.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace cts {
struct AlgorithmResult;
}  // namespace cts

namespace cts::obs {

// One sample of one series: virtual time (seconds in the owning
// run's clock) and the metric value at that instant.
struct TimelineSample {
  double t = 0;
  double value = 0;

  friend bool operator==(const TimelineSample& a, const TimelineSample& b) {
    // Bitwise, not numeric: the determinism invariant is "same bits",
    // and under == alone -0.0 would alias 0.0 and NaN never match.
    std::uint64_t ab = 0, bb = 0, at = 0, bt = 0;
    std::memcpy(&at, &a.t, 8);
    std::memcpy(&bt, &b.t, 8);
    std::memcpy(&ab, &a.value, 8);
    std::memcpy(&bb, &b.value, 8);
    return at == bt && ab == bb;
  }
};

// True when `key` matches <subsystem>/<name>[/<unit>]: a lowercase
// [a-z][a-z0-9_]* subsystem followed by one or two [A-Za-z0-9_.+-]+
// segments. Deliberately a subset of the bench-JSON key charset, so a
// timeline key is always a legal bench/ledger key too.
inline bool ValidTimelineKey(const std::string& key) {
  std::vector<std::string> segs(1);
  for (char c : key) {
    if (c == '/') {
      segs.emplace_back();
    } else {
      segs.back().push_back(c);
    }
  }
  if (segs.size() < 2 || segs.size() > 3) return false;
  const std::string& sub = segs[0];
  if (sub.empty() || !(sub[0] >= 'a' && sub[0] <= 'z')) return false;
  for (char c : sub) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  for (std::size_t i = 1; i < segs.size(); ++i) {
    if (segs[i].empty()) return false;
    for (char c : segs[i]) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '+' || c == '-';
      if (!ok) return false;
    }
  }
  return true;
}

// FNV-1a 64-bit — the digest primitive for series and whole
// timelines. Stable across platforms because it only ever consumes
// explicit byte sequences (key characters and IEEE-754 bit patterns).
inline std::uint64_t FnvMix(std::uint64_t h, const void* data,
                            std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

// The recorder. Sample() appends; series are ordered by key and
// samples by insertion (callers sample along nondecreasing virtual
// time — Validate checks it).
class Timeline {
 public:
  void Sample(const std::string& key, double t, double value) {
    series_[key].push_back(TimelineSample{t, value});
  }

  const std::map<std::string, std::vector<TimelineSample>>& series() const {
    return series_;
  }
  bool empty() const { return series_.empty(); }

  std::size_t total_samples() const {
    std::size_t n = 0;
    for (const auto& [key, samples] : series_) n += samples.size();
    return n;
  }

  // Appends the other timeline's samples series-by-series (same key
  // -> concatenated, which is only meaningful when the two cover
  // disjoint, ordered time ranges — Validate() still applies).
  void Merge(const Timeline& other) {
    for (const auto& [key, samples] : other.series_) {
      auto& dst = series_[key];
      dst.insert(dst.end(), samples.begin(), samples.end());
    }
  }

  // FNV-1a over the key bytes then every sample's (t, value) bit
  // patterns. Equal digests <=> bitwise-equal series (up to hash
  // collision); the ledger stores these instead of the raw samples.
  std::uint64_t SeriesDigest(const std::string& key) const {
    std::uint64_t h = FnvMix(kFnvOffset, key.data(), key.size());
    auto it = series_.find(key);
    if (it == series_.end()) return h;
    for (const TimelineSample& s : it->second) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &s.t, 8);
      h = FnvMix(h, &bits, 8);
      std::memcpy(&bits, &s.value, 8);
      h = FnvMix(h, &bits, 8);
    }
    return h;
  }

  // Digest of the whole timeline: series digests folded in key order
  // (the map iteration order, so registration order never matters).
  std::uint64_t Digest() const {
    std::uint64_t h = kFnvOffset;
    for (const auto& [key, samples] : series_) {
      const std::uint64_t sd = SeriesDigest(key);
      h = FnvMix(h, &sd, 8);
    }
    return h;
  }

  // "" when every key matches the grammar and every series has
  // finite values along nondecreasing finite time; otherwise a
  // description of the first violation.
  std::string Validate() const {
    for (const auto& [key, samples] : series_) {
      if (!ValidTimelineKey(key)) {
        return "timeline key '" + key +
               "' violates <subsystem>/<name>[/unit]";
      }
      double prev = -std::numeric_limits<double>::infinity();
      for (const TimelineSample& s : samples) {
        if (!std::isfinite(s.t) || !std::isfinite(s.value)) {
          return "non-finite sample in series '" + key + "'";
        }
        if (s.t < prev) {
          return "series '" + key + "' time went backwards";
        }
        prev = s.t;
      }
    }
    return "";
  }

  friend bool operator==(const Timeline& a, const Timeline& b) {
    return a.series_ == b.series_;
  }

 private:
  std::map<std::string, std::vector<TimelineSample>> series_;
};

// Live run -> timeline, defined in timeline.cc (needs
// driver/run_result.h). Ticks are logical — stage index and shuffle
// round (round i = every sender's i-th transmission in that sender's
// own seq order, never the racy cross-sender interleaving) — and
// every value comes from the run's deterministic
// counters (traffic, transmission log, run_metrics), so the series
// are bitwise reproducible across reruns of the same cached
// execution:
//   live/stage_bytes/bytes    cumulative transport bytes per stage tick
//   live/stage_msgs           cumulative transport messages per stage tick
//   live/shuffle_bytes/bytes  cumulative shuffle bytes per round tick
//   live/shuffle_round_bytes/bytes  bytes moved in each round
//   live/stripe_contention    frozen try_lock contention count at run end
Timeline BuildLiveTimeline(const AlgorithmResult& result);

}  // namespace cts::obs
