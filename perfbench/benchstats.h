// The benchmark's own arithmetic: percentiles, the tail rule, barrier
// wait, the paper-speedup error, the host-speed calibration and
// reference seconds, the metric-name grammar and the output digest.
// Header-only and free of clocks, so
// benchstats_test.cc can pin every formula on hand-built inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/run_result.h"

namespace cts::perfbench {

// 1-based nearest rank of the pct-th percentile of n samples,
// ceil(pct n / 100) kept in [1, n]; integer arithmetic so no rounding
// moves a rank.
inline std::size_t NearestRank(std::size_t n, int pct) {
  const std::size_t rank =
      (static_cast<std::size_t>(std::clamp(pct, 0, 100)) * n + 99) / 100;
  return std::clamp<std::size_t>(rank, 1, n);
}

// Nearest-rank percentile: the smallest sample with at least pct% of
// the samples at or below it. `samples` non-empty.
inline double Percentile(std::vector<double> samples, int pct) {
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), pct) - 1];
}

// Median as the mean of the two middle samples (even counts), the
// definition Python's statistics.median uses.
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// Samples a timing must have beyond its tail percentile.
inline constexpr int kTailSupport = 10;

// The highest whole percentile whose nearest-rank sample still has at
// least kTailSupport samples above it, for a run of n samples; -1
// when n is too small for any percentile to qualify.
inline int TailPercentile(std::size_t n) {
  if (n <= static_cast<std::size_t>(kTailSupport)) return -1;
  // rank = ceil(p n / 100) <= n - 10  <=>  p <= 100 (n - 10) / n.
  return static_cast<int>(100 * (n - kTailSupport) / n);
}

// Samples strictly beyond the nearest-rank pct-th percentile of n > 0.
inline std::size_t SamplesBeyond(std::size_t n, int pct) {
  return n - NearestRank(n, pct);
}

// Time the run's nodes spent waiting at stage barriers: for every
// stage, the slowest node's time minus each node's own, summed over
// nodes and stages. A node's time in a stage is the sum of its events
// for that stage; a node absent from a stage waits the whole stage.
inline double BarrierWaitSeconds(const ComputeLog& events, int num_nodes) {
  std::map<std::string, std::vector<double>> per_stage;
  for (const ComputeEvent& e : events) {
    auto& nodes = per_stage[e.stage];
    nodes.resize(static_cast<std::size_t>(num_nodes), 0.0);
    nodes.at(static_cast<std::size_t>(e.node)) += e.seconds();
  }
  double wait = 0;
  for (const auto& [stage, nodes] : per_stage) {
    const double slowest = *std::max_element(nodes.begin(), nodes.end());
    for (const double t : nodes) wait += slowest - t;
  }
  return wait;
}

// Busy seconds of the named stages, summed over nodes.
inline double StageBusySeconds(const ComputeLog& events,
                               const std::vector<std::string>& stages) {
  double busy = 0;
  for (const ComputeEvent& e : events) {
    if (std::find(stages.begin(), stages.end(), e.stage) != stages.end()) {
      busy += e.seconds();
    }
  }
  return busy;
}

// The published CodedTeraSort speedups over TeraSort: Table II
// (K = 16) r = 3, r = 5, then Table III (K = 20) r = 3, r = 5.
inline constexpr std::array<double, 4> kPaperSpeedups = {2.16, 3.39, 1.97,
                                                         2.20};

// max_i |repro_i / paper_i - 1| over the rows given.
inline double SpeedupError(const std::array<double, 4>& repro,
                           const std::array<double, 4>& paper =
                               kPaperSpeedups) {
  double err = 0;
  for (std::size_t i = 0; i < repro.size(); ++i) {
    err = std::max(err, std::abs(repro[i] / paper[i] - 1.0));
  }
  return err;
}

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
// letter or digit.
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Fixed work the benchmark times to read the host's current speed: an
// ordered map of double keys and a binary heap of doubles, both small
// enough to stay in a core's caches, as the flow DES's event and flow
// structures do. Returns a checksum so the work cannot be optimised
// away; the value is fixed, and benchstats_test pins it.
inline std::uint64_t CalibrationWork() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  std::uint64_t sum = 0;
  std::map<double, std::uint32_t> ordered;
  double floor = 0;
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    ordered.emplace(floor + next(), i);
    if (ordered.size() > 4000) {
      floor = ordered.begin()->first;
      sum += ordered.begin()->second;
      ordered.erase(ordered.begin());
    }
  }
  std::vector<double> heap;
  heap.reserve(6001);
  floor = 0;
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    heap.push_back(floor + next());
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 6000) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      floor = heap.back();
      heap.pop_back();
      sum += static_cast<std::uint64_t>(floor * 1e6);
    }
  }
  return sum;
}

// The calibration's seconds on the reference host (4 vCPUs of a shared
// Xeon, quiet): the scale reference seconds are expressed in.
inline constexpr double kCalibrationRefSeconds = 0.0165;

// A wall time in reference-host seconds: `wall` scaled by how much
// slower than the reference the host ran the calibration just before
// and just after it. The same work reads the same however busy the
// host's other tenants are; a program that does less work reads less.
inline double ReferenceSeconds(double wall, double calibration_before,
                               double calibration_after,
                               double reference = kCalibrationRefSeconds) {
  return wall * reference / (0.5 * (calibration_before + calibration_after));
}

// FNV-1a over raw bytes: doubles are hashed by their bit patterns, so
// two runs digest equal only if their modelled outputs are bitwise
// equal.
class Digest {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    Add(bytes, sizeof bytes);
  }
  void Add(const std::string& s) { Add(s.data(), s.size() + 1); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace cts::perfbench
