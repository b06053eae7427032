// Unified Job API: one front-end over algorithms × backends ×
// scenarios.
//
// A JobSpec fully describes one cell of the paper's experiment matrix:
// which algorithm (by registry name, job/registry.h), its SortConfig,
// how to evaluate it (Backend), and — for replay backends — the
// scenario and mitigation policy to evaluate it under. RunJob executes
// (or, given a RunCache, reuses) the one expensive thread-harness run
// and derives the requested view from it, returning a unified
// JobResult: the measured execution, a StageBreakdown, the scenario
// outcome, and redundancy/waste stats, flattenable into the bench
// JSON schema (bench/bench_common.h) via metrics().
//
// The RunCache is the reason this API exists beyond tidiness: the
// live execution is the only expensive step, and it depends only on
// (algorithm, SortConfig). Every scenario × policy × backend view is
// a cheap deterministic replay of that one measured run, so sweeps
// memoize per key instead of re-running the cluster N×M times
// (job/matrix.h drives this).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analytics/cost_model.h"
#include "analytics/report.h"
#include "driver/run_result.h"
#include "obs/timeline.h"
#include "simscen/engine.h"

namespace cts::job {

// How a job evaluates its run.
enum class Backend {
  // Executed-scale view: the measured wall clocks as they happened on
  // the thread harness. With a scenario attached, the measured
  // per-node stage boundaries (ComputeEvents) are replayed under it —
  // the "mitigation on the measured run" path.
  kLive,
  // Paper-scale closed forms: the measured counters priced by the
  // EC2-calibrated CostModel (analytics::SimulateRun). Algorithms
  // without NodeWork counters (priced = false) fall back to kLive.
  kPriced,
  // Paper-scale discrete-event replay under a Scenario
  // (simscen::ReplayScenario); unpriced algorithms replay their
  // measured ComputeEvents at executed scale instead.
  kReplay,
  // Like kPriced, but the measured run itself is synthesized
  // arithmetically (simulate::SynthesizeRun) instead of executed on
  // the thread harness — no threads, no records, no transport. The
  // breakdown is byte-identical to kPriced wherever both can run;
  // unlike kPriced, K is bounded by 64-bit placement arithmetic
  // (K ~ 1000) rather than by live execution. Specs the synthesizer
  // cannot honor (CMR, kDistributedSampled, binomial overflow) come
  // back as JobResult::error, never a process abort.
  kSimulated,
};

const char* BackendName(Backend backend);

struct JobSpec {
  std::string algorithm = "terasort";  // registry name
  SortConfig config;
  Backend backend = Backend::kPriced;
  // kReplay / kLive-with-events: the scenario to replay under. Unset
  // on kReplay means the baseline (homogeneous cluster, single rack);
  // unset on kLive means no replay at all.
  std::optional<simscen::Scenario> scenario;
  // kPriced / kReplay: report at this paper workload (record count);
  // 0 reports at the executed scale.
  std::uint64_t paper_records = 0;
  // kPriced: closed-form shuffle discipline.
  ShuffleSchedule schedule = ShuffleSchedule::kSerial;
  // When set, the result's dollar fields are filled: the view's
  // makespan × K priced at `pricing->node_usd_per_hour`, plus the
  // run's cross-rack shuffle traffic under the scenario topology
  // (paper-scaled on priced views) at the egress rate. The matrix's
  // instance axis overrides the hourly rate per cell.
  std::optional<DollarCost> pricing;
};

// Everything one evaluated cell produces.
struct JobResult {
  JobSpec spec;
  std::string algorithm;  // display name, e.g. "CodedTeraSort"
  bool priced = false;    // whether the breakdown is paper-scale
  // Non-empty when the spec cannot run (ValidateSpec) or the backend
  // could not produce a result for it (Backend::kSimulated); every
  // other field except `spec` and `algorithm` is then default-valued.
  std::string error;
  // The measured run (shared with the RunCache when one was used).
  std::shared_ptr<const AlgorithmResult> execution;
  // Per-stage seconds of the requested view.
  StageBreakdown breakdown;
  // The scenario replay, when one ran.
  std::optional<simscen::ScenarioOutcome> outcome;
  double makespan = 0;  // == breakdown.total()

  // Mitigation accounting aggregated over the outcome's spans (all
  // zero without a scenario or under PolicyKind::kNone).
  double wasted_seconds = 0;
  int speculative_copies = 0;
  int abandoned_nodes = 0;

  // Dollar pricing (all zero unless spec.pricing is set): K nodes
  // held for the makespan at the hourly rate, plus cross-rack egress
  // of the measured shuffle under the scenario topology
  // (simscen::CrossRackBytes, paper-scaled on priced views).
  double node_hours = 0;
  double usd_compute = 0;
  double usd_egress = 0;
  double usd = 0;
  double cross_rack_bytes = 0;

  // Snapshot of the process-wide obs::MetricRegistry taken when the
  // job finished: transport byte/message counters, DES flow
  // accounting, cache hits — everything observable about how this
  // result was produced. Cumulative across the process (a sweep's
  // N-th result includes the first N cells).
  std::map<std::string, double> metrics_snapshot;

  // The flight-recorder series of this cell: the live series derived
  // from the (cached) execution's deterministic counters, plus — when
  // a scenario replay ran — the DES series sampled along scenario
  // time. Bitwise reproducible: rerunning the same spec through the
  // same cache yields an identical timeline (timeline_test pins it).
  obs::Timeline timeline;

  // Flat "<prefix>/<metric>" map in the bench JSON schema: one key per
  // non-zero stage plus total_s, and the mitigation stats when a
  // scenario ran.
  std::map<std::string, double> metrics(const std::string& prefix) const;
};

// Memoizes the expensive thread-harness execution per
// (algorithm, SortConfig) key, plus the paper-scale ScenarioRun
// derived from it, so N scenarios × M policies replay one measured
// run. Not thread-safe; share one per sweep.
class RunCache {
 public:
  // The cached run for (algorithm, config), executing it on miss.
  std::shared_ptr<const AlgorithmResult> Get(const std::string& algorithm,
                                             const SortConfig& config);

  // The scenario-agnostic replay input derived from the cached run,
  // memoized per (key, paper_records, from_events). `from_events`
  // replays the measured per-node stage boundaries at executed scale
  // (simscen::BuildScenarioRunFromEvents, ignores paper_records);
  // otherwise the run is cost-model priced at paper scale
  // (simscen::BuildScenarioRun; requires a priced algorithm).
  std::shared_ptr<const simscen::ScenarioRun> GetScenarioRun(
      const std::string& algorithm, const SortConfig& config,
      std::uint64_t paper_records, bool from_events);

  // Drops the sorted output records of the cached run for
  // (algorithm, config), keeping the run cached. Every replay/pricing
  // path reads only counters, logs and events, so callers that have
  // finished validating the output can release the dominant memory —
  // the full sorted dataset — before fanning out over scenarios
  // (ctsort does, right after teravalidate). No-op on a miss.
  void ReleasePartitions(const std::string& algorithm,
                         const SortConfig& config);

  // Live thread-harness executions performed (== distinct keys seen).
  int executions() const { return executions_; }
  // Get() calls served from the cache.
  int hits() const { return hits_; }

  // The memoization key: every SortConfig field an engine reads.
  static std::string Key(const std::string& algorithm,
                         const SortConfig& config);

 private:
  // The cached run for `key`, or null — no hit/miss accounting.
  // GetScenarioRun uses this for its internal fetch so hits() counts
  // exactly the Get() calls a caller saved: hits == cells - distinct
  // keys in a matrix sweep, which job_test pins.
  std::shared_ptr<AlgorithmResult> Find(const std::string& key) const;
  // Executes and caches the run for `key` (counts one execution).
  std::shared_ptr<AlgorithmResult> Execute(const std::string& key,
                                           const std::string& algorithm,
                                           const SortConfig& config);

  // Held non-const so ReleasePartitions can drop the sorted data;
  // handed out as shared_ptr<const ...> only.
  std::map<std::string, std::shared_ptr<AlgorithmResult>> runs_;
  std::map<std::string, std::shared_ptr<const simscen::ScenarioRun>>
      scenario_runs_;
  int executions_ = 0;
  int hits_ = 0;
};

// Why `spec` cannot run, or empty when it can. RunJob returns the
// reason as JobResult::error before executing anything, on every
// backend, so a bad spec never aborts the process:
//  * an unknown algorithm, or num_nodes < 1;
//  * num_records == 0 on a backend that prices (all but kLive): paper
//    scaling divides by the executed record count;
//  * for algorithms with a redundancy knob (coded, cmr): redundancy
//    outside [1, num_nodes], or num_nodes > kMaxNodes on a backend that
//    executes (all but kSimulated), since their placements index
//    files by 64-bit node masks.
std::string ValidateSpec(const JobSpec& spec);

// Evaluates one cell. The overload without a cache executes the run
// itself (every call pays the live execution).
JobResult RunJob(const JobSpec& spec);
JobResult RunJob(const JobSpec& spec, RunCache& cache);

}  // namespace cts::job
