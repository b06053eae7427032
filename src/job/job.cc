#include "job/job.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/types.h"
#include "job/registry.h"
#include "obs/metrics.h"
#include "simulate/simulate.h"

namespace cts::job {

namespace {

// Exact textual form of a double for cache keys (hex float: no
// rounding ambiguity between nearly-equal delay values).
std::string ExactDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

const AlgorithmInfo& FindOrDie(const std::string& name) {
  const AlgorithmInfo* info = Find(name);
  CTS_CHECK_MSG(info != nullptr, "unknown algorithm '" << name << "'");
  return *info;
}

// Aggregates the outcome's per-span mitigation accounting into the
// JobResult counters.
void FillMitigationStats(const simscen::ScenarioOutcome& outcome,
                         JobResult& result) {
  result.wasted_seconds = outcome.wasted_seconds;
  for (const simscen::StageSpan& span : outcome.spans) {
    result.speculative_copies += span.speculative_copies;
    result.abandoned_nodes += span.abandoned_nodes;
  }
}

// Prices the finished view in dollars (no-op without a pricing
// context). Egress counts the measured shuffle's rack-boundary
// crossings under the scenario topology; a priced (paper-scale) view
// scales the measured bytes to the reported workload, the same
// linear-in-records scaling every byte counter uses.
void FillDollars(const JobSpec& spec, JobResult& result) {
  if (!spec.pricing.has_value()) return;
  const DollarCost& cost = *spec.pricing;
  result.node_hours = cost.node_hours(result.makespan,
                                      spec.config.num_nodes);
  result.usd_compute =
      cost.compute_usd(result.makespan, spec.config.num_nodes);
  double cross = 0;
  if (spec.scenario.has_value() && result.execution != nullptr) {
    cross = simscen::CrossRackBytes(result.execution->shuffle_log,
                                    spec.scenario->topology);
    if (result.priced) {
      const std::uint64_t reported = spec.paper_records == 0
                                         ? spec.config.num_records
                                         : spec.paper_records;
      cross /= PaperScale(spec.config.num_records, reported).fraction;
    }
  }
  result.cross_rack_bytes = cross;
  result.usd_egress = cost.egress_usd(cross);
  result.usd = result.usd_compute + result.usd_egress;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kLive:
      return "live";
    case Backend::kPriced:
      return "priced";
    case Backend::kReplay:
      return "replay";
    case Backend::kSimulated:
      return "simulated";
  }
  CTS_CHECK_MSG(false, "unreachable backend");
  return "live";
}

std::string RunCache::Key(const std::string& algorithm,
                          const SortConfig& config) {
  std::string key = algorithm;
  key += "|K=" + std::to_string(config.num_nodes);
  key += "|r=" + std::to_string(config.redundancy);
  key += "|n=" + std::to_string(config.num_records);
  key += "|seed=" + std::to_string(config.seed);
  key += "|dist=" + std::to_string(static_cast<int>(config.distribution));
  key += "|part=" + std::to_string(static_cast<int>(config.partitioner));
  key += "|sample=" + std::to_string(config.sample_size);
  key += "|codegen=" + std::to_string(static_cast<int>(config.codegen_mode));
  key += "|sync=" + std::to_string(static_cast<int>(config.shuffle_sync));
  for (const InjectedDelay& d : config.injected_delays) {
    key += "|delay=" + d.stage + ":" + std::to_string(d.node) + ":" +
           ExactDouble(d.seconds);
  }
  return key;
}

std::shared_ptr<AlgorithmResult> RunCache::Find(
    const std::string& key) const {
  const auto it = runs_.find(key);
  return it == runs_.end() ? nullptr : it->second;
}

std::shared_ptr<AlgorithmResult> RunCache::Execute(
    const std::string& key, const std::string& algorithm,
    const SortConfig& config) {
  const AlgorithmInfo& info = FindOrDie(algorithm);
  ++executions_;
  auto& registry = obs::MetricRegistry::Global();
  registry.counter("job/cache_misses").add();
  // Freeze this execution's registry deltas into the cached result.
  // Some of them (stripe try_lock contention) depend on thread
  // interleaving, so the only reproducible view is the one
  // capture made here: every later consumer of the cached run reads
  // run_metrics, never the live registry.
  const std::map<std::string, double> before = registry.Snapshot();
  auto run = std::make_shared<AlgorithmResult>(info.run(config));
  for (const auto& [name, value] : registry.Snapshot()) {
    const auto it = before.find(name);
    const double delta = it == before.end() ? value : value - it->second;
    if (delta != 0) run->run_metrics[name] = delta;
  }
  runs_.emplace(key, run);
  return run;
}

std::shared_ptr<const AlgorithmResult> RunCache::Get(
    const std::string& algorithm, const SortConfig& config) {
  const std::string key = Key(algorithm, config);
  if (auto run = Find(key)) {
    ++hits_;
    obs::MetricRegistry::Global().counter("job/cache_hits").add();
    return run;
  }
  return Execute(key, algorithm, config);
}

void RunCache::ReleasePartitions(const std::string& algorithm,
                                 const SortConfig& config) {
  const auto it = runs_.find(Key(algorithm, config));
  if (it == runs_.end()) return;
  if (!it->second->partitions.empty()) {
    obs::MetricRegistry::Global().counter("job/cache_partition_releases")
        .add();
  }
  it->second->partitions.clear();
  it->second->partitions.shrink_to_fit();
}

std::shared_ptr<const simscen::ScenarioRun> RunCache::GetScenarioRun(
    const std::string& algorithm, const SortConfig& config,
    std::uint64_t paper_records, bool from_events) {
  const AlgorithmInfo& info = FindOrDie(algorithm);
  if (!info.priced) from_events = true;  // nothing to price
  const std::uint64_t reported =
      from_events ? 0
                  : (paper_records == 0 ? config.num_records : paper_records);
  const std::string key = Key(algorithm, config) +
                          (from_events ? "|events"
                                       : "|paper=" + std::to_string(reported));
  if (const auto it = scenario_runs_.find(key); it != scenario_runs_.end()) {
    return it->second;
  }
  // Internal fetch: RunJob has already gone through Get() for this
  // cell, so counting another hit here would double-book (hits() must
  // stay "Get() calls a caller saved").
  std::shared_ptr<const AlgorithmResult> run = Find(Key(algorithm, config));
  if (run == nullptr) run = Execute(Key(algorithm, config), algorithm, config);
  std::shared_ptr<const simscen::ScenarioRun> built;
  if (from_events) {
    built = std::make_shared<simscen::ScenarioRun>(
        simscen::BuildScenarioRunFromEvents(
            run->algorithm, run->config.num_nodes, run->stage_order,
            run->compute_events, run->shuffle_log, run->config.redundancy));
  } else {
    built = std::make_shared<simscen::ScenarioRun>(simscen::BuildScenarioRun(
        *run, CostModel{}, PaperScale(config.num_records, reported)));
  }
  scenario_runs_.emplace(key, built);
  return built;
}

std::string ValidateSpec(const JobSpec& spec) {
  const AlgorithmInfo* info = Find(spec.algorithm);
  if (info == nullptr) return "unknown algorithm '" + spec.algorithm + "'";
  const SortConfig& c = spec.config;
  const std::string K = std::to_string(c.num_nodes);
  if (c.num_nodes < 1) return "num_nodes must be >= 1, got " + K;
  if (c.num_records == 0 && spec.backend != Backend::kLive) {
    return std::string("num_records must be > 0 on the ") +
           BackendName(spec.backend) +
           " backend, which scales by the executed record count";
  }
  const bool replicated =
      std::find(info->knobs.begin(), info->knobs.end(), "redundancy") !=
      info->knobs.end();
  if (!replicated) return "";
  if (c.redundancy < 1 || c.redundancy > c.num_nodes) {
    return "redundancy must satisfy 1 <= r <= K=" + K + " for " +
           spec.algorithm + ", got r=" + std::to_string(c.redundancy);
  }
  if (c.num_nodes > kMaxNodes && spec.backend != Backend::kSimulated) {
    return spec.algorithm + " places files by " +
           std::to_string(kMaxNodes) + "-bit node masks, so K=" + K +
           " > " + std::to_string(kMaxNodes) +
           " runs only on the simulated backend";
  }
  return "";
}

JobResult RunJob(const JobSpec& spec, RunCache& cache) {
  if (std::string error = ValidateSpec(spec); !error.empty()) {
    JobResult result;
    result.spec = spec;
    result.algorithm = spec.algorithm;
    result.error = std::move(error);
    result.metrics_snapshot = obs::MetricRegistry::Global().Snapshot();
    return result;
  }
  const AlgorithmInfo& info = FindOrDie(spec.algorithm);
  // kPriced/kSimulated are the closed-form backends; they have no way
  // to honor a scenario, and silently ignoring one would label an
  // unmitigated run as a scenario cell. Price scenarios with kReplay.
  CTS_CHECK_MSG(!((spec.backend == Backend::kPriced ||
                   spec.backend == Backend::kSimulated) &&
                  spec.scenario.has_value()),
                "closed-form backends ignore scenarios — use "
                "Backend::kReplay");

  JobResult result;
  result.spec = spec;

  // kSimulated deliberately bypasses the cache: RunCache::Get executes
  // the live harness on a miss, and never executing is this backend's
  // entire point.
  if (spec.backend == Backend::kSimulated) {
    result.algorithm = spec.algorithm;
    simulate::SynthesisResult synth =
        simulate::SynthesizeRun(spec.algorithm, spec.config);
    if (!synth.ok()) {
      result.error = std::move(synth.error);
      result.metrics_snapshot = obs::MetricRegistry::Global().Snapshot();
      return result;
    }
    result.execution = std::move(synth.run);
    result.algorithm = result.execution->algorithm;
    const RunScale scale = PaperScale(
        spec.config.num_records, spec.paper_records == 0
                                     ? spec.config.num_records
                                     : spec.paper_records);
    result.breakdown =
        SimulateRun(*result.execution, CostModel{}, scale, spec.schedule);
    result.priced = true;
    result.makespan = result.breakdown.total();
    result.timeline = obs::BuildLiveTimeline(*result.execution);
    FillDollars(spec, result);
    result.metrics_snapshot = obs::MetricRegistry::Global().Snapshot();
    return result;
  }

  result.execution = cache.Get(spec.algorithm, spec.config);
  result.algorithm = result.execution->algorithm;
  // The live flight-recorder series, derived purely from the cached
  // execution — a cache hit reproduces them bit for bit. Scenario
  // replays below append their DES series to the same timeline.
  result.timeline = obs::BuildLiveTimeline(*result.execution);

  switch (spec.backend) {
    case Backend::kLive:
    case Backend::kPriced: {
      if (spec.backend == Backend::kPriced && info.priced) {
        const RunScale scale = PaperScale(
            spec.config.num_records, spec.paper_records == 0
                                         ? spec.config.num_records
                                         : spec.paper_records);
        result.breakdown = SimulateRun(*result.execution, CostModel{}, scale,
                                       spec.schedule);
        result.priced = true;
      } else {
        result.breakdown = MeasuredBreakdown(*result.execution);
      }
      // kLive with a scenario: replay the measured stage boundaries
      // under it (executed scale) — the live-mitigation path.
      if (spec.backend == Backend::kLive && spec.scenario.has_value()) {
        const auto run = cache.GetScenarioRun(spec.algorithm, spec.config,
                                              /*paper_records=*/0,
                                              /*from_events=*/true);
        result.outcome =
            simscen::ReplayScenario(*run, *spec.scenario, &result.timeline);
        result.breakdown = result.outcome->breakdown();
        FillMitigationStats(*result.outcome, result);
      }
      break;
    }
    case Backend::kReplay: {
      const auto run = cache.GetScenarioRun(spec.algorithm, spec.config,
                                            spec.paper_records,
                                            /*from_events=*/!info.priced);
      const simscen::Scenario scenario =
          spec.scenario.has_value()
              ? *spec.scenario
              : simscen::Scenario::Baseline(spec.config.num_nodes);
      result.outcome =
          simscen::ReplayScenario(*run, scenario, &result.timeline);
      result.breakdown = result.outcome->breakdown();
      result.priced = info.priced;
      FillMitigationStats(*result.outcome, result);
      break;
    }
    case Backend::kSimulated:
      CTS_CHECK_MSG(false, "kSimulated returns above");
      break;
  }
  result.makespan = result.breakdown.total();
  FillDollars(spec, result);
  result.metrics_snapshot = obs::MetricRegistry::Global().Snapshot();
  return result;
}

JobResult RunJob(const JobSpec& spec) {
  RunCache cache;
  return RunJob(spec, cache);
}

std::map<std::string, double> JobResult::metrics(
    const std::string& prefix) const {
  std::map<std::string, double> out;
  for (const StageTime& s : breakdown.stages) {
    if (s.seconds != 0) out[prefix + "/" + s.name + "_s"] = s.seconds;
  }
  out[prefix + "/total_s"] = breakdown.total();
  if (outcome.has_value()) {
    out[prefix + "/wasted_s"] = wasted_seconds;
    out[prefix + "/backups"] = speculative_copies;
    out[prefix + "/abandoned"] = abandoned_nodes;
  }
  if (spec.pricing.has_value()) {
    out[prefix + "/usd"] = usd;
    out[prefix + "/usd_compute"] = usd_compute;
    out[prefix + "/usd_egress"] = usd_egress;
    out[prefix + "/node_hours"] = node_hours;
  }
  return out;
}

}  // namespace cts::job
