// ctbench — one benchmark run of one workload.
//
//   ctbench --workload=live-k4|replay-k16 --seed=N --seconds=S
//           [--trace=0|1] [--trace-out=FILE]
//
// A run sets the workload up, then repeats its operation ("op") from
// one thread until --seconds have passed, checking every op's output.
// The last line of stdout is the result object run.py reads; the
// lines before it stamp the run's context and digest its modelled
// outputs. With --trace=1 the run alternates untraced and traced ops:
// a traced op calls each layer's public function itself, in the order
// job::RunJob would, inside spans, and the per-layer metrics come from
// those spans and the counters the program returns. After each traced
// op, outside its span, "audit" calls time what the op does not
// separate (RunJob itself, a replay without a timeline probe).
// The set-up runs kSetups times, each on a fresh workload, and
// setup_s is their median; the last workload runs the timed loop.
//
// The end-to-end times are in reference-host seconds. The shared host
// this runs on changes speed by up to half over tens of seconds, as
// other tenants load the same cores and caches, so each timed interval
// is bracketed by a fixed calibration workload (CalibrationWork in
// benchstats.h) on the CPUs it ran on, and scaled by how much slower
// than the reference host those ran it (ReferenceSeconds). The stamp
// line keeps the raw wall times beside them.
//
// After the timed loop every run evaluates the six Table II/III cells
// through Backend::kSimulated, untimed, for speedup_err; a traced run
// makes the same evaluation through the layer calls (simulate,
// analytics, obs), which is where the simulate and combinatorics layer
// metrics come from.
//
// Why these workloads (see README.md for the full layer table):
//   live-k4    the only workload with the thread harness in the timed
//              loop; K = 4 node threads fit 4 cores.
//   replay-k16 the flow DES behind the scenario tools, on runs
//              executed once in set-up.
#include <sched.h>
#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analytics/cost_model.h"
#include "analytics/report.h"
#include "combinatorics/subsets.h"
#include "job/job.h"
#include "job/parse.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "perfbench/benchstats.h"
#include "simulate/simulate.h"
#include "tools/flag_parser.h"

#ifndef CTBENCH_BUILD_TYPE
#define CTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CTBENCH_COMPILER
#define CTBENCH_COMPILER "unknown"
#endif

namespace cts::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Layers = std::map<std::string, double>;

constexpr std::uint64_t kPaperRecords = 120'000'000;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Spans ----------------------------------------------------------

// One traced interval. tid 0 is the benchmark thread; tid 1 + n holds
// node n's stage events, children of the execution span that ran them.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  int op = -1;
  int tid = 0;

  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

// Keeps every span in memory; WriteChrome dumps them when the run ends.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int Begin(const std::string& name, int parent, int op) {
    const std::int64_t now = Now();
    return Add(name, now, now, parent, op, 0);
  }
  double End(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = Now();
    return spans_[static_cast<std::size_t>(id)].seconds();
  }
  int Add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int op, int tid) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, start_ns, end_ns, id, parent, op, tid});
    return id;
  }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  // Times fn() inside a span and returns the span's seconds.
  template <typename Fn>
  double Time(const std::string& name, int parent, int op, Fn&& fn) {
    const int id = Begin(name, parent, op);
    fn();
    return End(id);
  }

  void WriteChrome(std::ostream& out, const std::string& process) const {
    out << "{\"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \""
        << process << "\"}}";
    for (const Span& s : spans_) {
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"span\": %d, \"parent\": %d, \"op\": %d}}",
                    s.name.c_str(), s.tid,
                    1e-3 * static_cast<double>(s.start_ns),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.id,
                    s.parent, s.op);
      out << buf;
    }
    out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"spans\": "
        << spans_.size() << "}}\n";
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---- Host speed -------------------------------------------------------

// The CPUs this process may run on; empty if they cannot be read.
std::vector<int> AllowedCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Restricts the calling thread, and the threads it starts later, to
// `cpus`. Best effort: where that fails the thread stays unpinned.
void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

volatile std::uint64_t calibration_sink = 0;

double TimeCalibration() {
  const auto start = Clock::now();
  calibration_sink = calibration_sink + CalibrationWork();
  return SecondsSince(start);
}

// Seconds the calibration takes on `cpus` now. On one CPU it runs
// inline (the caller is pinned there); on several it runs once on each
// at the same time, one pinned thread per CPU, and the mean is
// returned, for ops whose threads spread over every CPU.
double HostCalibration(const std::vector<int>& cpus) {
  if (cpus.size() <= 1) return TimeCalibration();
  std::vector<double> seconds(cpus.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&cpus, &seconds, i] {
      PinTo({cpus[i]});
      seconds[i] = TimeCalibration();
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0;
  for (const double s : seconds) sum += s;
  return sum / static_cast<double>(seconds.size());
}

// ---- Shared helpers ---------------------------------------------------

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Exact equality of two breakdowns, double bits included.
bool BitIdentical(const StageBreakdown& a, const StageBreakdown& b) {
  if (a.stages.size() != b.stages.size()) return false;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].name != b.stages[i].name ||
        std::memcmp(&a.stages[i].seconds, &b.stages[i].seconds,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void DigestResult(const job::JobResult& r, Digest& d) {
  for (const StageTime& s : r.breakdown.stages) {
    d.Add(s.name);
    d.Add(s.seconds);
  }
  d.Add(r.makespan);
  d.Add(r.wasted_seconds);
  d.Add(static_cast<double>(r.speculative_copies));
}

double Metric(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Per-execution layer numbers of a live run: stage walls, driver
// overhead and barrier wait, shuffle counts, transport and codec
// counters. `module` is the src/ module that ran it.
void AddExecutionLayers(const AlgorithmResult& run, const std::string& module,
                        double exec_seconds, Layers& out) {
  double stage_sum = 0;
  for (const auto& [stage, seconds] : run.wall_seconds) {
    out[module + "." + Lower(stage) + "_s"] += seconds;
    stage_sum += seconds;
  }
  out["driver." + module + ".exec_s"] += exec_seconds;
  out["driver." + module + ".overhead_s"] += exec_seconds - stage_sum;
  out["driver." + module + ".barrier_wait_s"] +=
      BarrierWaitSeconds(run.compute_events, run.config.num_nodes);
  if (const auto it = run.traffic.find(stage::kShuffle);
      it != run.traffic.end()) {
    const simmpi::ChannelCounters& c = it->second;
    out["simmpi." + module + ".shuffle_msgs"] +=
        static_cast<double>(c.unicast_msgs + c.mcast_msgs);
    out["simmpi." + module + ".shuffle_bytes"] +=
        static_cast<double>(c.unicast_bytes + c.mcast_bytes);
  }
  out["simmpi.arena_hits"] += Metric(run.run_metrics, "simmpi/arena_hits");
  out["simmpi.arena_lookups"] += Metric(run.run_metrics, "simmpi/arena_hits") +
                                 Metric(run.run_metrics, "simmpi/arena_misses");
  out["simmpi.stripe_contention"] +=
      Metric(run.run_metrics, "simmpi/stripe_lock_contention");
  const NodeWork total = run.total_work();
  out["coding.xor_bytes"] += static_cast<double>(total.codec.encode_xor_bytes +
                                                 total.codec.decode_xor_bytes);
  out["coding.packets"] += static_cast<double>(total.codec.packets_encoded +
                                               total.codec.packets_decoded);
  out["coding.busy_s"] += StageBusySeconds(
      run.compute_events, {stage::kEncode, stage::kDecode});
}

// Node n's stage events as child spans of the execution span. Node
// clocks start when the node program does, so the children are placed
// from the execution span's start.
void AddNodeSpans(Tracer& tracer, const AlgorithmResult& run,
                  const std::string& module, int exec_span, int op) {
  const std::int64_t base = tracer.span(exec_span).start_ns;
  for (const ComputeEvent& e : run.compute_events) {
    tracer.Add(module + "." + Lower(e.stage),
               base + static_cast<std::int64_t>(e.start_seconds * 1e9),
               base + static_cast<std::int64_t>(e.end_seconds * 1e9), exec_span,
               op, 1 + static_cast<int>(e.node));
  }
}

// The six Table II/III cells.
struct PaperCell {
  const char* label;
  const char* algorithm;
  int nodes;
  int redundancy;
};
constexpr PaperCell kPaperCells[] = {
    {"t16", "terasort", 16, 1}, {"c16r3", "coded", 16, 3},
    {"c16r5", "coded", 16, 5},  {"t20", "terasort", 20, 1},
    {"c20r3", "coded", 20, 3},  {"c20r5", "coded", 20, 5},
};
constexpr std::uint64_t kPaperCellRecords = 1'200'000;

job::JobSpec PaperSpec(const PaperCell& cell, std::uint64_t seed) {
  job::JobSpec spec;
  spec.algorithm = cell.algorithm;
  spec.config.num_nodes = cell.nodes;
  spec.config.redundancy = cell.redundancy;
  spec.config.num_records = kPaperCellRecords;
  spec.config.seed = seed;
  spec.config.distribution = KeyDistribution::kBalanced;
  spec.backend = job::Backend::kSimulated;
  spec.paper_records = kPaperRecords;
  return spec;
}

// |repro / paper - 1| worst case over the four coded rows, from the
// six cells' makespans in kPaperCells order.
double PaperSpeedupError(const std::vector<double>& makespans) {
  return SpeedupError(
      {makespans[0] / makespans[1], makespans[0] / makespans[2],
       makespans[3] / makespans[4], makespans[3] / makespans[5]});
}

// ---- Workloads --------------------------------------------------------

// Evaluates the six cells at `seed` and returns speedup_err; their
// modelled outputs go into `digest`. Untraced, each cell is one
// RunJob. Traced, each cell is the layer calls RunJob makes, in spans,
// followed by RunJob itself, whose breakdown must match bit for bit;
// a mismatch or a synthesis error throws.
double EvaluatePaperCells(std::uint64_t seed, Tracer* tr, Layers& layers,
                          Digest& digest) {
  std::vector<double> makespans;
  for (const PaperCell& cell : kPaperCells) {
    const job::JobSpec spec = PaperSpec(cell, seed);
    std::optional<StageBreakdown> layered;
    if (tr != nullptr) {
      simulate::SynthesisResult synth;
      layers["simulate.synth_s." + std::string(cell.label)] =
          tr->Time("simulate.synth", -1, -1, [&] {
            synth = simulate::SynthesizeRun(spec.algorithm, spec.config);
          });
      if (!synth.ok()) throw std::runtime_error(synth.error);
      tr->Time("analytics.price", -1, -1, [&] {
        layered = SimulateRun(*synth.run, CostModel{},
                              PaperScale(spec.config.num_records,
                                         spec.paper_records));
      });
      tr->Time("obs.timeline", -1, -1, [&] {
        obs::Timeline tl = obs::BuildLiveTimeline(*synth.run);
        obs::MetricRegistry::Global().Snapshot();
      });
      layers["simulate.records"] +=
          static_cast<double>(spec.config.num_records);
      if (cell.redundancy > 1) {
        layers["combinatorics.groups"] += static_cast<double>(
            Binomial(cell.nodes, cell.redundancy + 1));
      }
    }
    std::optional<job::JobResult> r;
    if (tr != nullptr) {
      tr->Time("job.run_job", -1, -1, [&] { r = job::RunJob(spec); });
    } else {
      r = job::RunJob(spec);
    }
    if (!r->error.empty()) throw std::runtime_error(r->error);
    if (layered.has_value() && !BitIdentical(*layered, r->breakdown)) {
      throw std::runtime_error(std::string("cell ") + cell.label +
                               ": layer calls and RunJob disagree");
    }
    DigestResult(*r, digest);
    makespans.push_back(r->makespan);
  }
  return PaperSpeedupError(makespans);
}

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  // Everything before the first timed op. `tracer` is set on traced
  // runs, which also collect set-up layers into `run_layers`.
  virtual void Setup(Tracer* tracer) = 0;
  // One untraced op through the public Job API; false if any output
  // check failed. Op 0 also feeds the digest.
  virtual bool RunOp(int op) = 0;
  // One traced op: layer calls in spans under one "op" span, then the
  // audit calls. Fills the op's layer numbers and its span seconds.
  virtual bool RunTracedOp(int op, Tracer& tracer, Layers& layers,
                           double* op_seconds) = 0;
  // Context the stamp records.
  virtual std::string Context() const = 0;
  // The fixed tail percentile op_tail_s reports (see README.md).
  virtual int TailPct() const = 0;
  // True if an op runs on the calling thread alone. Such ops run pinned,
  // each op on the next CPU in turn, and are calibrated on that CPU;
  // other ops are calibrated on every CPU.
  virtual bool SingleThreadedOp() const { return false; }

  // Layers measured once per run (set-up, the paper cells), added to
  // every traced op's sample.
  Layers run_layers;
  Digest digest;

 protected:
  std::uint64_t seed_;
};

class LiveK4 final : public Workload {
 public:
  using Workload::Workload;

  void Setup(Tracer*) override {
    // The warm-up op: the cold cost every ctsort invocation pays.
    if (!RunOp(-1)) throw std::runtime_error("live-k4 warm-up op failed");
  }

  bool RunOp(int op) override {
    job::RunCache cache;
    std::vector<job::JobResult> results;
    for (const Algo& algo : kAlgos) {
      results.push_back(job::RunJob(Spec(algo), cache));
    }
    bool ok = true;
    for (const job::JobResult& r : results) {
      ok = ok && r.error.empty() && r.execution != nullptr;
    }
    if (!ok) return false;
    const RecordChecksum expected = ChecksumOfInput(
        TeraGen(seed_, KeyDistribution::kUniform), kRecords);
    for (const job::JobResult& r : results) {
      ok = ok && ValidatePartitions(r.execution->partitions, expected).valid;
      if (op == 0) DigestResult(r, digest);
    }
    return ok;
  }

  bool RunTracedOp(int op, Tracer& tr, Layers& layers,
                   double* op_seconds) override {
    job::RunCache cache;
    std::vector<std::shared_ptr<const AlgorithmResult>> runs;
    std::vector<StageBreakdown> priced;
    std::vector<double> layer_sum;
    const int op_span = tr.Begin("op", -1, op);
    for (const Algo& algo : kAlgos) {
      const job::JobSpec spec = Spec(algo);
      const int exec_span =
          tr.Begin("driver." + std::string(algo.module) + ".exec", op_span, op);
      runs.push_back(cache.Get(spec.algorithm, spec.config));
      const double exec_s = tr.End(exec_span);
      const AlgorithmResult& run = *runs.back();
      AddNodeSpans(tr, run, algo.module, exec_span, op);
      AddExecutionLayers(run, algo.module, exec_s, layers);
      const double price_s = tr.Time("analytics.price", op_span, op, [&] {
        priced.push_back(SimulateRun(run, CostModel{},
                                     PaperScale(kRecords, kRecords)));
      });
      const double timeline_s = tr.Time("obs.timeline", op_span, op, [&] {
        obs::Timeline tl = obs::BuildLiveTimeline(run);
        obs::MetricRegistry::Global().Snapshot();
      });
      layers["analytics.price_s"] += price_s;
      layers["obs.timeline_s"] += timeline_s;
      layer_sum.push_back(price_s + timeline_s);
    }
    bool ok = true;
    layers["keyvalue.validate_s"] =
        tr.Time("keyvalue.validate", op_span, op, [&] {
          const RecordChecksum expected = ChecksumOfInput(
              TeraGen(seed_, KeyDistribution::kUniform), kRecords);
          for (const auto& run : runs) {
            ok = ok && ValidatePartitions(run->partitions, expected).valid;
          }
        });
    *op_seconds = tr.End(op_span);
    // Audit: RunJob on the now-warm cache repeats everything but the
    // execution, so its wall minus the layers it repeats is the Job
    // API's own cost.
    for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
      std::optional<job::JobResult> r;
      const double wall = tr.Time("job.run_job", -1, op, [&] {
        r = job::RunJob(Spec(kAlgos[i]), cache);
      });
      layers["job.overhead_s"] += wall - layer_sum[i];
      ok = ok && r->error.empty() && BitIdentical(r->breakdown, priced[i]);
    }
    return ok;
  }

  std::string Context() const override {
    return "\"K\": 4, \"r\": [1, 2], \"records\": 1000000, "
           "\"paper_records\": 1000000, \"distribution\": \"uniform\"";
  }
  int TailPct() const override { return 75; }

 private:
  struct Algo {
    const char* registry;
    const char* module;
    int redundancy;
  };
  static constexpr Algo kAlgos[] = {{"terasort", "terasort", 1},
                                    {"coded", "codedterasort", 2}};
  static constexpr std::uint64_t kRecords = 1'000'000;

  job::JobSpec Spec(const Algo& algo) const {
    job::JobSpec spec;
    spec.algorithm = algo.registry;
    spec.config.num_nodes = 4;
    spec.config.redundancy = algo.redundancy;
    spec.config.num_records = kRecords;
    spec.config.seed = seed_;
    spec.config.distribution = KeyDistribution::kUniform;
    spec.backend = job::Backend::kPriced;
    return spec;
  }
};

class ReplayK16 final : public Workload {
 public:
  using Workload::Workload;

  void Setup(Tracer* tr) override {
    for (const Algo& algo : kAlgos) {
      const SortConfig config = Config(algo);
      const auto start = Clock::now();
      const int exec_span = tr ? tr->Begin("driver.setup_exec", -1, -1) : -1;
      const auto run = cache_.Get(algo.registry, config);
      const double exec_s = SecondsSince(start);
      if (tr) {
        tr->End(exec_span);
        AddNodeSpans(*tr, *run, algo.module, exec_span, -1);
      }
      AddExecutionLayers(*run, algo.module, exec_s, run_layers);
      run_layers["driver.setup_exec_s"] += exec_s;
      const auto build_start = Clock::now();
      const int build_span = tr ? tr->Begin("simscen.build_run", -1, -1) : -1;
      cache_.GetScenarioRun(algo.registry, config, kPaperRecords, false);
      if (tr) tr->End(build_span);
      run_layers["simscen.build_run_s"] += SecondsSince(build_start);
      // Replays read counters and logs only; drop the sorted output.
      cache_.ReleasePartitions(algo.registry, config);
    }
  }

  bool RunOp(int op) override {
    bool ok = true;
    for (const Cell& cell : Cells(op)) {
      const job::JobResult r = job::RunJob(cell.spec, cache_);
      ok = ok && Valid(r);
      if (op == 0) DigestResult(r, digest);
    }
    return ok;
  }

  bool RunTracedOp(int op, Tracer& tr, Layers& layers,
                   double* op_seconds) override {
    const std::vector<Cell> cells = Cells(op);
    auto& registry = obs::MetricRegistry::Global();
    const std::map<std::string, double> before = registry.Snapshot();
    bool ok = true;
    std::vector<double> probe_s, timeline_s;
    const int op_span = tr.Begin("op", -1, op);
    for (const Cell& cell : cells) {
      const job::JobSpec& spec = cell.spec;
      const auto run = cache_.Get(spec.algorithm, spec.config);
      obs::Timeline tl;
      double tl_s = tr.Time("obs.timeline", op_span, op,
                            [&] { tl = obs::BuildLiveTimeline(*run); });
      const auto scenario_run = cache_.GetScenarioRun(
          spec.algorithm, spec.config, spec.paper_records, false);
      simscen::ScenarioOutcome outcome;
      probe_s.push_back(tr.Time("simscen.replay_probe", op_span, op, [&] {
        outcome = simscen::ReplayScenario(*scenario_run, *spec.scenario, &tl);
      }));
      tl_s += tr.Time("obs.timeline", op_span, op,
                      [&] { registry.Snapshot(); });
      timeline_s.push_back(tl_s);
      layers["obs.timeline_s"] += tl_s;
      double backups = 0;
      for (const simscen::StageSpan& s : outcome.spans) {
        backups += s.speculative_copies;
      }
      layers["mitigate.backups"] += backups;
      layers["mitigate.wasted_s"] += outcome.wasted_seconds;
      ok = ok && std::isfinite(outcome.makespan) && outcome.makespan > 0;
    }
    *op_seconds = tr.End(op_span);
    const std::map<std::string, double> after = registry.Snapshot();
    for (const char* key : {"flows_started", "flows_requeued",
                            "maxmin_recomputations"}) {
      const std::string name = std::string("simscen/") + key;
      layers[std::string("simscen.") + key] =
          Metric(after, name) - Metric(before, name);
    }
    // Audits: the bare replay (no timeline probe) per cell, and RunJob
    // on the serial cells. Their layer calls take about a millisecond;
    // on the full cells the replay's own run-to-run noise, tens of
    // milliseconds, would hide the Job API's cost.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const job::JobSpec& spec = cells[i].spec;
      const auto scenario_run = cache_.GetScenarioRun(
          spec.algorithm, spec.config, spec.paper_records, false);
      const double bare = tr.Time("simscen.replay", -1, op, [&] {
        simscen::ReplayScenario(*scenario_run, *spec.scenario);
      });
      layers["simscen.replay_s." + cells[i].label] = bare;
      layers["obs.timeline_probe_s"] += probe_s[i] - bare;
      if (!cells[i].serial) continue;
      std::optional<job::JobResult> r;
      const double wall = tr.Time("job.run_job", -1, op,
                                  [&] { r = job::RunJob(spec, cache_); });
      layers["job.overhead_s"] += wall - probe_s[i] - timeline_s[i];
      ok = ok && Valid(*r);
    }
    return ok;
  }

  std::string Context() const override {
    return "\"K\": 16, \"r\": [1, 3], \"records\": 120000, "
           "\"paper_records\": 120000000, \"distribution\": \"balanced\", "
           "\"teragen_seed\": 2017, \"topology\": \"4:4\", "
           "\"straggler\": \"exp:1:0.5:<seed+op>\", \"mitigation\": \"spec\", "
           "\"order\": \"per-sender\", \"disciplines\": [\"serial\", \"full\"]";
  }
  int TailPct() const override { return 85; }
  bool SingleThreadedOp() const override { return true; }

 private:
  struct Algo {
    const char* registry;
    const char* module;
    const char* label;
    int redundancy;
  };
  static constexpr Algo kAlgos[] = {{"terasort", "terasort", "terasort", 1},
                                    {"coded", "codedterasort", "coded_r3", 3}};
  static constexpr std::uint64_t kRecords = 120'000;
  // The executed runs use the benches' default TeraGen seed; the run's
  // seed drives the straggler draws only.
  static constexpr std::uint64_t kTeraGenSeed = 2017;

  struct Cell {
    std::string label;
    bool serial = false;
    job::JobSpec spec;
  };

  static SortConfig Config(const Algo& algo) {
    SortConfig config;
    config.num_nodes = 16;
    config.redundancy = algo.redundancy;
    config.num_records = kRecords;
    config.seed = kTeraGenSeed;
    config.distribution = KeyDistribution::kBalanced;
    return config;
  }

  // The op's four cells; built before the op is timed.
  std::vector<Cell> Cells(int op) const {
    std::vector<Cell> cells;
    for (const Algo& algo : kAlgos) {
      for (const char* discipline : {"serial", "full"}) {
        job::ScenarioSpec text;
        text.topology = "4:4";
        text.straggler = "exp:1:0.5:" +
                         std::to_string(seed_ + static_cast<std::uint64_t>(op));
        text.mitigate = "spec";
        text.discipline = discipline;
        text.order = "per-sender";
        std::string error;
        auto scenario = job::ParseScenario(text, 16, &error);
        if (!scenario.has_value()) throw std::runtime_error(error);
        Cell cell;
        cell.label = std::string(algo.label) + "." + discipline;
        cell.serial = std::string(discipline) == "serial";
        cell.spec.algorithm = algo.registry;
        cell.spec.config = Config(algo);
        cell.spec.backend = job::Backend::kReplay;
        cell.spec.scenario = std::move(*scenario);
        cell.spec.paper_records = kPaperRecords;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  }

  static bool Valid(const job::JobResult& r) {
    return r.error.empty() && r.outcome.has_value() &&
           std::isfinite(r.makespan) && r.makespan > 0;
  }

  job::RunCache cache_;
};

// ---- Metric catalogue -------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports; a layer the workload
// does not reach reports 0. Must match BENCHMARK.json's per_layer.
const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const char* n :
         {"terasort.map_s", "terasort.pack_s", "terasort.shuffle_s",
          "terasort.unpack_s", "terasort.reduce_s", "codedterasort.codegen_s",
          "codedterasort.map_s", "codedterasort.encode_s",
          "codedterasort.shuffle_s", "codedterasort.decode_s",
          "codedterasort.reduce_s", "driver.terasort.exec_s",
          "driver.codedterasort.exec_s", "driver.terasort.overhead_s",
          "driver.codedterasort.overhead_s", "driver.terasort.barrier_wait_s",
          "driver.codedterasort.barrier_wait_s", "keyvalue.validate_s",
          "analytics.price_s", "obs.timeline_s", "obs.timeline_probe_s",
          "simulate.synth_s.t16", "simulate.synth_s.c16r3",
          "simulate.synth_s.c16r5", "simulate.synth_s.t20",
          "simulate.synth_s.c20r3", "simulate.synth_s.c20r5",
          "simscen.replay_s.terasort.serial", "simscen.replay_s.terasort.full",
          "simscen.replay_s.coded_r3.serial", "simscen.replay_s.coded_r3.full",
          "mitigate.wasted_s", "job.overhead_s", "driver.setup_exec_s",
          "simscen.build_run_s", "bench.trace_overhead_s"}) {
      d.push_back({n, "s"});
    }
    for (const char* n :
         {"coding.xor_bytes", "simmpi.terasort.shuffle_bytes",
          "simmpi.codedterasort.shuffle_bytes"}) {
      d.push_back({n, "bytes"});
    }
    for (const char* n :
         {"coding.packets", "simmpi.terasort.shuffle_msgs",
          "simmpi.codedterasort.shuffle_msgs", "simmpi.arena_lookups",
          "simmpi.stripe_contention", "simulate.records",
          "combinatorics.groups", "simscen.flows_started",
          "simscen.flows_requeued", "simscen.maxmin_recomputations",
          "mitigate.backups", "bench.traced_ops"}) {
      d.push_back({n, "count"});
    }
    d.push_back({"coding.xor_gb_per_s", "GB/s"});
    d.push_back({"simmpi.arena_hit_ratio", "ratio"});
    d.push_back({"simscen.recomputations_per_flow", "ratio"});
    return d;
  }();
  return defs;
}

// ---- Main ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Args Parse(int argc, char** argv) {
  tools::Flags flags(argc, argv, "ctbench");
  Args a;
  a.workload = flags.Get("workload", "");
  const bool have_seed = !flags.Get("seed", "").empty();
  a.seed = flags.GetU64("seed", 0);
  a.seconds = flags.GetDouble("seconds", 0);
  const std::string trace = flags.Get("trace", "0");
  a.trace_out = flags.Get("trace-out", "");
  flags.CheckAllConsumed();
  if (trace != "0" && trace != "1") tools::Flags::Fail("--trace takes 0 or 1");
  a.trace = trace == "1";
  if (a.workload.empty() || !have_seed) {
    tools::Flags::Fail("--workload and --seed are required");
  }
  if (!(a.seconds > 0)) {
    tools::Flags::Fail("--seconds must be positive");
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "live-k4") return std::make_unique<LiveK4>(seed);
  if (name == "replay-k16") return std::make_unique<ReplayK16>(seed);
  tools::Flags::Fail("unknown workload '" + name + "' (live-k4 | replay-k16)");
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Run(const Args& args) {
  Tracer tracer;
  const std::vector<int> cpus = AllowedCpus();
  // Untimed: the first calibration touches the kernel's memory.
  HostCalibration(cpus);
  // The first set-up also pays the process's first page faults; the
  // median over kSetups keeps one slow sample from moving setup_s. A
  // traced run traces the last set-up, whose workload it keeps.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_ref, setup_wall;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    workload = MakeWorkload(args.workload, args.seed);
    const double before = HostCalibration(cpus);
    const auto start = Clock::now();
    workload->Setup(args.trace && i + 1 == kSetups ? &tracer : nullptr);
    setup_wall.push_back(SecondsSince(start));
    setup_ref.push_back(
        ReferenceSeconds(setup_wall.back(), before, HostCalibration(cpus)));
  }

  // Untraced runs calibrate around every op; traced runs report wall
  // times only.
  const bool calibrate = !args.trace;
  std::vector<double> untraced, untraced_ref, calibrations, traced;
  std::vector<Layers> traced_layers;
  int attempted = 0, failed = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int op = 0; op == 0 || Clock::now() < deadline; ++op) {
    const bool trace_op = args.trace && op % 2 == 1;
    std::vector<int> op_cpus = cpus;
    if (workload->SingleThreadedOp() && !cpus.empty()) {
      op_cpus = {cpus[static_cast<std::size_t>(op) % cpus.size()]};
      PinTo(op_cpus);
    }
    const double calibration_before = calibrate ? HostCalibration(op_cpus) : 0;
    bool ok = false;
    double seconds = 0;
    Layers layers;
    try {
      if (trace_op) {
        ok = workload->RunTracedOp(op, tracer, layers, &seconds);
      } else {
        const auto start = Clock::now();
        ok = workload->RunOp(op);
        seconds = SecondsSince(start);
      }
    } catch (const std::exception& e) {
      std::cerr << "ctbench: op " << op << " threw: " << e.what() << "\n";
      ok = false;
    }
    const double calibration_after = calibrate ? HostCalibration(op_cpus) : 0;
    ++attempted;
    if (!ok) {
      ++failed;
      continue;
    }
    if (trace_op) {
      traced.push_back(seconds);
      traced_layers.push_back(std::move(layers));
    } else {
      untraced.push_back(seconds);
      if (calibrate) {
        untraced_ref.push_back(
            ReferenceSeconds(seconds, calibration_before, calibration_after));
        calibrations.push_back(calibration_before);
        calibrations.push_back(calibration_after);
      }
    }
  }
  PinTo(cpus);

  // Untimed: the six paper cells, after the loop so that they touch
  // neither set-up nor op times.
  double speedup_err = 0;
  bool paper_ok = true;
  try {
    speedup_err = EvaluatePaperCells(args.seed, args.trace ? &tracer : nullptr,
                                     workload->run_layers, workload->digest);
  } catch (const std::exception& e) {
    std::cerr << "ctbench: paper cells failed: " << e.what() << "\n";
    paper_ok = false;
  }

  std::map<std::string, std::pair<double, std::string>> metrics;
  const int tail_pct = workload->TailPct();
  if (!args.trace) {
    metrics["op_p50_s"] = {untraced_ref.empty() ? 0 : Median(untraced_ref),
                           "s"};
    metrics["op_tail_s"] = {
        untraced_ref.empty() ? 0 : Percentile(untraced_ref, tail_pct), "s"};
    metrics["setup_s"] = {Median(setup_ref), "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    metrics["speedup_err"] = {speedup_err, "ratio"};
  } else {
    // Each per-layer value is the median over the run's traced ops;
    // run_layers are single measurements.
    std::map<std::string, std::vector<double>> samples;
    for (const Layers& layers : traced_layers) {
      Layers l = layers;
      for (const auto& [name, v] : workload->run_layers) l[name] += v;
      l["simmpi.arena_hit_ratio"] =
          l["simmpi.arena_lookups"] > 0
              ? l["simmpi.arena_hits"] / l["simmpi.arena_lookups"]
              : 0;
      l["coding.xor_gb_per_s"] =
          l["coding.busy_s"] > 0
              ? l["coding.xor_bytes"] / l["coding.busy_s"] / 1e9
              : 0;
      l["simscen.recomputations_per_flow"] =
          l["simscen.flows_started"] > 0
              ? l["simscen.maxmin_recomputations"] / l["simscen.flows_started"]
              : 0;
      for (const auto& [name, v] : l) samples[name].push_back(v);
    }
    for (const MetricDef& def : LayerMetrics()) {
      const auto it = samples.find(def.name);
      metrics[def.name] = {it == samples.end() ? 0.0 : Median(it->second),
                           def.unit};
    }
    metrics["bench.traced_ops"] = {static_cast<double>(traced.size()), "count"};
    metrics["bench.trace_overhead_s"] = {
        traced.empty() || untraced.empty()
            ? 0
            : Median(traced) - Median(untraced),
        "s"};
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      tracer.WriteChrome(out, "ctbench " + args.workload);
      if (!out) {
        std::cerr << "ctbench: cannot write " << args.trace_out << "\n";
        return 1;
      }
    }
  }

  for (const auto& [name, value] : metrics) {
    if (!ValidMetricName(name)) {
      std::cerr << "ctbench: invalid metric name '" << name << "'\n";
      return 1;
    }
  }
  const std::size_t n = untraced.size();
  std::cout << "stamp: {\"workload\": \"" << args.workload << "\", \"seed\": "
            << args.seed << ", \"seconds\": " << Num(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << CTBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << CTBENCH_COMPILER << "\", "
            << workload->Context()
            << ", \"paper_cells\": \"K=16,20 x terasort, coded r=3,5; 1200000 "
               "balanced records priced at 120000000 (kSimulated)\""
            << ", \"ops\": " << attempted
            << ", \"untraced_ops\": " << n
            << ", \"traced_ops\": " << traced.size()
            << ", \"tail_pct\": " << tail_pct << ", \"tail_support\": "
            << (n == 0 ? 0 : SamplesBeyond(n, tail_pct))
            << ", \"tail_rule_pct\": " << TailPercentile(n);
  if (calibrate) {
    std::cout << ", \"time_unit\": \"reference-host s\""
              << ", \"calibration_ref_s\": " << Num(kCalibrationRefSeconds)
              << ", \"calibration_p50_s\": "
              << Num(calibrations.empty() ? 0 : Median(calibrations))
              << ", \"op_wall_p50_s\": " << Num(n == 0 ? 0 : Median(untraced))
              << ", \"op_wall_tail_s\": "
              << Num(n == 0 ? 0 : Percentile(untraced, tail_pct))
              << ", \"setup_wall_s\": " << Num(Median(setup_wall))
              << ", \"setup_wall_samples_s\": [";
    for (std::size_t i = 0; i < setup_wall.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << Num(setup_wall[i]);
    }
    std::cout << "]";
  }
  std::cout << "}\n";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(workload->digest.value()));
  std::cout << "digest: " << digest << "\n";
  std::cout << "{\"correct\": "
            << (failed == 0 && paper_ok ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << Num(value.first) << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  std::cout << "}}\n";
  return 0;
}

}  // namespace
}  // namespace cts::perfbench

int main(int argc, char** argv) {
  const cts::perfbench::Args args = cts::perfbench::Parse(argc, argv);
  try {
    return cts::perfbench::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "ctbench: " << e.what() << "\n";
    return 1;
  }
}
