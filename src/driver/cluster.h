// Cluster execution harness.
//
// Replaces the paper's coordinator + K EC2 workers: the coordinator is
// the calling thread, and each worker node is an OS thread running the
// node program against its world communicator. RunRecorder is the
// shared-memory side channel the harness (not the algorithms) uses to
// collect outputs, counters and timings — the algorithms themselves
// only communicate through simmpi.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "driver/run_result.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"

namespace cts {

// Thread-safe collection of per-node results during a run.
class RunRecorder {
 public:
  explicit RunRecorder(int num_nodes)
      : partitions_(static_cast<std::size_t>(num_nodes)),
        work_(static_cast<std::size_t>(num_nodes)) {}

  void record_wall(const std::string& stage, NodeId node, double seconds) {
    std::lock_guard lock(mu_);
    auto& per_node = wall_[stage];
    per_node.resize(std::max(per_node.size(),
                             static_cast<std::size_t>(node) + 1));
    per_node[static_cast<std::size_t>(node)] = seconds;
  }

  // Records one stage boundary on one node ([start, end) on the node's
  // local run clock). The first node to enter a stage also fixes the
  // stage's position in stage_order() — stages are barrier-delimited,
  // so every node sees the same sequence.
  void record_event(const std::string& stage, NodeId node, double start,
                    double end) {
    std::lock_guard lock(mu_);
    if (seen_stages_.insert(stage).second) stage_order_.push_back(stage);
    events_.push_back(ComputeEvent{stage, node, start, end});
  }

  // Stage names in first-execution order.
  std::vector<std::string> stage_order() const {
    std::lock_guard lock(mu_);
    return stage_order_;
  }

  // All recorded events, ordered by (node, start).
  ComputeLog compute_events() const {
    std::lock_guard lock(mu_);
    ComputeLog log = events_;
    std::sort(log.begin(), log.end(),
              [](const ComputeEvent& a, const ComputeEvent& b) {
                return a.node != b.node ? a.node < b.node
                                        : a.start_seconds < b.start_seconds;
              });
    return log;
  }

  void set_partition(NodeId node, std::vector<Record> records) {
    std::lock_guard lock(mu_);
    partitions_[static_cast<std::size_t>(node)] = std::move(records);
  }

  void set_work(NodeId node, const NodeWork& work) {
    std::lock_guard lock(mu_);
    work_[static_cast<std::size_t>(node)] = work;
  }

  // Max-over-nodes wall seconds per stage.
  std::map<std::string, double> wall_max() const {
    std::lock_guard lock(mu_);
    std::map<std::string, double> out;
    for (const auto& [stage, per_node] : wall_) {
      double mx = 0;
      for (double s : per_node) mx = std::max(mx, s);
      out[stage] = mx;
    }
    return out;
  }

  std::vector<std::vector<Record>> take_partitions() {
    std::lock_guard lock(mu_);
    return std::move(partitions_);
  }

  std::vector<NodeWork> work() const {
    std::lock_guard lock(mu_);
    return work_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> wall_;
  std::vector<std::vector<Record>> partitions_;
  std::vector<NodeWork> work_;
  std::set<std::string> seen_stages_;
  std::vector<std::string> stage_order_;
  ComputeLog events_;
};

// Runs `program(comm, recorder)` on one thread per node of a fresh
// World and returns after all threads join. The first node to throw
// aborts the World, so peers blocked on it throw simmpi::Aborted
// instead of hanging; that first exception is rethrown on the calling
// thread.
using NodeProgram =
    std::function<void(simmpi::Comm& world_comm, RunRecorder& recorder)>;

void RunOnCluster(simmpi::World& world, RunRecorder& recorder,
                  const NodeProgram& program);

// Scoped timer for one stage body on one node: on destruction it
// records BOTH RunRecorder entries — the wall time and the
// ComputeEvent boundary — which are meaningless apart (the scenario
// engine replays events, the tables print walls, and a stage recorded
// in one but not the other would silently diverge the two views).
// Owning the pairing here keeps the node programs unable to forget
// half of it.
class StageTimer {
 public:
  // `run_clock_start` anchors the event on the node's local run clock
  // (seconds since the node program started its StageRunner).
  StageTimer(RunRecorder& recorder, std::string stage, NodeId node,
             double run_clock_start)
      : recorder_(recorder), stage_(std::move(stage)), node_(node),
        start_(run_clock_start) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() {
    const double seconds = watch_.elapsed();
    recorder_.record_wall(stage_, node_, seconds);
    recorder_.record_event(stage_, node_, start_, start_ + seconds);
  }

 private:
  RunRecorder& recorder_;
  std::string stage_;
  NodeId node_;
  double start_;
  Stopwatch watch_;
};

// Stage sequencing helper used inside node programs. Stages execute
// under a barrier-delimited protocol: everyone finishes the previous
// stage, rank 0 labels the traffic stats, everyone starts — matching
// the paper's synchronous stage-after-stage execution.
class StageRunner {
 public:
  // `injected_delays` (optional, borrowed) is the live fault-injection
  // hook: a matching entry makes this node really sleep inside the
  // stage body, so measured wall times and ComputeEvents exhibit the
  // straggler — the substrate the mitigation layer (src/mitigate) is
  // evaluated against on live runs.
  StageRunner(simmpi::Comm& world_comm, RunRecorder& recorder,
              const std::vector<InjectedDelay>* injected_delays = nullptr)
      : comm_(world_comm), recorder_(recorder),
        injected_delays_(injected_delays) {}

  template <typename Fn>
  void run(const std::string& name, Fn&& body) {
    comm_.barrier();  // previous stage fully drained
    if (comm_.rank() == 0) comm_.world().stats().set_stage(name);
    comm_.barrier();  // label visible before any traffic
    const StageTimer timer(recorder_, name, comm_.my_global(),
                           run_clock_.elapsed());
    body();
    inject_delay(name);  // inside the timer scope: the sleep is measured
  }

 private:
  void inject_delay(const std::string& name) {
    if (injected_delays_ == nullptr) return;
    for (const InjectedDelay& d : *injected_delays_) {
      if (d.stage == name && d.node == comm_.my_global() && d.seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(d.seconds));
      }
    }
  }

  simmpi::Comm& comm_;
  RunRecorder& recorder_;
  const std::vector<InjectedDelay>* injected_delays_;
  // Node-local run clock anchoring ComputeEvent boundaries; starts
  // when the node program constructs its StageRunner.
  Stopwatch run_clock_;
};

}  // namespace cts
