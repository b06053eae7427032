#include "driver/cluster.h"

#include <atomic>
#include <exception>
#include <thread>

#include "obs/metrics.h"

namespace cts {

namespace {

// Pull-at-end publication of the transport's per-stage counters: one
// registry write per (stage, counter) after the run, nothing on the
// per-record hot path.
void PublishTrafficMetrics(const simmpi::TrafficStats& stats) {
  auto& registry = obs::MetricRegistry::Global();
  for (const std::string& stage : stats.stage_names()) {
    const simmpi::ChannelCounters c = stats.stage(stage);
    const std::string prefix = "simmpi/" + stage + "/";
    if (c.unicast_msgs > 0) {
      registry.counter(prefix + "unicast_msgs").add(c.unicast_msgs);
      registry.counter(prefix + "unicast_bytes").add(c.unicast_bytes);
    }
    if (c.mcast_msgs > 0) {
      registry.counter(prefix + "mcast_msgs").add(c.mcast_msgs);
      registry.counter(prefix + "mcast_bytes").add(c.mcast_bytes);
      registry.counter(prefix + "mcast_recipient_bytes")
          .add(c.mcast_recipient_bytes);
    }
    if (c.comm_creations > 0) {
      registry.counter(prefix + "comm_creations").add(c.comm_creations);
    }
  }
}

}  // namespace

void RunOnCluster(simmpi::World& world, RunRecorder& recorder,
                  const NodeProgram& program) {
  const int K = world.num_nodes();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(K));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(K));
  // The first node to fail aborts the world, so peers blocked on it
  // throw simmpi::Aborted instead of hanging; its exception is the
  // root cause that gets rethrown.
  std::atomic<NodeId> first_failed{-1};

  for (NodeId node = 0; node < K; ++node) {
    threads.emplace_back([&, node] {
      try {
        simmpi::Comm comm = simmpi::Comm::World(world, node);
        program(comm, recorder);
      } catch (...) {
        errors[static_cast<std::size_t>(node)] = std::current_exception();
        NodeId none = -1;
        if (first_failed.compare_exchange_strong(none, node)) world.Abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_failed >= 0) {
    std::rethrow_exception(errors[static_cast<std::size_t>(first_failed)]);
  }
  PublishTrafficMetrics(world.stats());
}

}  // namespace cts
