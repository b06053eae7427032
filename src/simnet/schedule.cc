#include "simnet/schedule.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace cts::simnet {

double LinkModel::tx_seconds(const Transmission& t) const {
  CTS_CHECK_GT(bytes_per_sec, 0.0);
  const double fanout = static_cast<double>(t.dsts.size());
  const double penalty =
      fanout > 1.0 ? 1.0 + multicast_log_coeff * std::log2(fanout) : 1.0;
  return static_cast<double>(t.bytes) * penalty / bytes_per_sec;
}

double LinkModel::rx_seconds(const Transmission& t) const {
  return static_cast<double>(t.bytes) / bytes_per_sec;
}

double SerialMakespan(const TransmissionLog& log, const LinkModel& link) {
  double total = 0;
  for (const Transmission& t : log) total += link.tx_seconds(t);
  return total;
}

namespace {

// Link-availability state shared by the parallel replays. Half duplex
// aliases a node's downlink onto its uplink.
class LinkState {
 public:
  LinkState(int num_nodes, bool full_duplex)
      : num_nodes_(num_nodes),
        full_duplex_(full_duplex),
        free_up_(static_cast<std::size_t>(num_nodes), 0.0),
        free_down_(static_cast<std::size_t>(num_nodes), 0.0) {}

  double& up(NodeId n) {
    CTS_CHECK_GE(n, 0);
    CTS_CHECK_LT(n, num_nodes_);
    return free_up_[static_cast<std::size_t>(n)];
  }
  double& down(NodeId n) {
    CTS_CHECK_GE(n, 0);
    CTS_CHECK_LT(n, num_nodes_);
    return full_duplex_ ? free_down_[static_cast<std::size_t>(n)]
                        : free_up_[static_cast<std::size_t>(n)];
  }

  // Earliest time `t` could start: sender's uplink and every
  // receiver's downlink simultaneously free.
  double earliest_start(const Transmission& t) {
    double start = up(t.src);
    for (const NodeId d : t.dsts) start = std::max(start, down(d));
    return start;
  }

  // Occupies the links for `t` starting at `start`; returns the
  // latest completion across the involved links.
  double schedule(const Transmission& t, double start,
                  const LinkModel& link) {
    const double tx_end = start + link.tx_seconds(t);
    const double rx_end = start + link.rx_seconds(t);
    up(t.src) = tx_end;
    for (const NodeId d : t.dsts) down(d) = std::max(down(d), rx_end);
    return std::max(tx_end, rx_end);
  }

 private:
  int num_nodes_;
  bool full_duplex_;
  std::vector<double> free_up_;
  std::vector<double> free_down_;
};

// List scheduling in global log order: a transmission starts as soon
// as its links are free, but never reorders past its predecessors.
double ParallelLogOrderMakespan(const TransmissionLog& log,
                                const LinkModel& link, int num_nodes,
                                bool full_duplex) {
  LinkState state(num_nodes, full_duplex);
  double makespan = 0;
  for (const Transmission& t : log) {
    const double start = state.earliest_start(t);
    makespan = std::max(makespan, state.schedule(t, start, link));
  }
  return makespan;
}

// Greedy event-driven scheduling constrained only by each sender's
// program order: among every sender's next pending transmission, the
// one that can start earliest goes first (ties broken by sender id,
// then seq — deterministic).
double ParallelPerSenderMakespan(const TransmissionLog& log,
                                 const LinkModel& link, int num_nodes,
                                 bool full_duplex) {
  LinkState state(num_nodes, full_duplex);
  // Per-sender FIFO of log indices in initiation (seq) order — a
  // sender's seq order is its program order. Sorting by seq rather
  // than trusting vector positions keeps the replay correct for a
  // stage log a caller filtered or reordered before replaying; it
  // does NOT make mixing different stages' logs valid (their seqs
  // restart at 0 and would interleave arbitrarily).
  std::vector<std::vector<std::size_t>> queue(
      static_cast<std::size_t>(num_nodes));
  for (std::size_t i = 0; i < log.size(); ++i) {
    const NodeId src = log[i].src;
    CTS_CHECK_GE(src, 0);
    CTS_CHECK_LT(src, num_nodes);
    queue[static_cast<std::size_t>(src)].push_back(i);
  }
  for (auto& q : queue) {
    std::sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      return log[a].seq < log[b].seq;
    });
  }
  std::vector<std::size_t> head(static_cast<std::size_t>(num_nodes), 0);

  double makespan = 0;
  std::size_t scheduled = 0;
  while (scheduled < log.size()) {
    int best = -1;
    double best_start = 0;
    for (int n = 0; n < num_nodes; ++n) {
      const auto& q = queue[static_cast<std::size_t>(n)];
      if (head[static_cast<std::size_t>(n)] >= q.size()) continue;
      const Transmission& t = log[q[head[static_cast<std::size_t>(n)]]];
      const double start = state.earliest_start(t);
      if (best < 0 || start < best_start) {
        best = n;
        best_start = start;
      }
    }
    CTS_CHECK_GE(best, 0);
    const Transmission& t =
        log[queue[static_cast<std::size_t>(best)]
                 [head[static_cast<std::size_t>(best)]++]];
    makespan = std::max(makespan, state.schedule(t, best_start, link));
    ++scheduled;
  }
  return makespan;
}

}  // namespace

double ParallelMakespan(const TransmissionLog& log, const LinkModel& link,
                        int num_nodes, bool full_duplex) {
  CTS_CHECK_GE(num_nodes, 1);
  return ParallelLogOrderMakespan(log, link, num_nodes, full_duplex);
}

double ReplayMakespan(const TransmissionLog& log, const LinkModel& link,
                      int num_nodes, Discipline discipline,
                      ReplayOrder order) {
  CTS_CHECK_GE(num_nodes, 1);
  switch (discipline) {
    case Discipline::kSerial:
      return SerialMakespan(log, link);
    case Discipline::kParallelHalfDuplex:
    case Discipline::kParallelFullDuplex: {
      const bool fd = discipline == Discipline::kParallelFullDuplex;
      return order == ReplayOrder::kLogOrder
                 ? ParallelLogOrderMakespan(log, link, num_nodes, fd)
                 : ParallelPerSenderMakespan(log, link, num_nodes, fd);
    }
  }
  CTS_CHECK_MSG(false, "unreachable discipline");
  return 0;
}

}  // namespace cts::simnet
