#include "simscen/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"

namespace cts::simscen {

ClusterProfile ClusterProfile::Homogeneous(int num_nodes) {
  CTS_CHECK_GE(num_nodes, 1);
  ClusterProfile p;
  p.speed.assign(static_cast<std::size_t>(num_nodes), 1.0);
  return p;
}

double ClusterProfile::speed_of(NodeId node) const {
  CTS_CHECK_GE(node, 0);
  if (speed.empty()) return 1.0;
  CTS_CHECK_LT(static_cast<std::size_t>(node), speed.size());
  const double s = speed[static_cast<std::size_t>(node)];
  CTS_CHECK_GT(s, 0.0);
  return s;
}

double ClusterProfile::straggler_factor(NodeId node, int stage_index) const {
  switch (straggler.kind) {
    case StragglerKind::kNone:
    case StragglerKind::kFailStop:
      return 1.0;
    case StragglerKind::kSlowNode:
      CTS_CHECK_GE(straggler.slowdown, 1.0);
      return node == straggler.node ? straggler.slowdown : 1.0;
    case StragglerKind::kShiftedExp: {
      CTS_CHECK_GE(straggler.shift, 0.0);
      CTS_CHECK_GE(straggler.mean, 0.0);
      // Factor is a pure function of (seed, node, stage): replays are
      // reproducible and independent of evaluation order.
      Xoshiro256 rng(Mix64(straggler.seed ^
                           (static_cast<std::uint64_t>(node) << 32) ^
                           static_cast<std::uint64_t>(stage_index)));
      const double u = rng.uniform();  // [0, 1)
      return straggler.shift - straggler.mean * std::log1p(-u);
    }
  }
  CTS_CHECK_MSG(false, "unreachable straggler kind");
  return 1.0;
}

Topology Topology::SingleRack(int num_nodes) {
  CTS_CHECK_GE(num_nodes, 1);
  Topology t;
  t.num_nodes = num_nodes;
  t.nodes_per_rack = 0;
  return t;
}

Topology Topology::Oversubscribed(int num_nodes, int nodes_per_rack,
                                  double factor) {
  CTS_CHECK_GE(num_nodes, 1);
  CTS_CHECK_GE(nodes_per_rack, 1);
  CTS_CHECK_GT(factor, 0.0);
  Topology t;
  t.num_nodes = num_nodes;
  t.nodes_per_rack = nodes_per_rack;
  t.core_bytes_per_sec =
      static_cast<double>(num_nodes) * t.access_bytes_per_sec / factor;
  return t;
}

Topology Topology::RackOversubscribed(int num_nodes, int nodes_per_rack,
                                      double core_factor, double up_factor,
                                      double down_factor) {
  Topology t = Oversubscribed(num_nodes, nodes_per_rack, core_factor);
  const double rack_access =
      static_cast<double>(nodes_per_rack) * t.access_bytes_per_sec;
  if (up_factor > 0) t.rack_uplink_bytes_per_sec = rack_access / up_factor;
  if (down_factor > 0) {
    t.rack_downlink_bytes_per_sec = rack_access / down_factor;
  }
  return t;
}

int Topology::rack_of(NodeId node) const {
  CTS_CHECK_GE(node, 0);
  CTS_CHECK_LT(node, num_nodes);
  if (nodes_per_rack <= 0 || nodes_per_rack >= num_nodes) return 0;
  return node / nodes_per_rack;
}

int Topology::num_racks() const {
  if (nodes_per_rack <= 0 || nodes_per_rack >= num_nodes) return 1;
  return (num_nodes + nodes_per_rack - 1) / nodes_per_rack;
}

bool Topology::crosses_core(const simnet::Transmission& t) const {
  const int src_rack = rack_of(t.src);
  for (const NodeId d : t.dsts) {
    if (rack_of(d) != src_rack) return true;
  }
  return false;
}

double Topology::multicast_penalty(const simnet::Transmission& t) const {
  double fanout = static_cast<double>(t.dsts.size());
  if (rack_aware_multicast) {
    // Distinct racks the stream reaches; the switch fans out locally.
    std::vector<int> racks;
    racks.reserve(t.dsts.size());
    for (const NodeId d : t.dsts) racks.push_back(rack_of(d));
    std::sort(racks.begin(), racks.end());
    racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
    fanout = static_cast<double>(racks.size());
  }
  return fanout > 1.0
             ? 1.0 + multicast_log_coeff * std::log2(fanout)
             : 1.0;
}

std::vector<std::pair<int, double>> Topology::rack_copies(
    const simnet::Transmission& t) const {
  const int src_rack = rack_of(t.src);
  std::vector<int> racks;
  for (const NodeId d : t.dsts) {
    const int r = rack_of(d);
    if (r != src_rack) racks.push_back(r);
  }
  std::sort(racks.begin(), racks.end());
  std::vector<std::pair<int, double>> copies;
  for (const int r : racks) {
    if (copies.empty() || copies.back().first != r) {
      copies.push_back({r, 1.0});
    } else if (!rack_aware_multicast) {
      copies.back().second += 1.0;
    }
  }
  return copies;
}

double CrossRackBytes(const simnet::TransmissionLog& log,
                      const Topology& topology) {
  double total = 0;
  for (const auto& t : log) {
    double copies = 0;
    for (const auto& [rack, n] : topology.rack_copies(t)) copies += n;
    total += static_cast<double>(t.bytes) * copies;
  }
  return total;
}

}  // namespace cts::simscen
