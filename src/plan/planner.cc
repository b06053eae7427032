#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "common/check.h"
#include "job/job.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "job/registry.h"
#include "mitigate/policy.h"
#include "obs/metrics.h"

namespace cts::plan {

namespace {

// Axis entries are user input (CLI flag lists); a repeated spec must
// not abort deep inside RunMatrix's duplicate-label check.
template <typename T>
std::vector<T> Dedupe(const std::vector<T>& in) {
  std::vector<T> out;
  std::set<T> seen;
  for (const T& v : in) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

bool HonorsRedundancy(const std::string& algorithm) {
  const job::AlgorithmInfo* info = job::Find(algorithm);
  if (info == nullptr) return true;  // ValidateSpec rejects the name
  return std::find(info->knobs.begin(), info->knobs.end(), "redundancy") !=
         info->knobs.end();
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string PlanRow::label() const {
  return algorithm + "@K" + std::to_string(num_nodes) + "/" + topology +
         "/" + policy + "/" + instance;
}

double SampleQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  std::sort(values.begin(), values.end());
  // Nearest-rank: the smallest value with at least ceil(q*n) samples
  // at or below it; q = 0 is the minimum.
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

PlanResult RunPlan(const PlanAxes& axes, const PlanQuery& query,
                   job::RunCache& cache) {
  PlanResult result;
  result.quantile = query.quantile;
  const auto fail = [&result](std::string msg) {
    result.error = std::move(msg);
    return result;
  };

  const std::vector<std::string> algorithms = Dedupe(axes.algorithms);
  const std::vector<int> redundancies = Dedupe(axes.redundancies);
  const std::vector<int> node_counts = Dedupe(axes.node_counts);
  std::vector<std::string> topologies = Dedupe(axes.topologies);
  std::vector<std::string> stragglers = Dedupe(axes.stragglers);
  std::vector<std::string> policies = Dedupe(axes.policies);
  std::vector<InstanceProfile> instances = axes.instances;
  if (query.sort_key != "usd" && query.sort_key != "makespan" &&
      query.sort_key != "egress") {
    return fail("unknown sort key '" + query.sort_key +
                "' (usd | makespan | egress)");
  }
  if (algorithms.empty()) return fail("plan needs at least one algorithm");
  if (redundancies.empty()) return fail("plan needs a redundancy axis");
  if (node_counts.empty()) return fail("plan needs a node-count axis");
  if (topologies.empty()) topologies.push_back("");
  if (stragglers.empty()) stragglers.push_back("none");
  if (policies.empty()) policies.push_back("none");
  if (instances.empty()) instances.push_back(InstanceProfile{});

  std::string parse_error;
  const auto discipline = job::ParseDiscipline(axes.discipline, &parse_error);
  if (!discipline.has_value()) return fail(parse_error);
  const auto order = job::ParseOrder(axes.order, &parse_error);
  if (!order.has_value()) return fail(parse_error);

  const auto topo_label = [](const std::string& spec) {
    return spec.empty() ? std::string("flat") : spec;
  };
  const auto spec_label = [](const std::string& spec) {
    return spec.empty() ? std::string("none") : spec;
  };

  // One JobMatrix per K: the replay engine checks a scenario's
  // topology against the run's node count, so K is the outermost
  // expansion, not a scenario label.
  for (const int num_nodes : node_counts) {
    if (num_nodes < 2) return fail("plan needs >= 2 nodes per cluster");
    job::JobMatrix matrix;
    matrix.backend = job::Backend::kReplay;
    matrix.paper_records = axes.paper_records;
    matrix.pricing = axes.cost;

    for (const std::string& algorithm : algorithms) {
      if (HonorsRedundancy(algorithm)) {
        for (const int r : redundancies) {
          if (r < 1 || r > num_nodes - 1) continue;  // no C(K, r) placement
          job::AlgoAxis axis;
          axis.label = algorithm + "_r" + std::to_string(r);
          axis.algorithm = algorithm;
          axis.config.num_nodes = num_nodes;
          axis.config.redundancy = r;
          axis.config.num_records = axes.records;
          axis.config.seed = axes.seed;
          matrix.algos.push_back(std::move(axis));
        }
      } else {
        job::AlgoAxis axis;
        axis.label = algorithm;
        axis.algorithm = algorithm;
        axis.config.num_nodes = num_nodes;
        axis.config.redundancy = 1;
        axis.config.num_records = axes.records;
        axis.config.seed = axes.seed;
        matrix.algos.push_back(std::move(axis));
      }
    }
    if (matrix.algos.empty()) {
      return fail("no (algorithm, r) candidate fits K = " +
                  std::to_string(num_nodes));
    }
    // RunJob turns a spec no backend can run into JobResult::error with
    // a zero makespan; such a cell would price as a free row that meets
    // every SLO, so refuse the plan before executing anything.
    for (const job::AlgoAxis& algo : matrix.algos) {
      job::JobSpec spec;
      spec.algorithm = algo.algorithm;
      spec.config = algo.config;
      spec.backend = matrix.backend;
      if (std::string error = job::ValidateSpec(spec); !error.empty()) {
        return fail(algo.label + ": " + error);
      }
    }

    for (const std::string& topo_spec : topologies) {
      const auto topology =
          job::ParseTopology(topo_spec, num_nodes, &parse_error);
      if (!topology.has_value()) return fail(parse_error);
      for (const std::string& straggler_spec : stragglers) {
        const auto straggler =
            job::ParseStraggler(straggler_spec, num_nodes, &parse_error);
        if (!straggler.has_value()) return fail(parse_error);
        job::ScenarioAxis axis;
        axis.label = topo_label(topo_spec) + "|" + spec_label(straggler_spec);
        axis.scenario = simscen::Scenario::Baseline(num_nodes);
        axis.scenario.topology = *topology;
        axis.scenario.cluster.straggler = *straggler;
        axis.scenario.discipline = *discipline;
        axis.scenario.order = *order;
        matrix.scenarios.push_back(std::move(axis));
      }
    }
    for (const std::string& policy_spec : policies) {
      const auto policy = mitigate::ParsePolicy(policy_spec);
      if (!policy.has_value()) {
        return fail("unknown mitigation '" + policy_spec +
                    "' (none | spec[:QUANTILE:TRIGGER] | coded)");
      }
      matrix.policies.push_back({spec_label(policy_spec), *policy});
    }
    for (const InstanceProfile& instance : instances) {
      if (instance.speed <= 0 || instance.usd_per_hour < 0) {
        return fail("instance '" + instance.name +
                    "' needs speed > 0 and a non-negative rate");
      }
      matrix.instances.push_back(
          {instance.name, instance.speed, instance.usd_per_hour});
    }

    const job::MatrixResults results = job::RunMatrix(matrix, cache);
    result.cells += results.replays();
    result.executions += results.executions();

    // Aggregate each architecture over the straggler set: the SLO is a
    // statement about the tail of that distribution, and the row is
    // priced at its quantile — the capacity you must budget, not the
    // lucky mean.
    for (const InstanceProfile& instance : instances) {
      DollarCost cost = axes.cost;
      cost.node_usd_per_hour = instance.usd_per_hour;
      for (const std::string& topo_spec : topologies) {
        for (const std::string& policy_spec : policies) {
          for (const job::AlgoAxis& algo : matrix.algos) {
            PlanRow row;
            row.algorithm = algo.label;
            row.redundancy = algo.config.redundancy;
            row.num_nodes = num_nodes;
            row.topology = topo_label(topo_spec);
            row.policy = spec_label(policy_spec);
            row.instance = instance.name;
            std::vector<double> makespans;
            double cross_rack_bytes = 0;
            for (const std::string& straggler_spec : stragglers) {
              const job::JobResult& cell = results.at(
                  algo.label,
                  row.topology + "|" + spec_label(straggler_spec),
                  row.policy, instance.name);
              if (!cell.error.empty()) {
                return fail(algo.label + ": " + cell.error);
              }
              makespans.push_back(cell.makespan);
              cross_rack_bytes = cell.cross_rack_bytes;
            }
            row.scenarios = static_cast<int>(makespans.size());
            double sum = 0;
            for (const double m : makespans) {
              sum += m;
              row.worst_makespan = std::max(row.worst_makespan, m);
            }
            row.mean_makespan = sum / static_cast<double>(makespans.size());
            row.quantile_makespan =
                SampleQuantile(makespans, query.quantile);
            row.node_hours =
                cost.node_hours(row.quantile_makespan, num_nodes);
            row.usd_compute =
                cost.compute_usd(row.quantile_makespan, num_nodes);
            row.usd_egress = cost.egress_usd(cross_rack_bytes);
            row.usd = row.usd_compute + row.usd_egress;
            row.cross_rack_gb = cross_rack_bytes / 1e9;
            row.meets_slo = row.quantile_makespan <= query.slo_seconds;
            if (row.usd > query.max_usd) continue;
            if (query.meets_only && !row.meets_slo) continue;
            result.rows.push_back(std::move(row));
          }
        }
      }
    }
  }

  const auto by_key = [&query](const PlanRow& a, const PlanRow& b) {
    double ka = a.usd;
    double kb = b.usd;
    if (query.sort_key == "makespan") {
      ka = a.quantile_makespan;
      kb = b.quantile_makespan;
    } else if (query.sort_key == "egress") {
      ka = a.usd_egress;
      kb = b.usd_egress;
    }
    if (ka != kb) return ka < kb;
    return a.label() < b.label();  // deterministic on ties
  };
  std::stable_sort(result.rows.begin(), result.rows.end(), by_key);

  // Winner: cheapest row meeting the SLO (tie broken by label — the
  // fixed-seed grid test pins this determinism).
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const PlanRow& row = result.rows[i];
    if (!row.meets_slo) continue;
    if (result.winner < 0 ||
        row.usd < result.rows[static_cast<std::size_t>(result.winner)].usd ||
        (row.usd ==
             result.rows[static_cast<std::size_t>(result.winner)].usd &&
         row.label() <
             result.rows[static_cast<std::size_t>(result.winner)].label())) {
      result.winner = static_cast<int>(i);
    }
  }

  obs::MetricRegistry::Global()
      .counter("plan/rows")
      .add(static_cast<std::uint64_t>(result.rows.size()));
  obs::MetricRegistry::Global()
      .counter("plan/cells")
      .add(static_cast<std::uint64_t>(result.cells));
  return result;
}

void WriteCsv(const PlanResult& result, std::ostream& out) {
  out << "algorithm,r,K,topology,policy,instance,scenarios,mean_s,"
      << "q" << FormatDouble(result.quantile * 100) << "_s,worst_s,"
      << "node_hours,usd_compute,usd_egress,usd,cross_rack_gb,meets_slo\n";
  for (const PlanRow& row : result.rows) {
    out << row.algorithm << ',' << row.redundancy << ',' << row.num_nodes
        << ',' << row.topology << ',' << row.policy << ',' << row.instance
        << ',' << row.scenarios << ',' << FormatDouble(row.mean_makespan)
        << ',' << FormatDouble(row.quantile_makespan) << ','
        << FormatDouble(row.worst_makespan) << ','
        << FormatDouble(row.node_hours) << ','
        << FormatDouble(row.usd_compute) << ','
        << FormatDouble(row.usd_egress) << ',' << FormatDouble(row.usd)
        << ',' << FormatDouble(row.cross_rack_gb) << ','
        << (row.meets_slo ? 1 : 0) << '\n';
  }
}

std::map<std::string, double> PlanMetrics(const PlanResult& result) {
  std::map<std::string, double> out;
  out["plan/cells"] = result.cells;
  out["plan/executions"] = result.executions;
  out["plan/rows"] = static_cast<double>(result.rows.size());
  out["plan/quantile"] = result.quantile;
  if (const PlanRow* winner = result.winner_row()) {
    out["winner/usd"] = winner->usd;
    out["winner/makespan"] = winner->quantile_makespan;
    out["winner/node_hours"] = winner->node_hours;
  }
  for (const PlanRow& row : result.rows) {
    out[row.label() + "/usd"] = row.usd;
    out[row.label() + "/makespan"] = row.quantile_makespan;
  }
  return out;
}

}  // namespace cts::plan
