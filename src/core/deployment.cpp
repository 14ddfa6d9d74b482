#include "core/deployment.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"
#include "common/units.h"
#include "core/roofline.h"

namespace memdis::core {

JobRequirements JobRequirements::from_profile(const Level1Profile& l1, double scale_factor,
                                              double comm_fraction) {
  expects(scale_factor > 0, "scale factor must be positive");
  JobRequirements job;
  // Work and traffic scale with the problem; use the measured totals.
  double flops = 0.0;
  double traffic = 0.0;
  for (const auto& phase : l1.phases) {
    flops += phase.gflops_rate * 1e9 * phase.time_s;
    traffic += gbps_to_bytes_per_sec(phase.dram_gbps) * phase.time_s;
  }
  job.total_flops = flops * scale_factor;
  job.dram_traffic_bytes = traffic * scale_factor;
  job.footprint_bytes = static_cast<double>(l1.run.peak_rss_bytes) * scale_factor;
  job.curve_samples = l1.scaling_curve.sample(33);
  job.prefetch_coverage = core::prefetch_coverage(l1.run.counters);
  job.comm_seconds_base = comm_fraction * l1.run.elapsed_s * scale_factor;
  job.base_nodes = 1.0;
  return job;
}

DeploymentPlanner::DeploymentPlanner(const PlannerConfig& cfg) : cfg_(cfg) {
  expects(cfg.local_capacity_bytes > 0, "planner needs per-node local capacity");
}

double DeploymentPlanner::curve_at(const JobRequirements& job,
                                   double footprint_fraction) const {
  const auto& ys = job.curve_samples;
  if (ys.empty()) return footprint_fraction;  // assume uniform when unknown
  const double pos = std::clamp(footprint_fraction, 0.0, 1.0) *
                     static_cast<double>(ys.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, ys.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return ys[lo] * (1.0 - f) + ys[hi] * f;
}

DeploymentOption DeploymentPlanner::cost_out(const JobRequirements& job, int nodes) const {
  DeploymentOption opt;
  opt.nodes = nodes;
  const double n = nodes;
  const double per_node_footprint = job.footprint_bytes / n;
  const auto local = static_cast<double>(cfg_.local_capacity_bytes);
  const auto pool = static_cast<double>(cfg_.pool_capacity_bytes);

  if (per_node_footprint > local + pool) {
    opt.feasible = false;
    return opt;  // out of memory even with the pool share
  }
  opt.feasible = true;
  opt.needs_pool = per_node_footprint > local;
  const double local_fraction = std::min(local / per_node_footprint, 1.0);
  opt.pooled_fraction = 1.0 - local_fraction;
  // Best-case placement: the hottest pages go local, so remote accesses are
  // the tail of the scaling curve beyond the local share.
  opt.remote_access_ratio = 1.0 - curve_at(job, local_fraction);

  const auto& m = cfg_.machine;
  const double t_flop = job.total_flops / n / (m.peak_gflops * 1e9);
  const double b_eff =
      gbps_to_bytes_per_sec(effective_bandwidth_gbps(m, opt.remote_access_ratio));
  const double t_mem = job.dram_traffic_bytes / n / b_eff;
  // Latency exposure: the share of remote traffic not covered by prefetch
  // pays the extra remote latency, amortized over line transfers.
  const double extra_lat_s = ns_to_s(m.pool_tier().latency_ns - m.node_tier().latency_ns);
  const double uncovered_lines = job.dram_traffic_bytes / n / 64.0 *
                                 opt.remote_access_ratio *
                                 (1.0 - job.prefetch_coverage);
  const double t_lat = uncovered_lines * extra_lat_s / (m.mlp * m.threads);
  const double t_comm =
      job.comm_seconds_base * std::pow(n / job.base_nodes, job.comm_scaling_exponent) / n;
  opt.est_runtime_s = std::max(t_flop, t_mem) + t_lat + t_comm;
  opt.node_seconds = opt.est_runtime_s * n;
  return opt;
}

std::vector<DeploymentOption> DeploymentPlanner::evaluate(const JobRequirements& job,
                                                          int max_nodes) const {
  expects(max_nodes >= 1, "need at least one node");
  std::vector<DeploymentOption> options;
  options.reserve(static_cast<std::size_t>(max_nodes));
  for (int n = 1; n <= max_nodes; ++n) options.push_back(cost_out(job, n));
  return options;
}

int DeploymentPlanner::min_nodes_local_only(const JobRequirements& job) const {
  return static_cast<int>(std::ceil(job.footprint_bytes /
                                    static_cast<double>(cfg_.local_capacity_bytes)));
}

DeploymentOption DeploymentPlanner::recommend(const JobRequirements& job, int max_nodes,
                                              double max_slowdown) const {
  expects(max_slowdown >= 1.0, "slowdown bound below 1 is unsatisfiable");
  const auto options = evaluate(job, max_nodes);
  double best_runtime = 0.0;
  bool any = false;
  for (const auto& opt : options) {
    if (!opt.feasible) continue;
    if (!any || opt.est_runtime_s < best_runtime) best_runtime = opt.est_runtime_s;
    any = true;
  }
  expects(any, "no feasible deployment within max_nodes");
  const DeploymentOption* pick = nullptr;
  for (const auto& opt : options) {
    if (!opt.feasible || opt.est_runtime_s > best_runtime * max_slowdown) continue;
    if (pick == nullptr || opt.node_seconds < pick->node_seconds) pick = &opt;
  }
  return *pick;
}

}  // namespace memdis::core
