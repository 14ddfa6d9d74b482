#include "core/interference.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"
#include "common/units.h"
#include "memsim/link.h"

namespace memdis::core {

double lbench_offered_traffic_gbps(const memsim::MachineConfig& m, int threads,
                                   std::uint32_t nflop) {
  expects(threads >= 1, "need at least one thread");
  expects(nflop >= 1, "nflop must be >= 1");
  // Per element: 8B load + 8B store of pool data, nflop dependent flops.
  const double flop_rate = kLbenchFlopRatePerThreadGflops * 1e9 * threads;
  const double elements_per_s_flop_bound = flop_rate / nflop;
  const double data_bytes_per_element = 16.0;
  const double data_gbps =
      bytes_per_sec_to_gbps(elements_per_s_flop_bound * data_bytes_per_element);
  return data_gbps * m.pool_link().protocol_overhead;
}

double lbench_offered_utilization(const memsim::MachineConfig& m, int threads,
                                  std::uint32_t nflop) {
  return lbench_offered_traffic_gbps(m, threads, nflop) / m.pool_link().traffic_capacity_gbps;
}

LbenchCalibration::LbenchCalibration(const memsim::MachineConfig& machine, int threads)
    : machine_(machine), threads_(threads) {
  for (std::uint32_t nflop : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 48u, 64u, 96u, 128u,
                              192u, 256u, 384u, 512u}) {
    LoiCalibrationPoint p;
    p.nflop = nflop;
    const double offered = lbench_offered_traffic_gbps(machine, threads, nflop);
    p.offered_loi = 100.0 * offered / machine.pool_link().traffic_capacity_gbps;
    p.measured_loi = std::min(p.offered_loi, 100.0);
    points_.push_back(p);
  }
}

std::uint32_t LbenchCalibration::nflop_for_loi(double target_loi) const {
  expects(target_loi > 0.0, "target LoI must be positive");
  // offered_loi is monotonically decreasing in nflop; offered ∝ 1/nflop, so
  // solve directly and clamp to a valid intensity.
  const double base = points_.front().offered_loi;  // nflop = 1
  const double exact = base / target_loi;
  return static_cast<std::uint32_t>(std::max(1.0, std::round(exact)));
}

double LbenchCalibration::loi_for_nflop(std::uint32_t nflop) const {
  return 100.0 * lbench_offered_utilization(machine_, threads_, nflop);
}

double interference_coefficient_at(const memsim::MachineConfig& m,
                                   double offered_utilization) {
  return interference_coefficient_at(m, m.topology.first_fabric(), offered_utilization);
}

double interference_coefficient_at(const memsim::MachineConfig& m, memsim::TierId t,
                                   double offered_utilization) {
  expects(offered_utilization >= 0.0, "offered utilization cannot be negative");
  expects(m.topology.valid_tier(t) && m.topology.is_fabric(t),
          "interference coefficient needs a fabric tier");
  memsim::LinkModel link(m.tier(t));
  link.set_background_loi(std::min(offered_utilization * 100.0, 2000.0));
  // The 1-thread 1-flop probe is latency-bound on the pool link: its runtime
  // scales with the effective access latency, so IC equals the queue-delay
  // multiplier (its own traffic contribution is negligible).
  return link.latency_multiplier(0.0);
}

double interference_coefficient_at(const memsim::MachineConfig& m, memsim::TierId t,
                                   const memsim::LoiWaveform& wave, std::uint64_t epoch) {
  return interference_coefficient_at(m, t, wave.value_at(epoch) / 100.0);
}

InducedInterference induced_interference(const RunOutput& run,
                                         const memsim::MachineConfig& m) {
  InducedInterference out;
  double weighted = 0.0;
  double total_time = 0.0;
  bool first = true;
  for (const auto& phase : run.phases) {
    if (phase.time_s <= 0) continue;
    const double remote_gbps = bytes_per_sec_to_gbps(
        static_cast<double>(phase.counters.fabric_dram_bytes()) / phase.time_s);
    const double offered =
        remote_gbps * m.pool_link().protocol_overhead / m.pool_link().traffic_capacity_gbps;
    const double ic = interference_coefficient_at(m, offered);
    weighted += ic * phase.time_s;
    total_time += phase.time_s;
    out.ic_min = first ? ic : std::min(out.ic_min, ic);
    out.ic_max = first ? ic : std::max(out.ic_max, ic);
    first = false;
  }
  out.ic_mean = total_time > 0 ? weighted / total_time : 1.0;
  return out;
}

namespace {
double measured_duration(const RunOutput& run, const std::string& phase_tag) {
  if (phase_tag.empty()) return run.elapsed_s;
  double t = 0.0;
  for (const auto& phase : run.phases)
    if (phase.tag == phase_tag) t += phase.time_s;
  return t;
}
}  // namespace

std::vector<SensitivityPoint> sensitivity_sweep(workloads::Workload& workload,
                                                const RunConfig& baseline_cfg,
                                                const RunOutput& baseline,
                                                const std::vector<double>& lois,
                                                const std::string& phase_tag) {
  expects(!lois.empty(), "need at least one LoI level");
  expects(baseline_cfg.background_loi == 0.0, "baseline runs without background LoI");
  const double t_base = measured_duration(baseline, phase_tag);
  expects(t_base > 0, "baseline run has zero duration");
  std::vector<SensitivityPoint> curve;
  RunConfig cfg = baseline_cfg;
  for (const double loi : lois) {
    if (loi == 0.0) {
      curve.push_back({0.0, 1.0});
      continue;
    }
    cfg.background_loi = loi;
    const double t = measured_duration(run_workload(workload, cfg), phase_tag);
    curve.push_back({loi, t_base / t});
  }
  return curve;
}

double interpolate_sensitivity(const std::vector<SensitivityPoint>& curve, double loi) {
  expects(!curve.empty(), "empty sensitivity curve");
  if (loi <= curve.front().loi) return curve.front().relative_performance;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (loi <= curve[i].loi) {
      const double span = curve[i].loi - curve[i - 1].loi;
      const double f = span > 0 ? (loi - curve[i - 1].loi) / span : 1.0;
      return curve[i - 1].relative_performance * (1.0 - f) +
             curve[i].relative_performance * f;
    }
  }
  return curve.back().relative_performance;
}

}  // namespace memdis::core
