// Level-3 interference quantification (Sec. 3.2 and Sec. 6).
//
// Three instruments:
//  * LbenchCalibration — maps LBench's flops-per-element knob to the
//    generated Level-of-Interference (% of peak link traffic), by running
//    the simulated kernel and measuring link traffic (Fig. 11 left/middle).
//  * interference_coefficient_at — the IC of a given offered link load:
//    the relative runtime of a 1-thread, 1-flop LBench probe, which is
//    latency-bound and therefore tracks the link's queue-delay multiplier.
//  * SensitivityStudy / InterferenceQuantifier helpers — an application's
//    relative performance under swept background LoI (Fig. 10) and the IC
//    it induces on co-runners (Fig. 11 right).
#pragma once

#include <vector>

#include "core/experiment.h"
#include "memsim/loi_schedule.h"
#include "memsim/machine.h"
#include "workloads/workload.h"

namespace memdis::core {

/// The paper's LBench kernel is a serially dependent FMA chain, so its flop
/// rate is latency-limited well below machine peak; 2 Gflop/s per thread
/// reproduces the testbed's saturation point (traffic saturates for
/// intensities below ~8 flops/element, Fig. 11 middle).
inline constexpr double kLbenchFlopRatePerThreadGflops = 2.0;

/// Link traffic (GB/s, protocol overhead included) that an LBench instance
/// with `threads` threads and `nflop` flops/element *offers* — unconstrained
/// by the link itself, so it can exceed capacity (queueing territory).
[[nodiscard]] double lbench_offered_traffic_gbps(const memsim::MachineConfig& m, int threads,
                                                 std::uint32_t nflop);

/// Offered utilization (traffic / capacity; may exceed 1).
[[nodiscard]] double lbench_offered_utilization(const memsim::MachineConfig& m, int threads,
                                                std::uint32_t nflop);

/// One calibration sample.
struct LoiCalibrationPoint {
  std::uint32_t nflop = 1;
  double offered_loi = 0.0;   ///< offered traffic as % of capacity (uncapped)
  double measured_loi = 0.0;  ///< PCM-style measured traffic as % (≤ 100)
};

/// Calibration table built by sweeping nflop (Fig. 11 left validates that
/// measured LoI is linear in the configured intensity).
class LbenchCalibration {
 public:
  LbenchCalibration(const memsim::MachineConfig& machine, int threads);

  /// The nflop value whose offered traffic best matches `target_loi` (%).
  [[nodiscard]] std::uint32_t nflop_for_loi(double target_loi) const;

  /// Offered LoI (%) produced by a given nflop.
  [[nodiscard]] double loi_for_nflop(std::uint32_t nflop) const;

  [[nodiscard]] const std::vector<LoiCalibrationPoint>& points() const { return points_; }

 private:
  memsim::MachineConfig machine_;
  int threads_;
  std::vector<LoiCalibrationPoint> points_;
};

/// Interference coefficient at a given *offered* background utilization
/// (1.0 = link fully subscribed). IC = T_probe(load) / T_probe(idle); the
/// probe is latency-bound so this equals the link queue-delay multiplier.
[[nodiscard]] double interference_coefficient_at(const memsim::MachineConfig& m,
                                                 double offered_utilization);

/// Per-link variant: the IC a probe bound to tier `t` sees when that tier's
/// link carries the given offered background utilization. Lets asymmetric
/// studies quantify each pool independently (contract violation for local
/// tiers — they have no link to interfere on).
[[nodiscard]] double interference_coefficient_at(const memsim::MachineConfig& m,
                                                 memsim::TierId t,
                                                 double offered_utilization);

/// Time-varying variant: the IC a probe bound to tier `t` sees at epoch
/// `epoch` of a background-LoI waveform (the waveform's percentage is the
/// offered background utilization). Quantifies bursty fabrics epoch by
/// epoch instead of by one static level.
[[nodiscard]] double interference_coefficient_at(const memsim::MachineConfig& m,
                                                 memsim::TierId t,
                                                 const memsim::LoiWaveform& wave,
                                                 std::uint64_t epoch);

/// Per-phase and aggregate IC induced by an application run (Fig. 11 right:
/// the spread over phases is reported as min/max).
struct InducedInterference {
  double ic_mean = 1.0;  ///< time-weighted over phases
  double ic_min = 1.0;
  double ic_max = 1.0;
};
[[nodiscard]] InducedInterference induced_interference(const RunOutput& run,
                                                       const memsim::MachineConfig& m);

/// One point of an application's interference sensitivity curve (Fig. 10).
struct SensitivityPoint {
  double loi = 0.0;                   ///< background LoI (%)
  double relative_performance = 1.0;  ///< T(LoI=0) / T(LoI)
};

/// Sweeps background LoI for `workload` against `baseline`, its run under
/// `baseline_cfg` (background LoI 0): one run per non-zero LoI, each
/// `baseline_cfg` at that LoI; LoI 0 maps to 1.0. When `phase_tag` is
/// non-empty, only that phase's runtime is compared — the paper's Fig. 10
/// reports the main compute phase (p2) of each app.
[[nodiscard]] std::vector<SensitivityPoint> sensitivity_sweep(
    workloads::Workload& workload, const RunConfig& baseline_cfg, const RunOutput& baseline,
    const std::vector<double>& lois, const std::string& phase_tag = {});

/// Linear interpolation over a sensitivity curve (used by the scheduler
/// study to cost jobs under arbitrary interference levels).
[[nodiscard]] double interpolate_sensitivity(const std::vector<SensitivityPoint>& curve,
                                             double loi);

}  // namespace memdis::core
