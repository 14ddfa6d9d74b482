// MultiLevelProfiler: the paper's three-level, top-down methodology
// (Sec. 3) as a programmatic API.
//
//   Level 1 — intrinsic requirements: arithmetic intensity, capacity and
//             bandwidth usage, bandwidth–capacity scaling curve, prefetch
//             accuracy and coverage, all from one prefetch-on run. Excess
//             traffic and gain need its prefetch-off twin (`prefetch`).
//   Level 2 — multi-tier behaviour: per-phase remote access ratios against
//             the R_cap / R_bw reference points.
//   Level 3 — pooling behaviour: interference sensitivity curve and the
//             induced interference coefficient.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/interference.h"
#include "core/prefetch_analysis.h"
#include "core/scaling_curve.h"

namespace memdis::core {

/// Per-phase Level-1 measurements (drives Fig. 5's roofline dots).
struct PhaseCharacteristics {
  std::string tag;
  double time_s = 0.0;
  double weight = 0.0;  ///< fraction of total runtime
  double arithmetic_intensity = 0.0;
  double gflops_rate = 0.0;
  double dram_gbps = 0.0;
};

struct Level1Profile {
  double arithmetic_intensity = 0.0;
  double mean_dram_gbps = 0.0;
  std::vector<PhaseCharacteristics> phases;
  ScalingCurve scaling_curve;
  RunOutput run;  ///< the prefetch-on run (result, time, footprint, timeline)
};

/// The prefetch step's outcome (Fig. 7/8): Eq. 1–2 plus excess traffic and
/// gain against the prefetch-off twin, and the twin itself.
struct PrefetchProfile {
  PrefetchMetrics metrics;
  RunOutput off;  ///< the prefetch-off run (Fig. 7's second timeline)
};

/// Per-phase Level-2 measurements (drives Fig. 9).
struct PhaseTierAccess {
  std::string tag;
  double weight = 0.0;
  double remote_access_ratio = 0.0;
  double arithmetic_intensity = 0.0;
};

struct Level2Profile {
  double remote_capacity_ratio_configured = 0.0;  ///< experiment setpoint
  double remote_capacity_ratio_measured = 0.0;    ///< from numa snapshot
  double remote_bandwidth_ratio = 0.0;            ///< machine R_bw reference
  double remote_access_ratio_total = 0.0;
  std::vector<PhaseTierAccess> phases;
  RunOutput run;  ///< full capture for downstream analyses
};

struct Level3Profile {
  std::vector<SensitivityPoint> sensitivity;  ///< vs background LoI
  InducedInterference induced;
  RunOutput baseline;  ///< the LoI-0 run both of the above derive from
};

/// Orchestrates the three levels. Stateless apart from configuration; each
/// call runs the workload the required number of times.
class MultiLevelProfiler {
 public:
  explicit MultiLevelProfiler(RunConfig base = {}) : base_(std::move(base)) {}

  /// Level 1: one prefetch-on run on node-local memory only.
  [[nodiscard]] Level1Profile level1(workloads::Workload& workload) const;

  /// The prefetch-off twin of `l1.run` (the MSR 0x1a4 toggle): one run of
  /// the workload `l1` profiled, same node-local config, prefetcher off.
  [[nodiscard]] PrefetchProfile prefetch(workloads::Workload& workload,
                                         const Level1Profile& l1) const;

  /// Level 2: one run with the local tier shrunk to force the requested
  /// remote capacity ratio (e.g. 0.25 / 0.5 / 0.75 as in Fig. 9).
  [[nodiscard]] Level2Profile level2(workloads::Workload& workload,
                                     double remote_capacity_ratio) const;

  /// Level 3: baseline + one run per non-zero LoI level (Fig. 10), plus the
  /// induced interference coefficient from that baseline run (Fig. 11 right).
  [[nodiscard]] Level3Profile level3(workloads::Workload& workload,
                                     double remote_capacity_ratio,
                                     const std::vector<double>& lois = {0, 10, 20, 30, 40,
                                                                        50}) const;

  [[nodiscard]] const RunConfig& base_config() const { return base_; }

 private:
  RunConfig base_;
};

}  // namespace memdis::core
