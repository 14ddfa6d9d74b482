// Interference-aware job co-location study (Sec. 7.2, Fig. 13).
//
// Protocol from the paper: each workload runs on the emulated 50%-pool
// setup while co-runners on the shared pool inject a Level-of-Interference
// that re-rolls uniformly at random every 60 s. The random baseline draws
// LoI from 0–50%; the interference-aware scheduler — which declines to
// co-locate interference-inducing jobs — caps the draw at 0–20%. Each
// configuration is repeated 100 times and summarized with five-number
// statistics.
//
// This is the single-job form of the study: one job against a re-rolled
// background LoI. Rack-scale co-location, where co-runners produce each
// other's interference through a shared pool link's queue, is
// fleet::run_fleet (src/fleet, docs/FLEET.md); fleet::JobClass embeds
// JobProfile verbatim, so both studies price the same job model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/interference.h"

namespace memdis::sched {

/// A job as the scheduler sees it: identity, idle-system runtime, and its
/// Level-3 sensitivity curve.
struct JobProfile {
  std::string app;
  double base_runtime_s = 0.0;  ///< runtime at LoI = 0
  std::vector<core::SensitivityPoint> sensitivity;
  /// Link *data* traffic (GB/s) the job offers onto its shared pool link
  /// when running at full speed — what it injects into co-runners' queue
  /// (fleet::run_fleet). A slowed job offers proportionally less.
  double offered_gbps = 0.0;
};

struct CoLocationConfig {
  std::size_t runs = 100;
  double reroll_interval_s = 60.0;
  double max_loi_baseline = 50.0;  ///< random scheduler: LoI ~ U(0, 50)
  double max_loi_aware = 20.0;     ///< interference-aware: LoI ~ U(0, 20)
  std::uint64_t seed = 1234;
};

/// Simulates one execution under re-rolled background interference and
/// returns the wall time. Progress advances at rel_perf(LoI) of idle speed.
[[nodiscard]] double simulate_run(const JobProfile& job, double max_loi,
                                  double reroll_interval_s, std::uint64_t seed);

/// Outcome of the 100-run experiment for one job and one scheduler.
struct CoLocationOutcome {
  std::vector<double> times_s;
  FiveNumber summary;
  double mean_s = 0.0;
};

/// The Fig. 13 pair: random baseline vs. interference-aware.
struct CoLocationComparison {
  CoLocationOutcome baseline;
  CoLocationOutcome aware;
  double mean_speedup = 0.0;       ///< baseline mean / aware mean − 1
  double p75_reduction = 0.0;      ///< relative drop in 75th percentile
};

[[nodiscard]] CoLocationOutcome run_colocation(const JobProfile& job, double max_loi,
                                               const CoLocationConfig& cfg);

[[nodiscard]] CoLocationComparison compare_schedulers(const JobProfile& job,
                                                      const CoLocationConfig& cfg);

}  // namespace memdis::sched
