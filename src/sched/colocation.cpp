#include "sched/colocation.h"

#include "common/contract.h"
#include "common/rng.h"

namespace memdis::sched {

double simulate_run(const JobProfile& job, double max_loi, double reroll_interval_s,
                    std::uint64_t seed) {
  expects(job.base_runtime_s > 0, "job needs a positive idle runtime");
  expects(!job.sensitivity.empty(), "job needs a sensitivity curve");
  expects(reroll_interval_s > 0, "interval must be positive");
  Xoshiro256 rng(seed);
  // Advance the idle-system work through fixed intervals, each run at the
  // relative speed of a freshly drawn LoI; the last interval ends at the
  // exact finish.
  double work_s = job.base_runtime_s;
  double wall = 0.0;
  for (;;) {
    const double speed =
        core::interpolate_sensitivity(job.sensitivity, rng.uniform(0.0, max_loi));
    const double interval_work = reroll_interval_s * speed;
    if (interval_work >= work_s) return wall + work_s / speed;
    wall += reroll_interval_s;
    work_s -= interval_work;
  }
}

CoLocationOutcome run_colocation(const JobProfile& job, double max_loi,
                                 const CoLocationConfig& cfg) {
  expects(cfg.runs > 0, "need at least one run");
  CoLocationOutcome out;
  out.times_s.reserve(cfg.runs);
  for (std::size_t r = 0; r < cfg.runs; ++r) {
    out.times_s.push_back(
        simulate_run(job, max_loi, cfg.reroll_interval_s, cfg.seed + r * 7919));
  }
  out.summary = five_number_summary(out.times_s);
  out.mean_s = mean_of(out.times_s);
  return out;
}

CoLocationComparison compare_schedulers(const JobProfile& job, const CoLocationConfig& cfg) {
  CoLocationComparison cmp;
  cmp.baseline = run_colocation(job, cfg.max_loi_baseline, cfg);
  cmp.aware = run_colocation(job, cfg.max_loi_aware, cfg);
  cmp.mean_speedup = cmp.baseline.mean_s / cmp.aware.mean_s - 1.0;
  cmp.p75_reduction = 1.0 - cmp.aware.summary.q3 / cmp.baseline.summary.q3;
  return cmp;
}

}  // namespace memdis::sched
