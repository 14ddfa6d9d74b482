#include "sched/colocation.h"

#include <algorithm>

#include "common/contract.h"
#include "common/rng.h"
#include "memsim/link.h"

namespace memdis::sched {

namespace {

/// Advances `work_s` idle-system seconds of work through fixed intervals
/// run at `speed_at(i)` (the relative speed of interval i, called once per
/// interval in order) and returns the wall time; the last interval ends at
/// the exact finish.
template <typename SpeedAt>
double run_intervals(double work_s, double interval_s, SpeedAt&& speed_at) {
  double wall = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const double speed = speed_at(i);
    const double interval_work = interval_s * speed;
    if (interval_work >= work_s) return wall + work_s / speed;
    wall += interval_s;
    work_s -= interval_work;
  }
}

}  // namespace

double simulate_run(const JobProfile& job, double max_loi, double reroll_interval_s,
                    std::uint64_t seed) {
  expects(job.base_runtime_s > 0, "job needs a positive idle runtime");
  expects(!job.sensitivity.empty(), "job needs a sensitivity curve");
  expects(reroll_interval_s > 0, "interval must be positive");
  Xoshiro256 rng(seed);
  return run_intervals(job.base_runtime_s, reroll_interval_s, [&](std::uint64_t) {
    return core::interpolate_sensitivity(job.sensitivity, rng.uniform(0.0, max_loi));
  });
}

double simulate_run_per_link(const JobProfile& job,
                             const std::vector<double>& max_loi_per_link,
                             double reroll_interval_s, std::uint64_t seed) {
  expects(job.base_runtime_s > 0, "job needs a positive idle runtime");
  expects(!job.link_sensitivity.empty(), "job needs per-link sensitivity curves");
  expects(reroll_interval_s > 0, "interval must be positive");
  Xoshiro256 rng(seed);
  return run_intervals(job.base_runtime_s, reroll_interval_s, [&](std::uint64_t) {
    double speed = 1.0;
    for (std::size_t t = 0; t < job.link_sensitivity.size(); ++t) {
      const double max_loi = t < max_loi_per_link.size() ? max_loi_per_link[t] : 0.0;
      // Draw every link each interval (even insensitive ones) so the RNG
      // stream is independent of which curves a profile happens to carry.
      const double loi = rng.uniform(0.0, max_loi);
      if (job.link_sensitivity[t].empty()) continue;
      speed *= core::interpolate_sensitivity(job.link_sensitivity[t], loi);
    }
    return speed;
  });
}

double simulate_run_scheduled(const JobProfile& job, const memsim::LoiSchedule& schedule,
                              double reroll_interval_s) {
  expects(job.base_runtime_s > 0, "job needs a positive idle runtime");
  expects(!job.link_sensitivity.empty(), "job needs per-link sensitivity curves");
  expects(reroll_interval_s > 0, "interval must be positive");
  return run_intervals(job.base_runtime_s, reroll_interval_s, [&](std::uint64_t interval) {
    double speed = 1.0;
    for (std::size_t t = 0; t < job.link_sensitivity.size(); ++t) {
      if (job.link_sensitivity[t].empty()) continue;
      const double loi = schedule.value_at(static_cast<memsim::TierId>(t), interval);
      speed *= core::interpolate_sensitivity(job.link_sensitivity[t], loi);
    }
    return speed;
  });
}

SharedQueuePair simulate_pair_shared_queue(const JobProfile& a, const JobProfile& b,
                                           const memsim::FabricLinkSpec& link,
                                           double background_loi, double interval_s) {
  expects(a.base_runtime_s > 0 && b.base_runtime_s > 0,
          "jobs need positive idle runtimes");
  expects(!a.sensitivity.empty() && !b.sensitivity.empty(),
          "jobs need sensitivity curves");
  expects(a.offered_gbps >= 0 && b.offered_gbps >= 0,
          "offered traffic cannot be negative");
  expects(interval_s > 0, "interval must be positive");

  // LoI a job experiences when its co-runner offers traffic at `speed`
  // times full rate — background plus the co-runner's link traffic as % of
  // capacity, the QueueModel::effective_loi formula at the job granularity.
  const auto produced_loi = [&](const JobProfile& other, double other_speed) {
    const double traffic = other.offered_gbps * other_speed * link.protocol_overhead;
    return std::min(background_loi + 100.0 * traffic / link.traffic_capacity_gbps,
                    memsim::LinkModel::kMaxLoi);
  };

  SharedQueuePair out;
  const double a_solo_speed = core::interpolate_sensitivity(a.sensitivity, background_loi);
  const double b_solo_speed = core::interpolate_sensitivity(b.sensitivity, background_loi);
  expects(a_solo_speed > 0 && b_solo_speed > 0, "sensitivity curve reaches zero speed");
  out.a_solo_s = a.base_runtime_s / a_solo_speed;
  out.b_solo_s = b.base_runtime_s / b_solo_speed;

  double work_a = a.base_runtime_s;  // in idle-system seconds
  double work_b = b.base_runtime_s;
  double wall = 0.0;
  while (work_a > 0 && work_b > 0) {
    // Per-interval fixed point over the speed pair: each job's speed sets
    // the traffic the other sees. The map is a monotone contraction on
    // [0,1]^2, so a fixed small iteration count converges deterministically.
    double speed_a = 1.0;
    double speed_b = 1.0;
    for (int i = 0; i < 16; ++i) {
      const double next_a =
          core::interpolate_sensitivity(a.sensitivity, produced_loi(b, speed_b));
      const double next_b =
          core::interpolate_sensitivity(b.sensitivity, produced_loi(a, speed_a));
      speed_a = next_a;
      speed_b = next_b;
    }
    expects(speed_a > 0 && speed_b > 0, "sensitivity curve reaches zero speed");
    const double t_a = work_a / speed_a;  // time to finish at this speed
    const double t_b = work_b / speed_b;
    const double dt = std::min({interval_s, t_a, t_b});
    wall += dt;
    // Exact-finish bookkeeping avoids an ulp of leftover work re-running
    // a whole extra interval.
    work_a = t_a <= dt ? 0.0 : work_a - dt * speed_a;
    work_b = t_b <= dt ? 0.0 : work_b - dt * speed_b;
    if (work_a == 0.0) out.a_wall_s = wall;
    if (work_b == 0.0) out.b_wall_s = wall;
  }
  // The survivor has the link to itself (background interference only).
  if (work_a > 0) out.a_wall_s = wall + work_a / a_solo_speed;
  if (work_b > 0) out.b_wall_s = wall + work_b / b_solo_speed;
  out.a_slowdown = out.a_wall_s / out.a_solo_s;
  out.b_slowdown = out.b_wall_s / out.b_solo_s;
  return out;
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
