#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <ostream>

#include "common/artifact_format.h"
#include "common/contract.h"
#include "common/csv.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "core/interference.h"
#include "fleet/arrival.h"
#include "memsim/queue_model.h"

namespace memdis::fleet {

namespace {

using memsim::QueueModel;
using memsim::TrafficClass;

/// Seed-stream split for the per-job runtime jitter: a fixed function of
/// the job's arrival-index seed alone, so jitter is identical whether the
/// arrival came from a Poisson draw or a trace row (which consume
/// different numbers of draws from the primary stream).
constexpr std::uint64_t kJitterStream = 0xf1ee7f1ee7f1ee77ULL;

double jittered_work_s(const JobClass& cls, std::uint64_t seed, double jitter) {
  if (jitter <= 0.0) return cls.profile.base_runtime_s;
  Xoshiro256 rng(SplitMix64(seed ^ kJitterStream).next());
  return cls.profile.base_runtime_s * (1.0 - jitter + 2.0 * jitter * rng.uniform());
}

/// LoI (%) that `data_gbps` of co-runner demand traffic adds on a link —
/// the expression QueueModel uses for the bulk class: data rate, protocol
/// overhead applied, as % of the link's traffic capacity.
double demand_loi_of(const memsim::FabricLinkSpec& link, double data_gbps) {
  return 100.0 * link.protocol_overhead * data_gbps / link.traffic_capacity_gbps;
}

/// Mutable state of one pool during a run.
struct PoolState {
  PoolSpec spec;
  QueueModel queue;
  std::size_t free_nodes = 0;
  double free_gb = 0.0;
  // Previous step's totals — the frozen snapshot per-job evaluation reads.
  double demand_rate_prev = 0.0;  ///< Σ offered_gbps · speed over resident jobs
  double loi_prev = 0.0;          ///< bystander demand LoI (admission/migration)
  // This step's accumulators (rebuilt serially every step).
  double demand_bytes = 0.0;
  double bulk_bytes = 0.0;
  // Time integrals for PoolStats.
  double used_gb_dt = 0.0;
  double loi_dt = 0.0;
  double stranded_gb_dt = 0.0;
  double peak_used_gb = 0.0;

  explicit PoolState(const PoolSpec& s)
      : spec(s),
        queue(memsim::MemoryTierSpec{
            "pool", static_cast<std::uint64_t>(s.capacity_gb * GB),
            s.link.data_bandwidth_gbps(), 0.0, s.link, memsim::kNodeTier}),
        free_nodes(s.nodes),
        free_gb(s.capacity_gb) {}

  [[nodiscard]] double used_gb() const { return spec.capacity_gb - free_gb; }
};

struct RunningJob {
  std::size_t record = 0;  ///< index into FleetResult::jobs (== arrival index)
  std::size_t cls = 0;
  int pool = -1;
  double work_done_s = 0.0;
  double work_s = 0.0;
  double speed_prev = 1.0;  ///< previous step's speed (first step: full speed)
  bool paused = false;      ///< migrating this step (stop-and-copy)
};

}  // namespace

std::vector<JobClass> default_job_classes() {
  // Three synthetic Level-3 shapes spanning the paper's Fig. 10 spread:
  // a link-sensitive solver, a moderate analytics job, and a short
  // bulk-heavy ETL job. Curves are monotone in LoI and extend to the
  // LinkModel clamp (2000%) so heavily shared pools stay well-defined.
  std::vector<JobClass> classes(3);

  classes[0].profile.app = "hpc-solver";
  classes[0].profile.base_runtime_s = 180.0;
  classes[0].profile.offered_gbps = 22.0;
  classes[0].profile.sensitivity = {{0, 1.0},    {25, 0.92},  {50, 0.80},  {100, 0.62},
                                    {200, 0.45}, {400, 0.30}, {800, 0.22}, {2000, 0.15}};
  classes[0].bulk_gbps = 0.0;
  classes[0].pool_demand_gb = 96.0;
  classes[0].nodes = 4;
  classes[0].weight = 1.0;

  classes[1].profile.app = "analytics";
  classes[1].profile.base_runtime_s = 75.0;
  classes[1].profile.offered_gbps = 9.0;
  classes[1].profile.sensitivity = {{0, 1.0},    {50, 0.95},  {100, 0.88}, {200, 0.76},
                                    {400, 0.62}, {800, 0.50}, {2000, 0.42}};
  classes[1].bulk_gbps = 1.0;
  classes[1].pool_demand_gb = 48.0;
  classes[1].nodes = 2;
  classes[1].weight = 2.0;

  classes[2].profile.app = "etl-burst";
  classes[2].profile.base_runtime_s = 30.0;
  classes[2].profile.offered_gbps = 4.0;
  classes[2].profile.sensitivity = {
      {0, 1.0}, {100, 0.97}, {400, 0.90}, {1000, 0.82}, {2000, 0.75}};
  classes[2].bulk_gbps = 6.0;
  classes[2].pool_demand_gb = 24.0;
  classes[2].nodes = 1;
  classes[2].weight = 3.0;

  return classes;
}

std::vector<PoolSpec> default_pools(std::size_t pools) {
  expects(pools >= 1, "a fleet needs at least one pool");
  return std::vector<PoolSpec>(pools, PoolSpec{});
}

std::size_t first_unreachable_arrival(const std::vector<Arrival>& arrivals, double step_s) {
  const double limit = std::ldexp(step_s, 52);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    if (!(arrivals[i].time_s < limit)) return i;
  return arrivals.size();
}

FleetResult run_fleet(const FleetConfig& cfg, const std::vector<JobClass>& classes,
                      const std::vector<Arrival>& arrivals, unsigned threads) {
  expects(!cfg.pools.empty(), "fleet has no pools");
  expects(!classes.empty(), "fleet has no job classes");
  expects(cfg.step_s > 0.0, "fleet step must be positive");
  for (const auto& cls : classes) {
    expects(cls.profile.base_runtime_s > 0.0, "job class base runtime must be positive");
    expects(!cls.profile.sensitivity.empty(), "job class needs a sensitivity curve");
    expects(cls.nodes >= 1, "job class must occupy at least one node");
    expects(cls.pool_demand_gb >= 0.0, "job class pool demand cannot be negative");
  }
  for (const auto& a : arrivals)
    expects(a.job_class < classes.size(), "arrival names an unknown job class");
  expects(first_unreachable_arrival(arrivals, cfg.step_s) == arrivals.size(),
          "arrival at or beyond 2^52 fleet steps: the clock cannot reach it");

  std::vector<PoolState> pools;
  pools.reserve(cfg.pools.size());
  for (const auto& spec : cfg.pools) pools.emplace_back(spec);

  FleetResult result;
  result.jobs.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    auto& rec = result.jobs[i];
    rec.index = i;
    rec.job_class = classes[arrivals[i].job_class].profile.app;
    rec.seed = arrivals[i].seed;
    rec.arrival_s = arrivals[i].time_s;
    rec.work_s = jittered_work_s(classes[arrivals[i].job_class], arrivals[i].seed,
                                 cfg.runtime_jitter);
  }

  const auto fits_somewhere = [&](const JobClass& cls) {
    for (const auto& p : pools)
      if (p.spec.nodes >= cls.nodes && p.spec.capacity_gb >= cls.pool_demand_gb) return true;
    return false;
  };
  const auto feasible = [&](const JobClass& cls, const PoolState& p) {
    return p.free_nodes >= cls.nodes && p.free_gb >= cls.pool_demand_gb;
  };

  std::vector<RunningJob> running;
  std::deque<std::size_t> pending;  // arrival indices, FIFO
  std::size_t next_arrival = 0;
  double now = 0.0;

  const auto place = [&](std::size_t ai, int pool_idx) {
    const Arrival& a = arrivals[ai];
    const JobClass& cls = classes[a.job_class];
    PoolState& p = pools[static_cast<std::size_t>(pool_idx)];
    p.free_nodes -= cls.nodes;
    p.free_gb -= cls.pool_demand_gb;
    ensures(p.free_gb >= -1e-9, "admission oversubscribed a pool's capacity");
    p.peak_used_gb = std::max(p.peak_used_gb, p.used_gb());
    auto& rec = result.jobs[ai];
    rec.start_s = now;
    rec.pool = pool_idx;
    RunningJob rj;
    rj.record = ai;
    rj.cls = a.job_class;
    rj.pool = pool_idx;
    rj.work_s = rec.work_s;
    running.push_back(rj);
  };

  /// Picks a pool for `cls` under the admission policy; -1 if none fits now.
  const auto choose_pool = [&](const JobClass& cls) -> int {
    int chosen = -1;
    if (cfg.policy == AdmissionPolicy::kFirstFit) {
      for (std::size_t p = 0; p < pools.size(); ++p)
        if (feasible(cls, pools[p])) return static_cast<int>(p);
      return -1;
    }
    // LoI-aware: the feasible pool minimizing the demand LoI the newcomer
    // would raise it to (previous step's rate + the job's full-speed offer).
    double best = std::numeric_limits<double>::max();
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (!feasible(cls, pools[p])) continue;
      const double after = pools[p].loi_prev +
                           demand_loi_of(pools[p].spec.link, cls.profile.offered_gbps);
      if (after < best) {
        best = after;
        chosen = static_cast<int>(p);
      }
    }
    return chosen;
  };

  const auto drain_pending = [&] {
    // FIFO: the head blocks later arrivals wanting the same resources, so
    // both policies admit jobs in arrival order and stay comparable.
    while (!pending.empty()) {
      const int pool_idx = choose_pool(classes[arrivals[pending.front()].job_class]);
      if (pool_idx < 0) break;
      place(pending.front(), pool_idx);
      pending.pop_front();
    }
  };

  // Per-step scratch, reused so a step allocates nothing once warm.
  std::vector<double> bulk_cross(pools.size());
  std::vector<double> speeds;
  std::vector<std::size_t> done;

  while (next_arrival < arrivals.size() || !running.empty() || !pending.empty()) {
    const double dt = cfg.step_s;

    // -- 1a. arrivals up to `now`: admit, queue, or reject (serial) ----------
    // Admission happens at the top of the step, before any work accrues in
    // [now, now+dt], so start_s >= arrival_s and slowdown >= 1 by
    // construction (a job never earns progress for time before it started).
    while (next_arrival < arrivals.size() && arrivals[next_arrival].time_s <= now) {
      const std::size_t ai = next_arrival++;
      const JobClass& cls = classes[arrivals[ai].job_class];
      if (!fits_somewhere(cls) || pending.size() >= cfg.queue_limit) {
        result.jobs[ai].rejected = true;
        ++result.rejected;
        continue;
      }
      pending.push_back(ai);
    }
    drain_pending();

    // -- 1b. overload-triggered pool-to-pool migration (serial) --------------
    for (auto& rj : running) rj.paused = false;
    if (cfg.migration && pools.size() > 1) {
      for (std::size_t m = 0; m < cfg.max_migrations_per_step; ++m) {
        // Hottest pool by last step's demand LoI.
        int src = -1;
        double src_loi = cfg.migrate_threshold_loi;
        for (std::size_t p = 0; p < pools.size(); ++p)
          if (pools[p].loi_prev >= src_loi) {
            src_loi = pools[p].loi_prev;
            src = static_cast<int>(p);
          }
        if (src < 0) break;
        // Move the job offering the most traffic (ties: lowest arrival
        // index) to the feasible pool it improves on by the hysteresis gap.
        int victim = -1;
        double victim_offer = 0.0;
        for (std::size_t i = 0; i < running.size(); ++i) {
          const auto& rj = running[i];
          if (rj.pool != src || rj.paused) continue;
          const double offer = classes[rj.cls].profile.offered_gbps;
          if (victim < 0 || offer > victim_offer ||
              (offer == victim_offer && rj.record < running[static_cast<std::size_t>(victim)].record)) {
            victim = static_cast<int>(i);
            victim_offer = offer;
          }
        }
        if (victim < 0) break;
        RunningJob& rj = running[static_cast<std::size_t>(victim)];
        const JobClass& cls = classes[rj.cls];
        int dst = -1;
        double dst_loi = src_loi - cfg.migrate_gain_loi;
        for (std::size_t p = 0; p < pools.size(); ++p) {
          if (static_cast<int>(p) == src || !feasible(cls, pools[p])) continue;
          const double after =
              pools[p].loi_prev + demand_loi_of(pools[p].spec.link, cls.profile.offered_gbps);
          if (after < dst_loi) {
            dst_loi = after;
            dst = static_cast<int>(p);
          }
        }
        if (dst < 0) break;
        // Stop-and-copy: the job pauses this step while its resident set
        // crosses both pool links as bulk traffic — which the queue windows
        // turn into demand-latency inflation for everyone it shares with.
        PoolState& from = pools[static_cast<std::size_t>(src)];
        PoolState& to = pools[static_cast<std::size_t>(dst)];
        from.free_nodes += cls.nodes;
        from.free_gb += cls.pool_demand_gb;
        to.free_nodes -= cls.nodes;
        to.free_gb -= cls.pool_demand_gb;
        ensures(to.free_gb >= -1e-9, "migration oversubscribed a pool's capacity");
        to.peak_used_gb = std::max(to.peak_used_gb, to.used_gb());
        const double bytes = cls.pool_demand_gb * GB;
        from.bulk_bytes += bytes;
        to.bulk_bytes += bytes;
        rj.pool = dst;
        rj.paused = true;
        result.jobs[rj.record].pool = dst;
        ++result.jobs[rj.record].migrations;
        ++result.migrations;
        drain_pending();  // the source pool just freed resources
      }
    }

    // -- 2. freeze the per-pool snapshot from previous-step speeds (serial) --
    for (auto& p : pools) p.demand_rate_prev = 0.0;
    for (const auto& rj : running) {
      const double speed = rj.paused ? 0.0 : rj.speed_prev;
      pools[static_cast<std::size_t>(rj.pool)].demand_rate_prev +=
          classes[rj.cls].profile.offered_gbps * speed;
    }
    // Per-pool bulk cross rate: the QueueModel's windowed estimate — a
    // migration burst inflates every resident job's LoI for one window.
    for (std::size_t p = 0; p < pools.size(); ++p)
      bulk_cross[p] = pools[p].queue.cross_rate_gbps(TrafficClass::kDemand);

    // -- 3. per-job simulation, sharded across the thread pool ---------------
    // Each job reads only the frozen snapshot and writes only its own slot,
    // so any thread count produces bit-identical results (QueueModel::
    // effective_loi is a pure read — it never touches the scratch link).
    speeds.resize(running.size());
    parallel_for(running.size(), threads, [&](std::size_t i) {
      const RunningJob& rj = running[i];
      if (rj.paused) {
        speeds[i] = 0.0;
        return;
      }
      const JobClass& cls = classes[rj.cls];
      const PoolState& p = pools[static_cast<std::size_t>(rj.pool)];
      const double other_demand =
          std::max(p.demand_rate_prev - cls.profile.offered_gbps * rj.speed_prev, 0.0);
      const double background =
          p.spec.background_loi + demand_loi_of(p.spec.link, other_demand);
      const double loi = p.queue.effective_loi(
          TrafficClass::kDemand, background, bulk_cross[static_cast<std::size_t>(rj.pool)]);
      speeds[i] = std::max(core::interpolate_sensitivity(cls.profile.sensitivity, loi), 1e-6);
    });

    // -- 4. advance, retire completions, integrate gauges (serial) -----------
    done.clear();
    for (std::size_t i = 0; i < running.size(); ++i) {
      RunningJob& rj = running[i];
      const double speed = speeds[i];
      const JobClass& cls = classes[rj.cls];
      PoolState& p = pools[static_cast<std::size_t>(rj.pool)];
      double active_dt = dt;
      if (rj.work_done_s + dt * speed >= rj.work_s) {
        active_dt = speed > 0.0 ? (rj.work_s - rj.work_done_s) / speed : dt;
        result.jobs[rj.record].finish_s = now + active_dt;
        done.push_back(i);
      }
      rj.work_done_s += active_dt * speed;
      rj.speed_prev = speed;
      p.demand_bytes += cls.profile.offered_gbps * speed * active_dt * GB;
      p.bulk_bytes += cls.bulk_gbps * speed * active_dt * GB;
    }
    // Retire in ascending arrival order (done is already ascending in i,
    // and running order is insertion order — deterministic either way).
    for (auto it = done.rbegin(); it != done.rend(); ++it) {
      const RunningJob rj = running[*it];
      const JobClass& cls = classes[rj.cls];
      PoolState& p = pools[static_cast<std::size_t>(rj.pool)];
      p.free_nodes += cls.nodes;
      p.free_gb += cls.pool_demand_gb;
      ++result.completed;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    now += dt;

    for (std::size_t pi = 0; pi < pools.size(); ++pi) {
      PoolState& p = pools[pi];
      // Bystander demand LoI: background + all resident demand + bulk window.
      p.loi_prev = p.queue.effective_loi(
          TrafficClass::kDemand,
          p.spec.background_loi + demand_loi_of(p.spec.link, p.demand_rate_prev),
          bulk_cross[pi]);
      p.used_gb_dt += p.used_gb() * dt;
      p.loi_dt += p.loi_prev * dt;
      if (p.free_nodes == 0) p.stranded_gb_dt += p.free_gb * dt;
      // Close the step into the queue windows (zero observations age
      // bursts out, exactly like the engine's epoch close).
      p.queue.observe(TrafficClass::kDemand, p.demand_bytes, dt);
      p.queue.observe(TrafficClass::kBulk, p.bulk_bytes, dt);
      p.demand_bytes = 0.0;
      p.bulk_bytes = 0.0;
    }
  }

  // ---- summary --------------------------------------------------------------
  const double horizon = now > 0.0 ? now : 1.0;
  result.pools.resize(pools.size());
  for (std::size_t p = 0; p < pools.size(); ++p) {
    auto& stats = result.pools[p];
    stats.utilization = pools[p].used_gb_dt / (pools[p].spec.capacity_gb * horizon);
    stats.peak_used_gb = pools[p].peak_used_gb;
    stats.mean_demand_loi = pools[p].loi_dt / horizon;
    stats.stranded_gb = pools[p].stranded_gb_dt / horizon;
    result.mean_utilization += stats.utilization;
    result.stranded_gb += stats.stranded_gb;
  }
  result.mean_utilization /= static_cast<double>(pools.size());

  std::vector<double> slowdowns, waits;
  for (const auto& rec : result.jobs) {
    if (rec.rejected) continue;
    result.makespan_s = std::max(result.makespan_s, rec.finish_s);
    slowdowns.push_back(rec.slowdown());
    waits.push_back(rec.wait_s());
  }
  if (!slowdowns.empty()) {
    // Tail metrics: sort each vector once, take both quantiles from it.
    std::sort(slowdowns.begin(), slowdowns.end());
    std::sort(waits.begin(), waits.end());
    result.p50_slowdown = percentile_sorted(slowdowns, 0.50);
    result.p99_slowdown = percentile_sorted(slowdowns, 0.99);
    result.p50_wait_s = percentile_sorted(waits, 0.50);
    result.p99_wait_s = percentile_sorted(waits, 0.99);
  }
  return result;
}

void FleetResult::write_csv(std::ostream& os) const {
  std::string buf;
  buf.reserve(kArtifactChunkBytes + 1024);
  buf += "index,class,seed,arrival_s,start_s,finish_s,pool,migrations,work_s,wait_s,slowdown,"
         "status\n";
  for (const auto& rec : jobs) {
    append_int(buf, rec.index);
    buf += ',';
    append_csv_field(buf, rec.job_class);
    buf += ',';
    append_int(buf, rec.seed);
    buf += ',';
    append_double(buf, rec.arrival_s);
    if (rec.rejected) {
      buf += ",,,,0,";
      append_double(buf, rec.work_s);
      buf += ",,,rejected\n";
    } else {
      buf += ',';
      append_double(buf, rec.start_s);
      buf += ',';
      append_double(buf, rec.finish_s);
      buf += ',';
      append_int(buf, rec.pool);
      buf += ',';
      append_int(buf, rec.migrations);
      buf += ',';
      append_double(buf, rec.work_s);
      buf += ',';
      append_double(buf, rec.wait_s());
      buf += ',';
      append_double(buf, rec.slowdown());
      buf += ",done\n";
    }
    flush_artifact_chunk(os, buf);
  }
  flush_artifact_chunk(os, buf, 0);
}

void FleetResult::write_csv_file(const std::string& path) const {
  write_artifact_file(path, [this](std::ostream& os) { write_csv(os); });
}

void FleetResult::write_json(std::ostream& os) const {
  std::string buf;
  buf.reserve(kArtifactChunkBytes + 1024);
  const auto field = [&buf](const char* name, double v) {
    buf += name;
    append_double(buf, v);
  };
  buf += "{\n  \"fleet\": {\"jobs\": ";
  append_int(buf, jobs.size());
  buf += ", \"completed\": ";
  append_int(buf, completed);
  buf += ", \"rejected\": ";
  append_int(buf, rejected);
  buf += ", \"migrations\": ";
  append_int(buf, migrations);
  field(", \"makespan_s\": ", makespan_s);
  field(", \"p50_slowdown\": ", p50_slowdown);
  field(", \"p99_slowdown\": ", p99_slowdown);
  field(", \"p50_wait_s\": ", p50_wait_s);
  field(", \"p99_wait_s\": ", p99_wait_s);
  field(", \"mean_utilization\": ", mean_utilization);
  field(", \"stranded_gb\": ", stranded_gb);
  buf += "},\n  \"pools\": [\n";
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const auto& stats = pools[p];
    buf += "    {\"pool\": ";
    append_int(buf, p);
    field(", \"utilization\": ", stats.utilization);
    field(", \"peak_used_gb\": ", stats.peak_used_gb);
    field(", \"mean_demand_loi\": ", stats.mean_demand_loi);
    field(", \"stranded_gb\": ", stats.stranded_gb);
    buf += p + 1 < pools.size() ? "},\n" : "}\n";
  }
  buf += "  ],\n  \"jobs_detail\": [\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& rec = jobs[i];
    buf += "    {\"index\": ";
    append_int(buf, rec.index);
    buf += ", \"class\": \"";
    append_json_escaped(buf, rec.job_class);
    buf += "\", \"seed\": ";
    append_int(buf, rec.seed);
    field(", \"arrival_s\": ", rec.arrival_s);
    if (rec.rejected) {
      buf += ", \"status\": \"rejected\"";
    } else {
      field(", \"start_s\": ", rec.start_s);
      field(", \"finish_s\": ", rec.finish_s);
      buf += ", \"pool\": ";
      append_int(buf, rec.pool);
      buf += ", \"migrations\": ";
      append_int(buf, rec.migrations);
      field(", \"slowdown\": ", rec.slowdown());
      buf += ", \"status\": \"done\"";
    }
    buf += i + 1 < jobs.size() ? "},\n" : "}\n";
    flush_artifact_chunk(os, buf);
  }
  buf += "  ]\n}\n";
  flush_artifact_chunk(os, buf, 0);
}

void FleetResult::write_json_file(const std::string& path) const {
  write_artifact_file(path, [this](std::ostream& os) { write_json(os); });
}

}  // namespace memdis::fleet
