// Fleet-scale rack simulator: an open stream of jobs over shared
// disaggregated pools (the paper's Sec. 7 capacity-planning argument at
// datacenter scale).
//
// This is the repository's one multi-job simulator (`sched/colocation`
// is the single-job Fig. 13 study). It simulates thousands of jobs: a
// deterministic arrival process (fleet/arrival.h) places jobs across
// compute-node groups that each share one disaggregated pool, an
// admission policy decides placement (or queues, or rejects), running
// jobs feed demand and bulk cross-traffic through the pool link's
// two-class `memsim::QueueModel`, and overloaded pools can migrate
// running jobs to quieter ones — the migration burst itself charged as
// bulk traffic into both pool queues.
//
// Model shape: time advances in fixed steps of `step_s`. Each step,
//
//   1. (serial) arrivals are admitted / queued / rejected, and at most
//      `max_migrations_per_step` overload-triggered migrations execute;
//   2. (serial) per-pool demand rates are summed from the previous step's
//      job speeds — the one-step lag that makes each job's speed a pure
//      function of the frozen pool snapshot (the same prior-window rule
//      the engine's queue integration uses, docs/QUEUE_MODEL.md);
//   3. (parallel, shardable) every running job independently evaluates its
//      effective LoI — pool background + co-runners' demand traffic as %
//      of link capacity + the QueueModel's windowed bulk cross-rate — and
//      advances `dt * interpolate_sensitivity(curve, loi)` of work,
//      writing speed and LoI into its own slot;
//   4. (serial) completions retire in index order, resources free, pool
//      gauges integrate, and the step's demand/bulk bytes are observe()d
//      into each pool's queue windows.
//
// Determinism contract: step 3 is the only parallel region and every job
// writes only its own slot, so a run at jobs=N is bit-identical to the
// serial run for any N — the same contract (and the same thread pool) as
// the sweep engine. All randomness is per-job, derived from the arrival
// index (fleet/arrival.h), so results are also independent of arrival
// source interleaving.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "memsim/tier.h"
#include "sched/colocation.h"

namespace memdis::fleet {

struct Arrival;  // fleet/arrival.h

/// One disaggregated pool and the compute nodes attached to it.
struct PoolSpec {
  double capacity_gb = 512.0;     ///< pooled memory behind the link
  std::size_t nodes = 16;         ///< compute nodes sharing this pool
  double background_loi = 0.0;    ///< static interference floor (%)
  memsim::FabricLinkSpec link{};  ///< the shared fabric link (QueueModel)
};

/// A job class: the per-job profile plus the fleet-level resource demand.
/// `profile` is the same Level-3 shape the Fig. 13 co-location study uses
/// (sensitivity curve, offered demand traffic); the fleet prices it against
/// N co-runners without changing the job model.
struct JobClass {
  sched::JobProfile profile;    ///< app name, base runtime, sensitivity, offered_gbps
  double bulk_gbps = 0.0;       ///< steady bulk traffic (checkpoint/spill streams)
  double pool_demand_gb = 0.0;  ///< pooled memory the job pins while running
  std::size_t nodes = 1;        ///< compute nodes the job occupies
  double weight = 1.0;          ///< arrival-mix weight (Poisson class pick)
};

/// Placement policy for admitted jobs.
enum class AdmissionPolicy {
  kFirstFit,  ///< first pool (by index) with free nodes + capacity
  kLoiAware,  ///< feasible pool minimizing the resulting demand LoI
};

struct FleetConfig {
  std::vector<PoolSpec> pools;
  AdmissionPolicy policy = AdmissionPolicy::kLoiAware;
  /// Pending-queue bound: arrivals that find the FIFO full are rejected
  /// (the admission-rejects fleet metric). Jobs whose declared demand can
  /// never fit any pool are rejected immediately.
  std::size_t queue_limit = 64;
  bool migration = true;               ///< pool-to-pool migration of running jobs
  double migrate_threshold_loi = 60.0; ///< source-pool demand LoI that arms migration
  double migrate_gain_loi = 20.0;      ///< required LoI gap to the destination pool
  std::size_t max_migrations_per_step = 1;
  double step_s = 1.0;     ///< fleet timestep (s)
  std::uint64_t base_seed = 42;
  /// Per-job runtime jitter: work_s = base_runtime_s * U(1-jitter, 1+jitter)
  /// drawn from the job's own arrival-index seed. 0 disables.
  double runtime_jitter = 0.05;
};

/// Per-job outcome. Exactly one of {rejected, completed} holds at the end
/// of a run (the simulator drains every admitted job).
struct FleetJobRecord {
  std::size_t index = 0;      ///< arrival index (stable row order)
  std::string job_class;      ///< class name (profile.app)
  std::uint64_t seed = 0;     ///< per-job seed (arrival_seed(base_seed, index))
  double arrival_s = 0.0;
  double start_s = -1.0;      ///< placement time; -1 if rejected
  double finish_s = -1.0;     ///< completion time; -1 if rejected
  int pool = -1;              ///< pool the job finished on
  int migrations = 0;         ///< times this job moved between pools
  double work_s = 0.0;        ///< jittered idle-system runtime
  bool rejected = false;
  /// Slowdown = (finish - arrival) / work_s: queueing delay and
  /// interference both count against the job (the scheduling-literature
  /// definition; docs/FLEET.md).
  [[nodiscard]] double slowdown() const { return (finish_s - arrival_s) / work_s; }
  [[nodiscard]] double wait_s() const { return start_s - arrival_s; }
};

/// Time-integrated per-pool gauges.
struct PoolStats {
  double utilization = 0.0;    ///< time-mean used_gb / capacity_gb
  double peak_used_gb = 0.0;   ///< max pooled memory ever pinned (≤ capacity)
  double mean_demand_loi = 0.0;///< time-mean demand-class effective LoI (%)
  double stranded_gb = 0.0;    ///< time-mean free GB while the node group was full
};

/// A full fleet run: per-job records in arrival order plus fleet metrics.
struct FleetResult {
  std::vector<FleetJobRecord> jobs;
  std::vector<PoolStats> pools;
  double makespan_s = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t migrations = 0;
  double p50_slowdown = 0.0;  ///< over completed jobs (type-7 percentile)
  double p99_slowdown = 0.0;
  double p50_wait_s = 0.0;
  double p99_wait_s = 0.0;
  double mean_utilization = 0.0;  ///< mean over pools of PoolStats::utilization
  double stranded_gb = 0.0;       ///< sum over pools of PoolStats::stranded_gb

  /// Deterministic per-job CSV (arrival order). Byte-identical for any
  /// jobs count — the fleet analogue of SweepResult::write_csv.
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

  /// Deterministic JSON: summary, per-pool stats, then per-job rows.
  void write_json(std::ostream& os) const;
  void write_json_file(const std::string& path) const;
};

/// Index of the first arrival the fleet clock cannot reach at timestep
/// `step_s`, or `arrivals.size()` if it reaches them all. The clock is
/// `now += step_s`: below 2^52 steps one ulp of `now` stays under
/// `step_s`, so every step advances it, but near 2^53 steps the sum rounds
/// back to `now` and the clock stalls. An arrival at or beyond 2^52 steps
/// (or a NaN time) is therefore unreachable; run_fleet rejects it rather
/// than loop forever. Reachable horizons still cost one step per `step_s`.
[[nodiscard]] std::size_t first_unreachable_arrival(const std::vector<Arrival>& arrivals,
                                                    double step_s);

/// Runs the arrival stream to completion. `threads` shards the per-job
/// simulation step across the sweep thread pool (0 = hardware
/// concurrency); results are bit-identical for any value. Every arrival
/// must be reachable (first_unreachable_arrival).
[[nodiscard]] FleetResult run_fleet(const FleetConfig& cfg,
                                    const std::vector<JobClass>& classes,
                                    const std::vector<Arrival>& arrivals,
                                    unsigned threads = 1);

/// The reference three-class job mix (docs/FLEET.md): a link-sensitive HPC
/// solver, a moderate analytics job, and a short bulk-heavy ETL job. Used
/// by `memdis fleet`, the ext-fleet-rack scenario, bench_fleet, and the
/// tests, so every surface exercises one calibrated mix.
[[nodiscard]] std::vector<JobClass> default_job_classes();

/// A rack of `pools` identical pools (16 nodes, 512 GB, the default
/// FabricLinkSpec — the calibrated 85 GB/s UPI-class link).
[[nodiscard]] std::vector<PoolSpec> default_pools(std::size_t pools);

}  // namespace memdis::fleet
