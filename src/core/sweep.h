// Parallel sweep engine: batch configuration-space exploration as a
// first-class subsystem.
//
// The paper's methodology is sweeps — scaling curves over input scales
// (Fig. 6), tier splits (Fig. 9), interference levels (Fig. 10), fabric
// what-ifs — so the engine models one as a cartesian grid
// (workload × scale × capacity ratio × LoI × fabric × prefetch × variant)
// expanded into an ordered task list and executed on a std::thread pool.
//
// Determinism contract: tasks are pure functions of their SweepPoint; each
// point carries its own RNG seed (derived from the spec's base seed and the
// point's grid index via SplitMix64) and results land in the row slot given
// by the grid index. A sweep at jobs=N is therefore bit-identical to the
// serial sweep, for any N.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/epoch_profile.h"
#include "core/experiment.h"
#include "workloads/workload.h"

namespace memdis::core {

/// Sentinel for the capacity-ratio axis: run with the full node tier
/// (no forced spill off the node).
inline constexpr double kNodeOnly = -1.0;

/// Maps a topology preset name to its machine config. Two-tier fabrics
/// ("upi", "cxl", "cxl-switched", "split") and N-tier topologies
/// ("three-tier" = DRAM + direct CXL + switched pool, "hybrid" = DRAM +
/// CXL pool + peer-borrowed memory) share one namespace so a sweep's
/// fabric axis doubles as the topology axis. Throws std::invalid_argument
/// for unknown names.
[[nodiscard]] memsim::MachineConfig machine_for_fabric(const std::string& fabric);

/// All registered topology preset names, in CLI listing order.
[[nodiscard]] std::vector<std::string> topology_preset_names();

/// Off-only stubs of the removed sweep replay cache, kept because the
/// frozen perfbench/ harness pins these names: the getter is always empty
/// and the setter accepts only "".
[[nodiscard]] std::string replay_cache_dir();
void set_replay_cache_dir(std::string dir);

/// One expanded grid point == one task. Everything a measure function may
/// depend on is captured here, including the derived per-task seed.
struct SweepPoint {
  std::size_t index = 0;  ///< position in the grid expansion (row slot)
  workloads::App app = workloads::App::kHPL;
  int scale = 1;
  double ratio = kNodeOnly;   ///< remote capacity ratio, or kNodeOnly
  double loi = 0.0;           ///< background level of interference (%)
  std::string fabric = "upi";  ///< topology preset (see machine_for_fabric)
  bool prefetch = true;
  std::string variant;        ///< scenario-specific knob (e.g. BFS variant)
  std::uint64_t seed = 0;     ///< per-task RNG seed (deterministic)
  /// Fabric link contention model, copied from SweepSpec::link_model.
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;

  /// RunConfig for this point: machine preset for `fabric`, the capacity
  /// ratio (unless kNodeOnly), background LoI, the prefetch switch and the
  /// link model.
  [[nodiscard]] RunConfig run_config() const;
  /// Workload instance for this point, seeded with the per-task seed.
  [[nodiscard]] std::unique_ptr<workloads::Workload> make_workload() const;

  /// Groups grid points that share a functional half (everything except
  /// the timing knobs `loi` and `link_model`, and `index`, the row slot).
  /// run_sweep schedules one capture per group before the rest of the
  /// group re-prices (see core/epoch_profile.h).
  [[nodiscard]] std::string functional_group_key() const;

  /// Memberwise equality over *all* fields — defaulted, so a new field can
  /// never be silently dropped from comparisons (SweepResult::rows_equal
  /// builds on this).
  [[nodiscard]] bool operator==(const SweepPoint&) const = default;
};

/// Axes of the cartesian grid. Empty axes are illegal (expand() throws);
/// the defaults give each non-app axis a single neutral value. The
/// `fabrics` axis is the topology axis: every entry names a machine
/// preset (two-tier or N-tier), so one grid can compare topologies.
struct SweepSpec {
  std::vector<workloads::App> apps;
  std::vector<int> scales = {1};
  std::vector<double> ratios = {kNodeOnly};
  std::vector<double> lois = {0.0};
  std::vector<std::string> fabrics = {"upi"};
  std::vector<bool> prefetch = {true};
  std::vector<std::string> variants = {""};
  std::uint64_t base_seed = 42;
  /// When true (default), each point derives an independent seed from
  /// base_seed and its grid index. Set false for sweeps that *compare*
  /// points against each other (e.g. fig06's cross-scale curve distances):
  /// every point then uses base_seed verbatim, so axis effects are not
  /// confounded with seed-driven input randomness.
  bool seed_per_task = true;
  /// Fabric link contention model for every point (not an axis: the CSV
  /// and JSON columns do not name it).
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;

  [[nodiscard]] std::size_t size() const;

  /// Expands the grid in deterministic app-major order (app, scale, ratio,
  /// loi, fabric, prefetch, variant — last axis fastest), assigning indices
  /// 0..size()-1 and per-task seeds.
  [[nodiscard]] std::vector<SweepPoint> expand() const;
};

/// One named measurement from one task.
using Metric = std::pair<std::string, double>;

/// A measure function runs one task and returns its metrics. It must be
/// thread-safe and depend only on the given point (the determinism
/// contract above).
using MeasureFn = std::function<std::vector<Metric>(const SweepPoint&)>;

/// One result row, in grid order.
struct SweepRow {
  SweepPoint point;
  std::vector<Metric> metrics;
};

struct SweepResult {
  std::string scenario;        ///< name of the scenario that produced it, if any
  std::vector<SweepRow> rows;  ///< grid order, independent of execution order
  double wall_seconds = 0.0;   ///< excluded from artifacts and equality
  /// Epoch-profile captures and re-prices of this sweep's runs; excluded
  /// from artifacts and equality like wall_seconds.
  RepriceStats repricing;

  /// Union of metric names in first-appearance (row-major) order.
  [[nodiscard]] std::vector<std::string> metric_names() const;

  /// Deterministic CSV: grid columns, then the metric-name union; missing
  /// metrics render as empty cells. Byte-identical for any jobs count.
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

  /// Deterministic JSON (one object per row); wall time is not included.
  void write_json(std::ostream& os) const;
  void write_json_file(const std::string& path) const;

  /// Exact equality of rows (points and metric bit patterns) — the
  /// parallel-vs-serial determinism check.
  [[nodiscard]] bool rows_equal(const SweepResult& other) const;
};

struct SweepOptions {
  unsigned jobs = 1;  ///< worker threads; 0 = hardware_concurrency()
};

/// Expands `spec` and runs `measure` over every point on a thread pool.
/// Every task runs inside a ProfileScope on one ProfileCache that lives
/// for this call (core/epoch_profile.h), so run_workload calls in the
/// measure re-price timing-only variations of an earlier capture. Tasks
/// run in two waves — one leader per functional group first, then the
/// followers — so each group's capture exists before its re-prices ask
/// for it. Results are independent of the scheduling (the determinism
/// contract); waves only avoid redundant captures.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, const MeasureFn& measure,
                                    const SweepOptions& options = {});

}  // namespace memdis::core
