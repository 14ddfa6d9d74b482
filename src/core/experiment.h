// Experiment runner: executes a workload on a configured emulation platform
// and captures everything the multi-level profiler consumes.
//
// This is the programmatic analogue of the paper's Fig. 4 workflow: set up
// tiers (III), run with the wanted profiler mode, collect counters.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "cachesim/counters.h"
#include "sim/engine.h"
#include "workloads/workload.h"

namespace memdis::core {

/// Configuration of one profiled run.
///
/// Fields partition into a *functional* half — machine (and the capacity
/// shaping applied to it), hierarchy, prefetch_enabled: everything that
/// determines the access stream and cache-state evolution — and a *timing*
/// half — background_loi, background_loi_per_tier, loi_schedule,
/// link_model: everything that only changes what the links charge. The
/// epoch-profile repricer (core/epoch_profile.h, on in every run_sweep)
/// exploits the split: one full simulation per functional key, O(epochs)
/// repricing for every timing variation of it. Keep new fields on the
/// right side of that line (a field that feeds back into placement or
/// cache state is functional and must join functional_key()).
struct RunConfig {
  memsim::MachineConfig machine = memsim::MachineConfig::skylake_testbed();
  cachesim::HierarchyConfig hierarchy{};
  double background_loi = 0.0;   ///< injected interference (% of link peak)
  /// Per-link background LoI, indexed by TierId (local-tier entries are
  /// ignored; tiers beyond the vector keep the scalar `background_loi`).
  /// The lever for asymmetric studies: load one pool while another idles.
  std::vector<double> background_loi_per_tier;
  /// Time-varying per-link LoI: scheduled links follow their waveform
  /// epoch by epoch (square bursts, ramps, replayed traces); unscheduled
  /// links keep the static levels above. Empty = the static model.
  memsim::LoiSchedule loi_schedule;
  bool prefetch_enabled = true;  ///< MSR 0x1a4 analogue
  /// When set, shapes capacities so this fraction of the workload's
  /// footprint spills off-node (the paper's setup_waste step, Fig. 4 III),
  /// by machine_with_spill's rule.
  std::optional<double> remote_capacity_ratio;
  /// Fabric link contention model (see sim::EngineConfig::link_model):
  /// `kLoi` is the closed form, `kQueue` the two-class queue model.
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;
};

/// Everything captured from one run.
struct RunOutput {
  workloads::WorkloadResult result;
  double elapsed_s = 0.0;
  std::uint64_t flops = 0;
  cachesim::HwCounters counters;
  std::vector<sim::PhaseRecord> phases;
  std::vector<sim::EpochRecord> epochs;
  std::unordered_map<std::uint64_t, std::uint64_t> page_accesses;  ///< PEBS histogram
  std::uint64_t peak_rss_bytes = 0;
  /// Per-tier resident bytes at peak residency (what a numa_maps sampler
  /// would have seen while the job ran), indexed by TierId.
  std::vector<std::uint64_t> resident_bytes;
  std::vector<sim::AllocationInfo> allocations;

  [[nodiscard]] std::uint64_t resident_node_bytes() const {
    return resident_bytes.empty() ? 0 : resident_bytes[memsim::kNodeTier];
  }
  [[nodiscard]] std::uint64_t resident_fabric_bytes() const;

  /// Fraction of DRAM bytes served off the node tier (R_access^remote).
  [[nodiscard]] double remote_access_ratio() const;
  /// Measured remote capacity ratio at peak (R_cap^remote).
  [[nodiscard]] double remote_capacity_ratio() const;
  /// Arithmetic intensity over the whole run: flops per DRAM byte
  /// (Byte_LM + Byte_RM in the paper's Level-2 formula).
  [[nodiscard]] double arithmetic_intensity() const;
};

/// Returns `machine` shaped so `ratio` of `footprint_bytes` spills off the
/// node under first touch: the node tier keeps 1-ratio of the footprint
/// and, on an N-tier chain, the first pool takes half the spill (the tail
/// absorbs the rest). A two-tier machine shrinks only its node tier. The
/// one spill rule of every capacity-ratio run.
[[nodiscard]] memsim::MachineConfig machine_with_spill(const memsim::MachineConfig& machine,
                                                       double ratio,
                                                       std::uint64_t footprint_bytes);

class MigrationRuntime;

/// The one live run path: builds a sim::Engine from `ecfg`, sets the
/// prefetch switch, attaches `planner` when given (it must outlive the
/// call and is read back by the caller), runs `workload`, finishes the
/// engine and captures the full profile. Always simulates — it never
/// consults a ProfileCache, so a run with a planner is never repriced.
[[nodiscard]] RunOutput run_live(workloads::Workload& workload, const sim::EngineConfig& ecfg,
                                 bool prefetch_enabled, MigrationRuntime* planner = nullptr);

/// Runs `workload` under `cfg` and captures the full profile: run_live on
/// the shaped engine config, or — inside a ProfileScope, for workloads
/// with a functional id — a reprice of an already captured profile.
[[nodiscard]] RunOutput run_workload(workloads::Workload& workload, const RunConfig& cfg);

/// Per-phase remote access ratio helper (bytes to pool / all DRAM bytes).
[[nodiscard]] double phase_remote_access_ratio(const sim::PhaseRecord& phase);

/// Per-phase arithmetic intensity (flops per DRAM byte).
[[nodiscard]] double phase_arithmetic_intensity(const sim::PhaseRecord& phase);

}  // namespace memdis::core
