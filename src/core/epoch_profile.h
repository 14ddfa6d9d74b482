// Epoch-profile memoization: the functional/timing split that re-prices a
// sweep's interference axes in O(epochs) instead of O(accesses).
//
// Every RunConfig factors into two halves:
//
//   functional — everything that determines the access stream and cache-
//     state evolution: the workload (app, scale, seed, variant — pinned by
//     Workload::functional_id), the shaped machine (capacity split/ratio,
//     fabric topology), the cache hierarchy, and the prefetcher switch.
//   timing — everything the links charge but that cannot feed back into
//     the stream: background LoI (scalar and per-tier), LoI schedules,
//     and the link model (LinkModel closed form vs. QueueModel).
//
// The separation is real because epoch boundaries close on *demand access
// counts* (plus phase markers and finish), never on simulated time, and —
// absent a migration runtime or epoch callback, which only scenario code
// wires up below this layer — nothing reads a duration back into a
// placement or cache decision. So one full simulation per functional key
// captures per-epoch counter deltas (an EpochProfile), and every other
// grid point sharing the key is *re-priced*: the per-link cost model
// (sim::price_epoch — the very implementation close_epoch runs) is folded
// over the profile's epochs under the new link state. Under the queue
// model the repricer replays QueueModel::observe per epoch, so windowed
// estimators see the same history; at zero bulk this is bit-exact to the
// closed form per the PR 6 compat guarantee. Re-priced artifacts are
// byte-identical to full simulation for every eligible point — enforced
// by the determinism suite and the fig06 golden gate. See docs/REPRICE.md.
//
// Eligibility: a run opts in only via core::run_workload with repricing
// enabled and a workload that publishes a functional id. Migration
// runtimes and epoch callbacks never reach run_workload (scenario code
// builds those engines directly), so ineligible points fall back to full
// simulation silently and correctly.
#pragma once

#include <memory>
#include <string>

#include "core/experiment.h"

namespace memdis::core {

/// The timing half of a RunConfig: knobs that change what the links charge
/// but cannot alter the access stream, placement, or counters.
struct TimingConfig {
  double background_loi = 0.0;
  std::vector<double> background_loi_per_tier;
  memsim::LoiSchedule loi_schedule;
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;
};

/// One full simulation's capture for a functional key: the shaped machine
/// it ran on plus the complete RunOutput. The output's functional content
/// (counters, per-epoch deltas, residency, host numerics) is valid for
/// *any* timing config sharing the key; its timing content is whatever the
/// capture run happened to price and is recomputed by reprice().
struct EpochProfile {
  memsim::MachineConfig machine;  ///< shaped machine (after capacity split)
  double stall_weight = 1.0;      ///< EngineConfig::stall_weight of the capture
  RunOutput output;               ///< captured full-simulation output
};

/// Process-wide repricing switch (default off), mirroring the link-model
/// default. `memdis sweep --reprice on|off` sets it.
[[nodiscard]] bool reprice_enabled();
void set_reprice_enabled(bool on);

/// Counters since the last clear_reprice_cache(): how many runs captured a
/// profile vs. were re-priced from one. Bench/test instrumentation.
struct RepriceStats {
  std::uint64_t captures = 0;
  std::uint64_t reprices = 0;
};
[[nodiscard]] RepriceStats reprice_stats();

/// Drops every cached profile and resets the stats. Tests and benches call
/// this around measurements so process-global state cannot leak between
/// them (profiles are keyed completely, so leaking is a memory concern,
/// never a correctness one).
void clear_reprice_cache();
[[nodiscard]] std::size_t reprice_cache_size();

/// Serializes the functional half of a run into the cache key: the
/// workload's functional id plus every stream-shaping field of the shaped
/// machine, the cache hierarchy, and the prefetcher switch. Doubles are
/// rendered with append_double (exact round-trip), so distinct configs
/// cannot collide.
[[nodiscard]] std::string functional_key(const std::string& workload_id,
                                         const memsim::MachineConfig& shaped_machine,
                                         const cachesim::HierarchyConfig& hierarchy,
                                         bool prefetch_enabled);

/// Cache lookup/insert. store keeps the first profile for a key (captures
/// race benignly: both ran the same full simulation).
[[nodiscard]] std::shared_ptr<const EpochProfile> find_epoch_profile(const std::string& key);
void store_epoch_profile(const std::string& key, EpochProfile profile);

/// Re-prices a captured profile under a new timing config: rebuilds the
/// per-tier LinkModels/QueueModels exactly as the engine's constructor
/// does, folds sim::price_epoch over the profile's epochs (stepping the
/// LoI schedule and replaying queue observes at each close), and
/// reconstructs elapsed time and phase times from the same running sums
/// the engine computes. O(epochs); bit-identical to a full simulation of
/// the same functional+timing config.
[[nodiscard]] RunOutput reprice(const EpochProfile& profile, const TimingConfig& timing);

}  // namespace memdis::core
