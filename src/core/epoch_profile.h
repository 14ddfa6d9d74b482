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
// absent a migration runtime, which only core::run_live attaches —
// nothing reads a duration back into a placement or cache decision. So
// one full simulation per functional key captures per-epoch counter
// deltas (an EpochProfile), and every other
// grid point sharing the key is *re-priced*: the per-link cost model
// (sim::price_epoch — the very implementation close_epoch runs) is folded
// over the profile's epochs under the new link state. Under the queue
// model the repricer replays QueueModel::observe per epoch, so windowed
// estimators see the same history; at zero bulk this is bit-exact to the
// closed form per the PR 6 compat guarantee. Re-priced artifacts are
// byte-identical to full simulation for every eligible point — enforced
// by the determinism suite and the golden gate, whose sweeps all run
// through the repricer. See docs/REPRICE.md.
//
// Eligibility: a run reprices only through core::run_workload, while a
// ProfileCache is bound to its thread (run_sweep binds one per sweep,
// `memdis level3` one per command), with a workload that publishes a
// functional id. Planner runs call run_live directly and never reach
// run_workload, so run_live with a planner never reprices; ineligible
// points fall back to full simulation silently and correctly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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

/// How many runs captured a profile vs. were re-priced from one.
struct RepriceStats {
  std::uint64_t captures = 0;
  std::uint64_t reprices = 0;
};

/// The epoch profiles of one sweep (or one `memdis level3` command): the
/// profile map, its mutex and the capture/reprice counts, owned together.
/// Thread-safe; run_workload reaches it only through a bound ProfileScope.
class ProfileCache {
 public:
  ProfileCache() = default;
  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  /// The profile captured for `key`, or nullptr. A hit counts as one
  /// reprice: the caller re-prices from it.
  [[nodiscard]] std::shared_ptr<const EpochProfile> find(const std::string& key);
  /// Stores a capture and counts it. The first profile for a key is kept
  /// (captures race benignly: both ran the same full simulation).
  void store(const std::string& key, EpochProfile profile);

  [[nodiscard]] RepriceStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const EpochProfile>> profiles_;
  RepriceStats stats_;
};

/// Binds a cache to the calling thread for the scope's lifetime, so
/// run_workload on this thread captures into and re-prices from it.
/// Restores the previous binding on exit, exceptions included. Outside
/// every scope run_workload always simulates live.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileCache& cache);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// The cache bound to the calling thread, or nullptr outside any scope.
  [[nodiscard]] static ProfileCache* current();

 private:
  ProfileCache* previous_;
};

/// Off-only stubs of the removed process-wide repricing switch and cache,
/// kept because the frozen perfbench/ harness pins these names: repricing
/// is scoped to a ProfileCache, so the process-wide view is always off and
/// empty, and the setter accepts only false.
[[nodiscard]] bool reprice_enabled();
void set_reprice_enabled(bool on);
[[nodiscard]] RepriceStats reprice_stats();
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

/// Re-prices a captured profile under a new timing config: rebuilds the
/// per-tier LinkModels/QueueModels exactly as the engine's constructor
/// does, folds sim::price_epoch over the profile's epochs (stepping the
/// LoI schedule and replaying queue observes at each close), and
/// reconstructs elapsed time and phase times from the same running sums
/// the engine computes. O(epochs); bit-identical to a full simulation of
/// the same functional+timing config.
[[nodiscard]] RunOutput reprice(const EpochProfile& profile, const TimingConfig& timing);

}  // namespace memdis::core
