// CacheHierarchy: L1D + L2 (with stream prefetcher) + shared L3, backed by
// the N-tier memory of `memsim`. Every simulated load/store funnels
// through here; the hierarchy maintains the paper's hardware counters.
//
// Simplifications vs. Skylake-X (documented deviations):
//  * the hierarchy is modelled inclusive (Skylake's L3 is a victim cache);
//    this changes capacity slightly but none of the profiled ratios,
//  * a single hierarchy aggregates all threads (the workloads are modelled
//    as a single access stream with bandwidth-level parallelism applied in
//    the engine's time model).
//
// Hot-path layout: access() is header-inline and handles only the L1-hit
// case (the overwhelming majority of accesses in streaming codes); every
// deeper level funnels through the out-of-line access_miss(). The bulk
// API in sim::Engine additionally uses the L1 handle entry points, which
// apply a window of all-hit accesses as O(1) state updates with counter
// credit deferred to the engine's batch accumulator — the "streaming cache
// shortcut". It is exact: the counter and cache state after a batched
// window is bit-identical to the element-wise access sequence it replaces.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.h"
#include "cachesim/counters.h"
#include "cachesim/prefetcher.h"
#include "memsim/page_table.h"

namespace memdis::cachesim {

// Default sizes are a scaled-down Skylake-X: the workload inputs are run at
// roughly 1/100 of the paper's memory footprints to keep simulation
// turnaround fast, so the caches shrink proportionally (L2 128 KiB,
// L3 1 MiB) to preserve the working-set-to-cache ratios that shape the
// DRAM-level profiles (hot sets must still overflow the LLC).
struct HierarchyConfig {
  CacheConfig l1{32 * 1024, 8, 64};
  CacheConfig l2{128 * 1024, 8, 64};
  CacheConfig l3{1024 * 1024, 16, 64};
  PrefetcherConfig prefetcher{};
};

/// Where a demand access was satisfied.
enum class HitLevel : std::uint8_t { kL1, kL2, kL3, kDram };

class CacheHierarchy {
 public:
  CacheHierarchy(const HierarchyConfig& cfg, memsim::TieredMemory& mem);

  /// Simulates one demand access of up to one cacheline.
  HitLevel access(std::uint64_t vaddr, bool is_store) {
    if (is_store) {
      ++counters_.stores;
    } else {
      ++counters_.loads;
    }
    if (l1_.access(vaddr, is_store).hit) {
      ++counters_.l1_hits;
      return HitLevel::kL1;
    }
    return access_miss(vaddr, is_store);
  }

  // ---- resident-line handles (sim::Engine's batching kernel) -------------
  // A window of iterations whose lanes all hit L1 is applied as one net
  // recency/dirty update per lane, in lane order; the counters are
  // credited at batch end (credit_l1_run). Handles go stale at any L1 fill,
  // so the engine re-resolves them after every non-batched access.
  static constexpr std::size_t l1_npos = SetAssocCache::npos;
  /// Resolves the L1 handle (or l1_npos) of each of `n` lines in one call,
  /// so the vectorized tag probes of a window's changed lanes issue as one
  /// pass.
  void l1_index_of_batch(const std::uint64_t* line_addrs, std::size_t n, std::size_t* out) {
    l1_.index_of_batch(line_addrs, n, out);
  }
  void l1_touch(std::size_t handle, bool any_store) { l1_.touch(handle, any_store); }

  /// Flushes a batch accumulator of L1-hit runs into the counters.
  void credit_l1_run(std::uint64_t loads, std::uint64_t stores) {
    counters_.loads += loads;
    counters_.stores += stores;
    counters_.l1_hits += loads + stores;
  }

  /// Flushes all dirty lines to DRAM (end-of-run traffic accounting).
  void drain();

  // ---- replay validation ---------------------------------------------------

  /// Observable line state of all three levels (trace replay validation).
  struct Snapshot {
    SetAssocCache::Snapshot l1, l2, l3;
    bool operator==(const Snapshot&) const = default;
  };
  [[nodiscard]] Snapshot snapshot_caches() const {
    return Snapshot{l1_.snapshot(), l2_.snapshot(), l3_.snapshot()};
  }

  void set_prefetch_enabled(bool on) { prefetcher_.set_enabled(on); }
  [[nodiscard]] bool prefetch_enabled() const { return prefetcher_.enabled(); }

  [[nodiscard]] const HwCounters& counters() const { return counters_; }
  [[nodiscard]] const StreamPrefetcher& prefetcher() const { return prefetcher_; }
  [[nodiscard]] const HierarchyConfig& config() const { return cfg_; }
  [[nodiscard]] memsim::TieredMemory& memory() { return mem_; }

 private:
  /// Everything below an L1 hit: L2/L3 probes, DRAM fetch, fills,
  /// writebacks, prefetch issue.
  HitLevel access_miss(std::uint64_t vaddr, bool is_store);
  /// Fetches one line from DRAM on behalf of a demand miss or a prefetch.
  void dram_fetch(std::uint64_t line_addr, bool demand);
  void handle_l2_eviction(const Eviction& ev);
  void handle_l3_eviction(const Eviction& ev);
  void writeback_to_dram(std::uint64_t line_addr);
  void issue_prefetches(std::uint64_t vaddr, bool is_store);

  HierarchyConfig cfg_;
  memsim::TieredMemory& mem_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  StreamPrefetcher prefetcher_;
  HwCounters counters_;
  std::vector<PrefetchRequest> pf_queue_;  // reused scratch buffer
};

}  // namespace memdis::cachesim
