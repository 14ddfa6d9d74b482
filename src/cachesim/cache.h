// Set-associative, write-back, write-allocate cache with true-LRU
// replacement. Used for all three levels of the simulated hierarchy.
//
// The lookup path is the simulator's innermost loop (every simulated access
// probes L1, and every L1 miss scans L2/L3 and fills up to three levels),
// so the cache state is laid out for speed without changing behaviour:
//  * struct-of-arrays storage — tag, LRU tick, and flag planes — so a way
//    scan streams over a dense 8-byte tag array instead of 24-byte line
//    records (the simulated L3's metadata alone overflows the host's L2;
//    memory traffic per scan is what dominates, not instruction count),
//  * an impossible tag value (~0) encodes invalidity, so one tag compare
//    answers valid-and-matching,
//  * set/tag math uses precomputed shift/mask values (line size and set
//    count are enforced powers of two),
//  * each set keeps an MRU way hint probed before the full scan — a pure
//    search-order optimization (tags are unique within a set, so the same
//    line is found whichever way finds it),
//  * the way scan and the victim argmin issue as wide compares over the
//    dense planes (common/simd.h — AVX2/SSE2/NEON chosen at compile time,
//    the scalar loops in a -DMEMDIS_SIMD=OFF build; see docs/HOTPATH.md),
//  * the hot entry points are header-inline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/contract.h"
#include "common/simd.h"

namespace memdis::cachesim {

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t ways = 0;
  std::uint32_t line_bytes = 64;

  /// Sets implied by the geometry. `size_bytes` must be an exact multiple
  /// of `ways * line_bytes` — the SetAssocCache constructor rejects
  /// anything else, so the division here never truncates.
  [[nodiscard]] std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  }
};

/// A line evicted to make room for a fill.
struct Eviction {
  std::uint64_t line_addr = 0;  ///< byte address of the evicted line's start
  bool dirty = false;
  bool prefetched_unused = false;  ///< was a prefetch that was never referenced
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up the line containing `addr`. On a hit, updates LRU state,
  /// optionally sets the dirty bit, and reports whether this was the first
  /// demand reference to a prefetched line.
  struct HitInfo {
    bool hit = false;
    bool first_use_of_prefetch = false;
  };
  HitInfo access(std::uint64_t addr, bool is_store) {
    const std::size_t idx = find(addr);
    if (idx == kNpos) return {};
    const std::uint8_t f = flags_[idx];
    HitInfo info;
    info.hit = true;
    info.first_use_of_prefetch = (f & kPrefetched) != 0 && (f & kReferenced) == 0;
    flags_[idx] = f | kReferenced | (is_store ? kDirty : 0);
    lru_[idx] = ++tick_;
    return info;
  }

  // ---- resident-line handles (the engine's batching kernel) ---------------
  // A handle is the line's slot index; it stays valid until the next fill,
  // invalidate, or drain on this cache (those may move or evict lines).
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Handle of the line holding `addr`, or npos. Search-order hint updates
  /// only — same observable state as contains().
  [[nodiscard]] std::size_t index_of(std::uint64_t addr) { return find(addr); }

  /// Batched index_of: out[i] = index_of(line_addrs[i]), i < n. Resolves
  /// all of the engine batcher's changed lanes in one call, so the wide
  /// tag compares issue back-to-back with no interleaved lane
  /// bookkeeping. Same hint updates as n sequential index_of() calls.
  void index_of_batch(const std::uint64_t* line_addrs, std::size_t n, std::size_t* out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = find(line_addrs[i]);
  }

  /// Applies the *net* effect of a batch of hit accesses to the line at
  /// `idx`: referenced, optionally dirtied, LRU tick set to `final_tick`
  /// (a value the caller obtained from advance_tick for this batch).
  void touch_at(std::size_t idx, bool any_store, std::uint64_t final_tick) {
    flags_[idx] |= kReferenced | (any_store ? kDirty : 0);
    lru_[idx] = final_tick;
  }

  /// Advances the LRU clock by `n` accesses and returns the new value (the
  /// tick of the batch's final access).
  std::uint64_t advance_tick(std::uint64_t n) {
    tick_ += n;
    return tick_;
  }

  /// Inserts the line containing `addr`; returns the eviction if a valid
  /// line had to be displaced. `prefetched` marks hardware-prefetch fills.
  /// A line already present is only refreshed (LRU, dirty bit).
  std::optional<Eviction> fill(std::uint64_t addr, bool dirty, bool prefetched);

  /// fill() for a line the caller knows is absent (every hierarchy fill
  /// follows a miss or a failed contains() on this level, with nothing in
  /// between that could insert it). Skips the present-line refresh check,
  /// so the victim scan is a pure invalid-or-LRU-min pass — same victim,
  /// same eviction, same end state as fill().
  std::optional<Eviction> fill_absent(std::uint64_t addr, bool dirty, bool prefetched);

  /// True when the line is present. Does not update LRU; probes the MRU
  /// hint first (search order only, observationally pure).
  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t aligned = line_align(addr);
    const std::uint64_t set = set_of(addr);
    const std::uint64_t* tags = &tag_[set * cfg_.ways];
    const std::uint32_t hinted = mru_way_[set];
    if (tags[hinted] == aligned) return true;
    return simd::find_equal_except(tags, cfg_.ways, aligned, hinted) != cfg_.ways;
  }

  /// Invalidates the line if present; returns its eviction record.
  std::optional<Eviction> invalidate(std::uint64_t addr);

  /// Marks the line dirty when present — an upper level writing back into
  /// this one — and reports whether it was (one scan replacing the former
  /// contains + mark_dirty probe pair).
  bool mark_dirty_if_present(std::uint64_t addr) {
    const std::size_t idx = find(addr);
    if (idx == kNpos) return false;
    flags_[idx] |= kDirty;
    return true;
  }

  /// Evicts every valid line, invoking `sink` for each (used at end of run
  /// to drain dirty data into the writeback accounting).
  template <typename Sink>
  void drain(Sink&& sink) {
    for (std::size_t i = 0; i < tag_.size(); ++i) {
      if (tag_[i] == kInvalidTag) continue;
      sink(eviction_of(i));
      tag_[i] = kInvalidTag;
      lru_[i] = 0;  // invariant: invalid ways read as LRU tick 0
    }
  }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t line_bytes() const { return cfg_.line_bytes; }

  // ---- state snapshot / restore / digest ------------------------------------
  // The complete observable line state: tag, LRU tick, and flag planes plus
  // the LRU clock. The per-set MRU hint is deliberately excluded — it only
  // steers search order (tags are unique within a set), so two states that
  // differ in hints alone are behaviourally identical. Used by the trace
  // layer's replay-validation tests to prove a replayed run reconverges on
  // the live run's exact cache state.
  struct Snapshot {
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> tag;
    std::vector<std::uint64_t> lru;
    std::vector<std::uint8_t> flags;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Restores a snapshot taken from a cache of the identical geometry
  /// (contract violation otherwise).
  void restore(const Snapshot& s);
  /// FNV-1a over the snapshot planes — equal digests ⇔ equal observable
  /// line state.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ULL;  // not a line address
  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::uint8_t kDirty = 1;
  static constexpr std::uint8_t kPrefetched = 2;
  static constexpr std::uint8_t kReferenced = 4;

  [[nodiscard]] std::uint64_t set_of(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint64_t line_align(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(cfg_.line_bytes - 1);
  }
  [[nodiscard]] Eviction eviction_of(std::size_t idx) const {
    const std::uint8_t f = flags_[idx];
    return Eviction{tag_[idx], (f & kDirty) != 0,
                    (f & kPrefetched) != 0 && (f & kReferenced) == 0};
  }

  /// Index of the line holding `addr`, or kNpos. Updates the MRU hint on a
  /// scan hit (search order only). After the hint probe misses, the scan
  /// compares each remaining tag exactly once: the wide path covers the
  /// hinted lane inside the vector compare (free, and known unequal), the
  /// scalar fallback skips it.
  std::size_t find(std::uint64_t addr) {
    const std::uint64_t aligned = line_align(addr);
    const std::uint64_t set = set_of(addr);
    const std::size_t base = set * cfg_.ways;
    const std::uint32_t hinted = mru_way_[set];
    if (tag_[base + hinted] == aligned) return base + hinted;
    const std::uint32_t w = simd::find_equal_except(&tag_[base], cfg_.ways, aligned, hinted);
    if (w == cfg_.ways) return kNpos;
    mru_way_[set] = w;
    return base + w;
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  std::uint32_t line_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  // Struct-of-arrays line state, sets_ * ways entries, row-major by set.
  std::vector<std::uint64_t> tag_;   ///< line-aligned addr, kInvalidTag if empty
  std::vector<std::uint64_t> lru_;   ///< last-access tick (victim = min)
  std::vector<std::uint8_t> flags_;  ///< kDirty | kPrefetched | kReferenced
  std::vector<std::uint32_t> mru_way_;  ///< per-set hint, search order only
};

}  // namespace memdis::cachesim
