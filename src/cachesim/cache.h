// Set-associative, write-back, write-allocate cache with true-LRU
// replacement. Used for all three levels of the simulated hierarchy.
//
// The lookup path is the simulator's innermost loop (every simulated access
// probes L1, and every L1 miss scans L2/L3 and fills up to three levels),
// so the cache state is laid out for speed without changing behaviour:
//  * struct-of-arrays storage — tag and flag planes — so a way scan
//    streams over a dense 8-byte tag array instead of 24-byte line
//    records (the simulated L3's metadata alone overflows the host's L2;
//    memory traffic per scan is what dominates, not instruction count),
//  * an impossible tag value (~0) encodes invalidity, so one tag compare
//    answers valid-and-matching,
//  * set/tag math uses precomputed shift/mask values (line size and set
//    count are enforced powers of two),
//  * replacement state is one 64-bit word per set holding the ways as a
//    4-bit-per-way LRU stack (Mattson et al., IBM Sys. J. 1970): nibble 0
//    is the MRU way, nibble ways-1 the LRU way, unused high nibbles read
//    0xF (so at most 16 ways). The victim is the LRU nibble — no scan —
//    and a hit or fill moves its way to the front with a branch-free
//    zero-nibble search and masked shift (a hit on the MRU way changes
//    nothing). Invalid ways sit at the LRU end in ascending index order,
//    which is exactly "first invalid way, else the LRU way",
//  * the MRU nibble doubles as the search hint probed before the full
//    scan — search order only (tags are unique within a set, so the same
//    line is found whichever way finds it),
//  * the way scan issues as wide compares over the dense tag plane
//    (common/simd.h — AVX2/SSE2/NEON chosen at compile time, the scalar
//    loop in a -DMEMDIS_SIMD=OFF build; see docs/HOTPATH.md),
//  * the hot entry points are header-inline.
#pragma once

#include <bit>
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
  /// Ways per set the 4-bit recency stack can hold.
  static constexpr std::uint32_t kMaxWays = 16;

  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up the line containing `addr`. On a hit, makes it the set's MRU
  /// line, optionally sets the dirty bit, and reports whether this was the
  /// first demand reference to a prefetched line.
  struct HitInfo {
    bool hit = false;
    bool first_use_of_prefetch = false;
  };
  HitInfo access(std::uint64_t addr, bool is_store) {
    const std::uint64_t set = set_of(addr);
    const std::uint32_t way = find_way(set, line_align(addr));
    if (way == cfg_.ways) return {};
    const std::size_t idx = set * cfg_.ways + way;
    const std::uint8_t f = flags_[idx];
    HitInfo info;
    info.hit = true;
    info.first_use_of_prefetch = (f & kPrefetched) != 0 && (f & kReferenced) == 0;
    flags_[idx] = f | kReferenced | (is_store ? kDirty : 0);
    promote(set, way);
    return info;
  }

  // ---- resident-line handles (the engine's batching kernel) ---------------
  // A handle is (set << 4) | way, so touch() finds the set's stack without
  // a division; it stays valid until the next fill, invalidate, or drain on
  // this cache (those may evict the line).
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Handle of the line holding `addr`, or npos. Changes no state.
  [[nodiscard]] std::size_t index_of(std::uint64_t addr) const {
    const std::uint64_t set = set_of(addr);
    const std::uint32_t way = find_way(set, line_align(addr));
    return way == cfg_.ways ? npos : (set << 4) | way;
  }

  /// Batched index_of: out[i] = index_of(line_addrs[i]), i < n. Resolves
  /// all of the engine batcher's changed lanes in one call, so the wide
  /// tag compares issue back-to-back with no interleaved lane
  /// bookkeeping.
  void index_of_batch(const std::uint64_t* line_addrs, std::size_t n, std::size_t* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = index_of(line_addrs[i]);
  }

  /// Applies the *net* effect of a batch of hit accesses to the line at
  /// `handle`: referenced, optionally dirtied, moved to the MRU position.
  /// Touching a batch's lines in the order of their final accesses leaves
  /// the stack exactly as the element-wise access sequence would.
  void touch(std::size_t handle, bool any_store) {
    const std::size_t set = handle >> 4;
    const auto way = static_cast<std::uint32_t>(handle & 0xF);
    flags_[set * cfg_.ways + way] |= kReferenced | (any_store ? kDirty : 0);
    promote(set, way);
  }

  /// Inserts the line containing `addr`; returns the eviction if a valid
  /// line had to be displaced. `prefetched` marks hardware-prefetch fills.
  /// A line already present is only refreshed (made MRU, dirty bit).
  std::optional<Eviction> fill(std::uint64_t addr, bool dirty, bool prefetched);

  /// fill() for a line the caller knows is absent (every hierarchy fill
  /// follows a miss or a failed contains() on this level, with nothing in
  /// between that could insert it). Skips the present-line refresh check:
  /// the victim is read straight off the LRU nibble — same victim, same
  /// eviction, same end state as fill().
  std::optional<Eviction> fill_absent(std::uint64_t addr, bool dirty, bool prefetched);

  /// True when the line is present. Changes no state.
  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t set = set_of(addr);
    return find_way(set, line_align(addr)) != cfg_.ways;
  }

  /// Invalidates the line if present; returns its eviction record.
  std::optional<Eviction> invalidate(std::uint64_t addr);

  /// Marks the line dirty when present — an upper level writing back into
  /// this one — and reports whether it was (one scan replacing the former
  /// contains + mark_dirty probe pair). Leaves the recency order alone.
  bool mark_dirty_if_present(std::uint64_t addr) {
    const std::uint64_t set = set_of(addr);
    const std::uint32_t way = find_way(set, line_align(addr));
    if (way == cfg_.ways) return false;
    flags_[set * cfg_.ways + way] |= kDirty;
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
    }
    order_.assign(sets_, empty_order_);
  }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t line_bytes() const { return cfg_.line_bytes; }

  // ---- state snapshot / digest ----------------------------------------------
  // The complete observable line state: tag and flag planes plus each
  // set's recency stack. Used by the differential and replay-validation
  // tests to prove two runs end in the exact same cache state.
  struct Snapshot {
    std::vector<std::uint64_t> tag;
    std::vector<std::uint64_t> order;  ///< per set: ways MRU → LRU, 4 bits each
    std::vector<std::uint8_t> flags;
    bool operator==(const Snapshot&) const = default;
  };
  [[nodiscard]] Snapshot snapshot() const { return Snapshot{tag_, order_, flags_}; }
  /// FNV-1a over the snapshot planes — equal digests ⇔ equal observable
  /// line state.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ULL;  // not a line address
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

  /// Way of `set` holding the line-aligned `aligned`, or cfg_.ways. Probes
  /// the MRU way first; after that probe misses, the scan compares each
  /// remaining tag exactly once: the wide path covers the MRU lane inside
  /// the vector compare (free, and known unequal), the scalar fallback
  /// skips it.
  [[nodiscard]] std::uint32_t find_way(std::uint64_t set, std::uint64_t aligned) const {
    const std::uint64_t* tags = &tag_[set * cfg_.ways];
    const auto mru = static_cast<std::uint32_t>(order_[set] & 0xF);
    if (tags[mru] == aligned) return mru;
    return simd::find_equal_except(tags, cfg_.ways, aligned, mru);
  }

  /// Moves `way` to the front of its set's stack; the ways in front of it
  /// shift one nibble towards the LRU end. Branch-free: XOR with `way` in
  /// every nibble zeroes exactly the nibble holding it (unused nibbles
  /// read 0xF, above any way of a cache with fewer than 16), the
  /// has-zero-nibble trick flags it (a borrow can only raise false flags
  /// above the true zero, so the lowest flag is exact), and two masks
  /// split the word around it. A way already at nibble 0 leaves the word
  /// unchanged.
  void promote(std::size_t set, std::uint32_t way) {
    constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
    const std::uint64_t order = order_[set];
    const std::uint64_t x = order ^ (kOnes * way);
    const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    const int shift = std::countr_zero(zero) & ~3;  // 4 * the way's stack position
    const std::uint64_t in_front = (std::uint64_t{1} << shift) - 1;
    order_[set] = (order & (~in_front << 4)) | ((order & in_front) << 4) | way;
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  std::uint32_t line_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint32_t lru_shift_ = 0;     ///< 4 * (ways - 1): the LRU nibble's offset
  std::uint64_t empty_order_ = 0;   ///< stack of an empty set: way 0 at the LRU end
  // Struct-of-arrays line state, sets_ * ways entries, row-major by set.
  std::vector<std::uint64_t> tag_;   ///< line-aligned addr, kInvalidTag if empty
  std::vector<std::uint8_t> flags_;  ///< kDirty | kPrefetched | kReferenced
  std::vector<std::uint64_t> order_;  ///< per-set recency stack (see header comment)
};

}  // namespace memdis::cachesim
