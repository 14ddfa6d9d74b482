#include "cachesim/cache.h"

#include "common/contract.h"
#include "common/units.h"

namespace memdis::cachesim {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg), sets_(0) {
  expects(cfg.line_bytes > 0 && (cfg.line_bytes & (cfg.line_bytes - 1)) == 0,
          "line size must be a power of two");
  expects(cfg.ways > 0, "cache needs at least one way");
  expects(cfg.ways <= kMaxWays, "the 4-bit recency stack holds at most 16 ways");
  expects(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.ways) * cfg.line_bytes) == 0,
          "cache size must be a multiple of ways * line size");
  sets_ = cfg.num_sets();
  expects(sets_ > 0, "cache must have at least one set");
  expects((sets_ & (sets_ - 1)) == 0, "number of sets must be a power of two");
  line_shift_ = log2_pow2(cfg.line_bytes);
  set_mask_ = sets_ - 1;
  lru_shift_ = 4 * (cfg.ways - 1);
  // Way w at nibble ways-1-w: the first fill takes way 0, the next way 1...
  empty_order_ = ~0ULL;
  for (std::uint32_t w = 0; w < cfg.ways; ++w) {
    const std::uint32_t shift = 4 * (cfg.ways - 1 - w);
    empty_order_ = (empty_order_ & ~(0xFULL << shift)) | (std::uint64_t{w} << shift);
  }
  const std::size_t n = sets_ * cfg.ways;
  tag_.assign(n, kInvalidTag);
  flags_.assign(n, 0);
  order_.assign(sets_, empty_order_);
}

std::optional<Eviction> SetAssocCache::fill(std::uint64_t addr, bool dirty, bool prefetched) {
  // Refill of a present line (e.g. prefetch racing demand): refresh only.
  // The presence check scans every way before any victim is chosen, so a
  // hole left by invalidate() in front of the line cannot duplicate it.
  const std::uint64_t set = set_of(addr);
  if (const std::uint32_t way = find_way(set, line_align(addr)); way != cfg_.ways) {
    promote(set, way);
    if (dirty) flags_[set * cfg_.ways + way] |= kDirty;
    return std::nullopt;
  }
  return fill_absent(addr, dirty, prefetched);
}

std::optional<Eviction> SetAssocCache::fill_absent(std::uint64_t addr, bool dirty,
                                                   bool prefetched) {
  const std::uint64_t set = set_of(addr);
#ifndef NDEBUG
  expects(!contains(addr), "fill_absent of a resident line");
#endif
  // The victim is the LRU nibble: invalid ways sit at the LRU end, lowest
  // index last, so this is the first invalid way when there is one and
  // the least recently used line otherwise.
  const auto victim_way = static_cast<std::uint32_t>(order_[set] >> lru_shift_) & 0xF;
  const std::size_t victim = set * cfg_.ways + victim_way;
  std::optional<Eviction> evicted;
  if (tag_[victim] != kInvalidTag) evicted = eviction_of(victim);
  tag_[victim] = line_align(addr);
  flags_[victim] = (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0) |
                   (prefetched ? 0 : kReferenced);
  promote(set, victim_way);
  return evicted;
}

std::uint64_t SetAssocCache::digest() const {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xffU;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const auto t : tag_) mix(t);
  for (const auto o : order_) mix(o);
  for (const auto f : flags_) {
    h ^= f;
    h *= 1099511628211ULL;
  }
  return h;
}

std::optional<Eviction> SetAssocCache::invalidate(std::uint64_t addr) {
  const std::uint64_t set = set_of(addr);
  const std::uint32_t way = find_way(set, line_align(addr));
  if (way == cfg_.ways) return std::nullopt;
  const std::size_t base = set * cfg_.ways;
  const Eviction ev = eviction_of(base + way);
  tag_[base + way] = kInvalidTag;
  // Rebuild the stack: the valid ways in their recency order, then the
  // invalid ones by descending index, so the lowest sits at the LRU end.
  const std::uint64_t old = order_[set];
  std::uint64_t order = ~0ULL;
  std::uint32_t shift = 0;
  const auto push = [&](std::uint64_t w) {
    order = (order & ~(0xFULL << shift)) | (w << shift);
    shift += 4;
  };
  for (std::uint32_t i = 0; i < cfg_.ways; ++i) {
    const std::uint64_t w = (old >> (4 * i)) & 0xF;
    if (tag_[base + w] != kInvalidTag) push(w);
  }
  for (std::uint32_t w = cfg_.ways; w-- > 0;)
    if (tag_[base + w] == kInvalidTag) push(w);
  order_[set] = order;
  return ev;
}

}  // namespace memdis::cachesim
