#include "cachesim/cache.h"

#include "common/contract.h"
#include "common/units.h"

namespace memdis::cachesim {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg), sets_(0) {
  expects(cfg.line_bytes > 0 && (cfg.line_bytes & (cfg.line_bytes - 1)) == 0,
          "line size must be a power of two");
  expects(cfg.ways > 0, "cache needs at least one way");
  expects(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.ways) * cfg.line_bytes) == 0,
          "cache size must be a multiple of ways * line size");
  sets_ = cfg.num_sets();
  expects(sets_ > 0, "cache must have at least one set");
  expects((sets_ & (sets_ - 1)) == 0, "number of sets must be a power of two");
  line_shift_ = log2_pow2(cfg.line_bytes);
  set_mask_ = sets_ - 1;
  const std::size_t n = sets_ * cfg.ways;
  tag_.assign(n, kInvalidTag);
  lru_.assign(n, 0);
  flags_.assign(n, 0);
  mru_way_.assign(sets_, 0);
}

std::optional<Eviction> SetAssocCache::fill(std::uint64_t addr, bool dirty, bool prefetched) {
  // Refill of a present line (e.g. prefetch racing demand): refresh only.
  // The presence check scans every way before any victim is chosen, so a
  // hole left by invalidate() in front of the line cannot duplicate it.
  if (const std::size_t idx = find(addr); idx != kNpos) {
    lru_[idx] = ++tick_;
    if (dirty) flags_[idx] |= kDirty;
    return std::nullopt;
  }
  return fill_absent(addr, dirty, prefetched);
}

std::optional<Eviction> SetAssocCache::fill_absent(std::uint64_t addr, bool dirty,
                                                   bool prefetched) {
  const std::uint64_t aligned = line_align(addr);
  const std::uint64_t set = set_of(addr);
  const std::size_t base = set * cfg_.ways;
#ifndef NDEBUG
  expects(!contains(addr), "fill_absent of a resident line");
#endif
  // Victim selection: first invalid way wins, else the first LRU minimum
  // in way order. Invalid ways keep lru == 0 (valid lines carry ticks >= 1
  // — the class invariant), so both rules collapse into one pure argmin
  // over the dense LRU plane: the first zero IS the first invalid way. No
  // tag reads, no early-exit branch — and first-min tie-breaking holds on
  // both the wide and scalar argmin paths.
  const std::uint32_t victim_way = simd::argmin_first(&lru_[base], cfg_.ways);
  const std::size_t victim = base + victim_way;
  std::optional<Eviction> evicted;
  if (tag_[victim] != kInvalidTag) evicted = eviction_of(victim);
  tag_[victim] = aligned;
  flags_[victim] = (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0) |
                   (prefetched ? 0 : kReferenced);
  lru_[victim] = ++tick_;
  mru_way_[set] = victim_way;
  return evicted;
}

SetAssocCache::Snapshot SetAssocCache::snapshot() const {
  return Snapshot{tick_, tag_, lru_, flags_};
}

void SetAssocCache::restore(const Snapshot& s) {
  expects(s.tag.size() == tag_.size() && s.lru.size() == lru_.size() &&
              s.flags.size() == flags_.size(),
          "snapshot restored into a cache of different geometry");
  tick_ = s.tick;
  tag_ = s.tag;
  lru_ = s.lru;
  flags_ = s.flags;
}

std::uint64_t SetAssocCache::digest() const {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xffU;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(tick_);
  for (const auto t : tag_) mix(t);
  for (const auto l : lru_) mix(l);
  for (const auto f : flags_) {
    h ^= f;
    h *= 1099511628211ULL;
  }
  return h;
}

std::optional<Eviction> SetAssocCache::invalidate(std::uint64_t addr) {
  const std::size_t idx = find(addr);
  if (idx == kNpos) return std::nullopt;
  const Eviction ev = eviction_of(idx);
  tag_[idx] = kInvalidTag;
  lru_[idx] = 0;  // invariant: invalid ways read as LRU tick 0
  return ev;
}

}  // namespace memdis::cachesim
