// Unit and property tests for the cache hierarchy: set-associative LRU
// cache (with a way-loop reference cache as its differential oracle),
// stream prefetcher (training, direction, throttling, page bounds, and a
// differential oracle for its stream table), the SIMD way-scan
// primitives, and hardware counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "cachesim/cache.h"
#include "cachesim/hierarchy.h"
#include "cachesim/prefetcher.h"
#include "common/contract.h"
#include "common/rng.h"
#include "common/simd.h"
#include "memsim/page_table.h"

namespace memdis::cachesim {
namespace {

using memsim::MachineConfig;
using memsim::kNodeTier;
using memsim::TieredMemory;

// ---------- SetAssocCache ----------------------------------------------------

TEST(Cache, MissThenHit) {
  SetAssocCache c({1024, 2, 64});
  EXPECT_FALSE(c.access(0, false).hit);
  c.fill(0, false, false);
  EXPECT_TRUE(c.access(0, false).hit);
}

TEST(Cache, HitAnywhereInLine) {
  SetAssocCache c({1024, 2, 64});
  c.fill(128, false, false);
  EXPECT_TRUE(c.access(128 + 63, true).hit);
  EXPECT_FALSE(c.access(192, false).hit);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, 8 sets: addresses 0, 1024, 2048 map to set 0 (line 64, sets 8).
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, false);
  c.fill(1024, false, false);
  (void)c.access(0, false);  // make line 0 MRU
  const auto ev = c.fill(2048, false, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 1024u);  // LRU victim
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(2048));
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, true, false);
  c.fill(1024, false, false);
  const auto ev = c.fill(2048, false, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0u);
  EXPECT_TRUE(ev->dirty);
}

TEST(Cache, StoreHitSetsDirty) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, false);
  (void)c.access(0, true);
  const auto ev = c.invalidate(0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(Cache, PrefetchedLineFirstUseReported) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, /*prefetched=*/true);
  const auto h1 = c.access(0, false);
  EXPECT_TRUE(h1.hit);
  EXPECT_TRUE(h1.first_use_of_prefetch);
  const auto h2 = c.access(0, false);
  EXPECT_FALSE(h2.first_use_of_prefetch);  // only the first use counts
}

TEST(Cache, UnusedPrefetchEvictionFlagged) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, true);
  c.fill(1024, false, false);
  const auto ev = c.fill(2048, false, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->prefetched_unused);
}

TEST(Cache, UsedPrefetchEvictionNotFlagged) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, true);
  (void)c.access(0, false);
  c.fill(1024, false, false);
  (void)c.access(1024, false);
  const auto ev = c.fill(2048, false, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->prefetched_unused);
}

TEST(Cache, RefillOfPresentLineDoesNotEvict) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, false, false);
  EXPECT_FALSE(c.fill(0, true, false).has_value());
  const auto ev = c.invalidate(0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);  // refill merged the dirty bit
}

TEST(Cache, DrainVisitsAllValidLines) {
  SetAssocCache c({1024, 2, 64});
  c.fill(0, true, false);
  c.fill(64, false, false);
  int seen = 0;
  c.drain([&](const Eviction&) { ++seen; });
  EXPECT_EQ(seen, 2);
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, InvalidConfigViolatesContract) {
  EXPECT_THROW(SetAssocCache({1024, 0, 64}), contract_violation);
  EXPECT_THROW(SetAssocCache({1000, 2, 60}), contract_violation);
}

TEST(Cache, NonMultipleSizeViolatesContract) {
  // 1100 B / (2 ways * 64 B) truncates to 8 sets — a 1024 B cache quietly
  // simulated in place of the configured 1100 B one. Rejected instead.
  EXPECT_THROW(SetAssocCache({1100, 2, 64}), contract_violation);
  EXPECT_THROW(SetAssocCache({64 * 8 * 4 + 64, 4, 64}), contract_violation);
  EXPECT_NO_THROW(SetAssocCache({64 * 8 * 4, 4, 64}));
}

TEST(Cache, IndexOfBatchMatchesIndexOf) {
  SetAssocCache a({4096, 4, 64});
  SetAssocCache b({4096, 4, 64});
  for (std::uint64_t i = 0; i < 24; ++i) {
    a.fill(i * 192, false, false);
    b.fill(i * 192, false, false);
  }
  std::uint64_t lines[8];
  for (std::uint64_t i = 0; i < 8; ++i) lines[i] = i * 384;
  std::size_t batched[8];
  a.index_of_batch(lines, 8, batched);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(batched[i], b.index_of(lines[i]));
  EXPECT_EQ(a.digest(), b.digest());
}

// Property: for any power-of-two geometry, filling N distinct lines in one
// set keeps exactly `ways` resident.
class CacheGeometryTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheGeometryTest, SetNeverExceedsWays) {
  const std::uint32_t ways = GetParam();
  SetAssocCache c({64 * 8 * ways, ways, 64});
  const std::uint64_t set_stride = 8 * 64;  // 8 sets
  for (std::uint64_t i = 0; i < ways + 4; ++i) c.fill(i * set_stride, false, false);
  int resident = 0;
  for (std::uint64_t i = 0; i < ways + 4; ++i)
    if (c.contains(i * set_stride)) ++resident;
  EXPECT_EQ(resident, static_cast<int>(ways));
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheGeometryTest, ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ---------- SIMD primitives vs the scalar reference loops --------------------

// The shim's wide primitives against their scalar reference loops, over
// every row length up to the first vector-width multiple past the 64-lane
// mask (so 64 itself, the >64 plain-loop fallback at 68, and every
// non-multiple of the vector width),
// with heavy ties and matches. Trivially true in a -DMEMDIS_SIMD=OFF
// build, where both sides are the same loop.
TEST(Simd, PrimitivesMatchScalarReference) {
  Xoshiro256 rng(123);
  for (std::uint32_t n = 1; n <= 68; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::uint64_t> xs(n);
      for (auto& x : xs) x = rng.uniform_below(8);
      const std::uint64_t key = rng.uniform_below(8);
      const auto skip = static_cast<std::uint32_t>(rng.uniform_below(n));
      if (xs[skip] == key) xs[skip] ^= 1;  // the wide path's caller contract
      EXPECT_EQ(simd::find_equal_except(xs.data(), n, key, skip),
                simd::find_equal_scalar(xs.data(), n, key, skip));
      EXPECT_EQ(simd::argmin_first(xs.data(), n), simd::argmin_first_scalar(xs.data(), n));
    }
  }
}

// Planted rows: the minimum (and a unique key) at every position, with a
// duplicate minimum later in the row, over values straddling the sign bit
// (the AVX2 reduction's bias) — plus rows whose lanes are all equal.
TEST(Simd, PlantedAndAllEqualRowsMatchScalarReference) {
  Xoshiro256 rng(321);
  const std::uint64_t kBases[] = {0, 1, 0x7fffffffffffffffULL, 0x8000000000000000ULL,
                                  0xfffffffffffffff0ULL};
  for (std::uint32_t n = 1; n <= 68; ++n) {
    for (const std::uint64_t base : kBases) {
      for (std::uint32_t pos = 0; pos < n; ++pos) {
        std::vector<std::uint64_t> xs(n);
        for (auto& x : xs) x = base + 1 + rng.uniform_below(8);
        xs[pos] = base;
        if (pos + 1 < n) xs[pos + 1 + rng.uniform_below(n - pos - 1)] = base;
        EXPECT_EQ(simd::argmin_first(xs.data(), n), simd::argmin_first_scalar(xs.data(), n))
            << "n=" << n << " pos=" << pos;
        EXPECT_EQ(simd::argmin_first(xs.data(), n), pos);
        // Unique key at pos: rewrite the duplicate so the key occurs once.
        for (std::uint32_t i = pos + 1; i < n; ++i)
          if (xs[i] == base) xs[i] = base + 1;
        const std::uint32_t skip = (pos + 1) % n == pos ? simd::kNoSkip : (pos + 1) % n;
        EXPECT_EQ(simd::find_equal_except(xs.data(), n, base, skip), pos);
        EXPECT_EQ(simd::find_equal_except(xs.data(), n, base - 1, skip), n);
      }
      const std::vector<std::uint64_t> flat(n, base);
      EXPECT_EQ(simd::argmin_first(flat.data(), n), 0u);
      EXPECT_EQ(simd::find_equal_except(flat.data(), n, base, simd::kNoSkip), 0u);
    }
  }
}

/// SetAssocCache as plain way loops: a lookup scans the ways in order and
/// a fill evicts the first invalid way, else the first LRU minimum. No MRU
/// hint and no SIMD primitive. Its planes use SetAssocCache::Snapshot's
/// encoding (tag ~0 and LRU tick 0 mark an invalid way; invalidation
/// leaves the flags), so the two caches' snapshots compare directly.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : ways_(cfg.ways),
        line_bytes_(cfg.line_bytes),
        sets_(cfg.num_sets()),
        tag_(sets_ * ways_, kInvalid),
        lru_(sets_ * ways_, 0),
        flags_(sets_ * ways_, 0) {}

  SetAssocCache::HitInfo access(std::uint64_t addr, bool is_store) {
    const std::size_t i = find(addr);
    if (i == kNpos) return {};
    SetAssocCache::HitInfo info;
    info.hit = true;
    info.first_use_of_prefetch = (flags_[i] & kPrefetched) != 0 && (flags_[i] & kReferenced) == 0;
    flags_[i] |= kReferenced | (is_store ? kDirty : 0);
    lru_[i] = ++tick_;
    return info;
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const { return find(addr) != kNpos; }

  std::optional<Eviction> fill(std::uint64_t addr, bool dirty, bool prefetched) {
    if (const std::size_t i = find(addr); i != kNpos) {
      lru_[i] = ++tick_;
      if (dirty) flags_[i] |= kDirty;
      return std::nullopt;
    }
    const std::size_t base = set_base(addr);
    std::size_t victim = base;
    for (std::size_t i = base; i < base + ways_; ++i) {
      if (tag_[i] == kInvalid) {
        victim = i;
        break;
      }
      if (lru_[i] < lru_[victim]) victim = i;
    }
    std::optional<Eviction> evicted;
    if (tag_[victim] != kInvalid) evicted = eviction_of(victim);
    tag_[victim] = addr & ~(line_bytes_ - 1);
    flags_[victim] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                               (prefetched ? kPrefetched : kReferenced));
    lru_[victim] = ++tick_;
    return evicted;
  }

  std::optional<Eviction> invalidate(std::uint64_t addr) {
    const std::size_t i = find(addr);
    if (i == kNpos) return std::nullopt;
    const Eviction ev = eviction_of(i);
    tag_[i] = kInvalid;
    lru_[i] = 0;
    return ev;
  }

  template <typename Sink>
  void drain(Sink&& sink) {
    for (std::size_t i = 0; i < tag_.size(); ++i) {
      if (tag_[i] == kInvalid) continue;
      sink(eviction_of(i));
      tag_[i] = kInvalid;
      lru_[i] = 0;
    }
  }

  [[nodiscard]] SetAssocCache::Snapshot snapshot() const { return {tick_, tag_, lru_, flags_}; }

 private:
  static constexpr std::uint64_t kInvalid = ~0ULL;
  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::uint8_t kDirty = 1;
  static constexpr std::uint8_t kPrefetched = 2;
  static constexpr std::uint8_t kReferenced = 4;

  [[nodiscard]] std::size_t set_base(std::uint64_t addr) const {
    return (addr / line_bytes_ % sets_) * ways_;
  }
  [[nodiscard]] std::size_t find(std::uint64_t addr) const {
    const std::uint64_t line = addr & ~(line_bytes_ - 1);
    const std::size_t base = set_base(addr);
    for (std::size_t i = base; i < base + ways_; ++i)
      if (tag_[i] == line) return i;
    return kNpos;
  }
  [[nodiscard]] Eviction eviction_of(std::size_t i) const {
    return {tag_[i], (flags_[i] & kDirty) != 0,
            (flags_[i] & kPrefetched) != 0 && (flags_[i] & kReferenced) == 0};
  }

  std::size_t ways_;
  std::uint64_t line_bytes_;
  std::uint64_t sets_;
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> tag_;
  std::vector<std::uint64_t> lru_;
  std::vector<std::uint8_t> flags_;
};

bool same_eviction(const std::optional<Eviction>& a, const std::optional<Eviction>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->line_addr == b->line_addr && a->dirty == b->dirty &&
                a->prefetched_unused == b->prefetched_unused);
}

// Differential property: on a seeded access/fill/invalidate/drain stream,
// SetAssocCache reports the reference's hit, prefetch first use and
// eviction after every op and ends in the same snapshot planes. The way
// scan and victim argmin run on the build's ISA — wide by default, the
// scalar loops in a -DMEMDIS_SIMD=OFF build — against the same oracle.
// Way counts cover a non-power-of-two row (12) and the one-chunk row (4).
class CacheDifferentialTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheDifferentialTest, MatchesReferenceCacheOnSeededStreams) {
  const std::uint32_t ways = GetParam();
  const CacheConfig cfg{static_cast<std::uint64_t>(64) * 16 * ways, ways, 64};
  SetAssocCache c(cfg);
  ReferenceCache ref(cfg);
  Xoshiro256 rng(0x5eed0000u + ways);
  std::vector<Eviction> drained, ref_drained;
  std::uint64_t hits = 0, evictions = 0;
  const std::uint64_t span = cfg.size_bytes * 4;  // 4x capacity → constant conflict
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE(testing::Message() << "op " << i);
    const std::uint64_t addr = rng.uniform_below(span);
    const bool store = rng.uniform_below(2) != 0;
    switch (rng.uniform_below(8)) {
      case 0:
      case 1:
      case 2: {
        const auto got = c.access(addr, store);
        const auto want = ref.access(addr, store);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.first_use_of_prefetch, want.first_use_of_prefetch);
        hits += got.hit ? 1 : 0;
        break;
      }
      case 3:
      case 4: {
        const bool prefetched = rng.uniform_below(4) == 0;
        const auto got = c.fill(addr, store, prefetched);
        ASSERT_TRUE(same_eviction(got, ref.fill(addr, store, prefetched)));
        evictions += got ? 1 : 0;
        break;
      }
      case 5: {
        const bool present = c.contains(addr);
        ASSERT_EQ(present, ref.contains(addr));
        if (!present) {
          const auto got = c.fill_absent(addr, store, false);
          ASSERT_TRUE(same_eviction(got, ref.fill(addr, store, false)));
          evictions += got ? 1 : 0;
        }
        break;
      }
      case 6:
        ASSERT_TRUE(same_eviction(c.invalidate(addr), ref.invalidate(addr)));
        break;
      default:
        if (rng.uniform_below(64) == 0) {
          c.drain([&](const Eviction& ev) { drained.push_back(ev); });
          ref.drain([&](const Eviction& ev) { ref_drained.push_back(ev); });
          ASSERT_EQ(drained.size(), ref_drained.size());
          for (std::size_t k = 0; k < drained.size(); ++k)
            ASSERT_TRUE(same_eviction(drained[k], ref_drained[k])) << "drained line " << k;
        }
        break;
    }
  }
  EXPECT_GT(hits, 500u);  // the stream both hits and conflicts
  EXPECT_GT(evictions, 1000u);
  const auto got = c.snapshot();
  const auto want = ref.snapshot();
  EXPECT_EQ(got.tick, want.tick);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.lru, want.lru);
  EXPECT_EQ(got.flags, want.flags);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferentialTest, ::testing::Values(4u, 8u, 12u, 16u));

// ---------- StreamPrefetcher ---------------------------------------------------

PrefetcherConfig pf_config() {
  PrefetcherConfig cfg;
  cfg.num_streams = 4;
  cfg.max_degree = 4;
  cfg.train_threshold = 2;
  return cfg;
}

TEST(Prefetcher, TrainsOnAscendingStream) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 4; ++i) {
    out.clear();
    pf.observe(static_cast<std::uint64_t>(i) * 64, false, out);
  }
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out.front().line_addr, 4u * 64u);  // next line ahead
}

TEST(Prefetcher, TrainsOnDescendingStream) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  for (int i = 40; i >= 36; --i) {
    out.clear();
    pf.observe(static_cast<std::uint64_t>(i) * 64, false, out);
  }
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out.front().line_addr, 35u * 64u);
}

TEST(Prefetcher, RandomAccessesNeverTrain) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  const std::uint64_t lines[] = {3, 40, 11, 60, 25, 7, 50, 1};
  for (const auto l : lines) pf.observe(l * 64, false, out);
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, NeverCrossesPageBoundary) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  const std::uint64_t last_lines = 4096 / 64;  // 64 lines per page
  for (std::uint64_t l = last_lines - 5; l < last_lines; ++l) {
    out.clear();
    pf.observe(l * 64, false, out);
  }
  for (const auto& req : out) EXPECT_LT(req.line_addr, 4096u);
}

TEST(Prefetcher, RfoFlagFollowsStoreStream) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 4; ++i) {
    out.clear();
    pf.observe(static_cast<std::uint64_t>(i) * 64, /*is_store=*/true, out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(out.front().rfo);
}

TEST(Prefetcher, DisabledIssuesNothing) {
  auto cfg = pf_config();
  cfg.enabled = false;
  StreamPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 10; ++i) pf.observe(static_cast<std::uint64_t>(i) * 64, false, out);
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, ThrottlesOnLowAccuracy) {
  StreamPrefetcher pf(pf_config());
  // Issue many prefetches that never see a demand use: accuracy
  // collapses, degree drops to 1.
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 40; ++i) {
    out.clear();
    pf.observe(static_cast<std::uint64_t>(i % 60) * 64, false, out);
  }
  EXPECT_LT(pf.accuracy_estimate(), 0.35);
  EXPECT_EQ(pf.effective_degree(), 1u);
}

TEST(Prefetcher, HighAccuracyKeepsFullDegree) {
  StreamPrefetcher pf(pf_config());
  std::vector<PrefetchRequest> out;
  for (int i = 0; i < 16; ++i) {
    out.clear();
    pf.observe(static_cast<std::uint64_t>(i) * 64, false, out);
    for (std::size_t k = 0; k < out.size(); ++k) pf.record_useful();
  }
  EXPECT_GT(pf.accuracy_estimate(), 0.7);
  EXPECT_EQ(pf.effective_degree(), 4u);
}

TEST(Prefetcher, StreamTableEvictsLru) {
  auto cfg = pf_config();
  cfg.num_streams = 2;
  StreamPrefetcher pf(cfg);
  std::vector<PrefetchRequest> out;
  // Train streams in pages 0 and 1, then a page-2 stream evicts page 0.
  for (int i = 0; i < 3; ++i) pf.observe(static_cast<std::uint64_t>(i) * 64, false, out);
  for (int i = 0; i < 3; ++i) pf.observe(4096 + static_cast<std::uint64_t>(i) * 64, false, out);
  for (int i = 0; i < 3; ++i) pf.observe(8192 + static_cast<std::uint64_t>(i) * 64, false, out);
  out.clear();
  // Page 0 must retrain from scratch: one access issues nothing.
  pf.observe(10 * 64, false, out);
  EXPECT_TRUE(out.empty());
}

// The stream table as an array of structs with one front-to-back scan —
// the prefetcher's former lookup, kept as the reference for the
// struct-of-arrays table: hit on the hinted entry or the first matching
// valid entry; otherwise replace the last invalid entry, else the first
// least-recently-touched one. The rest of observe() is copied unchanged.
class ReferencePrefetcher {
 public:
  explicit ReferencePrefetcher(const PrefetcherConfig& cfg)
      : cfg_(cfg), streams_(cfg.num_streams) {}

  void observe(std::uint64_t addr, bool is_store, std::vector<PrefetchRequest>& out) {
    ++tick_;
    const std::uint64_t page = addr / cfg_.page_bytes;
    const auto line_in_page =
        static_cast<std::int64_t>((addr % cfg_.page_bytes) / cfg_.line_bytes);
    const auto lines_per_page = static_cast<std::int64_t>(cfg_.page_bytes / cfg_.line_bytes);
    Stream& s = lookup_stream(page);
    const bool fresh = s.last_line < 0;
    const std::int64_t step = fresh ? 0 : line_in_page - s.last_line;
    s.last_tick = tick_;
    if (fresh || step == 0) {
      s.last_line = line_in_page;
      return;
    }
    if ((step == 1 && s.direction >= 0) || (step == -1 && s.direction <= 0)) {
      s.direction = step > 0 ? 1 : -1;
      s.run_length = std::min<std::uint32_t>(s.run_length + 1, 64);
    } else {
      s.direction = 0;
      s.run_length = 0;
    }
    s.last_line = line_in_page;
    if (s.run_length < cfg_.train_threshold || s.direction == 0) return;
    const std::uint32_t confidence_degree =
        std::min<std::uint32_t>(s.run_length - cfg_.train_threshold + 1, cfg_.max_degree);
    const std::uint32_t degree = std::min(confidence_degree, effective_degree());
    for (std::uint32_t k = 1; k <= degree; ++k) {
      const std::int64_t target = line_in_page + s.direction * static_cast<std::int64_t>(k);
      if (target < 0 || target >= lines_per_page) break;
      out.push_back(PrefetchRequest{
          page * cfg_.page_bytes + static_cast<std::uint64_t>(target) * cfg_.line_bytes,
          is_store});
      window_issued_ += 1.0;
    }
    if (window_issued_ > 4096.0) {
      window_issued_ *= 0.5;
      window_useful_ *= 0.5;
    }
  }

  void record_useful() { window_useful_ += 1.0; }

  [[nodiscard]] std::uint32_t effective_degree() const {
    const double acc =
        window_issued_ <= 0.0 ? 1.0 : std::min(window_useful_ / window_issued_, 1.0);
    if (acc >= cfg_.throttle_high) return cfg_.max_degree;
    if (acc >= cfg_.throttle_low) return std::max<std::uint32_t>(cfg_.max_degree / 2, 1);
    return 1;
  }

 private:
  struct Stream {
    std::uint64_t page = 0;
    std::int64_t last_line = 0;
    int direction = 0;
    std::uint32_t run_length = 0;
    std::uint64_t last_tick = 0;
    bool valid = false;
  };

  Stream& lookup_stream(std::uint64_t page) {
    const std::uint64_t slot = page & 63;
    Stream& hinted = streams_[hint_[slot]];
    if (hinted.valid && hinted.page == page) return hinted;
    Stream* lru = &streams_[0];
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& s = streams_[i];
      if (s.valid && s.page == page) {
        hint_[slot] = i;
        return s;
      }
      if (!s.valid || s.last_tick < lru->last_tick) lru = &s;
    }
    *lru = Stream{page, -1, 0, 0, 0, true};
    hint_[slot] = static_cast<std::size_t>(lru - streams_.data());
    return *lru;
  }

  PrefetcherConfig cfg_;
  std::vector<Stream> streams_;
  std::size_t hint_[64] = {};
  std::uint64_t tick_ = 0;
  double window_useful_ = 8.0;
  double window_issued_ = 10.0;
};

// Differential property: the struct-of-arrays stream table emits exactly
// the reference's requests (address and RFO flag) and degree after every
// observe, on seeded streams that exercise the page lookup, the unused-
// entry countdown and the LRU victim scan — on the build's ISA, so wide in
// the default build and scalar in a -DMEMDIS_SIMD=OFF build. Table sizes
// cover the vector rows (4, 16) and the plain-loop lengths (1, 3, 17).
class PrefetcherOracleTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PrefetcherOracleTest, StreamTableMatchesReferenceScan) {
  PrefetcherConfig cfg;
  cfg.num_streams = GetParam();
  const std::uint64_t page_size = cfg.page_bytes;
  const std::uint64_t lines = page_size / cfg.line_bytes;

  // One seeded run: `next(rng)` yields (address, is_store); both
  // prefetchers observe it, and demand uses are credited to both alike.
  // `next` is taken by value, so a stateful generator starts fresh.
  // Counts the requests emitted into `emitted`.
  std::size_t emitted = 0;
  const auto check = [&](std::uint64_t seed, int steps, auto next) {
    StreamPrefetcher pf(cfg);
    ReferencePrefetcher ref(cfg);
    Xoshiro256 rng(seed);
    std::vector<PrefetchRequest> got;
    std::vector<PrefetchRequest> want;
    for (int i = 0; i < steps; ++i) {
      const auto [addr, store] = next(rng);
      got.clear();
      want.clear();
      pf.observe(addr, store, got);
      ref.observe(addr, store, want);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << i;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].line_addr, want[k].line_addr) << "seed " << seed << " step " << i;
        ASSERT_EQ(got[k].rfo, want[k].rfo) << "seed " << seed << " step " << i;
      }
      ASSERT_EQ(pf.effective_degree(), ref.effective_degree()) << "seed " << seed << " step " << i;
      emitted += got.size();
      if (!got.empty() && rng.uniform_below(3) == 0) {
        pf.record_useful();
        ref.record_useful();
      }
    }
  };

  // Uniform random lines over a few more pages than the table holds.
  const std::uint64_t pages = 2 * cfg.num_streams + 3;
  const auto uniform = [&](Xoshiro256& rng) {
    return std::pair{rng.uniform_below(pages * page_size), rng.uniform_below(4) == 0};
  };

  // More interleaved ascending and descending streams than table entries,
  // drawing pages from a small pool so streams revisit pages (LRU thrash),
  // with the odd repeat, jump or direction break.
  struct Walker {
    std::uint64_t page = 0;
    std::int64_t line = 0;
    int dir = 1;
  };
  const std::uint64_t pool = cfg.num_streams + 5;
  const auto interleaved = [&, walkers = std::vector<Walker>{}](Xoshiro256& rng) mutable {
    if (walkers.empty()) {  // first call of a run: place the walkers
      walkers.resize(cfg.num_streams + 3);
      for (auto& w : walkers) {
        w.page = rng.uniform_below(pool);
        w.line = static_cast<std::int64_t>(rng.uniform_below(lines));
        w.dir = rng.uniform_below(2) == 0 ? 1 : -1;
      }
    }
    Walker& w = walkers[rng.uniform_below(walkers.size())];
    switch (rng.uniform_below(16)) {
      case 0:  // repeat the line
        break;
      case 1:  // direction break
        w.dir = -w.dir;
        w.line += w.dir;
        break;
      case 2:  // jump within the page
        w.line = static_cast<std::int64_t>(rng.uniform_below(lines));
        break;
      default:
        w.line += w.dir;
        break;
    }
    if (w.line < 0 || w.line >= static_cast<std::int64_t>(lines)) {
      w.page = rng.uniform_below(pool);  // next page of the stream
      w.line = w.dir > 0 ? 0 : static_cast<std::int64_t>(lines) - 1;
    }
    // Descending walkers store, so both RFO flags reach the requests.
    return std::pair{w.page * page_size + static_cast<std::uint64_t>(w.line) * cfg.line_bytes,
                     w.dir < 0};
  };

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check(seed, 20000, uniform);
    emitted = 0;
    check(100 + seed, 20000, interleaved);
    EXPECT_GT(emitted, 500u);  // the streams do train
  }
  // Cold starts: fresh tables that just fill (and first replace) entries.
  for (std::uint64_t seed = 200; seed < 264; ++seed) {
    check(seed, static_cast<int>(cfg.num_streams) + 3, uniform);
    check(seed + 1000, static_cast<int>(cfg.num_streams) * 4, interleaved);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, PrefetcherOracleTest, ::testing::Values(1u, 3u, 4u, 16u, 17u));

// ---------- CacheHierarchy -------------------------------------------------------

HierarchyConfig tiny_hierarchy() {
  HierarchyConfig cfg;
  cfg.l1 = {1024, 2, 64};
  cfg.l2 = {4096, 4, 64};
  cfg.l3 = {16384, 8, 64};
  return cfg;
}

TEST(Hierarchy, FirstAccessGoesToDram) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  const auto res = h.access(r.base, false);
  EXPECT_EQ(res.level, HitLevel::kDram);
  EXPECT_EQ(h.counters().offcore_l3_miss, 1u);
  EXPECT_EQ(h.counters().demand_dram[0], 1u);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  (void)h.access(r.base, false);
  const auto res = h.access(r.base, false);
  EXPECT_EQ(res.level, HitLevel::kL1);
  EXPECT_EQ(h.counters().l1_hits, 1u);
}

TEST(Hierarchy, LoadsAndStoresCounted) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  (void)h.access(r.base, false);
  (void)h.access(r.base + 64, true);
  EXPECT_EQ(h.counters().loads, 1u);
  EXPECT_EQ(h.counters().stores, 1u);
}

TEST(Hierarchy, DramBytesArePerLine) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  h.set_prefetch_enabled(false);
  for (int i = 0; i < 10; ++i) (void)h.access(r.base + static_cast<std::uint64_t>(i) * 64, false);
  EXPECT_EQ(h.counters().dram_read_bytes[0], 10 * 64u);
}

TEST(Hierarchy, RemoteTierCounted) {
  MachineConfig cfg = MachineConfig::skylake_testbed();
  cfg.node_tier().capacity_bytes = 4096;  // one page local, rest spills
  TieredMemory mem(cfg);
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  h.set_prefetch_enabled(false);
  (void)h.access(r.base, false);          // local page
  (void)h.access(r.base + 4096, false);   // remote page
  EXPECT_EQ(h.counters().offcore_dram[0], 1u);
  EXPECT_EQ(h.counters().offcore_dram[1], 1u);
}

TEST(Hierarchy, StreamingTriggersPrefetchFills) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  for (int i = 0; i < 32; ++i) (void)h.access(r.base + static_cast<std::uint64_t>(i) * 64, false);
  EXPECT_GT(h.counters().prefetch_fills(), 0u);
  EXPECT_GT(h.counters().pf_hits, 0u);
}

TEST(Hierarchy, PrefetchDisabledMatchesDemandOnly) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  h.set_prefetch_enabled(false);
  const auto r = mem.alloc(1 << 20);
  for (int i = 0; i < 32; ++i) (void)h.access(r.base + static_cast<std::uint64_t>(i) * 64, false);
  EXPECT_EQ(h.counters().prefetch_fills(), 0u);
  EXPECT_EQ(h.counters().offcore_l3_miss, 32u);
}

TEST(Hierarchy, PrefetchCoversDemandMisses) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  for (int i = 0; i < 64; ++i) (void)h.access(r.base + static_cast<std::uint64_t>(i) * 64, false);
  // With the streamer on, many of the 64 line touches are prefetched, so
  // demand DRAM misses are well below 64.
  EXPECT_LT(h.counters().demand_dram_total(), 40u);
}

TEST(Hierarchy, DirtyWritebackOnDrain) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  (void)h.access(r.base, true);  // dirty line
  h.drain();
  EXPECT_EQ(h.counters().dram_writeback_bytes[0], 64u);
}

TEST(Hierarchy, CleanDrainWritesNothing) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  (void)h.access(r.base, false);
  h.drain();
  EXPECT_EQ(h.counters().dram_writeback_bytes[0], 0u);
}

TEST(Hierarchy, WritebackTargetsCorrectTier) {
  MachineConfig cfg = MachineConfig::skylake_testbed();
  cfg.node_tier().capacity_bytes = 4096;  // one page, filled by the first touch
  TieredMemory mem(cfg);
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  h.set_prefetch_enabled(false);
  (void)h.access(r.base, false);        // page 0 claims the only local page
  (void)h.access(r.base + 4096, true);  // page 1 spills remote, line dirtied
  h.drain();
  EXPECT_EQ(h.counters().dram_writeback_bytes[1], 64u);
  EXPECT_EQ(h.counters().dram_writeback_bytes[0], 0u);
}

TEST(Hierarchy, CountersDeltaSince) {
  TieredMemory mem(MachineConfig::skylake_testbed());
  CacheHierarchy h(tiny_hierarchy(), mem);
  const auto r = mem.alloc(1 << 20);
  (void)h.access(r.base, false);
  const HwCounters snap = h.counters();
  (void)h.access(r.base, false);
  (void)h.access(r.base + 64, true);
  const HwCounters d = h.counters().delta_since(snap);
  EXPECT_EQ(d.loads, 1u);
  EXPECT_EQ(d.stores, 1u);
  EXPECT_EQ(d.l1_hits, 1u);
}

}  // namespace
}  // namespace memdis::cachesim
