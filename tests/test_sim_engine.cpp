// Tests for the execution engine: instrumented arrays, epoch/phase
// accounting, the time model's monotonicity properties, and determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/contract.h"
#include "sim/array.h"
#include "sim/engine.h"

namespace memdis::sim {
namespace {

EngineConfig fast_engine() {
  EngineConfig cfg;
  cfg.epoch_accesses = 10'000;
  return cfg;
}

// ---------- Array -------------------------------------------------------------

TEST(Array, LoadReturnsStoredValue) {
  Engine eng(fast_engine());
  Array<double> a(eng, 128);
  a.st(5, 3.25);
  EXPECT_DOUBLE_EQ(a.ld(5), 3.25);
}

TEST(Array, ProxyReadsAndWrites) {
  Engine eng(fast_engine());
  Array<int> a(eng, 16);
  a[3] = 7;
  const int v = a[3];
  EXPECT_EQ(v, 7);
  a[3] += 2;
  EXPECT_EQ(static_cast<int>(a[3]), 9);
}

TEST(Array, RmwDoesOneLoadOneStore) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8);
  a.st(0, 1.0);
  const auto before = eng.counters();
  a.rmw(0, [](double v) { return v + 1.0; });
  const auto d = eng.counters().delta_since(before);
  EXPECT_EQ(d.loads, 1u);
  EXPECT_EQ(d.stores, 1u);
  EXPECT_DOUBLE_EQ(a.raw()[0], 2.0);
}

TEST(Array, AddressesAreContiguous) {
  Engine eng(fast_engine());
  Array<double> a(eng, 16);
  EXPECT_EQ(a.addr_of(1) - a.addr_of(0), sizeof(double));
  EXPECT_EQ(a.addr_of(0), a.range().base);
}

TEST(Array, AccessesFlowIntoCounters) {
  Engine eng(fast_engine());
  Array<double> a(eng, 1024);
  for (std::size_t i = 0; i < 1024; ++i) a.st(i, 1.0);
  EXPECT_EQ(eng.counters().stores, 1024u);
}

TEST(Array, ReleaseFreesSimRangeButKeepsHostData) {
  Engine eng(fast_engine());
  Array<double> a(eng, 512);
  a.st(0, 2.5);
  a.release();
  EXPECT_DOUBLE_EQ(a.raw()[0], 2.5);
  EXPECT_FALSE(eng.memory().resident(a.range().base));
}

TEST(Array, DestructorFreesAllocation) {
  Engine eng(fast_engine());
  const std::uint64_t page = eng.memory().page_bytes();
  {
    Array<double> a(eng, page / sizeof(double));
    a.st(0, 1.0);
    EXPECT_GT(eng.memory().used_bytes(memsim::kNodeTier), 0u);
  }
  EXPECT_EQ(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(Array, LeakKeepsPagesResident) {
  Engine eng(fast_engine());
  {
    Array<double> a(eng, 4096);
    a.st(0, 1.0);
    a.leak();
  }
  EXPECT_GT(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(Array, MoveTransfersOwnership) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64);
  a.st(1, 9.0);
  Array<double> b = std::move(a);
  EXPECT_DOUBLE_EQ(b.ld(1), 9.0);
}

TEST(Array, ZeroSizeViolatesContract) {
  Engine eng(fast_engine());
  EXPECT_THROW(Array<double>(eng, 0), contract_violation);
}

TEST(Array, NamedAllocationRecorded) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8, memsim::MemPolicy::first_touch(), "Parents");
  ASSERT_EQ(eng.allocations().size(), 1u);
  EXPECT_EQ(eng.allocations()[0].name, "Parents");
  a.release();
  EXPECT_TRUE(eng.allocations()[0].freed);
}

// ---------- phases & epochs ------------------------------------------------------

TEST(Phases, RecordsTaggedRegions) {
  Engine eng(fast_engine());
  Array<double> a(eng, 4096);
  eng.pf_start("p1");
  for (std::size_t i = 0; i < 4096; ++i) a.st(i, 1.0);
  eng.pf_stop();
  eng.pf_start("p2");
  double sum = 0;
  for (std::size_t i = 0; i < 4096; ++i) sum += a.ld(i);
  eng.pf_stop();
  eng.finish();
  ASSERT_EQ(eng.phases().size(), 2u);
  EXPECT_EQ(eng.phases()[0].tag, "p1");
  EXPECT_EQ(eng.phases()[0].counters.stores, 4096u);
  EXPECT_EQ(eng.phases()[1].counters.loads, 4096u);
  EXPECT_GT(sum, 0.0);
}

TEST(Phases, NestedStartViolatesContract) {
  Engine eng(fast_engine());
  eng.pf_start("a");
  EXPECT_THROW(eng.pf_start("b"), contract_violation);
}

TEST(Phases, StopWithoutStartViolatesContract) {
  Engine eng(fast_engine());
  EXPECT_THROW(eng.pf_stop(), contract_violation);
}

TEST(Phases, FinishInsideOpenPhaseViolatesContract) {
  Engine eng(fast_engine());
  eng.pf_start("a");
  EXPECT_THROW(eng.finish(), contract_violation);
}

TEST(Phases, PhaseTimesSumToElapsed) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8192);
  eng.pf_start("p1");
  for (std::size_t i = 0; i < 8192; ++i) a.st(i, 1.0);
  eng.pf_stop();
  eng.pf_start("p2");
  for (std::size_t i = 0; i < 8192; ++i) (void)a.ld(i);
  eng.pf_stop();
  eng.finish();
  double phase_sum = 0;
  for (const auto& p : eng.phases()) phase_sum += p.time_s;
  // The final drain epoch is outside any phase; phases cover at least 80%.
  EXPECT_LE(phase_sum, eng.elapsed_seconds() + 1e-12);
  EXPECT_GT(phase_sum, 0.8 * eng.elapsed_seconds());
}

TEST(Epochs, EpochBoundariesRespectQuantum) {
  EngineConfig cfg;
  cfg.epoch_accesses = 1000;
  Engine eng(cfg);
  Array<double> a(eng, 64 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  EXPECT_GT(eng.epochs().size(), 10u);
  for (const auto& e : eng.epochs()) {
    EXPECT_GE(e.duration_s, 0.0);
    EXPECT_GE(e.start_s, 0.0);
  }
}

TEST(Epochs, StartTimesAreMonotone) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  double prev = -1.0;
  for (const auto& e : eng.epochs()) {
    EXPECT_GE(e.start_s, prev);
    prev = e.start_s;
  }
}

TEST(Engine, FlopsAccumulate) {
  Engine eng(fast_engine());
  eng.flops(100);
  eng.flops(23);
  eng.finish();
  EXPECT_EQ(eng.total_flops(), 123u);
  EXPECT_GT(eng.elapsed_seconds(), 0.0);
}

TEST(Engine, FinishTwiceViolatesContract) {
  Engine eng(fast_engine());
  eng.finish();
  EXPECT_THROW(eng.finish(), contract_violation);
}

TEST(Engine, PeakRssTracksResidentPages) {
  Engine eng(fast_engine());
  const std::uint64_t page = eng.memory().page_bytes();
  Array<std::uint8_t> a(eng, 10 * page);
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  eng.finish();
  EXPECT_GE(eng.peak_rss_bytes(), 10 * page);
}

// ---------- time model properties --------------------------------------------------

double run_stream(double loi, bool prefetch, std::uint64_t remote_capacity_pages = 0) {
  EngineConfig cfg;
  cfg.epoch_accesses = 50'000;
  cfg.background_loi = loi;
  if (remote_capacity_pages > 0) {
    cfg.machine.node_tier().capacity_bytes = remote_capacity_pages * cfg.machine.page_bytes;
  }
  Engine eng(cfg);
  eng.set_prefetch_enabled(prefetch);
  Array<double> a(eng, 1 << 19);  // 4 MiB, exceeds L3
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a.ld(i);
  eng.finish();
  EXPECT_GT(sum, 0.0);
  return eng.elapsed_seconds();
}

TEST(TimeModel, PrefetchingSpeedsUpStreaming) {
  const double with_pf = run_stream(0.0, true);
  const double without_pf = run_stream(0.0, false);
  EXPECT_LT(with_pf, without_pf);
}

TEST(TimeModel, InterferenceSlowsRemoteWorkloads) {
  // All pages remote: local capacity = 1 page.
  const double idle = run_stream(0.0, true, 1);
  const double loaded = run_stream(50.0, true, 1);
  EXPECT_GT(loaded, idle * 1.02);
}

TEST(TimeModel, InterferenceHarmlessWhenLocalOnly) {
  const double idle = run_stream(0.0, true);
  const double loaded = run_stream(50.0, true);
  EXPECT_NEAR(loaded, idle, idle * 0.01);
}

TEST(TimeModel, RemotePlacementSlowerThanLocal) {
  const double local = run_stream(0.0, true);
  const double remote = run_stream(0.0, true, 1);
  EXPECT_GT(remote, local * 1.2);
}

TEST(TimeModel, DeterministicAcrossRuns) {
  const double a = run_stream(20.0, true, 1);
  const double b = run_stream(20.0, true, 1);
  EXPECT_DOUBLE_EQ(a, b);
}

// Property sweep: elapsed time grows monotonically with LoI.
class LoiMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(LoiMonotoneTest, HigherLoiNeverFaster) {
  const double loi = GetParam();
  const double t_lo = run_stream(loi, true, 1);
  const double t_hi = run_stream(loi + 10.0, true, 1);
  EXPECT_GE(t_hi, t_lo * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Levels, LoiMonotoneTest, ::testing::Values(0.0, 10.0, 20.0, 30.0, 40.0));

TEST(Engine, EpochLinkTrafficReported) {
  EngineConfig cfg;
  cfg.machine.node_tier().capacity_bytes = cfg.machine.page_bytes;  // force remote
  Engine eng(cfg);
  Array<double> a(eng, 1 << 18);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
  eng.finish();
  bool saw_traffic = false;
  for (const auto& e : eng.epochs())
    if (e.link_traffic_gbps > 0) saw_traffic = true;
  EXPECT_TRUE(saw_traffic);
}

// ---------- allocation bookkeeping -------------------------------------------

// Regression: Engine::free used to scan every allocation ever made; the
// base-address index must keep marking the right allocation freed when
// frees arrive out of allocation order.
TEST(Engine, FreeOutOfAllocationOrderMarksTheRightAllocations) {
  Engine eng(fast_engine());
  const auto a = eng.alloc(4096, memsim::MemPolicy::first_touch(), "a");
  const auto b = eng.alloc(8192, memsim::MemPolicy::first_touch(), "b");
  const auto c = eng.alloc(4096, memsim::MemPolicy::first_touch(), "c");
  eng.free(b);
  eng.free(c);
  const auto& infos = eng.allocations();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_FALSE(infos[0].freed);
  EXPECT_TRUE(infos[1].freed);
  EXPECT_TRUE(infos[2].freed);
  eng.free(a);
  EXPECT_TRUE(eng.allocations()[0].freed);
}

// ---------- bulk access streams ----------------------------------------------

// Drives every bulk entry point through a fixed access script on two
// engines — the batching kernel on vs. the element-wise reference emission
// — and requires the full observable state (all hardware counters, the
// cache levels' tags, LRU ticks and dirty bits, epoch count, simulated
// time, page samples) to match bit-for-bit. It runs under three inputs: a
// small epoch quantum that forces boundaries *inside* batched windows, a
// one-access quantum that closes an epoch at every access, and a tiny L1
// on which same-set strided lanes keep evicting each other.
TEST(BulkApi, FastPathBitIdenticalToElementWise) {
  struct Input {
    std::uint64_t epoch_accesses;
    bool tiny_l1;
    std::size_t n;  // elements per array
  };
  const auto run = [](const Input& in, bool fast) {
    EngineConfig cfg;
    cfg.epoch_accesses = in.epoch_accesses;
    cfg.bulk_fast_path = fast;
    if (in.tiny_l1) cfg.hierarchy.l1 = cachesim::CacheConfig{1024, 2, 64};  // 8 sets x 2 ways
    Engine eng(cfg);
    const std::size_t kN = in.n;
    Array<double> a(eng, kN);
    Array<double> b(eng, kN);
    Array<std::uint32_t> idx(eng, kN);
    eng.load_range(a.addr_of(0), kN * 8, 8);
    eng.store_range(b.addr_of(0), kN * 8, 8);
    eng.rmw_range(a.addr_of(0), kN * 8, 8);
    eng.store_load_range(b.addr_of(0), kN * 8, 8);
    for (const std::uint32_t elem : {1u, 2u, 4u, 16u}) {
      const std::uint64_t bytes = kN * 8 / 16 * 16;
      eng.load_range(a.addr_of(0), bytes, elem);
      eng.store_range(b.addr_of(0), bytes, elem);
      eng.rmw_range(a.addr_of(0) + 64, bytes - 64, elem);
      eng.store_load_range(b.addr_of(0), bytes, elem);
      eng.load_pair_range(a.addr_of(0), elem, b.addr_of(0), elem, bytes / 16);
    }
    eng.load_strided(a.addr_of(0), kN / 64, 64 * 8, 8);       // column sweep
    eng.store_strided(b.addr_of(0), kN / 4, 4 * 8, 8);        // short stride
    eng.load_strided(a.addr_of(0), kN / 128, 2 * 64, 16);     // stride = 2 lines
    eng.load_pair_range(idx.addr_of(0), 4, a.addr_of(0), 8, kN);
    eng.store_pair_range(idx.addr_of(0), 4, b.addr_of(0), 8, kN);
    eng.load_pair_range(a.addr_of(0), 8, a.addr_of(0), 8, kN);    // a == b
    eng.store_pair_range(b.addr_of(0), 4, b.addr_of(0), 4, kN);   // a == b, same elem
    using Lane = Engine::StreamLane;
    const Lane lanes[] = {
        {a.addr_of(0), 8, 8, Lane::Op::kLoad},
        {b.addr_of(0), 8, 8, Lane::Op::kRmw},
        {idx.addr_of(0), 4, 4, Lane::Op::kLoad},
        {a.addr_of(0), 40, 8, Lane::Op::kLoad},  // strided lane (stencil diagonal)
        {b.addr_of(0), 8, 8, Lane::Op::kStore},  // same array twice
    };
    eng.stream_range(lanes, 5, kN / 8);
    // Three lanes striding whole L1 set periods: on the tiny L1 they share
    // one 2-way set and evict each other every window.
    const Lane same_set[] = {
        {a.addr_of(0), 1024, 8, Lane::Op::kLoad},
        {b.addr_of(0), 1024, 8, Lane::Op::kRmw},
        {a.addr_of(0) + 512, 1024, 8, Lane::Op::kStore},
    };
    eng.stream_range(same_set, 3, kN * 8 / 1024 - 1);
    eng.load_range(a.addr_of(0), kN * 8 / 48 * 48, 48);  // straddling elems: fallback
    const auto caches = eng.hierarchy().snapshot_caches();
    eng.finish();
    return std::tuple{eng.counters(), eng.epochs().size(), eng.elapsed_seconds(),
                      eng.page_access_histogram(), caches};
  };
  const auto same_level = [](const cachesim::SetAssocCache::Snapshot& x,
                             const cachesim::SetAssocCache::Snapshot& y) {
    return x.tick == y.tick && x.tag == y.tag && x.lru == y.lru && x.flags == y.flags;
  };
  const Input inputs[] = {{1000, false, 6000}, {1, false, 600}, {1000, true, 6000}};
  for (const Input& in : inputs) {
    SCOPED_TRACE(testing::Message() << "epoch_accesses=" << in.epoch_accesses
                                    << " tiny_l1=" << in.tiny_l1);
    const auto [cf, ef, tf, hf, sf] = run(in, true);
    const auto [cs, es, ts, hs, ss] = run(in, false);
    EXPECT_EQ(0, std::memcmp(&cf, &cs, sizeof(cf)));
    EXPECT_EQ(ef, es);
    EXPECT_EQ(tf, ts);
    EXPECT_EQ(hf, hs);
    EXPECT_TRUE(same_level(sf.l1, ss.l1));
    EXPECT_TRUE(same_level(sf.l2, ss.l2));
    EXPECT_TRUE(same_level(sf.l3, ss.l3));
  }
}

// The range calls must count exactly like the loops they document.
TEST(BulkApi, RangeCountersMatchTheDocumentedLoops) {
  Engine eng(fast_engine());
  Array<double> a(eng, 512);
  const auto before = eng.counters();
  eng.load_range(a.addr_of(0), 512 * 8, 8);
  eng.rmw_range(a.addr_of(0), 512 * 8, 8);
  const auto d = eng.counters().delta_since(before);
  EXPECT_EQ(d.loads, 512u + 512u);
  EXPECT_EQ(d.stores, 512u);
}

TEST(BulkApi, RangeContractViolations) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64);
  EXPECT_THROW(eng.load_range(a.addr_of(0), 0, 8), contract_violation);
  EXPECT_THROW(eng.load_range(a.addr_of(0), 12, 8), contract_violation);  // partial elem
  EXPECT_THROW(eng.load_strided(a.addr_of(0), 0, 8, 8), contract_violation);
  EXPECT_THROW(eng.stream_range(nullptr, 0, 4), contract_violation);
}

}  // namespace
}  // namespace memdis::sim
