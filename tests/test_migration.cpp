// Tests for the cost-model-driven migration planner and per-link LoI:
// topology migration paths, per-link interference plumbing (engine get/set,
// cost monotonicity per link), move pricing, staged vs. direct planning
// (2-hop wins exactly when the cost model says so; budget exhaustion falls
// back), demotion under asymmetric load, and the ext-staged-migration
// acceptance point (multi-hop strictly cheaper than direct on the
// three_tier_cxl preset).
#include <gtest/gtest.h>

#include "core/interference.h"
#include "core/migration.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "sim/array.h"

namespace memdis {
namespace {

using memsim::TierId;

// ---------- topology migration paths -----------------------------------------

TEST(MigrationPath, ChainWalksSegmentsBetweenTiers) {
  const auto m = memsim::MachineConfig::three_tier_cxl();  // switched behind direct
  EXPECT_EQ(m.topology.tier(2).upstream, 1);
  EXPECT_EQ(m.topology.path(2, 0), (std::vector<TierId>{2, 1}));
  EXPECT_EQ(m.topology.path(0, 2), (std::vector<TierId>{1, 2}));
  EXPECT_EQ(m.topology.path(2, 1), (std::vector<TierId>{2}));
  EXPECT_EQ(m.topology.path(1, 0), (std::vector<TierId>{1}));
  EXPECT_TRUE(m.topology.path(1, 1).empty());
}

TEST(MigrationPath, StarRoutesThroughTheNode) {
  const auto m = memsim::MachineConfig::hybrid_split_pool();  // two pools off the node
  EXPECT_EQ(m.topology.tier(2).upstream, memsim::kNodeTier);
  EXPECT_EQ(m.topology.path(2, 0), (std::vector<TierId>{2}));
  EXPECT_EQ(m.topology.path(1, 2), (std::vector<TierId>{1, 2}));
}

TEST(MigrationPath, UpstreamMustPointEarlier) {
  auto m = memsim::MachineConfig::three_tier_cxl();
  m.topology.tier(1).upstream = 2;  // forward reference: not a tree
  EXPECT_THROW(m.topology.validate(), contract_violation);
}

// ---------- cost model --------------------------------------------------------

TEST(MigrationCostModel, MoveCostRisesWithEachLinkLoiIndependently) {
  const auto m = memsim::MachineConfig::three_tier_cxl();
  const core::MigrationCostModel idle(m);
  const core::MigrationCostModel seg1_loaded(m, {0.0, 80.0, 0.0});
  const core::MigrationCostModel seg2_loaded(m, {0.0, 0.0, 80.0});
  // The long-haul move crosses both segments: loading either raises it.
  EXPECT_GT(seg1_loaded.move_cost_s(2, 0), idle.move_cost_s(2, 0));
  EXPECT_GT(seg2_loaded.move_cost_s(2, 0), idle.move_cost_s(2, 0));
  // The single-segment hops only price their own link.
  EXPECT_GT(seg1_loaded.move_cost_s(1, 0), idle.move_cost_s(1, 0));
  EXPECT_DOUBLE_EQ(seg2_loaded.move_cost_s(1, 0), idle.move_cost_s(1, 0));
  EXPECT_GT(seg2_loaded.move_cost_s(2, 1), idle.move_cost_s(2, 1));
  EXPECT_DOUBLE_EQ(seg1_loaded.move_cost_s(2, 1), idle.move_cost_s(2, 1));
}

TEST(MigrationCostModel, AccessLatencyTracksLinkLoad) {
  const auto m = memsim::MachineConfig::three_tier_cxl();
  const core::MigrationCostModel idle(m);
  const core::MigrationCostModel loaded(m, {0.0, 300.0, 0.0});
  EXPECT_DOUBLE_EQ(idle.access_latency_s(0), 111e-9);
  EXPECT_GT(loaded.access_latency_s(1), idle.access_latency_s(1));
  EXPECT_DOUBLE_EQ(loaded.access_latency_s(2), idle.access_latency_s(2));
  // Under heavy load the direct device is *slower* to access than the
  // switched pool behind it — the regime where evacuation pays.
  EXPECT_GT(loaded.access_latency_s(1), loaded.access_latency_s(2));
}

TEST(MigrationCostModel, TwoHopBeatsOneHopExactlyWhenTheModelSaysSo) {
  const auto m = memsim::MachineConfig::three_tier_cxl();
  const core::MigrationCostModel model(m);
  const std::uint64_t horizon = 4;
  const auto plan = [&](memsim::TierId src, memsim::TierId dst, std::uint64_t heat) {
    return model.plan(src, dst, heat, horizon, 4, model.access_latency_s(src),
                      model.access_latency_s(dst));
  };
  // A lukewarm page cannot amortize the extra device-link segment of the
  // direct move: the staged first hop carries the higher net value.
  const auto staged_cool = plan(2, 1, 20);
  const auto direct_cool = plan(2, 0, 20);
  EXPECT_GT(staged_cool.value_s, direct_cool.value_s);
  // A hot page amortizes the full path: direct wins, exactly as priced.
  const auto staged_hot = plan(2, 1, 500);
  const auto direct_hot = plan(2, 0, 500);
  EXPECT_GT(direct_hot.value_s, staged_hot.value_s);
  // The crossover is the model's own statement: value difference equals
  // horizon * benefit-delta minus the device segment's cost.
  EXPECT_NEAR(direct_hot.value_s - staged_hot.value_s,
              static_cast<double>(horizon) *
                      (direct_hot.benefit_s_per_epoch - staged_hot.benefit_s_per_epoch) -
                  model.move_cost_s(1, 0),
              1e-15);
}

// ---------- per-link LoI plumbing ---------------------------------------------

TEST(PerLinkLoi, EngineSetAndGetPerTier) {
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  cfg.background_loi_per_tier = {0.0, 30.0, 70.0};
  sim::Engine eng(cfg);
  EXPECT_DOUBLE_EQ(eng.background_loi(1), 30.0);
  EXPECT_DOUBLE_EQ(eng.background_loi(2), 70.0);
  eng.set_background_loi(1, 55.0);
  EXPECT_DOUBLE_EQ(eng.background_loi(1), 55.0);
  EXPECT_DOUBLE_EQ(eng.background_loi(2), 70.0);
  eng.set_background_loi(10.0);  // scalar still sweeps every link
  EXPECT_DOUBLE_EQ(eng.background_loi(1), 10.0);
  EXPECT_DOUBLE_EQ(eng.background_loi(2), 10.0);
  EXPECT_THROW(eng.set_background_loi(memsim::kNodeTier, 10.0), contract_violation);
}

TEST(PerLinkLoi, PerTierVectorOverridesScalar) {
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  cfg.background_loi = 20.0;
  cfg.background_loi_per_tier = {0.0, 50.0};  // shorter than the topology
  sim::Engine eng(cfg);
  EXPECT_DOUBLE_EQ(eng.background_loi(1), 50.0);
  EXPECT_DOUBLE_EQ(eng.background_loi(2), 20.0);  // beyond the vector: scalar
}

/// Runs a fixed two-pool access pattern and returns elapsed seconds.
double hybrid_elapsed(const std::vector<double>& loi_per_tier) {
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::hybrid_split_pool();
  cfg.background_loi_per_tier = loi_per_tier;
  sim::Engine eng(cfg);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> a(eng, 64 * page, memsim::MemPolicy::bind(1));
  sim::Array<std::uint8_t> b(eng, 64 * page, memsim::MemPolicy::bind(2));
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < a.size(); i += 64) {
      a.st(i, 1);
      b.st(i, 1);
    }
  eng.finish();
  return eng.elapsed_seconds();
}

TEST(PerLinkLoi, EngineCostMonotonicInEachLinkIndependently) {
  const double idle = hybrid_elapsed({});
  const double pool1 = hybrid_elapsed({0.0, 80.0, 0.0});
  const double pool2 = hybrid_elapsed({0.0, 0.0, 80.0});
  const double both = hybrid_elapsed({0.0, 80.0, 80.0});
  EXPECT_GT(pool1, idle);
  EXPECT_GT(pool2, idle);
  EXPECT_GT(both, pool1);
  EXPECT_GT(both, pool2);
}

TEST(PerLinkLoi, InterferenceCoefficientPerTier) {
  const auto m = memsim::MachineConfig::hybrid_split_pool();
  // The peer link's larger collision share yields a different IC than the
  // CXL pool at the same offered utilization — per-link quantification.
  const double ic_pool = core::interference_coefficient_at(m, 1, 0.8);
  const double ic_peer = core::interference_coefficient_at(m, 2, 0.8);
  EXPECT_GT(ic_pool, 1.0);
  EXPECT_GT(ic_peer, 1.0);
  EXPECT_DOUBLE_EQ(core::interference_coefficient_at(m, 0.8), ic_pool);
  EXPECT_THROW((void)core::interference_coefficient_at(m, memsim::kNodeTier, 0.5),
               contract_violation);
}

// ---------- planner behavior --------------------------------------------------

/// Three-tier chain: t0 full of hot pages, t1 full of cold pages, hot
/// pages on t2. Per-link budgets of 2 make a direct 2->0 swap need two
/// units of the device link, so loading that link (budget scales to 1)
/// prices the direct path out entirely.
struct ChainFixture {
  sim::EngineConfig cfg;
  ChainFixture(double device_loi, std::uint64_t node_pages = 32) {
    cfg.machine = memsim::MachineConfig::three_tier_cxl();
    cfg.machine.node_tier().capacity_bytes = node_pages * cfg.machine.page_bytes;
    cfg.machine.tier(1).capacity_bytes = 32 * cfg.machine.page_bytes;
    cfg.background_loi_per_tier = {0.0, device_loi, 0.0};
    cfg.epoch_accesses = 20'000;
  }
};

TEST(MigrationPlanner, StagedHopWhenDirectPathIsPricedOut) {
  ChainFixture fix(/*device_loi=*/80.0);
  sim::Engine eng(fix.cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  mcfg.link_budget_pages = 2;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> node_hot(eng, 32 * page, memsim::MemPolicy::bind_node());
  sim::Array<std::uint8_t> device_cold(eng, 32 * page, memsim::MemPolicy::bind(1));
  for (std::size_t i = 0; i < device_cold.size(); i += page) device_cold.st(i, 1);
  sim::Array<std::uint8_t> pool_hot(eng, 16 * page, memsim::MemPolicy::bind(2));
  for (int pass = 0; pass < 60; ++pass) {
    for (std::size_t i = 0; i < pool_hot.size(); i += 64) pool_hot.st(i, 1);
    // Keep every node page too hot to evict.
    for (std::size_t i = 0; i < node_hot.size(); i += 64) node_hot.st(i, 1);
  }
  eng.finish();

  EXPECT_GT(runtime.staged_moves(), 0u);
  bool saw_staged_hop = false;
  for (const auto& move : runtime.plan_log())
    if (!move.demotion && move.src == 2 && move.dst == 1) saw_staged_hop = true;
  EXPECT_TRUE(saw_staged_hop);
  // The swap victims crossed only the switch segment (1 -> 2), never the
  // loaded device link.
  for (const auto& move : runtime.plan_log()) {
    if (move.demotion) {
      EXPECT_EQ(move.dst, 2);
    }
  }
}

TEST(MigrationPlanner, TwoHopCompletesAcrossScans) {
  // Same chain, but the node tier has room: a staged page should later
  // finish its second hop (1 -> 0) in a subsequent scan.
  ChainFixture fix(/*device_loi=*/80.0, /*node_pages=*/256);
  sim::Engine eng(fix.cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  mcfg.link_budget_pages = 4;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> device_cold(eng, 32 * page, memsim::MemPolicy::bind(1));
  for (std::size_t i = 0; i < device_cold.size(); i += page) device_cold.st(i, 1);
  sim::Array<std::uint8_t> pool_hot(eng, 16 * page, memsim::MemPolicy::bind(2));
  for (int pass = 0; pass < 240; ++pass)
    for (std::size_t i = 0; i < pool_hot.size(); i += 64) pool_hot.st(i, 1);
  eng.finish();

  bool completed_two_hop = false;
  for (const auto& first : runtime.plan_log()) {
    if (first.demotion || first.src != 2 || first.dst != 1) continue;
    for (const auto& second : runtime.plan_log()) {
      if (second.demotion || second.page != first.page) continue;
      if (second.src == 1 && second.dst == 0 && second.scan > first.scan)
        completed_two_hop = true;
    }
  }
  EXPECT_TRUE(completed_two_hop);
}

TEST(MigrationPlanner, FullIntermediateFallsBackToDirect) {
  // t1 is full of pages as hot as the candidates (no victim is colder), so
  // the staged hop cannot make room and the planner falls back to the
  // direct move into the roomy node tier.
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  cfg.machine.tier(1).capacity_bytes = 16 * cfg.machine.page_bytes;
  cfg.epoch_accesses = 20'000;
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  mcfg.link_budget_pages = 8;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> device_hot(eng, 16 * page, memsim::MemPolicy::bind(1));
  sim::Array<std::uint8_t> pool_hot(eng, 16 * page, memsim::MemPolicy::bind(2));
  for (int pass = 0; pass < 60; ++pass) {
    for (std::size_t i = 0; i < pool_hot.size(); i += 64) pool_hot.st(i, 1);
    for (std::size_t i = 0; i < device_hot.size(); i += 64) device_hot.st(i, 1);
  }
  eng.finish();

  bool saw_direct_long_haul = false;
  for (const auto& move : runtime.plan_log())
    if (!move.demotion && move.src == 2 && move.dst == 0) saw_direct_long_haul = true;
  EXPECT_TRUE(saw_direct_long_haul);
}

TEST(MigrationPlanner, StagingDisabledReducesToDirectOnly) {
  ChainFixture fix(/*device_loi=*/80.0);
  sim::Engine eng(fix.cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  mcfg.link_budget_pages = 2;
  mcfg.allow_staging = false;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> node_hot(eng, 32 * page, memsim::MemPolicy::bind_node());
  sim::Array<std::uint8_t> device_cold(eng, 32 * page, memsim::MemPolicy::bind(1));
  for (std::size_t i = 0; i < device_cold.size(); i += page) device_cold.st(i, 1);
  sim::Array<std::uint8_t> pool_hot(eng, 16 * page, memsim::MemPolicy::bind(2));
  for (int pass = 0; pass < 60; ++pass) {
    for (std::size_t i = 0; i < pool_hot.size(); i += 64) pool_hot.st(i, 1);
    for (std::size_t i = 0; i < node_hot.size(); i += 64) node_hot.st(i, 1);
  }
  eng.finish();

  EXPECT_EQ(runtime.staged_moves(), 0u);
  for (const auto& move : runtime.plan_log()) {
    if (!move.demotion) {
      EXPECT_EQ(move.dst, memsim::kNodeTier);
    }
  }
}

TEST(MigrationPlanner, DemotionUnderAsymmetricLoiAvoidsTheLoadedLink) {
  // Two pools side by side: the CXL device is normally the cheaper victim
  // destination, but with its link oversubscribed the cost model must send
  // demoted pages to the idle (slower but unloaded) peer tier instead.
  for (const bool load_cxl : {false, true}) {
    sim::EngineConfig cfg;
    cfg.machine = memsim::MachineConfig::hybrid_split_pool();
    cfg.machine.node_tier().capacity_bytes = 16 * cfg.machine.page_bytes;
    if (load_cxl) cfg.background_loi_per_tier = {0.0, 300.0, 0.0};
    cfg.epoch_accesses = 20'000;
    sim::Engine eng(cfg);
    core::MigrationConfig mcfg;
    mcfg.period_epochs = 1;
    mcfg.min_heat = 2;
    core::MigrationRuntime runtime(mcfg);
    runtime.attach(eng);

    const std::uint64_t page = eng.memory().page_bytes();
    sim::Array<std::uint8_t> cold(eng, 16 * page, memsim::MemPolicy::bind_node());
    for (std::size_t i = 0; i < cold.size(); i += page) cold.st(i, 1);
    sim::Array<std::uint8_t> hot(eng, 8 * page, memsim::MemPolicy::bind(2));
    for (int pass = 0; pass < 60; ++pass)
      for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
    eng.finish();

    ASSERT_GT(runtime.pages_demoted(), 0u) << "load_cxl=" << load_cxl;
    for (const auto& move : runtime.plan_log()) {
      if (!move.demotion || move.src != memsim::kNodeTier) continue;
      EXPECT_EQ(move.dst, load_cxl ? 2 : 1) << "load_cxl=" << load_cxl;
    }
  }
}

// ---------- acceptance: staged strictly cheaper on three_tier_cxl ------------

TEST(StagedMigrationScenario, MultiHopStrictlyCheaperAtOneGridPoint) {
  const auto* scenario = core::ScenarioRegistry::instance().find("ext-staged-migration");
  ASSERT_NE(scenario, nullptr);
  const auto points = scenario->spec.expand();
  const core::SweepPoint* pick = nullptr;
  for (const auto& point : points) {
    if (point.app == workloads::App::kHypre && point.ratio == 0.50 &&
        point.variant == "overloaded")
      pick = &point;
  }
  ASSERT_NE(pick, nullptr);
  const auto metrics = scenario->measure(*pick);
  const auto metric = [&](const std::string& name) {
    for (const auto& [key, value] : metrics)
      if (key == name) return value;
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
  };
  EXPECT_GT(metric("staged_moves"), 0.0);
  EXPECT_LT(metric("staged_ms"), metric("direct_ms"));
  EXPECT_GT(metric("staged_gain"), 1.05);  // comfortably strict, not a tie
}

// ---------- time-varying LoI: planner arbitrage -------------------------------

/// The ext-transient-loi acceptance point: on every grid row, the planner
/// pricing each scan at the live (waveform-driven) LoI must achieve a
/// strictly lower total makespan than the same workload planned against
/// the wave's time average — the static-QoS belief. Runs the whole
/// (golden-gated) grid so the claim holds for the committed artifact, not
/// one lucky point.
TEST(TransientLoiScenario, DynamicPlannerStrictlyBeatsStaticBeliefOnEveryRow) {
  const auto* scenario = core::ScenarioRegistry::instance().find("ext-transient-loi");
  ASSERT_NE(scenario, nullptr);
  const auto result = core::run_scenario(*scenario);
  ASSERT_FALSE(result.rows.empty());
  for (const auto& row : result.rows) {
    const auto metric = [&](const std::string& name) {
      for (const auto& [key, value] : row.metrics)
        if (key == name) return value;
      ADD_FAILURE() << "missing metric " << name;
      return 0.0;
    };
    EXPECT_LT(metric("dynamic_ms"), metric("static_ms"))
        << "row " << row.point.index << " (" << row.point.variant << ")";
    // The win comes from schedule awareness, so the machinery must have
    // engaged: bursts deferred and cheaper transfer actually charged.
    EXPECT_GT(metric("dynamic_deferred"), 0.0) << row.point.variant;
    EXPECT_LT(metric("dynamic_cost_ms"), metric("static_cost_ms")) << row.point.variant;
  }
}

/// Deferral must wait out a burst the schedule can see: with a hot remote
/// array and the pool link bursting now but idle within the horizon, the
/// loaded scans defer instead of paying the inflated transfer cost, so no
/// promotion is ever charged the burst's price.
TEST(TransientLoi, PlannerDefersAcrossAKnownBurst) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  // Burst for the first half of each 8-epoch period, heavily enough that
  // moving mid-burst is clearly mispriced (bandwidth floor territory).
  cfg.loi_schedule.set(1, memsim::LoiWaveform::square(8, 0.5, 400.0, 0.0));
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);
  const std::uint64_t page = eng.memory().page_bytes();
  // Large enough to defeat the cache hierarchy, so pages keep sampling
  // heat on every pass (L1 hits never reach the page histogram).
  sim::Array<std::uint8_t> hot(eng, 64 * page, memsim::MemPolicy::bind_pool());
  for (int pass = 0; pass < 30; ++pass)
    for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
  eng.finish();
  EXPECT_GT(runtime.pages_promoted(), 0u);
  EXPECT_GT(runtime.deferred_moves(), 0u);
  const core::MigrationCostModel burst(cfg.machine, {0.0, 400.0});
  for (const auto& move : runtime.plan_log()) {
    if (move.demotion) continue;
    EXPECT_LT(move.cost_s, burst.move_cost_s(move.src, move.dst))
        << "page " << move.page << " promoted mid-burst at scan " << move.scan;
  }
}

/// A belief-limited planner is charged at the links' true state: the same
/// moves cost more when they execute into a burst the belief ignored.
TEST(TransientLoi, StaticBeliefIsChargedAtTrueLinkState) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  cfg.loi_schedule.set(1, memsim::LoiWaveform::constant(400.0));  // always bursting
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  mcfg.assumed_loi = {0.0, 0.0};  // belief: the link is idle
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> hot(eng, 8 * page, memsim::MemPolicy::bind_pool());
  for (int pass = 0; pass < 60; ++pass)
    for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
  eng.finish();
  ASSERT_GT(runtime.pages_promoted(), 0u);
  // Every executed move's logged cost must match the truth model (LoI 400),
  // not the idle belief.
  const core::MigrationCostModel believed(cfg.machine, {0.0, 0.0});
  const core::MigrationCostModel truth(cfg.machine, {0.0, 400.0});
  for (const auto& move : runtime.plan_log()) {
    if (move.demotion) continue;
    EXPECT_NEAR(move.cost_s, truth.move_cost_s(move.src, move.dst), 1e-12);
    EXPECT_GT(move.cost_s, believed.move_cost_s(move.src, move.dst));
  }
}

/// The per-scan LoI log follows the waveform the engine applied.
TEST(TransientLoi, ScanLoiLogTracksTheWave) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  cfg.loi_schedule.set(1, memsim::LoiWaveform::square(2, 0.5, 50.0, 10.0));
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);
  sim::Array<std::uint8_t> a(eng, 16 * eng.memory().page_bytes(),
                             memsim::MemPolicy::bind_pool());
  for (int pass = 0; pass < 40; ++pass)
    for (std::size_t i = 0; i < a.size(); i += 64) a.st(i, 1);
  eng.finish();
  const auto& log = runtime.scan_loi_log();
  ASSERT_EQ(log.size(), runtime.scans());
  ASSERT_GE(log.size(), 4u);
  for (std::size_t scan = 0; scan < log.size(); ++scan) {
    // Scan s fires after epoch s closes, when the engine has stepped the
    // wave to epoch s+1.
    const double expected = (scan + 1) % 2 == 0 ? 50.0 : 10.0;
    EXPECT_DOUBLE_EQ(log[scan][1], expected) << "scan " << scan;
  }
}

// ---------- interference coefficient under a wave -----------------------------

TEST(SchedScheduled, InterferenceCoefficientFollowsTheWave) {
  const auto m = memsim::MachineConfig::skylake_testbed();
  const auto wave = memsim::LoiWaveform::square(4, 0.5, 80.0, 0.0);
  const memsim::TierId pool = m.topology.first_fabric();
  // Burst epochs carry the IC of the hi level, idle epochs exactly 1.
  EXPECT_DOUBLE_EQ(core::interference_coefficient_at(m, pool, wave, 0),
                   core::interference_coefficient_at(m, pool, 0.8));
  EXPECT_DOUBLE_EQ(core::interference_coefficient_at(m, pool, wave, 2), 1.0);
  EXPECT_GT(core::interference_coefficient_at(m, pool, wave, 1), 1.0);
}

// ---------- bookkeeping -------------------------------------------------------

TEST(MigrationAccounting, PageTableTracksPerPairBytes) {
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  sim::Engine eng(cfg);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> a(eng, 4 * page, memsim::MemPolicy::bind(2));
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  EXPECT_EQ(eng.memory().migrate(a.range(), 1), 4u);
  EXPECT_EQ(eng.memory().migrated_bytes(2, 1), 4 * page);
  EXPECT_EQ(eng.memory().migrated_bytes(1, 2), 0u);
  EXPECT_EQ(eng.memory().migrated_bytes_total(), 4 * page);
  eng.finish();
}

/// Every priced transfer lands on the engine's timeline: the engine's
/// charged migration time is the planner's transfer cost, and it reaches
/// the elapsed time through the closed epochs' durations.
TEST(MigrationAccounting, TransferCostChargedToTimeline) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> hot(eng, 16 * page, memsim::MemPolicy::bind_pool());
  for (int pass = 0; pass < 50; ++pass)
    for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
  eng.finish();
  EXPECT_GT(runtime.pages_promoted(), 0u);
  EXPECT_GT(eng.migration_seconds(), 0.0);
  EXPECT_NEAR(eng.migration_seconds(), runtime.transfer_cost_s(),
              1e-12 * runtime.transfer_cost_s());
  double migration_s = 0.0, duration_s = 0.0;
  for (const auto& e : eng.epochs()) {
    EXPECT_GE(e.duration_s, e.migration_s);
    migration_s += e.migration_s;
    duration_s += e.duration_s;
  }
  EXPECT_EQ(migration_s, eng.migration_seconds());
  EXPECT_EQ(duration_s, eng.elapsed_seconds());
}

}  // namespace
}  // namespace memdis
