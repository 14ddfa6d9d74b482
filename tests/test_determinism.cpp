// Determinism regression: scenario artifacts must be byte-identical across
// repeated in-process runs. This guards the engine's epoch-callback path
// (LoI schedule stepping + migration planning happen inside the callback)
// against hidden nondeterminism — iteration over unordered containers,
// uninitialized reads, cross-run state leaks in the runtime — that a single
// golden run cannot catch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "core/migration.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "engine_run.h"
#include "sim/engine.h"

namespace memdis {
namespace {

struct Artifacts {
  std::string csv;
  std::string json;
};

/// Runs a copy of the registered scenario with its spec's link model set
/// (kLoi is the registered default).
core::SweepResult result_of(const std::string& scenario_name, unsigned jobs,
                            memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi) {
  const auto* registered = core::ScenarioRegistry::instance().find(scenario_name);
  EXPECT_NE(registered, nullptr) << scenario_name;
  core::Scenario scenario = *registered;
  scenario.spec.link_model = link_model;
  core::SweepOptions options;
  options.jobs = jobs;
  return core::run_scenario(scenario, options);
}

Artifacts artifacts(const core::SweepResult& result) {
  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  return {csv.str(), json.str()};
}

Artifacts artifacts_of(const std::string& scenario_name, unsigned jobs,
                       memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi) {
  return artifacts(result_of(scenario_name, jobs, link_model));
}

/// The staged-migration scenario exercises the full epoch-callback stack:
/// per-scan re-pricing, budgets, demotion swaps, and charged transfer time.
/// Its engines carry migration runtimes, so no run reaches the repricer.
TEST(Determinism, ExtStagedMigrationArtifactsAreReproducible) {
  const core::SweepResult first_run = result_of("ext-staged-migration", 1);
  EXPECT_EQ(first_run.repricing.captures, 0u);
  EXPECT_EQ(first_run.repricing.reprices, 0u);
  const Artifacts first = artifacts(first_run);
  const Artifacts second = artifacts_of("ext-staged-migration", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

/// The transient-LoI scenario additionally steps waveforms every epoch and
/// runs the belief-vs-truth planner pair — the paths this PR added.
TEST(Determinism, ExtTransientLoiArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-transient-loi", 1);
  const Artifacts second = artifacts_of("ext-transient-loi", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.json.empty());
}

/// Parallel execution must not change the artifacts either (the sweep
/// engine's contract, re-checked here for a callback-heavy scenario).
TEST(Determinism, TransientLoiParallelMatchesSerial) {
  const Artifacts serial = artifacts_of("ext-transient-loi", 1);
  const Artifacts parallel = artifacts_of("ext-transient-loi", 3);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
}

// ---- bulk fast path vs element-wise reference -------------------------------
// The correctness gate for the bulk kernel at application scale: the
// engines fig06 and ext-transient-loi build are each run twice, once on
// the batched fast path and once with `EngineConfig::bulk_fast_path =
// false` (every bulk call decomposed into the element-wise loop it
// documents), and the whole observable run must match bit for bit. Every
// artifact metric is a function of the state compared here, so this is at
// least as strict as byte-comparing the scenario artifacts.
//
// Under sanitizers these double runs overshoot the ctest scenario
// timeout, so they skip there (MEMDIS_UNDER_ASAN, tests/engine_run.h):
// the sanitized lane still covers the fast path through the unit suite
// (BulkApi) and the other scenario tests.

/// fig06's grid (every app at scales 1/2/4), each point run the way its
/// level-1 profile runs it: one workload instance, prefetch on then off.
TEST(Determinism, AppsBulkPathMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double app runs exceed the sanitized scenario timeout";
#endif
  const auto* fig06 = core::ScenarioRegistry::instance().find("fig06");
  ASSERT_NE(fig06, nullptr);
  for (const auto& point : fig06->spec.expand()) {
    SCOPED_TRACE(testing::Message() << workloads::app_name(point.app) << " x" << point.scale);
    const core::RunConfig rc = point.run_config();
    auto fast_wl = point.make_workload();
    auto reference_wl = point.make_workload();
    for (const bool prefetch : {true, false}) {
      SCOPED_TRACE(prefetch ? "prefetch on" : "prefetch off");
      const auto run = [&](workloads::Workload& wl, bool bulk) {
        sim::EngineConfig cfg;
        cfg.machine = rc.machine;
        cfg.hierarchy = rc.hierarchy;
        cfg.link_model = rc.link_model;
        cfg.bulk_fast_path = bulk;
        sim::Engine eng(cfg);
        eng.set_prefetch_enabled(prefetch);
        return test::finish_run(eng, wl.run(eng));
      };
      test::expect_same_run(run(*fast_wl, true), run(*reference_wl, false));
    }
  }
}

/// The epoch-callback stack against batched runs: ext-transient-loi's
/// engines (Hypre on three-tier at ratios 0.5/0.75 under both square
/// waves, mirroring run_under_wave in core/scenarios.cpp) with the dynamic
/// and the static-belief planner attached.
TEST(Determinism, PlannerUnderWaveBulkPathMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double planner runs exceed the sanitized scenario timeout";
#endif
  for (const double ratio : {0.5, 0.75}) {
    for (const std::uint64_t period : {8u, 32u}) {
      memsim::LoiSchedule schedule;
      schedule.set(1, memsim::LoiWaveform::square(period, 0.5, 85.0, 0.0));
      const double mean_loi = schedule.waveform(1)->mean();
      for (const bool static_belief : {false, true}) {
        SCOPED_TRACE(testing::Message() << "ratio " << ratio << " burst-" << period
                                        << (static_belief ? " static" : " dynamic"));
        const auto run = [&](bool bulk) {
          auto wl = workloads::make_workload(workloads::App::kHypre, 1, 42);
          sim::EngineConfig cfg;
          cfg.machine = core::machine_with_spill(core::machine_for_fabric("three-tier"), ratio,
                                                 wl->footprint_bytes());
          cfg.loi_schedule = schedule;
          cfg.epoch_accesses = 250'000;
          cfg.bulk_fast_path = bulk;
          sim::Engine eng(cfg);
          core::MigrationConfig mcfg;
          mcfg.period_epochs = 1;
          mcfg.max_pages_per_scan = 64;
          mcfg.link_budget_pages = 64;
          mcfg.min_heat = 4;
          if (static_belief) mcfg.assumed_loi = {0.0, mean_loi, 0.0};
          core::MigrationRuntime runtime(mcfg);
          runtime.attach(eng);
          test::EngineRun engine = test::finish_run(eng, wl->run(eng));
          return std::pair{std::move(engine),
                           std::tuple{runtime.pages_promoted(), runtime.pages_demoted(),
                                      runtime.staged_moves(), runtime.deferred_moves(),
                                      runtime.self_deferred_moves(),
                                      test::bits(runtime.transfer_cost_s())}};
        };
        const auto [fast, fast_planner] = run(true);
        const auto [reference, reference_planner] = run(false);
        test::expect_same_run(fast, reference);
        EXPECT_EQ(fast_planner, reference_planner);
        EXPECT_GT(std::get<0>(fast_planner), 0u);
      }
    }
  }
}

/// The spec's link model must reach every engine a scenario builds. A
/// planner scenario moves pages, so its bulk traffic makes the queue model
/// visible in the artifacts (run_under_wave's engines); ext-interleave
/// prices fabric demand traffic into a `time_ms` column but moves no bulk
/// traffic, so it stays byte-identical (the queue model's compat
/// guarantee: zero cross-class rate is the closed form); and
/// ext-queue-contention pins kQueue in its own config, so the spec cannot
/// change it.
TEST(Determinism, SpecLinkModelReachesScenarioEngines) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double scenario runs exceed the sanitized scenario timeout";
#endif
  constexpr auto kQueue = memsim::LinkModelKind::kQueue;
  const Artifacts transient = artifacts_of("ext-transient-loi", 1);
  const Artifacts transient_queued = artifacts_of("ext-transient-loi", 1, kQueue);
  EXPECT_NE(transient.csv, transient_queued.csv);
  EXPECT_NE(transient.json, transient_queued.json);

  const Artifacts interleave = artifacts_of("ext-interleave", 1);
  const Artifacts interleave_queued = artifacts_of("ext-interleave", 1, kQueue);
  EXPECT_EQ(interleave.csv, interleave_queued.csv);
  EXPECT_EQ(interleave.json, interleave_queued.json);

  const Artifacts contention = artifacts_of("ext-queue-contention", 1);
  const Artifacts contention_queued = artifacts_of("ext-queue-contention", 1, kQueue);
  EXPECT_EQ(contention.csv, contention_queued.csv);
  EXPECT_EQ(contention.json, contention_queued.json);
}

/// The new scenario itself must be reproducible — it layers the queue
/// estimators, self-deferral bookkeeping, and the inflation trace on top
/// of the epoch-callback stack the other determinism tests cover.
TEST(Determinism, ExtQueueContentionArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-queue-contention", 1);
  const Artifacts second = artifacts_of("ext-queue-contention", 2);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

/// Repricing composes with parallel execution: the leader/follower waves
/// must keep the sweep contract (rows land in grid slots, artifacts
/// identical for any jobs count) while runs re-price across tasks.
/// ext-asym-loi's per-link LoI variants share one functional key per app
/// and topology, four grid-adjacent points each. With two workers, a
/// worker only picks the third point of a group once one of the group's
/// first two has finished and stored its capture, so re-prices are
/// guaranteed on any host.
TEST(Determinism, ExtAsymLoiRepriceParallelMatchesSerial) {
  const core::SweepResult serial = result_of("ext-asym-loi", 1);
  const core::SweepResult parallel = result_of("ext-asym-loi", 2);
  EXPECT_GT(parallel.repricing.reprices, 0u);
  EXPECT_GT(serial.repricing.reprices, 0u);
  const Artifacts a = artifacts(serial);
  const Artifacts b = artifacts(parallel);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
  EXPECT_FALSE(a.csv.empty());
}

}  // namespace
}  // namespace memdis
