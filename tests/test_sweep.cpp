// Tests for the parallel sweep engine and scenario registry: deterministic
// grid expansion, bit-identical serial-vs-parallel execution, artifact
// writers, and registry lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"

namespace memdis::core {
namespace {

using workloads::App;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.apps = {App::kHPL, App::kBFS};
  spec.scales = {1, 2};
  spec.ratios = {kNodeOnly, 0.5};
  spec.lois = {0.0, 25.0};
  return spec;
}

// A cheap deterministic measure: exercises the per-task RNG stream without
// running a full workload, so the threading contract is tested in
// milliseconds.
std::vector<Metric> synthetic_measure(const SweepPoint& point) {
  Xoshiro256 rng(point.seed);
  double acc = 0.0;
  for (int i = 0; i < 100; ++i) acc += rng.uniform();
  return {{"acc", acc},
          {"ratio_echo", point.ratio},
          {"index_echo", static_cast<double>(point.index)}};
}

// ---------- grid expansion --------------------------------------------------

TEST(SweepSpec, SizeIsCartesianProduct) {
  EXPECT_EQ(small_spec().size(), 2u * 2u * 2u * 2u);
}

TEST(SweepSpec, ExpandAssignsSequentialIndices) {
  const auto points = small_spec().expand();
  ASSERT_EQ(points.size(), 16u);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
}

TEST(SweepSpec, ExpandOrderIsAppMajorVariantMinor) {
  const auto points = small_spec().expand();
  // Last axis (loi) varies fastest, first axis (app) slowest.
  EXPECT_EQ(points[0].app, App::kHPL);
  EXPECT_EQ(points[0].scale, 1);
  EXPECT_EQ(points[0].ratio, kNodeOnly);
  EXPECT_EQ(points[0].loi, 0.0);
  EXPECT_EQ(points[1].loi, 25.0);
  EXPECT_EQ(points[2].ratio, 0.5);
  EXPECT_EQ(points[4].scale, 2);
  EXPECT_EQ(points[8].app, App::kBFS);
}

TEST(SweepSpec, ExpandIsDeterministic) {
  const auto a = small_spec().expand();
  const auto b = small_spec().expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].ratio, b[i].ratio);
  }
}

TEST(SweepSpec, PerTaskSeedsAreDistinct) {
  const auto points = small_spec().expand();
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j)
      EXPECT_NE(points[i].seed, points[j].seed);
}

TEST(SweepSpec, SharedSeedModeUsesBaseSeedVerbatim) {
  auto spec = small_spec();
  spec.seed_per_task = false;
  spec.base_seed = 42;
  for (const auto& point : spec.expand()) EXPECT_EQ(point.seed, 42u);
}

TEST(SweepSpec, DifferentBaseSeedsChangeTaskSeeds) {
  auto spec = small_spec();
  const auto a = spec.expand();
  spec.base_seed = 43;
  const auto b = spec.expand();
  EXPECT_NE(a[0].seed, b[0].seed);
}

TEST(SweepSpec, EmptyAxisViolatesContract) {
  auto spec = small_spec();
  spec.scales.clear();
  EXPECT_THROW((void)spec.expand(), std::exception);
}

TEST(SweepPoint, RunConfigAppliesAxes) {
  auto spec = small_spec();
  spec.fabrics = {"cxl"};
  const auto points = spec.expand();
  const auto rc = points[3].run_config();  // ratio=0.5, loi=25
  EXPECT_TRUE(rc.remote_capacity_ratio.has_value());
  EXPECT_DOUBLE_EQ(*rc.remote_capacity_ratio, 0.5);
  EXPECT_DOUBLE_EQ(rc.background_loi, 25.0);
  EXPECT_DOUBLE_EQ(rc.machine.pool_tier().bandwidth_gbps,
                   memsim::MachineConfig::cxl_direct_attached().pool_tier().bandwidth_gbps);
  const auto local_rc = points[0].run_config();  // ratio=kNodeOnly
  EXPECT_FALSE(local_rc.remote_capacity_ratio.has_value());
}

TEST(MachineForFabric, RejectsUnknownNames) {
  EXPECT_THROW((void)machine_for_fabric("infiniband"), std::invalid_argument);
}

// ---------- parallel execution ----------------------------------------------

TEST(RunSweep, ParallelMatchesSerialBitExactly) {
  const auto spec = small_spec();
  const auto serial = run_sweep(spec, synthetic_measure, {.jobs = 1});
  const auto parallel = run_sweep(spec, synthetic_measure, {.jobs = 4});
  ASSERT_EQ(serial.rows.size(), 16u);
  EXPECT_TRUE(serial.rows_equal(parallel));
}

TEST(RunSweep, CsvIsByteIdenticalAcrossJobCounts) {
  const auto spec = small_spec();
  const auto serial = run_sweep(spec, synthetic_measure, {.jobs = 1});
  const auto parallel = run_sweep(spec, synthetic_measure, {.jobs = 4});
  std::ostringstream a, b;
  serial.write_csv(a);
  parallel.write_csv(b);
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
  std::ostringstream ja, jb;
  serial.write_json(ja);
  parallel.write_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(RunSweep, RowsLandInGridOrderRegardlessOfExecutionOrder) {
  const auto result = run_sweep(small_spec(), synthetic_measure, {.jobs = 8});
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].point.index, i);
    EXPECT_DOUBLE_EQ(result.rows[i].metrics[2].second, static_cast<double>(i));
  }
}

TEST(RunSweep, AllTasksRunExactlyOnce) {
  std::atomic<int> calls{0};
  const auto counting = [&](const SweepPoint& p) -> std::vector<Metric> {
    calls.fetch_add(1);
    return {{"i", static_cast<double>(p.index)}};
  };
  const auto result = run_sweep(small_spec(), counting, {.jobs = 4});
  EXPECT_EQ(calls.load(), 16);
  EXPECT_EQ(result.rows.size(), 16u);
}

TEST(RunSweep, TaskExceptionPropagates) {
  const auto failing = [](const SweepPoint& p) -> std::vector<Metric> {
    if (p.index == 7) throw std::runtime_error("task 7 failed");
    return {};
  };
  EXPECT_THROW((void)run_sweep(small_spec(), failing, {.jobs = 4}), std::runtime_error);
  EXPECT_THROW((void)run_sweep(small_spec(), failing, {.jobs = 1}), std::runtime_error);
}

TEST(RunSweep, TwoWaveRepriceSchedulingRunsEachTaskExactlyOnce) {
  std::atomic<int> calls{0};
  const auto counting = [&](const SweepPoint& p) -> std::vector<Metric> {
    calls.fetch_add(1);
    return {{"i", static_cast<double>(p.index)}};
  };
  const auto result = run_sweep(small_spec(), counting, {.jobs = 4});
  EXPECT_EQ(calls.load(), 16);
  ASSERT_EQ(result.rows.size(), 16u);
  for (std::size_t i = 0; i < result.rows.size(); ++i)
    EXPECT_EQ(result.rows[i].point.index, i);
}

TEST(SweepPoint, FunctionalGroupKeyGroupsOverTheLoiAxisOnly) {
  const auto points = small_spec().expand();
  for (const auto& a : points) {
    for (const auto& b : points) {
      const bool same_functional = a.app == b.app && a.scale == b.scale &&
                                   a.ratio == b.ratio && a.fabric == b.fabric &&
                                   a.prefetch == b.prefetch && a.variant == b.variant &&
                                   a.seed == b.seed;
      EXPECT_EQ(a.functional_group_key() == b.functional_group_key(), same_functional);
    }
    // The link model is a timing knob like `loi`: outside the group key.
    SweepPoint queued = a;
    queued.link_model = memsim::LinkModelKind::kQueue;
    EXPECT_EQ(queued.functional_group_key(), a.functional_group_key());
  }
}

// The spec's link model reaches every expanded point and its RunConfig.
TEST(SweepSpec, LinkModelRidesFromSpecToRunConfig) {
  auto spec = small_spec();
  spec.link_model = memsim::LinkModelKind::kQueue;
  for (const auto& p : spec.expand()) EXPECT_EQ(p.run_config().link_model, spec.link_model);
}

// Guards the defaulted SweepPoint::operator== behind rows_equal: every
// single-field mutation must be detected, so a future field added to
// SweepPoint cannot silently escape the determinism comparisons.
TEST(SweepResult, RowsEqualDetectsEverySingleFieldMutation) {
  SweepResult base;
  SweepRow row;
  row.point = {.index = 3,
               .app = App::kBFS,
               .scale = 2,
               .ratio = 0.5,
               .loi = 25.0,
               .fabric = "cxl",
               .prefetch = true,
               .variant = "opt",
               .seed = 77,
               .link_model = memsim::LinkModelKind::kLoi};
  row.metrics = {{"m", 1.5}};
  base.rows.push_back(row);
  EXPECT_TRUE(base.rows_equal(base));

  const auto mutated = [&](const auto& mutate) {
    SweepResult r = base;
    mutate(r.rows[0]);
    return r;
  };
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.index = 4; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.app = App::kHPL; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.scale = 1; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.ratio = 0.75; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.loi = 0.0; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.fabric = "upi"; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.prefetch = false; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.variant = "base"; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.point.seed = 78; })));
  EXPECT_FALSE(base.rows_equal(
      mutated([](SweepRow& r) { r.point.link_model = memsim::LinkModelKind::kQueue; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.metrics[0].second = 1.25; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.metrics[0].first = "x"; })));
  EXPECT_FALSE(base.rows_equal(mutated([](SweepRow& r) { r.metrics.clear(); })));
}

TEST(ParallelFor, CoversIndexSpaceOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, JobsZeroUsesHardwareConcurrency) {
  std::atomic<int> calls{0};
  parallel_for(10, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

// ---------- result formatting -----------------------------------------------

TEST(SweepResult, MetricUnionPreservesFirstSeenOrderAndPadsMissing) {
  const auto measure = [](const SweepPoint& p) -> std::vector<Metric> {
    if (p.index == 0) return {{"a", 1.0}, {"b", 2.0}};
    return {{"a", 3.0}, {"c", 4.0}};
  };
  SweepSpec spec;
  spec.apps = {App::kHPL};
  spec.scales = {1, 2};
  const auto result = run_sweep(spec, measure, {.jobs = 1});
  const auto names = result.metric_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
  std::ostringstream os;
  result.write_csv(os);
  const auto csv = os.str();
  // Row 1 has no "b": empty cell between a and c columns.
  EXPECT_NE(csv.find("3,,4"), std::string::npos);
}

TEST(SweepResult, LocalOnlyRatioRendersAsLocal) {
  SweepSpec spec;
  spec.apps = {App::kHPL};
  const auto result = run_sweep(spec, synthetic_measure, {.jobs = 1});
  std::ostringstream os;
  result.write_csv(os);
  EXPECT_NE(os.str().find(",local,"), std::string::npos);
}

// ---------- scenario registry -----------------------------------------------

TEST(ScenarioRegistry, BuiltinScenariosAreRegistered) {
  auto& registry = ScenarioRegistry::instance();
  const std::vector<std::string> names = {
      "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
      "ext-cxl", "ext-interleave", "ext-three-tier", "ext-hybrid", "ext-asym-loi",
      "ext-loi-trace", "ext-fleet-rack", "ext-staged-migration", "ext-transient-loi",
      "ext-queue-contention", "ext-migration", "ext-memory-roofline", "ext-deployment",
      "ext-ablation"};
  for (const auto& name : names) {
    const auto* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(static_cast<bool>(s->measure)) << name;
    EXPECT_TRUE(static_cast<bool>(s->summarize)) << name;
    EXPECT_GT(s->spec.size(), 0u) << name;
  }
  // Every registered scenario is named above: a dropped, renamed or added
  // scenario changes the count.
  EXPECT_EQ(registry.list().size(), names.size());
}

TEST(ScenarioRegistry, Fig06GridMatchesPaper) {
  const auto* s = ScenarioRegistry::instance().find("fig06");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->spec.size(), 18u);  // 6 apps x 3 scales
}

TEST(ScenarioRegistry, ListIsSortedByName) {
  const auto list = ScenarioRegistry::instance().list();
  ASSERT_GE(list.size(), 9u);
  for (std::size_t i = 1; i < list.size(); ++i) EXPECT_LT(list[i - 1]->name, list[i]->name);
}

TEST(ScenarioRegistry, UnknownNameReturnsNull) {
  EXPECT_EQ(ScenarioRegistry::instance().find("fig99"), nullptr);
}

TEST(ScenarioRegistry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  Scenario s;
  s.name = "dup";
  s.measure = synthetic_measure;
  registry.add(s);
  EXPECT_THROW(registry.add(s), std::invalid_argument);
}

// One real scenario end-to-end, parallel vs. serial — the acceptance check
// at unit-test scale (ext-interleave is the cheapest registered scenario:
// 6 single-run tasks).
TEST(ScenarioRegistry, RealScenarioParallelMatchesSerial) {
  const auto* s = ScenarioRegistry::instance().find("ext-interleave");
  ASSERT_NE(s, nullptr);
  const auto serial = run_scenario(*s, {.jobs = 1});
  const auto parallel = run_scenario(*s, {.jobs = 4});
  EXPECT_TRUE(serial.rows_equal(parallel));
  std::ostringstream a, b;
  serial.write_csv(a);
  parallel.write_csv(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(serial.scenario, "ext-interleave");
}

}  // namespace
}  // namespace memdis::core
