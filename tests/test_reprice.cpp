// Epoch-profile repricing (core/epoch_profile.h): equivalence, fallback
// correctness, and who owns the profile cache.
//
// The contract under test is byte-identity: inside a ProfileScope, every
// eligible run must produce output bit-identical to the full simulation
// it replaces (the same call outside any scope), and every ineligible
// point (run_live with a migration runtime, workload without a
// functional id) must fall back to full simulation silently —
// so a sweep mixing both kinds writes the same CSV/JSON as the live
// reference loop. The cache lives for one sweep (or one explicit scope)
// and nothing of it leaks to the calling thread afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_profile.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "engine_run.h"
#include "memsim/loi_schedule.h"
#include "sim/engine.h"
#include "workloads/lbench.h"

namespace memdis::core {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

// Lbench sized so one run closes a handful of epochs quickly.
workloads::LbenchParams small_lbench(std::uint64_t seed) {
  workloads::LbenchParams lp;
  lp.elements = 1 << 16;
  lp.nflop = 1;
  lp.sweeps = 4;
  lp.on_pool = true;
  lp.seed = seed;
  return lp;
}

// Pass-through wrapper that deliberately keeps the base class's empty
// functional_id(): the in-run_workload opt-out path.
class AnonymousLbench final : public workloads::Workload {
 public:
  explicit AnonymousLbench(const workloads::LbenchParams& p) : inner_(p) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return inner_.footprint_bytes();
  }
  workloads::WorkloadResult run(sim::Engine& eng) override { return inner_.run(eng); }

 private:
  workloads::Lbench inner_;
};

using test::CountingLbench;

// Asserts bit-identity of everything the repricer recomputes (and of the
// functional content it must not touch).
void expect_outputs_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_TRUE(bits_equal(a.elapsed_s, b.elapsed_s));
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.counters.loads, b.counters.loads);
  EXPECT_EQ(a.counters.offcore_l3_miss, b.counters.offcore_l3_miss);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const auto& ea = a.epochs[i];
    const auto& eb = b.epochs[i];
    EXPECT_TRUE(bits_equal(ea.start_s, eb.start_s)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.duration_s, eb.duration_s)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.link_traffic_gbps, eb.link_traffic_gbps)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.link_utilization, eb.link_utilization)) << "epoch " << i;
    EXPECT_EQ(ea.tier_bytes, eb.tier_bytes) << "epoch " << i;
    ASSERT_EQ(ea.link_loi.size(), eb.link_loi.size());
    for (std::size_t t = 0; t < ea.link_loi.size(); ++t) {
      EXPECT_TRUE(bits_equal(ea.link_loi[t], eb.link_loi[t])) << "epoch " << i;
      EXPECT_TRUE(bits_equal(ea.link_demand_mult[t], eb.link_demand_mult[t]))
          << "epoch " << i;
      EXPECT_TRUE(bits_equal(ea.link_demand_inflation[t], eb.link_demand_inflation[t]))
          << "epoch " << i;
    }
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].tag, b.phases[i].tag);
    EXPECT_TRUE(bits_equal(a.phases[i].time_s, b.phases[i].time_s)) << a.phases[i].tag;
    EXPECT_EQ(a.phases[i].epoch_begin, b.phases[i].epoch_begin);
    EXPECT_EQ(a.phases[i].epoch_end, b.phases[i].epoch_end);
  }
}

RunConfig timing_point(double loi) {
  RunConfig rc;
  rc.background_loi = loi;
  rc.remote_capacity_ratio = 0.5;
  return rc;
}

TEST(Reprice, RunWorkloadIsBitIdenticalAcrossTheLoiAxis) {
  const std::vector<double> lois = {0.0, 10.0, 25.0, 50.0};
  // Reference: full simulation for every point, outside any scope.
  std::vector<RunOutput> live;
  for (const double loi : lois) {
    workloads::Lbench wl(small_lbench(7));
    live.push_back(run_workload(wl, timing_point(loi)));
  }
  // Repriced: the first point captures, the rest fold the cost model over
  // its epoch profile.
  ProfileCache cache;
  const ProfileScope scope(cache);
  for (std::size_t i = 0; i < lois.size(); ++i) {
    workloads::Lbench wl(small_lbench(7));
    const RunOutput out = run_workload(wl, timing_point(lois[i]));
    expect_outputs_identical(live[i], out);
  }
  EXPECT_EQ(cache.stats().captures, 1u);
  EXPECT_EQ(cache.stats().reprices, lois.size() - 1);
}

TEST(Reprice, LoiScheduleAndPerTierOverridesRepriceBitExactly) {
  // A square-wave schedule on the pool link plus an asymmetric static
  // override: the repricer must step the schedule epoch-for-epoch and
  // apply the per-tier vector exactly as the engine constructor does.
  const auto make_config = [](double loi) {
    RunConfig rc = timing_point(loi);
    rc.background_loi_per_tier = {0.0, loi};
    const memsim::TierId pool = rc.machine.topology.first_fabric();
    rc.loi_schedule.set(pool, memsim::LoiWaveform::square(2, 0.5, 40.0, loi));
    return rc;
  };
  workloads::Lbench live_a(small_lbench(11));
  const RunOutput live0 = run_workload(live_a, make_config(0.0));
  workloads::Lbench live_b(small_lbench(11));
  const RunOutput live25 = run_workload(live_b, make_config(25.0));

  ProfileCache cache;
  const ProfileScope scope(cache);
  workloads::Lbench a(small_lbench(11));
  expect_outputs_identical(live0, run_workload(a, make_config(0.0)));
  workloads::Lbench b(small_lbench(11));
  expect_outputs_identical(live25, run_workload(b, make_config(25.0)));
  EXPECT_EQ(cache.stats().captures, 1u);
  EXPECT_EQ(cache.stats().reprices, 1u);
}

TEST(Reprice, QueueModelRepriceReplaysObservesBitExactly) {
  // Under the two-class queue model the windowed estimators carry history
  // across epochs; the repricer replays the same observe sequence, so the
  // results stay bit-identical — including at zero bulk, where the queue
  // model collapses to the closed form.
  const auto make_config = [](double loi) {
    RunConfig rc = timing_point(loi);
    rc.link_model = memsim::LinkModelKind::kQueue;
    return rc;
  };
  workloads::Lbench live_a(small_lbench(13));
  const RunOutput live0 = run_workload(live_a, make_config(0.0));
  workloads::Lbench live_b(small_lbench(13));
  const RunOutput live25 = run_workload(live_b, make_config(25.0));

  ProfileCache cache;
  const ProfileScope scope(cache);
  workloads::Lbench a(small_lbench(13));
  expect_outputs_identical(live0, run_workload(a, make_config(0.0)));
  workloads::Lbench b(small_lbench(13));
  expect_outputs_identical(live25, run_workload(b, make_config(25.0)));
  EXPECT_EQ(cache.stats().reprices, 1u);
}

TEST(Reprice, WorkloadWithoutFunctionalIdFallsBackToFullSimulation) {
  ProfileCache cache;
  const ProfileScope scope(cache);
  AnonymousLbench wl(small_lbench(17));
  const RunOutput out = run_workload(wl, timing_point(25.0));
  EXPECT_GT(out.elapsed_s, 0.0);
  EXPECT_EQ(cache.stats().captures, 0u);
  EXPECT_EQ(cache.stats().reprices, 0u);
}

// ---- who owns the profile cache ----------------------------------------------

TEST(ProfileScope, RunWorkloadOutsideAnyScopeAlwaysSimulates) {
  ASSERT_EQ(ProfileScope::current(), nullptr);
  std::atomic<int> runs{0};
  CountingLbench wl(small_lbench(19), runs);
  ASSERT_FALSE(wl.functional_id().empty());
  (void)run_workload(wl, timing_point(0.0));
  (void)run_workload(wl, timing_point(25.0));
  EXPECT_EQ(runs.load(), 2);
}

TEST(ProfileScope, ScopesNestAndRestoreTheOuterBinding) {
  ProfileCache outer, inner;
  {
    const ProfileScope a(outer);
    EXPECT_EQ(ProfileScope::current(), &outer);
    {
      const ProfileScope b(inner);
      EXPECT_EQ(ProfileScope::current(), &inner);
    }
    EXPECT_EQ(ProfileScope::current(), &outer);
  }
  EXPECT_EQ(ProfileScope::current(), nullptr);
}

TEST(ProfileScope, EachSweepOwnsAFreshCache) {
  SweepSpec spec;
  spec.apps = {workloads::App::kHPL};  // grid label only; the measure runs Lbench
  spec.ratios = {0.5};
  spec.lois = {0.0, 10.0, 25.0};
  spec.base_seed = 23;
  spec.seed_per_task = false;
  std::atomic<int> runs{0};
  const MeasureFn measure = [&](const SweepPoint& point) -> std::vector<Metric> {
    CountingLbench wl(small_lbench(point.seed), runs);
    return {{"elapsed_s", run_workload(wl, point.run_config()).elapsed_s}};
  };
  // Back to back over the same grid: if the cache outlived the first sweep,
  // the second would re-price its leader instead of capturing.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const SweepResult result = run_sweep(spec, measure, {.jobs = 2});
    EXPECT_EQ(result.repricing.captures, 1u) << "sweep " << sweep;
    EXPECT_EQ(result.repricing.reprices, 2u) << "sweep " << sweep;
  }
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(ProfileScope::current(), nullptr);
}

TEST(ProfileScope, ThrowingSweepLeavesTheCallingThreadLive) {
  // RunSweep.TaskExceptionPropagates' grid: task 7 throws, task 0 captures
  // a profile under the key the checks below run with.
  SweepSpec spec;
  spec.apps = {workloads::App::kHPL, workloads::App::kBFS};
  spec.scales = {1, 2};
  spec.ratios = {kNodeOnly, 0.5};
  spec.lois = {0.0, 25.0};
  std::atomic<int> runs{0};
  const MeasureFn failing = [&](const SweepPoint& point) -> std::vector<Metric> {
    if (point.index == 7) throw std::runtime_error("task 7 failed");
    if (point.index == 0) {
      CountingLbench wl(small_lbench(29), runs);
      (void)run_workload(wl, timing_point(0.0));
    }
    return {};
  };
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    EXPECT_THROW((void)run_sweep(spec, failing, {.jobs = jobs}), std::runtime_error);
    EXPECT_EQ(ProfileScope::current(), nullptr);
    const int before = runs.load();
    CountingLbench wl(small_lbench(29), runs);
    (void)run_workload(wl, timing_point(25.0));
    (void)run_workload(wl, timing_point(25.0));
    EXPECT_EQ(runs.load(), before + 2);
  }
}

TEST(ProfileScope, Level3InsideAScopeMatchesLiveBitForBit) {
  const std::vector<double> lois = {0.0, 10.0, 25.0, 50.0};
  const MultiLevelProfiler profiler;
  workloads::Lbench live_wl(small_lbench(31));
  const Level3Profile live = profiler.level3(live_wl, 0.5, lois);

  ProfileCache cache;
  Level3Profile scoped;
  {
    const ProfileScope scope(cache);
    workloads::Lbench wl(small_lbench(31));
    scoped = profiler.level3(wl, 0.5, lois);
  }
  ASSERT_EQ(live.sensitivity.size(), scoped.sensitivity.size());
  for (std::size_t i = 0; i < live.sensitivity.size(); ++i) {
    EXPECT_TRUE(bits_equal(live.sensitivity[i].loi, scoped.sensitivity[i].loi));
    EXPECT_TRUE(bits_equal(live.sensitivity[i].relative_performance,
                           scoped.sensitivity[i].relative_performance))
        << "LoI " << live.sensitivity[i].loi;
  }
  EXPECT_TRUE(bits_equal(live.induced.ic_mean, scoped.induced.ic_mean));
  EXPECT_TRUE(bits_equal(live.induced.ic_min, scoped.induced.ic_min));
  EXPECT_TRUE(bits_equal(live.induced.ic_max, scoped.induced.ic_max));
  // One capture (the baseline, which also feeds the induced IC); the three
  // loaded levels re-price it.
  EXPECT_EQ(cache.stats().captures, 1u);
  EXPECT_EQ(cache.stats().reprices, 3u);
}

// ---- whole sweeps against the live reference loop ---------------------------

// Measure dispatching on the variant axis:
//   plain    — run_workload, eligible (captures/re-prices over the LoI axis)
//   schedule — run_workload with a square-wave LoI schedule, still eligible
//   migrate  — run_live with a MigrationRuntime: ineligible by
//              construction (run_live with a planner never reprices)
//   anon     — run_workload with an id-less workload: in-code fallback
std::vector<Metric> mixed_measure(const SweepPoint& point) {
  if (point.variant == "migrate") {
    workloads::Lbench wl(small_lbench(point.seed));
    sim::EngineConfig cfg;
    cfg.machine = machine_with_spill(machine_for_fabric(point.fabric), 0.5,
                                     wl.footprint_bytes());
    cfg.background_loi = point.loi;
    cfg.epoch_accesses = 50'000;
    const memsim::TierId pool = cfg.machine.topology.first_fabric();
    cfg.loi_schedule.set(pool, memsim::LoiWaveform::square(4, 0.5, 30.0, point.loi));
    MigrationConfig mcfg;
    mcfg.period_epochs = 1;
    mcfg.max_pages_per_scan = 16;
    mcfg.link_budget_pages = 2;
    MigrationRuntime runtime(mcfg);
    // The planner feeds timing back into placement (it prices moves at the
    // live link state), which is what makes the run ineligible.
    const RunOutput out = run_live(wl, cfg, point.prefetch, &runtime);
    return {{"elapsed_s", out.elapsed_s},
            {"epochs", static_cast<double>(out.epochs.size())},
            {"promoted", static_cast<double>(runtime.pages_promoted())},
            {"migration_s", runtime.transfer_cost_s()}};
  }

  RunConfig rc = point.run_config();
  if (point.variant == "schedule") {
    const memsim::TierId pool = rc.machine.topology.first_fabric();
    rc.loi_schedule.set(pool, memsim::LoiWaveform::square(2, 0.5, 40.0, point.loi));
  }
  RunOutput out;
  if (point.variant == "anon") {
    AnonymousLbench wl(small_lbench(point.seed));
    out = run_workload(wl, rc);
  } else {
    workloads::Lbench wl(small_lbench(point.seed));
    out = run_workload(wl, rc);
  }
  double traffic_sum = 0.0, mult_sum = 0.0, phase_sum = 0.0;
  for (const auto& e : out.epochs) {
    traffic_sum += e.link_traffic_gbps;
    for (const double m : e.link_demand_mult) mult_sum += m;
  }
  for (const auto& p : out.phases) phase_sum += p.time_s;
  return {{"elapsed_s", out.elapsed_s},
          {"epochs", static_cast<double>(out.epochs.size())},
          {"remote_ratio", out.remote_access_ratio()},
          {"traffic_sum", traffic_sum},
          {"mult_sum", mult_sum},
          {"phase_sum", phase_sum}};
}

SweepSpec mixed_spec() {
  SweepSpec spec;
  spec.apps = {workloads::App::kHPL};  // grid label only; the measure picks Lbench
  spec.ratios = {0.5};
  spec.lois = {0.0, 25.0};
  spec.variants = {"plain", "schedule", "migrate", "anon"};
  spec.base_seed = 7;
  spec.seed_per_task = false;
  return spec;
}

void expect_same_artifacts(const SweepResult& a, const SweepResult& b) {
  EXPECT_TRUE(a.rows_equal(b));
  std::ostringstream csv_a, csv_b, json_a, json_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  a.write_json(json_a);
  b.write_json(json_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_FALSE(csv_a.str().empty());
}

// The eligible Lbench runs of mixed_measure on a grid whose only axes are
// functional (spill ratio, prefetch switch; one seed for every point): no
// two points share a functional key, so every point captures and none
// re-prices — the contract a grid like fig06's (app, scale, prefetch)
// relies on.
SweepSpec functional_spec() {
  SweepSpec spec;
  spec.apps = {workloads::App::kHPL};  // grid label only; the measure picks Lbench
  spec.ratios = {0.25, 0.5};
  spec.prefetch = {true, false};
  spec.variants = {"plain"};
  spec.base_seed = 7;
  spec.seed_per_task = false;
  return spec;
}

TEST(Reprice, SweepWritesTheLiveReferenceArtifacts) {
  struct Input {
    const char* name;
    SweepSpec spec;
    unsigned jobs;
    std::uint64_t min_captures;
    std::uint64_t max_captures;
    bool reprices;
  };
  const Input inputs[] = {
      // The eligible variants go through the repricer, and the ineligible
      // ones never touch the cache: plain and schedule share one functional
      // key (same workload, machine shaping, hierarchy), so at most the two
      // wave-1 leaders capture.
      {"mixed eligibility", mixed_spec(), 2, 1, 2, true},
      // Serial, so two points wrongly sharing a key would show as a
      // re-price rather than as two racing captures.
      {"functional axes only", functional_spec(), 1, 4, 4, false},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const SweepResult full = test::live_sweep(in.spec, mixed_measure);
    const SweepResult repriced = run_sweep(in.spec, mixed_measure, {.jobs = in.jobs});
    EXPECT_GE(repriced.repricing.captures, in.min_captures);
    EXPECT_LE(repriced.repricing.captures, in.max_captures);
    EXPECT_EQ(repriced.repricing.reprices > 0, in.reprices);
    ASSERT_EQ(full.rows.size(), in.spec.size());
    expect_same_artifacts(full, repriced);
    // The ineligible rows must really run their planner.
    for (const auto& row : full.rows) {
      if (row.point.variant != "migrate") continue;
      const auto promoted = std::ranges::find(row.metrics, std::string("promoted"),
                                              [](const Metric& m) { return m.first; });
      ASSERT_NE(promoted, row.metrics.end());
      EXPECT_GT(promoted->second, 0.0) << "LoI " << row.point.loi;
    }
  }
}

// ---- a registered scenario with a real timing axis --------------------------

// ext-cxl's measure function hands its pooled run to `sensitivity_sweep`
// as the LoI-0 baseline for LoI levels {0, 50}, with the workload and
// machine shaping held fixed, so inside the sweep the pooled run captures
// and the LoI-50 run folds the profile — reprices must be strictly
// positive. The byte-compare against the live reference loop makes this
// the scenario-level equivalence gate for a grid that genuinely re-prices.
TEST(Reprice, ExtCxlScenarioRepricesAndMatchesFullSimulation) {
  const auto* scenario = ScenarioRegistry::instance().find("ext-cxl");
  ASSERT_NE(scenario, nullptr);
  SweepResult full = test::live_sweep(scenario->spec, scenario->measure);
  full.scenario = scenario->name;
  const SweepResult repriced = run_scenario(*scenario, {.jobs = 1});
  EXPECT_GT(repriced.repricing.captures, 0u);
  EXPECT_GT(repriced.repricing.reprices, 0u);
  expect_same_artifacts(full, repriced);
}

}  // namespace
}  // namespace memdis::core
