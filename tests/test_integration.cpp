// Integration tests: end-to-end paper-shape assertions across modules.
// Each test encodes one of the paper's qualitative findings and checks the
// reproduction preserves it (who wins, orderings, crossovers) — these are
// the guardrails for the figure benches.
#include <gtest/gtest.h>

#include <map>

#include "core/advisor.h"
#include "core/interference.h"
#include "core/profiler.h"
#include "sched/colocation.h"
#include "workloads/bfs.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

using core::MultiLevelProfiler;
using core::RunConfig;
using workloads::App;

// Shared profiles are expensive to compute; cache them per fixture.
class PaperShape : public ::testing::Test {
 protected:
  static const core::Level1Profile& level1(App app) {
    static std::map<App, core::Level1Profile> cache;
    auto it = cache.find(app);
    if (it == cache.end()) {
      auto wl = workloads::make_workload(app, 1);
      it = cache.emplace(app, MultiLevelProfiler{}.level1(*wl)).first;
    }
    return it->second;
  }

  // Eq. 1-2 on the Level-1 run alone.
  static double coverage(App app) { return core::prefetch_coverage(level1(app).run.counters); }
  static double accuracy(App app) { return core::prefetch_accuracy(level1(app).run.counters); }

  // Excess traffic and gain: the cached Level-1 run against its
  // prefetch-off twin (a fresh instance of the same workload).
  static core::PrefetchMetrics prefetch(App app) {
    static std::map<App, core::PrefetchMetrics> cache;
    auto it = cache.find(app);
    if (it == cache.end()) {
      auto wl = workloads::make_workload(app, 1);
      it = cache.emplace(app, MultiLevelProfiler{}.prefetch(*wl, level1(app)).metrics).first;
    }
    return it->second;
  }

  static core::Level2Profile level2(App app, double ratio) {
    static std::map<std::pair<App, int>, core::Level2Profile> cache;
    const auto key = std::make_pair(app, static_cast<int>(ratio * 100));
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto wl = workloads::make_workload(app, 1);
      it = cache.emplace(key, MultiLevelProfiler{}.level2(*wl, ratio)).first;
    }
    return it->second;
  }
};

// ---------- Sec. 4.1 / Fig. 6 ----------------------------------------------------

TEST_F(PaperShape, HplAndHypreAccessUniformly) {
  EXPECT_LT(level1(App::kHPL).scaling_curve.skewness(), 0.45);
  EXPECT_LT(level1(App::kHypre).scaling_curve.skewness(), 0.45);
}

TEST_F(PaperShape, BfsAndXsbenchAccessSkewed) {
  EXPECT_GT(level1(App::kBFS).scaling_curve.skewness(), 0.5);
  EXPECT_GT(level1(App::kXSBench).scaling_curve.skewness(), 0.5);
}

TEST_F(PaperShape, SkewOrderingBfsVsHpl) {
  EXPECT_GT(level1(App::kBFS).scaling_curve.skewness(),
            level1(App::kHPL).scaling_curve.skewness() + 0.2);
}

// ---------- Sec. 4.2 / Fig. 8 -----------------------------------------------------

TEST_F(PaperShape, StreamingAppsHaveHighestCoverage) {
  const double nek = coverage(App::kNekRS);
  const double hyp = coverage(App::kHypre);
  const double xs = coverage(App::kXSBench);
  const double bfs = coverage(App::kBFS);
  EXPECT_GT(nek, 0.5);
  EXPECT_GT(hyp, 0.5);
  EXPECT_LT(xs, 0.2);
  EXPECT_GT(nek, bfs);
  EXPECT_GT(hyp, xs);
}

TEST_F(PaperShape, XsbenchHasLowestPrefetchAccuracy) {
  const double xs = accuracy(App::kXSBench);
  for (const App other : {App::kHPL, App::kNekRS, App::kHypre, App::kBFS}) {
    EXPECT_LT(xs, accuracy(other)) << workloads::app_name(other);
  }
}

TEST_F(PaperShape, XsbenchThrottlesItsPrefetcher) {
  // Lowest accuracy yet small excess traffic (the adaptation the paper notes).
  EXPECT_LT(prefetch(App::kXSBench).excess_traffic, 0.10);
}

TEST_F(PaperShape, SuperluHasHighestExcessTraffic) {
  const double slu = prefetch(App::kSuperLU).excess_traffic;
  EXPECT_GT(slu, 0.08);
  for (const App other : {App::kHPL, App::kNekRS, App::kHypre, App::kBFS, App::kXSBench}) {
    EXPECT_GT(slu, prefetch(other).excess_traffic) << workloads::app_name(other);
  }
}

TEST_F(PaperShape, PrefetchGainLargeForNekrsSmallForXsbench) {
  EXPECT_GT(prefetch(App::kNekRS).performance_gain, 0.25);
  EXPECT_LT(prefetch(App::kXSBench).performance_gain, 0.10);
}

// ---------- Sec. 5.1 / Fig. 9 ------------------------------------------------------

TEST_F(PaperShape, XsbenchRemoteAccessStaysLow) {
  for (const double ratio : {0.25, 0.5}) {
    double p2_remote = 1.0;
    for (const auto& phase : level2(App::kXSBench, ratio).phases)
      if (phase.tag == "p2") p2_remote = phase.remote_access_ratio;
    EXPECT_LT(p2_remote, 0.10) << "ratio " << ratio;
  }
}

TEST_F(PaperShape, BfsComputeIsAlmostFullyRemoteAt75) {
  double p2_remote = 0.0;
  for (const auto& phase : level2(App::kBFS, 0.75).phases)
    if (phase.tag == "p2") p2_remote = phase.remote_access_ratio;
  EXPECT_GT(p2_remote, 0.9);  // paper: 99%
}

TEST_F(PaperShape, RemoteAccessGrowsWithCapacityRatio) {
  for (const App app : {App::kHPL, App::kHypre, App::kNekRS}) {
    const double r25 = level2(app, 0.25).remote_access_ratio_total;
    const double r75 = level2(app, 0.75).remote_access_ratio_total;
    EXPECT_GT(r75, r25) << workloads::app_name(app);
  }
}

TEST_F(PaperShape, MeasuredCapacityRatioMatchesConfigured) {
  for (const App app : {App::kHPL, App::kHypre}) {
    const auto l2 = level2(app, 0.5);
    EXPECT_NEAR(l2.remote_capacity_ratio_measured, 0.5, 0.12) << workloads::app_name(app);
  }
}

TEST_F(PaperShape, AdvisorFlagsBfsPlacementAt75) {
  const auto report = core::advise(level2(App::kBFS, 0.75));
  ASSERT_GE(report.dominant_phase, 0);  // placement tuning is worthwhile
  // The traversal phase exceeds even the capacity reference (the paper's
  // 99%-remote finding that motivates the Sec. 7.1 case study).
  bool p2_flagged = false;
  for (const auto& phase : report.phases) {
    if (phase.tag == "p2") {
      EXPECT_EQ(phase.verdict, core::PlacementVerdict::kAboveCapacityRef);
      EXPECT_GT(phase.priority, 0.0);
      p2_flagged = true;
    }
  }
  EXPECT_TRUE(p2_flagged);
}

// ---------- Sec. 6 / Fig. 10–11 ------------------------------------------------------

TEST_F(PaperShape, HypreMoreInterferenceSensitiveThanHpl) {
  // Each curve's baseline is the cached Level-2 run at the same split.
  const auto curve = [](App app) {
    auto wl = workloads::make_workload(app, 1);
    RunConfig pooled;
    pooled.remote_capacity_ratio = 0.5;
    return core::sensitivity_sweep(*wl, pooled, level2(app, 0.5).run, {0, 50}, "p2");
  };
  const auto c_hypre = curve(App::kHypre);
  const auto c_hpl = curve(App::kHPL);
  EXPECT_LT(c_hypre.back().relative_performance, c_hpl.back().relative_performance);
  // Paper magnitudes on the 50/50 split: Hypre ≈ 15% loss, HPL < 5%.
  EXPECT_LT(c_hypre.back().relative_performance, 0.93);
  EXPECT_GT(c_hpl.back().relative_performance, 0.90);
}

TEST_F(PaperShape, InducedInterferenceOrdering) {
  const auto m = RunConfig{}.machine;
  const auto ic_of = [&](App app) {
    return core::induced_interference(level2(app, 0.5).run, m).ic_mean;
  };
  // NekRS and Hypre induce the most, HPL and XSBench the least (Fig. 11).
  EXPECT_GT(ic_of(App::kHypre), ic_of(App::kXSBench));
  EXPECT_GT(ic_of(App::kNekRS), ic_of(App::kHPL));
}

// ---------- Sec. 7.1 / Fig. 12 --------------------------------------------------------

TEST_F(PaperShape, BfsOptimizationReducesRemoteAccessAndTime) {
  const auto run_variant = [&](workloads::BfsVariant variant) {
    workloads::BfsParams params = workloads::BfsParams::at_scale(1, 42);
    params.variant = variant;
    workloads::Bfs bfs(params);
    return MultiLevelProfiler{}.level2(bfs, 0.75);
  };
  const auto baseline = run_variant(workloads::BfsVariant::kBaseline);
  const auto parents_first = run_variant(workloads::BfsVariant::kParentsFirst);
  const auto optimized = run_variant(workloads::BfsVariant::kOptimized);

  const auto p2_remote = [](const core::Level2Profile& p) {
    for (const auto& phase : p.phases)
      if (phase.tag == "p2") return phase.remote_access_ratio;
    return -1.0;
  };
  const auto p2_time = [](const core::Level2Profile& p) {
    for (const auto& phase : p.run.phases)
      if (phase.tag == "p2") return phase.time_s;
    return -1.0;
  };
  // Remote access drops with each optimization step, and the traversal (the
  // paper's measured runtime) gets faster.
  EXPECT_GT(p2_remote(baseline), p2_remote(parents_first));
  EXPECT_GT(p2_remote(parents_first), p2_remote(optimized));
  EXPECT_LT(p2_time(optimized), p2_time(baseline));
}

// Property sweep: Level-2 invariants hold for every application.
class Level2Invariants : public PaperShape,
                         public ::testing::WithParamInterface<App> {};

TEST_P(Level2Invariants, RatiosWellFormedAt50Percent) {
  const auto l2 = level2(GetParam(), 0.5);
  EXPECT_GE(l2.remote_access_ratio_total, 0.0);
  EXPECT_LE(l2.remote_access_ratio_total, 1.0);
  // The setup_waste emulation must deliver (approximately) the requested
  // capacity split.
  EXPECT_NEAR(l2.remote_capacity_ratio_measured, 0.5, 0.15);
  // Phase ratios bounded, weights roughly partition the runtime.
  double weight_sum = 0.0;
  for (const auto& phase : l2.phases) {
    EXPECT_GE(phase.remote_access_ratio, 0.0);
    EXPECT_LE(phase.remote_access_ratio, 1.0);
    weight_sum += phase.weight;
  }
  EXPECT_GT(weight_sum, 0.7);
  EXPECT_LE(weight_sum, 1.0 + 1e-9);
  // The workload must still verify with half its footprint on the pool.
  EXPECT_TRUE(l2.run.result.verified) << l2.run.result.detail;
}

TEST_P(Level2Invariants, PoolingNeverSpeedsUpItself) {
  // With no interference, moving memory to the slower pool can only hurt
  // (or leave unchanged) the simulated runtime vs. the 25% configuration.
  const auto l2_25 = level2(GetParam(), 0.25);
  const auto l2_75 = level2(GetParam(), 0.75);
  EXPECT_GE(l2_75.run.elapsed_s, l2_25.run.elapsed_s * 0.98);
}

INSTANTIATE_TEST_SUITE_P(AllApps, Level2Invariants, ::testing::ValuesIn(workloads::kAllApps),
                         [](const auto& param_info) {
                           return workloads::app_name(param_info.param);
                         });

// ---------- Sec. 7.2 / Fig. 13 --------------------------------------------------------

TEST_F(PaperShape, InterferenceAwareSchedulingHelpsSensitiveAppsMost) {
  const auto compare = [&](App app) {
    auto wl = workloads::make_workload(app, 1);
    const auto l3 = MultiLevelProfiler{}.level3(*wl, 0.5, {0, 25, 50});
    sched::JobProfile job;
    job.app = wl->name();
    job.base_runtime_s = 480.0;
    job.sensitivity = l3.sensitivity;
    sched::CoLocationConfig cfg;
    cfg.runs = 60;
    return sched::compare_schedulers(job, cfg);
  };
  const auto hypre = compare(App::kHypre);
  const auto xs = compare(App::kXSBench);
  EXPECT_GE(hypre.mean_speedup, xs.mean_speedup);
  EXPECT_GT(hypre.mean_speedup, 0.0);
}

}  // namespace
}  // namespace memdis
