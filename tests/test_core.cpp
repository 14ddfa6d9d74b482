// Tests for the quantitative-methodology library: roofline models, scaling
// curves, prefetch formulas, the experiment runner, interference
// quantification, and the placement advisor.
#include <gtest/gtest.h>

#include <atomic>

#include "common/contract.h"
#include "core/advisor.h"
#include "core/experiment.h"
#include "core/interference.h"
#include "core/prefetch_analysis.h"
#include "core/profiler.h"
#include "core/roofline.h"
#include "core/scaling_curve.h"
#include "engine_run.h"
#include "workloads/hypre.h"
#include "workloads/lbench.h"

namespace memdis::core {
namespace {

using memsim::MachineConfig;

// ---------- roofline ------------------------------------------------------------

TEST(Roofline, AttainableIsMinOfRoofs) {
  RooflineModel r(100.0, 50.0);
  EXPECT_DOUBLE_EQ(r.attainable_gflops(1.0), 50.0);
  EXPECT_DOUBLE_EQ(r.attainable_gflops(2.0), 100.0);
  EXPECT_DOUBLE_EQ(r.attainable_gflops(10.0), 100.0);
}

TEST(Roofline, RidgePointSeparatesRegimes) {
  RooflineModel r(100.0, 50.0);
  EXPECT_DOUBLE_EQ(r.ridge_point(), 2.0);
  EXPECT_LT(r.attainable_gflops(1.9), 100.0);
  EXPECT_DOUBLE_EQ(r.attainable_gflops(2.1), 100.0);
}

TEST(Roofline, MultiTierRaisesBandwidthRoof) {
  const auto m = MachineConfig::skylake_testbed();
  const auto local = RooflineModel::local_tier(m);
  const auto multi = RooflineModel::multi_tier(m);
  EXPECT_DOUBLE_EQ(local.bandwidth_gbps(), 73.0);
  EXPECT_DOUBLE_EQ(multi.bandwidth_gbps(), 107.0);
  EXPECT_LT(multi.ridge_point(), local.ridge_point());
}

TEST(Roofline, InvalidPeaksViolateContract) {
  EXPECT_THROW(RooflineModel(0.0, 1.0), contract_violation);
  EXPECT_THROW(RooflineModel(1.0, -1.0), contract_violation);
}

TEST(EffectiveBandwidth, PeaksAtBandwidthRatio) {
  const auto m = MachineConfig::skylake_testbed();
  const double at_ratio = effective_bandwidth_gbps(m, m.remote_bandwidth_ratio());
  EXPECT_NEAR(at_ratio, 107.0, 0.5);  // both tiers fully streamed
  EXPECT_LT(effective_bandwidth_gbps(m, 0.05), at_ratio);
  EXPECT_LT(effective_bandwidth_gbps(m, 0.8), at_ratio);
}

TEST(EffectiveBandwidth, EndpointsMatchSingleTiers) {
  const auto m = MachineConfig::skylake_testbed();
  EXPECT_DOUBLE_EQ(effective_bandwidth_gbps(m, 0.0), 73.0);
  EXPECT_DOUBLE_EQ(effective_bandwidth_gbps(m, 1.0), 34.0);
}

TEST(EffectiveBandwidth, InterferenceLowersRemoteSide) {
  const auto m = MachineConfig::skylake_testbed();
  const double idle = effective_bandwidth_gbps_under_loi(m, 0.5, 0.0);
  const double loaded = effective_bandwidth_gbps_under_loi(m, 0.5, 80.0);
  EXPECT_LT(loaded, idle);
  // Local-only traffic is immune.
  EXPECT_DOUBLE_EQ(effective_bandwidth_gbps_under_loi(m, 0.0, 80.0), 73.0);
}

// ---------- scaling curve ----------------------------------------------------------

std::unordered_map<std::uint64_t, std::uint64_t> uniform_pages(int n, std::uint64_t count) {
  std::unordered_map<std::uint64_t, std::uint64_t> h;
  for (int p = 0; p < n; ++p) h[static_cast<std::uint64_t>(p)] = count;
  return h;
}

TEST(ScalingCurve, UniformIsDiagonal) {
  const ScalingCurve c(uniform_pages(100, 10));
  EXPECT_NEAR(c.access_fraction_at(0.5), 0.5, 0.02);
  EXPECT_NEAR(c.skewness(), 0.0, 0.02);
}

TEST(ScalingCurve, SkewedRisesSharply) {
  auto h = uniform_pages(100, 1);
  h[0] = 1000;  // one hot page
  const ScalingCurve c(h);
  EXPECT_GT(c.access_fraction_at(0.02), 0.85);
  EXPECT_GT(c.skewness(), 0.7);
}

TEST(ScalingCurve, EndpointsAreZeroAndOne) {
  const ScalingCurve c(uniform_pages(10, 5));
  EXPECT_DOUBLE_EQ(c.access_fraction_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.access_fraction_at(1.0), 1.0);
}

TEST(ScalingCurve, MonotoneNondecreasing) {
  auto h = uniform_pages(50, 2);
  h[3] = 100;
  h[7] = 40;
  const ScalingCurve c(h);
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double v = c.access_fraction_at(i / 100.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ScalingCurve, UntouchedPagesStretchFootprint) {
  const ScalingCurve hot_only(uniform_pages(10, 5), 0);
  const ScalingCurve with_cold(uniform_pages(10, 5), 90);
  // With 90% cold pages, 10% of footprint already covers all accesses.
  EXPECT_NEAR(with_cold.access_fraction_at(0.10), 1.0, 0.01);
  EXPECT_GT(with_cold.skewness(), hot_only.skewness());
}

TEST(ScalingCurve, InverseLookupConsistent) {
  auto h = uniform_pages(100, 1);
  h[0] = 100;
  const ScalingCurve c(h);
  for (const double af : {0.3, 0.6, 0.9}) {
    const double ff = c.footprint_fraction_for(af);
    EXPECT_NEAR(c.access_fraction_at(ff), af, 0.02);
  }
}

TEST(ScalingCurve, DistanceZeroToSelf) {
  const ScalingCurve c(uniform_pages(20, 3));
  EXPECT_NEAR(c.distance(c), 0.0, 1e-12);
}

TEST(ScalingCurve, DistanceDetectsSkewDifference) {
  const ScalingCurve uniform(uniform_pages(100, 10));
  auto h = uniform_pages(100, 1);
  h[0] = 5000;
  const ScalingCurve skewed(h);
  EXPECT_GT(uniform.distance(skewed), 0.5);
}

TEST(ScalingCurve, EmptyViolatesContract) {
  const std::unordered_map<std::uint64_t, std::uint64_t> empty;
  EXPECT_THROW(ScalingCurve{empty}, contract_violation);
}

TEST(ScalingCurve, SampleHasRequestedPoints) {
  const ScalingCurve c(uniform_pages(10, 5));
  const auto ys = c.sample(11);
  ASSERT_EQ(ys.size(), 11u);
  EXPECT_DOUBLE_EQ(ys.front(), 0.0);
  EXPECT_DOUBLE_EQ(ys.back(), 1.0);
}

// ---------- prefetch formulas -------------------------------------------------------

cachesim::HwCounters counters_with(std::uint64_t pf_rd, std::uint64_t pf_rfo,
                                   std::uint64_t useless, std::uint64_t lines_in) {
  cachesim::HwCounters c;
  c.pf_l2_data_rd = pf_rd;
  c.pf_l2_rfo = pf_rfo;
  c.useless_hwpf = useless;
  c.l2_lines_in = lines_in;
  return c;
}

TEST(PrefetchFormulas, AccuracyEq1) {
  const auto c = counters_with(80, 20, 10, 200);
  EXPECT_DOUBLE_EQ(prefetch_accuracy(c), 0.9);  // (100-10)/100
}

TEST(PrefetchFormulas, CoverageEq2) {
  const auto c = counters_with(80, 20, 10, 200);
  EXPECT_DOUBLE_EQ(prefetch_coverage(c), 90.0 / 190.0);
}

TEST(PrefetchFormulas, NoPrefetchesGivesZero) {
  const auto c = counters_with(0, 0, 0, 100);
  EXPECT_DOUBLE_EQ(prefetch_accuracy(c), 0.0);
  EXPECT_DOUBLE_EQ(prefetch_coverage(c), 0.0);
}

TEST(PrefetchFormulas, AnalyzeComputesGainAndExcess) {
  auto on = counters_with(100, 0, 5, 300);
  on.dram_read_bytes[0] = 1100;
  auto off = counters_with(0, 0, 0, 280);
  off.dram_read_bytes[0] = 1000;
  const auto m = analyze_prefetch(on, 1.0, off, 1.5);
  EXPECT_NEAR(m.excess_traffic, 0.1, 1e-12);
  EXPECT_NEAR(m.performance_gain, 0.5, 1e-12);
}

// ---------- experiment runner --------------------------------------------------------

TEST(Experiment, CapturesCountersAndPhases) {
  workloads::HypreParams p;
  p.grid = 48;
  p.iterations = 3;
  workloads::Hypre wl(p);
  const RunOutput out = run_workload(wl, RunConfig{});
  EXPECT_TRUE(out.result.verified);
  EXPECT_GT(out.elapsed_s, 0.0);
  EXPECT_GT(out.flops, 0u);
  EXPECT_EQ(out.phases.size(), 2u);
  EXPECT_GT(out.peak_rss_bytes, 0u);
  EXPECT_FALSE(out.page_accesses.empty());
}

TEST(Experiment, RemoteCapacityRatioForcesSpill) {
  workloads::HypreParams p;
  p.grid = 96;
  p.iterations = 2;
  workloads::Hypre wl(p);
  RunConfig cfg;
  cfg.remote_capacity_ratio = 0.5;
  const RunOutput out = run_workload(wl, cfg);
  EXPECT_NEAR(out.remote_capacity_ratio(), 0.5, 0.1);
  EXPECT_GT(out.remote_access_ratio(), 0.1);
}

TEST(Experiment, LocalOnlyHasNoRemoteAccess) {
  workloads::HypreParams p;
  p.grid = 48;
  p.iterations = 2;
  workloads::Hypre wl(p);
  const RunOutput out = run_workload(wl, RunConfig{});
  EXPECT_DOUBLE_EQ(out.remote_access_ratio(), 0.0);
}

TEST(Experiment, PrefetchToggleChangesCounters) {
  workloads::HypreParams p;
  p.grid = 64;
  p.iterations = 2;
  workloads::Hypre wl(p);
  RunConfig on;
  RunConfig off;
  off.prefetch_enabled = false;
  const auto r_on = run_workload(wl, on);
  const auto r_off = run_workload(wl, off);
  EXPECT_GT(r_on.counters.prefetch_fills(), 0u);
  EXPECT_EQ(r_off.counters.prefetch_fills(), 0u);
  EXPECT_LT(r_on.elapsed_s, r_off.elapsed_s);
}

// ---------- interference --------------------------------------------------------------

TEST(Lbench, OfferedTrafficInverseInNflop) {
  const auto m = MachineConfig::skylake_testbed();
  const double t1 = lbench_offered_traffic_gbps(m, 12, 1);
  const double t2 = lbench_offered_traffic_gbps(m, 12, 2);
  EXPECT_NEAR(t1 / t2, 2.0, 1e-9);
}

TEST(Lbench, TrafficScalesWithThreads) {
  const auto m = MachineConfig::skylake_testbed();
  EXPECT_NEAR(lbench_offered_traffic_gbps(m, 2, 8) / lbench_offered_traffic_gbps(m, 1, 8),
              2.0, 1e-9);
}

TEST(Calibration, NflopForLoiRoundTrips) {
  const auto m = MachineConfig::skylake_testbed();
  const LbenchCalibration cal(m, 12);
  for (const double target : {10.0, 20.0, 30.0, 40.0, 50.0}) {
    const auto nflop = cal.nflop_for_loi(target);
    EXPECT_GE(nflop, 1u);
    EXPECT_NEAR(cal.loi_for_nflop(nflop), target, target * 0.25);
  }
}

TEST(Calibration, MeasuredLoiSaturatesAt100) {
  const auto m = MachineConfig::skylake_testbed();
  const LbenchCalibration cal(m, 12);
  for (const auto& pt : cal.points()) {
    EXPECT_LE(pt.measured_loi, 100.0);
    EXPECT_GE(pt.offered_loi, pt.measured_loi);
  }
}

TEST(InterferenceCoefficient, OneOnIdleSystem) {
  const auto m = MachineConfig::skylake_testbed();
  EXPECT_DOUBLE_EQ(interference_coefficient_at(m, 0.0), 1.0);
}

TEST(InterferenceCoefficient, MonotoneAndKeepsRisingPastSaturation) {
  const auto m = MachineConfig::skylake_testbed();
  double prev = 0.0;
  for (const double u : {0.25, 0.5, 1.0, 2.0, 5.0, 11.0}) {
    const double ic = interference_coefficient_at(m, u);
    EXPECT_GT(ic, prev);
    prev = ic;
  }
  // Paper Fig. 11: IC ≈ 2.6 at full LBench blast while PCM saturates.
  EXPECT_GT(interference_coefficient_at(m, 11.0), 2.0);
  EXPECT_LT(interference_coefficient_at(m, 11.0), 3.5);
}

TEST(Sensitivity, InterpolationIsPiecewiseLinear) {
  const std::vector<SensitivityPoint> curve = {{0, 1.0}, {20, 0.9}, {50, 0.6}};
  EXPECT_DOUBLE_EQ(interpolate_sensitivity(curve, 0), 1.0);
  EXPECT_DOUBLE_EQ(interpolate_sensitivity(curve, 10), 0.95);
  EXPECT_DOUBLE_EQ(interpolate_sensitivity(curve, 35), 0.75);
  EXPECT_DOUBLE_EQ(interpolate_sensitivity(curve, 80), 0.6);  // clamps
}

TEST(Sensitivity, SweepStartsAtOneAndDecreases) {
  workloads::HypreParams p;
  p.grid = 96;
  p.iterations = 3;
  workloads::Hypre wl(p);
  RunConfig cfg;
  cfg.remote_capacity_ratio = 0.5;
  const auto curve = sensitivity_sweep(wl, cfg, run_workload(wl, cfg), {0, 25, 50});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].relative_performance, 1.0);
  EXPECT_LT(curve[1].relative_performance, 1.0);
  EXPECT_LE(curve[2].relative_performance, curve[1].relative_performance);
}

TEST(InducedInterference, TracksRemoteTraffic) {
  workloads::LbenchParams p;
  p.elements = 1 << 16;
  p.nflop = 1;
  p.sweeps = 2;
  workloads::Lbench wl(p);
  RunConfig cfg;
  const auto run = run_workload(wl, cfg);
  const auto induced = induced_interference(run, cfg.machine);
  EXPECT_GT(induced.ic_mean, 1.0);
  EXPECT_LE(induced.ic_min, induced.ic_mean);
  EXPECT_GE(induced.ic_max, induced.ic_mean);
}

// ---------- advisor -----------------------------------------------------------------

Level2Profile fake_level2(double r_cap, double r_bw,
                          std::vector<std::pair<double, double>> phase_ratio_weight) {
  Level2Profile p;
  p.remote_capacity_ratio_configured = r_cap;
  p.remote_bandwidth_ratio = r_bw;
  int i = 0;
  for (const auto& [ratio, weight] : phase_ratio_weight) {
    PhaseTierAccess pa;
    // Built via std::string + append (not `"p" + std::to_string(...)`) to
    // dodge gcc 12's -Wrestrict false positive (PR105651) under -O2.
    pa.tag = std::string("p").append(std::to_string(++i));
    pa.remote_access_ratio = ratio;
    pa.weight = weight;
    p.phases.push_back(pa);
  }
  return p;
}

TEST(Advisor, BalancedPhaseNeedsNoTuning) {
  const auto report = advise(fake_level2(0.5, 0.32, {{0.2, 1.0}}));
  EXPECT_EQ(report.phases[0].verdict, PlacementVerdict::kBalanced);
  EXPECT_EQ(report.dominant_phase, -1);
  EXPECT_NE(report.summary.find("little optimization space"), std::string::npos);
}

TEST(Advisor, AboveCapacityIsTopPriority) {
  const auto report = advise(fake_level2(0.5, 0.32, {{0.9, 0.8}, {0.4, 0.2}}));
  EXPECT_EQ(report.phases[0].verdict, PlacementVerdict::kAboveCapacityRef);
  EXPECT_EQ(report.phases[1].verdict, PlacementVerdict::kAboveBandwidthRef);
  EXPECT_EQ(report.dominant_phase, 0);
}

TEST(Advisor, WeightBreaksTies) {
  // Same excess, different runtime weights: the heavier phase dominates.
  const auto report = advise(fake_level2(0.5, 0.32, {{0.7, 0.1}, {0.7, 0.9}}));
  EXPECT_EQ(report.dominant_phase, 1);
}

TEST(Advisor, ReferencesFlipWhenCapacityBelowBandwidth) {
  // 25% remote capacity < 32% bandwidth ratio: band is [0.25, 0.32].
  const auto report = advise(fake_level2(0.25, 0.32, {{0.28, 1.0}}));
  EXPECT_EQ(report.phases[0].verdict, PlacementVerdict::kAboveBandwidthRef);
}

TEST(Advisor, VerdictNamesAreStable) {
  EXPECT_STREQ(verdict_name(PlacementVerdict::kBalanced), "balanced");
  EXPECT_STREQ(verdict_name(PlacementVerdict::kAboveBandwidthRef), "above-R_bw");
  EXPECT_STREQ(verdict_name(PlacementVerdict::kAboveCapacityRef), "above-R_cap");
}

// ---------- profiler levels ------------------------------------------------------------

TEST(Profiler, Level1ProducesFullProfile) {
  workloads::HypreParams p;
  p.grid = 64;
  p.iterations = 3;
  workloads::Hypre wl(p);
  const MultiLevelProfiler profiler{};
  const auto l1 = profiler.level1(wl);
  EXPECT_TRUE(l1.run.result.verified);
  EXPECT_GT(l1.arithmetic_intensity, 0.0);
  EXPECT_GT(l1.mean_dram_gbps, 0.0);
  EXPECT_EQ(l1.phases.size(), 2u);
  EXPECT_FALSE(l1.run.epochs.empty());
  const auto pf = profiler.prefetch(wl, l1);
  EXPECT_GT(pf.metrics.coverage, 0.0);
  EXPECT_GT(pf.metrics.performance_gain, 0.0);
  EXPECT_FALSE(pf.off.epochs.empty());
}

TEST(Profiler, EachStepSimulatesEachConfigurationOnce) {
  workloads::LbenchParams p;
  p.elements = 1 << 16;
  p.nflop = 1;
  p.sweeps = 4;
  std::atomic<int> runs{0};
  test::CountingLbench wl(p, runs);
  const MultiLevelProfiler profiler{};
  const auto l1 = profiler.level1(wl);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_GT(l1.run.counters.prefetch_fills(), 0u);  // the prefetch-on run
  const auto pf = profiler.prefetch(wl, l1);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(pf.off.counters.prefetch_fills(), 0u);  // then its prefetch-off twin
  // One LoI-0 baseline feeds both the curve and the induced IC, and the
  // profile hands that run back instead of a caller simulating it again.
  const auto l3 = profiler.level3(wl, 0.5, {0, 25, 50});
  EXPECT_EQ(runs.load(), 5);
  RunConfig cfg = profiler.base_config();
  cfg.remote_capacity_ratio = 0.5;
  const RunOutput fresh = run_workload(wl, cfg);
  EXPECT_EQ(test::bits(l3.baseline.elapsed_s), test::bits(fresh.elapsed_s));
  EXPECT_TRUE(test::same_counters(l3.baseline.counters, fresh.counters));
  ASSERT_FALSE(fresh.epochs.empty());
  ASSERT_EQ(l3.baseline.epochs.size(), fresh.epochs.size());
  for (std::size_t i = 0; i < fresh.epochs.size(); ++i)
    EXPECT_EQ(test::bits(l3.baseline.epochs[i].duration_s),
              test::bits(fresh.epochs[i].duration_s))
        << "epoch " << i;
}

TEST(Profiler, Level2RatiosInRange) {
  workloads::HypreParams p;
  p.grid = 96;
  p.iterations = 2;
  workloads::Hypre wl(p);
  const MultiLevelProfiler profiler{};
  const auto l2 = profiler.level2(wl, 0.25);
  EXPECT_NEAR(l2.remote_capacity_ratio_measured, 0.25, 0.1);
  EXPECT_GE(l2.remote_access_ratio_total, 0.0);
  EXPECT_LE(l2.remote_access_ratio_total, 1.0);
  ASSERT_EQ(l2.phases.size(), 2u);
}

TEST(Profiler, Level3SensitivityAndIc) {
  workloads::HypreParams p;
  p.grid = 64;
  p.iterations = 2;
  workloads::Hypre wl(p);
  const MultiLevelProfiler profiler{};
  const auto l3 = profiler.level3(wl, 0.5, {0, 50});
  ASSERT_EQ(l3.sensitivity.size(), 2u);
  EXPECT_LT(l3.sensitivity[1].relative_performance, 1.0);
  EXPECT_GE(l3.induced.ic_mean, 1.0);
}

}  // namespace
}  // namespace memdis::core
