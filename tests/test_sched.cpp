// Tests for the Fig. 13 co-location protocol, plus the native LBench
// runner. Rack-scale co-location is the fleet simulator (test_fleet).
#include <gtest/gtest.h>

#include "common/contract.h"
#include "native/lbench_native.h"
#include "sched/colocation.h"

namespace memdis::sched {
namespace {

JobProfile sensitive_job(const std::string& name = "sensitive") {
  JobProfile job;
  job.app = name;
  job.base_runtime_s = 480.0;
  job.sensitivity = {{0, 1.0}, {10, 0.97}, {20, 0.94}, {30, 0.91}, {40, 0.88}, {50, 0.85}};
  return job;
}

JobProfile insensitive_job(const std::string& name = "insensitive") {
  JobProfile job;
  job.app = name;
  job.base_runtime_s = 480.0;
  job.sensitivity = {{0, 1.0}, {50, 0.995}};
  return job;
}

// ---------- simulate_run -----------------------------------------------------------

TEST(SimulateRun, IdleSystemTakesBaseRuntime) {
  const auto job = sensitive_job();
  EXPECT_NEAR(simulate_run(job, 0.0, 60.0, 1), job.base_runtime_s, 1e-9);
}

TEST(SimulateRun, InterferenceExtendsRuntime) {
  const auto job = sensitive_job();
  const double t = simulate_run(job, 50.0, 60.0, 1);
  EXPECT_GT(t, job.base_runtime_s);
  // Worst case is constant LoI=50: base / 0.85.
  EXPECT_LT(t, job.base_runtime_s / 0.85 + 1e-9);
}

TEST(SimulateRun, DeterministicPerSeed) {
  const auto job = sensitive_job();
  EXPECT_DOUBLE_EQ(simulate_run(job, 50.0, 60.0, 7), simulate_run(job, 50.0, 60.0, 7));
  EXPECT_NE(simulate_run(job, 50.0, 60.0, 7), simulate_run(job, 50.0, 60.0, 8));
}

TEST(SimulateRun, InsensitiveJobBarelyAffected) {
  const auto job = insensitive_job();
  const double t = simulate_run(job, 50.0, 60.0, 3);
  EXPECT_NEAR(t, job.base_runtime_s, job.base_runtime_s * 0.006);
}

TEST(SimulateRun, InvalidInputsViolateContract) {
  JobProfile bad;
  bad.base_runtime_s = 0.0;
  bad.sensitivity = {{0, 1.0}};
  EXPECT_THROW((void)simulate_run(bad, 10.0, 60.0, 1), contract_violation);
}

// Pins simulate_run to an exact wall time for one fixed profile, so a
// refactor of its interval loop cannot drift by an ulp.
TEST(SimulateRun, IntervalLoopsReproducePinnedValues) {
  JobProfile job;
  job.app = "pinned";
  job.base_runtime_s = 487.5;
  job.sensitivity = {{0, 1.0}, {10, 0.97}, {25, 0.9}, {50, 0.83}};
  EXPECT_EQ(simulate_run(job, 50.0, 37.0, 11), 521.10843146129093);
}

// ---------- co-location comparison ---------------------------------------------------

TEST(CoLocation, AwareSchedulerImprovesMeanAndTail) {
  CoLocationConfig cfg;
  cfg.runs = 100;
  const auto cmp = compare_schedulers(sensitive_job(), cfg);
  EXPECT_GT(cmp.mean_speedup, 0.0);
  EXPECT_GT(cmp.p75_reduction, 0.0);
  EXPECT_LT(cmp.aware.summary.max, cmp.baseline.summary.max + 1e-9);
}

TEST(CoLocation, InsensitiveJobSeesLittleBenefit) {
  CoLocationConfig cfg;
  cfg.runs = 100;
  const auto cmp = compare_schedulers(insensitive_job(), cfg);
  EXPECT_LT(cmp.mean_speedup, 0.01);
}

TEST(CoLocation, SummariesAreOrdered) {
  CoLocationConfig cfg;
  cfg.runs = 50;
  const auto out = run_colocation(sensitive_job(), 50.0, cfg);
  EXPECT_EQ(out.times_s.size(), 50u);
  EXPECT_LE(out.summary.min, out.summary.q1);
  EXPECT_LE(out.summary.q1, out.summary.median);
  EXPECT_LE(out.summary.median, out.summary.q3);
  EXPECT_LE(out.summary.q3, out.summary.max);
  EXPECT_GE(out.summary.min, sensitive_job().base_runtime_s - 1e-9);
}

TEST(CoLocation, MoreSensitiveJobsBenefitMore) {
  CoLocationConfig cfg;
  cfg.runs = 100;
  const auto strong = compare_schedulers(sensitive_job(), cfg);
  const auto weak = compare_schedulers(insensitive_job(), cfg);
  EXPECT_GT(strong.mean_speedup, weak.mean_speedup);
}

// Property: the aware scheduler's variability (IQR) never exceeds baseline's.
class CoLocationSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoLocationSeedTest, AwareNeverWorseOnVariability) {
  CoLocationConfig cfg;
  cfg.runs = 60;
  cfg.seed = GetParam();
  const auto cmp = compare_schedulers(sensitive_job(), cfg);
  const double iqr_base = cmp.baseline.summary.q3 - cmp.baseline.summary.q1;
  const double iqr_aware = cmp.aware.summary.q3 - cmp.aware.summary.q1;
  EXPECT_LE(iqr_aware, iqr_base * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoLocationSeedTest, ::testing::Values(1u, 17u, 999u, 4242u));

// ---------- native LBench --------------------------------------------------------------

TEST(NativeLbench, ComputesVerifiedValues) {
  native::NativeLbenchConfig cfg;
  cfg.elements = 1 << 14;
  cfg.nflop = 5;
  cfg.sweeps = 3;
  cfg.threads = 2;
  const auto res = native::run_native_lbench(cfg);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.data_gbps, 0.0);
}

TEST(NativeLbench, ThreadCountsAgreeOnValues) {
  native::NativeLbenchConfig cfg;
  cfg.elements = 1 << 12;
  cfg.nflop = 3;
  cfg.sweeps = 2;
  cfg.threads = 1;
  const auto a = native::run_native_lbench(cfg);
  cfg.threads = 4;
  const auto b = native::run_native_lbench(cfg);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(NativeLbench, InvalidConfigViolatesContract) {
  native::NativeLbenchConfig cfg;
  cfg.elements = 0;
  EXPECT_THROW((void)native::run_native_lbench(cfg), contract_violation);
}

}  // namespace
}  // namespace memdis::sched
