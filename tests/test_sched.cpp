// Tests for the scheduling studies: the Fig. 13 co-location protocol and
// the rack-scale cluster simulation, plus the native LBench runner.
#include <gtest/gtest.h>

#include "common/contract.h"
#include "native/lbench_native.h"
#include "sched/cluster.h"
#include "sched/colocation.h"

namespace memdis::sched {
namespace {

JobProfile sensitive_job(const std::string& name = "sensitive") {
  JobProfile job;
  job.app = name;
  job.base_runtime_s = 480.0;
  job.sensitivity = {{0, 1.0}, {10, 0.97}, {20, 0.94}, {30, 0.91}, {40, 0.88}, {50, 0.85}};
  job.induced_ic = 1.4;
  return job;
}

JobProfile insensitive_job(const std::string& name = "insensitive") {
  JobProfile job;
  job.app = name;
  job.base_runtime_s = 480.0;
  job.sensitivity = {{0, 1.0}, {50, 0.995}};
  job.induced_ic = 1.02;
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

// Pins the three interval-loop entry points to exact wall times for one
// fixed profile, so a refactor of their shared loop cannot drift by an ulp
// or shift the per-link RNG stream (every link is drawn each interval, even
// those without a curve).
TEST(SimulateRun, IntervalLoopsReproducePinnedValues) {
  JobProfile job;
  job.app = "pinned";
  job.base_runtime_s = 487.5;
  job.sensitivity = {{0, 1.0}, {10, 0.97}, {25, 0.9}, {50, 0.83}};
  job.link_sensitivity = {
      {},  // node tier: no link, still drawn
      {{0.0, 1.0}, {20.0, 0.93}, {50.0, 0.78}},
      {},  // unused pool: drawn, never applied
      {{0.0, 1.0}, {50.0, 0.96}},
  };
  memsim::LoiSchedule schedule;
  schedule.set(1, memsim::LoiWaveform::square(3, 0.34, 45.0, 5.0));
  schedule.set(3, memsim::LoiWaveform::ramp(4, 0.0, 40.0));
  EXPECT_EQ(simulate_run(job, 50.0, 37.0, 11), 521.10843146129093);
  EXPECT_EQ(simulate_run_per_link(job, {0.0, 50.0, 30.0, 25.0}, 37.0, 11), 536.76167207976596);
  EXPECT_EQ(simulate_run_scheduled(job, schedule, 37.0), 543.22671545433525);
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

// ---------- cluster simulation --------------------------------------------------------

std::vector<JobRequest> job_stream(int count, double induced_loi, double arrival_gap) {
  std::vector<JobRequest> jobs;
  for (int i = 0; i < count; ++i) {
    JobRequest req;
    req.profile = sensitive_job("job" + std::to_string(i));
    req.nodes = 2;
    req.pool_demand_gb = 64.0;
    req.induced_loi = induced_loi;
    req.arrival_s = i * arrival_gap;
    jobs.push_back(req);
  }
  return jobs;
}

TEST(Cluster, AllJobsComplete) {
  ClusterSim sim(ClusterConfig{});
  const auto out = sim.run(job_stream(12, 15.0, 10.0), SchedulerPolicy::kRandom);
  EXPECT_EQ(out.jobs.size(), 12u);
  for (const auto& j : out.jobs) {
    EXPECT_GE(j.start_s, j.arrival_s);
    EXPECT_GT(j.finish_s, j.start_s);
    EXPECT_GE(j.rack, 0);
  }
}

TEST(Cluster, IdleClusterRunsAtBaseSpeed) {
  ClusterSim sim(ClusterConfig{});
  const auto out = sim.run(job_stream(1, 15.0, 0.0), SchedulerPolicy::kRandom);
  EXPECT_NEAR(out.jobs[0].runtime_s(), 480.0, 1e-6);
  EXPECT_NEAR(out.mean_slowdown, 1.0, 1e-9);
}

TEST(Cluster, AwarePolicySpreadsInterference) {
  ClusterConfig cfg;
  cfg.racks = 4;
  ClusterSim sim(cfg);
  const auto jobs = job_stream(8, 25.0, 0.0);  // all arrive at once
  const auto random = sim.run(jobs, SchedulerPolicy::kRandom);
  const auto aware = sim.run(jobs, SchedulerPolicy::kInterferenceAware, 30.0);
  EXPECT_LE(aware.mean_slowdown, random.mean_slowdown + 1e-9);
}

TEST(Cluster, AwarePolicyDefersOverCap) {
  ClusterConfig cfg;
  cfg.racks = 1;
  cfg.rack.nodes_per_rack = 8;
  ClusterSim sim(cfg);
  const auto jobs = job_stream(3, 20.0, 0.0);
  // Cap 30: at most one co-runner per rack (20+20=40 > 30) → jobs serialize
  // partially and wait times appear.
  const auto out = sim.run(jobs, SchedulerPolicy::kInterferenceAware, 30.0);
  EXPECT_EQ(out.jobs.size(), 3u);
  EXPECT_GT(out.mean_wait_s, 0.0);
  // Nobody ever saw more than 20 LoI of co-runner interference.
  for (const auto& j : out.jobs)
    EXPECT_LE(j.runtime_s(), 480.0 / 0.94 + 1.0);  // ≤ slowdown at LoI 20
}

TEST(Cluster, OversizedJobViolatesContract) {
  ClusterConfig cfg;
  cfg.rack.nodes_per_rack = 4;
  ClusterSim sim(cfg);
  auto jobs = job_stream(1, 10.0, 0.0);
  jobs[0].nodes = 8;
  EXPECT_THROW((void)sim.run(jobs, SchedulerPolicy::kRandom), contract_violation);
}

TEST(Cluster, MakespanCoversAllFinishTimes) {
  ClusterSim sim(ClusterConfig{});
  const auto out = sim.run(job_stream(6, 10.0, 30.0), SchedulerPolicy::kRandom);
  for (const auto& j : out.jobs) EXPECT_LE(j.finish_s, out.makespan_s + 1e-9);
}

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
