// Tests for the deployment planner (the Sec. 4.1 decision flow) and the
// split-borrowing fabric preset.
#include <gtest/gtest.h>

#include "common/contract.h"
#include "core/deployment.h"
#include "workloads/workload.h"

namespace memdis::core {
namespace {

/// A synthetic job: 1 TB footprint, uniform access curve unless overridden.
JobRequirements uniform_job() {
  JobRequirements job;
  job.total_flops = 1e15;
  job.footprint_bytes = 1e12;
  job.dram_traffic_bytes = 5e12;
  job.curve_samples = {0.0, 0.25, 0.5, 0.75, 1.0};  // uniform
  job.prefetch_coverage = 0.8;
  job.comm_seconds_base = 10.0;
  job.base_nodes = 1.0;
  job.comm_scaling_exponent = 0.6;
  return job;
}

JobRequirements skewed_job() {
  JobRequirements job = uniform_job();
  // 90% of accesses in the hottest 25% of the footprint.
  job.curve_samples = {0.0, 0.9, 0.96, 0.99, 1.0};
  return job;
}

PlannerConfig planner_cfg(double local_frac_of_job = 1.0 / 8.0,
                          double pool_frac_of_job = 1.0 / 8.0) {
  PlannerConfig cfg;
  cfg.local_capacity_bytes = static_cast<std::uint64_t>(1e12 * local_frac_of_job);
  cfg.pool_capacity_bytes = static_cast<std::uint64_t>(1e12 * pool_frac_of_job);
  return cfg;
}

TEST(Planner, MinNodesLocalOnlyIsCeiling) {
  const DeploymentPlanner planner(planner_cfg());
  EXPECT_EQ(planner.min_nodes_local_only(uniform_job()), 8);
}

TEST(Planner, TooFewNodesAreInfeasible) {
  const DeploymentPlanner planner(planner_cfg());
  const auto options = planner.evaluate(uniform_job(), 8);
  // 1/8 local + 1/8 pool per node: fewer than 4 nodes cannot hold the job.
  EXPECT_FALSE(options[0].feasible);
  EXPECT_FALSE(options[2].feasible);
  EXPECT_TRUE(options[3].feasible);
}

TEST(Planner, PoolUseFlaggedBelowLocalOnlyMinimum) {
  const DeploymentPlanner planner(planner_cfg());
  const auto options = planner.evaluate(uniform_job(), 12);
  EXPECT_TRUE(options[5].feasible);   // 6 nodes: footprint/6 > local → pool
  EXPECT_TRUE(options[5].needs_pool);
  EXPECT_FALSE(options[9].needs_pool);  // 10 nodes: fits locally
  EXPECT_DOUBLE_EQ(options[9].pooled_fraction, 0.0);
}

TEST(Planner, SkewedJobsPayLessForPooling) {
  const DeploymentPlanner planner(planner_cfg());
  const auto uni = planner.evaluate(uniform_job(), 8)[3];     // 4 nodes, 50% pooled
  const auto skew = planner.evaluate(skewed_job(), 8)[3];
  ASSERT_TRUE(uni.feasible);
  ASSERT_TRUE(skew.feasible);
  EXPECT_LT(skew.remote_access_ratio, uni.remote_access_ratio);
  EXPECT_LT(skew.est_runtime_s, uni.est_runtime_s);
}

TEST(Planner, BestPlacementUsesCurveTail) {
  const DeploymentPlanner planner(planner_cfg());
  const auto opt = planner.evaluate(skewed_job(), 8)[3];  // 50% local per node
  // Local half covers ~96% of accesses → remote access ≈ 4%.
  EXPECT_NEAR(opt.remote_access_ratio, 0.04, 0.01);
}

TEST(Planner, CommunicationMakesScaleOutCostly) {
  // In the compute-bound regime cost is flat with node count; communication
  // is what makes scale-out expensive (the "other dimensions" of Sec. 4.1).
  JobRequirements job = uniform_job();
  job.comm_seconds_base = 500.0;
  const DeploymentPlanner planner(planner_cfg());
  const auto options = planner.evaluate(job, 32);
  ASSERT_TRUE(options[15].feasible);
  ASSERT_TRUE(options[31].feasible);
  EXPECT_GT(options[31].node_seconds, options[15].node_seconds * 1.05);
}

TEST(Planner, RecommendPicksCheapestNearFastest) {
  const DeploymentPlanner planner(planner_cfg());
  const auto pick = planner.recommend(uniform_job(), 32, 1.10);
  EXPECT_TRUE(pick.feasible);
  const auto options = planner.evaluate(uniform_job(), 32);
  double fastest = 1e30;
  for (const auto& opt : options)
    if (opt.feasible) fastest = std::min(fastest, opt.est_runtime_s);
  EXPECT_LE(pick.est_runtime_s, fastest * 1.10 + 1e-12);
  for (const auto& opt : options) {
    if (!opt.feasible || opt.est_runtime_s > fastest * 1.10) continue;
    EXPECT_LE(pick.node_seconds, opt.node_seconds + 1e-9);
  }
}

TEST(Planner, InfeasibleEverywhereViolatesContract) {
  PlannerConfig cfg = planner_cfg(1e-4, 0.0);  // tiny nodes, no pool
  const DeploymentPlanner planner(cfg);
  EXPECT_THROW((void)planner.recommend(uniform_job(), 2), contract_violation);
}

TEST(Planner, FromProfileProjectsScale) {
  auto wl = workloads::make_workload(workloads::App::kHypre, 1);
  const auto l1 = MultiLevelProfiler{}.level1(*wl);
  const auto job = JobRequirements::from_profile(l1, 100.0);
  EXPECT_NEAR(job.footprint_bytes, static_cast<double>(l1.run.peak_rss_bytes) * 100.0, 1.0);
  EXPECT_GT(job.total_flops, 0.0);
  EXPECT_GT(job.dram_traffic_bytes, 0.0);
  EXPECT_FALSE(job.curve_samples.empty());
}

TEST(SplitPreset, WorsePathThanPool) {
  const auto pool = memsim::MachineConfig::skylake_testbed();
  const auto split = memsim::MachineConfig::split_borrowing();
  EXPECT_LT(split.pool_tier().bandwidth_gbps, pool.pool_tier().bandwidth_gbps);
  EXPECT_GT(split.pool_tier().latency_ns, pool.pool_tier().latency_ns);
  EXPECT_GT(split.pool_link().interference_share, pool.pool_link().interference_share);
}

}  // namespace
}  // namespace memdis::core
