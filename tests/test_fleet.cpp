// Fleet simulator tests: arrival-spec grammar, seeding determinism, the
// serial-vs-parallel bit-identity contract at fleet scale, the
// admission-capacity property, and the interference-aware placement claim.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/contract.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"

namespace memdis::fleet {
namespace {

std::vector<double> weights_of(const std::vector<JobClass>& classes) {
  std::vector<double> w;
  for (const auto& cls : classes) w.push_back(cls.weight);
  return w;
}

TEST(ArrivalSpec, ParsesPoisson) {
  std::string error;
  const auto spec = parse_arrival_spec("poisson:1.5:200", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec->rate_per_s, 1.5);
  EXPECT_EQ(spec->count, 200u);
}

TEST(ArrivalSpec, ParsesTrace) {
  std::string error;
  const auto spec = parse_arrival_spec("trace:/tmp/arrivals.csv", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, ArrivalKind::kTrace);
  EXPECT_EQ(spec->trace_path, "/tmp/arrivals.csv");
}

TEST(ArrivalSpec, RejectsMalformedSpecs) {
  // Every rejection must carry a diagnostic: the CLI prints it at exit 2.
  for (const std::string bad :
       {"", "poisson", "poisson:", "poisson:1.5", "poisson:0:100", "poisson:-1:100",
        "poisson:nan:100", "poisson:1.5:0", "poisson:1.5:-3", "poisson:1.5:ten",
        "poisson:1.5:100:extra", "uniform:1:100", "trace", "trace:"}) {
    std::string error;
    EXPECT_FALSE(parse_arrival_spec(bad, error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ArrivalSeed, MatchesGridIndexScheme) {
  // Pure function of (base_seed, index); distinct across indices and seeds.
  EXPECT_EQ(arrival_seed(42, 7), arrival_seed(42, 7));
  EXPECT_NE(arrival_seed(42, 7), arrival_seed(42, 8));
  EXPECT_NE(arrival_seed(42, 7), arrival_seed(43, 7));
}

TEST(PoissonArrivals, DeterministicAndOrdered) {
  ArrivalSpec spec;
  spec.rate_per_s = 2.0;
  spec.count = 500;
  const auto a = expand_poisson_arrivals(spec, {1.0, 2.0, 3.0}, 42);
  const auto b = expand_poisson_arrivals(spec, {1.0, 2.0, 3.0}, 42);
  ASSERT_EQ(a.size(), 500u);
  std::set<std::size_t> classes_seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].job_class, b[i].job_class);
    EXPECT_EQ(a[i].seed, arrival_seed(42, i));
    if (i > 0) {
      EXPECT_GE(a[i].time_s, a[i - 1].time_s);
    }
    classes_seen.insert(a[i].job_class);
  }
  EXPECT_EQ(classes_seen.size(), 3u);  // all weights drawn at n=500
}

TEST(TraceArrivals, RoundTripsAndValidates) {
  const std::string path = ::testing::TempDir() + "/fleet_arrivals.csv";
  {
    std::ofstream out(path);
    out << "arrival_s,class\n0.5,hpc-solver\n1.5,analytics\n1.5,etl-burst\n";
  }
  std::string error;
  const auto arrivals =
      load_trace_arrivals(path, {"hpc-solver", "analytics", "etl-burst"}, 42, error);
  ASSERT_TRUE(arrivals.has_value()) << error;
  ASSERT_EQ(arrivals->size(), 3u);
  EXPECT_DOUBLE_EQ((*arrivals)[0].time_s, 0.5);
  EXPECT_EQ((*arrivals)[1].job_class, 1u);
  EXPECT_EQ((*arrivals)[2].seed, arrival_seed(42, 2));

  {
    std::ofstream out(path);
    out << "arrival_s,class\n2.0,hpc-solver\n1.0,hpc-solver\n";  // decreasing
  }
  EXPECT_FALSE(load_trace_arrivals(path, {"hpc-solver"}, 42, error).has_value());
  {
    std::ofstream out(path);
    out << "arrival_s,class\n1.0,warp-drive\n";  // unknown class
  }
  EXPECT_FALSE(load_trace_arrivals(path, {"hpc-solver"}, 42, error).has_value());
  std::remove(path.c_str());
}

FleetConfig two_pool_config() {
  FleetConfig cfg;
  cfg.pools = default_pools(2);
  return cfg;
}

// A trace row the fleet clock can never reach loads fine (the grammar is
// valid), but run_fleet refuses it instead of stepping forever.
TEST(TraceArrivals, UnreachableRowIsRejectedByTheRun) {
  const std::string path = ::testing::TempDir() + "/fleet_late_arrivals.csv";
  {
    std::ofstream out(path);
    out << "arrival_s,class\n0.5,etl-burst\n1e16,etl-burst\n";
  }
  std::string error;
  const auto classes = default_job_classes();
  const auto arrivals =
      load_trace_arrivals(path, {"hpc-solver", "analytics", "etl-burst"}, 42, error);
  std::remove(path.c_str());
  ASSERT_TRUE(arrivals.has_value()) << error;
  EXPECT_EQ(first_unreachable_arrival(*arrivals, 1.0), 1u);
  EXPECT_THROW((void)run_fleet(two_pool_config(), classes, *arrivals), contract_violation);
}

std::vector<Arrival> poisson_stream(double rate, std::size_t count, std::uint64_t seed) {
  ArrivalSpec spec;
  spec.rate_per_s = rate;
  spec.count = count;
  return expand_poisson_arrivals(spec, weights_of(default_job_classes()), seed);
}

TEST(Fleet, DrainsEveryAdmittedJob) {
  const auto cfg = two_pool_config();
  const auto classes = default_job_classes();
  const auto result = run_fleet(cfg, classes, poisson_stream(0.05, 200, 42));
  EXPECT_EQ(result.completed + result.rejected, 200u);
  for (const auto& rec : result.jobs) {
    if (rec.rejected) continue;
    EXPECT_GE(rec.start_s, rec.arrival_s);
    EXPECT_GT(rec.finish_s, rec.start_s);
    EXPECT_GE(rec.slowdown(), 1.0);
  }
}

// The ISSUE's headline identity: a fleet run with >= 1000 arrivals is
// byte-identical (CSV and JSON) between the serial path and the thread
// pool, for several thread counts.
TEST(Fleet, SerialAndParallelArtifactsAreByteIdentical) {
  FleetConfig cfg = two_pool_config();
  const auto classes = default_job_classes();
  const auto arrivals = poisson_stream(0.12, 1200, 42);
  const auto serial = run_fleet(cfg, classes, arrivals, 1);
  std::ostringstream serial_csv, serial_json;
  serial.write_csv(serial_csv);
  serial.write_json(serial_json);
  for (const unsigned jobs : {2u, 4u, 0u}) {  // 0 = hardware concurrency
    const auto parallel = run_fleet(cfg, classes, arrivals, jobs);
    std::ostringstream csv, json;
    parallel.write_csv(csv);
    parallel.write_json(json);
    EXPECT_EQ(serial_csv.str(), csv.str()) << "jobs=" << jobs;
    EXPECT_EQ(serial_json.str(), json.str()) << "jobs=" << jobs;
  }
}

// Property: admission never oversubscribes a pool — the peak pinned GB
// stays within declared capacity across seeds, rates, and policies.
TEST(Fleet, AdmissionNeverExceedsPoolCapacity) {
  const auto classes = default_job_classes();
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    for (const double rate : {0.05, 0.15, 0.4}) {
      for (const auto policy : {AdmissionPolicy::kFirstFit, AdmissionPolicy::kLoiAware}) {
        FleetConfig cfg = two_pool_config();
        cfg.policy = policy;
        cfg.base_seed = seed;
        const auto result = run_fleet(cfg, classes, poisson_stream(rate, 300, seed), 2);
        ASSERT_EQ(result.pools.size(), cfg.pools.size());
        for (std::size_t p = 0; p < result.pools.size(); ++p) {
          EXPECT_LE(result.pools[p].peak_used_gb, cfg.pools[p].capacity_gb + 1e-9)
              << "seed=" << seed << " rate=" << rate;
          EXPECT_GE(result.pools[p].utilization, 0.0);
          EXPECT_LE(result.pools[p].utilization, 1.0 + 1e-9);
        }
      }
    }
  }
}

TEST(Fleet, BoundedQueueRejectsOverflow) {
  FleetConfig cfg = two_pool_config();
  cfg.queue_limit = 4;
  const auto classes = default_job_classes();
  // Far past saturation: the pending FIFO must cap and shed arrivals.
  const auto result = run_fleet(cfg, classes, poisson_stream(5.0, 400, 42));
  EXPECT_GT(result.rejected, 0u);
  EXPECT_EQ(result.completed + result.rejected, 400u);
}

TEST(Fleet, NeverFittingJobsAreRejectedImmediately) {
  FleetConfig cfg = two_pool_config();
  auto classes = default_job_classes();
  classes[0].pool_demand_gb = cfg.pools[0].capacity_gb * 4;  // can never fit
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 5; ++i)
    arrivals.push_back({static_cast<double>(i + 1), 0, arrival_seed(42, i)});
  const auto result = run_fleet(cfg, classes, arrivals);
  EXPECT_EQ(result.rejected, 5u);
  EXPECT_EQ(result.completed, 0u);
}

TEST(Fleet, MigrationMovesJobsOffOverloadedPools) {
  // First-fit piles onto pool 0; with migration armed, some jobs must move
  // (and the per-job records account for every fleet-level migration).
  FleetConfig cfg = two_pool_config();
  cfg.policy = AdmissionPolicy::kFirstFit;
  cfg.migration = true;
  const auto classes = default_job_classes();
  const auto result = run_fleet(cfg, classes, poisson_stream(0.15, 300, 42));
  EXPECT_GT(result.migrations, 0u);
  std::size_t per_job = 0;
  for (const auto& rec : result.jobs) per_job += static_cast<std::size_t>(rec.migrations);
  EXPECT_EQ(per_job, result.migrations);

  FleetConfig off = cfg;
  off.migration = false;
  const auto baseline = run_fleet(off, classes, poisson_stream(0.15, 300, 42));
  EXPECT_EQ(baseline.migrations, 0u);
}

// The Sec. 7.2 claim at rack scale: below saturation, placing each job
// on the pool it would load least beats first-fit on the same stream, at
// the median and in the tail (the ext-fleet-rack `lo` rows).
TEST(Fleet, LoiAwareAdmissionBeatsFirstFitBelowSaturation) {
  const auto classes = default_job_classes();
  const auto arrivals = poisson_stream(0.06, 400, 42);
  FleetConfig cfg = two_pool_config();
  cfg.migration = false;
  cfg.policy = AdmissionPolicy::kFirstFit;
  const auto first_fit = run_fleet(cfg, classes, arrivals);
  cfg.policy = AdmissionPolicy::kLoiAware;
  const auto aware = run_fleet(cfg, classes, arrivals);
  EXPECT_EQ(first_fit.rejected, 0u);
  EXPECT_EQ(aware.rejected, 0u);
  EXPECT_LT(aware.p50_slowdown, first_fit.p50_slowdown);
  EXPECT_LT(aware.p99_slowdown, first_fit.p99_slowdown);
}

// The clock is `now += step_s`; near 2^53 steps the sum rounds back to
// `now`, so an arrival from 2^52 steps on would never be reached.
TEST(Fleet, RejectsArrivalsTheClockCannotReach) {
  const double stalled = std::ldexp(1.0, 53);
  EXPECT_EQ(stalled + 1.0, stalled);
  const auto classes = default_job_classes();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double step : {1.0, 0.25, 60.0}) {
    const double limit = std::ldexp(step, 52);
    // The last reachable time: one step still moves the clock there.
    const double last = std::nextafter(limit, 0.0);
    EXPECT_GT(last + step, last);
    std::vector<Arrival> arrivals = {{0.0, 2, arrival_seed(42, 0)},
                                     {last, 2, arrival_seed(42, 1)}};
    EXPECT_EQ(first_unreachable_arrival(arrivals, step), arrivals.size()) << step;
    FleetConfig cfg = two_pool_config();
    cfg.step_s = step;
    for (const double t : {limit, 1e16 * step, 1e300, inf, nan}) {
      arrivals[1].time_s = t;
      EXPECT_EQ(first_unreachable_arrival(arrivals, step), 1u) << t;
      EXPECT_THROW((void)run_fleet(cfg, classes, arrivals), contract_violation) << t;
    }
  }
}

TEST(Fleet, TraceAndPoissonSourcesShareJobInputs) {
  // The same (base_seed, index) pairs must yield the same jittered work
  // whether arrivals came from Poisson expansion or a trace file: the
  // jitter stream is split from the per-index seed alone.
  const auto classes = default_job_classes();
  FleetConfig cfg = two_pool_config();
  const auto poisson = poisson_stream(0.05, 50, 42);
  std::vector<Arrival> trace = poisson;  // same times/classes/seeds, as if traced
  const auto a = run_fleet(cfg, classes, poisson);
  const auto b = run_fleet(cfg, classes, trace);
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].work_s, b.jobs[i].work_s);
}

}  // namespace
}  // namespace memdis::fleet
