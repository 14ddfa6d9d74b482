// Whole-engine state capture and bit-exact comparison for the differential
// tests: the bulk fast path against its element-wise reference, and trace
// replay against the live run it recorded. Also the live full-simulation
// reference that repriced sweeps are compared against, and a workload
// wrapper that counts its runs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/epoch_profile.h"
#include "core/sweep.h"
#include "sim/engine.h"
#include "workloads/lbench.h"
#include "workloads/workload.h"

/// Defined in AddressSanitizer builds, where the whole-application double
/// runs overshoot the ctest timeouts and skip.
#if defined(__SANITIZE_ADDRESS__)
#define MEMDIS_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMDIS_UNDER_ASAN 1
#endif
#endif

namespace memdis::test {

/// Everything observable about one finished engine run.
struct EngineRun {
  workloads::WorkloadResult result;
  cachesim::CacheHierarchy::Snapshot caches;  ///< taken before finish()
  cachesim::HwCounters counters;
  std::vector<sim::EpochRecord> epochs;
  std::vector<sim::PhaseRecord> phases;
  std::unordered_map<std::uint64_t, std::uint64_t> page_accesses;
  double elapsed_s = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t peak_rss_bytes = 0;
};

/// Snapshots the caches, finishes the engine and captures its state;
/// `result` is what the run's workload returned.
inline EngineRun finish_run(sim::Engine& eng, workloads::WorkloadResult result = {}) {
  auto caches = eng.hierarchy().snapshot_caches();
  eng.finish();
  return {std::move(result), std::move(caches), eng.counters(), eng.epochs(), eng.phases(),
          eng.page_access_histogram(), eng.elapsed_seconds(), eng.total_flops(),
          eng.peak_rss_bytes()};
}

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::ranges::transform(v, out.begin(), [](double x) { return bits(x); });
  return out;
}

inline bool same_counters(const cachesim::HwCounters& a, const cachesim::HwCounters& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

inline auto epoch_fields(const sim::EpochRecord& e) {
  return std::tuple{bits(e.start_s),          bits(e.duration_s),
                    e.phase,                  e.flops,
                    e.tier_bytes,             e.tier_demand,
                    e.l2_lines_in,            bits(e.link_traffic_gbps),
                    bits(e.link_utilization), bits(e.migration_s),
                    e.resident_bytes,         bits(e.link_loi),
                    bits(e.link_demand_mult), bits(e.link_demand_inflation),
                    e.migration_bytes};
}

inline bool same_phase(const sim::PhaseRecord& a, const sim::PhaseRecord& b) {
  return a.tag == b.tag && bits(a.time_s) == bits(b.time_s) && a.flops == b.flops &&
         same_counters(a.counters, b.counters) && a.epoch_begin == b.epoch_begin &&
         a.epoch_end == b.epoch_end;
}

inline bool same_level(const cachesim::SetAssocCache::Snapshot& a,
                       const cachesim::SetAssocCache::Snapshot& b) {
  return a.tag == b.tag && a.order == b.order && a.flags == b.flags;
}

/// Bit-for-bit equality of two runs: doubles by their bit patterns,
/// counters by their bytes, cache levels by tags, recency stacks and flags.
inline void expect_same_run(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(std::tuple(a.result.verified, a.result.detail, bits(a.result.residual)),
            std::tuple(b.result.verified, b.result.detail, bits(b.result.residual)));
  EXPECT_TRUE(same_level(a.caches.l1, b.caches.l1));
  EXPECT_TRUE(same_level(a.caches.l2, b.caches.l2));
  EXPECT_TRUE(same_level(a.caches.l3, b.caches.l3));
  EXPECT_TRUE(same_counters(a.counters, b.counters));
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i)
    ASSERT_TRUE(epoch_fields(a.epochs[i]) == epoch_fields(b.epochs[i])) << "epoch " << i;
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i)
    EXPECT_TRUE(same_phase(a.phases[i], b.phases[i])) << "phase " << a.phases[i].tag;
  EXPECT_EQ(a.page_accesses, b.page_accesses);
  EXPECT_EQ(std::tuple(bits(a.elapsed_s), a.flops, a.peak_rss_bytes),
            std::tuple(bits(b.elapsed_s), b.flops, b.peak_rss_bytes));
}

/// The full-simulation reference for a sweep: `measure` over every point of
/// `spec.expand()`, serially in grid order on the calling thread and
/// outside any ProfileScope, so every run_workload simulates live.
inline core::SweepResult live_sweep(const core::SweepSpec& spec, const core::MeasureFn& measure) {
  EXPECT_EQ(core::ProfileScope::current(), nullptr);
  core::SweepResult result;
  for (const auto& point : spec.expand()) result.rows.push_back({point, measure(point)});
  return result;
}

/// Pass-through wrapper that forwards functional_id() (so it is eligible
/// for repricing) and counts how many times the workload really ran.
class CountingLbench final : public workloads::Workload {
 public:
  CountingLbench(const workloads::LbenchParams& p, std::atomic<int>& runs)
      : inner_(p), runs_(runs) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return inner_.footprint_bytes();
  }
  [[nodiscard]] std::string functional_id() const override { return inner_.functional_id(); }
  workloads::WorkloadResult run(sim::Engine& eng) override {
    runs_.fetch_add(1);
    return inner_.run(eng);
  }

 private:
  workloads::Lbench inner_;
  std::atomic<int>& runs_;
};

}  // namespace memdis::test
