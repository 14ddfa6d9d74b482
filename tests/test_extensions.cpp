// Tests for the extension features: the hot-page migration runtime, the
// CXL fabric presets, the numactl-style default-policy override, the
// engine's epoch callback hook, and the time-varying LoI schedule
// (waveform semantics, CLI grammar parsing, engine integration).
#include <gtest/gtest.h>

#include <sstream>

#include "common/contract.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "memsim/loi_schedule.h"
#include "sim/array.h"
#include "workloads/bfs.h"

namespace memdis {
namespace {

// ---------- CXL presets -------------------------------------------------------

TEST(CxlPresets, DirectAttachedHasMoreBandwidthLessOverhead) {
  const auto upi = memsim::MachineConfig::skylake_testbed();
  const auto cxl = memsim::MachineConfig::cxl_direct_attached();
  EXPECT_GT(cxl.pool_tier().bandwidth_gbps, upi.pool_tier().bandwidth_gbps);
  EXPECT_LT(cxl.pool_tier().latency_ns, upi.pool_tier().latency_ns);
  EXPECT_LT(cxl.pool_link().protocol_overhead, upi.pool_link().protocol_overhead);
  // Traffic capacity consistent with data bandwidth × overhead.
  EXPECT_NEAR(cxl.link_data_bandwidth_gbps(), cxl.pool_tier().bandwidth_gbps, 1e-9);
}

TEST(CxlPresets, SwitchedPoolOnlyAddsLatency) {
  const auto direct = memsim::MachineConfig::cxl_direct_attached();
  const auto switched = memsim::MachineConfig::cxl_switched_pool();
  EXPECT_GT(switched.pool_tier().latency_ns, direct.pool_tier().latency_ns);
  EXPECT_DOUBLE_EQ(switched.pool_tier().bandwidth_gbps, direct.pool_tier().bandwidth_gbps);
  EXPECT_DOUBLE_EQ(switched.pool_link().traffic_capacity_gbps, direct.pool_link().traffic_capacity_gbps);
}

TEST(CxlPresets, RemoteStreamingFasterOnDirectCxlThanUpi) {
  const auto run_on = [](const memsim::MachineConfig& base) {
    sim::EngineConfig cfg;
    cfg.machine = base;
    cfg.machine.node_tier().capacity_bytes = cfg.machine.page_bytes;  // force remote
    sim::Engine eng(cfg);
    sim::Array<double> a(eng, 1 << 18);
    for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
    double sum = 0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a.ld(i);
    eng.finish();
    EXPECT_GT(sum, 0.0);
    return eng.elapsed_seconds();
  };
  EXPECT_LT(run_on(memsim::MachineConfig::cxl_direct_attached()),
            run_on(memsim::MachineConfig::skylake_testbed()));
}

// ---------- default-policy override -------------------------------------------

TEST(PolicyOverride, InterleaveOverrideSpreadsDefaultAllocations) {
  sim::EngineConfig cfg;
  cfg.default_policy_override = memsim::MemPolicy::interleave(1, 1);
  sim::Engine eng(cfg);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> a(eng, 8 * page);
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  const auto snap = eng.memory().snapshot();
  EXPECT_NEAR(snap.remote_ratio(), 0.5, 0.01);
}

TEST(PolicyOverride, ExplicitBindingsWinOverOverride) {
  sim::EngineConfig cfg;
  cfg.default_policy_override = memsim::MemPolicy::interleave(1, 1);
  sim::Engine eng(cfg);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> a(eng, 4 * page, memsim::MemPolicy::bind_pool());
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  EXPECT_EQ(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(PolicyOverride, NoOverrideKeepsFirstTouch) {
  sim::EngineConfig cfg;
  sim::Engine eng(cfg);
  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> a(eng, 4 * page);
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  EXPECT_EQ(eng.memory().used_bytes(1), 0u);
}

// ---------- epoch callback ------------------------------------------------------

TEST(EpochCallback, FiresOncePerClosedEpoch) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 1000;
  sim::Engine eng(cfg);
  int fired = 0;
  eng.set_epoch_callback([&](sim::Engine&) { ++fired; });
  sim::Array<double> a(eng, 16 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  EXPECT_EQ(static_cast<std::size_t>(fired), eng.epochs().size());
  EXPECT_GT(fired, 4);
}

/// An engine carries one epoch service: a second install (a callback, or a
/// planner attached after one) is refused and the first stays in place.
TEST(EpochCallback, RefusesToReplaceAnInstalledCallback) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 1000;
  sim::Engine eng(cfg);
  int first = 0, second = 0;
  eng.set_epoch_callback([&](sim::Engine&) { ++first; });
  EXPECT_THROW(eng.set_epoch_callback([&](sim::Engine&) { ++second; }), contract_violation);
  core::MigrationRuntime runtime;
  EXPECT_THROW(runtime.attach(eng), contract_violation);
  sim::Array<double> a(eng, 16 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  EXPECT_EQ(static_cast<std::size_t>(first), eng.epochs().size());
  EXPECT_EQ(second, 0);
  EXPECT_EQ(runtime.scans(), 0u);
}

// ---------- migration runtime ----------------------------------------------------

TEST(Migration, PromotesHotRemotePages) {
  // One hot array forced remote; local has plenty of room for promotion.
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> hot(eng, 8 * page, memsim::MemPolicy::bind_pool(), "hot");
  for (int pass = 0; pass < 50; ++pass)
    for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
  eng.finish();

  EXPECT_GT(runtime.pages_promoted(), 0u);
  EXPECT_GT(runtime.scans(), 0u);
  // The hot pages should now live locally.
  EXPECT_GT(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(Migration, DemotesColdToMakeRoom) {
  // Local tier sized to 8 pages, filled by a cold array; a hot remote array
  // must displace it.
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  cfg.machine.node_tier().capacity_bytes = 8 * cfg.machine.page_bytes;
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.min_heat = 2;
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  const std::uint64_t page = eng.memory().page_bytes();
  sim::Array<std::uint8_t> cold(eng, 8 * page, memsim::MemPolicy::bind_node(), "cold");
  for (std::size_t i = 0; i < cold.size(); i += page) cold.st(i, 1);  // touch once
  sim::Array<std::uint8_t> hot(eng, 8 * page, memsim::MemPolicy::bind_pool(), "hot");
  for (int pass = 0; pass < 80; ++pass)
    for (std::size_t i = 0; i < hot.size(); i += 64) hot.st(i, 1);
  eng.finish();

  EXPECT_GT(runtime.pages_demoted(), 0u);
  EXPECT_GT(runtime.pages_promoted(), 0u);
  // At least part of the hot array must have been promoted.
  EXPECT_TRUE(eng.memory().resident(hot.range().base));
}

TEST(Migration, IdleWithoutHeat) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 5'000;
  sim::Engine eng(cfg);
  core::MigrationConfig idle_cfg;
  idle_cfg.period_epochs = 1;
  idle_cfg.min_heat = 1000;  // very high heat bar
  core::MigrationRuntime runtime(idle_cfg);
  runtime.attach(eng);
  sim::Array<std::uint8_t> a(eng, 16 * eng.memory().page_bytes(),
                             memsim::MemPolicy::bind_pool());
  for (std::size_t i = 0; i < a.size(); i += 64) a.st(i, 1);
  eng.finish();
  EXPECT_EQ(runtime.pages_promoted(), 0u);
}

TEST(Migration, ReducesBfsRemoteTraffic) {
  const auto run_bfs = [](bool with_runtime) {
    workloads::BfsParams params;
    params.log2_vertices = 13;
    params.num_roots = 2;
    workloads::Bfs bfs(params);
    sim::EngineConfig cfg;
    cfg.machine = cfg.machine.with_remote_capacity_ratio(0.75, bfs.footprint_bytes());
    cfg.epoch_accesses = 100'000;
    sim::Engine eng(cfg);
    core::MigrationConfig mcfg;
    mcfg.period_epochs = 1;
    core::MigrationRuntime runtime(mcfg);
    if (with_runtime) runtime.attach(eng);
    const auto res = bfs.run(eng);
    eng.finish();
    EXPECT_TRUE(res.verified);
    return static_cast<double>(eng.counters().fabric_dram_bytes()) /
           static_cast<double>(eng.counters().dram_bytes_total());
  };
  const double without = run_bfs(false);
  const double with = run_bfs(true);
  EXPECT_LT(with, without);
}

// ---------- LoI waveforms -------------------------------------------------------

TEST(LoiWaveform, SquareRampTraceSemantics) {
  const auto square = memsim::LoiWaveform::square(8, 0.5, 100.0, 20.0);
  for (std::uint64_t e = 0; e < 4; ++e) EXPECT_DOUBLE_EQ(square.value_at(e), 100.0);
  for (std::uint64_t e = 4; e < 8; ++e) EXPECT_DOUBLE_EQ(square.value_at(e), 20.0);
  EXPECT_DOUBLE_EQ(square.value_at(8), 100.0);  // periodic
  EXPECT_DOUBLE_EQ(square.mean(), 60.0);
  EXPECT_FALSE(square.is_constant());

  const auto ramp = memsim::LoiWaveform::ramp(10, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(ramp.value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(ramp.value_at(5), 50.0);
  EXPECT_DOUBLE_EQ(ramp.value_at(10), 100.0);
  EXPECT_DOUBLE_EQ(ramp.value_at(1000), 100.0);  // holds after the ramp

  const auto trace = memsim::LoiWaveform::trace({10.0, 30.0, 0.0});
  EXPECT_DOUBLE_EQ(trace.value_at(0), 10.0);
  EXPECT_DOUBLE_EQ(trace.value_at(2), 0.0);
  EXPECT_DOUBLE_EQ(trace.value_at(99), 0.0);  // last sample holds
  EXPECT_FALSE(trace.is_constant());
  EXPECT_TRUE(memsim::LoiWaveform::constant(35.0).is_constant());
  EXPECT_TRUE(memsim::LoiWaveform::square(8, 1.0, 40.0, 0.0).is_constant());
  EXPECT_TRUE(memsim::LoiWaveform::trace({5.0, 5.0, 5.0}).is_constant());
}

TEST(LoiSchedule, ConstantScheduleKeepsEngineBitIdentical) {
  const auto run = [](bool use_schedule) {
    sim::EngineConfig cfg;
    cfg.epoch_accesses = 10'000;
    if (use_schedule) {
      cfg.loi_schedule.set(1, memsim::LoiWaveform::constant(30.0));
    } else {
      cfg.background_loi_per_tier = {0.0, 30.0};
    }
    sim::Engine eng(cfg);
    sim::Array<double> a(eng, 1 << 15, memsim::MemPolicy::bind_pool());
    for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a.ld(i);
    eng.finish();
    EXPECT_GT(sum, 0.0);
    return eng.elapsed_seconds();
  };
  // A constant waveform is exactly the static model — to the last bit.
  EXPECT_EQ(run(true), run(false));
}

TEST(LoiSchedule, EngineStepsWaveAndRecordsEffectiveLoi) {
  sim::EngineConfig cfg;
  cfg.epoch_accesses = 10'000;
  cfg.loi_schedule.set(1, memsim::LoiWaveform::square(2, 0.5, 60.0, 5.0));
  sim::Engine eng(cfg);
  sim::Array<double> a(eng, 1 << 15, memsim::MemPolicy::bind_pool());
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
  eng.finish();
  ASSERT_GE(eng.epochs().size(), 4u);
  for (std::size_t e = 0; e < eng.epochs().size(); ++e) {
    const auto& rec = eng.epochs()[e];
    ASSERT_EQ(rec.link_loi.size(), 2u);
    EXPECT_DOUBLE_EQ(rec.link_loi[0], 0.0);  // node tier has no link
    EXPECT_DOUBLE_EQ(rec.link_loi[1], e % 2 == 0 ? 60.0 : 5.0) << "epoch " << e;
  }
}

TEST(LoiSchedule, TierBeyondTopologyIsRejectedNotIgnored) {
  sim::EngineConfig cfg;  // two-tier machine: tier 2 does not exist
  cfg.loi_schedule.set(2, memsim::LoiWaveform::square(8, 0.5, 85.0, 0.0));
  EXPECT_THROW(sim::Engine eng(cfg), contract_violation);
}

TEST(LoiSchedule, ScheduledTierOverridesStaticOthersKeepIt) {
  sim::EngineConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  cfg.background_loi_per_tier = {0.0, 40.0, 25.0};
  cfg.loi_schedule.set(1, memsim::LoiWaveform::constant(70.0));
  sim::Engine eng(cfg);
  EXPECT_DOUBLE_EQ(eng.background_loi(1), 70.0);  // waveform wins
  EXPECT_DOUBLE_EQ(eng.background_loi(2), 25.0);  // static level kept
}

// ---------- LoI grammar parsing (shared by the CLI) ----------------------------

TEST(LoiParsing, ListAcceptsPlainNumbers) {
  std::string error;
  const auto values = memsim::parse_loi_list("10,20.5,0", error);
  ASSERT_TRUE(values.has_value()) << error;
  EXPECT_EQ(*values, (std::vector<double>{10.0, 20.5, 0.0}));
}

TEST(LoiParsing, ListRejectsTrailingCommaNanAndNegatives) {
  std::string error;
  EXPECT_FALSE(memsim::parse_loi_list("10,20,", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("10,,20", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list(",10", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("nan", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("10,NaN", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("inf", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("-5", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("10,-0.1", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("2001", error).has_value());  // > kMaxLoi
  EXPECT_FALSE(memsim::parse_loi_list("", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("banana", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_list("10;20", error).has_value());
}

TEST(LoiParsing, WaveGrammar) {
  std::string error;
  const auto wave = memsim::parse_loi_wave("1:8:0.5:100:20", error);
  ASSERT_TRUE(wave.has_value()) << error;
  EXPECT_EQ(wave->tier, 1);
  EXPECT_DOUBLE_EQ(wave->wave.value_at(0), 100.0);
  EXPECT_DOUBLE_EQ(wave->wave.value_at(4), 20.0);
  // lo defaults to 0.
  const auto no_lo = memsim::parse_loi_wave("2:4:0.25:80", error);
  ASSERT_TRUE(no_lo.has_value()) << error;
  EXPECT_EQ(no_lo->tier, 2);
  EXPECT_DOUBLE_EQ(no_lo->wave.value_at(3), 0.0);

  EXPECT_FALSE(memsim::parse_loi_wave("banana", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_wave("0:8:0.5:100", error).has_value());  // node tier
  EXPECT_FALSE(memsim::parse_loi_wave("1:0:0.5:100", error).has_value());  // zero period
  EXPECT_FALSE(memsim::parse_loi_wave("1:8:1.5:100", error).has_value());  // duty > 1
  EXPECT_FALSE(memsim::parse_loi_wave("1:8:0.5:-3", error).has_value());   // negative hi
  EXPECT_FALSE(memsim::parse_loi_wave("1:8:0.5:nan", error).has_value());
  EXPECT_FALSE(memsim::parse_loi_wave("1:8:0.5:100:20:7", error).has_value());
}

TEST(LoiParsing, TraceCsvHappyPathHoldsGaps) {
  std::istringstream in("epoch,cxl,switched\n0,10,0\n2,50,5\n3,0,5\n");
  std::string error;
  const auto schedule = memsim::parse_loi_trace_csv(in, {1, 2}, error);
  ASSERT_TRUE(schedule.has_value()) << error;
  const auto* t1 = schedule->waveform(1);
  const auto* t2 = schedule->waveform(2);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_DOUBLE_EQ(t1->value_at(0), 10.0);
  EXPECT_DOUBLE_EQ(t1->value_at(1), 10.0);  // gap holds the previous value
  EXPECT_DOUBLE_EQ(t1->value_at(2), 50.0);
  EXPECT_DOUBLE_EQ(t1->value_at(3), 0.0);
  EXPECT_DOUBLE_EQ(t1->value_at(100), 0.0);  // last sample holds
  EXPECT_DOUBLE_EQ(t2->value_at(3), 5.0);
}

TEST(LoiParsing, TraceCsvRejectsMalformedInput) {
  std::string error;
  const auto parse = [&](const std::string& text) {
    std::istringstream in(text);
    return memsim::parse_loi_trace_csv(in, {1, 2}, error);
  };
  EXPECT_FALSE(parse("").has_value());                            // no header
  EXPECT_FALSE(parse("epoch,a\n0,1\n").has_value());              // column miscount
  EXPECT_FALSE(parse("epoch,a,b\n").has_value());                 // no samples
  EXPECT_FALSE(parse("epoch,a,b\n1,0,0\n").has_value());          // must start at 0
  EXPECT_FALSE(parse("epoch,a,b\n0,0,0\n0,1,1\n").has_value());   // not increasing
  EXPECT_FALSE(parse("epoch,a,b\n0,banana,0\n").has_value());     // bad value
  EXPECT_FALSE(parse("epoch,a,b\n0,-4,0\n").has_value());         // negative LoI
  EXPECT_FALSE(parse("epoch,a,b\n0,0\n").has_value());            // short row
  // A typo'd huge epoch must be rejected, not hold-filled gigabyte by
  // gigabyte.
  EXPECT_FALSE(parse("epoch,a,b\n0,0,0\n4000000000,1,1\n").has_value());
  EXPECT_NE(error.find("bound"), std::string::npos);
}

// Property sweep: migration never corrupts the traversal at any cadence.
class MigrationCadenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationCadenceTest, BfsStaysCorrectUnderMigration) {
  workloads::BfsParams params;
  params.log2_vertices = 12;
  workloads::Bfs bfs(params);
  sim::EngineConfig cfg;
  cfg.machine = cfg.machine.with_remote_capacity_ratio(0.5, bfs.footprint_bytes());
  cfg.epoch_accesses = 50'000;
  sim::Engine eng(cfg);
  core::MigrationConfig mcfg;
  mcfg.period_epochs = GetParam();
  core::MigrationRuntime runtime(mcfg);
  runtime.attach(eng);
  const auto res = bfs.run(eng);
  eng.finish();
  EXPECT_TRUE(res.verified) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Cadences, MigrationCadenceTest, ::testing::Values(1u, 2u, 8u, 32u));

}  // namespace
}  // namespace memdis
