// End-to-end tests for N-tier topologies: preset shapes, the topology axis
// of the sweep engine, engine-level propagation (per-tier counters, epochs,
// residency), and the monotonicity properties the new scenarios claim.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/contract.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/profiler.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

using core::machine_for_fabric;
using workloads::App;

// ---------- presets ----------------------------------------------------------

TEST(TopologyPresets, ThreeTierChainShape) {
  const auto m = memsim::MachineConfig::three_tier_cxl();
  ASSERT_EQ(m.num_tiers(), 3);
  EXPECT_FALSE(m.tier(0).is_fabric());
  EXPECT_TRUE(m.tier(1).is_fabric());
  EXPECT_TRUE(m.tier(2).is_fabric());
  EXPECT_EQ(m.tier(1).name, "cxl-direct");
  EXPECT_EQ(m.tier(2).name, "cxl-switched");
  // Same device bandwidth, switch traversal adds latency.
  EXPECT_DOUBLE_EQ(m.tier(1).bandwidth_gbps, m.tier(2).bandwidth_gbps);
  EXPECT_GT(m.tier(2).latency_ns, m.tier(1).latency_ns);
  EXPECT_NO_THROW(m.topology.validate());
}

TEST(TopologyPresets, HybridHasAsymmetricPools) {
  const auto m = memsim::MachineConfig::hybrid_split_pool();
  ASSERT_EQ(m.num_tiers(), 3);
  EXPECT_EQ(m.tier(1).name, "cxl-direct");
  EXPECT_EQ(m.tier(2).name, "peer-borrowed");
  // Each pool has its own link with its own parameters.
  EXPECT_LT(m.tier(1).link->protocol_overhead, m.tier(2).link->protocol_overhead);
  EXPECT_LT(m.tier(1).link->interference_share, m.tier(2).link->interference_share);
}

TEST(TopologyPresets, EveryRegisteredNameResolves) {
  for (const auto& name : core::topology_preset_names()) {
    const auto m = machine_for_fabric(name);
    EXPECT_NO_THROW(m.topology.validate()) << name;
    EXPECT_GE(m.num_tiers(), 2) << name;
  }
  EXPECT_THROW((void)machine_for_fabric("banana"), std::invalid_argument);
}

TEST(TopologyPresets, TwoTierPresetsStayTwoTier) {
  for (const char* name : {"upi", "cxl", "cxl-switched", "split"})
    EXPECT_EQ(machine_for_fabric(name).num_tiers(), 2) << name;
}

// ---------- path/validate properties over randomized attachment trees --------

/// A random valid topology: 2..kMaxTiers tiers, every fabric tier attached
/// to a uniformly drawn earlier tier (star, chain, and bushy trees all
/// occur). Seeded by the repository PRNG so failures reproduce exactly.
memsim::MemoryTopology random_topology(Xoshiro256& rng) {
  const int tiers = 2 + static_cast<int>(rng.uniform_below(memsim::kMaxTiers - 1));
  memsim::MemoryTopology topo;
  topo.tiers.push_back(memsim::MemoryTierSpec{"node", 1ULL << 30, 73.0, 111.0, {}});
  for (int i = 1; i < tiers; ++i) {
    memsim::MemoryTierSpec t{"pool" + std::to_string(i), 1ULL << 30, 30.0 + i, 200.0 + i,
                             memsim::FabricLinkSpec{}};
    t.upstream = static_cast<memsim::TierId>(rng.uniform_below(static_cast<std::uint64_t>(i)));
    topo.tiers.push_back(std::move(t));
  }
  return topo;
}

/// Two tiers are adjacent in the attachment tree when one's link hangs off
/// the other (crossing tier x's link moves between x and x.upstream).
bool adjacent_links(const memsim::MemoryTopology& topo, memsim::TierId a, memsim::TierId b) {
  const auto ends_a = std::pair{a, topo.tier(a).upstream};
  const auto ends_b = std::pair{b, topo.tier(b).upstream};
  return ends_a.first == ends_b.first || ends_a.first == ends_b.second ||
         ends_a.second == ends_b.first || ends_a.second == ends_b.second;
}

TEST(TopologyPathProperty, SegmentsConnectedAcyclicAndSymmetric) {
  Xoshiro256 rng(20260730);
  for (int trial = 0; trial < 200; ++trial) {
    const memsim::MemoryTopology topo = random_topology(rng);
    ASSERT_NO_THROW(topo.validate());
    const int n = topo.num_tiers();
    for (memsim::TierId src = 0; src < n; ++src) {
      for (memsim::TierId dst = 0; dst < n; ++dst) {
        const auto segments = topo.path(src, dst);
        if (src == dst) {
          EXPECT_TRUE(segments.empty());
          continue;
        }
        // Every crossed segment is a fabric link, and none repeats
        // (acyclic: a tree walk never crosses the same link twice).
        for (const auto seg : segments) EXPECT_TRUE(topo.is_fabric(seg));
        auto sorted = segments;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
            << "segment repeated between tiers " << src << " and " << dst;
        // Connected: consecutive crossed links share a tree endpoint.
        for (std::size_t i = 0; i + 1 < segments.size(); ++i)
          EXPECT_TRUE(adjacent_links(topo, segments[i], segments[i + 1]));
        // Endpoint coverage: the walk starts at src and ends at dst, so
        // the first crossed link touches src and the last touches dst
        // (a tier is touched by its own link or by a child's link).
        ASSERT_FALSE(segments.empty());
        const auto touches = [&](memsim::TierId seg, memsim::TierId tier) {
          return seg == tier || topo.tier(seg).upstream == tier;
        };
        EXPECT_TRUE(touches(segments.front(), src));
        EXPECT_TRUE(touches(segments.back(), dst));
        // Symmetric: the reverse move crosses the same links in reverse
        // order.
        auto reversed = topo.path(dst, src);
        std::reverse(reversed.begin(), reversed.end());
        EXPECT_EQ(segments, reversed);
        // Moves to the node cross exactly the src-side ancestor links.
        if (dst == memsim::kNodeTier) {
          auto chain = topo.ancestors(src);
          chain.pop_back();  // the node tier itself carries no link
          EXPECT_EQ(segments, chain);
        }
      }
    }
  }
}

TEST(TopologyValidateProperty, RejectsMalformedAttachments) {
  // Cycle: a tier attached to itself (upstream not strictly earlier).
  memsim::MemoryTopology self_cycle;
  self_cycle.tiers.push_back(memsim::MemoryTierSpec{"node", 1ULL << 30, 73.0, 111.0, {}});
  self_cycle.tiers.push_back(
      memsim::MemoryTierSpec{"pool", 1ULL << 30, 30.0, 200.0, memsim::FabricLinkSpec{}});
  self_cycle.tiers.back().upstream = 1;
  EXPECT_THROW(self_cycle.validate(), contract_violation);

  // Forward cycle: tier 1 attached to tier 2 while tier 2 hangs off 1.
  memsim::MemoryTopology fwd_cycle = self_cycle;
  fwd_cycle.tiers.push_back(
      memsim::MemoryTierSpec{"pool2", 1ULL << 30, 30.0, 220.0, memsim::FabricLinkSpec{}});
  fwd_cycle.tiers[1].upstream = 2;
  fwd_cycle.tiers[2].upstream = 1;
  EXPECT_THROW(fwd_cycle.validate(), contract_violation);

  // Dangling upstream: attachment point outside the tier list.
  memsim::MemoryTopology dangling = self_cycle;
  dangling.tiers.back().upstream = 7;
  EXPECT_THROW(dangling.validate(), contract_violation);
  dangling.tiers.back().upstream = -3;
  EXPECT_THROW(dangling.validate(), contract_violation);

  // Randomized: corrupting one upstream pointer of a valid tree to a
  // non-earlier tier must always be rejected.
  Xoshiro256 rng(987654321);
  for (int trial = 0; trial < 100; ++trial) {
    memsim::MemoryTopology topo = random_topology(rng);
    if (topo.num_tiers() < 2) continue;
    const auto victim = static_cast<std::size_t>(
        1 + rng.uniform_below(static_cast<std::uint64_t>(topo.num_tiers() - 1)));
    const auto bad = static_cast<memsim::TierId>(
        victim + rng.uniform_below(static_cast<std::uint64_t>(memsim::kMaxTiers)));
    topo.tiers[victim].upstream = bad;  // >= its own index: cycle or dangling
    EXPECT_THROW(topo.validate(), contract_violation) << "victim " << victim;
  }
}

// ---------- engine propagation ----------------------------------------------

TEST(EngineNTier, CountersEpochsAndResidencyCoverAllTiers) {
  auto wl = workloads::make_workload(App::kBFS, 1, /*seed=*/7);
  core::RunConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  // Node holds 25% of the footprint, the direct device 37.5%, the rest
  // spills to the switched pool.
  cfg.remote_capacity_ratio = 0.75;
  const auto run = core::run_workload(*wl, cfg);

  EXPECT_TRUE(run.result.verified);
  // All three tiers served traffic.
  EXPECT_GT(run.counters.dram_bytes(0), 0u);
  EXPECT_GT(run.counters.dram_bytes(1), 0u);
  EXPECT_GT(run.counters.dram_bytes(2), 0u);
  // Epoch records carry per-tier series sized to the topology.
  ASSERT_FALSE(run.epochs.empty());
  EXPECT_EQ(run.epochs.front().tier_bytes.size(), 3u);
  EXPECT_EQ(run.epochs.front().resident_bytes.size(), 3u);
  // Peak residency saw pages on the switched pool.
  ASSERT_EQ(run.resident_bytes.size(), 3u);
  EXPECT_GT(run.resident_bytes[2], 0u);
  // Off-node ratios aggregate both fabric tiers.
  EXPECT_GT(run.remote_access_ratio(), 0.0);
  // The configured 75% split is approximate: the footprint estimate the
  // capacity shaping uses differs from true peak RSS by transient arrays.
  EXPECT_NEAR(run.remote_capacity_ratio(), 0.75, 0.1);
}

TEST(EngineNTier, Level2OnThreeTierSpillsToTheSwitchedPool) {
  // `memdis level2 --fabric three-tier --ratio 0.75`: the profiler shapes
  // capacities by machine_with_spill's rule, so the spill reaches tier 2.
  core::RunConfig cfg;
  cfg.machine = memsim::MachineConfig::three_tier_cxl();
  auto wl = workloads::make_workload(App::kBFS, 1, /*seed=*/7);
  const auto l2 = core::MultiLevelProfiler(cfg).level2(*wl, 0.75);
  EXPECT_GT(l2.run.counters.dram_bytes(2), 0u);
}

// ---------- sweep topology axis ----------------------------------------------

TEST(SweepTopologyAxis, MixesTwoAndThreeTierPointsInOneGrid) {
  core::SweepSpec spec;
  spec.apps = {App::kBFS};
  spec.fabrics = {"cxl", "three-tier", "hybrid"};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].run_config().machine.num_tiers(), 2);
  EXPECT_EQ(points[1].run_config().machine.num_tiers(), 3);
  EXPECT_EQ(points[2].run_config().machine.num_tiers(), 3);
}

// ---------- scenario grids ----------------------------------------------------

TEST(ScenarioGrid, ExtThreeTierShape) {
  const auto* s = core::ScenarioRegistry::instance().find("ext-three-tier");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->spec.size(), 12u);  // 3 apps x 2 ratios x 2 topologies
  EXPECT_EQ(s->spec.fabrics, (std::vector<std::string>{"cxl", "three-tier"}));
  EXPECT_FALSE(s->spec.seed_per_task);
  const auto points = s->spec.expand();
  EXPECT_EQ(points.size(), 12u);
  // Shared seed across the topology axis (inputs held fixed).
  for (const auto& p : points) EXPECT_EQ(p.seed, s->spec.base_seed);
}

TEST(ScenarioGrid, ExtHybridShape) {
  const auto* s = core::ScenarioRegistry::instance().find("ext-hybrid");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->spec.size(), 6u);  // 2 apps x 3 topologies
  EXPECT_EQ(s->spec.fabrics, (std::vector<std::string>{"cxl", "hybrid", "split"}));
}

TEST(ScenarioGrid, ThreeTierMeasureUsesTheSwitchedTier) {
  const auto* s = core::ScenarioRegistry::instance().find("ext-three-tier");
  ASSERT_NE(s, nullptr);
  core::SweepPoint point;
  point.app = App::kBFS;
  point.ratio = 0.75;
  point.fabric = "three-tier";
  point.seed = s->spec.base_seed;
  const auto metrics = s->measure(point);
  double share_t2 = 0.0, time_ms = 0.0;
  for (const auto& [name, value] : metrics) {
    if (name == "share_t2") share_t2 = value;
    if (name == "time_ms") time_ms = value;
  }
  EXPECT_GT(time_ms, 0.0);
  EXPECT_GT(share_t2, 0.0);  // the chain's tail actually serves traffic
}

// ---------- monotonicity ------------------------------------------------------

// The property the three-tier scenario claims: with byte-for-byte identical
// placement, turning the chain's tail from a direct hop into a switched hop
// (same bandwidth, +latency) never improves runtime.
TEST(Monotonicity, SwitchedHopNeverImprovesRuntime) {
  const std::uint64_t seed = 99;
  auto direct_machine = memsim::MachineConfig::three_tier_cxl();
  direct_machine.tier(2).latency_ns = direct_machine.tier(1).latency_ns;

  core::RunConfig direct_cfg;
  direct_cfg.machine = direct_machine;
  direct_cfg.remote_capacity_ratio = 0.75;  // node 25%, device 37.5%, tail the rest
  auto wl_direct = workloads::make_workload(App::kBFS, 1, seed);
  const auto direct = core::run_workload(*wl_direct, direct_cfg);

  core::RunConfig switched_cfg = direct_cfg;
  switched_cfg.machine = memsim::MachineConfig::three_tier_cxl();
  auto wl_switched = workloads::make_workload(App::kBFS, 1, seed);
  const auto switched = core::run_workload(*wl_switched, switched_cfg);

  // Identical placement (deterministic first touch on identical capacities):
  // the only difference is the tail hop's latency.
  EXPECT_EQ(direct.counters.dram_bytes(2), switched.counters.dram_bytes(2));
  EXPECT_GT(direct.counters.dram_bytes(2), 0u);
  EXPECT_GE(switched.elapsed_s, direct.elapsed_s);
}

// Splitting the spill between the CXL device and the (slower) peer tier
// always beats borrowing everything from the peer: the hybrid moves half
// the traffic to a strictly faster path.
TEST(Monotonicity, HybridNeverLosesToPureSplit) {
  const std::uint64_t seed = 99;
  core::RunConfig hybrid_cfg;
  hybrid_cfg.machine = memsim::MachineConfig::hybrid_split_pool();
  hybrid_cfg.remote_capacity_ratio = 0.5;  // node 50%, CXL device 25%, peer the rest
  auto wl_hybrid = workloads::make_workload(App::kBFS, 1, seed);
  const auto hybrid = core::run_workload(*wl_hybrid, hybrid_cfg);

  core::RunConfig split_cfg;
  split_cfg.machine = memsim::MachineConfig::split_borrowing();
  split_cfg.remote_capacity_ratio = 0.5;
  auto wl_split = workloads::make_workload(App::kBFS, 1, seed);
  const auto split = core::run_workload(*wl_split, split_cfg);

  EXPECT_LE(hybrid.elapsed_s, split.elapsed_s);
}

}  // namespace
}  // namespace memdis
