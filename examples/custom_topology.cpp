// Defining a custom N-tier MemoryTopology and running a workload on it.
//
// Build: cmake --build build --target example_custom_topology
//
// The built-in presets (upi / cxl / cxl-switched / split / three-tier /
// hybrid) cover the paper's testbed and its what-ifs, but any machine is
// expressible: this example models an HBM-class node — a small, very fast
// on-package tier in front of DDR — with a switched CXL pool behind both,
// then compares first-touch against a 3-way weighted interleave.
#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "workloads/workload.h"

int main() {
  using namespace memdis;

  // ---- 1. describe the machine -------------------------------------------
  memsim::MachineConfig machine;
  machine.topology.tiers.clear();
  // Tier 0: on-package HBM — no fabric link (node-local).
  machine.topology.tiers.push_back(
      memsim::MemoryTierSpec{"hbm", 1ULL << 30, 400.0, 95.0, {}});
  // Tier 1: DDR behind the memory controller. Modelled as a fabric tier
  // with a wide, low-overhead "link" so spill order places it after HBM.
  memsim::FabricLinkSpec ddr_link;
  ddr_link.traffic_capacity_gbps = 90.0;
  ddr_link.protocol_overhead = 1.1;
  machine.topology.tiers.push_back(
      memsim::MemoryTierSpec{"ddr", 96ULL << 30, 73.0, 111.0, ddr_link});
  // Tier 2: a switched CXL pool at the end of the chain.
  memsim::FabricLinkSpec cxl_link;
  cxl_link.traffic_capacity_gbps = 68.0;
  cxl_link.protocol_overhead = 1.5;
  machine.topology.tiers.push_back(
      memsim::MemoryTierSpec{"cxl-pool", 96ULL << 30, 45.0, 320.0, cxl_link});
  machine.topology.validate();

  std::cout << "Custom topology:\n";
  for (memsim::TierId t = 0; t < machine.num_tiers(); ++t) {
    const auto& tier = machine.tier(t);
    std::cout << "  tier " << t << "  " << tier.name << ": " << tier.bandwidth_gbps
              << " GB/s, " << tier.latency_ns << " ns"
              << (tier.is_fabric() ? "  (fabric)" : "  (node)") << "\n";
  }

  // ---- 2. first-touch: the HBM tier fills, the rest spills ---------------
  auto wl = workloads::make_workload(workloads::App::kHypre, 1, /*seed=*/42);
  core::RunConfig cfg;
  cfg.machine = machine;
  // Shape capacities so the spill chain engages: HBM holds 30% of the
  // footprint, DDR the next 40%, the pool the rest.
  cfg.capacity_fractions = std::vector<double>{0.30, 0.40};
  const auto first_touch = core::run_workload(*wl, cfg);

  // ---- 3. weighted interleave across all three tiers ---------------------
  // Route default-policy allocations through a 4:2:1 interleave (tiers
  // weighted by their approximate bandwidth share) — the `numactl
  // --interleave` analogue with the kernel patch's weighted semantics.
  // Full tier capacities this time: placement is set by policy alone.
  auto wl2 = workloads::make_workload(workloads::App::kHypre, 1, /*seed=*/42);
  sim::EngineConfig ecfg;
  ecfg.machine = machine;
  ecfg.default_policy_override = memsim::MemPolicy::interleave({4, 2, 1});
  const auto interleaved = core::run_live(*wl2, ecfg, /*prefetch_enabled=*/true);

  Table t({"placement", "time (ms)", "%t0 (hbm)", "%t1 (ddr)", "%t2 (pool)"});
  const auto share = [](const cachesim::HwCounters& c, memsim::TierId tier) {
    const auto total = static_cast<double>(c.dram_bytes_total());
    return total > 0 ? static_cast<double>(c.dram_bytes(tier)) / total : 0.0;
  };
  t.add_row({"first-touch spill chain", Table::num(first_touch.elapsed_s * 1e3, 3),
             Table::pct(share(first_touch.counters, 0)),
             Table::pct(share(first_touch.counters, 1)),
             Table::pct(share(first_touch.counters, 2))});
  t.add_row({"interleave 4:2:1", Table::num(interleaved.elapsed_s * 1e3, 3),
             Table::pct(share(interleaved.counters, 0)),
             Table::pct(share(interleaved.counters, 1)),
             Table::pct(share(interleaved.counters, 2))});
  t.print(std::cout);

  std::cout << "\nReading: the interleave streams from all three tiers at once, so\n"
               "aggregate bandwidth approaches the sum of the tier bandwidths —\n"
               "the multi-tier roofline argument of Fig. 5, on a custom machine.\n";
  return 0;
}
