// MachineConfig: a compute node plus its memory topology.
//
// The emulated platform of Sec. 3.3 is the two-tier degenerate case: one
// socket acts as the compute node (node tier), the other socket's memory
// acts as the pool reached over the UPI link. The numbers are the paper's
// measured values: 73 GB/s / 111 ns node DRAM, 34 GB/s / 202 ns pool, with
// PCM-visible link traffic saturating at 85 GB/s due to protocol overhead.
// Richer presets (three-tier CXL chains, split+pool hybrids) express the
// rack-scale what-ifs of Fig. 2 as N-tier topologies.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/tier.h"

namespace memdis::memsim {

struct MachineConfig {
  // Compute side.
  double peak_gflops = 330.0;  ///< platform peak (AVX-512, all threads)
  int threads = 12;            ///< hardware threads used by workloads
  double mlp = 12.0;           ///< memory-level parallelism for demand misses

  /// Memory tiers, node tier first. Defaults to the Skylake-X testbed's
  /// local/pool pair; see the presets below for richer topologies. The
  /// 0.35 interference share calibrates the Fig. 10 sensitivity magnitudes
  /// (most-sensitive app ≈ 15% loss at LoI=50 on 50/50 tiers).
  MemoryTopology topology{{
      MemoryTierSpec{"local-ddr", 96ULL << 30, 73.0, 111.0, {}},
      MemoryTierSpec{"pool-ddr", 96ULL << 30, 34.0, 202.0, FabricLinkSpec{}},
  }};

  std::uint64_t page_bytes = 4096;
  std::uint64_t cacheline_bytes = 64;

  // ---- tier access --------------------------------------------------------
  [[nodiscard]] int num_tiers() const { return topology.num_tiers(); }
  [[nodiscard]] const MemoryTierSpec& tier(TierId t) const { return topology.tier(t); }
  [[nodiscard]] MemoryTierSpec& tier(TierId t) { return topology.tier(t); }

  /// The node-local tier (tier 0).
  [[nodiscard]] const MemoryTierSpec& node_tier() const { return topology.tier(kNodeTier); }
  [[nodiscard]] MemoryTierSpec& node_tier() { return topology.tier(kNodeTier); }

  /// The primary pool: the first fabric tier. Reference-point math (R_bw,
  /// LBench calibration, interference coefficients) is defined against it.
  [[nodiscard]] const MemoryTierSpec& pool_tier() const {
    return topology.tier(topology.first_fabric());
  }
  [[nodiscard]] MemoryTierSpec& pool_tier() { return topology.tier(topology.first_fabric()); }

  /// The primary pool's link parameters.
  [[nodiscard]] const FabricLinkSpec& pool_link() const { return *pool_tier().link; }
  [[nodiscard]] FabricLinkSpec& pool_link() { return *pool_tier().link; }

  // ---- presets ------------------------------------------------------------
  /// The dual-socket Intel Xeon (Skylake-X) testbed from the paper.
  [[nodiscard]] static MachineConfig skylake_testbed();

  /// What-if preset: the pool behind a direct-attached CXL type-3 device
  /// (x16 CXL 2.0: ~45 GB/s data, ~190 ns — numbers in line with the
  /// genuine-device measurements the paper cites [41]). CXL.mem's flit
  /// protocol carries less overhead than the UPI emulation.
  [[nodiscard]] static MachineConfig cxl_direct_attached();

  /// What-if preset: a switched rack-scale CXL pool — same bandwidth as
  /// direct CXL but with switch traversal adding ~130 ns, the scenario the
  /// paper's Fig. 2 architecture implies for multi-node pools.
  [[nodiscard]] static MachineConfig cxl_switched_pool();

  /// What-if preset: the *split* disaggregation category (Sec. 2) — remote
  /// memory borrowed peer-to-peer from another compute node rather than a
  /// dedicated pool. Longer path than a pool device, and the borrowed
  /// traffic contends with the lender's own memory traffic, so a larger
  /// share of background traffic collides with the borrower.
  [[nodiscard]] static MachineConfig split_borrowing();

  /// Three-tier what-if: node DRAM, a direct-attached CXL device, and a
  /// switched rack pool behind it — the capacity chain Fig. 2's rack
  /// architecture implies once the direct device fills up.
  [[nodiscard]] static MachineConfig three_tier_cxl();

  /// Hybrid what-if: node DRAM plus two *asymmetric* pools side by side — a
  /// direct CXL device and peer-borrowed (split) memory, each with its own
  /// link. Capacity overflowing the CXL device lands on the peer tier.
  [[nodiscard]] static MachineConfig hybrid_split_pool();

  // ---- capacity shaping ---------------------------------------------------
  /// Returns a copy whose node-tier capacity is shrunk so that
  /// `remote_capacity_ratio` (e.g. 0.75) of `footprint_bytes` must spill off
  /// the node under first-touch. This mirrors the paper's `setup_waste`
  /// step, which occupies local memory to force a 25/50/75% capacity split.
  [[nodiscard]] MachineConfig with_remote_capacity_ratio(double remote_capacity_ratio,
                                                         std::uint64_t footprint_bytes) const;

  /// Returns a copy where tier i's capacity holds `fractions[i]` of
  /// `footprint_bytes` (rounded up to whole pages); tiers beyond the vector
  /// keep their configured capacity and absorb the rest of the spill chain.
  /// The generalization of with_remote_capacity_ratio to N-tier chains.
  [[nodiscard]] MachineConfig with_capacity_fractions(const std::vector<double>& fractions,
                                                      std::uint64_t footprint_bytes) const;

  // ---- two-tier reference ratios (Sec. 5.1) -------------------------------
  /// Ratio of off-node capacity to total capacity (R_cap^remote).
  [[nodiscard]] double remote_capacity_ratio() const;

  /// Ratio of off-node bandwidth to total bandwidth (R_bw^remote).
  [[nodiscard]] double remote_bandwidth_ratio() const;

  /// Peak *data* bandwidth of the primary pool link.
  [[nodiscard]] double link_data_bandwidth_gbps() const;
};

}  // namespace memdis::memsim
