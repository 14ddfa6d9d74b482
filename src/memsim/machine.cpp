#include "memsim/machine.h"

#include <algorithm>

#include "common/contract.h"

namespace memdis::memsim {

namespace {

FabricLinkSpec cxl_link() {
  FabricLinkSpec link;
  link.protocol_overhead = 1.5;
  link.traffic_capacity_gbps = 45.0 * link.protocol_overhead;
  return link;
}

FabricLinkSpec peer_link() {
  FabricLinkSpec link;
  link.protocol_overhead = 2.0;
  link.traffic_capacity_gbps = 25.0 * link.protocol_overhead;
  link.interference_share = 0.7;  // contends with the lender's traffic
  return link;
}

}  // namespace

MachineConfig MachineConfig::skylake_testbed() { return MachineConfig{}; }

MachineConfig MachineConfig::cxl_direct_attached() {
  MachineConfig cfg;
  cfg.pool_tier() = MemoryTierSpec{"cxl-direct", 96ULL << 30, 45.0, 190.0, cxl_link()};
  return cfg;
}

MachineConfig MachineConfig::cxl_switched_pool() {
  MachineConfig cfg = cxl_direct_attached();
  cfg.pool_tier().name = "cxl-switched";
  cfg.pool_tier().latency_ns = 320.0;  // + switch traversal each way
  return cfg;
}

MachineConfig MachineConfig::split_borrowing() {
  MachineConfig cfg;
  cfg.pool_tier() = MemoryTierSpec{"peer-borrowed", 96ULL << 30, 25.0, 450.0, peer_link()};
  return cfg;
}

MachineConfig MachineConfig::three_tier_cxl() {
  MachineConfig cfg = cxl_direct_attached();
  // The switched pool hangs off the direct device's switch port (upstream =
  // tier 1), so tier-2<->tier-1 page migrations cross only the switch
  // segment while accesses still pay the full node<->pool path (320 ns).
  MemoryTierSpec switched{"cxl-switched", 96ULL << 30, 45.0, 320.0, cxl_link(), 1};
  cfg.topology.tiers.push_back(std::move(switched));
  cfg.topology.validate();
  return cfg;
}

MachineConfig MachineConfig::hybrid_split_pool() {
  MachineConfig cfg = cxl_direct_attached();
  MemoryTierSpec peer{"peer-borrowed", 96ULL << 30, 25.0, 450.0, peer_link()};
  cfg.topology.tiers.push_back(std::move(peer));
  cfg.topology.validate();
  return cfg;
}

MachineConfig MachineConfig::with_remote_capacity_ratio(double remote_capacity_ratio_,
                                                        std::uint64_t footprint_bytes) const {
  expects(remote_capacity_ratio_ >= 0.0 && remote_capacity_ratio_ < 1.0,
          "remote capacity ratio must be in [0,1)");
  expects(footprint_bytes > 0, "footprint must be positive");
  MachineConfig cfg = *this;
  const auto local_bytes = static_cast<std::uint64_t>(
      static_cast<double>(footprint_bytes) * (1.0 - remote_capacity_ratio_));
  // Round up to whole pages so the requested split is achievable.
  const std::uint64_t pages = (local_bytes + page_bytes - 1) / page_bytes;
  cfg.node_tier().capacity_bytes = std::max<std::uint64_t>(pages * page_bytes, page_bytes);
  return cfg;
}

MachineConfig MachineConfig::with_capacity_fractions(const std::vector<double>& fractions,
                                                     std::uint64_t footprint_bytes) const {
  expects(footprint_bytes > 0, "footprint must be positive");
  expects(static_cast<int>(fractions.size()) <= num_tiers(),
          "more capacity fractions than tiers");
  MachineConfig cfg = *this;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    expects(fractions[i] >= 0.0 && fractions[i] <= 1.0,
            "capacity fraction must be in [0,1]");
    const auto bytes = static_cast<std::uint64_t>(static_cast<double>(footprint_bytes) *
                                                  fractions[i]);
    const std::uint64_t pages = (bytes + page_bytes - 1) / page_bytes;
    cfg.tier(static_cast<TierId>(i)).capacity_bytes =
        std::max<std::uint64_t>(pages * page_bytes, page_bytes);
  }
  return cfg;
}

double MachineConfig::remote_capacity_ratio() const {
  const auto total = static_cast<double>(topology.total_capacity_bytes());
  if (total <= 0) return 0.0;
  std::uint64_t off_node = 0;
  for (TierId t = 1; t < num_tiers(); ++t) off_node += tier(t).capacity_bytes;
  return static_cast<double>(off_node) / total;
}

double MachineConfig::remote_bandwidth_ratio() const {
  const double total = topology.total_bandwidth_gbps();
  if (total <= 0) return 0.0;
  double off_node = 0.0;
  for (TierId t = 1; t < num_tiers(); ++t) off_node += tier(t).bandwidth_gbps;
  return off_node / total;
}

double MachineConfig::link_data_bandwidth_gbps() const {
  return pool_link().data_bandwidth_gbps();
}

}  // namespace memdis::memsim
