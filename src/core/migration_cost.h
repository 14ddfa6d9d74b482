// MigrationCostModel: quantitative pricing of tier->tier page moves.
//
// The paper's thesis (Sec. 5-6) is that placement decisions should come
// from measured per-link bandwidth/latency, not fixed heuristics. This
// model prices any page migration from the MemoryTopology's per-link
// parameters under the *current* per-link Level-of-Interference:
//
//   move_cost(src, dst)  = sum over crossed fabric segments of
//                          page_bytes / BW_eff(segment) + lat_eff(segment)
//   benefit(src, dst, h) = h * (lat(src) - lat(dst)) * w / (MLP*T)
//                          per epoch, for a page with h sampled accesses
//   plan_value           = horizon * benefit - move_cost
//
// Crossed segments follow the topology's upstream tree (tier.h): on a
// chain (switched pool behind a direct CXL device) a switched->direct hop
// crosses only the switch segment, which is what can make staging a page
// through the intermediate tier beat the direct long-haul move.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/link.h"
#include "memsim/loi_schedule.h"
#include "memsim/machine.h"

namespace memdis::core {

/// One candidate page move, fully priced. `value_s` amortizes the benefit
/// over the planner's horizon; the planner ranks candidates by it and
/// spends per-segment budgets on the highest-value feasible plans.
struct MovePlan {
  memsim::TierId src = 0;
  memsim::TierId dst = 0;
  std::uint64_t heat = 0;           ///< sampled accesses since last scan
  double cost_s = 0.0;              ///< one-page transfer cost
  double benefit_s_per_epoch = 0.0; ///< stall time saved per epoch
  double value_s = 0.0;             ///< horizon * benefit - cost
  std::vector<memsim::TierId> segments;  ///< fabric links the move crosses

  /// A staged move ends on an intermediate fabric tier instead of the node.
  [[nodiscard]] bool staged() const { return dst != memsim::kNodeTier; }
};

class MigrationCostModel {
 public:
  /// Builds the model for `machine` with per-link background LoI levels
  /// (indexed by TierId; local-tier entries ignored, missing entries 0).
  MigrationCostModel(const memsim::MachineConfig& machine, std::vector<double> link_loi = {});

  /// Effective demand latency of one access served from tier `t`, seconds,
  /// under the configured LoI (node tier: raw DRAM latency).
  [[nodiscard]] double access_latency_s(memsim::TierId t) const;

  /// Effective data bandwidth of tier `t`'s link under the configured LoI,
  /// GB/s (contract violation for local tiers). Feeds per-segment budget
  /// scaling: a loaded link affords proportionally fewer migrated pages.
  [[nodiscard]] double effective_link_bandwidth_gbps(memsim::TierId t) const;

  /// Raw (unloaded) data bandwidth of tier `t`'s link, GB/s.
  [[nodiscard]] double raw_link_bandwidth_gbps(memsim::TierId t) const;

  /// Transfer cost of moving one page from `src` to `dst`: per crossed
  /// fabric segment, page_bytes over the segment's effective data bandwidth
  /// plus one effective-latency round trip (move_pages setup).
  [[nodiscard]] double move_cost_s(memsim::TierId src, memsim::TierId dst) const;

  /// Full plan for one page moving `src` -> `dst`: transfer cost at this
  /// model's link state (the move happens now), per-epoch benefit of
  /// serving its `heat` sampled accesses (scaled back up by the PEBS
  /// sample period) at `dst_latency_s` instead of `src_latency_s`, and net
  /// value amortized over `horizon_epochs` of expected residency. The
  /// planner passes each tier's latency as it prices it: access_latency_s
  /// of this or a demand-view model, or the horizon average under a LoI
  /// schedule (computed once per scan, reused across candidate pairs).
  [[nodiscard]] MovePlan plan(memsim::TierId src, memsim::TierId dst, std::uint64_t heat,
                              std::uint64_t horizon_epochs, std::uint64_t sample_period,
                              double src_latency_s, double dst_latency_s) const;

  /// Access latency of tier `t` averaged over the next `window_epochs`
  /// epochs of a time-varying LoI schedule (starting at `from_epoch`).
  /// Unscheduled tiers reduce to access_latency_s. This is what keeps a
  /// planner from parking pages on a tier that is cheap *now* but bursts
  /// within the residency horizon.
  [[nodiscard]] double scheduled_access_latency_s(memsim::TierId t,
                                                  const memsim::LoiSchedule& schedule,
                                                  std::uint64_t from_epoch,
                                                  std::uint64_t window_epochs) const;

  /// Effective data bandwidth of tier `t`'s link averaged over the next
  /// `window_epochs` epochs of the schedule — the *sustained* capacity a
  /// planner should budget against under bursty congestion (instantaneous
  /// spikes are handled by per-move pricing and deferral, not by
  /// collapsing the whole scan's budget).
  [[nodiscard]] double scheduled_link_bandwidth_gbps(memsim::TierId t,
                                                     const memsim::LoiSchedule& schedule,
                                                     std::uint64_t from_epoch,
                                                     std::uint64_t window_epochs) const;

  /// Fabric segments crossed by a src->dst move (topology upstream tree).
  [[nodiscard]] std::vector<memsim::TierId> segments(memsim::TierId src,
                                                     memsim::TierId dst) const {
    return machine_.topology.path(src, dst);
  }

  [[nodiscard]] const memsim::MachineConfig& machine() const { return machine_; }
  [[nodiscard]] double link_loi(memsim::TierId t) const;

 private:
  memsim::MachineConfig machine_;
  std::vector<double> link_loi_;                       // indexed by TierId
  std::vector<std::optional<memsim::LinkModel>> links_;  // indexed by TierId
};

}  // namespace memdis::core
