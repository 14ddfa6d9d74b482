#include "core/migration_cost.h"

#include "common/contract.h"
#include "common/units.h"

namespace memdis::core {

MigrationCostModel::MigrationCostModel(const memsim::MachineConfig& machine,
                                       std::vector<double> link_loi)
    : machine_(machine), link_loi_(std::move(link_loi)) {
  machine_.topology.validate();
  link_loi_.resize(static_cast<std::size_t>(machine_.num_tiers()), 0.0);
  links_.reserve(link_loi_.size());
  for (memsim::TierId t = 0; t < machine_.num_tiers(); ++t) {
    if (machine_.topology.is_fabric(t)) {
      memsim::LinkModel link(machine_.tier(t));
      link.set_background_loi(link_loi_[static_cast<std::size_t>(t)]);
      links_.emplace_back(std::move(link));
    } else {
      links_.emplace_back(std::nullopt);
    }
  }
}

double MigrationCostModel::link_loi(memsim::TierId t) const {
  expects(machine_.topology.valid_tier(t), "tier id out of range");
  return link_loi_[static_cast<std::size_t>(t)];
}

double MigrationCostModel::access_latency_s(memsim::TierId t) const {
  expects(machine_.topology.valid_tier(t), "tier id out of range");
  const auto& l = links_[static_cast<std::size_t>(t)];
  return ns_to_s(l ? l->effective_latency_ns(0.0) : machine_.tier(t).latency_ns);
}

double MigrationCostModel::effective_link_bandwidth_gbps(memsim::TierId t) const {
  expects(machine_.topology.valid_tier(t), "tier id out of range");
  const auto& l = links_[static_cast<std::size_t>(t)];
  expects(l.has_value(), "tier has no fabric link");
  return l->effective_data_bandwidth_gbps(0.0);
}

double MigrationCostModel::raw_link_bandwidth_gbps(memsim::TierId t) const {
  expects(machine_.topology.valid_tier(t), "tier id out of range");
  const auto& spec = machine_.tier(t);
  expects(spec.link.has_value(), "tier has no fabric link");
  return spec.link->data_bandwidth_gbps();
}

double MigrationCostModel::move_cost_s(memsim::TierId src, memsim::TierId dst) const {
  expects(machine_.topology.valid_tier(src) && machine_.topology.valid_tier(dst),
          "tier id out of range");
  const auto bytes = static_cast<double>(machine_.page_bytes);
  double cost = 0.0;
  for (const memsim::TierId seg : machine_.topology.path(src, dst)) {
    const auto& link = links_[static_cast<std::size_t>(seg)];
    expects(link.has_value(), "migration path crosses a tier without a link");
    cost += bytes / gbps_to_bytes_per_sec(link->effective_data_bandwidth_gbps(0.0)) +
            ns_to_s(link->effective_latency_ns(0.0));
  }
  return cost;
}

double MigrationCostModel::scheduled_access_latency_s(memsim::TierId t,
                                                      const memsim::LoiSchedule& schedule,
                                                      std::uint64_t from_epoch,
                                                      std::uint64_t window_epochs) const {
  expects(machine_.topology.valid_tier(t), "tier id out of range");
  const memsim::LoiWaveform* wave = schedule.waveform(t);
  if (!wave || window_epochs == 0) return access_latency_s(t);
  memsim::LinkModel link(machine_.tier(t));
  double sum = 0.0;
  for (std::uint64_t d = 0; d < window_epochs; ++d) {
    link.set_background_loi(wave->value_at(from_epoch + d));
    sum += ns_to_s(link.effective_latency_ns(0.0));
  }
  return sum / static_cast<double>(window_epochs);
}

double MigrationCostModel::scheduled_link_bandwidth_gbps(memsim::TierId t,
                                                         const memsim::LoiSchedule& schedule,
                                                         std::uint64_t from_epoch,
                                                         std::uint64_t window_epochs) const {
  const memsim::LoiWaveform* wave = schedule.waveform(t);
  if (!wave || window_epochs == 0) return effective_link_bandwidth_gbps(t);
  expects(machine_.topology.valid_tier(t) && machine_.tier(t).is_fabric(),
          "tier has no fabric link");
  memsim::LinkModel link(machine_.tier(t));
  double sum = 0.0;
  for (std::uint64_t d = 0; d < window_epochs; ++d) {
    link.set_background_loi(wave->value_at(from_epoch + d));
    sum += link.effective_data_bandwidth_gbps(0.0);
  }
  return sum / static_cast<double>(window_epochs);
}

MovePlan MigrationCostModel::plan(memsim::TierId src, memsim::TierId dst, std::uint64_t heat,
                                  std::uint64_t horizon_epochs, std::uint64_t sample_period,
                                  double src_latency_s, double dst_latency_s) const {
  MovePlan p;
  p.src = src;
  p.dst = dst;
  p.heat = heat;
  p.segments = segments(src, dst);
  p.cost_s = move_cost_s(src, dst);
  const double overlap = machine_.mlp * static_cast<double>(machine_.threads);
  const double accesses =
      static_cast<double>(heat) * static_cast<double>(sample_period == 0 ? 1 : sample_period);
  p.benefit_s_per_epoch = accesses * (src_latency_s - dst_latency_s) / overlap;
  p.value_s = static_cast<double>(horizon_epochs) * p.benefit_s_per_epoch - p.cost_s;
  return p;
}

}  // namespace memdis::core
