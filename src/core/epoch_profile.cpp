#include "core/epoch_profile.h"

#include <utility>

#include "common/artifact_format.h"
#include "common/contract.h"

namespace memdis::core {

namespace {

thread_local ProfileCache* t_bound_cache = nullptr;

}  // namespace

std::shared_ptr<const EpochProfile> ProfileCache::find(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = profiles_.find(key);
  if (it == profiles_.end()) return nullptr;
  ++stats_.reprices;
  return it->second;
}

void ProfileCache::store(const std::string& key, EpochProfile profile) {
  auto holder = std::make_shared<const EpochProfile>(std::move(profile));
  const std::lock_guard<std::mutex> lock(mutex_);
  // Keep the first capture on a race: both racers ran the same full
  // simulation, so the profiles are interchangeable.
  profiles_.emplace(key, std::move(holder));
  ++stats_.captures;
}

RepriceStats ProfileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ProfileScope::ProfileScope(ProfileCache& cache) : previous_(t_bound_cache) {
  t_bound_cache = &cache;
}

ProfileScope::~ProfileScope() { t_bound_cache = previous_; }

ProfileCache* ProfileScope::current() { return t_bound_cache; }

bool reprice_enabled() { return false; }

void set_reprice_enabled(bool on) {
  expects(!on, "the process-wide repricing switch has been removed; only false is accepted");
}

RepriceStats reprice_stats() { return {}; }

void clear_reprice_cache() {}

std::size_t reprice_cache_size() { return 0; }

std::string functional_key(const std::string& workload_id,
                           const memsim::MachineConfig& m,
                           const cachesim::HierarchyConfig& h, bool prefetch_enabled) {
  std::string key = workload_id;
  key += "|machine:";
  append_double(key, m.peak_gflops);
  key += ',';
  key += std::to_string(m.threads);
  key += ',';
  append_double(key, m.mlp);
  key += ',';
  key += std::to_string(m.page_bytes);
  key += ',';
  key += std::to_string(m.cacheline_bytes);
  // Every tier/link field is keyed, conservatively including pure pricing
  // parameters: the fabric *shape* is functional (capacities steer spill
  // and placement), and over-keying can only cost a duplicate capture,
  // never a wrong reuse.
  for (memsim::TierId t = 0; t < m.num_tiers(); ++t) {
    const auto& spec = m.tier(t);
    key += "|tier:";
    key += spec.name;
    key += ',';
    key += std::to_string(spec.capacity_bytes);
    key += ',';
    append_double(key, spec.bandwidth_gbps);
    key += ',';
    append_double(key, spec.latency_ns);
    key += ',';
    key += std::to_string(spec.upstream);
    if (spec.link) {
      const auto& l = *spec.link;
      key += ",link:";
      append_double(key, l.traffic_capacity_gbps);
      key += ',';
      append_double(key, l.protocol_overhead);
      key += ',';
      append_double(key, l.interference_share);
      key += ',';
      append_double(key, l.queue_weight);
      key += ',';
      append_double(key, l.overload_slope);
      key += ',';
      append_double(key, l.max_latency_multiplier);
      key += ',';
      key += std::to_string(l.queue_window_epochs);
    }
  }
  const auto cache_cfg = [&key](const char* tag, const cachesim::CacheConfig& c) {
    key += tag;
    key += std::to_string(c.size_bytes);
    key += ',';
    key += std::to_string(c.ways);
    key += ',';
    key += std::to_string(c.line_bytes);
  };
  cache_cfg("|l1:", h.l1);
  cache_cfg("|l2:", h.l2);
  cache_cfg("|l3:", h.l3);
  const auto& p = h.prefetcher;
  key += "|pf:";
  key += std::to_string(p.enabled ? 1 : 0);
  key += ',';
  key += std::to_string(p.num_streams);
  key += ',';
  key += std::to_string(p.max_degree);
  key += ',';
  key += std::to_string(p.train_threshold);
  key += ',';
  key += std::to_string(p.page_bytes);
  key += ',';
  key += std::to_string(p.line_bytes);
  key += ',';
  append_double(key, p.throttle_low);
  key += ',';
  append_double(key, p.throttle_high);
  key += "|pebs:";
  key += std::to_string(h.pebs_period);
  key += prefetch_enabled ? "|prefetch:on" : "|prefetch:off";
  return key;
}

RunOutput reprice(const EpochProfile& profile, const TimingConfig& timing) {
  const auto& m = profile.machine;
  const auto& topo = m.topology;
  const bool queue_mode = timing.link_model == memsim::LinkModelKind::kQueue;
  using memsim::TrafficClass;

  // Mirror the engine constructor exactly: per-tier link/queue construction
  // in TierId order, then the scalar LoI, then per-tier overrides, then the
  // schedule's epoch-0 value.
  std::vector<std::optional<memsim::LinkModel>> links;
  std::vector<std::optional<memsim::QueueModel>> queues;
  links.reserve(static_cast<std::size_t>(topo.num_tiers()));
  queues.reserve(static_cast<std::size_t>(topo.num_tiers()));
  for (memsim::TierId t = 0; t < topo.num_tiers(); ++t) {
    if (topo.is_fabric(t)) {
      links.emplace_back(memsim::LinkModel(topo.tier(t)));
      if (queue_mode) {
        queues.emplace_back(memsim::QueueModel(topo.tier(t)));
      } else {
        queues.emplace_back(std::nullopt);
      }
    } else {
      links.emplace_back(std::nullopt);
      queues.emplace_back(std::nullopt);
    }
  }
  for (auto& l : links)
    if (l) l->set_background_loi(timing.background_loi);
  for (std::size_t t = 0; t < timing.background_loi_per_tier.size() && t < links.size();
       ++t) {
    if (links[t]) links[t]->set_background_loi(timing.background_loi_per_tier[t]);
  }
  const auto apply_schedule = [&](std::uint64_t epoch) {
    if (timing.loi_schedule.empty()) return;
    expects(timing.loi_schedule.per_tier.size() <= links.size(),
            "LoI schedule targets a tier beyond the topology");
    for (std::size_t t = 0; t < links.size(); ++t) {
      const auto* wave = timing.loi_schedule.waveform(static_cast<memsim::TierId>(t));
      if (!wave) continue;
      expects(links[t].has_value(), "LoI schedule targets a tier without a link");
      links[t]->set_background_loi(wave->value_at(epoch));
    }
  };
  apply_schedule(0);

  RunOutput out = profile.output;  // functional fields carry over verbatim

  // Fold the cost model over the captured epochs. elapsed_after[k] is the
  // engine's running elapsed_s after k closed epochs — the identical
  // sequence of additions, so phase times (differences of two prefix sums)
  // reconstruct bit-exactly below.
  double elapsed = 0.0;
  std::vector<double> elapsed_after;
  elapsed_after.reserve(out.epochs.size() + 1);
  elapsed_after.push_back(0.0);
  for (std::size_t i = 0; i < out.epochs.size(); ++i) {
    sim::EpochRecord& rec = out.epochs[i];
    sim::EpochPricing pricing = sim::price_epoch(
        m, timing.link_model, profile.stall_weight, rec.flops, rec.tier_bytes,
        rec.tier_demand, rec.migration_bytes, rec.migration_s, links, queues);
    rec.start_s = elapsed;
    rec.duration_s = pricing.duration_s;
    rec.link_traffic_gbps = pricing.link_traffic_gbps;
    rec.link_utilization = pricing.link_utilization;
    rec.link_loi = std::move(pricing.link_loi);
    rec.link_demand_mult = std::move(pricing.link_demand_mult);
    rec.link_demand_inflation = std::move(pricing.link_demand_inflation);
    // Replay the per-class traffic into the windowed estimators just as
    // close_epoch does, so epoch i+1 prices against the same queue history.
    if (queue_mode) {
      for (memsim::TierId t = 0; t < topo.num_tiers(); ++t) {
        auto& q = queues[static_cast<std::size_t>(t)];
        if (!q) continue;
        q->observe(TrafficClass::kDemand,
                   static_cast<double>(rec.tier_bytes[static_cast<std::size_t>(t)]),
                   rec.duration_s);
        q->observe(TrafficClass::kBulk,
                   static_cast<double>(rec.migration_bytes[static_cast<std::size_t>(t)]),
                   rec.duration_s);
      }
    }
    elapsed += rec.duration_s;
    elapsed_after.push_back(elapsed);
    // The engine steps the schedule after pushing each record (before the
    // epoch callback — eligible runs have none).
    apply_schedule(i + 1);
  }
  out.elapsed_s = elapsed;
  for (auto& phase : out.phases) {
    expects(phase.epoch_begin <= phase.epoch_end &&
                phase.epoch_end < elapsed_after.size(),
            "phase epoch span out of range for the captured profile");
    phase.time_s = elapsed_after[phase.epoch_end] - elapsed_after[phase.epoch_begin];
  }
  return out;
}

}  // namespace memdis::core
