#include "sim/engine.h"

#include <algorithm>
#include <bit>

#include "common/contract.h"
#include "common/units.h"

namespace memdis::sim {

// Stubs pinned by the frozen perfbench/ harness (see engine.h).
bool bulk_fast_path_default() { return true; }
void set_bulk_fast_path_default(bool on) {
  expects(on, "the process-wide bulk-path default has been removed; set "
              "EngineConfig::bulk_fast_path per run");
}

memsim::LinkModelKind link_model_default() { return memsim::LinkModelKind::kLoi; }
void set_link_model_default(memsim::LinkModelKind kind) {
  expects(kind == memsim::LinkModelKind::kLoi,
          "the process-wide link-model default has been removed; set the link "
          "model per run");
}

bool fast_forward_default() { return false; }
void set_fast_forward_default(bool on) {
  expects(!on, "fast-forward has been removed; only off is accepted");
}

Engine::Engine(const EngineConfig& cfg)
    : cfg_(cfg), memory_(cfg.machine), hierarchy_(cfg.hierarchy, memory_) {
  expects(!cfg_.fast_forward, "fast-forward has been removed; only off is accepted");
  const auto& m = cfg_.machine;
  expects(m.cacheline_bytes > 0 && (m.cacheline_bytes & (m.cacheline_bytes - 1)) == 0,
          "cacheline size must be a power of two");
  expects(m.page_bytes > 0 && (m.page_bytes & (m.page_bytes - 1)) == 0,
          "page size must be a power of two");
  line_bytes_ = m.cacheline_bytes;
  line_mask_ = m.cacheline_bytes - 1;
  page_shift_ = log2_pow2(m.page_bytes);
  const auto& topo = cfg_.machine.topology;
  links_.reserve(static_cast<std::size_t>(topo.num_tiers()));
  queues_.reserve(static_cast<std::size_t>(topo.num_tiers()));
  const bool queue_mode = cfg_.link_model == memsim::LinkModelKind::kQueue;
  for (memsim::TierId t = 0; t < topo.num_tiers(); ++t) {
    if (topo.is_fabric(t)) {
      links_.emplace_back(memsim::LinkModel(topo.tier(t)));
      if (queue_mode) {
        queues_.emplace_back(memsim::QueueModel(topo.tier(t)));
      } else {
        queues_.emplace_back(std::nullopt);
      }
    } else {
      links_.emplace_back(std::nullopt);
      queues_.emplace_back(std::nullopt);
    }
  }
  pending_migration_bytes_.assign(static_cast<std::size_t>(topo.num_tiers()), 0);
  set_background_loi(cfg.background_loi);
  for (std::size_t t = 0; t < cfg_.background_loi_per_tier.size() && t < links_.size(); ++t) {
    if (links_[t]) links_[t]->set_background_loi(cfg_.background_loi_per_tier[t]);
  }
  apply_loi_schedule(0);
}

void Engine::apply_loi_schedule(std::uint64_t epoch) {
  if (cfg_.loi_schedule.empty()) return;
  // A schedule entry beyond the topology would otherwise be silently
  // ignored — a run that "handled the burst" because the burst never
  // happened.
  expects(cfg_.loi_schedule.per_tier.size() <= links_.size(),
          "LoI schedule targets a tier beyond the topology");
  for (std::size_t t = 0; t < links_.size(); ++t) {
    const auto* wave = cfg_.loi_schedule.waveform(static_cast<memsim::TierId>(t));
    if (!wave) continue;
    expects(links_[t].has_value(), "LoI schedule targets a tier without a link");
    links_[t]->set_background_loi(wave->value_at(epoch));
  }
}

const memsim::LinkModel& Engine::link() const {
  return link(cfg_.machine.topology.first_fabric());
}

const memsim::LinkModel& Engine::link(memsim::TierId t) const {
  expects(t >= 0 && t < static_cast<int>(links_.size()), "tier id out of range");
  const auto& l = links_[static_cast<std::size_t>(t)];
  expects(l.has_value(), "tier has no fabric link");
  return *l;
}

void Engine::set_background_loi(double loi_percent) {
  for (auto& l : links_)
    if (l) l->set_background_loi(loi_percent);
}

void Engine::set_background_loi(memsim::TierId t, double loi_percent) {
  expects(t >= 0 && t < static_cast<int>(links_.size()), "tier id out of range");
  auto& l = links_[static_cast<std::size_t>(t)];
  expects(l.has_value(), "tier has no fabric link");
  l->set_background_loi(loi_percent);
}

double Engine::background_loi(memsim::TierId t) const { return link(t).background_loi(); }

void Engine::charge_migration_seconds(double seconds) {
  expects(seconds >= 0.0, "migration time cannot be negative");
  pending_migration_s_ += seconds;
}

void Engine::charge_migration_bytes(memsim::TierId seg, std::uint64_t bytes) {
  expects(seg >= 0 && seg < static_cast<int>(links_.size()), "tier id out of range");
  expects(links_[static_cast<std::size_t>(seg)].has_value(), "tier has no fabric link");
  pending_migration_bytes_[static_cast<std::size_t>(seg)] += bytes;
}

const memsim::QueueModel& Engine::queue(memsim::TierId t) const {
  expects(t >= 0 && t < static_cast<int>(queues_.size()), "tier id out of range");
  const auto& q = queues_[static_cast<std::size_t>(t)];
  expects(q.has_value(), "tier has no link queue (kLoi model or local tier)");
  return *q;
}

double Engine::effective_loi(memsim::TierId t, memsim::TrafficClass cls) const {
  if (cfg_.link_model != memsim::LinkModelKind::kQueue) return background_loi(t);
  const memsim::QueueModel& q = queue(t);
  return q.effective_loi(cls, background_loi(t), q.cross_rate_gbps(cls));
}

memsim::VRange Engine::alloc(std::uint64_t bytes, memsim::MemPolicy policy, std::string name) {
  // The trace records the *caller's* policy: replay passes it back through
  // alloc(), where the replaying engine's own override applies — so one
  // trace serves every policy grid point.
  const memsim::MemPolicy caller_policy = trace_sink_ ? policy : memsim::MemPolicy{};
  // numactl-style override: default-policy allocations follow the system
  // policy override; explicit bindings keep their policy.
  if (policy.kind == memsim::PlacementKind::kFirstTouch && cfg_.default_policy_override) {
    policy = *cfg_.default_policy_override;
  }
  const memsim::VRange range = memory_.alloc(bytes, std::move(policy));
  alloc_index_.emplace(range.base, allocations_.size());
  allocations_.push_back(AllocationInfo{std::move(name), range, false});
  if (trace_sink_)
    trace_sink_->on_alloc(bytes, caller_policy, allocations_.back().name, range.base);
  return range;
}

void Engine::free(const memsim::VRange& range) {
  if (trace_sink_) trace_sink_->on_free(range.base);
  memory_.free(range);
  const auto it = alloc_index_.find(range.base);
  if (it != alloc_index_.end()) allocations_[it->second].freed = true;
}

// ---- bulk access streams ----------------------------------------------------
// Every public bulk call validates its arguments, fires its own trace hook
// once, and hands the element loop it documents to the one batching kernel
// (stream_lanes) as 1–2 lanes.

void Engine::range_call(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                        std::uint32_t elem) {
  expects(bytes > 0, "range of zero bytes");
  expects(elem > 0, "range with zero element size");
  expects(bytes % elem == 0, "range must hold whole elements");
  if (trace_sink_) trace_sink_->on_range(kind, addr, bytes, elem);
  using Op = StreamLane::Op;
  // kind 0 load, 1 store, 2 rmw: one lane; 3 store_load: a store lane then
  // a load lane on the same address.
  constexpr Op kFirst[] = {Op::kLoad, Op::kStore, Op::kRmw, Op::kStore};
  const StreamLane lanes[] = {{addr, elem, elem, kFirst[kind]}, {addr, elem, elem, Op::kLoad}};
  stream_lanes(lanes, kind == 3 ? 2 : 1, bytes / elem);
}

void Engine::load_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  range_call(0, addr, bytes, elem_bytes);
}
void Engine::store_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  range_call(1, addr, bytes, elem_bytes);
}
void Engine::rmw_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  range_call(2, addr, bytes, elem_bytes);
}
void Engine::store_load_range(std::uint64_t addr, std::uint64_t bytes,
                              std::uint32_t elem_bytes) {
  range_call(3, addr, bytes, elem_bytes);
}

void Engine::strided_call(bool is_store, std::uint64_t addr, std::uint64_t count,
                          std::uint64_t stride, std::uint32_t elem) {
  expects(count > 0, "strided range of zero elements");
  expects(elem > 0, "strided range with zero element size");
  expects(stride > 0, "strided range with zero stride");
  if (trace_sink_) trace_sink_->on_strided(is_store, addr, count, stride, elem);
  const StreamLane::Op op = is_store ? StreamLane::Op::kStore : StreamLane::Op::kLoad;
  const StreamLane lane{addr, stride, elem, op};
  stream_lanes(&lane, 1, count);
}

void Engine::load_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                          std::uint32_t elem_bytes) {
  strided_call(false, addr, count, stride_bytes, elem_bytes);
}
void Engine::store_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                           std::uint32_t elem_bytes) {
  strided_call(true, addr, count, stride_bytes, elem_bytes);
}

void Engine::pair_call(bool is_store, std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                       std::uint32_t elem_b, std::uint64_t count) {
  expects(count > 0, "paired range of zero elements");
  expects(elem_a > 0 && elem_b > 0, "paired range with zero element size");
  if (trace_sink_) trace_sink_->on_pair(is_store, a, elem_a, b, elem_b, count);
  const StreamLane::Op op = is_store ? StreamLane::Op::kStore : StreamLane::Op::kLoad;
  const StreamLane lanes[] = {{a, elem_a, elem_a, op}, {b, elem_b, elem_b, op}};
  stream_lanes(lanes, 2, count);
}

void Engine::load_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                             std::uint32_t elem_b, std::uint64_t count) {
  pair_call(false, a, elem_a, b, elem_b, count);
}
void Engine::store_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                              std::uint32_t elem_b, std::uint64_t count) {
  pair_call(true, a, elem_a, b, elem_b, count);
}

void Engine::stream_range(const StreamLane* lanes, std::size_t num_lanes,
                          std::uint64_t count) {
  expects(num_lanes > 0, "stream_range without lanes");
  expects(count > 0, "stream_range of zero iterations");
  for (std::size_t i = 0; i < num_lanes; ++i)
    expects(lanes[i].op == StreamLane::Op::kFlops ||
                (lanes[i].elem > 0 && lanes[i].stride > 0),
            "stream lane with zero element size or stride");
  if (trace_sink_) trace_sink_->on_stream(lanes, num_lanes, count);
  stream_lanes(lanes, num_lanes, count);
}

void Engine::stream_lanes(const StreamLane* lanes, std::size_t num_lanes,
                          std::uint64_t count) {
  // The reference emission: one iteration of the documented element loop.
  // access_span, not load()/store(): the public call already fired the
  // trace sink once; its decomposition must not record again.
  const auto emit_iter = [&](std::uint64_t k) {
    for (std::size_t i = 0; i < num_lanes; ++i) {
      const StreamLane& ln = lanes[i];
      const std::uint64_t a = ln.base + k * ln.stride;
      switch (ln.op) {
        case StreamLane::Op::kLoad:
          access_span(a, ln.elem, false);
          break;
        case StreamLane::Op::kStore:
          access_span(a, ln.elem, true);
          break;
        case StreamLane::Op::kRmw:
          access_span(a, ln.elem, false);
          access_span(a, ln.elem, true);
          break;
        case StreamLane::Op::kFlops:
          pending_flops_ += ln.base;
          break;
      }
    }
  };
  constexpr std::size_t kMaxLanes = 16;
  bool fast = cfg_.bulk_fast_path && num_lanes <= kMaxLanes;
  for (std::size_t i = 0; fast && i < num_lanes; ++i) {
    const StreamLane& ln = lanes[i];
    if (ln.op == StreamLane::Op::kFlops) continue;  // no address constraints
    // Line-contained, element-aligned lanes only: an element that could
    // straddle a cacheline runs the reference emission. The line size is a
    // power of two, so the element size divides it iff it is one too.
    const std::uint64_t elem_mask = ln.elem - 1;
    if (ln.elem > line_bytes_ || (ln.elem & elem_mask) != 0 ||
        ((ln.base | ln.stride) & elem_mask) != 0)
      fast = false;
  }
  if (!fast) {
    for (std::uint64_t k = 0; k < count; ++k) emit_iter(k);
    return;
  }

  // Per-iteration totals, and the batch state of each access lane (flops
  // lanes perform no access and never touch the LRU clock — batching their
  // flops is exact because pending flops are only read at epoch close, and
  // a window never crosses one: total < room below).
  struct AccessLane {
    std::uint64_t base;
    std::uint64_t stride;
    std::uint32_t stride_shift;  ///< log2(stride) when a power of two, else 64
    std::uint64_t line;  ///< current line (valid once end > 0)
    std::uint64_t end;   ///< iteration at which the lane leaves `line`; 0: unresolved
    std::size_t handle;  ///< L1 handle of `line` (valid while handles_valid)
    std::uint32_t last_access;  ///< 1-based position of its final access in an iteration
    bool dirties;               ///< any store (an rmw lane's store is its last access)
  };
  AccessLane al[kMaxLanes];
  std::size_t num_al = 0;
  std::uint32_t accesses_per_iter = 0;
  std::uint64_t loads_per_iter = 0;
  std::uint64_t stores_per_iter = 0;
  std::uint64_t flops_per_iter = 0;
  for (std::size_t i = 0; i < num_lanes; ++i) {
    const StreamLane& ln = lanes[i];
    if (ln.op == StreamLane::Op::kFlops) {
      flops_per_iter += ln.base;
      continue;
    }
    const bool loads = ln.op != StreamLane::Op::kStore;
    const bool stores = ln.op != StreamLane::Op::kLoad;
    loads_per_iter += loads;
    stores_per_iter += stores;
    accesses_per_iter += loads + stores;
    const std::uint32_t shift =
        std::has_single_bit(ln.stride) ? static_cast<std::uint32_t>(std::countr_zero(ln.stride))
                                       : 64;
    al[num_al++] = AccessLane{ln.base, ln.stride, shift, 0, 0, 0, accesses_per_iter, stores};
  }

  // Lanes that entered a new line this window (or all lanes after a fill),
  // gathered so their probes resolve in one batched pass over the L1 tag
  // planes (the vectorized scans issue back-to-back). Other lanes keep
  // their handle: the previous window ran the fast path, so no fill has
  // moved anything.
  std::uint64_t probe_line[kMaxLanes];
  std::uint32_t probe_lane[kMaxLanes];
  std::size_t probe_handle[kMaxLanes];
  bool handles_valid = false;  // false → re-resolve every lane (post-fill)
  BulkAcc acc;
  std::uint64_t k = 0;
  while (k < count) {
    // Window: iterations every lane spends inside its current cacheline.
    std::uint64_t n = count - k;
    std::size_t num_probes = 0;
    for (std::size_t j = 0; j < num_al; ++j) {
      AccessLane& l = al[j];
      const bool new_line = k >= l.end;
      if (new_line) {
        const std::uint64_t addr = l.base + k * l.stride;
        l.line = addr & ~line_mask_;
        // Iterations left in the line: the bytes after addr in it, over the
        // stride (a shift for the usual power-of-two strides).
        const std::uint64_t rest = l.line + line_bytes_ - 1 - addr;
        l.end = k + 1 + (l.stride_shift < 64 ? rest >> l.stride_shift : rest / l.stride);
      }
      n = std::min(n, l.end - k);
      if (new_line || !handles_valid) {
        probe_line[num_probes] = l.line;
        probe_lane[num_probes] = static_cast<std::uint32_t>(j);
        ++num_probes;
      }
    }
    // Only freshly probed lanes can miss: unchanged handles come from a
    // window that already ran the all-hit fast path.
    bool any_miss = false;
    if (num_probes > 0) {
      hierarchy_.l1_index_of_batch(probe_line, num_probes, probe_handle);
      for (std::size_t p = 0; p < num_probes; ++p) {
        al[probe_lane[p]].handle = probe_handle[p];
        any_miss = any_miss || probe_handle[p] == cachesim::CacheHierarchy::l1_npos;
      }
    }
    const std::uint64_t total = n * accesses_per_iter;
    const std::uint64_t room = cfg_.epoch_accesses - epoch_demand_accesses_;
    if (any_miss || total >= room) {
      // A lane's line is not resident (the element-wise path performs the
      // fill) or the epoch boundary falls inside the window (the element-
      // wise path closes it at the precise access). One exact iteration,
      // then re-resolve: fills may have evicted or moved any lane's line.
      flush_bulk(acc);
      emit_iter(k);
      ++k;
      handles_valid = false;
      continue;
    }
    // Every access in the window is an L1 hit: apply each lane's net batch
    // effect — its line carries the tick of the lane's final access in the
    // window's last iteration. Applying in lane order makes the latest lane
    // win on shared lines, exactly like the element-wise sequence.
    const std::uint64_t t_before = hierarchy_.l1_advance_tick(total) - accesses_per_iter;
    for (std::size_t j = 0; j < num_al; ++j)
      hierarchy_.l1_touch_at(al[j].handle, al[j].dirties, t_before + al[j].last_access);
    acc.loads += n * loads_per_iter;
    acc.stores += n * stores_per_iter;
    pending_flops_ += n * flops_per_iter;
    epoch_demand_accesses_ += total;
    handles_valid = true;
    k += n;
  }
  flush_bulk(acc);
}

// ---- phases & epochs --------------------------------------------------------

void Engine::pf_start(std::string tag) {
  expects(current_phase_.empty(), "nested pf_start without pf_stop");
  if (trace_sink_) trace_sink_->on_phase(true, tag);
  close_epoch();
  current_phase_ = std::move(tag);
  phase_base_ = hierarchy_.counters();
  phase_flops_base_ = total_flops_ + pending_flops_;
  phase_time_base_ = elapsed_s_;
  phase_epoch_base_ = epochs_.size();
}

void Engine::pf_stop() {
  expects(!current_phase_.empty(), "pf_stop without pf_start");
  if (trace_sink_) trace_sink_->on_phase(false, current_phase_);
  close_epoch();
  PhaseRecord rec;
  rec.tag = current_phase_;
  rec.time_s = elapsed_s_ - phase_time_base_;
  rec.flops = total_flops_ - phase_flops_base_;
  rec.counters = hierarchy_.counters().delta_since(phase_base_);
  rec.epoch_begin = phase_epoch_base_;
  rec.epoch_end = epochs_.size();
  phases_.push_back(std::move(rec));
  current_phase_.clear();
}

EpochPricing price_epoch(const memsim::MachineConfig& m, memsim::LinkModelKind link_model,
                         double stall_weight, std::uint64_t flops,
                         const std::vector<std::uint64_t>& tier_bytes,
                         const std::vector<std::uint64_t>& tier_demand,
                         const std::vector<std::uint64_t>& migration_bytes,
                         double migration_s,
                         const std::vector<std::optional<memsim::LinkModel>>& links,
                         const std::vector<std::optional<memsim::QueueModel>>& queues) {
  const int n = m.num_tiers();
  const bool queue_mode = link_model == memsim::LinkModelKind::kQueue;
  using memsim::TrafficClass;
  const auto link_at = [&links](memsim::TierId t) -> const memsim::LinkModel& {
    return *links[static_cast<std::size_t>(t)];
  };

  // Throughput-bound terms: the epoch is as long as its most-loaded lane —
  // compute, or any single tier's byte stream at that tier's effective
  // bandwidth (fabric tiers are additionally clipped by their link). Under
  // the queue model the demand stream's bandwidth share is further reduced
  // by the bulk class's *windowed* traffic estimate (prior epochs — this
  // epoch's own burst cannot shrink t_base without a circular dependency;
  // it feeds the latency pass below instead).
  const double t_flop = static_cast<double>(flops) / (m.peak_gflops * 1e9);
  double t_base = t_flop;
  for (memsim::TierId t = 0; t < n; ++t) {
    const auto bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
    const auto& spec = m.tier(t);
    double bw_link = spec.bandwidth_gbps;
    if (spec.is_fabric()) {
      bw_link = queue_mode
                    ? queues[static_cast<std::size_t>(t)]->effective_data_bandwidth_gbps(
                          TrafficClass::kDemand, link_at(t).background_loi(),
                          queues[static_cast<std::size_t>(t)]->cross_rate_gbps(
                              TrafficClass::kDemand))
                    : link_at(t).effective_data_bandwidth_gbps(0.0);
    }
    const double bw_eff =
        spec.is_fabric() ? std::min(bw_link, spec.bandwidth_gbps) : spec.bandwidth_gbps;
    t_base = std::max(t_base, bytes / gbps_to_bytes_per_sec(bw_eff));
  }

  // Latency-bound term: only *demand* misses stall the cores; each fabric
  // tier's own offered rate feeds its link queueing model (two-pass fixed
  // point per link). Under the queue model the demand class additionally
  // sees the bulk class's traffic — the windowed estimate plus the bulk
  // bytes charged into this very epoch (at rate bytes/t_base, the same
  // proxy the demand rate uses), so a migration burst inflates the demand
  // latency of the epoch it lands in, not just the following window.
  const double overlap = m.mlp * static_cast<double>(m.threads);
  double stall_sum = 0.0;
  std::vector<double> demand_mult(static_cast<std::size_t>(n), 1.0);
  std::vector<double> demand_infl(static_cast<std::size_t>(n), 1.0);
  for (memsim::TierId t = 0; t < n; ++t) {
    const auto& spec = m.tier(t);
    double lat_s;
    if (spec.is_fabric()) {
      const auto bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
      const double est_rate_gbps =
          t_base > 0 ? bytes_per_sec_to_gbps(bytes / t_base) : 0.0;
      if (queue_mode) {
        const auto& q = *queues[static_cast<std::size_t>(t)];
        const double cross_gbps = q.estimated_rate_gbps(
            TrafficClass::kBulk,
            static_cast<double>(migration_bytes[static_cast<std::size_t>(t)]), t_base);
        lat_s = ns_to_s(q.effective_latency_ns(TrafficClass::kDemand,
                                               link_at(t).background_loi(), est_rate_gbps,
                                               cross_gbps));
        demand_mult[static_cast<std::size_t>(t)] =
            q.latency_multiplier(TrafficClass::kDemand, link_at(t).background_loi(),
                                 est_rate_gbps, cross_gbps);
        // Same epoch, same demand load, bulk cross-traffic removed: the
        // denominator of the inflation trace.
        const double solo_mult = q.latency_multiplier(
            TrafficClass::kDemand, link_at(t).background_loi(), est_rate_gbps, 0.0);
        if (solo_mult > 0)
          demand_infl[static_cast<std::size_t>(t)] =
              demand_mult[static_cast<std::size_t>(t)] / solo_mult;
      } else {
        lat_s = ns_to_s(link_at(t).effective_latency_ns(est_rate_gbps));
        demand_mult[static_cast<std::size_t>(t)] =
            link_at(t).latency_multiplier(est_rate_gbps);
      }
    } else {
      lat_s = ns_to_s(spec.latency_ns);
    }
    stall_sum += static_cast<double>(tier_demand[static_cast<std::size_t>(t)]) * lat_s;
  }
  const double t_stall = stall_weight * stall_sum / overlap;

  EpochPricing p;
  const double duration = t_base + t_stall + migration_s;
  p.duration_s = duration;

  // Link measurements: PCM-style measured traffic summed over links; the
  // utilization of the busiest link (what an operator would alarm on).
  // Under the queue model the gauges see the bulk bytes too — migration
  // traffic is real link traffic to an operator's counters.
  double traffic = 0.0;
  double util = 0.0;
  for (memsim::TierId t = 0; t < n; ++t) {
    if (!m.tier(t).is_fabric()) continue;
    double bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
    if (queue_mode)
      bytes += static_cast<double>(migration_bytes[static_cast<std::size_t>(t)]);
    const double app_rate_gbps =
        duration > 0 ? bytes_per_sec_to_gbps(bytes / duration) : 0.0;
    traffic += link_at(t).measured_traffic_gbps(app_rate_gbps);
    util = std::max(util, link_at(t).offered_utilization(app_rate_gbps));
  }
  p.link_traffic_gbps = traffic;
  p.link_utilization = util;
  p.link_loi.resize(static_cast<std::size_t>(n), 0.0);
  for (memsim::TierId t = 0; t < n; ++t)
    if (links[static_cast<std::size_t>(t)])
      p.link_loi[static_cast<std::size_t>(t)] =
          links[static_cast<std::size_t>(t)]->background_loi();
  p.link_demand_mult = std::move(demand_mult);
  p.link_demand_inflation = std::move(demand_infl);
  return p;
}

void Engine::close_epoch() {
  const cachesim::HwCounters now = hierarchy_.counters();
  const cachesim::HwCounters d = now.delta_since(epoch_base_);
  const std::uint64_t flops_now = pending_flops_;
  if (d.accesses() == 0 && flops_now == 0 && pending_migration_s_ == 0.0) {
    epoch_demand_accesses_ = 0;
    return;  // nothing happened since the last close
  }

  const auto& m = cfg_.machine;
  const int n = m.num_tiers();
  const bool queue_mode = cfg_.link_model == memsim::LinkModelKind::kQueue;
  using memsim::TrafficClass;

  // Functional inputs: this epoch's per-tier byte/demand-miss deltas. The
  // timing side — everything the links' current state decides — lives in
  // price_epoch, shared with the epoch-profile repricer.
  std::vector<std::uint64_t> tier_bytes(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> tier_demand(static_cast<std::size_t>(n));
  for (memsim::TierId t = 0; t < n; ++t) {
    tier_bytes[static_cast<std::size_t>(t)] = d.dram_bytes(t);
    tier_demand[static_cast<std::size_t>(t)] = d.demand_dram[static_cast<std::size_t>(t)];
  }

  // Migration transfer time charged by the planner since the last close
  // serializes with the epoch's demand traffic (move_pages stalls the
  // touching thread). Zero when no migration runtime is attached, keeping
  // two-tier golden artifacts bit-identical.
  const double t_migrate = pending_migration_s_;
  pending_migration_s_ = 0.0;
  migration_s_total_ += t_migrate;

  EpochPricing pricing =
      price_epoch(m, cfg_.link_model, cfg_.stall_weight, flops_now, tier_bytes,
                  tier_demand, pending_migration_bytes_, t_migrate, links_, queues_);
  const double duration = pricing.duration_s;

  EpochRecord rec;
  rec.start_s = elapsed_s_;
  rec.duration_s = duration;
  rec.phase = current_phase_;
  rec.flops = flops_now;
  rec.migration_s = t_migrate;
  rec.tier_bytes = std::move(tier_bytes);
  rec.tier_demand = std::move(tier_demand);
  rec.l2_lines_in = d.l2_lines_in;
  rec.link_traffic_gbps = pricing.link_traffic_gbps;
  rec.link_utilization = pricing.link_utilization;
  rec.link_loi = std::move(pricing.link_loi);
  rec.link_demand_mult = std::move(pricing.link_demand_mult);
  rec.link_demand_inflation = std::move(pricing.link_demand_inflation);
  rec.migration_bytes = pending_migration_bytes_;
  const memsim::NumaSnapshot snap = memory_.snapshot();
  rec.resident_bytes = snap.resident_bytes;
  // Fold this epoch's per-class traffic into the windowed estimators, then
  // clear the bulk accumulators for the next epoch's charges.
  if (queue_mode) {
    for (memsim::TierId t = 0; t < n; ++t) {
      auto& q = queues_[static_cast<std::size_t>(t)];
      if (!q) continue;
      q->observe(TrafficClass::kDemand, static_cast<double>(d.dram_bytes(t)), duration);
      q->observe(TrafficClass::kBulk,
                 static_cast<double>(pending_migration_bytes_[static_cast<std::size_t>(t)]),
                 duration);
    }
  }
  std::fill(pending_migration_bytes_.begin(), pending_migration_bytes_.end(), 0);
  epochs_.push_back(std::move(rec));

  elapsed_s_ += duration;
  total_flops_ += flops_now;
  peak_rss_ = std::max(peak_rss_, snap.total());
  pending_flops_ = 0;
  epoch_demand_accesses_ = 0;
  epoch_base_ = now;
  // The schedule steps *before* the epoch callback fires, so runtime
  // services (the migration planner) price the upcoming epoch against the
  // link state it will actually run under.
  apply_loi_schedule(epochs_.size());
  if (epoch_cb_) epoch_cb_(*this);
}

void Engine::finish() {
  expects(!finished_, "finish called twice");
  expects(current_phase_.empty(), "finish inside an open phase");
  close_epoch();
  hierarchy_.drain();
  // Writeback traffic from the drain is charged to a final epoch.
  close_epoch();
  finished_ = true;
}

}  // namespace memdis::sim
