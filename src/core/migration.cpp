#include "core/migration.h"

#include <algorithm>
#include <vector>

#include "common/units.h"

namespace memdis::core {

namespace {

/// A hot off-node page with its priced candidate moves (value-descending).
struct Candidate {
  std::uint64_t page = 0;
  std::uint64_t heat = 0;
  memsim::TierId tier = 0;
  std::vector<MovePlan> plans;
};

/// A node-resident page, demotion-victim ordering (coldest first).
struct Resident {
  std::uint64_t page = 0;
  std::uint64_t heat = 0;
};

}  // namespace

void MigrationRuntime::attach(sim::Engine& eng) {
  eng.set_epoch_callback([this](sim::Engine& e) { on_epoch(e); });
}

void MigrationRuntime::on_epoch(sim::Engine& eng) {
  if (++epoch_count_ % cfg_.period_epochs != 0) return;
  ++scans_;

  auto& mem = eng.memory();
  const std::uint64_t page_bytes = mem.page_bytes();
  const auto& hist = eng.page_access_histogram();
  const auto& machine = eng.config().machine;
  const int n = machine.num_tiers();

  // Live per-link LoI: the links' actual state this scan — under a
  // time-varying schedule the engine has already stepped the waveforms to
  // the upcoming epoch, so this is the state the next epoch runs under.
  // Under the queue model "live" means the *effective* LoI the bulk class
  // experiences (background plus the demand class's windowed traffic): the
  // planner prices moves against predicted queue delay, not the static dial.
  const bool queue_mode =
      eng.config().link_model == memsim::LinkModelKind::kQueue;
  std::vector<double> live_loi(static_cast<std::size_t>(n), 0.0);
  for (memsim::TierId t = 0; t < n; ++t)
    if (machine.topology.is_fabric(t))
      live_loi[static_cast<std::size_t>(t)] =
          queue_mode ? eng.effective_loi(t, memsim::TrafficClass::kBulk)
                     : eng.background_loi(t);
  scan_loi_log_.push_back(live_loi);

  // The planner prices moves (and scales segment budgets) against its
  // *belief*: the live links, or — when assumed_loi is set — a fixed
  // static vector, modeling a planner provisioned with time-averaged QoS
  // information under a bursty fabric. The machine is fixed for the run,
  // so models are rebuilt only when their LoI vector changes.
  std::vector<double> plan_loi = cfg_.assumed_loi.empty() ? live_loi : cfg_.assumed_loi;
  plan_loi.resize(static_cast<std::size_t>(n), 0.0);
  for (memsim::TierId t = 0; t < n; ++t)
    if (!machine.topology.is_fabric(t)) plan_loi[static_cast<std::size_t>(t)] = 0.0;
  if (!model_ || plan_loi != model_loi_) {
    model_.emplace(machine, plan_loi);
    model_loi_ = plan_loi;
  }
  const MigrationCostModel& model = *model_;
  // Executed moves are charged at the links' *true* state, whatever the
  // planner believed — a mispriced static plan pays the congestion it
  // ignored. With live pricing the belief is the truth.
  if (!cfg_.assumed_loi.empty() && (!truth_model_ || live_loi != truth_loi_)) {
    truth_model_.emplace(machine, live_loi);
    truth_loi_ = live_loi;
  }
  const MigrationCostModel& truth = cfg_.assumed_loi.empty() ? model : *truth_model_;

  // Under a time-varying schedule a live-priced planner integrates tier
  // latencies over the residency horizon: a tier that is cheap this epoch
  // but bursts within the horizon is priced at what the page will actually
  // pay. Belief-limited (assumed_loi) planners see only their static
  // vector.
  const auto& schedule = eng.config().loi_schedule;
  const bool scheduled = cfg_.assumed_loi.empty() && !schedule.empty();
  const std::uint64_t now_epoch = eng.epoch_index();

  // Under the queue model the *benefit* side of a plan is what the demand
  // class will pay — its effective LoI includes the bulk class's traffic,
  // not the demand class's own. A separate cached model prices tier access
  // latencies at that view while `model` keeps pricing transfer costs at
  // the bulk view.
  const bool demand_view = queue_mode && cfg_.assumed_loi.empty();
  if (demand_view) {
    std::vector<double> demand_loi(static_cast<std::size_t>(n), 0.0);
    for (memsim::TierId t = 0; t < n; ++t)
      if (machine.topology.is_fabric(t))
        demand_loi[static_cast<std::size_t>(t)] =
            eng.effective_loi(t, memsim::TrafficClass::kDemand);
    if (!demand_model_ || demand_loi != demand_loi_) {
      demand_model_.emplace(machine, demand_loi);
      demand_loi_ = std::move(demand_loi);
    }
  }
  const MigrationCostModel& lat_model = demand_view ? *demand_model_ : model;

  std::vector<double> tier_lat(static_cast<std::size_t>(n));
  for (memsim::TierId t = 0; t < n; ++t)
    tier_lat[static_cast<std::size_t>(t)] =
        scheduled
            ? model.scheduled_access_latency_s(t, schedule, now_epoch, kPlanHorizonEpochs)
            : lat_model.access_latency_s(t);

  // Heat is collected per scan window, so the amortization horizon is
  // expressed in scan windows too.
  const std::uint64_t horizon_scans = std::max<std::uint64_t>(
      1, kPlanHorizonEpochs / std::max<std::uint64_t>(1, cfg_.period_epochs));
  // Every plan prices its benefit at tier_lat (the live, demand-view or
  // horizon-averaged latency of each tier), computed once per scan.
  const auto make_plan = [&](memsim::TierId src, memsim::TierId dst, std::uint64_t heat) {
    return model.plan(src, dst, heat, horizon_scans, sim::kPageSamplePeriod,
                      tier_lat[static_cast<std::size_t>(src)],
                      tier_lat[static_cast<std::size_t>(dst)]);
  };

  // Recent heat = histogram delta since the last scan. Every resident page
  // is a potential demotion victim on its tier; off-node pages above the
  // heat threshold are promotion candidates.
  std::vector<Candidate> hot;
  std::vector<std::vector<Resident>> residents(static_cast<std::size_t>(n));
  for (const auto& [page, count] : hist) {
    const auto it = last_hist_.find(page);
    const std::uint64_t heat = count - (it == last_hist_.end() ? 0 : it->second);
    const std::uint64_t addr = page * page_bytes;
    if (!mem.resident(addr)) continue;
    const memsim::TierId tier = mem.tier_of(addr);
    if (tier != memsim::kNodeTier && heat >= cfg_.min_heat)
      hot.push_back({page, heat, tier, {}});
    residents[static_cast<std::size_t>(tier)].push_back({page, heat});
  }
  last_hist_ = hist;
  if (hot.empty()) return;

  // Candidate destinations per page: every tier the cost model rates
  // strictly faster to access, with positive net value. Without staging
  // only the node tier qualifies (the pre-cost-model policy).
  for (auto& cand : hot) {
    for (memsim::TierId dst = 0; dst < n; ++dst) {
      if (dst == cand.tier) continue;
      if (!cfg_.allow_staging && dst != memsim::kNodeTier) continue;
      if (tier_lat[static_cast<std::size_t>(dst)] >=
          tier_lat[static_cast<std::size_t>(cand.tier)])
        continue;
      MovePlan plan = make_plan(cand.tier, dst, cand.heat);
      if (plan.value_s > 0) cand.plans.push_back(std::move(plan));
    }
    std::sort(cand.plans.begin(), cand.plans.end(),
              [](const MovePlan& a, const MovePlan& b) { return a.value_s > b.value_s; });
  }
  hot.erase(std::remove_if(hot.begin(), hot.end(),
                           [](const Candidate& c) { return c.plans.empty(); }),
            hot.end());
  if (hot.empty()) return;

  // Most valuable moves first; page number breaks ties deterministically.
  std::sort(hot.begin(), hot.end(), [](const Candidate& a, const Candidate& b) {
    if (a.plans.front().value_s != b.plans.front().value_s)
      return a.plans.front().value_s > b.plans.front().value_s;
    return a.page < b.page;
  });
  for (auto& tier_residents : residents) {
    std::sort(tier_residents.begin(), tier_residents.end(),
              [](const Resident& a, const Resident& b) {
                return a.heat != b.heat ? a.heat < b.heat : a.page < b.page;
              });
  }

  // Per-scan budgets: a global page budget plus one page budget per fabric
  // segment (migration traffic competes for each crossed link). Each
  // segment's budget is scaled by its link's effective bandwidth under the
  // current LoI — a loaded link affords proportionally fewer pages, which
  // is what diverts long-haul moves onto staged hops.
  std::uint64_t budget = cfg_.max_pages_per_scan;
  const std::uint64_t per_link =
      cfg_.link_budget_pages > 0 ? cfg_.link_budget_pages : cfg_.max_pages_per_scan;
  std::vector<std::uint64_t> seg_budget(static_cast<std::size_t>(n), per_link);
  for (memsim::TierId t = 0; t < n; ++t) {
    if (!machine.topology.is_fabric(t)) continue;
    // Under a schedule, budget against the horizon-averaged (sustained)
    // bandwidth: an instantaneous burst makes individual moves expensive
    // (pricing and deferral handle that) but does not shrink what the
    // link can carry over the scan horizon.
    const double bw =
        scheduled ? model.scheduled_link_bandwidth_gbps(t, schedule, now_epoch,
                                                        kPlanHorizonEpochs)
                  : model.effective_link_bandwidth_gbps(t);
    const double share = bw / model.raw_link_bandwidth_gbps(t);
    seg_budget[static_cast<std::size_t>(t)] = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(per_link) * share));
  }

  const auto segments_affordable = [&](const std::vector<memsim::TierId>& segs) {
    for (const memsim::TierId s : segs)
      if (seg_budget[static_cast<std::size_t>(s)] == 0) return false;
    return true;
  };
  // Affordability of `segs` while also reserving budget for `reserved` (a
  // demotion must not spend the segments its paired promotion still needs).
  const auto affordable_with_reserved = [&](const std::vector<memsim::TierId>& segs,
                                            const std::vector<memsim::TierId>& reserved) {
    for (const memsim::TierId s : segs) {
      std::uint64_t need = 1;
      for (const memsim::TierId r : reserved)
        if (r == s) ++need;
      if (seg_budget[static_cast<std::size_t>(s)] < need) return false;
    }
    return true;
  };
  const auto consume_segments = [&](const std::vector<memsim::TierId>& segs) {
    for (const memsim::TierId s : segs) {
      auto& left = seg_budget[static_cast<std::size_t>(s)];
      expects(left > 0, "segment budget overspent");
      --left;
    }
  };
  // Bulk bytes this scan has already committed per fabric segment — the
  // self-traffic term of the queue model's self-congestion deferral, and
  // the byte stream that feeds each link's bulk class in the engine.
  std::vector<std::uint64_t> self_bytes(static_cast<std::size_t>(n), 0);
  const auto charge = [&](const MovePlan& plan) {
    const double true_cost =
        &truth == &model ? plan.cost_s : truth.move_cost_s(plan.src, plan.dst);
    transfer_cost_s_ += true_cost;
    eng.charge_migration_seconds(true_cost);
    for (const memsim::TierId s : plan.segments) {
      eng.charge_migration_bytes(s, page_bytes);
      self_bytes[static_cast<std::size_t>(s)] += page_bytes;
    }
    return true_cost;
  };

  // Congestion-burst arbitrage: under a time-varying schedule, evaluate a
  // plan's path cost at each epoch of the lookahead window and defer when
  // a later epoch beats acting now — net of the benefit epochs lost while
  // waiting. A belief-limited (assumed_loi) planner cannot defer: it does
  // not know the schedule.
  std::vector<std::pair<std::vector<double>, MigrationCostModel>> future_models;
  const auto future_cost = [&](const std::vector<double>& loi_vec, memsim::TierId src,
                               memsim::TierId dst) {
    for (const auto& [key, cached] : future_models)
      if (key == loi_vec) return cached.move_cost_s(src, dst);
    future_models.emplace_back(loi_vec, MigrationCostModel(machine, loi_vec));
    return future_models.back().second.move_cost_s(src, dst);
  };
  const auto defer_pays = [&](const MovePlan& plan) {
    if (!scheduled) return false;
    const std::uint64_t period = std::max<std::uint64_t>(1, cfg_.period_epochs);
    double best = plan.value_s;
    bool defer = false;
    std::vector<double> loi_vec = live_loi;
    // Only epochs where a scan will actually fire are reachable execution
    // times — pricing in-between epochs would defer toward moments the
    // planner can never act at (and, when the wave aligns with the scan
    // cadence, starve the move forever chasing them).
    for (std::uint64_t scans_ahead = 1; scans_ahead * period <= kPlanHorizonEpochs;
         ++scans_ahead) {
      // Waiting forfeits the benefit of the scan windows skipped.
      if (scans_ahead >= horizon_scans) break;
      const std::uint64_t d = scans_ahead * period;
      for (memsim::TierId t = 0; t < n; ++t) {
        const auto* wave = schedule.waveform(t);
        if (wave) loi_vec[static_cast<std::size_t>(t)] = wave->value_at(now_epoch + d);
      }
      const double value_d =
          static_cast<double>(horizon_scans - scans_ahead) * plan.benefit_s_per_epoch -
          future_cost(loi_vec, plan.src, plan.dst);
      if (value_d > best) {
        best = value_d;
        defer = true;
      }
    }
    return defer;
  };

  // Self-congestion deferral (queue model): re-price a candidate with each
  // crossed segment's LoI inflated by the bulk bytes this scan has already
  // committed there — at the rate those bytes will cross during the next
  // epoch (last epoch's duration is the deterministic proxy). When the
  // inflated cost erases the plan's net value, the page waits a scan: the
  // burst sheds its low-value tail instead of delaying the app's demand
  // misses. Candidates are ranked value-descending, so the high-value head
  // of the burst still moves first.
  const double dt_proxy = eng.epochs().empty() ? 0.0 : eng.epochs().back().duration_s;
  const bool can_self_defer =
      cfg_.defer_on_self_congestion && queue_mode && dt_proxy > 0.0;
  const auto self_defer_pays = [&](const MovePlan& plan) {
    if (!can_self_defer) return false;
    bool any = false;
    std::vector<double> loi_vec = plan_loi;
    for (const memsim::TierId s : plan.segments) {
      const std::uint64_t bytes = self_bytes[static_cast<std::size_t>(s)];
      if (bytes == 0) continue;
      any = true;
      const auto& link = *machine.tier(s).link;
      const double rate_gbps =
          bytes_per_sec_to_gbps(static_cast<double>(bytes) / dt_proxy);
      auto& loi = loi_vec[static_cast<std::size_t>(s)];
      loi = std::min(loi + 100.0 * rate_gbps * link.protocol_overhead /
                               link.traffic_capacity_gbps,
                     memsim::LinkModel::kMaxLoi);
    }
    if (!any) return false;
    const double inflated = future_cost(loi_vec, plan.src, plan.dst);
    return static_cast<double>(horizon_scans) * plan.benefit_s_per_epoch - inflated <= 0.0;
  };

  // Demotes the coldest page of `tier` colder than `ceiling` to the
  // cheapest other tier by the cost model (under asymmetric LoI this is
  // what keeps victims off the loaded link). Works for any destination a
  // promotion targets: making room on an *intermediate* tier swaps a cold
  // page down-chain, which is what lets a staged hop proceed when the tier
  // is full. Returns true when room was made.
  std::vector<std::size_t> victim_cursor(static_cast<std::size_t>(n), 0);
  const auto make_room_on = [&](memsim::TierId tier, std::uint64_t ceiling,
                                const std::vector<memsim::TierId>& reserved) {
    auto& list = residents[static_cast<std::size_t>(tier)];
    auto& cursor = victim_cursor[static_cast<std::size_t>(tier)];
    while (cursor < list.size()) {
      const Resident victim = list[cursor++];
      if (victim.heat >= ceiling) {
        // Never swap hotter for colder — but candidates are ranked by move
        // value, not heat, so a later candidate may carry a higher ceiling:
        // leave this victim for it.
        --cursor;
        return false;
      }
      const std::uint64_t vaddr = victim.page * page_bytes;
      if (!mem.resident(vaddr) || mem.tier_of(vaddr) != tier) continue;
      // Cheapest destination = the least-negative move value among tiers
      // with room and segment budget (keeping the paired promotion's
      // segments reserved).
      const MovePlan* best = nullptr;
      MovePlan scratch;
      for (memsim::TierId d = 0; d < n; ++d) {
        if (d == tier || mem.free_bytes(d) < page_bytes) continue;
        // A victim never moves to a faster tier — that slot belongs to the
        // hot candidate this eviction is making room for.
        if (tier_lat[static_cast<std::size_t>(d)] < tier_lat[static_cast<std::size_t>(tier)])
          continue;
        MovePlan plan = make_plan(tier, d, victim.heat);
        if (!affordable_with_reserved(plan.segments, reserved)) continue;
        if (best == nullptr || plan.value_s > best->value_s) {
          scratch = std::move(plan);
          best = &scratch;
        }
      }
      if (best == nullptr) {
        // No destination affordable under *this* candidate's reserved
        // segments; a later candidate with a different path may still be
        // able to demote this victim.
        --cursor;
        return false;
      }
      const memsim::VRange vrange{vaddr, page_bytes};
      if (mem.migrate(vrange, best->dst) != 1) continue;
      consume_segments(best->segments);
      const double charged = charge(*best);
      ++demoted_;
      plan_log_.push_back({scans_, victim.page, tier, best->dst, victim.heat, charged,
                           best->value_s, /*demotion=*/true, /*staged=*/false});
      return true;
    }
    return false;
  };

  for (const auto& cand : hot) {
    if (budget == 0) break;
    const std::uint64_t addr = cand.page * page_bytes;
    if (!mem.resident(addr) || mem.tier_of(addr) != cand.tier) continue;
    // Best plan whose segments still have budget; when the direct path's
    // segment budget is exhausted this falls through to the staged hop
    // (and vice versa — a full intermediate tier falls back to direct).
    for (const MovePlan& plan : cand.plans) {
      if (!segments_affordable(plan.segments)) continue;
      // A deferred plan stays put this scan; the next-ranked plan may
      // still act now (e.g. a staged hop across an idle segment while the
      // long-haul path waits out a burst).
      if (defer_pays(plan)) {
        ++deferred_;
        continue;
      }
      // A self-deferred plan likewise stays put this scan — the traffic
      // already scheduled on its path priced it out.
      if (self_defer_pays(plan)) {
        ++deferred_self_;
        continue;
      }
      if (mem.free_bytes(plan.dst) < page_bytes) {
        if (!make_room_on(plan.dst, cand.heat, plan.segments)) continue;
        if (!segments_affordable(plan.segments)) continue;
      }
      const memsim::VRange range{addr, page_bytes};
      if (mem.migrate(range, plan.dst) != 1) continue;
      consume_segments(plan.segments);
      const double charged = charge(plan);
      ++promoted_;
      --budget;
      if (plan.staged())
        ++staged_;
      else
        ++direct_;
      plan_log_.push_back({scans_, cand.page, cand.tier, plan.dst, cand.heat, charged,
                           plan.value_s, /*demotion=*/false, plan.staged()});
      break;
    }
  }
}

}  // namespace memdis::core
