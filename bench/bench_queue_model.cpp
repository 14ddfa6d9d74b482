// Queue-model bench: cost and effect of `--link-model queue`.
//
// Two kinds of numbers feed the committed BENCH_queue.json baseline
// (nightly gate via tools/bench_diff.py):
//
//  * deterministic simulated times — the same Hypre spill run under the
//    closed-form loi model, the queue model with an eager migration
//    planner, and the queue model with self-congestion deferral. These are
//    pure functions of the configuration, so regressions are real model
//    changes, not runner noise. The burst-epoch demand-latency inflation
//    and the self-deferred move count ride along as exact gates.
//  * wall-clock query throughput — latency_multiplier evaluations per
//    second through the QueueModel's effective-LoI indirection, the
//    per-epoch hot cost the queue mode adds over the closed form.
//
// Usage: bench_queue_model [--json PATH]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "core/sweep.h"
#include "memsim/machine.h"
#include "memsim/queue_model.h"
#include "workloads/workload.h"

namespace {

using memdis::core::MigrationConfig;
using memdis::core::MigrationRuntime;
using memdis::memsim::LinkModelKind;
using memdis::memsim::QueueModel;
using memdis::memsim::TrafficClass;

struct PlannedRun {
  double elapsed_ms = 0.0;
  double burst_inflation = 1.0;  ///< time-mean inflation over bulk epochs
  std::uint64_t self_deferred = 0;
};

/// One Hypre spill run on the three-tier chain with an attached planner,
/// under the given link model. Mirrors the ext-queue-contention scenario's
/// scan-8 setup so the bench tracks the same machinery the golden gates.
PlannedRun planned_run(LinkModelKind kind, bool defer) {
  auto wl = memdis::workloads::make_workload(memdis::workloads::App::kHypre, 1);
  memdis::sim::EngineConfig cfg;
  cfg.machine = memdis::core::machine_with_spill(
      memdis::core::machine_for_fabric("three-tier"), 0.5, wl->footprint_bytes());
  cfg.link_model = kind;
  cfg.epoch_accesses = 250'000;

  MigrationConfig mcfg;
  mcfg.period_epochs = 8;
  mcfg.max_pages_per_scan = 512;
  mcfg.link_budget_pages = 512;
  mcfg.min_heat = 1;
  mcfg.defer_on_self_congestion = defer;
  MigrationRuntime runtime(mcfg);
  const auto run = memdis::core::run_live(*wl, cfg, /*prefetch_enabled=*/true, &runtime);

  PlannedRun out;
  out.elapsed_ms = run.elapsed_s * 1e3;
  out.self_deferred = runtime.self_deferred_moves();
  double burst_s = 0.0, burst_infl_s = 0.0;
  for (const auto& e : run.epochs) {
    std::uint64_t bulk = 0;
    for (const auto b : e.migration_bytes) bulk += b;
    if (bulk == 0) continue;
    double infl = 1.0;
    for (const double m : e.link_demand_inflation) infl = std::max(infl, m);
    burst_s += e.duration_s;
    burst_infl_s += infl * e.duration_s;
  }
  if (burst_s > 0) out.burst_inflation = burst_infl_s / burst_s;
  return out;
}

/// Wall-clock throughput of the queue model's hot query: the demand-class
/// latency multiplier under varying cross traffic (the per-fabric-tier
/// work close_epoch adds in queue mode).
double query_rate_mps() {
  const auto m = memdis::memsim::MachineConfig::three_tier_cxl();
  QueueModel q(m.tier(m.topology.first_fabric()));
  for (std::size_t i = 0; i < q.window_epochs(); ++i)
    q.observe(TrafficClass::kBulk, 1e9, 1e-3);
  constexpr std::size_t kQueries = 2'000'000;
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double cross = static_cast<double>(i & 15);
    sink += q.latency_multiplier(TrafficClass::kDemand, 10.0,
                                 static_cast<double>(i & 7), cross);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  // Keep the loop observable.
  if (sink < 0) std::cerr << "";
  return static_cast<double>(kQueries) / wall / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using memdis::Table;
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[++i];

  memdis::bench::banner("Queue model",
                        "two-class link queues: simulated cost + query throughput");

  const PlannedRun loi = planned_run(LinkModelKind::kLoi, /*defer=*/false);
  const PlannedRun eager = planned_run(LinkModelKind::kQueue, /*defer=*/false);
  const PlannedRun deferred = planned_run(LinkModelKind::kQueue, /*defer=*/true);
  const double rate = query_rate_mps();

  Table t({"configuration", "sim time (ms)", "burst inflation", "self-deferred"});
  t.add_row({"loi closed form", Table::num(loi.elapsed_ms, 3), "-", "-"});
  t.add_row({"queue, eager", Table::num(eager.elapsed_ms, 3),
             Table::num(eager.burst_inflation, 3) + "x", "0"});
  t.add_row({"queue, deferred", Table::num(deferred.elapsed_ms, 3),
             Table::num(deferred.burst_inflation, 3) + "x",
             std::to_string(deferred.self_deferred)});
  t.print(std::cout);
  std::cout << "\nquery throughput: " << Table::num(rate, 2) << " Mqueries/s\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"queue_model\",\n"
       << "  \"loi_ms\": " << loi.elapsed_ms << ",\n"
       << "  \"eager_ms\": " << eager.elapsed_ms << ",\n"
       << "  \"deferred_ms\": " << deferred.elapsed_ms << ",\n"
       << "  \"eager_burst_inflation\": " << eager.burst_inflation << ",\n"
       << "  \"deferred_burst_inflation\": " << deferred.burst_inflation << ",\n"
       << "  \"self_deferred\": " << deferred.self_deferred << ",\n"
       << "  \"query_rate_mps\": " << rate << "\n"
       << "}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\nbaseline written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  // The deferral's whole claim: fewer self-congested moves, faster run.
  return deferred.elapsed_ms <= eager.elapsed_ms * 1.02 ? 0 : 1;
}
