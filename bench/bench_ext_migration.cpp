// Extension: transparent hot-page migration vs. the static fix.
//
// Sec. 5.2 contrasts two optimization directions: static allocation-site
// changes (the BFS case study) and dynamic runtimes that migrate hot pages
// (Thermostat/TPP-style). The paper's reservations about runtimes —
// adaptation lag and run-to-run variation — are measured here: BFS at 75%
// pooled under (a) baseline, (b) baseline + MigrationRuntime at several
// scan cadences, and (c) the static optimized variant.
//
// Usage: bench_ext_migration [--json PATH] [--wave SPEC]
// (machine-readable baseline for the CI bench regression gate; the values
// are *simulated* time, so they are deterministic and comparable across
// machines. --wave applies a square-wave LoI schedule to one link —
// SPEC = link:period:duty:hi[:lo], the CLI grammar — so the nightly lane
// can gate the planner's behavior under transient congestion, committed as
// BENCH_transient.json.)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "memsim/loi_schedule.h"
#include "workloads/bfs.h"

namespace {

struct Outcome {
  double p2_ms = 0.0;
  double p2_remote = 0.0;
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
};

/// Schedule applied to every run; empty without --wave.
memdis::memsim::LoiSchedule g_schedule;

Outcome run_bfs(memdis::workloads::BfsVariant variant,
                const memdis::core::MigrationConfig* migration) {
  using namespace memdis;
  workloads::BfsParams params = workloads::BfsParams::at_scale(1, 42);
  params.variant = variant;
  workloads::Bfs bfs(params);

  sim::EngineConfig cfg;
  cfg.machine = cfg.machine.with_remote_capacity_ratio(0.75, bfs.footprint_bytes());
  // Small epochs so the migration daemon gets frequent scan opportunities.
  cfg.epoch_accesses = 250'000;
  cfg.loi_schedule = g_schedule;

  core::MigrationRuntime runtime(migration ? *migration : core::MigrationConfig{});
  const auto run = core::run_live(bfs, cfg, /*prefetch_enabled=*/true,
                                  migration != nullptr ? &runtime : nullptr);

  Outcome out;
  for (const auto& phase : run.phases) {
    if (phase.tag != "p2") continue;
    out.p2_ms = phase.time_s * 1e3;
    const auto total = static_cast<double>(phase.counters.dram_bytes_total());
    out.p2_remote =
        total > 0
            ? static_cast<double>(phase.counters.fabric_dram_bytes()) / total
            : 0.0;
  }
  out.promoted = runtime.pages_promoted();
  out.demoted = runtime.pages_demoted();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace memdis;
  std::string json_path;
  std::string wave_spec;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--wave") {
      wave_spec = argv[++i];
    }
  }
  if (!wave_spec.empty()) {
    std::string error;
    const auto wave = memsim::parse_loi_wave(wave_spec, error);
    if (!wave) {
      std::cerr << "error: --wave: " << error << "\n";
      return 2;
    }
    // Validate against the bench machine now: a silently ignored tier
    // would commit a baseline claiming congestion it never applied.
    const auto machine = memsim::MachineConfig::skylake_testbed();
    if (!machine.topology.valid_tier(wave->tier) ||
        !machine.topology.is_fabric(wave->tier)) {
      std::cerr << "error: --wave: tier " << wave->tier
                << " is not a fabric tier of the bench machine\n";
      return 2;
    }
    g_schedule.set(wave->tier, wave->wave);
  }

  bench::banner("Extension: hot-page migration runtime",
                wave_spec.empty()
                    ? "dynamic page placement vs. the static allocation fix (BFS, 75% pooled)"
                    : "same study under a square-wave LoI schedule (" + wave_spec + ")");

  Table t({"configuration", "BFS time (ms)", "%remote (p2)", "promoted", "demoted"});
  std::ostringstream json;
  json << "{\n  \"bench\": \"ext_migration\"";
  if (!wave_spec.empty()) json << ",\n  \"wave\": \"" << wave_spec << "\"";

  const auto baseline = run_bfs(workloads::BfsVariant::kBaseline, nullptr);
  t.add_row({"baseline (no runtime)", Table::num(baseline.p2_ms, 3),
             Table::pct(baseline.p2_remote), "-", "-"});
  json << ",\n  \"baseline_p2_ms\": " << baseline.p2_ms
       << ",\n  \"baseline_p2_remote\": " << baseline.p2_remote;

  for (const std::uint64_t period : {16ULL, 4ULL, 1ULL}) {
    core::MigrationConfig mcfg;
    mcfg.period_epochs = period;
    mcfg.max_pages_per_scan = 64;
    const auto out = run_bfs(workloads::BfsVariant::kBaseline, &mcfg);
    t.add_row({"baseline + migration (scan every " + std::to_string(period) + " epochs)",
               Table::num(out.p2_ms, 3), Table::pct(out.p2_remote),
               std::to_string(out.promoted), std::to_string(out.demoted)});
    json << ",\n  \"scan" << period << "_p2_ms\": " << out.p2_ms << ",\n  \"scan" << period
         << "_p2_remote\": " << out.p2_remote;
  }

  const auto optimized = run_bfs(workloads::BfsVariant::kOptimized, nullptr);
  t.add_row({"static fix (Sec. 7.1 optimized)", Table::num(optimized.p2_ms, 3),
             Table::pct(optimized.p2_remote), "-", "-"});
  json << ",\n  \"static_p2_ms\": " << optimized.p2_ms
       << ",\n  \"static_p2_remote\": " << optimized.p2_remote << "\n}\n";

  t.print(std::cout);
  std::cout << "\nReading: the migration runtime recovers part of the static fix's\n"
               "benefit transparently, and more aggressive scanning recovers more — but\n"
               "it reacts only after heat accumulates (the paper's \"slow in adapting\"\n"
               "critique), while the static allocation-order fix is right from the first\n"
               "touch. This is why the paper favors quantitative up-front placement for\n"
               "HPC's determinism requirements (Sec. 2.2). Since the cost-model planner\n"
               "landed, migration *transfer* time is charged to the timeline, so\n"
               "aggressive cadences now pay for their traffic.\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "baseline written to " << json_path << "\n";
  }
  return 0;
}
