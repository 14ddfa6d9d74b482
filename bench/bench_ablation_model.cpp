// Ablation study of the simulator's design choices (see DESIGN.md §4):
//   A. prefetcher accuracy-throttling — with it disabled, XSBench's random
//      lookups generate runaway useless prefetch traffic (the paper observes
//      the real hardware adapting prefetch down, Sec. 4.2);
//   B. memory-level parallelism (MLP) in the demand-latency term — governs
//      how latency-bound XSBench is relative to streaming codes;
//   C. link queue weight — governs interference sensitivity magnitudes;
//   D. epoch granularity — verifies results are insensitive to the epoch
//      quantum (a pure discretization parameter).
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/prefetch_analysis.h"
#include "core/profiler.h"

int main() {
  using namespace memdis;
  bench::banner("Ablation", "simulator design-choice sensitivity");

  // --- A: prefetcher throttling --------------------------------------------
  std::cout << "\n[A] accuracy-based prefetch throttling (XSBench, scale 1):\n";
  Table a({"throttling", "accuracy", "excess DRAM traffic vs no-pf", "time (ms)"});
  for (const bool throttle : {true, false}) {
    auto wl = workloads::make_workload(workloads::App::kXSBench, 1);
    core::RunConfig cfg;
    if (!throttle) {
      cfg.hierarchy.prefetcher.throttle_low = 0.0;  // never drop the degree
      cfg.hierarchy.prefetcher.throttle_high = 0.0;
    }
    core::MultiLevelProfiler profiler(cfg);
    const auto l1 = profiler.level1(*wl);
    const auto pf = profiler.prefetch(*wl, l1).metrics;
    a.add_row({throttle ? "on (default)" : "off", Table::pct(pf.accuracy),
               Table::pct(pf.excess_traffic), Table::num(l1.run.elapsed_s * 1e3, 3)});
  }
  a.print(std::cout);

  // --- B: MLP sweep ----------------------------------------------------------
  std::cout << "\n[B] demand-miss MLP (latency hiding) sweep:\n";
  Table b({"mlp", "XSBench time (ms)", "Hypre time (ms)", "XSBench/Hypre ratio"});
  for (const double mlp : {2.0, 4.0, 8.0, 16.0}) {
    core::RunConfig cfg;
    cfg.machine.mlp = mlp;
    auto xs = workloads::make_workload(workloads::App::kXSBench, 1);
    auto hy = workloads::make_workload(workloads::App::kHypre, 1);
    const auto rx = core::run_workload(*xs, cfg);
    const auto rh = core::run_workload(*hy, cfg);
    b.add_row({Table::num(mlp, 0), Table::num(rx.elapsed_s * 1e3, 3),
               Table::num(rh.elapsed_s * 1e3, 3),
               Table::num(rx.elapsed_s / rh.elapsed_s, 2)});
  }
  b.print(std::cout);

  // --- C: link queue weight ---------------------------------------------------
  std::cout << "\n[C] link queue weight vs. Hypre sensitivity at LoI=50 (50% pooled):\n";
  Table c({"queue weight", "relative performance at LoI=50"});
  for (const double qw : {0.06, 0.12, 0.24}) {
    core::RunConfig cfg;
    cfg.machine.pool_link().queue_weight = qw;
    cfg.remote_capacity_ratio = 0.5;
    auto wl = workloads::make_workload(workloads::App::kHypre, 1);
    const auto curve = core::sensitivity_sweep(*wl, cfg, core::run_workload(*wl, cfg), {0, 50});
    c.add_row({Table::num(qw, 2), Table::num(curve.back().relative_performance, 3)});
  }
  c.print(std::cout);

  // --- D: epoch quantum --------------------------------------------------------
  std::cout << "\n[D] epoch quantum (discretization) — NekRS elapsed time:\n";
  Table d({"epoch accesses", "time (ms)"});
  for (const std::uint64_t quantum : {500'000ULL, 2'000'000ULL, 8'000'000ULL}) {
    auto wl = workloads::make_workload(workloads::App::kNekRS, 1);
    sim::EngineConfig ecfg;
    ecfg.epoch_accesses = quantum;
    const auto run = core::run_live(*wl, ecfg, /*prefetch_enabled=*/true);
    d.add_row({std::to_string(quantum), Table::num(run.elapsed_s * 1e3, 3)});
  }
  d.print(std::cout);
  std::cout << "\nReading: throttling must be on to reproduce XSBench's low excess\n"
               "traffic; MLP sets the latency-bound/bandwidth-bound balance; queue\n"
               "weight scales sensitivity without reordering apps; epoch size is\n"
               "benign (discretization only).\n";
  return 0;
}
