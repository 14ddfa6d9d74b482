// Example: run every Table-2 workload on the emulated platform and print a
// verification / traffic report. Useful as a first sanity sweep and as a
// template for scripting your own workload studies.
//
// Usage: workload_report [scale]   (scale = 1, 2 or 4; default 1)
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "workloads/workload.h"

int main(int argc, char** argv) {
  using namespace memdis;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;

  Table table({"app", "verified", "sim time (ms)", "Gflop", "DRAM GB", "accesses (M)",
               "L1 hit%", "wall (s)", "detail"});

  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, scale);
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = core::run_live(*wl, sim::EngineConfig{}, /*prefetch_enabled=*/true);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    const auto& c = run.counters;
    table.add_row({wl->name(), run.result.verified ? "yes" : "NO",
                   Table::num(run.elapsed_s * 1e3, 3),
                   Table::num(static_cast<double>(run.flops) * 1e-9, 3),
                   Table::num(static_cast<double>(c.dram_bytes_total()) * 1e-9, 3),
                   Table::num(static_cast<double>(c.accesses()) * 1e-6, 1),
                   Table::pct(static_cast<double>(c.l1_hits) /
                              static_cast<double>(c.accesses())),
                   Table::num(wall, 2), run.result.detail});
  }
  table.print(std::cout);
  return 0;
}
