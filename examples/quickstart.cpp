// Quickstart: profile one application with the three-level methodology.
//
// Level 1 — intrinsic requirements (AI, footprint, scaling curve, prefetch)
// Level 2 — behaviour on a two-tier system (remote access vs. references)
// Level 3 — behaviour under memory-pool interference (sensitivity, IC)
//
// Build & run:  ./quickstart [app]   (app = HPL|SuperLU|NekRS|Hypre|BFS|XSBench)
#include <cstring>
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "core/advisor.h"
#include "core/profiler.h"

int main(int argc, char** argv) {
  using namespace memdis;

  workloads::App app = workloads::App::kHypre;
  if (argc > 1) {
    for (const auto candidate : workloads::kAllApps)
      if (std::strcmp(argv[1], workloads::app_name(candidate)) == 0) app = candidate;
  }
  auto workload = workloads::make_workload(app, /*scale=*/1);
  std::cout << "Profiling " << workload->name() << " on the emulated dual-socket platform\n";

  core::MultiLevelProfiler profiler;  // default: the paper's testbed config

  // ---- Level 1 --------------------------------------------------------------
  const auto l1 = profiler.level1(*workload);
  const auto pf = profiler.prefetch(*workload, l1).metrics;
  std::cout << "\n[Level 1] intrinsic memory requirements\n"
            << "  verified run:        " << (l1.run.result.verified ? "yes" : "NO") << " ("
            << l1.run.result.detail << ")\n"
            << "  peak footprint:      " << format_bytes(static_cast<double>(l1.run.peak_rss_bytes))
            << "\n"
            << "  arithmetic intensity " << Table::num(l1.arithmetic_intensity, 3)
            << " flop/B, mean DRAM bandwidth " << Table::num(l1.mean_dram_gbps, 1) << " GB/s\n"
            << "  hottest 20% of footprint covers "
            << Table::pct(l1.scaling_curve.access_fraction_at(0.2)) << " of accesses (skew "
            << Table::num(l1.scaling_curve.skewness(), 2) << ")\n"
            << "  prefetch: accuracy " << Table::pct(pf.accuracy) << ", coverage "
            << Table::pct(pf.coverage) << ", gain " << Table::pct(pf.performance_gain) << "\n";

  // ---- Level 2 --------------------------------------------------------------
  const double remote_ratio = 0.5;
  const auto l2 = profiler.level2(*workload, remote_ratio);
  std::cout << "\n[Level 2] two-tier behaviour at " << Table::pct(remote_ratio)
            << " remote capacity\n"
            << "  remote access ratio: " << Table::pct(l2.remote_access_ratio_total)
            << " (references: R_cap " << Table::pct(l2.remote_capacity_ratio_configured)
            << ", R_bw " << Table::pct(l2.remote_bandwidth_ratio) << ")\n";
  const auto advice = core::advise(l2);
  std::cout << "  advisor: " << advice.summary << "\n";

  // ---- Level 3 --------------------------------------------------------------
  const auto l3 = profiler.level3(*workload, remote_ratio, {0, 25, 50});
  std::cout << "\n[Level 3] memory-pool interference\n";
  for (const auto& pt : l3.sensitivity)
    std::cout << "  LoI " << Table::num(pt.loi, 0) << "%: relative performance "
              << Table::num(pt.relative_performance, 3) << "\n";
  std::cout << "  induced interference coefficient: " << Table::num(l3.induced.ic_mean, 2)
            << " (phase spread " << Table::num(l3.induced.ic_min, 2) << " – "
            << Table::num(l3.induced.ic_max, 2) << ")\n";
  return 0;
}
