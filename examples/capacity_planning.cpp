// Capacity planning (Sec. 4.1's decision flow): given an application and a
// node design with a fixed local tier plus pooled memory, use the
// bandwidth–capacity scaling curve and the memory roofline to answer:
//
//  * how much pooled memory can this app take before the pool tier becomes
//    the memory bottleneck?
//  * what access split would exploit both tiers concurrently?
//  * how many nodes would a (paper-scale) job need under each policy?
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "core/profiler.h"
#include "core/roofline.h"

int main(int argc, char** argv) {
  using namespace memdis;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;

  const core::MultiLevelProfiler profiler;
  const auto& machine = profiler.base_config().machine;

  std::cout << "Node design: " << machine.node_tier().bandwidth_gbps << " GB/s local tier, "
            << machine.pool_tier().bandwidth_gbps << " GB/s pool link (R_bw = "
            << Table::pct(machine.remote_bandwidth_ratio()) << ")\n\n";

  Table t({"app", "footprint", "hot set for 90% traffic", "max pooled frac (perf-neutral)",
           "B_eff at balanced split", "placement guidance"});
  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, scale);
    const auto l1 = profiler.level1(*wl);
    const auto& curve = l1.scaling_curve;

    // The hot set that must stay local to keep 90% of traffic on the fast
    // tier; everything beyond it can live on the pool "for free".
    const double hot_fraction = curve.footprint_fraction_for(0.90);
    const double poolable = 1.0 - hot_fraction;

    // Balanced concurrent-tier bandwidth at the R_bw split (Sec. 3.4).
    const double b_eff =
        core::effective_bandwidth_gbps(machine, machine.remote_bandwidth_ratio());

    const bool latency_sensitive = core::prefetch_coverage(l1.run.counters) < 0.2;
    t.add_row(
        {wl->name(), format_bytes(static_cast<double>(l1.run.peak_rss_bytes)),
         Table::pct(hot_fraction) + " of footprint", Table::pct(poolable),
         Table::num(b_eff, 0) + " GB/s",
         latency_sensitive ? "minimize remote exposure (latency-bound)"
                           : (poolable > 0.5 ? "pool the cold majority"
                                             : "scale out or keep mostly local")});
  }
  t.print(std::cout);

  std::cout << "\nReading the table: BFS and XSBench can push most of their footprint to\n"
               "the pool because only a small hot set carries the traffic — but XSBench\n"
               "is latency-bound (sub-1% prefetch coverage), so its remote exposure\n"
               "should still be minimized. HPL and Hypre touch everything uniformly:\n"
               "pooling their memory means paying the pool's bandwidth on every byte,\n"
               "so they should scale out to more nodes instead (Sec. 2.1's\n"
               "misconception discussion).\n";
  return 0;
}
