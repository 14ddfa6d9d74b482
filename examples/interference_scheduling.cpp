// Rack-scale interference-aware scheduling (Sec. 7.2 extension).
//
// Builds fleet job classes from measured Level-3 data — each app's
// sensitivity curve and the fabric traffic it offers at 50% pooled — then
// runs one hand-built arrival stream through the fleet simulator twice:
// first-fit placement vs LoI-aware placement. This is the "more than two
// nodes per memory pool" scenario the paper anticipates, with co-runners
// producing each other's interference through the shared pool link.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "core/epoch_profile.h"
#include "core/profiler.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"

int main() {
  using namespace memdis;

  // Measure each application's Level-3 profile once (50% pooled). One
  // profile cache for the loop: each app's loaded LoI levels re-price its
  // baseline's capture instead of simulating again.
  std::cout << "Measuring Level-3 profiles for the job mix...\n";
  const core::MultiLevelProfiler profiler;
  std::vector<fleet::JobClass> classes;
  core::ProfileCache cache;
  const core::ProfileScope scope(cache);
  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, 1);
    const auto l3 = profiler.level3(*wl, 0.5, {0, 25, 50, 100});
    fleet::JobClass cls;
    cls.profile.app = wl->name();
    cls.profile.base_runtime_s = 600.0;  // paper-scale job length
    cls.profile.sensitivity = l3.sensitivity;
    // Offered link traffic = the app's measured fabric data rate in the
    // Level-3 baseline (50% pooled, idle link); the rate carries over
    // unchanged to the paper-scale runtime.
    const auto& run = l3.baseline;
    cls.profile.offered_gbps = bytes_per_sec_to_gbps(
        static_cast<double>(run.counters.fabric_dram_bytes()) / run.elapsed_s);
    // Resource demand varies by class: 1-3 nodes, 64 GB pooled per node.
    cls.nodes = 1 + classes.size() % 3;
    cls.pool_demand_gb = 64.0 * static_cast<double>(cls.nodes);
    classes.push_back(cls);
  }

  Table profiles({"app", "offered GB/s", "perf @ LoI 50", "perf @ LoI 100"});
  for (const auto& cls : classes) {
    profiles.add_row({cls.profile.app, Table::num(cls.profile.offered_gbps, 2),
                      Table::num(core::interpolate_sensitivity(cls.profile.sensitivity, 50), 3),
                      Table::num(core::interpolate_sensitivity(cls.profile.sensitivity, 100), 3)});
  }
  profiles.print(std::cout);

  // A mixed stream: 48 jobs, round-robin apps, one arrival every 75 s.
  std::vector<fleet::Arrival> arrivals;
  for (std::size_t i = 0; i < 48; ++i) {
    arrivals.push_back({static_cast<double>(i) * 75.0, i % classes.size(),
                        fleet::arrival_seed(7, i)});
  }

  // Four pools of 8 nodes and 512 GB each; migration off so the policies
  // differ only in where they place each job.
  fleet::FleetConfig cfg;
  cfg.pools.assign(4, fleet::PoolSpec{512.0, 8});
  cfg.migration = false;
  cfg.base_seed = 7;

  Table t({"policy", "makespan (s)", "p50 slowdown", "p99 slowdown", "p99 wait (s)",
           "hottest pool LoI"});
  for (const auto policy :
       {fleet::AdmissionPolicy::kFirstFit, fleet::AdmissionPolicy::kLoiAware}) {
    cfg.policy = policy;
    const auto out = fleet::run_fleet(cfg, classes, arrivals);
    double hottest = 0.0;
    for (const auto& pool : out.pools) hottest = std::max(hottest, pool.mean_demand_loi);
    t.add_row({policy == fleet::AdmissionPolicy::kFirstFit ? "first-fit" : "LoI-aware",
               Table::num(out.makespan_s, 0), Table::num(out.p50_slowdown, 4),
               Table::num(out.p99_slowdown, 4), Table::num(out.p99_wait_s, 1),
               Table::num(hottest, 1)});
  }
  t.print(std::cout);
  std::cout << "\nBoth policies start every job on arrival (the rack is below\n"
               "saturation), so the difference is placement alone. First-fit stacks\n"
               "jobs on the lowest-numbered pools, whose links carry the most\n"
               "co-runner traffic; LoI-aware placement puts each job on the pool it\n"
               "would load least, which lowers the hottest pool's LoI and with it the\n"
               "median and tail slowdown.\n";
  return 0;
}
