// Figure 13 (case study, Sec. 7.2): interference-aware job scheduling.
//
// For each application: measure the idle runtime and sensitivity curve on
// the 50% pooled setup, then run 100 executions under the random scheduler
// (background LoI re-rolled in 0-50% every 60 s) and 100 under the
// interference-aware scheduler (0-20%), reporting five-number summaries.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/profiler.h"
#include "sched/colocation.h"

int main() {
  using namespace memdis;
  bench::banner("Figure 13", "execution-time distribution: random vs. interference-aware");

  const core::MultiLevelProfiler profiler{};
  sched::CoLocationConfig cfg;
  cfg.runs = 100;

  Table t({"app", "scheduler", "min", "q1", "median", "q3", "max", "mean"});
  Table gains({"app", "mean speedup", "p75 reduction", "IQR shrink"});
  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, 1);
    const auto l3 = profiler.level3(*wl, 0.5);

    // Scale the (milliseconds-range) simulated runtime up to the paper's
    // minutes-range jobs so the 60 s re-roll interval bites; the *relative*
    // statistics are unaffected by this scaling.
    core::RunConfig rc = profiler.base_config();
    rc.remote_capacity_ratio = 0.5;
    const auto baseline = core::run_workload(*wl, rc);
    const double scale_to_job = 60.0 * 8 / baseline.elapsed_s;  // ~8 intervals per run

    sched::JobProfile job;
    job.app = wl->name();
    job.base_runtime_s = baseline.elapsed_s * scale_to_job;
    job.sensitivity = l3.sensitivity;

    const auto cmp = sched::compare_schedulers(job, cfg);
    const auto add = [&](const char* sched_name, const sched::CoLocationOutcome& o) {
      t.add_row({job.app, sched_name, Table::num(o.summary.min, 1),
                 Table::num(o.summary.q1, 1), Table::num(o.summary.median, 1),
                 Table::num(o.summary.q3, 1), Table::num(o.summary.max, 1),
                 Table::num(o.mean_s, 1)});
    };
    add("baseline", cmp.baseline);
    add("I-aware", cmp.aware);
    const double iqr_base = cmp.baseline.summary.q3 - cmp.baseline.summary.q1;
    const double iqr_aware = cmp.aware.summary.q3 - cmp.aware.summary.q1;
    gains.add_row({job.app, Table::pct(cmp.mean_speedup), Table::pct(cmp.p75_reduction),
                   Table::pct(iqr_base > 0 ? 1.0 - iqr_aware / iqr_base : 0.0)});
  }
  t.print(std::cout);
  std::cout << "\nScheduler benefit per application (100 runs each):\n";
  gains.print(std::cout);
  std::cout << "\nExpected shape (paper): interference awareness reduces both mean time\n"
               "and variability; Hypre benefits most (~4% mean, ~5% p75), NekRS and\n"
               "SuperLU ~2-3%, BFS/HPL ~1-2%, XSBench ~0-1%.\n";
  return 0;
}
