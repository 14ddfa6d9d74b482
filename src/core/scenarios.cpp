// Built-in sweep scenarios: every paper figure (and extension study) that
// is a configuration-space sweep, registered under a stable name.
//
// A scenario's measure() must be a pure function of its SweepPoint so the
// engine's determinism contract holds (see sweep.h); summarize() turns the
// collected rows back into the tables and expected-shape notes the old
// per-figure bench mains printed.
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/table.h"
#include "core/advisor.h"
#include "core/interference.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "core/roofline.h"
#include "core/scenario_registry.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "workloads/bfs.h"

namespace memdis::core {
namespace {

using workloads::App;

std::optional<double> metric(const SweepRow& row, const std::string& name) {
  for (const auto& [key, value] : row.metrics)
    if (key == name) return value;
  return std::nullopt;
}

double metric_or(const SweepRow& row, const std::string& name, double fallback = 0.0) {
  return metric(row, name).value_or(fallback);
}

std::string loi_metric(double loi) {
  return "relperf_loi" + std::to_string(static_cast<int>(loi));
}

/// The 21 evenly spaced footprint fractions each scaling-curve row samples
/// (enough to reconstruct cross-scale Kolmogorov distances in summaries).
constexpr std::size_t kCurveSamples = 21;

std::string curve_metric(std::size_t i) { return "cdf" + std::to_string(i); }

// ---- fig05: roofline placement of application phases ------------------------

std::vector<Metric> measure_fig05(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  std::vector<Metric> metrics;
  for (const auto& phase : l1.phases) {
    if (phase.time_s <= 0) continue;
    metrics.emplace_back(phase.tag + "_ai", phase.arithmetic_intensity);
    metrics.emplace_back(phase.tag + "_gflops", phase.gflops_rate);
    metrics.emplace_back(phase.tag + "_weight", phase.weight);
  }
  return metrics;
}

void summarize_fig05(const SweepResult& result, std::ostream& os) {
  const auto machine = memsim::MachineConfig::skylake_testbed();
  const auto local = RooflineModel::local_tier(machine);
  const auto multi = RooflineModel::multi_tier(machine);
  os << "Platform roofs: peak " << Table::num(local.peak_gflops(), 0) << " Gflop/s; local tier "
     << Table::num(local.bandwidth_gbps(), 0) << " GB/s (ridge at AI="
     << Table::num(local.ridge_point(), 2) << "); +pool tier "
     << Table::num(multi.bandwidth_gbps(), 0) << " GB/s (dashed extension, ridge at AI="
     << Table::num(multi.ridge_point(), 2) << ")\n\n";
  Table t({"phase", "AI (flop/B)", "measured Gflop/s", "roof Gflop/s", "roof utilization",
           "bound"});
  for (const auto& row : result.rows) {
    for (const char* tag : {"p1", "p2", "p3"}) {
      const auto ai = metric(row, std::string(tag) + "_ai");
      if (!ai) continue;
      const double gflops = metric_or(row, std::string(tag) + "_gflops");
      const double roof = local.attainable_gflops(std::max(*ai, 1e-3));
      t.add_row({std::string(workloads::app_name(row.point.app)) + "-" + tag,
                 Table::num(*ai, 3), Table::num(gflops, 2), Table::num(roof, 1),
                 Table::pct(std::min(gflops / roof, 1.5)),
                 *ai < local.ridge_point() ? "memory" : "compute"});
    }
  }
  t.print(os);
  os << "\nExpected shape (paper): phases span the memory-bound to compute-bound\n"
        "spectrum; HPL-p2 approaches the compute roof, Hypre/NekRS sit on the\n"
        "bandwidth slope at low AI, BFS/XSBench run far below both roofs\n"
        "(latency-bound).\n";
}

// ---- fig06: bandwidth-capacity scaling curves -------------------------------

std::vector<Metric> measure_fig06(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  const auto& curve = l1.scaling_curve;
  std::vector<Metric> metrics;
  metrics.emplace_back("footprint_mib", static_cast<double>(l1.peak_rss_bytes) / (1 << 20));
  for (const double f : {0.10, 0.20, 0.30, 0.50, 0.70, 0.90})
    metrics.emplace_back("af_" + std::to_string(static_cast<int>(f * 100)),
                         curve.access_fraction_at(f));
  metrics.emplace_back("skew", curve.skewness());
  const auto samples = curve.sample(kCurveSamples);
  for (std::size_t i = 0; i < samples.size(); ++i)
    metrics.emplace_back(curve_metric(i), samples[i]);
  return metrics;
}

void summarize_fig06(const SweepResult& result, std::ostream& os) {
  Table t({"app", "scale", "footprint", "10%", "20%", "30%", "50%", "70%", "90%", "skew"});
  for (const auto& row : result.rows) {
    t.add_row({workloads::app_name(row.point.app), std::to_string(row.point.scale) + "x",
               Table::num(metric_or(row, "footprint_mib"), 1) + " MiB",
               Table::pct(metric_or(row, "af_10")), Table::pct(metric_or(row, "af_20")),
               Table::pct(metric_or(row, "af_30")), Table::pct(metric_or(row, "af_50")),
               Table::pct(metric_or(row, "af_70")), Table::pct(metric_or(row, "af_90")),
               Table::num(metric_or(row, "skew"), 3)});
  }
  t.print(os);

  const auto sampled_distance = [&](const SweepRow& a, const SweepRow& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < kCurveSamples; ++i)
      d = std::max(d, std::abs(metric_or(a, curve_metric(i)) - metric_or(b, curve_metric(i))));
    return d;
  };
  const auto row_at = [&](App app, int scale) -> const SweepRow* {
    for (const auto& row : result.rows)
      if (row.point.app == app && row.point.scale == scale) return &row;
    return nullptr;
  };
  os << "\nCross-scale curve distance (max |CDF_a - CDF_b|, sampled):\n";
  Table d({"app", "1x vs 2x", "1x vs 4x", "reading"});
  for (const auto app : workloads::kAllApps) {
    const auto *r1 = row_at(app, 1), *r2 = row_at(app, 2), *r4 = row_at(app, 4);
    if (!r1 || !r2 || !r4) continue;
    const double d12 = sampled_distance(*r1, *r2);
    const double d14 = sampled_distance(*r1, *r4);
    d.add_row({workloads::app_name(app), Table::num(d12, 3), Table::num(d14, 3),
               d14 < 0.12 ? "consistent across scales" : "distribution shifts"});
  }
  d.print(os);
  os << "\nExpected shape (paper): HPL and Hypre near-diagonal (uniform); BFS and\n"
        "XSBench strongly skewed; BFS shifts left as the input grows; SuperLU\n"
        "moves from skewed toward uniform with scale; the others overlap.\n";
}

// ---- fig08: prefetch metrics ------------------------------------------------

std::vector<Metric> measure_fig08(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  return {{"accuracy", l1.prefetch.accuracy},
          {"coverage", l1.prefetch.coverage},
          {"excess_traffic", l1.prefetch.excess_traffic},
          {"performance_gain", l1.prefetch.performance_gain}};
}

void summarize_fig08(const SweepResult& result, std::ostream& os) {
  Table t({"app", "accuracy", "coverage", "excess traffic", "performance gain"});
  for (const auto& row : result.rows)
    t.add_row({workloads::app_name(row.point.app), Table::pct(metric_or(row, "accuracy")),
               Table::pct(metric_or(row, "coverage")),
               Table::pct(metric_or(row, "excess_traffic")),
               Table::pct(metric_or(row, "performance_gain"))});
  t.print(os);
  os << "\nExpected shape (paper): all but XSBench and BFS above ~80% accuracy;\n"
        "Hypre and NekRS lead coverage (~70%); excess traffic low (2-6%) except\n"
        "SuperLU (~37%) which still gains ~31%; XSBench's prefetcher throttles\n"
        "itself (lowest accuracy yet low excess traffic, <1% coverage).\n";
}

// ---- fig09: per-phase remote access ratios ----------------------------------

std::vector<Metric> measure_fig09(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l2 = profiler.level2(*wl, point.ratio);
  const auto report = advise(l2);
  std::vector<Metric> metrics = {{"remote_access_total", l2.remote_access_ratio_total},
                                 {"r_bw", l2.remote_bandwidth_ratio}};
  for (std::size_t i = 0; i < l2.phases.size(); ++i) {
    const auto& phase = l2.phases[i];
    if (phase.weight <= 0) continue;
    metrics.emplace_back(phase.tag + "_remote", phase.remote_access_ratio);
    metrics.emplace_back(phase.tag + "_weight", phase.weight);
    metrics.emplace_back(phase.tag + "_verdict",
                         static_cast<double>(report.phases[i].verdict));
  }
  return metrics;
}

void summarize_fig09(const SweepResult& result, std::ostream& os) {
  for (const double ratio : {0.25, 0.50, 0.75}) {
    os << "\n--- remote capacity ratio R_cap = " << Table::pct(ratio) << " ---\n";
    Table t({"phase", "%remote access", "vs R_cap", "vs R_bw", "verdict"});
    for (const auto& row : result.rows) {
      if (row.point.ratio != ratio) continue;
      const double r_bw = metric_or(row, "r_bw");
      for (const char* tag : {"p1", "p2", "p3"}) {
        const auto remote = metric(row, std::string(tag) + "_remote");
        if (!remote) continue;
        const auto verdict = static_cast<PlacementVerdict>(
            static_cast<int>(metric_or(row, std::string(tag) + "_verdict")));
        t.add_row({std::string(workloads::app_name(row.point.app)) + "-" + tag,
                   Table::pct(*remote), *remote > ratio ? "above" : "below",
                   *remote > r_bw ? "above" : "below", verdict_name(verdict)});
      }
    }
    t.print(os);
  }
  os << "\nExpected shape (paper): at 25% remote the references are close and most\n"
        "apps sit near them (little tuning space); at 75% remote HPL, NekRS and\n"
        "BFS exceed even R_cap, p2 phases sit far above R_bw, and XSBench stays\n"
        "below ~6% remote access in every configuration.\n";
}

// ---- fig10: interference sensitivity ----------------------------------------

const std::vector<double> kFig10Lois = {0, 10, 20, 30, 40, 50};

std::vector<Metric> measure_fig10(const SweepPoint& point) {
  auto wl = point.make_workload();
  const auto curve = sensitivity_sweep(*wl, point.run_config(), point.ratio, kFig10Lois, "p2");
  std::vector<Metric> metrics;
  for (const auto& pt : curve) metrics.emplace_back(loi_metric(pt.loi), pt.relative_performance);
  metrics.emplace_back("loss_at_50", 1.0 - curve.back().relative_performance);
  return metrics;
}

void summarize_fig10(const SweepResult& result, std::ostream& os) {
  for (const double ratio : {0.25, 0.50, 0.75}) {
    os << "\n--- remote capacity ratio " << Table::pct(ratio) << " ---\n";
    Table t({"app", "LoI=0", "LoI=10", "LoI=20", "LoI=30", "LoI=40", "LoI=50", "loss@50"});
    for (const auto& row : result.rows) {
      if (row.point.ratio != ratio) continue;
      std::vector<std::string> cells{workloads::app_name(row.point.app)};
      for (const double loi : kFig10Lois)
        cells.push_back(Table::num(metric_or(row, loi_metric(loi)), 3));
      cells.push_back(Table::pct(metric_or(row, "loss_at_50")));
      t.add_row(std::move(cells));
    }
    t.print(os);
  }
  os << "\nExpected shape (paper): every app degrades monotonically with LoI;\n"
        "Hypre and NekRS are the most sensitive (~15%/13% loss at LoI=50 on the\n"
        "50/50 split) due to low arithmetic intensity; HPL stays under ~5% loss\n"
        "despite high remote access (compute bound); XSBench/BFS in between.\n";
}

// ---- fig11: LBench validation / induced interference ------------------------

std::vector<Metric> measure_fig11(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l2 = profiler.level2(*wl, point.ratio);
  const auto induced = induced_interference(l2.run, machine_for_fabric(point.fabric));
  return {{"ic_mean", induced.ic_mean}, {"ic_min", induced.ic_min}, {"ic_max", induced.ic_max}};
}

void summarize_fig11(const SweepResult& result, std::ostream& os) {
  const auto machine = memsim::MachineConfig::skylake_testbed();

  os << "\n[left] configured intensity vs. measured LoI:\n";
  Table left({"configured %", "nflop(1T)", "measured LoI 1 thread", "nflop(2T)",
              "measured LoI 2 threads"});
  LbenchCalibration cal1(machine, 1);
  LbenchCalibration cal2(machine, 2);
  for (const double target : {10.0, 20.0, 30.0, 40.0, 50.0}) {
    const auto n1 = cal1.nflop_for_loi(target);
    const auto n2 = cal2.nflop_for_loi(target);
    left.add_row({Table::num(target, 0), std::to_string(n1),
                  Table::num(std::min(cal1.loi_for_nflop(n1), 100.0), 1), std::to_string(n2),
                  Table::num(std::min(cal2.loi_for_nflop(n2), 100.0), 1)});
  }
  left.print(os);

  os << "\n[middle] IC and PCM traffic vs. background intensity (12 threads):\n";
  Table mid({"flops/element", "offered traffic GB/s", "PCM traffic GB/s (saturates)",
             "interference coefficient"});
  for (const std::uint32_t nflop : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const double offered = lbench_offered_traffic_gbps(machine, machine.threads, nflop);
    const double pcm = std::min(offered, machine.pool_link().traffic_capacity_gbps);
    const double util = offered / machine.pool_link().traffic_capacity_gbps;
    mid.add_row({std::to_string(nflop), Table::num(offered, 1), Table::num(pcm, 1),
                 Table::num(interference_coefficient_at(machine, util), 2)});
  }
  mid.print(os);

  os << "\n[right] interference coefficient induced by each application (50% pooled):\n";
  Table right({"app", "IC (time-weighted)", "IC min phase", "IC max phase"});
  for (const auto& row : result.rows)
    right.add_row({workloads::app_name(row.point.app), Table::num(metric_or(row, "ic_mean"), 2),
                   Table::num(metric_or(row, "ic_min"), 2),
                   Table::num(metric_or(row, "ic_max"), 2)});
  right.print(os);
  os << "\nExpected shape (paper): NekRS and Hypre induce the most interference,\n"
        "HPL and XSBench the least; compute phases dominate the spread (e.g.\n"
        "Hypre's solve vs. its initialization).\n";
}

// ---- fig12: BFS data-placement case study -----------------------------------

workloads::BfsVariant bfs_variant_of(const std::string& name) {
  if (name == "parents-first") return workloads::BfsVariant::kParentsFirst;
  if (name == "optimized") return workloads::BfsVariant::kOptimized;
  return workloads::BfsVariant::kBaseline;
}

std::vector<Metric> measure_fig12(const SweepPoint& point) {
  workloads::BfsParams params = workloads::BfsParams::at_scale(point.scale, point.seed);
  params.variant = bfs_variant_of(point.variant);
  workloads::Bfs bfs(params);
  MultiLevelProfiler profiler(point.run_config());
  const auto l2 = profiler.level2(bfs, point.ratio);
  double p2_ms = 0.0, p2_remote = 0.0;
  for (const auto& phase : l2.run.phases)
    if (phase.tag == "p2") p2_ms = phase.time_s * 1e3;
  for (const auto& phase : l2.phases)
    if (phase.tag == "p2") p2_remote = phase.remote_access_ratio;

  workloads::Bfs bfs_sens(params);
  const auto curve = sensitivity_sweep(bfs_sens, point.run_config(), point.ratio, {0, 50});
  return {{"p2_ms", p2_ms},
          {"remote_mb", static_cast<double>(l2.run.counters.fabric_dram_bytes()) / 1e6},
          {"p2_remote", p2_remote},
          {"remote_total", l2.remote_access_ratio_total},
          {"relperf_loi50", curve.back().relative_performance}};
}

void summarize_fig12(const SweepResult& result, std::ostream& os) {
  for (const double ratio : {0.50, 0.75}) {
    os << "\n--- " << Table::pct(ratio) << " pooled ---\n";
    Table t({"variant", "BFS time (ms)", "speedup", "remote bytes (MB)", "%remote (p2)",
             "%remote (total)", "rel perf @ LoI=50"});
    double base_time = 0.0;
    for (const auto& row : result.rows) {
      if (row.point.ratio != ratio) continue;
      const double time_ms = metric_or(row, "p2_ms");
      if (row.point.variant == "baseline") base_time = time_ms;
      t.add_row({row.point.variant, Table::num(time_ms, 3),
                 Table::num(base_time > 0 && time_ms > 0 ? base_time / time_ms : 1.0, 3) + "x",
                 Table::num(metric_or(row, "remote_mb"), 1),
                 Table::pct(metric_or(row, "p2_remote")),
                 Table::pct(metric_or(row, "remote_total")),
                 Table::num(metric_or(row, "relperf_loi50"), 3)});
    }
    t.print(os);
  }
  os << "\nExpected shape (paper): remote access ratio drops 99% -> 80% -> 50% at\n"
        "75% pooling (13% total speedup); at 50% pooling the optimized version\n"
        "nearly eliminates remote access; optimized BFS is much less sensitive\n"
        "to interference.\n";
}

// ---- ext-cxl: pool-fabric what-ifs ------------------------------------------

std::vector<Metric> measure_ext_cxl(const SweepPoint& point) {
  RunConfig cfg;
  cfg.machine = machine_for_fabric(point.fabric);
  cfg.link_model = point.link_model;

  auto wl_local = point.make_workload();
  const auto local = run_workload(*wl_local, cfg);

  RunConfig pooled = cfg;
  pooled.remote_capacity_ratio = 0.5;
  auto wl_pooled = point.make_workload();
  const auto half = run_workload(*wl_pooled, pooled);

  auto wl_sens = point.make_workload();
  const auto curve = sensitivity_sweep(*wl_sens, cfg, 0.5, {0, 50}, "p2");

  return {{"local_ms", local.elapsed_s * 1e3},
          {"pooled_ms", half.elapsed_s * 1e3},
          {"pooling_penalty", half.elapsed_s / local.elapsed_s},
          {"relperf_loi50", curve.back().relative_performance}};
}

void summarize_ext_cxl(const SweepResult& result, std::ostream& os) {
  os << "\nFabric parameters:\n";
  Table f({"fabric", "data BW (GB/s)", "latency (ns)", "traffic cap (GB/s)"});
  for (const char* fabric : {"upi", "cxl", "cxl-switched", "split"}) {
    const auto m = machine_for_fabric(fabric);
    f.add_row({fabric, Table::num(m.pool_tier().bandwidth_gbps, 0),
               Table::num(m.pool_tier().latency_ns, 0),
               Table::num(m.pool_link().traffic_capacity_gbps, 0)});
  }
  f.print(os);

  os << "\nPooling penalty (runtime at 50% pooled / runtime local-only) and\n"
        "interference sensitivity (p2 relative performance at LoI=50):\n";
  Table t({"app", "fabric", "pooling penalty", "sensitivity @ LoI=50"});
  for (const auto& row : result.rows)
    t.add_row({workloads::app_name(row.point.app), row.point.fabric,
               Table::num(metric_or(row, "pooling_penalty"), 3) + "x",
               Table::num(metric_or(row, "relperf_loi50"), 3)});
  t.print(os);
  os << "\nReading: direct CXL turns pooling from a penalty into a win for the\n"
        "bandwidth-bound app; the switch's extra latency gives that win back for\n"
        "the latency-exposed graph workload (BFS). XSBench barely moves because\n"
        "it already keeps its hot data local (Sec. 5.1).\n";
}

// ---- ext-interleave: first-touch vs. weighted N:M placement -----------------

std::optional<memsim::MemPolicy> policy_of(const std::string& variant) {
  if (variant == "interleave-2:1") return memsim::MemPolicy::interleave(2, 1);
  if (variant == "interleave-1:1") return memsim::MemPolicy::interleave(1, 1);
  return std::nullopt;  // first-touch
}

std::vector<Metric> measure_ext_interleave(const SweepPoint& point) {
  auto wl = point.make_workload();
  sim::EngineConfig cfg;
  cfg.machine = machine_for_fabric(point.fabric);
  cfg.default_policy_override = policy_of(point.variant);
  cfg.link_model = point.link_model;
  sim::Engine eng(cfg);
  (void)wl->run(eng);
  eng.finish();
  const auto& c = eng.counters();
  const double seconds = eng.elapsed_seconds();
  const double agg_gbps =
      seconds > 0 ? static_cast<double>(c.dram_bytes_total()) / seconds / 1e9 : 0.0;
  const double remote = c.dram_bytes_total() > 0
                            ? static_cast<double>(c.fabric_dram_bytes()) /
                                  static_cast<double>(c.dram_bytes_total())
                            : 0.0;
  return {{"time_ms", seconds * 1e3}, {"agg_dram_gbps", agg_gbps}, {"remote_share", remote}};
}

void summarize_ext_interleave(const SweepResult& result, std::ostream& os) {
  const auto machine = memsim::MachineConfig::skylake_testbed();
  os << "Model upper bound: balanced split at R_bw = "
     << Table::pct(machine.remote_bandwidth_ratio()) << " raises aggregate bandwidth above the "
     << Table::num(machine.node_tier().bandwidth_gbps, 0) << " GB/s local tier.\n\n";
  Table t({"app", "policy", "time (ms)", "DRAM GB/s (aggregate)", "%remote access",
           "vs first-touch"});
  double base_ms = 0.0;
  for (const auto& row : result.rows) {
    const double ms = metric_or(row, "time_ms");
    if (row.point.variant == "first-touch") base_ms = ms;
    t.add_row({workloads::app_name(row.point.app), row.point.variant, Table::num(ms, 3),
               Table::num(metric_or(row, "agg_dram_gbps"), 1),
               Table::pct(metric_or(row, "remote_share")),
               Table::num(base_ms > 0 && ms > 0 ? base_ms / ms : 1.0, 3) + "x"});
  }
  t.print(os);
  os << "\nReading: 2:1 interleaving pushes ~1/3 of the stream onto the pool tier\n"
        "and raises aggregate bandwidth toward B_local+B_pool — multi-tier memory\n"
        "can be FASTER than local-only for bandwidth-bound codes. 1:1 overshoots\n"
        "the pool's share and gives some of the gain back.\n";
}

// ---- ext-three-tier: capacity spill chain over DRAM + CXL + switched pool ---

/// Capacity shaping for a spill-chain experiment at remote ratio r: the
/// node tier holds (1-r) of the footprint. On an N-tier topology the first
/// pool holds half the spill and the chain's tail takes the rest; two-tier
/// fabrics absorb the whole spill on their single pool.
RunConfig spill_chain_config(const SweepPoint& point) {
  RunConfig cfg;
  cfg.machine = machine_for_fabric(point.fabric);
  const auto fractions = spill_capacity_fractions(cfg.machine, point.ratio);
  if (!fractions.empty()) {
    cfg.capacity_fractions = fractions;
  } else {
    cfg.remote_capacity_ratio = point.ratio;
  }
  cfg.background_loi = point.loi;
  cfg.prefetch_enabled = point.prefetch;
  cfg.link_model = point.link_model;
  return cfg;
}

std::vector<Metric> measure_ext_three_tier(const SweepPoint& point) {
  const RunConfig cfg = spill_chain_config(point);
  auto wl = point.make_workload();
  const auto run = run_workload(*wl, cfg);
  std::vector<Metric> metrics{{"time_ms", run.elapsed_s * 1e3},
                              {"remote_access", run.remote_access_ratio()}};
  const auto total = static_cast<double>(run.counters.dram_bytes_total());
  for (memsim::TierId t = 0; t < cfg.machine.num_tiers(); ++t)
    metrics.emplace_back(
        "share_t" + std::to_string(t),
        total > 0 ? static_cast<double>(run.counters.dram_bytes(t)) / total : 0.0);
  return metrics;
}

void summarize_ext_three_tier(const SweepResult& result, std::ostream& os) {
  os << "Topologies under test:\n";
  Table f({"preset", "tiers"});
  for (const char* fabric : {"cxl", "three-tier"}) {
    const auto m = machine_for_fabric(fabric);
    std::string tiers;
    for (memsim::TierId t = 0; t < m.num_tiers(); ++t) {
      if (t) tiers += " -> ";
      tiers += m.tier(t).name + " (" + Table::num(m.tier(t).bandwidth_gbps, 0) + " GB/s, " +
               Table::num(m.tier(t).latency_ns, 0) + " ns)";
    }
    f.add_row({fabric, tiers});
  }
  f.print(os);

  os << "\n";
  Table t({"app", "ratio", "topology", "time (ms)", "%off-node", "%t0", "%t1", "%t2"});
  for (const auto& row : result.rows) {
    t.add_row({workloads::app_name(row.point.app), Table::pct(row.point.ratio),
               row.point.fabric, Table::num(metric_or(row, "time_ms"), 3),
               Table::pct(metric_or(row, "remote_access")),
               Table::pct(metric_or(row, "share_t0")), Table::pct(metric_or(row, "share_t1")),
               metric(row, "share_t2") ? Table::pct(metric_or(row, "share_t2")) : "-"});
  }
  t.print(os);
  os << "\nReading: on the three-tier chain the spill beyond the direct CXL\n"
        "device lands on the switched pool and pays the switch traversal; the\n"
        "extra hop never helps a latency-exposed app, while the second link\n"
        "can add aggregate fabric bandwidth for streaming apps.\n";
}

// ---- ext-hybrid: split+pool hybrid (two asymmetric pools side by side) ------

std::vector<Metric> measure_ext_hybrid(const SweepPoint& point) {
  RunConfig cfg;
  cfg.machine = machine_for_fabric(point.fabric);
  cfg.link_model = point.link_model;

  auto wl_local = point.make_workload();
  const auto local = run_workload(*wl_local, cfg);

  const RunConfig pooled = spill_chain_config(point);
  auto wl_pooled = point.make_workload();
  const auto half = run_workload(*wl_pooled, pooled);

  return {{"local_ms", local.elapsed_s * 1e3},
          {"pooled_ms", half.elapsed_s * 1e3},
          {"pooling_penalty", half.elapsed_s / local.elapsed_s},
          {"remote_access", half.remote_access_ratio()}};
}

void summarize_ext_hybrid(const SweepResult& result, std::ostream& os) {
  os << "Pooling penalty (runtime at the swept split / runtime local-only):\n\n";
  Table t({"app", "topology", "local (ms)", "pooled (ms)", "penalty", "%off-node"});
  for (const auto& row : result.rows)
    t.add_row({workloads::app_name(row.point.app), row.point.fabric,
               Table::num(metric_or(row, "local_ms"), 3),
               Table::num(metric_or(row, "pooled_ms"), 3),
               Table::num(metric_or(row, "pooling_penalty"), 3) + "x",
               Table::pct(metric_or(row, "remote_access"))});
  t.print(os);
  os << "\nReading: the hybrid places half the spill on the CXL device and half\n"
        "on peer-borrowed memory. Each pool queues on its own link, so the\n"
        "second link adds aggregate fabric bandwidth (hybrid can even beat the\n"
        "pure CXL pool for streaming apps) while the peer tier's long latency\n"
        "keeps it far ahead of pure split borrowing for latency-exposed apps.\n";
}

// ---- ext-staged-migration: cost-model planner, direct vs. multi-hop ---------

/// Per-link LoI vector named by a scenario variant (indexed by TierId;
/// "near" loads the first fabric link, "far" the one behind it).
std::vector<double> per_link_loi_of(const std::string& variant) {
  if (variant == "near-loaded") return {0.0, 40.0, 0.0};
  if (variant == "far-loaded") return {0.0, 0.0, 40.0};
  if (variant == "both-loaded") return {0.0, 40.0, 40.0};
  if (variant == "mid-loaded") return {0.0, 50.0, 0.0};
  if (variant == "overloaded") return {0.0, 200.0, 0.0};  // oversubscribed device link
  return {};  // idle
}

/// One migration-runtime run of the point's workload on its (capacity
/// shaped) topology, with staging allowed or restricted to direct moves.
struct StagedRun {
  double elapsed_ms = 0.0;
  double transfer_cost_ms = 0.0;
  std::uint64_t staged_moves = 0;
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
};

StagedRun run_with_planner(const SweepPoint& point, bool allow_staging) {
  auto wl = point.make_workload();
  sim::EngineConfig cfg;
  const double r = point.ratio == kNodeOnly ? 0.5 : point.ratio;
  cfg.machine =
      machine_with_spill(machine_for_fabric(point.fabric), r, wl->footprint_bytes());
  cfg.background_loi_per_tier = per_link_loi_of(point.variant);
  cfg.link_model = point.link_model;
  // Small epochs so the daemon gets frequent scan opportunities.
  cfg.epoch_accesses = 250'000;
  sim::Engine eng(cfg);

  MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.max_pages_per_scan = 16;
  // Tight per-segment budgets (further shrunk by the planner on loaded
  // links): a swap through the device link needs two budget units, so when
  // that link carries background load the direct-to-node path is priced out
  // of the scan entirely — exactly the regime where hopping pages across
  // the switch segment (staging up, or evacuating hot pages around the
  // loaded link) is the only move the cost model can still afford.
  mcfg.link_budget_pages = 2;
  mcfg.allow_staging = allow_staging;
  MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  (void)wl->run(eng);
  eng.finish();

  StagedRun out;
  out.elapsed_ms = eng.elapsed_seconds() * 1e3;
  out.transfer_cost_ms = runtime.transfer_cost_s() * 1e3;
  out.staged_moves = runtime.staged_moves();
  out.promoted = runtime.pages_promoted();
  out.demoted = runtime.pages_demoted();
  return out;
}

std::vector<Metric> measure_ext_staged_migration(const SweepPoint& point) {
  const StagedRun direct = run_with_planner(point, /*allow_staging=*/false);
  const StagedRun staged = run_with_planner(point, /*allow_staging=*/true);
  return {{"direct_ms", direct.elapsed_ms},
          {"staged_ms", staged.elapsed_ms},
          {"staged_gain", staged.elapsed_ms > 0 ? direct.elapsed_ms / staged.elapsed_ms : 1.0},
          {"staged_moves", static_cast<double>(staged.staged_moves)},
          {"staged_promoted", static_cast<double>(staged.promoted)},
          {"direct_promoted", static_cast<double>(direct.promoted)},
          {"staged_cost_ms", staged.transfer_cost_ms},
          {"direct_cost_ms", direct.transfer_cost_ms}};
}

void summarize_ext_staged_migration(const SweepResult& result, std::ostream& os) {
  Table t({"app", "ratio", "links", "direct (ms)", "staged (ms)", "gain", "staged moves",
           "xfer direct (ms)", "xfer staged (ms)"});
  for (const auto& row : result.rows) {
    t.add_row({workloads::app_name(row.point.app), Table::pct(row.point.ratio),
               row.point.variant, Table::num(metric_or(row, "direct_ms"), 3),
               Table::num(metric_or(row, "staged_ms"), 3),
               Table::num(metric_or(row, "staged_gain"), 3) + "x",
               Table::num(metric_or(row, "staged_moves"), 0),
               Table::num(metric_or(row, "direct_cost_ms"), 3),
               Table::num(metric_or(row, "staged_cost_ms"), 3)});
  }
  t.print(os);
  os << "\nReading: with pages spilled two hops deep and tight per-link budgets,\n"
        "the multi-hop planner routes pages segment by segment: it stages\n"
        "switched-pool pages through the direct CXL device when the long-haul\n"
        "path is priced out, and under heavy load on the device link it even\n"
        "evacuates hot device pages across the switch to the idle pool — a move\n"
        "the direct-to-node planner cannot express. Gain > 1 means the staged\n"
        "planner beat direct-only end to end, including charged transfer cost.\n";
}

// ---- ext-transient-loi: bursty congestion, dynamic vs. static-belief plan ---

/// The square wave of the transient-congestion study: the device link
/// (tier 1) bursts to an oversubscribed LoI for half of each period. The
/// variant names the burst cadence in epochs.
memsim::LoiSchedule transient_schedule_of(const std::string& variant) {
  const std::uint64_t period = variant == "burst-32" ? 32 : 8;
  memsim::LoiSchedule schedule;
  schedule.set(1, memsim::LoiWaveform::square(period, 0.5, 85.0, 0.0));
  return schedule;
}

struct TransientRun {
  double elapsed_ms = 0.0;
  double transfer_cost_ms = 0.0;
  std::uint64_t promoted = 0;
  std::uint64_t staged = 0;
  std::uint64_t deferred = 0;
};

/// One planner run under the bursty schedule. With an empty `assumed_loi`
/// the planner prices every scan at the links' live state (and may defer
/// across bursts); a non-empty vector models a planner provisioned with
/// only the wave's time average — both runs *experience* the same wave.
TransientRun run_under_wave(const SweepPoint& point, const memsim::LoiSchedule& schedule,
                            std::vector<double> assumed_loi) {
  auto wl = point.make_workload();
  sim::EngineConfig cfg;
  const double r = point.ratio == kNodeOnly ? 0.5 : point.ratio;
  cfg.machine = machine_with_spill(machine_for_fabric(point.fabric), r, wl->footprint_bytes());
  cfg.loi_schedule = schedule;
  cfg.link_model = point.link_model;
  cfg.epoch_accesses = 250'000;  // frequent scan opportunities
  sim::Engine eng(cfg);

  MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.max_pages_per_scan = 64;
  mcfg.link_budget_pages = 64;
  mcfg.min_heat = 4;
  mcfg.assumed_loi = std::move(assumed_loi);
  MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  (void)wl->run(eng);
  eng.finish();

  TransientRun out;
  out.elapsed_ms = eng.elapsed_seconds() * 1e3;
  out.transfer_cost_ms = runtime.transfer_cost_s() * 1e3;
  out.promoted = runtime.pages_promoted();
  out.staged = runtime.staged_moves();
  out.deferred = runtime.deferred_moves();
  return out;
}

std::vector<Metric> measure_ext_transient_loi(const SweepPoint& point) {
  const memsim::LoiSchedule schedule = transient_schedule_of(point.variant);
  const TransientRun dynamic = run_under_wave(point, schedule, {});
  // The static belief: the wave's time average on the device link — what a
  // QoS provisioner without runtime telemetry would plan against.
  const double mean_loi = schedule.waveform(1)->mean();
  const TransientRun fixed = run_under_wave(point, schedule, {0.0, mean_loi, 0.0});
  return {{"dynamic_ms", dynamic.elapsed_ms},
          {"static_ms", fixed.elapsed_ms},
          {"dynamic_gain", dynamic.elapsed_ms > 0 ? fixed.elapsed_ms / dynamic.elapsed_ms : 1.0},
          {"dynamic_deferred", static_cast<double>(dynamic.deferred)},
          {"dynamic_staged", static_cast<double>(dynamic.staged)},
          {"dynamic_promoted", static_cast<double>(dynamic.promoted)},
          {"static_promoted", static_cast<double>(fixed.promoted)},
          {"dynamic_cost_ms", dynamic.transfer_cost_ms},
          {"static_cost_ms", fixed.transfer_cost_ms}};
}

void summarize_ext_transient_loi(const SweepResult& result, std::ostream& os) {
  Table t({"app", "ratio", "wave", "dynamic (ms)", "static-LoI (ms)", "gain", "deferred",
           "staged", "xfer dyn (ms)", "xfer static (ms)"});
  for (const auto& row : result.rows) {
    t.add_row({workloads::app_name(row.point.app), Table::pct(row.point.ratio),
               row.point.variant, Table::num(metric_or(row, "dynamic_ms"), 3),
               Table::num(metric_or(row, "static_ms"), 3),
               Table::num(metric_or(row, "dynamic_gain"), 3) + "x",
               Table::num(metric_or(row, "dynamic_deferred"), 0),
               Table::num(metric_or(row, "dynamic_staged"), 0),
               Table::num(metric_or(row, "dynamic_cost_ms"), 3),
               Table::num(metric_or(row, "static_cost_ms"), 3)});
  }
  t.print(os);
  os << "\nReading: both planners run under the same square-wave congestion on\n"
        "the device link; only their *pricing* differs. The dynamic planner\n"
        "re-prices every scan at the live LoI — it defers moves across bursts,\n"
        "shrinks the loaded segment's budget, and stages through momentarily\n"
        "idle links — while the static planner trusts the time average and pays\n"
        "the true (oversubscribed) cost for every move issued mid-burst. Gain\n"
        "> 1 means dynamic pricing beat static provisioning end to end.\n";
}

// ---- ext-queue-contention: migration bursts vs. demand misses on one queue --

/// Scan cadence encoded in the variant name: longer cadences clump the
/// same migration work into fewer, bigger bulk bursts.
std::uint64_t scan_period_of(const std::string& variant) {
  return variant == "scan-16" ? 16 : 8;
}

/// Epoch-trace statistics of one queue-model planner run. Epochs are split
/// into *burst* epochs (bulk migration bytes flowed on some link) and
/// *quiet* epochs (no bulk this epoch or within one estimator window
/// before it); epochs in the taper between the two count as neither, so
/// the burst/quiet contrast is not diluted by the window's decay.
struct ContentionRun {
  double elapsed_ms = 0.0;
  double burst_infl = 1.0;   ///< time-mean demand-latency inflation while bulk flows
  double quiet_infl = 1.0;   ///< same far from bursts (exactly 1: no cross traffic)
  double burst_share = 0.0;  ///< fraction of wall time in burst epochs
  double migrated_mib = 0.0;
  std::uint64_t promoted = 0;
  std::uint64_t self_deferred = 0;
};

ContentionRun run_queue_contention(const SweepPoint& point, std::uint64_t scan_period,
                                   bool defer) {
  auto wl = point.make_workload();
  sim::EngineConfig cfg;
  const double r = point.ratio == kNodeOnly ? 0.5 : point.ratio;
  cfg.machine = machine_with_spill(machine_for_fabric(point.fabric), r, wl->footprint_bytes());
  cfg.link_model = memsim::LinkModelKind::kQueue;  // the model under study
  cfg.epoch_accesses = 250'000;
  sim::Engine eng(cfg);

  MigrationConfig mcfg;
  mcfg.period_epochs = scan_period;  // long cadence => clumped bursts
  mcfg.max_pages_per_scan = 512;     // big scans: the burst is the point
  mcfg.link_budget_pages = 512;
  mcfg.min_heat = 1;  // greedy low-value tail for the deferral to trim
  mcfg.defer_on_self_congestion = defer;
  MigrationRuntime runtime(mcfg);
  runtime.attach(eng);

  (void)wl->run(eng);
  eng.finish();

  int window = 1;
  for (memsim::TierId t = 0; t < cfg.machine.num_tiers(); ++t)
    if (cfg.machine.topology.is_fabric(t) && cfg.machine.tier(t).link)
      window = std::max(window, cfg.machine.tier(t).link->queue_window_epochs);

  ContentionRun out;
  out.elapsed_ms = eng.elapsed_seconds() * 1e3;
  out.promoted = runtime.pages_promoted();
  out.self_deferred = runtime.self_deferred_moves();

  double burst_s = 0, burst_mult_s = 0, quiet_s = 0, quiet_mult_s = 0, total_s = 0;
  std::uint64_t total_bulk = 0;
  long long last_burst = -(window + 1);
  const auto& epochs = eng.epochs();
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto& e = epochs[i];
    std::uint64_t bulk = 0;
    for (const auto b : e.migration_bytes) bulk += b;
    total_bulk += bulk;
    // Worst demand-latency inflation across links: how much longer a miss
    // on the most bulk-loaded fabric path took *because of* the bulk class
    // (own-load effects divide out; see EpochRecord::link_demand_inflation).
    double infl = 1.0;
    for (const double m : e.link_demand_inflation) infl = std::max(infl, m);
    total_s += e.duration_s;
    if (bulk > 0) {
      last_burst = static_cast<long long>(i);
      burst_s += e.duration_s;
      burst_mult_s += infl * e.duration_s;
    } else if (static_cast<long long>(i) - last_burst > window) {
      quiet_s += e.duration_s;
      quiet_mult_s += infl * e.duration_s;
    }
  }
  if (burst_s > 0) out.burst_infl = burst_mult_s / burst_s;
  if (quiet_s > 0) out.quiet_infl = quiet_mult_s / quiet_s;
  if (total_s > 0) out.burst_share = burst_s / total_s;
  out.migrated_mib = static_cast<double>(total_bulk) / (1 << 20);
  return out;
}

std::vector<Metric> measure_ext_queue_contention(const SweepPoint& point) {
  const std::uint64_t period = scan_period_of(point.variant);
  const ContentionRun eager = run_queue_contention(point, period, /*defer=*/false);
  const ContentionRun deferred = run_queue_contention(point, period, /*defer=*/true);
  return {{"eager_ms", eager.elapsed_ms},
          {"deferred_ms", deferred.elapsed_ms},
          {"eager_burst_inflation", eager.burst_infl},
          {"eager_quiet_inflation", eager.quiet_infl},
          {"deferred_burst_inflation", deferred.burst_infl},
          {"deferred_quiet_inflation", deferred.quiet_infl},
          {"eager_burst_share", eager.burst_share},
          {"eager_migrated_mib", eager.migrated_mib},
          {"deferred_migrated_mib", deferred.migrated_mib},
          {"eager_promoted", static_cast<double>(eager.promoted)},
          {"deferred_promoted", static_cast<double>(deferred.promoted)},
          {"self_deferred", static_cast<double>(deferred.self_deferred)}};
}

void summarize_ext_queue_contention(const SweepResult& result, std::ostream& os) {
  Table t({"app", "ratio", "cadence", "burst infl", "quiet infl", "burst (deferred)",
           "self-deferred", "eager (ms)", "deferred (ms)"});
  for (const auto& row : result.rows) {
    t.add_row({workloads::app_name(row.point.app), Table::pct(row.point.ratio),
               row.point.variant,
               Table::num(metric_or(row, "eager_burst_inflation"), 3) + "x",
               Table::num(metric_or(row, "eager_quiet_inflation"), 3) + "x",
               Table::num(metric_or(row, "deferred_burst_inflation"), 3) + "x",
               Table::num(metric_or(row, "self_deferred"), 0),
               Table::num(metric_or(row, "eager_ms"), 3),
               Table::num(metric_or(row, "deferred_ms"), 3)});
  }
  t.print(os);
  os << "\nReading: under the two-class queue model a migration burst is no\n"
        "longer free — its bulk bytes share each link with the application's\n"
        "demand misses. The inflation columns isolate that coupling: how much\n"
        "longer a demand miss took than it would have with the bulk class\n"
        "silenced, at the same demand load. Burst epochs inflate (> 1x) while\n"
        "quiet epochs sit at exactly 1x, and the self-congestion deferral —\n"
        "which trims the low-value tail off each scan once its own scheduled\n"
        "traffic prices the path out — pulls the burst-epoch inflation back\n"
        "down (deferred < eager). The closed-form loi model cannot express\n"
        "either effect: there, inflation is identically 1x.\n";
}

// ---- ext-fleet-rack: open job stream over shared disaggregated pools --------

/// Variant grammar: `<policy>[-mig]-<load>` where policy is `ff` (first
/// fit) or `aware` (LoI-aware) and load is `lo`/`hi` (Poisson rate). Rows
/// at the same load share one arrival stream (seed_per_task=false), so the
/// policy axis is compared on identical inputs.
fleet::FleetConfig fleet_config_of(const SweepPoint& point) {
  fleet::FleetConfig cfg;
  cfg.pools = fleet::default_pools(2);
  cfg.policy = point.variant.rfind("ff", 0) == 0 ? fleet::AdmissionPolicy::kFirstFit
                                                 : fleet::AdmissionPolicy::kLoiAware;
  cfg.migration = point.variant.find("mig") != std::string::npos;
  cfg.base_seed = point.seed;
  return cfg;
}

double fleet_rate_of(const SweepPoint& point) {
  // lo keeps the rack under its node-time capacity; hi oversubscribes it
  // so queueing, stranding, and rejects become visible.
  return point.variant.size() >= 2 && point.variant.substr(point.variant.size() - 2) == "hi"
             ? 0.13
             : 0.06;
}

std::vector<Metric> measure_ext_fleet_rack(const SweepPoint& point) {
  const fleet::FleetConfig cfg = fleet_config_of(point);
  const auto classes = fleet::default_job_classes();
  std::vector<double> weights;
  for (const auto& cls : classes) weights.push_back(cls.weight);
  fleet::ArrivalSpec spec;
  spec.kind = fleet::ArrivalKind::kPoisson;
  spec.rate_per_s = fleet_rate_of(point);
  spec.count = 400;
  const auto arrivals = fleet::expand_poisson_arrivals(spec, weights, cfg.base_seed);
  // threads=1: fleet rows are already parallelised across the sweep pool,
  // and the fleet's own contract makes the thread count irrelevant anyway.
  const fleet::FleetResult r = fleet::run_fleet(cfg, classes, arrivals, 1);
  return {{"completed", static_cast<double>(r.completed)},
          {"rejected", static_cast<double>(r.rejected)},
          {"migrations", static_cast<double>(r.migrations)},
          {"p50_slowdown", r.p50_slowdown},
          {"p99_slowdown", r.p99_slowdown},
          {"p50_wait_s", r.p50_wait_s},
          {"p99_wait_s", r.p99_wait_s},
          {"mean_utilization", r.mean_utilization},
          {"stranded_gb", r.stranded_gb},
          {"makespan_s", r.makespan_s}};
}

void summarize_ext_fleet_rack(const SweepResult& result, std::ostream& os) {
  Table t({"variant", "done", "rej", "migr", "p50 slow", "p99 slow", "p99 wait (s)",
           "util", "stranded (GB)"});
  for (const auto& row : result.rows) {
    t.add_row({row.point.variant, Table::num(metric_or(row, "completed"), 0),
               Table::num(metric_or(row, "rejected"), 0),
               Table::num(metric_or(row, "migrations"), 0),
               Table::num(metric_or(row, "p50_slowdown"), 3) + "x",
               Table::num(metric_or(row, "p99_slowdown"), 3) + "x",
               Table::num(metric_or(row, "p99_wait_s"), 1),
               Table::pct(metric_or(row, "mean_utilization")),
               Table::num(metric_or(row, "stranded_gb"), 1)});
  }
  t.print(os);
  os << "\nReading: 400 Poisson job arrivals over a two-pool rack, the same\n"
        "arrival stream for every policy at a given load. At low load the\n"
        "policies tie — every job finds a quiet pool. Oversubscribed (hi),\n"
        "first-fit piles jobs onto pool 0 and its link queue inflates the\n"
        "tail (p99 slowdown, p99 wait), while LoI-aware placement levels the\n"
        "demand traffic across pools; enabling migration lets the rack also\n"
        "fix imbalance that develops after placement, at the price of bulk\n"
        "migration bursts feeding back into demand latency through the\n"
        "two-class queue. Stranded capacity is pooled GB idle behind a\n"
        "full node group — the paper's Sec. 7 stranding argument at rack\n"
        "scale.\n";
}

// ---- ext-loi-trace: replayed congestion trace vs. its time average ----------

/// A captured-style congestion trace for the three-tier chain: the device
/// link sees short oversubscribed spikes over a quiet floor; the switched
/// link behind it carries a slow swell. Values are % of link capacity per
/// epoch; the last sample holds. (Embedded so scenario rows stay pure
/// functions of their SweepPoint; `--loi-trace` replays the same format
/// from a CSV on disk.)
const std::vector<double> kTraceDeviceLink = {
    0,  0,  10, 15, 180, 240, 200, 30, 10, 0,  0,  20, 160, 220, 140, 20,
    10, 0,  0,  0,  30,  200, 260, 60, 10, 0,  15, 25, 180, 240, 180, 40,
    0,  0,  10, 20, 140, 200, 120, 30, 10, 0,  0,  0,  0,   0,   0,   0};
const std::vector<double> kTraceSwitchedLink = {
    0,  5,  10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 60, 60, 60,
    55, 50, 45, 40, 35, 30, 25, 20, 15, 10, 5,  0,  0,  0,  5,  10,
    15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 55, 50, 45, 40, 35, 30};

std::vector<Metric> measure_ext_loi_trace(const SweepPoint& point) {
  RunConfig cfg = spill_chain_config(point);
  memsim::LoiSchedule schedule;
  schedule.set(1, memsim::LoiWaveform::trace(kTraceDeviceLink));
  schedule.set(2, memsim::LoiWaveform::trace(kTraceSwitchedLink));
  if (point.variant == "replay") {
    cfg.loi_schedule = schedule;
  } else {
    // "averaged": constant per-link LoI at the whole-trace mean — what a
    // static QoS provisioner would budget from the captured trace. Note
    // this is the *trace's* mean, not the mean a given run experiences:
    // a run shorter than the trace sees only its opening window (the
    // mean_loi_t* metrics report what each run actually saw).
    cfg.background_loi_per_tier = {0.0, schedule.waveform(1)->mean(),
                                   schedule.waveform(2)->mean()};
  }
  auto wl = point.make_workload();
  const auto run = run_workload(*wl, cfg);

  double peak_t1 = 0.0, peak_t2 = 0.0, mean_t1 = 0.0, mean_t2 = 0.0, total_s = 0.0;
  for (const auto& epoch : run.epochs) {
    if (epoch.link_loi.size() < 3) continue;
    peak_t1 = std::max(peak_t1, epoch.link_loi[1]);
    peak_t2 = std::max(peak_t2, epoch.link_loi[2]);
    mean_t1 += epoch.link_loi[1] * epoch.duration_s;
    mean_t2 += epoch.link_loi[2] * epoch.duration_s;
    total_s += epoch.duration_s;
  }
  if (total_s > 0) {
    mean_t1 /= total_s;
    mean_t2 /= total_s;
  }
  return {{"time_ms", run.elapsed_s * 1e3},
          {"remote_access", run.remote_access_ratio()},
          {"peak_loi_t1", peak_t1},
          {"peak_loi_t2", peak_t2},
          {"mean_loi_t1", mean_t1},
          {"mean_loi_t2", mean_t2}};
}

void summarize_ext_loi_trace(const SweepResult& result, std::ostream& os) {
  Table t({"app", "schedule", "time (ms)", "%off-node", "peak LoI t1/t2",
           "time-mean LoI t1/t2"});
  for (const auto& row : result.rows) {
    const double ms = metric_or(row, "time_ms");
    t.add_row({workloads::app_name(row.point.app), row.point.variant, Table::num(ms, 3),
               Table::pct(metric_or(row, "remote_access")),
               Table::num(metric_or(row, "peak_loi_t1"), 0) + " / " +
                   Table::num(metric_or(row, "peak_loi_t2"), 0),
               Table::num(metric_or(row, "mean_loi_t1"), 1) + " / " +
                   Table::num(metric_or(row, "mean_loi_t2"), 1)});
  }
  t.print(os);
  os << "\nReading: the averaged run injects the whole-trace mean — the level a\n"
        "static QoS provisioner would budget from the captured trace — while\n"
        "the replay exposes each run to the actual burst *timing*. The\n"
        "time-mean column (duration-weighted LoI each run experienced) shows\n"
        "why provisioning by trace average misjudges both ways: a run that\n"
        "lands on the trace's burst cluster (Hypre here, experienced mean\n"
        "well above the trace average) pays far more than budgeted, while a\n"
        "short run threading a quiet window (BFS) pays less. This timing gap\n"
        "between static provisioning and runtime behavior is what rack-scale\n"
        "simulators (DRackSim) model explicitly.\n";
}

// ---- ext-asym-loi: per-link interference vectors ----------------------------

std::vector<Metric> measure_ext_asym_loi(const SweepPoint& point) {
  RunConfig cfg = spill_chain_config(point);
  cfg.background_loi_per_tier = per_link_loi_of(point.variant);
  auto wl = point.make_workload();
  const auto run = run_workload(*wl, cfg);
  std::vector<Metric> metrics{{"time_ms", run.elapsed_s * 1e3},
                              {"remote_access", run.remote_access_ratio()}};
  const auto total = static_cast<double>(run.counters.dram_bytes_total());
  for (memsim::TierId t = 0; t < cfg.machine.num_tiers(); ++t)
    metrics.emplace_back(
        "share_t" + std::to_string(t),
        total > 0 ? static_cast<double>(run.counters.dram_bytes(t)) / total : 0.0);
  return metrics;
}

void summarize_ext_asym_loi(const SweepResult& result, std::ostream& os) {
  Table t({"app", "topology", "links", "time (ms)", "%off-node", "vs idle"});
  double idle_ms = 0.0;
  for (const auto& row : result.rows) {
    const double ms = metric_or(row, "time_ms");
    if (row.point.variant == "idle") idle_ms = ms;
    t.add_row({workloads::app_name(row.point.app), row.point.fabric, row.point.variant,
               Table::num(ms, 3), Table::pct(metric_or(row, "remote_access")),
               Table::num(idle_ms > 0 && ms > 0 ? ms / idle_ms : 1.0, 3) + "x"});
  }
  t.print(os);
  os << "\nReading: a single global LoI cannot distinguish these columns. Loading\n"
        "only the near link hurts more than loading only the far link whenever\n"
        "the spill chain concentrates traffic on the first pool; both-loaded\n"
        "approaches the sum of the asymmetric slowdowns (links queue\n"
        "independently).\n";
}

std::vector<App> all_apps() {
  return {workloads::kAllApps, workloads::kAllApps + std::size(workloads::kAllApps)};
}

}  // namespace

namespace detail {

void register_builtin_scenarios(ScenarioRegistry& registry) {
  {
    Scenario s;
    s.name = "fig05";
    s.artifact = "Figure 5";
    s.caption = "roofline placement of application phases";
    s.spec.apps = all_apps();
    s.measure = measure_fig05;
    s.summarize = summarize_fig05;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig06";
    s.artifact = "Figure 6";
    s.caption = "bandwidth-capacity scaling curves at 1x/2x/4x inputs";
    s.spec.apps = all_apps();
    s.spec.scales = {1, 2, 4};
    // The summary compares curves *across* scales (Kolmogorov distances),
    // so all points share one seed — otherwise seed-driven input
    // randomness (e.g. a different BFS graph per point) would be
    // confounded with the scale effect the figure isolates.
    s.spec.seed_per_task = false;
    s.measure = measure_fig06;
    s.summarize = summarize_fig06;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig08";
    s.artifact = "Figure 8";
    s.caption = "prefetch accuracy / coverage / excess traffic / gain";
    s.spec.apps = all_apps();
    s.measure = measure_fig08;
    s.summarize = summarize_fig08;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig09";
    s.artifact = "Figure 9";
    s.caption = "remote access ratio per phase vs. R_cap / R_bw references";
    s.spec.apps = all_apps();
    s.spec.ratios = {0.25, 0.50, 0.75};
    s.measure = measure_fig09;
    s.summarize = summarize_fig09;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig10";
    s.artifact = "Figure 10";
    s.caption = "sensitivity to interference (relative performance vs. LoI)";
    s.spec.apps = all_apps();
    s.spec.ratios = {0.25, 0.50, 0.75};
    s.measure = measure_fig10;
    s.summarize = summarize_fig10;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig11";
    s.artifact = "Figure 11";
    s.caption = "LBench: LoI scaling, IC vs. PCM saturation, per-app induced IC";
    s.spec.apps = all_apps();
    s.spec.ratios = {0.50};
    s.measure = measure_fig11;
    s.summarize = summarize_fig11;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig12";
    s.artifact = "Figure 12";
    s.caption = "BFS data-placement optimization (Sec. 7.1 case study)";
    s.spec.apps = {App::kBFS};
    s.spec.ratios = {0.50, 0.75};
    s.spec.variants = {"baseline", "parents-first", "optimized"};
    // Variants are compared against the baseline, so every variant must
    // traverse the same graph: share one seed across the grid.
    s.spec.seed_per_task = false;
    s.measure = measure_fig12;
    s.summarize = summarize_fig12;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-cxl";
    s.artifact = "Extension: CXL what-if";
    s.caption = "pooling penalty and sensitivity across pool fabrics";
    s.spec.apps = {App::kHypre, App::kXSBench, App::kBFS};
    s.spec.fabrics = {"upi", "cxl", "cxl-switched", "split"};
    // Fabrics are compared per app: share one seed so the workload input
    // is held fixed across fabrics.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_cxl;
    s.summarize = summarize_ext_cxl;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-interleave";
    s.artifact = "Extension: weighted interleave";
    s.caption = "first-touch vs. N:M interleaving on bandwidth-bound apps";
    s.spec.apps = {App::kHypre, App::kNekRS};
    s.spec.variants = {"first-touch", "interleave-2:1", "interleave-1:1"};
    // Policies are compared against first-touch per app: hold the
    // workload input fixed across the policy axis.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_interleave;
    s.summarize = summarize_ext_interleave;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-three-tier";
    s.artifact = "Extension: three-tier chain";
    s.caption = "DRAM + direct CXL + switched pool capacity spill chain";
    s.spec.apps = {App::kHypre, App::kXSBench, App::kBFS};
    s.spec.ratios = {0.50, 0.75};
    s.spec.fabrics = {"cxl", "three-tier"};
    // Topologies are compared per app and ratio: hold the workload input
    // fixed across the topology axis.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_three_tier;
    s.summarize = summarize_ext_three_tier;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-staged-migration";
    s.artifact = "Extension: staged migration";
    s.caption = "cost-model planner: direct-only vs. multi-hop staging on an N-tier chain";
    s.spec.apps = {App::kHypre, App::kXSBench};
    s.spec.ratios = {0.50, 0.75};
    s.spec.fabrics = {"three-tier"};
    s.spec.variants = {"idle", "mid-loaded", "overloaded"};
    // Direct and staged planners are compared on the same run, and rows are
    // compared across the load axis: hold the workload input fixed.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_staged_migration;
    s.summarize = summarize_ext_staged_migration;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-transient-loi";
    s.artifact = "Extension: transient interference";
    s.caption = "square-wave congestion: live re-pricing + deferral vs. a static-LoI plan";
    s.spec.apps = {App::kHypre};
    s.spec.ratios = {0.50, 0.75};
    s.spec.fabrics = {"three-tier"};
    s.spec.variants = {"burst-8", "burst-32"};
    // Dynamic and static-belief planners are compared on the same run:
    // hold the workload input fixed.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_transient_loi;
    s.summarize = summarize_ext_transient_loi;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-queue-contention";
    s.artifact = "Extension: queue contention";
    s.caption = "two-class link queues: migration bursts inflating demand-miss latency";
    s.spec.apps = {App::kHypre};
    s.spec.ratios = {0.50, 0.75};
    s.spec.fabrics = {"three-tier"};
    s.spec.variants = {"scan-8", "scan-16"};
    // Eager and deferred planners are compared on the same run, and burst
    // epochs against quiet ones: hold the workload input fixed.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_queue_contention;
    s.summarize = summarize_ext_queue_contention;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-fleet-rack";
    s.artifact = "Extension: fleet-scale rack";
    s.caption = "open job stream over shared pools: admission, contention, migration";
    s.spec.apps = {App::kHPL};  // single neutral axis value; jobs are synthetic
    s.spec.variants = {"ff-lo", "aware-lo", "ff-hi", "aware-hi", "ff-mig-hi",
                       "aware-mig-hi"};
    // Policies are compared on the same arrival stream per load level:
    // hold the stream's base seed fixed across the variant axis.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_fleet_rack;
    s.summarize = summarize_ext_fleet_rack;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-loi-trace";
    s.artifact = "Extension: trace-driven interference";
    s.caption = "replayed per-link congestion trace vs. its time average on the chain";
    s.spec.apps = {App::kHypre, App::kBFS};
    s.spec.ratios = {0.50};
    s.spec.fabrics = {"three-tier"};
    s.spec.variants = {"replay", "averaged"};
    // Replay and averaged rows are compared per app: hold the input fixed.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_loi_trace;
    s.summarize = summarize_ext_loi_trace;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-asym-loi";
    s.artifact = "Extension: asymmetric interference";
    s.caption = "per-link LoI vectors: load one pool while its neighbor idles";
    s.spec.apps = {App::kHypre, App::kBFS};
    s.spec.ratios = {0.50};
    s.spec.fabrics = {"three-tier", "hybrid"};
    s.spec.variants = {"idle", "near-loaded", "far-loaded", "both-loaded"};
    // Load vectors are compared against the idle row per app and topology.
    s.spec.seed_per_task = false;
    s.measure = measure_ext_asym_loi;
    s.summarize = summarize_ext_asym_loi;
    registry.add(std::move(s));
  }
  {
    Scenario s;
    s.name = "ext-hybrid";
    s.artifact = "Extension: split+pool hybrid";
    s.caption = "two asymmetric pools (CXL device + peer-borrowed) side by side";
    s.spec.apps = {App::kHypre, App::kBFS};
    s.spec.ratios = {0.50};
    s.spec.fabrics = {"cxl", "hybrid", "split"};
    s.spec.seed_per_task = false;
    s.measure = measure_ext_hybrid;
    s.summarize = summarize_ext_hybrid;
    registry.add(std::move(s));
  }
}

}  // namespace detail
}  // namespace memdis::core
