// Built-in sweep scenarios: every paper figure (and extension study) that
// simulates anything, registered under a stable name.
//
// A scenario's measure() must be a pure function of its SweepPoint so the
// engine's determinism contract holds (see sweep.h); summarize() turns the
// collected rows back into the tables the old per-figure bench mains
// printed, and each paper figure's claims check the paper's findings on the
// same rows.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/table.h"
#include "common/units.h"
#include "core/advisor.h"
#include "core/deployment.h"
#include "core/interference.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "core/roofline.h"
#include "core/scenario_registry.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "sched/colocation.h"
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

// ---- paper-claim helpers ------------------------------------------------------

using enum workloads::App;
constexpr auto kOrdering = ClaimKind::kOrdering;
constexpr auto kMonotone = ClaimKind::kMonotone;
constexpr auto kMagnitude = ClaimKind::kMagnitude;

std::vector<App> all_apps() {
  return {workloads::kAllApps, workloads::kAllApps + std::size(workloads::kAllApps)};
}

/// Every app but those of `except`.
std::vector<App> others(const std::vector<App>& except) {
  std::vector<App> out;
  for (const App app : workloads::kAllApps)
    if (std::find(except.begin(), except.end(), app) == except.end()) out.push_back(app);
  return out;
}

/// Whether `pred` holds for every app of `apps`. Tests them all, so the
/// claim's log shows every value.
bool every(const std::vector<App>& apps, const std::function<bool(App)>& pred) {
  bool holds = true;
  for (const App app : apps) holds = pred(app) && holds;
  return holds;
}

/// Whether each of `leaders` has a higher `name` than every other app (a
/// lower one, with `sign` -1).
bool leads(ClaimRows& r, const std::vector<App>& leaders, const std::string& name,
           double ratio = kNodeOnly, double sign = 1.0) {
  double bound = std::numeric_limits<double>::infinity();
  for (const App app : leaders) bound = std::min(bound, sign * r(app, name, ratio));
  return every(others(leaders), [&](App app) { return sign * r(app, name, ratio) < bound; });
}

/// Reads `name` of each of `apps` into the log: a magnitude claim's model side.
bool show(ClaimRows& r, const std::vector<App>& apps, const std::string& name,
          double ratio = kNodeOnly) {
  for (const App app : apps) r(app, name, ratio);
  return true;
}

std::string label(App app, const char* what) {
  return std::string(workloads::app_name(app)).append(" ").append(what);
}

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
}

std::vector<Claim> fig05_claims() {
  const auto roof = RooflineModel::local_tier(memsim::MachineConfig::skylake_testbed());
  const auto use = [roof](ClaimRows& r, App app) {
    const double attainable = roof.attainable_gflops(std::max(r(app, "p2_ai"), 1e-3));
    return r.note(label(app, "p2 roof use"), r(app, "p2_gflops") / attainable);
  };
  return {{kOrdering, "Phases span the roofline: HPL-p2 right of the ridge, Hypre/NekRS-p2 left",
           [=](ClaimRows& r) {
             return every({kHPL, kHypre, kNekRS}, [&](App app) {
               return (r(app, "p2_ai") > roof.ridge_point()) == (app == kHPL);
             });
           }},
          {kOrdering, "BFS and XSBench run far below the roofs: the least p2 roof use of all",
           [=](ClaimRows& r) {
             const double bound = std::max(use(r, kBFS), use(r, kXSBench));
             return every(others({kBFS, kXSBench}), [&](App app) { return use(r, app) > bound; });
           }}};
}

// ---- fig06: bandwidth-capacity scaling curves -------------------------------

std::vector<Metric> measure_fig06(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  const auto& curve = l1.scaling_curve;
  std::vector<Metric> metrics;
  metrics.emplace_back("footprint_mib", static_cast<double>(l1.run.peak_rss_bytes) / (1 << 20));
  for (const double f : {0.10, 0.20, 0.30, 0.50, 0.70, 0.90})
    metrics.emplace_back("af_" + std::to_string(static_cast<int>(f * 100)),
                         curve.access_fraction_at(f));
  metrics.emplace_back("skew", curve.skewness());
  const auto samples = curve.sample(kCurveSamples);
  for (std::size_t i = 0; i < samples.size(); ++i)
    metrics.emplace_back(curve_metric(i), samples[i]);
  return metrics;
}

/// The sampled max |CDF| distance of `app`'s scaling curve at `scale` from
/// its curve at 1x.
double curve_shift(ClaimRows& r, App app, int scale) {
  double d = 0.0;
  for (std::size_t i = 0; i < kCurveSamples; ++i)
    d = std::max(d, std::abs(r(app, curve_metric(i)) - r(app, curve_metric(i), kNodeOnly, scale)));
  return d;
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

  os << "\nCross-scale curve distance (max |CDF_a - CDF_b|, sampled):\n";
  Table d({"app", "1x vs 2x", "1x vs 4x"});
  ClaimRows rows(result.rows);
  for (const auto app : workloads::kAllApps)
    d.add_row({workloads::app_name(app), Table::num(curve_shift(rows, app, 2), 3),
               Table::num(curve_shift(rows, app, 4), 3)});
  d.print(os);
}

std::vector<Claim> fig06_claims() {
  const auto skew_moves = [](ClaimRows& r, App app, double sign) {  // sign 1: rises 1x->2x->4x
    const double s1 = sign * r(app, "skew"), s2 = sign * r(app, "skew", kNodeOnly, 2),
                 s4 = sign * r(app, "skew", kNodeOnly, 4);
    return s1 < s2 && s2 < s4;
  };
  return {{kOrdering,
           "HPL and Hypre access near-uniformly (skew < 0.45); BFS and XSBench are skewed "
           "(> 0.5), BFS by 0.2 more than HPL",
           [](ClaimRows& r) {
             const bool uniform = r(kHPL, "skew") < 0.45 && r(kHypre, "skew") < 0.45;
             return uniform && r(kXSBench, "skew") > 0.5 &&
                    r(kBFS, "skew") > std::max(0.5, r(kHPL, "skew") + 0.2);
           }},
          {kMonotone, "BFS shifts left as the input grows: its skew rises from 1x to 2x to 4x",
           [=](ClaimRows& r) { return skew_moves(r, kBFS, 1.0); },
           "BFS skew dips at 2x before it rises: 0.559 -> 0.548 -> 0.594"},
          {kMonotone, "SuperLU moves toward uniform with scale: its skew falls from 1x to 2x to 4x",
           [=](ClaimRows& r) { return skew_moves(r, kSuperLU, -1.0); },
           "SuperLU grows more skewed with scale: 0.484 -> 0.509 -> 0.510"},
          {kOrdering,
           "The others overlap across scales: the max |CDF| distance of HPL, NekRS, Hypre and "
           "XSBench, 1x vs. 4x, is below 0.12",
           [](ClaimRows& r) {
             return every({kHPL, kNekRS, kHypre, kXSBench}, [&](App app) {
               return r.note(label(app, "1x-4x distance"), curve_shift(r, app, 4)) < 0.12;
             });
           },
           "NekRS's curve shifts by 0.197 from 1x to 4x"}};
}

// ---- fig07: prefetch traffic timelines -------------------------------------

constexpr std::size_t kFig07Buckets = 12;

std::string fills_metric(const char* side, std::size_t bucket) {
  return std::string("fills_") + side + "_" + std::to_string(bucket + 1);
}

/// Rebuckets an epoch timeline into `buckets` equal time slices of
/// cacheline-fill counts.
std::vector<double> bucketize(const std::vector<sim::EpochRecord>& epochs,
                              std::size_t buckets) {
  double total_time = 0.0;
  for (const auto& e : epochs) total_time += e.duration_s;
  std::vector<double> out(buckets, 0.0);
  if (total_time <= 0) return out;
  for (const auto& e : epochs) {
    // Spread the epoch's fills over the buckets it spans.
    const double t0 = e.start_s;
    const double t1 = e.start_s + e.duration_s;
    const auto b0 = static_cast<std::size_t>(t0 / total_time * buckets);
    const auto b1 =
        std::min(static_cast<std::size_t>(t1 / total_time * buckets), buckets - 1);
    const double per = static_cast<double>(e.l2_lines_in) / static_cast<double>(b1 - b0 + 1);
    for (std::size_t b = b0; b <= b1; ++b) out[b] += per;
  }
  return out;
}

std::vector<Metric> measure_fig07(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  const auto pf = profiler.prefetch(*wl, l1);
  const auto on = bucketize(l1.run.epochs, kFig07Buckets);
  const auto off = bucketize(pf.off.epochs, kFig07Buckets);
  std::vector<Metric> metrics;
  double sum_on = 0.0;
  double sum_off = 0.0;
  for (std::size_t b = 0; b < kFig07Buckets; ++b) {
    sum_on += on[b];
    sum_off += off[b];
    metrics.emplace_back(fills_metric("on", b), on[b]);
    metrics.emplace_back(fills_metric("off", b), off[b]);
  }
  metrics.emplace_back("total_on", sum_on);
  metrics.emplace_back("total_off", sum_off);
  metrics.emplace_back("performance_gain", pf.metrics.performance_gain);
  // The buckets can resolve no more of the timeline than its epochs.
  metrics.emplace_back("epochs_on", static_cast<double>(l1.run.epochs.size()));
  metrics.emplace_back("epochs_off", static_cast<double>(pf.off.epochs.size()));
  return metrics;
}

void summarize_fig07(const SweepResult& result, std::ostream& os) {
  for (const auto& row : result.rows) {
    os << "\n" << workloads::app_name(row.point.app) << " (M cachelines per time bucket):\n";
    Table t({"bucket", "w. prefetch", "w.o. prefetch", "ratio"});
    for (std::size_t b = 0; b < kFig07Buckets; ++b) {
      const double on = metric_or(row, fills_metric("on", b));
      const double off = metric_or(row, fills_metric("off", b));
      t.add_row({std::to_string(b + 1), Table::num(on * 1e-6, 3), Table::num(off * 1e-6, 3),
                 off > 0 ? Table::num(on / off, 2) : "-"});
    }
    t.print(os);
    const double sum_on = metric_or(row, "total_on");
    const double sum_off = metric_or(row, "total_off");
    os << "total fills: w. prefetch " << Table::num(sum_on * 1e-6, 2) << "M, w.o. prefetch "
       << Table::num(sum_off * 1e-6, 2) << "M (+"
       << Table::pct(sum_off > 0 ? sum_on / sum_off - 1.0 : 0.0)
       << " traffic), performance gain from prefetching: "
       << Table::pct(metric_or(row, "performance_gain")) << "\n";
    os << "epochs behind the buckets: w. prefetch "
       << static_cast<std::size_t>(metric_or(row, "epochs_on")) << ", w.o. prefetch "
       << static_cast<std::size_t>(metric_or(row, "epochs_off")) << "\n";
  }
}

std::vector<Claim> fig07_claims() {
  const std::vector<App> apps = {kNekRS, kHPL, kXSBench};
  return {{kOrdering, "Traffic per interval is visibly higher with prefetching: in every bucket",
           [=](ClaimRows& r) {
             return every(apps, [&](App app) {
               double lowest = std::numeric_limits<double>::infinity();
               for (std::size_t b = 0; b < kFig07Buckets; ++b)
                 lowest = std::min(lowest, r(app, fills_metric("on", b)) /
                                               r(app, fills_metric("off", b)));
               return r.note(label(app, "lowest on/off bucket ratio"), lowest) > 1.0;
             });
           },
           "NekRS's on/off ratio rounds to 1.00 in all 12 buckets (+0.0% total); HPL reads "
           "fewer fills with prefetch in buckets 3-8 (ratios 0.38-0.92)"},
          {kMagnitude, "Total traffic grows only a few percent with prefetching",
           [=](ClaimRows& r) {
             for (const App app : apps)
               r.note(label(app, "traffic growth"), r(app, "total_on") / r(app, "total_off") - 1);
             return true;
           }},
          {kOrdering, "NekRS gains the most runtime from prefetching, XSBench the least",
           [](ClaimRows& r) {
             const double hpl = r(kHPL, "performance_gain");
             return r(kNekRS, "performance_gain") > hpl && hpl > r(kXSBench, "performance_gain");
           }}};
}

// ---- fig08: prefetch metrics ------------------------------------------------

std::vector<Metric> measure_fig08(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l1 = profiler.level1(*wl);
  const auto pf = profiler.prefetch(*wl, l1).metrics;
  return {{"accuracy", pf.accuracy},
          {"coverage", pf.coverage},
          {"excess_traffic", pf.excess_traffic},
          {"performance_gain", pf.performance_gain}};
}

void summarize_fig08(const SweepResult& result, std::ostream& os) {
  Table t({"app", "accuracy", "coverage", "excess traffic", "performance gain"});
  for (const auto& row : result.rows)
    t.add_row({workloads::app_name(row.point.app), Table::pct(metric_or(row, "accuracy")),
               Table::pct(metric_or(row, "coverage")),
               Table::pct(metric_or(row, "excess_traffic")),
               Table::pct(metric_or(row, "performance_gain"))});
  t.print(os);
}

std::vector<Claim> fig08_claims() {
  return {{kOrdering, "All but XSBench and BFS are above ~80% prefetch accuracy",
           [](ClaimRows& r) {
             return every(all_apps(), [&](App app) {
               return (r(app, "accuracy") > 0.8) == (app != kXSBench && app != kBFS);
             });
           },
           "SuperLU's accuracy is 68.6%, below 80%, and BFS's 97.4%, above it"},
          {kOrdering, "Hypre and NekRS lead coverage, above 50%; XSBench covers below 20%",
           [](ClaimRows& r) {
             return leads(r, {kHypre, kNekRS}, "coverage") && r(kHypre, "coverage") > 0.5 &&
                    r(kNekRS, "coverage") > 0.5 && r(kXSBench, "coverage") < 0.2;
           }},
          {kOrdering, "SuperLU has the highest excess traffic, above 8%",
           [](ClaimRows& r) {
             return leads(r, {kSuperLU}, "excess_traffic") && r(kSuperLU, "excess_traffic") > 0.08;
           }},
          {kOrdering, "XSBench's prefetcher throttles itself: lowest accuracy, excess < 10%",
           [](ClaimRows& r) {
             return leads(r, {kXSBench}, "accuracy", kNodeOnly, -1.0) &&
                    r(kXSBench, "excess_traffic") < 0.10;
           }},
          {kOrdering, "Prefetching gains NekRS more than 25% and XSBench less than 10%",
           [](ClaimRows& r) {
             return r(kNekRS, "performance_gain") > 0.25 && r(kXSBench, "performance_gain") < 0.10;
           }},
          {kMagnitude,
           "Hypre and NekRS cover ~70%, XSBench < 1%; excess traffic is 2-6% except SuperLU's "
           "~37%, which still gains ~31%",
           [](ClaimRows& r) {
             show(r, {kHypre, kNekRS, kXSBench}, "coverage");
             show(r, all_apps(), "excess_traffic");
             return show(r, {kSuperLU}, "performance_gain");
           },
           "coverage runs higher (Hypre 95.2%, NekRS 95.3%, XSBench 5.3%), and SuperLU's "
           "excess traffic is 13.8% and its gain 5.9%"}};
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
  metrics.emplace_back("time_ms", l2.run.elapsed_s * 1e3);
  metrics.emplace_back("verified", l2.run.result.verified ? 1.0 : 0.0);
  metrics.emplace_back("remote_capacity_measured", l2.remote_capacity_ratio_measured);
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
}

std::vector<Claim> fig09_claims() {
  return {{kOrdering, "At 25% remote most phases sit within the R_cap/R_bw band (little tuning)",
           [](ClaimRows& r) {
             double phases = 0.0, balanced = 0.0;
             for (const App app : all_apps())
               for (const char* tag : {"p1_verdict", "p2_verdict", "p3_verdict"}) {
                 if (!r.has(app, tag, 0.25)) continue;
                 ++phases;
                 balanced += r(app, tag, 0.25) == static_cast<double>(PlacementVerdict::kBalanced);
               }
             return r.note("balanced phases", balanced) > r.note("phases", phases) / 2;
           }},
          {kOrdering, "At 75% remote HPL, NekRS and BFS exceed even R_cap; every p2 but XSBench's "
                      "sits above R_bw",
           [](ClaimRows& r) {
             const bool cap =
                 every({kHPL, kNekRS, kBFS}, [&](App a) { return r(a, "p2_remote", 0.75) > 0.75; });
             return every(others({kXSBench}), [&](App a) {
                      return r(a, "p2_remote", 0.75) > r(a, "r_bw", 0.75);
                    }) && cap;
           }},
          {kOrdering, "XSBench stays below ~6% remote access in every configuration",
           [](ClaimRows& r) {
             bool holds = true;
             for (const double ratio : {0.25, 0.50, 0.75})
               for (const char* name : {"p1_remote", "p2_remote"})
                 holds = r(kXSBench, name, ratio) < 0.06 && holds;
             return holds;
           },
           "XSBench-p1 is 21.3% / 46.8% / 72.4% remote at 25% / 50% / 75%, XSBench-p2 10.3% "
           "at 75%"},
          {kOrdering, "XSBench's p2 stays below 10% remote at 25% and 50%",
           [](ClaimRows& r) {
             return r(kXSBench, "p2_remote", 0.25) < 0.10 && r(kXSBench, "p2_remote", 0.5) < 0.10;
           }},
          {kOrdering, "BFS's p2 is almost fully remote at 75% (> 90%), flagged above R_cap",
           [](ClaimRows& r) {
             return r(kBFS, "p2_remote", 0.75) > 0.9 && r(kBFS, "p2_weight", 0.75) > 0 &&
                    r(kBFS, "p2_verdict", 0.75) ==
                        static_cast<double>(PlacementVerdict::kAboveCapacityRef);
           }},
          {kMonotone,
           "Remote access of HPL, Hypre and NekRS grows from 25% to 75%; pooling never speeds a "
           "run up (time at 75% >= 0.98x time at 25%)",
           [](ClaimRows& r) {
             const bool grows = every({kHPL, kHypre, kNekRS}, [&](App a) {
               return r(a, "remote_access_total", 0.75) > r(a, "remote_access_total", 0.25);
             });
             return every(all_apps(), [&](App a) {
                      return r(a, "time_ms", 0.75) >= 0.98 * r(a, "time_ms", 0.25);
                    }) && grows;
           }},
          {kOrdering,
           "At 50% every app verifies, its remote ratios lie in [0, 1], its phase weights sum "
           "to (0.7, 1] and its measured R_cap is within 0.15 of 50% (0.12: HPL, Hypre)",
           [](ClaimRows& r) {
             const auto unit = [](double v) { return v >= 0.0 && v <= 1.0; };
             return every(all_apps(), [&](App app) {
               const double off = std::abs(r(app, "remote_capacity_measured", 0.5) - 0.5);
               bool holds = r(app, "verified", 0.5) == 1.0 &&
                            unit(r(app, "remote_access_total", 0.5)) &&
                            off <= (app == kHPL || app == kHypre ? 0.12 : 0.15);
               double weights = 0.0;
               for (const std::string tag : {"p1", "p2", "p3"}) {
                 if (!r.has(app, tag + "_weight", 0.5)) continue;
                 weights += r(app, tag + "_weight", 0.5);
                 holds = unit(r(app, tag + "_remote", 0.5)) && holds;
               }
               return holds && weights > 0.7 && weights <= 1.0 + 1e-9;
             });
           }}};
}

// ---- fig10: interference sensitivity ----------------------------------------

const std::vector<double> kFig10Lois = {0, 10, 20, 30, 40, 50};

std::vector<Metric> measure_fig10(const SweepPoint& point) {
  auto wl = point.make_workload();
  const RunConfig cfg = point.run_config();
  const auto curve = sensitivity_sweep(*wl, cfg, run_workload(*wl, cfg), kFig10Lois, "p2");
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
}

std::vector<Claim> fig10_claims() {
  return {{kMonotone, "Every app degrades monotonically with LoI, at every split",
           [](ClaimRows& r) {
             double rising = 0.0;
             for (const App app : all_apps())
               for (const double ratio : {0.25, 0.50, 0.75})
                 for (std::size_t i = 1; i < kFig10Lois.size(); ++i)
                   rising += r(app, loi_metric(kFig10Lois[i]), ratio) >
                             r(app, loi_metric(kFig10Lois[i - 1]), ratio);
             return r.note("rising LoI steps", rising) == 0.0;
           }},
          {kOrdering,
           "Hypre and NekRS are the most sensitive at LoI 50 on the 50/50 split; Hypre keeps "
           "< 0.93 relative performance, HPL > 0.90",
           [](ClaimRows& r) {
             return leads(r, {kHypre, kNekRS}, "loss_at_50", 0.5) &&
                    r(kHypre, "relperf_loi50", 0.5) < 0.93 && r(kHPL, "relperf_loi50", 0.5) > 0.90;
           }},
          {kOrdering, "HPL stays under ~5% loss at LoI 50 on the 50/50 split",
           [](ClaimRows& r) { return r(kHPL, "loss_at_50", 0.5) < 0.05; }, "HPL loses 6.3%"},
          {kOrdering, "XSBench and BFS sit in between: they lose more than HPL, less than Hypre "
                      "and NekRS",
           [](ClaimRows& r) {
             const double low = r(kHPL, "loss_at_50", 0.5);
             const double high =
                 std::min(r(kHypre, "loss_at_50", 0.5), r(kNekRS, "loss_at_50", 0.5));
             return every({kXSBench, kBFS}, [&](App app) {
               const double loss = r(app, "loss_at_50", 0.5);
               return loss > low && loss < high;
             });
           },
           "XSBench loses 0.1%, less than HPL's 6.3%"},
          {kMagnitude, "Hypre loses ~15% and NekRS ~13% at LoI 50 on the 50/50 split",
           [](ClaimRows& r) { return show(r, {kHypre, kNekRS}, "loss_at_50", 0.5); },
           "Hypre and NekRS both lose 16.6%, and match to three digits at 75% too"}};
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
}

std::vector<Claim> fig11_claims() {
  return {{kOrdering, "NekRS and Hypre induce the most interference",
           [](ClaimRows& r) { return leads(r, {kNekRS, kHypre}, "ic_mean", 0.5); }},
          {kOrdering, "HPL and XSBench induce the least interference",
           [](ClaimRows& r) { return leads(r, {kHPL, kXSBench}, "ic_mean", 0.5, -1.0); },
           "SuperLU induces 1.14, less than HPL's 1.28"},
          {kOrdering, "Compute phases dominate the spread: Hypre's phases induce IC >= 0.01 apart",
           [](ClaimRows& r) {
             const double spread = r(kHypre, "ic_max", 0.5) - r(kHypre, "ic_min", 0.5);
             return r.note("Hypre phase IC spread", spread) >= 0.01;
           },
           "Hypre's phases all induce 2.08 (2.0816 - 2.0817), and NekRS's too"}};
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
  const RunConfig pooled = point.run_config();  // LoI 0: level2's run is the baseline
  const auto l2 = MultiLevelProfiler(pooled).level2(bfs, point.ratio);
  double p2_ms = 0.0, p2_remote = 0.0;
  for (const auto& phase : l2.run.phases)
    if (phase.tag == "p2") p2_ms = phase.time_s * 1e3;
  for (const auto& phase : l2.phases)
    if (phase.tag == "p2") p2_remote = phase.remote_access_ratio;
  const auto curve = sensitivity_sweep(bfs, pooled, l2.run, {0, 50});
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
}

std::vector<Claim> fig12_claims() {
  const auto bfs = [](ClaimRows& r, const char* name, double ratio, const char* variant) {
    return r(kBFS, name, ratio, 1, variant);
  };
  return {{kMonotone,
           "At 75% pooling remote access drops from baseline to parents-first to optimized, "
           "and the optimized traversal is faster than the baseline",
           [=](ClaimRows& r) {
             const double parents = bfs(r, "p2_remote", 0.75, "parents-first");
             return bfs(r, "p2_remote", 0.75, "baseline") > parents &&
                    parents > bfs(r, "p2_remote", 0.75, "optimized") &&
                    bfs(r, "p2_ms", 0.75, "optimized") < bfs(r, "p2_ms", 0.75, "baseline");
           }},
          {kOrdering,
           "At 50% pooling the optimized version nearly eliminates remote access (p2 < 10%)",
           [=](ClaimRows& r) { return bfs(r, "p2_remote", 0.5, "optimized") < 0.10; },
           "the optimized traversal is still 24.1% remote"},
          {kOrdering, "Optimized BFS is less sensitive to interference than the baseline",
           [=](ClaimRows& r) {
             const auto less = [&](double ratio) {
               return bfs(r, "relperf_loi50", ratio, "optimized") >
                      bfs(r, "relperf_loi50", ratio, "baseline");
             };
             return less(0.75) && less(0.5);
           }},
          {kMagnitude, "At 75% pooling remote access drops 99% -> 80% -> 50%, a 13% speedup",
           [=](ClaimRows& r) {
             for (const char* variant : {"baseline", "parents-first", "optimized"})
               r.note(std::string(variant) + " p2_remote", bfs(r, "p2_remote", 0.75, variant));
             r.note("traversal speedup",
                    bfs(r, "p2_ms", 0.75, "baseline") / bfs(r, "p2_ms", 0.75, "optimized") - 1);
             return true;
           },
           "the model drops 100% -> 59.7% -> 49.7%, and the traversal speeds up by 70.6%"}};
}

// ---- fig13: interference-aware job scheduling ------------------------------

/// fig13's two schedulers: metric-name prefix and table label.
constexpr std::pair<const char*, const char*> kFig13Schedulers[] = {{"baseline", "baseline"},
                                                                    {"aware", "I-aware"}};
constexpr const char* kFig13Stats[] = {"min", "q1", "median", "q3", "max", "mean"};

std::vector<Metric> measure_fig13(const SweepPoint& point) {
  MultiLevelProfiler profiler(point.run_config());
  auto wl = point.make_workload();
  const auto l3 = profiler.level3(*wl, point.ratio);

  // Scale the (milliseconds-range) simulated runtime up to the paper's
  // minutes-range jobs so the 60 s re-roll interval bites; the *relative*
  // statistics are unaffected by this scaling.
  const double scale_to_job = 60.0 * 8 / l3.baseline.elapsed_s;  // ~8 intervals per run
  sched::JobProfile job;
  job.app = wl->name();
  job.base_runtime_s = l3.baseline.elapsed_s * scale_to_job;
  job.sensitivity = l3.sensitivity;
  sched::CoLocationConfig cfg;
  cfg.runs = 100;
  const auto cmp = sched::compare_schedulers(job, cfg);

  std::vector<Metric> metrics;
  const auto add = [&](const char* scheduler, const sched::CoLocationOutcome& o) {
    const double values[] = {o.summary.min, o.summary.q1,  o.summary.median,
                             o.summary.q3,  o.summary.max, o.mean_s};
    for (std::size_t i = 0; i < std::size(values); ++i)
      metrics.emplace_back(std::string(scheduler) + "_" + kFig13Stats[i], values[i]);
  };
  add(kFig13Schedulers[0].first, cmp.baseline);
  add(kFig13Schedulers[1].first, cmp.aware);
  const double iqr_base = cmp.baseline.summary.q3 - cmp.baseline.summary.q1;
  const double iqr_aware = cmp.aware.summary.q3 - cmp.aware.summary.q1;
  metrics.emplace_back("mean_speedup", cmp.mean_speedup);
  metrics.emplace_back("p75_reduction", cmp.p75_reduction);
  metrics.emplace_back("iqr_shrink", iqr_base > 0 ? 1.0 - iqr_aware / iqr_base : 0.0);
  return metrics;
}

void summarize_fig13(const SweepResult& result, std::ostream& os) {
  Table t({"app", "scheduler", "min", "q1", "median", "q3", "max", "mean"});
  Table gains({"app", "mean speedup", "p75 reduction", "IQR shrink"});
  for (const auto& row : result.rows) {
    const std::string app = workloads::app_name(row.point.app);
    for (const auto& [scheduler, label] : kFig13Schedulers) {
      std::vector<std::string> cells{app, label};
      for (const char* stat : kFig13Stats)
        cells.push_back(Table::num(metric_or(row, std::string(scheduler) + "_" + stat), 1));
      t.add_row(std::move(cells));
    }
    gains.add_row({app, Table::pct(metric_or(row, "mean_speedup")),
                   Table::pct(metric_or(row, "p75_reduction")),
                   Table::pct(metric_or(row, "iqr_shrink"))});
  }
  t.print(os);
  os << "\nScheduler benefit per application (100 runs each):\n";
  gains.print(os);
}

std::vector<Claim> fig13_claims() {
  return {{kOrdering,
           "Interference awareness reduces both mean time and variability, and helps Hypre "
           "more than XSBench",
           [](ClaimRows& r) {
             return every(all_apps(), [&](App app) {
                      return r(app, "mean_speedup", 0.5) > 0 && r(app, "iqr_shrink", 0.5) > 0;
                    }) && r(kHypre, "mean_speedup", 0.5) > r(kXSBench, "mean_speedup", 0.5);
           }},
          {kOrdering, "Hypre benefits most",
           [](ClaimRows& r) { return leads(r, {kHypre}, "mean_speedup", 0.5); },
           "NekRS gains 5.5%, Hypre 5.4%"},
          {kMagnitude,
           "Hypre gains ~4% mean and ~5% p75; NekRS and SuperLU ~2-3%, BFS and HPL ~1-2%, "
           "XSBench ~0-1%",
           [](ClaimRows& r) {
             show(r, all_apps(), "mean_speedup", 0.5);
             return show(r, {kHypre}, "p75_reduction", 0.5);
           },
           "gains run higher: Hypre 5.4% mean and 5.7% p75, NekRS 5.5%, SuperLU and BFS 3.5%, "
           "HPL 2.2%"}};
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

  const auto curve = sensitivity_sweep(*wl_pooled, pooled, half, {0, 50}, "p2");

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
  const RunOutput run = run_live(*wl, cfg, point.prefetch);
  const double seconds = run.elapsed_s;
  const double agg_gbps =
      seconds > 0 ? static_cast<double>(run.counters.dram_bytes_total()) / seconds / 1e9 : 0.0;
  return {{"time_ms", seconds * 1e3},
          {"agg_dram_gbps", agg_gbps},
          {"remote_share", run.remote_access_ratio()}};
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

std::vector<Metric> measure_ext_three_tier(const SweepPoint& point) {
  const RunConfig cfg = point.run_config();
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
        "device lands on the switched pool and pays the switch traversal. Yet at\n"
        "the same split every app here runs faster on the chain than on the\n"
        "single CXL pool, the latency-exposed BFS and XSBench included: each\n"
        "link is charged its own bandwidth, and spreading the spill over two\n"
        "links outweighs the switch's extra latency.\n";
}

// ---- ext-hybrid: split+pool hybrid (two asymmetric pools side by side) ------

std::vector<Metric> measure_ext_hybrid(const SweepPoint& point) {
  RunConfig cfg;
  cfg.machine = machine_for_fabric(point.fabric);
  cfg.link_model = point.link_model;

  auto wl_local = point.make_workload();
  const auto local = run_workload(*wl_local, cfg);

  const RunConfig pooled = point.run_config();
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

/// One live run of `wl` (the point's workload, or a variant of it) on the
/// engine config the planner scenarios share: the point's fabric with the
/// workload's spill shaped (node-only points spill half), the point's link
/// model, and small epochs so the daemon gets frequent scan opportunities —
/// plus the scenario's static per-link LoI and LoI schedule. `planner` may
/// be null, as in run_live; when given, its counters are read back from it.
RunOutput run_planner(const SweepPoint& point, workloads::Workload& wl,
                      MigrationRuntime* planner, std::vector<double> loi_per_tier = {},
                      const memsim::LoiSchedule& schedule = {}) {
  sim::EngineConfig cfg;
  const double r = point.ratio == kNodeOnly ? 0.5 : point.ratio;
  cfg.machine = machine_with_spill(machine_for_fabric(point.fabric), r, wl.footprint_bytes());
  cfg.background_loi_per_tier = std::move(loi_per_tier);
  cfg.loi_schedule = schedule;
  cfg.link_model = point.link_model;
  cfg.epoch_accesses = 250'000;
  return run_live(wl, cfg, point.prefetch, planner);
}

std::vector<Metric> measure_ext_staged_migration(const SweepPoint& point) {
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
  mcfg.allow_staging = false;
  MigrationRuntime direct(mcfg);
  mcfg.allow_staging = true;
  MigrationRuntime staged(mcfg);
  const std::vector<double> loi = per_link_loi_of(point.variant);
  const double direct_ms =
      run_planner(point, *point.make_workload(), &direct, loi).elapsed_s * 1e3;
  const double staged_ms =
      run_planner(point, *point.make_workload(), &staged, loi).elapsed_s * 1e3;
  return {{"direct_ms", direct_ms},
          {"staged_ms", staged_ms},
          {"staged_gain", staged_ms > 0 ? direct_ms / staged_ms : 1.0},
          {"staged_moves", static_cast<double>(staged.staged_moves())},
          {"staged_promoted", static_cast<double>(staged.pages_promoted())},
          {"direct_promoted", static_cast<double>(direct.pages_promoted())},
          {"staged_cost_ms", staged.transfer_cost_s() * 1e3},
          {"direct_cost_ms", direct.transfer_cost_s() * 1e3}};
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

/// Two planner runs under the bursty schedule; both *experience* the same
/// wave. The dynamic planner prices every scan at the links' live state
/// (and may defer across bursts); the static one is provisioned with only
/// the wave's time average on the device link — what a QoS provisioner
/// without runtime telemetry would plan against.
std::vector<Metric> measure_ext_transient_loi(const SweepPoint& point) {
  const memsim::LoiSchedule schedule = transient_schedule_of(point.variant);
  MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.max_pages_per_scan = 64;
  mcfg.link_budget_pages = 64;
  mcfg.min_heat = 4;
  MigrationRuntime dynamic(mcfg);
  mcfg.assumed_loi = {0.0, schedule.waveform(1)->mean(), 0.0};
  MigrationRuntime fixed(mcfg);
  const double dynamic_ms =
      run_planner(point, *point.make_workload(), &dynamic, {}, schedule).elapsed_s * 1e3;
  const double static_ms =
      run_planner(point, *point.make_workload(), &fixed, {}, schedule).elapsed_s * 1e3;
  return {{"dynamic_ms", dynamic_ms},
          {"static_ms", static_ms},
          {"dynamic_gain", dynamic_ms > 0 ? static_ms / dynamic_ms : 1.0},
          {"dynamic_deferred", static_cast<double>(dynamic.deferred_moves())},
          {"dynamic_staged", static_cast<double>(dynamic.staged_moves())},
          {"dynamic_promoted", static_cast<double>(dynamic.pages_promoted())},
          {"static_promoted", static_cast<double>(fixed.pages_promoted())},
          {"dynamic_cost_ms", dynamic.transfer_cost_s() * 1e3},
          {"static_cost_ms", fixed.transfer_cost_s() * 1e3}};
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
struct ContentionStats {
  double burst_infl = 1.0;   ///< time-mean demand-latency inflation while bulk flows
  double quiet_infl = 1.0;   ///< same far from bursts (exactly 1: no cross traffic)
  double burst_share = 0.0;  ///< fraction of wall time in burst epochs
  double migrated_mib = 0.0;
};

ContentionStats contention_stats(const std::vector<sim::EpochRecord>& epochs, int window) {
  ContentionStats out;
  double burst_s = 0, burst_mult_s = 0, quiet_s = 0, quiet_mult_s = 0, total_s = 0;
  std::uint64_t total_bulk = 0;
  long long last_burst = -(window + 1);
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
  SweepPoint queued = point;
  queued.link_model = memsim::LinkModelKind::kQueue;  // the model under study
  MigrationConfig mcfg;
  mcfg.period_epochs = scan_period_of(point.variant);  // long cadence => clumped bursts
  mcfg.max_pages_per_scan = 512;                       // big scans: the burst is the point
  mcfg.link_budget_pages = 512;
  mcfg.min_heat = 1;  // greedy low-value tail for the deferral to trim
  mcfg.defer_on_self_congestion = false;
  MigrationRuntime eager_planner(mcfg);
  mcfg.defer_on_self_congestion = true;
  MigrationRuntime deferring_planner(mcfg);
  const RunOutput eager_run = run_planner(queued, *queued.make_workload(), &eager_planner);
  const RunOutput deferred_run = run_planner(queued, *queued.make_workload(), &deferring_planner);

  const auto machine = machine_for_fabric(point.fabric);
  int window = 1;
  for (memsim::TierId t = 0; t < machine.num_tiers(); ++t)
    if (machine.topology.is_fabric(t) && machine.tier(t).link)
      window = std::max(window, machine.tier(t).link->queue_window_epochs);
  const ContentionStats eager = contention_stats(eager_run.epochs, window);
  const ContentionStats deferred = contention_stats(deferred_run.epochs, window);
  return {{"eager_ms", eager_run.elapsed_s * 1e3},
          {"deferred_ms", deferred_run.elapsed_s * 1e3},
          {"eager_burst_inflation", eager.burst_infl},
          {"eager_quiet_inflation", eager.quiet_infl},
          {"deferred_burst_inflation", deferred.burst_infl},
          {"deferred_quiet_inflation", deferred.quiet_infl},
          {"eager_burst_share", eager.burst_share},
          {"eager_migrated_mib", eager.migrated_mib},
          {"deferred_migrated_mib", deferred.migrated_mib},
          {"eager_promoted", static_cast<double>(eager_planner.pages_promoted())},
          {"deferred_promoted", static_cast<double>(deferring_planner.pages_promoted())},
          {"self_deferred", static_cast<double>(deferring_planner.self_deferred_moves())}};
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

// ---- ext-migration: hot-page migration runtime vs. the static fix ----------

/// Scan cadence (epochs) of an ext-migration `scan-N` variant; 0 for the
/// rows that run without a runtime (`baseline`, `static`).
std::uint64_t migration_scan_period(const std::string& variant) {
  return variant.rfind("scan-", 0) == 0 ? std::stoull(variant.substr(5)) : 0;
}

/// The two schedules every ext-migration row runs under: steady, and the
/// burst-8 square wave on the pool link (metric prefix `wave_`).
constexpr const char* kMigrationSchedules[] = {"", "wave_"};

/// Sec. 5.2 contrasts static allocation-site changes (the BFS case study)
/// with runtimes that migrate hot pages (Thermostat/TPP-style). Each row is
/// BFS at the point's ratio: the baseline graph layout with no runtime or
/// with a runtime at the variant's scan cadence, or the static optimized
/// layout (`static`).
std::vector<Metric> measure_ext_migration(const SweepPoint& point) {
  workloads::BfsParams params = workloads::BfsParams::at_scale(point.scale, point.seed);
  params.variant = point.variant == "static" ? workloads::BfsVariant::kOptimized
                                             : workloads::BfsVariant::kBaseline;
  const std::uint64_t period = migration_scan_period(point.variant);
  std::vector<Metric> metrics;
  for (const std::string prefix : kMigrationSchedules) {
    workloads::Bfs bfs(params);
    MigrationConfig mcfg;
    mcfg.period_epochs = period;
    mcfg.max_pages_per_scan = 64;
    MigrationRuntime runtime(mcfg);  // attached only when period > 0
    const RunOutput run =
        run_planner(point, bfs, period > 0 ? &runtime : nullptr, {},
                    prefix.empty() ? memsim::LoiSchedule{} : transient_schedule_of("burst-8"));
    for (const auto& phase : run.phases) {
      if (phase.tag != "p2") continue;
      metrics.emplace_back(prefix + "p2_ms", phase.time_s * 1e3);
      metrics.emplace_back(prefix + "p2_remote", phase_remote_access_ratio(phase));
    }
    metrics.emplace_back(prefix + "promoted", static_cast<double>(runtime.pages_promoted()));
    metrics.emplace_back(prefix + "demoted", static_cast<double>(runtime.pages_demoted()));
  }
  return metrics;
}

void summarize_ext_migration(const SweepResult& result, std::ostream& os) {
  for (const std::string prefix : kMigrationSchedules) {
    os << (prefix.empty() ? "steady links:\n"
                          : "\nunder a square-wave LoI schedule on the pool link "
                            "(burst-8: period 8, duty 0.5, LoI 85):\n");
    Table t({"configuration", "BFS time (ms)", "%remote (p2)", "promoted", "demoted"});
    for (const auto& row : result.rows) {
      const std::uint64_t period = migration_scan_period(row.point.variant);
      const std::string label =
          period > 0 ? "baseline + migration (scan every " + std::to_string(period) + " epochs)"
          : row.point.variant == "static" ? "static fix (Sec. 7.1 optimized)"
                                          : "baseline (no runtime)";
      const auto count = [&](const char* name) {
        return period > 0 ? Table::num(metric_or(row, prefix + name), 0) : "-";
      };
      t.add_row({label, Table::num(metric_or(row, prefix + "p2_ms"), 3),
                 Table::pct(metric_or(row, prefix + "p2_remote")), count("promoted"),
                 count("demoted")});
    }
    t.print(os);
  }
  os << "\nReading: the migration runtime recovers part of the static fix's\n"
        "benefit transparently, and more aggressive scanning recovers more — but\n"
        "it reacts only after heat accumulates (the paper's \"slow in adapting\"\n"
        "critique), while the static allocation-order fix is right from the first\n"
        "touch. This is why the paper favors quantitative up-front placement for\n"
        "HPC's determinism requirements (Sec. 2.2). Since the cost-model planner\n"
        "landed, migration *transfer* time is charged to the timeline, so\n"
        "aggressive cadences now pay for their traffic.\n";
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
  RunConfig cfg = point.run_config();
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
  RunConfig cfg = point.run_config();
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

// ---- ext-memory-roofline: B_eff vs. the remote access split (Sec. 3.4) ------

std::vector<Metric> measure_ext_memory_roofline(const SweepPoint& point) {
  auto wl = point.make_workload();
  const auto l2 = MultiLevelProfiler(point.run_config()).level2(*wl, point.ratio);
  return {{"remote_access_total", l2.remote_access_ratio_total}};
}

/// Prints B_eff(r) for r = 0..1 under LoI 0/25/50, marks the balanced
/// optimum r* = R_bw (Ding et al. [8]), and overlays each app's measured
/// remote access ratio at the three capacity configurations, so the reader
/// can see which apps sit left (fast-tier-bound) or right (pool-bound) of r*.
void summarize_ext_memory_roofline(const SweepResult& result, std::ostream& os) {
  const auto machine = memsim::MachineConfig::skylake_testbed();
  const double r_star = machine.remote_bandwidth_ratio();

  Table t({"remote split r", "B_eff LoI=0", "B_eff LoI=25", "B_eff LoI=50", "note"});
  for (int i = 0; i <= 10; ++i) {
    const double r = i / 10.0;
    std::string note = r < r_star ? "fast-tier bound" : "pool bound";
    if (std::abs(r - r_star) < 0.05) note = "≈ balanced optimum r*";
    t.add_row({Table::pct(r), Table::num(effective_bandwidth_gbps_under_loi(machine, r, 0), 1),
               Table::num(effective_bandwidth_gbps_under_loi(machine, r, 25), 1),
               Table::num(effective_bandwidth_gbps_under_loi(machine, r, 50), 1), note});
  }
  t.print(os);
  os << "Balanced optimum r* = R_bw = " << Table::pct(r_star)
     << "; at r* both tiers stream concurrently (B_local + B_pool).\n";

  os << "\nMeasured remote access ratios (whole run) against r*:\n";
  Table m({"app", "R_cap=25%", "R_cap=50%", "R_cap=75%", "position vs r*"});
  for (const auto app : workloads::kAllApps) {
    std::vector<std::string> cells{workloads::app_name(app)};
    double at50 = 0.0;
    for (const auto& row : result.rows) {
      if (row.point.app != app) continue;
      const double remote = metric_or(row, "remote_access_total");
      if (row.point.ratio == 0.5) at50 = remote;
      cells.push_back(Table::pct(remote));
    }
    cells.push_back(at50 > r_star ? "right of r* (pool bound at 50%)"
                                  : "left of r* (fast-tier bound at 50%)");
    m.add_row(std::move(cells));
  }
  m.print(os);
  os << "\nReading: interference flattens the right half of the roofline (the\n"
        "pool side), moving r* leftward — under contention, balanced splits must\n"
        "shift traffic back toward the local tier.\n";
}

// ---- ext-deployment: the Sec. 4.1 node-count decision flow ------------------

/// The node counts the deployment tables print.
constexpr int kDeploymentNodes[] = {2, 4, 6, 8, 12, 16};

std::string deployment_metric(int nodes, const char* name) {
  return "n" + std::to_string(nodes) + "_" + name;
}

/// Projects the app's Level-1 profile to a production-scale job (x100),
/// then sweeps node counts on a node design with a fixed local tier plus a
/// rack pool share: the pooling penalty (remote bandwidth/latency on the
/// scaling curve's cold tail) against scale-out cost (communication +
/// core-hours). The paper's misconception #2 ("applications can scale to
/// more compute nodes instead") becomes a cost curve with a crossover.
std::vector<Metric> measure_ext_deployment(const SweepPoint& point) {
  auto wl = point.make_workload();
  const auto l1 = MultiLevelProfiler(point.run_config()).level1(*wl);
  const auto job = JobRequirements::from_profile(l1, /*scale_factor=*/100.0);

  // Node design: each node offers 1/8 of the projected job footprint as
  // local memory and the same again as its pool share.
  PlannerConfig pcfg;
  pcfg.local_capacity_bytes = static_cast<std::uint64_t>(job.footprint_bytes / 8.0);
  pcfg.pool_capacity_bytes = pcfg.local_capacity_bytes;
  const DeploymentPlanner planner(pcfg);

  std::vector<Metric> metrics{
      {"footprint_bytes", job.footprint_bytes},
      {"local_only_nodes", static_cast<double>(planner.min_nodes_local_only(job))}};
  for (const auto& opt : planner.evaluate(job, 16)) {
    if (std::find(std::begin(kDeploymentNodes), std::end(kDeploymentNodes), opt.nodes) ==
        std::end(kDeploymentNodes))
      continue;
    metrics.emplace_back(deployment_metric(opt.nodes, "feasible"), opt.feasible ? 1.0 : 0.0);
    metrics.emplace_back(deployment_metric(opt.nodes, "needs_pool"), opt.needs_pool ? 1.0 : 0.0);
    metrics.emplace_back(deployment_metric(opt.nodes, "pooled_frac"), opt.pooled_fraction);
    metrics.emplace_back(deployment_metric(opt.nodes, "remote_access"), opt.remote_access_ratio);
    metrics.emplace_back(deployment_metric(opt.nodes, "runtime_s"), opt.est_runtime_s);
    metrics.emplace_back(deployment_metric(opt.nodes, "node_seconds"), opt.node_seconds);
  }
  const auto pick = planner.recommend(job, 16, 1.10);
  metrics.emplace_back("pick_nodes", static_cast<double>(pick.nodes));
  metrics.emplace_back("pick_pooled_frac", pick.pooled_fraction);
  metrics.emplace_back("pick_runtime_s", pick.est_runtime_s);
  return metrics;
}

void summarize_ext_deployment(const SweepResult& result, std::ostream& os) {
  for (const auto& row : result.rows) {
    os << "\n" << workloads::app_name(row.point.app) << " (projected footprint "
       << format_bytes(metric_or(row, "footprint_bytes")) << ", local-only minimum "
       << static_cast<int>(metric_or(row, "local_only_nodes")) << " nodes):\n";
    Table t({"nodes", "feasible", "pooled frac", "%remote access (best placement)",
             "est runtime (s)", "node-seconds", "note"});
    for (const int nodes : kDeploymentNodes) {
      const auto value = [&](const char* name) {
        return metric_or(row, deployment_metric(nodes, name));
      };
      const bool feasible = value("feasible") != 0.0;
      const std::string note = !feasible                   ? "OOM (exceeds local+pool)"
                               : value("needs_pool") != 0.0 ? "uses the pool"
                                                            : "local only";
      t.add_row({std::to_string(nodes), feasible ? "yes" : "no",
                 feasible ? Table::pct(value("pooled_frac")) : "-",
                 feasible ? Table::pct(value("remote_access")) : "-",
                 feasible ? Table::num(value("runtime_s"), 3) : "-",
                 feasible ? Table::num(value("node_seconds"), 2) : "-", note});
    }
    t.print(os);
    os << "recommendation (cheapest within 10% of fastest): "
       << static_cast<int>(metric_or(row, "pick_nodes")) << " nodes, "
       << Table::pct(metric_or(row, "pick_pooled_frac")) << " pooled, est "
       << Table::num(metric_or(row, "pick_runtime_s"), 3) << " s\n";
  }
  os << "\nReading: skewed-access apps (BFS, XSBench) can run on far fewer nodes\n"
        "than their footprint implies — the pool absorbs their cold majority at\n"
        "little estimated cost. Uniform-access apps (HPL, Hypre) pay the pool's\n"
        "bandwidth on every spilled byte, so their cheapest configurations stay\n"
        "near the local-only minimum or scale out instead.\n";
}

// ---- ext-ablation: sensitivity to the simulator's design choices ------------

/// The numeric knob of an ext-ablation variant `<study>-<value>`.
double ablation_value(const std::string& variant) {
  return std::stod(variant.substr(variant.find('-') + 1));
}

bool ablation_study_is(const SweepPoint& point, const char* study) {
  return point.variant.rfind(std::string(study) + "-", 0) == 0;
}

/// One point of one of four sub-studies, each on the apps it concerns:
///   throttle — the prefetcher's accuracy throttling on/off (XSBench's
///              random lookups; the paper observes the real hardware
///              adapting prefetch down, Sec. 4.2);
///   mlp      — memory-level parallelism in the demand-latency term, which
///              sets how latency-bound XSBench is relative to Hypre;
///   qw       — the link queue weight, which scales interference
///              sensitivity (Hypre at LoI 50, 50% pooled);
///   epoch    — the epoch quantum, a pure discretization parameter (NekRS).
std::vector<Metric> measure_ext_ablation(const SweepPoint& point) {
  const auto workload = [&](App app) { return workloads::make_workload(app, 1, point.seed); };
  RunConfig cfg;
  if (ablation_study_is(point, "throttle")) {
    if (point.variant == "throttle-off") {
      cfg.hierarchy.prefetcher.throttle_low = 0.0;  // never drop the degree
      cfg.hierarchy.prefetcher.throttle_high = 0.0;
    }
    const MultiLevelProfiler profiler(cfg);
    auto wl = workload(App::kXSBench);
    const auto l1 = profiler.level1(*wl);
    const auto pf = profiler.prefetch(*wl, l1).metrics;
    return {{"accuracy", pf.accuracy},
            {"excess_traffic", pf.excess_traffic},
            {"xsbench_ms", l1.run.elapsed_s * 1e3}};
  }
  if (ablation_study_is(point, "mlp")) {
    cfg.machine.mlp = ablation_value(point.variant);
    auto xs = workload(App::kXSBench);
    auto hy = workload(App::kHypre);
    const auto rx = run_workload(*xs, cfg);
    const auto rh = run_workload(*hy, cfg);
    return {{"xsbench_ms", rx.elapsed_s * 1e3},
            {"hypre_ms", rh.elapsed_s * 1e3},
            {"xsbench_over_hypre", rx.elapsed_s / rh.elapsed_s}};
  }
  if (ablation_study_is(point, "qw")) {
    cfg.machine.pool_link().queue_weight = ablation_value(point.variant);
    cfg.remote_capacity_ratio = 0.5;
    auto wl = workload(App::kHypre);
    const auto curve = sensitivity_sweep(*wl, cfg, run_workload(*wl, cfg), {0, 50});
    return {{"relperf_loi50", curve.back().relative_performance}};
  }
  sim::EngineConfig ecfg;
  ecfg.epoch_accesses = static_cast<std::uint64_t>(ablation_value(point.variant));
  auto wl = workload(App::kNekRS);
  return {{"nekrs_ms", run_live(*wl, ecfg, /*prefetch_enabled=*/true).elapsed_s * 1e3}};
}

void summarize_ext_ablation(const SweepResult& result, std::ostream& os) {
  const auto rows_of = [&](const char* study) {
    std::vector<const SweepRow*> rows;
    for (const auto& row : result.rows)
      if (ablation_study_is(row.point, study)) rows.push_back(&row);
    return rows;
  };

  os << "\n[A] accuracy-based prefetch throttling (XSBench, scale 1):\n";
  Table a({"throttling", "accuracy", "excess DRAM traffic vs no-pf", "time (ms)"});
  for (const auto* row : rows_of("throttle"))
    a.add_row({row->point.variant == "throttle-on" ? "on (default)" : "off",
               Table::pct(metric_or(*row, "accuracy")),
               Table::pct(metric_or(*row, "excess_traffic")),
               Table::num(metric_or(*row, "xsbench_ms"), 3)});
  a.print(os);

  os << "\n[B] demand-miss MLP (latency hiding) sweep:\n";
  Table b({"mlp", "XSBench time (ms)", "Hypre time (ms)", "XSBench/Hypre ratio"});
  for (const auto* row : rows_of("mlp"))
    b.add_row({Table::num(ablation_value(row->point.variant), 0),
               Table::num(metric_or(*row, "xsbench_ms"), 3),
               Table::num(metric_or(*row, "hypre_ms"), 3),
               Table::num(metric_or(*row, "xsbench_over_hypre"), 2)});
  b.print(os);

  os << "\n[C] link queue weight vs. Hypre sensitivity at LoI=50 (50% pooled):\n";
  Table c({"queue weight", "relative performance at LoI=50"});
  for (const auto* row : rows_of("qw"))
    c.add_row({Table::num(ablation_value(row->point.variant), 2),
               Table::num(metric_or(*row, "relperf_loi50"), 3)});
  c.print(os);

  os << "\n[D] epoch quantum (discretization) — NekRS elapsed time:\n";
  Table d({"epoch accesses", "time (ms)"});
  for (const auto* row : rows_of("epoch"))
    d.add_row({std::to_string(static_cast<std::uint64_t>(ablation_value(row->point.variant))),
               Table::num(metric_or(*row, "nekrs_ms"), 3)});
  d.print(os);
  os << "\nReading: [A] the throttle never engages for XSBench: both rows match\n"
        "to the bit, so the throttle is not what keeps XSBench's excess traffic\n"
        "low. [B] MLP sets the latency-bound/bandwidth-bound balance. [C] A\n"
        "heavier queue weight leaves Hypre slightly less sensitive, not more;\n"
        "the study samples Hypre alone, so it says nothing about app order.\n"
        "[D] NekRS's time does not move with the epoch quantum, but the study\n"
        "samples NekRS alone: BFS at 75% pooled runs about 2% faster at 8M\n"
        "accesses per epoch than at 250k.\n";
}

}  // namespace

namespace detail {

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add({"fig05", "Figure 5", "roofline placement of application phases",
                {.apps = all_apps()}, measure_fig05, summarize_fig05, fig05_claims()});
  // The summary compares curves *across* scales (Kolmogorov distances), so
  // all points share one seed — otherwise seed-driven input randomness (e.g.
  // a different BFS graph per point) would be confounded with the scale
  // effect the figure isolates.
  registry.add({"fig06", "Figure 6", "bandwidth-capacity scaling curves at 1x/2x/4x inputs",
                {.apps = all_apps(), .scales = {1, 2, 4}, .seed_per_task = false},
                measure_fig06, summarize_fig06, fig06_claims()});
  // One seed for every app: the base seed, which is also make_workload's
  // default input.
  registry.add({"fig07", "Figure 7", "cacheline traffic over time, with vs. without L2 prefetch",
                {.apps = {kNekRS, kHPL, kXSBench}, .seed_per_task = false}, measure_fig07,
                summarize_fig07, fig07_claims()});
  registry.add({"fig08", "Figure 8", "prefetch accuracy / coverage / excess traffic / gain",
                {.apps = all_apps()}, measure_fig08, summarize_fig08, fig08_claims()});
  registry.add({"fig09", "Figure 9", "remote access ratio per phase vs. R_cap / R_bw references",
                {.apps = all_apps(), .ratios = {0.25, 0.50, 0.75}}, measure_fig09,
                summarize_fig09, fig09_claims()});
  registry.add({"fig10", "Figure 10", "sensitivity to interference (relative performance vs. LoI)",
                {.apps = all_apps(), .ratios = {0.25, 0.50, 0.75}}, measure_fig10,
                summarize_fig10, fig10_claims()});
  registry.add({"fig11", "Figure 11",
                "LBench: LoI scaling, IC vs. PCM saturation, per-app induced IC",
                {.apps = all_apps(), .ratios = {0.50}}, measure_fig11, summarize_fig11,
                fig11_claims()});
  // Variants are compared against the baseline, so every variant must
  // traverse the same graph: share one seed across the grid.
  registry.add({"fig12", "Figure 12", "BFS data-placement optimization (Sec. 7.1 case study)",
                {.apps = {kBFS}, .ratios = {0.50, 0.75},
                 .variants = {"baseline", "parents-first", "optimized"}, .seed_per_task = false},
                measure_fig12, summarize_fig12, fig12_claims()});
  // One row per app holds both schedulers: a scheduler axis would split the
  // functional group and capture every app twice. One seed for every app:
  // the base seed, which is also make_workload's default input.
  registry.add({"fig13", "Figure 13", "execution-time distribution: random vs. interference-aware",
                {.apps = all_apps(), .ratios = {0.50}, .seed_per_task = false}, measure_fig13,
                summarize_fig13, fig13_claims()});
  // Fabrics are compared per app: share one seed so the workload input is
  // held fixed across fabrics.
  registry.add({"ext-cxl", "Extension: CXL what-if",
                "pooling penalty and sensitivity across pool fabrics",
                {.apps = {kHypre, kXSBench, kBFS},
                 .fabrics = {"upi", "cxl", "cxl-switched", "split"},
                 .seed_per_task = false},
                measure_ext_cxl, summarize_ext_cxl});
  // Policies are compared against first-touch per app: hold the workload
  // input fixed across the policy axis.
  registry.add({"ext-interleave", "Extension: weighted interleave",
                "first-touch vs. N:M interleaving on bandwidth-bound apps",
                {.apps = {kHypre, kNekRS},
                 .variants = {"first-touch", "interleave-2:1", "interleave-1:1"},
                 .seed_per_task = false},
                measure_ext_interleave, summarize_ext_interleave});
  // Topologies are compared per app and ratio: hold the workload input
  // fixed across the topology axis.
  registry.add({"ext-three-tier", "Extension: three-tier chain",
                "DRAM + direct CXL + switched pool capacity spill chain",
                {.apps = {kHypre, kXSBench, kBFS}, .ratios = {0.50, 0.75},
                 .fabrics = {"cxl", "three-tier"}, .seed_per_task = false},
                measure_ext_three_tier, summarize_ext_three_tier});
  // Direct and staged planners are compared on the same run, and rows are
  // compared across the load axis: hold the workload input fixed.
  registry.add({"ext-staged-migration", "Extension: staged migration",
                "cost-model planner: direct-only vs. multi-hop staging on an N-tier chain",
                {.apps = {kHypre, kXSBench}, .ratios = {0.50, 0.75}, .fabrics = {"three-tier"},
                 .variants = {"idle", "mid-loaded", "overloaded"}, .seed_per_task = false},
                measure_ext_staged_migration, summarize_ext_staged_migration});
  // Dynamic and static-belief planners are compared on the same run: hold
  // the workload input fixed.
  registry.add({"ext-transient-loi", "Extension: transient interference",
                "square-wave congestion: live re-pricing + deferral vs. a static-LoI plan",
                {.apps = {kHypre}, .ratios = {0.50, 0.75}, .fabrics = {"three-tier"},
                 .variants = {"burst-8", "burst-32"}, .seed_per_task = false},
                measure_ext_transient_loi, summarize_ext_transient_loi});
  // Eager and deferred planners are compared on the same run, and burst
  // epochs against quiet ones: hold the workload input fixed.
  registry.add({"ext-queue-contention", "Extension: queue contention",
                "two-class link queues: migration bursts inflating demand-miss latency",
                {.apps = {kHypre}, .ratios = {0.50, 0.75}, .fabrics = {"three-tier"},
                 .variants = {"scan-8", "scan-16"}, .seed_per_task = false},
                measure_ext_queue_contention, summarize_ext_queue_contention});
  // Policies are compared on the same arrival stream per load level: hold
  // the stream's base seed fixed across the variant axis. HPL is a single
  // neutral axis value; the jobs are synthetic.
  registry.add({"ext-fleet-rack", "Extension: fleet-scale rack",
                "open job stream over shared pools: admission, contention, migration",
                {.apps = {kHPL},
                 .variants = {"ff-lo", "aware-lo", "ff-hi", "aware-hi", "ff-mig-hi",
                              "aware-mig-hi"},
                 .seed_per_task = false},
                measure_ext_fleet_rack, summarize_ext_fleet_rack});
  // Replay and averaged rows are compared per app: hold the input fixed.
  registry.add({"ext-loi-trace", "Extension: trace-driven interference",
                "replayed per-link congestion trace vs. its time average on the chain",
                {.apps = {kHypre, kBFS}, .ratios = {0.50}, .fabrics = {"three-tier"},
                 .variants = {"replay", "averaged"}, .seed_per_task = false},
                measure_ext_loi_trace, summarize_ext_loi_trace});
  // Load vectors are compared against the idle row per app and topology.
  registry.add({"ext-asym-loi", "Extension: asymmetric interference",
                "per-link LoI vectors: load one pool while its neighbor idles",
                {.apps = {kHypre, kBFS}, .ratios = {0.50}, .fabrics = {"three-tier", "hybrid"},
                 .variants = {"idle", "near-loaded", "far-loaded", "both-loaded"},
                 .seed_per_task = false},
                measure_ext_asym_loi, summarize_ext_asym_loi});
  registry.add({"ext-hybrid", "Extension: split+pool hybrid",
                "two asymmetric pools (CXL device + peer-borrowed) side by side",
                {.apps = {kHypre, kBFS}, .ratios = {0.50}, .fabrics = {"cxl", "hybrid", "split"},
                 .seed_per_task = false},
                measure_ext_hybrid, summarize_ext_hybrid});
  // The runtime rows and the static fix are compared against the baseline:
  // every variant traverses the same graph.
  registry.add({"ext-migration", "Extension: hot-page migration runtime",
                "dynamic page placement vs. the static allocation fix (BFS, 75% pooled)",
                {.apps = {kBFS}, .ratios = {0.75},
                 .variants = {"baseline", "scan-16", "scan-4", "scan-1", "static"},
                 .seed_per_task = false},
                measure_ext_migration, summarize_ext_migration});
  // Each app's ratios are read side by side: hold its input fixed.
  registry.add({"ext-memory-roofline", "Extension: memory roofline",
                "effective bandwidth vs. remote access split, with interference",
                {.apps = all_apps(), .ratios = {0.25, 0.50, 0.75}, .seed_per_task = false},
                measure_ext_memory_roofline, summarize_ext_memory_roofline});
  // One seed for every app: the base seed, which is also make_workload's
  // default input.
  registry.add({"ext-deployment", "Extension: deployment planning",
                "pooling vs. scale-out cost curves per application",
                {.apps = all_apps(), .seed_per_task = false}, measure_ext_deployment,
                summarize_ext_deployment});
  // Each study compares its knob values on the same inputs: the base seed,
  // which is also make_workload's default input. HPL is a single neutral
  // axis value; each study picks its apps.
  registry.add({"ext-ablation", "Ablation", "simulator design-choice sensitivity",
                {.apps = {kHPL},
                 .variants = {"throttle-on", "throttle-off", "mlp-2", "mlp-4", "mlp-8", "mlp-16",
                              "qw-0.06", "qw-0.12", "qw-0.24", "epoch-500000", "epoch-2000000",
                              "epoch-8000000"},
                 .seed_per_task = false},
                measure_ext_ablation, summarize_ext_ablation});
}

}  // namespace detail
}  // namespace memdis::core
