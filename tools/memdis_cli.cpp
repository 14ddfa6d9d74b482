// memdis — command-line front end to the multi-level profiler.
//
// The programmatic analogue of the paper's `nmo` tool (Fig. 4 shows its
// environment-variable workflow: NMO_TRACK_RSS, NMO_MODE=counters/sample/
// prefetch, setup_waste, gauge_loop, upi.sh). Subcommands map onto the
// same workflow steps:
//
//   memdis machine [--fabric upi|cxl|cxl-switched|split]
//   memdis level1  --app HPL [--scale 1] [--csv file]
//   memdis level2  --app BFS --ratio 0.75
//   memdis level3  --app Hypre --ratio 0.5 [--lois 0,10,20,30,40,50]
//   memdis lbench  [--nflop 1] [--threads 12] [--elements 1048576]
//   memdis report  [--scale 1]
//   memdis scenarios
//   memdis sweep   --scenario fig06 [--jobs N] [--out dir] [--csv file]
//                  (exits 1 when a paper claim disagrees with its expected verdict)
//   memdis fleet   [--arrivals poisson:0.12:1000] [--pools 2] [--policy loi-aware]
//                  [--migration on] [--jobs N] [--out dir] [--csv file]
//   memdis plan    --app Hypre --fabric three-tier [--ratio 0.75]
//                  [--loi 0,200] [--staging on|off] [--csv file]
//   memdis trace   record --app HPL --trace file.mdtr [--scale 1] [--seed 42]
//   memdis trace   replay --trace file.mdtr [--fabric cxl]
//   memdis trace   info   --trace file.mdtr
//
// `--link-model loi|queue` selects the fabric contention model for any
// subcommand (default loi, the closed form).
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "common/units.h"
#include "memsim/loi_schedule.h"
#include "core/advisor.h"
#include "core/interference.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "core/epoch_profile.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "native/lbench_native.h"
#include "trace/trace_workload.h"
#include "workloads/lbench.h"

namespace {

using namespace memdis;

struct Args {
  std::string command;
  std::string trace_action;  ///< record|replay|info (trace subcommand only)
  std::optional<std::string> app;
  int scale = 1;
  std::uint64_t seed = 42;
  double ratio = 0.5;
  std::string fabric = "upi";
  std::vector<double> lois = {0, 10, 20, 30, 40, 50};
  std::vector<double> loi_per_tier;  ///< --loi: static per-link LoI by tier id
  std::vector<std::string> loi_waves;         ///< --loi-wave specs (repeatable)
  std::optional<std::string> loi_trace_path;  ///< --loi-trace CSV file
  bool staging = true;               ///< --staging: plan may use intermediate tiers
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;  ///< --link-model
  std::uint32_t nflop = 1;
  int threads = 12;
  std::size_t elements = 1 << 20;
  std::optional<std::string> csv_path;
  std::optional<std::string> scenario;
  unsigned jobs = 1;
  std::optional<std::string> out_dir;
  std::optional<std::string> trace_path;  ///< --trace FILE
  // fleet subcommand
  std::string arrivals = "poisson:0.12:1000";  ///< --arrivals SPEC
  std::size_t pools = 2;                       ///< --pools N
  std::size_t pool_nodes = 16;                 ///< --pool-nodes N
  double pool_gb = 512.0;                      ///< --pool-gb GB
  fleet::AdmissionPolicy policy = fleet::AdmissionPolicy::kLoiAware;  ///< --policy
  bool migration = true;                       ///< --migration on|off
  std::size_t queue_limit = 64;                ///< --queue-limit N
  double step_s = 1.0;                         ///< --step S
};

void usage(std::ostream& os) {
  os << "usage: memdis <command> [options]\n"
     << "commands:\n"
     << "  machine   print the emulated platform configuration\n"
     << "  level1    intrinsic requirements (AI, scaling curve, prefetch)\n"
     << "  level2    two-tier access ratios vs. R_cap/R_bw + advisor\n"
     << "  level3    interference sensitivity sweep + induced IC\n"
     << "  lbench    run the LBench kernel natively (std::thread)\n"
     << "  report    verification/traffic sweep over all applications\n"
     << "  scenarios list the registered sweep scenarios\n"
     << "  sweep     run a registered scenario on the parallel sweep engine\n"
     << "  fleet     simulate an open job stream over shared disaggregated pools\n"
     << "  plan      run the cost-model migration planner and dump its plan\n"
     << "  trace     record, replay, or inspect an access trace:\n"
     << "            trace record --app NAME --trace FILE [--scale N] [--seed N]\n"
     << "            trace replay --trace FILE | trace info --trace FILE\n"
     << "options:\n"
     << "  --app NAME        HPL|SuperLU|NekRS|Hypre|BFS|XSBench\n"
     << "  --scale N         input scale 1|2|4 (default 1)\n"
     << "  --seed N          workload RNG seed (trace record; default 42)\n"
     << "  --ratio R         remote capacity ratio in [0,1) (default 0.5)\n"
     << "  --fabric F        topology preset: upi|cxl|cxl-switched|split|\n"
     << "                    three-tier|hybrid (default upi)\n"
     << "  --scenario NAME   sweep scenario (see `memdis scenarios`)\n"
     << "  --jobs N          sweep worker threads; 0 = hardware concurrency (default 1)\n"
     << "  --out DIR         write <scenario>.csv and <scenario>.json artifacts to DIR\n"
     << "  --lois CSV        LoI sweep levels (default 0,10,20,30,40,50)\n"
     << "  --loi CSV         static per-link background LoI, one value per fabric\n"
     << "                    tier in tier order (level1/level2/plan); a single\n"
     << "                    value loads only the first fabric link\n"
     << "  --loi-wave SPEC   square-wave LoI schedule on one link, repeatable;\n"
     << "                    SPEC = link:period:duty:hi[:lo] (link = tier id,\n"
     << "                    period in epochs, duty in [0,1], LoI % values)\n"
     << "  --loi-trace FILE  replay a per-link LoI trace CSV (header line, then\n"
     << "                    rows `epoch,<loi per fabric tier>`; gaps hold)\n"
     << "  --staging on|off  allow the planner to stage via intermediate tiers\n"
     << "                    (plan only; default on)\n"
     << "  --link-model M    fabric link contention model: loi (closed form,\n"
     << "                    default) or queue (two-class demand/bulk queues)\n"
     << "  --trace FILE      trace file (.mdtr) for the trace subcommand\n"
     << "  --arrivals SPEC   fleet arrival process: poisson:<rate>:<count> or\n"
     << "                    trace:<file> (CSV: header, then arrival_s,class;\n"
     << "                    default poisson:0.12:1000)\n"
     << "  --pools N         fleet: number of disaggregated pools (default 2)\n"
     << "  --pool-nodes N    fleet: compute nodes per pool (default 16)\n"
     << "  --pool-gb GB      fleet: pooled memory per pool (default 512)\n"
     << "  --policy P        fleet admission policy: first-fit|loi-aware\n"
     << "                    (default loi-aware)\n"
     << "  --migration M     fleet: on|off pool-to-pool migration (default on)\n"
     << "  --queue-limit N   fleet: pending-queue bound; overflow rejects\n"
     << "                    (default 64)\n"
     << "  --step S          fleet timestep in seconds (default 1)\n"
     << "  --nflop N         LBench flops/element (default 1)\n"
     << "  --threads N       LBench threads (default 12)\n"
     << "  --elements N      LBench array elements (default 2^20)\n"
     << "  --csv PATH        also write machine-readable output\n";
}

/// Strict numeric parsing: the whole token must be a number in range.
/// `atoi`-style silent truncation ("--ratio banana" -> 0.0) is rejected
/// with a clear diagnostic; callers exit with status 2.
std::optional<long long> parse_int(const std::string& flag, const std::string& text,
                                   long long min, long long max) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    std::cerr << "error: " << flag << " expects an integer, got '" << text << "'\n";
    return std::nullopt;
  }
  if (v < min || v > max) {
    std::cerr << "error: " << flag << " must be in [" << min << ", " << max << "], got "
              << v << "\n";
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(const std::string& flag, const std::string& text,
                                   double min, double max) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    std::cerr << "error: " << flag << " expects a number, got '" << text << "'\n";
    return std::nullopt;
  }
  if (!(v >= min && v <= max)) {
    std::cerr << "error: " << flag << " must be in [" << min << ", " << max << "], got "
              << text << "\n";
    return std::nullopt;
  }
  return v;
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  int first_flag = 2;
  if (args.command == "trace") {
    // The action word is positional: `memdis trace record --app ...`.
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "error: trace requires an action: record, replay, or info\n";
      return std::nullopt;
    }
    args.trace_action = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    const auto value = need_value();
    if (!value) return std::nullopt;
    if (flag == "--app") {
      args.app = *value;
    } else if (flag == "--scale") {
      const auto v = parse_int(flag, *value, 1, 1 << 20);
      if (!v) return std::nullopt;
      args.scale = static_cast<int>(*v);
    } else if (flag == "--seed") {
      const auto v = parse_int(flag, *value, 0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.seed = static_cast<std::uint64_t>(*v);
    } else if (flag == "--ratio") {
      const auto v = parse_double(flag, *value, 0.0, 1.0);
      if (!v || *v >= 1.0) {
        if (v) std::cerr << "error: --ratio must be in [0,1), got " << *value << "\n";
        return std::nullopt;
      }
      args.ratio = *v;
    } else if (flag == "--fabric") {
      args.fabric = *value;
    } else if (flag == "--lois") {
      std::string error;
      auto values = memsim::parse_loi_list(*value, error);
      if (!values) {
        std::cerr << "error: --lois: " << error << "\n";
        return std::nullopt;
      }
      args.lois = std::move(*values);
    } else if (flag == "--loi") {
      // Values are given per fabric tier in tier order; tier 0 is the node
      // tier and carries no link, so the stored vector leads with a zero.
      // Strict grammar: trailing/doubled commas, NaN, negatives, and
      // out-of-range values are all rejected with a diagnostic.
      std::string error;
      const auto values = memsim::parse_loi_list(*value, error);
      if (!values) {
        std::cerr << "error: --loi: " << error << "\n";
        return std::nullopt;
      }
      args.loi_per_tier.assign(1, 0.0);
      args.loi_per_tier.insert(args.loi_per_tier.end(), values->begin(), values->end());
    } else if (flag == "--loi-wave") {
      args.loi_waves.push_back(*value);
    } else if (flag == "--loi-trace") {
      args.loi_trace_path = *value;
    } else if (flag == "--staging") {
      if (*value == "on") {
        args.staging = true;
      } else if (*value == "off") {
        args.staging = false;
      } else {
        std::cerr << "error: --staging expects on or off, got '" << *value << "'\n";
        return std::nullopt;
      }
    } else if (flag == "--link-model") {
      if (*value == "loi") {
        args.link_model = memsim::LinkModelKind::kLoi;
      } else if (*value == "queue") {
        args.link_model = memsim::LinkModelKind::kQueue;
      } else {
        std::cerr << "error: --link-model expects loi or queue, got '" << *value << "'\n";
        return std::nullopt;
      }
    } else if (flag == "--arrivals") {
      args.arrivals = *value;
    } else if (flag == "--pools") {
      const auto v = parse_int(flag, *value, 1, 4096);
      if (!v) return std::nullopt;
      args.pools = static_cast<std::size_t>(*v);
    } else if (flag == "--pool-nodes") {
      const auto v = parse_int(flag, *value, 1, 1 << 20);
      if (!v) return std::nullopt;
      args.pool_nodes = static_cast<std::size_t>(*v);
    } else if (flag == "--pool-gb") {
      const auto v = parse_double(flag, *value, 1.0, 1e9);
      if (!v) return std::nullopt;
      args.pool_gb = *v;
    } else if (flag == "--policy") {
      if (*value == "first-fit") {
        args.policy = fleet::AdmissionPolicy::kFirstFit;
      } else if (*value == "loi-aware") {
        args.policy = fleet::AdmissionPolicy::kLoiAware;
      } else {
        std::cerr << "error: --policy expects first-fit or loi-aware, got '" << *value
                  << "'\n";
        return std::nullopt;
      }
    } else if (flag == "--migration") {
      if (*value == "on") {
        args.migration = true;
      } else if (*value == "off") {
        args.migration = false;
      } else {
        std::cerr << "error: --migration expects on or off, got '" << *value << "'\n";
        return std::nullopt;
      }
    } else if (flag == "--queue-limit") {
      const auto v = parse_int(flag, *value, 0, 1 << 20);
      if (!v) return std::nullopt;
      args.queue_limit = static_cast<std::size_t>(*v);
    } else if (flag == "--step") {
      const auto v = parse_double(flag, *value, 1e-3, 3600.0);
      if (!v) return std::nullopt;
      args.step_s = *v;
    } else if (flag == "--nflop") {
      const auto v = parse_int(flag, *value, 1, 1 << 20);
      if (!v) return std::nullopt;
      args.nflop = static_cast<std::uint32_t>(*v);
    } else if (flag == "--threads") {
      const auto v = parse_int(flag, *value, 1, 4096);
      if (!v) return std::nullopt;
      args.threads = static_cast<int>(*v);
    } else if (flag == "--elements") {
      const auto v = parse_int(flag, *value, 1, 1LL << 40);
      if (!v) return std::nullopt;
      args.elements = static_cast<std::size_t>(*v);
    } else if (flag == "--csv") {
      args.csv_path = *value;
    } else if (flag == "--scenario") {
      args.scenario = *value;
    } else if (flag == "--jobs") {
      const auto v = parse_int(flag, *value, 0, 4096);
      if (!v) return std::nullopt;
      args.jobs = static_cast<unsigned>(*v);
    } else if (flag == "--out") {
      args.out_dir = *value;
    } else if (flag == "--trace") {
      args.trace_path = *value;
    } else {
      std::cerr << "unknown option " << flag << "\n";
      return std::nullopt;
    }
  }
  return args;
}

std::optional<workloads::App> app_of(const std::string& name) {
  for (const auto app : workloads::kAllApps)
    if (name == workloads::app_name(app)) return app;
  return std::nullopt;
}

/// --loi promises one value per fabric tier of the selected machine; a
/// miscounted list would otherwise silently load the wrong link (the
/// strict-validation contract of the other numeric flags).
bool loi_matches_topology(const Args& args, const memsim::MachineConfig& m) {
  if (args.loi_per_tier.empty()) return true;
  int fabric_tiers = 0;
  for (memsim::TierId t = 0; t < m.num_tiers(); ++t)
    if (m.topology.is_fabric(t)) ++fabric_tiers;
  const int given = static_cast<int>(args.loi_per_tier.size()) - 1;  // leading node zero
  if (given == fabric_tiers) return true;
  std::cerr << "error: --loi expects " << fabric_tiers << " value(s) for --fabric "
            << args.fabric << " (one per fabric tier), got " << given << "\n";
  return false;
}

/// Builds the LoI schedule requested by --loi-trace/--loi-wave against the
/// selected machine; nullopt (with a diagnostic on stderr) for malformed
/// specs, non-fabric links, or a trace whose columns miscount the
/// topology's fabric tiers. Waves given after a trace override that link's
/// trace column.
std::optional<memsim::LoiSchedule> schedule_of(const Args& args,
                                               const memsim::MachineConfig& m) {
  memsim::LoiSchedule schedule;
  std::string error;
  if (args.loi_trace_path) {
    std::vector<memsim::TierId> fabric_tiers;
    for (memsim::TierId t = 0; t < m.num_tiers(); ++t)
      if (m.topology.is_fabric(t)) fabric_tiers.push_back(t);
    auto traced = memsim::load_loi_trace_csv(*args.loi_trace_path, fabric_tiers, error);
    if (!traced) {
      std::cerr << "error: --loi-trace: " << error << "\n";
      return std::nullopt;
    }
    schedule = std::move(*traced);
  }
  for (const auto& spec : args.loi_waves) {
    auto wave = memsim::parse_loi_wave(spec, error);
    if (!wave) {
      std::cerr << "error: --loi-wave: " << error << "\n";
      return std::nullopt;
    }
    if (!m.topology.valid_tier(wave->tier) || !m.topology.is_fabric(wave->tier)) {
      std::cerr << "error: --loi-wave: tier " << wave->tier << " is not a fabric tier of "
                << "--fabric " << args.fabric << "\n";
      return std::nullopt;
    }
    schedule.set(wave->tier, std::move(wave->wave));
  }
  return schedule;
}

int cmd_machine(const Args& args) {
  const auto m = core::machine_for_fabric(args.fabric);
  Table t({"parameter", "value"});
  t.add_row({"peak compute", Table::num(m.peak_gflops, 0) + " Gflop/s (" +
                                 std::to_string(m.threads) + " threads)"});
  for (memsim::TierId ti = 0; ti < m.num_tiers(); ++ti) {
    const auto& tier = m.tier(ti);
    t.add_row({"tier " + std::to_string(ti) + (ti == memsim::kNodeTier ? " (node)" : ""),
               tier.name + ": " + Table::num(tier.bandwidth_gbps, 0) + " GB/s, " +
                   Table::num(tier.latency_ns, 0) + " ns, " +
                   format_bytes(static_cast<double>(tier.capacity_bytes))});
    if (tier.link) {
      t.add_row({"  link", Table::num(tier.link->traffic_capacity_gbps, 0) +
                               " GB/s traffic cap, " +
                               Table::num(tier.link->protocol_overhead, 2) + "x overhead" +
                               (tier.upstream != memsim::kNodeTier
                                    ? ", behind " + m.tier(tier.upstream).name
                                    : "")});
    }
  }
  t.add_row({"R_bw (off-node)", Table::pct(m.remote_bandwidth_ratio())});
  t.print(std::cout);
  return 0;
}

int cmd_level1(const Args& args, workloads::App app) {
  core::RunConfig rc;
  rc.machine = core::machine_for_fabric(args.fabric);
  if (!loi_matches_topology(args, rc.machine)) return 2;
  rc.background_loi_per_tier = args.loi_per_tier;
  const auto schedule = schedule_of(args, rc.machine);
  if (!schedule) return 2;
  rc.loi_schedule = *schedule;
  rc.link_model = args.link_model;
  core::MultiLevelProfiler profiler(rc);
  auto wl = workloads::make_workload(app, args.scale);
  const auto l1 = profiler.level1(*wl);
  const auto pf = profiler.prefetch(*wl, l1).metrics;
  Table t({"metric", "value"});
  t.add_row({"verified", l1.run.result.verified ? "yes" : "NO"});
  t.add_row({"simulated time", Table::num(l1.run.elapsed_s * 1e3, 3) + " ms"});
  t.add_row({"peak footprint", format_bytes(static_cast<double>(l1.run.peak_rss_bytes))});
  t.add_row({"arithmetic intensity", Table::num(l1.arithmetic_intensity, 3) + " flop/B"});
  t.add_row({"mean DRAM bandwidth", Table::num(l1.mean_dram_gbps, 1) + " GB/s"});
  t.add_row({"scaling-curve skew", Table::num(l1.scaling_curve.skewness(), 3)});
  t.add_row({"hot set for 90% traffic",
             Table::pct(l1.scaling_curve.footprint_fraction_for(0.9)) + " of footprint"});
  t.add_row({"prefetch accuracy", Table::pct(pf.accuracy)});
  t.add_row({"prefetch coverage", Table::pct(pf.coverage)});
  t.add_row({"prefetch excess traffic", Table::pct(pf.excess_traffic)});
  t.add_row({"prefetch performance gain", Table::pct(pf.performance_gain)});
  t.print(std::cout);
  std::cout << "\nphases:\n";
  Table p({"phase", "time share", "AI", "Gflop/s", "DRAM GB/s"});
  for (const auto& phase : l1.phases)
    p.add_row({phase.tag, Table::pct(phase.weight), Table::num(phase.arithmetic_intensity, 3),
               Table::num(phase.gflops_rate, 2), Table::num(phase.dram_gbps, 1)});
  p.print(std::cout);
  if (args.csv_path) {
    CsvWriter csv(*args.csv_path, {"footprint_fraction", "access_fraction"});
    const auto ys = l1.scaling_curve.sample(101);
    for (std::size_t i = 0; i < ys.size(); ++i)
      csv.add_row({Table::num(static_cast<double>(i) / 100.0, 2), Table::num(ys[i], 5)});
    std::cout << "\nscaling curve written to " << *args.csv_path << "\n";
  }
  return l1.run.result.verified ? 0 : 1;
}

int cmd_level2(const Args& args, workloads::App app) {
  core::RunConfig rc;
  rc.machine = core::machine_for_fabric(args.fabric);
  if (!loi_matches_topology(args, rc.machine)) return 2;
  rc.background_loi_per_tier = args.loi_per_tier;
  const auto schedule = schedule_of(args, rc.machine);
  if (!schedule) return 2;
  rc.loi_schedule = *schedule;
  rc.link_model = args.link_model;
  core::MultiLevelProfiler profiler(rc);
  auto wl = workloads::make_workload(app, args.scale);
  const auto l2 = profiler.level2(*wl, args.ratio);
  std::cout << "R_cap(remote) = " << Table::pct(l2.remote_capacity_ratio_configured)
            << " (measured " << Table::pct(l2.remote_capacity_ratio_measured)
            << "), R_bw(remote) = " << Table::pct(l2.remote_bandwidth_ratio) << "\n\n";
  Table t({"phase", "time share", "%remote access", "AI"});
  for (const auto& phase : l2.phases)
    t.add_row({phase.tag, Table::pct(phase.weight), Table::pct(phase.remote_access_ratio),
               Table::num(phase.arithmetic_intensity, 3)});
  t.print(std::cout);
  const auto advice = core::advise(l2);
  std::cout << "\nadvisor: " << advice.summary << "\n";
  return 0;
}

int cmd_level3(const Args& args, workloads::App app) {
  core::RunConfig rc;
  rc.machine = core::machine_for_fabric(args.fabric);
  rc.link_model = args.link_model;
  core::MultiLevelProfiler profiler(rc);
  auto wl = workloads::make_workload(app, args.scale);
  // One profile cache for the whole command: the LoI levels re-price the
  // baseline's capture.
  core::ProfileCache profiles;
  const core::ProfileScope scope(profiles);
  const auto l3 = profiler.level3(*wl, args.ratio, args.lois);
  Table t({"LoI (%)", "relative performance"});
  for (const auto& pt : l3.sensitivity)
    t.add_row({Table::num(pt.loi, 0), Table::num(pt.relative_performance, 4)});
  t.print(std::cout);
  std::cout << "\ninduced interference coefficient: " << Table::num(l3.induced.ic_mean, 3)
            << " (phase spread " << Table::num(l3.induced.ic_min, 3) << " - "
            << Table::num(l3.induced.ic_max, 3) << ")\n";
  if (args.csv_path) {
    CsvWriter csv(*args.csv_path, {"loi", "relative_performance"});
    for (const auto& pt : l3.sensitivity)
      csv.add_row({Table::num(pt.loi, 1), Table::num(pt.relative_performance, 6)});
    std::cout << "sensitivity curve written to " << *args.csv_path << "\n";
  }
  return 0;
}

int cmd_lbench(const Args& args) {
  native::NativeLbenchConfig cfg;
  cfg.elements = args.elements;
  cfg.nflop = args.nflop;
  cfg.threads = args.threads;
  const auto res = native::run_native_lbench(cfg);
  Table t({"metric", "value"});
  t.add_row({"verified", res.verified ? "yes" : "NO"});
  t.add_row({"wall time", Table::num(res.seconds * 1e3, 2) + " ms"});
  t.add_row({"array traffic", Table::num(res.data_gbps, 2) + " GB/s"});
  t.add_row({"compute rate", Table::num(res.gflops, 2) + " Gflop/s"});
  const auto m = core::machine_for_fabric(args.fabric);
  t.add_row({"offered LoI (model)",
             Table::num(100.0 * core::lbench_offered_utilization(m, args.threads, args.nflop),
                        1) +
                 "%"});
  t.print(std::cout);
  return res.verified ? 0 : 1;
}

int cmd_scenarios(const Args&) {
  Table t({"scenario", "artifact", "configs", "description"});
  for (const auto* s : core::ScenarioRegistry::instance().list())
    t.add_row({s->name, s->artifact, std::to_string(s->spec.size()), s->caption});
  t.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.scenario) {
    std::cerr << "error: sweep requires --scenario (see `memdis scenarios`)\n";
    return 2;
  }
  const auto* scenario = core::ScenarioRegistry::instance().find(*args.scenario);
  if (!scenario) {
    std::cerr << "error: unknown scenario '" << *args.scenario << "'\n";
    cmd_scenarios(args);
    return 2;
  }
  std::cout << scenario->artifact << " — " << scenario->caption << "\n"
            << scenario->spec.size() << " configurations, jobs=" << args.jobs << "\n";
  // Scenarios that pin a link model in their own configs still win.
  core::Scenario configured = *scenario;
  configured.spec.link_model = args.link_model;
  core::SweepOptions options;
  options.jobs = args.jobs;
  const auto result = core::run_scenario(configured, options);
  std::cout << "sweep finished in " << Table::num(result.wall_seconds, 2) << " s ("
            << result.rows.size() << " rows)\n\n";
  if (scenario->summarize) scenario->summarize(result, std::cout);
  // The claims gate the exit status only on the registered spec: under
  // another link model they describe a configuration they were not made for.
  const bool gated = args.link_model == scenario->spec.link_model;
  const std::size_t mismatches = core::report_claims(scenario->claims, result.rows, std::cout);
  if (!gated && !scenario->claims.empty())
    std::cout << "(claims not gated: --link-model differs from the scenario's own)\n";
  if (args.out_dir) {
    std::filesystem::create_directories(*args.out_dir);
    const auto csv = *args.out_dir + "/" + scenario->name + ".csv";
    const auto json = *args.out_dir + "/" + scenario->name + ".json";
    result.write_csv_file(csv);
    result.write_json_file(json);
    std::cout << "\nartifacts written to " << csv << " and " << json << "\n";
  }
  if (args.csv_path) {
    result.write_csv_file(*args.csv_path);
    std::cout << "\nsweep rows written to " << *args.csv_path << "\n";
  }
  if (gated && mismatches > 0) {
    std::cerr << "error: " << mismatches << " paper claim(s) of " << scenario->name
              << " disagree with their expected verdict\n";
    return 1;
  }
  return 0;
}

int cmd_fleet(const Args& args) {
  // Malformed arrival specs (grammar, rates, trace rows) are invocation
  // errors: diagnose and exit 2, like every other strict flag.
  std::string error;
  const auto spec = fleet::parse_arrival_spec(args.arrivals, error);
  if (!spec) {
    std::cerr << "error: --arrivals: " << error << "\n";
    return 2;
  }

  fleet::FleetConfig cfg;
  cfg.pools = fleet::default_pools(args.pools);
  for (auto& pool : cfg.pools) {
    pool.nodes = args.pool_nodes;
    pool.capacity_gb = args.pool_gb;
  }
  cfg.policy = args.policy;
  cfg.migration = args.migration;
  cfg.queue_limit = args.queue_limit;
  cfg.step_s = args.step_s;
  cfg.base_seed = args.seed;

  const auto classes = fleet::default_job_classes();
  std::vector<fleet::Arrival> arrivals;
  if (spec->kind == fleet::ArrivalKind::kPoisson) {
    std::vector<double> weights;
    for (const auto& cls : classes) weights.push_back(cls.weight);
    arrivals = fleet::expand_poisson_arrivals(*spec, weights, cfg.base_seed);
  } else {
    std::vector<std::string> names;
    for (const auto& cls : classes) names.push_back(cls.profile.app);
    auto loaded = fleet::load_trace_arrivals(spec->trace_path, names, cfg.base_seed, error);
    if (!loaded) {
      std::cerr << "error: --arrivals: " << error << "\n";
      return 2;
    }
    arrivals = std::move(*loaded);
  }
  const std::size_t late = fleet::first_unreachable_arrival(arrivals, cfg.step_s);
  if (late < arrivals.size()) {
    std::cerr << "error: --arrivals: arrival " << late << " at " << arrivals[late].time_s
              << " s is at or beyond 2^52 steps of " << cfg.step_s
              << " s, which the fleet clock cannot reach\n";
    return 2;
  }

  std::cout << "fleet: " << arrivals.size() << " arrivals over " << cfg.pools.size()
            << " pool(s) (" << args.pool_nodes << " nodes, " << Table::num(args.pool_gb, 0)
            << " GB each), policy "
            << (cfg.policy == fleet::AdmissionPolicy::kFirstFit ? "first-fit" : "loi-aware")
            << ", migration " << (cfg.migration ? "on" : "off") << ", jobs=" << args.jobs
            << "\n";
  const fleet::FleetResult result = fleet::run_fleet(cfg, classes, arrivals, args.jobs);

  Table t({"metric", "value"});
  t.add_row({"completed", std::to_string(result.completed)});
  t.add_row({"rejected", std::to_string(result.rejected)});
  t.add_row({"migrations", std::to_string(result.migrations)});
  t.add_row({"makespan", Table::num(result.makespan_s, 1) + " s"});
  t.add_row({"p50 slowdown", Table::num(result.p50_slowdown, 3) + "x"});
  t.add_row({"p99 slowdown", Table::num(result.p99_slowdown, 3) + "x"});
  t.add_row({"p50 wait", Table::num(result.p50_wait_s, 1) + " s"});
  t.add_row({"p99 wait", Table::num(result.p99_wait_s, 1) + " s"});
  t.add_row({"mean pool utilization", Table::pct(result.mean_utilization)});
  t.add_row({"stranded capacity", Table::num(result.stranded_gb, 1) + " GB"});
  t.print(std::cout);

  Table p({"pool", "utilization", "peak used (GB)", "mean demand LoI", "stranded (GB)"});
  for (std::size_t i = 0; i < result.pools.size(); ++i) {
    const auto& stats = result.pools[i];
    p.add_row({std::to_string(i), Table::pct(stats.utilization),
               Table::num(stats.peak_used_gb, 1), Table::num(stats.mean_demand_loi, 1),
               Table::num(stats.stranded_gb, 1)});
  }
  std::cout << "\n";
  p.print(std::cout);

  if (args.out_dir) {
    std::filesystem::create_directories(*args.out_dir);
    const auto csv = *args.out_dir + "/fleet.csv";
    const auto json = *args.out_dir + "/fleet.json";
    result.write_csv_file(csv);
    result.write_json_file(json);
    std::cout << "\nartifacts written to " << csv << " and " << json << "\n";
  }
  if (args.csv_path) {
    result.write_csv_file(*args.csv_path);
    std::cout << "\nper-job rows written to " << *args.csv_path << "\n";
  }
  return 0;
}

int cmd_plan(const Args& args, workloads::App app) {
  auto wl = workloads::make_workload(app, args.scale);
  sim::EngineConfig cfg;
  // Shape capacities so args.ratio of the footprint spills off the node;
  // N-tier chains split the spill between the first pool and the tail
  // (the rule every capacity-ratio run uses).
  cfg.machine = core::machine_with_spill(core::machine_for_fabric(args.fabric), args.ratio,
                                         wl->footprint_bytes());
  if (!loi_matches_topology(args, cfg.machine)) return 2;
  cfg.background_loi_per_tier = args.loi_per_tier;
  const auto schedule = schedule_of(args, cfg.machine);
  if (!schedule) return 2;
  cfg.loi_schedule = *schedule;
  cfg.link_model = args.link_model;
  cfg.epoch_accesses = 250'000;  // frequent scan opportunities

  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.allow_staging = args.staging;
  core::MigrationRuntime runtime(mcfg);
  const auto run = core::run_live(*wl, cfg, /*prefetch_enabled=*/true, &runtime);

  Table t({"metric", "value"});
  t.add_row({"simulated time", Table::num(run.elapsed_s * 1e3, 3) + " ms"});
  t.add_row({"scans", std::to_string(runtime.scans())});
  t.add_row({"pages promoted", std::to_string(runtime.pages_promoted())});
  t.add_row({"pages demoted", std::to_string(runtime.pages_demoted())});
  t.add_row({"staged moves", std::to_string(runtime.staged_moves())});
  t.add_row({"direct moves", std::to_string(runtime.direct_moves())});
  t.add_row({"deferred moves", std::to_string(runtime.deferred_moves())});
  t.add_row({"charged transfer cost",
             Table::num(runtime.transfer_cost_s() * 1e3, 3) + " ms"});
  t.print(std::cout);

  // Per-scan effective LoI: the link state each scan priced against,
  // compressed to the scans where the vector changed (a constant schedule
  // prints one row).
  const auto& loi_log = runtime.scan_loi_log();
  if (!loi_log.empty()) {
    constexpr std::size_t kMaxLoiRows = 24;
    Table l({"scan", "effective LoI per link (t1..)"});
    std::size_t shown = 0, transitions = 0;
    const std::vector<double>* prev = nullptr;
    for (std::size_t s = 0; s < loi_log.size(); ++s) {
      if (prev && loi_log[s] == *prev) continue;
      prev = &loi_log[s];
      ++transitions;
      if (shown >= kMaxLoiRows) continue;
      ++shown;
      std::string levels;
      for (std::size_t t = 1; t < loi_log[s].size(); ++t) {
        if (t > 1) levels += ", ";
        levels += Table::num(loi_log[s][t], 0);
      }
      l.add_row({std::to_string(s + 1), levels});
    }
    std::cout << "\nper-scan effective LoI (" << loi_log.size() << " scans, rows where it "
              << "changed):\n";
    l.print(std::cout);
    if (transitions > shown)
      std::cout << "... " << transitions - shown << " more transition(s) not shown\n";
  }

  const auto advice = core::advise_migration(runtime, cfg.machine);
  std::cout << "\nadvisor: " << advice.summary << "\n";

  if (args.csv_path) {
    CsvWriter csv(*args.csv_path,
                  {"scan", "page", "src", "dst", "heat", "cost_ns", "value_ns", "kind"});
    for (const auto& move : runtime.plan_log()) {
      csv.add_row({std::to_string(move.scan), std::to_string(move.page),
                   std::to_string(move.src), std::to_string(move.dst),
                   std::to_string(move.heat), Table::num(move.cost_s * 1e9, 1),
                   Table::num(move.value_s * 1e9, 1),
                   move.demotion ? "demotion" : (move.staged ? "staged" : "direct")});
    }
    std::cout << "plan log (" << runtime.plan_log().size() << " moves) written to "
              << *args.csv_path << "\n";
  }
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.trace_action != "record" && args.trace_action != "replay" &&
      args.trace_action != "info") {
    std::cerr << "error: unknown trace action '" << args.trace_action
              << "' (expected record, replay, or info)\n";
    return 2;
  }
  if (!args.trace_path) {
    std::cerr << "error: trace " << args.trace_action << " requires --trace FILE\n";
    return 2;
  }

  if (args.trace_action == "record") {
    if (!args.app) {
      std::cerr << "error: trace record requires --app\n";
      return 2;
    }
    const auto app = app_of(*args.app);
    if (!app) {
      std::cerr << "error: unknown app '" << *args.app << "'\n";
      return 2;
    }
    trace::TraceRecordWorkload recorder(
        workloads::make_workload(*app, args.scale, args.seed), workloads::app_name(*app),
        args.scale, args.seed, *args.trace_path);
    sim::EngineConfig cfg;
    cfg.machine = core::machine_for_fabric(args.fabric);
    cfg.link_model = args.link_model;
    const auto run = core::run_live(recorder, cfg, /*prefetch_enabled=*/true);
    std::string error;
    const auto data = trace::TraceData::load(*args.trace_path, error);
    if (!data) {
      std::cerr << "error: " << error << "\n";
      return 1;  // we just wrote it; unreadable means an I/O fault, not bad input
    }
    Table t({"metric", "value"});
    t.add_row({"workload", data->workload_name});
    t.add_row({"verified", run.result.verified ? "yes" : "NO"});
    t.add_row({"records", std::to_string(data->record_count)});
    t.add_row({"trace size", format_bytes(static_cast<double>(data->payload.size()))});
    t.add_row({"simulated time", Table::num(run.elapsed_s * 1e3, 3) + " ms"});
    t.print(std::cout);
    std::cout << "trace written to " << *args.trace_path << "\n";
    return run.result.verified ? 0 : 1;
  }

  std::string error;
  auto data = trace::TraceData::load(*args.trace_path, error);
  if (!data) {
    std::cerr << "error: " << error << "\n";
    return 2;  // malformed input file: a validation failure, like a bad flag
  }

  if (args.trace_action == "info") {
    const auto stats = trace::scan_trace(*data, error);
    if (!stats) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    Table t({"field", "value"});
    t.add_row({"app", data->app});
    t.add_row({"workload", data->workload_name});
    t.add_row({"scale", std::to_string(data->scale)});
    t.add_row({"seed", std::to_string(data->seed)});
    t.add_row({"footprint", format_bytes(static_cast<double>(data->footprint_bytes))});
    t.add_row({"verified", data->verified ? "yes" : "NO"});
    t.add_row({"records", std::to_string(data->record_count)});
    t.add_row({"payload", format_bytes(static_cast<double>(data->payload.size()))});
    t.add_row({"stream iterations", std::to_string(stats->stream_iterations)});
    t.print(std::cout);
    static constexpr const char* kOpNames[] = {
        "end",          "alloc",        "free",         "load",        "store",
        "flops",        "load_range",   "store_range",  "rmw_range",   "store_load_range",
        "load_strided", "store_strided", "load_pair",   "store_pair",  "stream",
        "pf_start",     "pf_stop"};
    std::cout << "\nrecords by op:\n";
    Table ops({"op", "count"});
    for (std::size_t i = 0; i < stats->by_op.size(); ++i)
      if (stats->by_op[i] != 0) ops.add_row({kOpNames[i], std::to_string(stats->by_op[i])});
    ops.print(std::cout);
    return 0;
  }

  // replay
  trace::TraceReplayWorkload replayer(std::move(*data));
  sim::EngineConfig cfg;
  cfg.machine = core::machine_for_fabric(args.fabric);
  cfg.link_model = args.link_model;
  const auto run = core::run_live(replayer, cfg, /*prefetch_enabled=*/true);
  Table t({"metric", "value"});
  t.add_row({"workload", replayer.name()});
  t.add_row({"verified (recorded)", run.result.verified ? "yes" : "NO"});
  t.add_row({"simulated time", Table::num(run.elapsed_s * 1e3, 3) + " ms"});
  t.add_row({"epochs", std::to_string(run.epochs.size())});
  t.print(std::cout);
  return run.result.verified ? 0 : 1;
}

int cmd_report(const Args& args) {
  Table t({"app", "verified", "sim time (ms)", "AI", "DRAM GB/s", "skew"});
  core::RunConfig rc;
  rc.machine = core::machine_for_fabric(args.fabric);
  rc.link_model = args.link_model;
  core::MultiLevelProfiler profiler(rc);
  bool all_ok = true;
  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, args.scale);
    const auto l1 = profiler.level1(*wl);
    all_ok = all_ok && l1.run.result.verified;
    t.add_row({wl->name(), l1.run.result.verified ? "yes" : "NO",
               Table::num(l1.run.elapsed_s * 1e3, 3), Table::num(l1.arithmetic_intensity, 3),
               Table::num(l1.mean_dram_gbps, 1), Table::num(l1.scaling_curve.skewness(), 3)});
  }
  t.print(std::cout);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage(std::cerr);
    return 2;
  }
  try {
    if (args->command == "trace") return cmd_trace(*args);
    if (args->command == "machine") return cmd_machine(*args);
    if (args->command == "lbench") return cmd_lbench(*args);
    if (args->command == "report") return cmd_report(*args);
    if (args->command == "scenarios") return cmd_scenarios(*args);
    if (args->command == "sweep") return cmd_sweep(*args);
    if (args->command == "fleet") return cmd_fleet(*args);
    if (args->command == "level1" || args->command == "level2" || args->command == "level3" ||
        args->command == "plan") {
      if (!args->app) {
        std::cerr << "error: " << args->command << " requires --app\n";
        return 2;
      }
      const auto app = app_of(*args->app);
      if (!app) {
        std::cerr << "error: unknown app '" << *args->app << "'\n";
        return 2;
      }
      if (args->command == "level1") return cmd_level1(*args, *app);
      if (args->command == "level2") return cmd_level2(*args, *app);
      if (args->command == "plan") return cmd_plan(*args, *app);
      return cmd_level3(*args, *app);
    }
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
