#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <mutex>
#include <unordered_set>

#include "common/artifact_format.h"
#include "common/contract.h"
#include "common/csv.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/epoch_profile.h"
#include "trace/trace_workload.h"

namespace memdis::core {
// format_double / json_escape come from common/artifact_format.h: the
// byte-identity contract on artifacts is shared with the fleet writers,
// so the formatting that implements it lives in one place.

memsim::MachineConfig machine_for_fabric(const std::string& fabric) {
  if (fabric == "upi") return memsim::MachineConfig::skylake_testbed();
  if (fabric == "cxl") return memsim::MachineConfig::cxl_direct_attached();
  if (fabric == "cxl-switched") return memsim::MachineConfig::cxl_switched_pool();
  if (fabric == "split") return memsim::MachineConfig::split_borrowing();
  if (fabric == "three-tier") return memsim::MachineConfig::three_tier_cxl();
  if (fabric == "hybrid") return memsim::MachineConfig::hybrid_split_pool();
  throw std::invalid_argument(
      "unknown topology preset '" + fabric +
      "' (expected upi|cxl|cxl-switched|split|three-tier|hybrid)");
}

const std::vector<std::string>& topology_preset_names() {
  static const std::vector<std::string> names = {"upi",   "cxl",        "cxl-switched",
                                                 "split", "three-tier", "hybrid"};
  return names;
}

RunConfig SweepPoint::run_config() const {
  RunConfig rc;
  rc.machine = machine_for_fabric(fabric);
  rc.background_loi = loi;
  rc.prefetch_enabled = prefetch;
  if (ratio != kNodeOnly) rc.remote_capacity_ratio = ratio;
  return rc;
}

namespace {
std::mutex g_replay_cache_mutex;
std::string g_replay_cache_dir;  // guarded by g_replay_cache_mutex
}  // namespace

std::string replay_cache_dir() {
  const std::lock_guard<std::mutex> lock(g_replay_cache_mutex);
  return g_replay_cache_dir;
}

void set_replay_cache_dir(std::string dir) {
  const std::lock_guard<std::mutex> lock(g_replay_cache_mutex);
  g_replay_cache_dir = std::move(dir);
}

std::unique_ptr<workloads::Workload> SweepPoint::make_workload() const {
  const std::string cache = replay_cache_dir();
  if (!cache.empty()) return trace::make_cached_workload(cache, app, scale, seed);
  return workloads::make_workload(app, scale, seed);
}

std::string SweepPoint::functional_group_key() const {
  // Everything but `loi` (the timing axis) and `index` (the row slot).
  // Coarser than core::functional_key — that one sees the actual workload
  // parameters and shaped machine — but grouping only schedules waves;
  // the repricer's own key decides what is actually reused.
  std::string key = workloads::app_name(app);
  key += '/';
  key += std::to_string(scale);
  key += '/';
  key += format_double(ratio);
  key += '/';
  key += fabric;
  key += prefetch ? "/pf1/" : "/pf0/";
  key += variant;
  key += '/';
  key += std::to_string(seed);
  return key;
}

std::size_t SweepSpec::size() const {
  return apps.size() * scales.size() * ratios.size() * lois.size() * fabrics.size() *
         prefetch.size() * variants.size();
}

std::vector<SweepPoint> SweepSpec::expand() const {
  expects(!apps.empty() && !scales.empty() && !ratios.empty() && !lois.empty() &&
              !fabrics.empty() && !prefetch.empty() && !variants.empty(),
          "SweepSpec axes must be non-empty");
  std::vector<SweepPoint> points;
  points.reserve(size());
  for (const auto app : apps)
    for (const int scale : scales)
      for (const double ratio : ratios)
        for (const double loi : lois)
          for (const auto& fabric : fabrics)
            for (const bool pf : prefetch)
              for (const auto& variant : variants) {
                SweepPoint p;
                p.index = points.size();
                p.app = app;
                p.scale = scale;
                p.ratio = ratio;
                p.loi = loi;
                p.fabric = fabric;
                p.prefetch = pf;
                p.variant = variant;
                // Stream-split the base seed per task: the same point gets
                // the same seed no matter which thread runs it, and
                // neighbouring indices get statistically independent seeds.
                p.seed = seed_per_task
                             ? SplitMix64(base_seed ^ (0x9e3779b97f4a7c15ULL * (p.index + 1)))
                                   .next()
                             : base_seed;
                points.push_back(std::move(p));
              }
  return points;
}

std::vector<std::string> SweepResult::metric_names() const {
  std::vector<std::string> names;
  for (const auto& row : rows)
    for (const auto& [name, value] : row.metrics) {
      (void)value;
      if (std::find(names.begin(), names.end(), name) == names.end()) names.push_back(name);
    }
  return names;
}

void SweepResult::write_csv(std::ostream& os) const {
  std::vector<std::string> header = {"index", "app",    "scale",    "ratio",
                                     "loi",   "fabric", "prefetch", "variant",
                                     "seed"};
  const auto metrics = metric_names();
  header.insert(header.end(), metrics.begin(), metrics.end());
  CsvWriter csv(os, header);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {
        std::to_string(row.point.index),
        workloads::app_name(row.point.app),
        std::to_string(row.point.scale),
        row.point.ratio == kNodeOnly ? "local" : format_double(row.point.ratio),
        format_double(row.point.loi),
        row.point.fabric,
        row.point.prefetch ? "on" : "off",
        row.point.variant,
        std::to_string(row.point.seed)};
    for (const auto& name : metrics) {
      const auto it = std::find_if(row.metrics.begin(), row.metrics.end(),
                                   [&](const Metric& m) { return m.first == name; });
      cells.push_back(it == row.metrics.end() ? "" : format_double(it->second));
    }
    csv.add_row(cells);
  }
}

void SweepResult::write_csv_file(const std::string& path) const {
  write_artifact_file(path, [this](std::ostream& os) { write_csv(os); });
}

void SweepResult::write_json(std::ostream& os) const {
  os << "{\n  \"scenario\": \"" << json_escape(scenario) << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    os << "    {\"index\": " << row.point.index << ", \"app\": \""
       << workloads::app_name(row.point.app) << "\", \"scale\": " << row.point.scale
       << ", \"ratio\": "
       << (row.point.ratio == kNodeOnly ? std::string("null") : format_double(row.point.ratio))
       << ", \"loi\": " << format_double(row.point.loi) << ", \"fabric\": \""
       << json_escape(row.point.fabric) << "\", \"prefetch\": "
       << (row.point.prefetch ? "true" : "false") << ", \"variant\": \""
       << json_escape(row.point.variant) << "\", \"seed\": " << row.point.seed
       << ", \"metrics\": {";
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      os << (m ? ", " : "") << "\"" << json_escape(row.metrics[m].first)
         << "\": " << format_double(row.metrics[m].second);
    }
    os << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void SweepResult::write_json_file(const std::string& path) const {
  write_artifact_file(path, [this](std::ostream& os) { write_json(os); });
}

bool SweepResult::rows_equal(const SweepResult& other) const {
  if (rows.size() != other.rows.size()) return false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& a = rows[i];
    const auto& b = other.rows[i];
    // Defaulted memberwise equality: a field added to SweepPoint is
    // compared automatically instead of silently going stale here.
    if (!(a.point == b.point) || a.metrics.size() != b.metrics.size()) return false;
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
      if (a.metrics[m].first != b.metrics[m].first) return false;
      // Bit-pattern comparison: NaN-safe and stricter than ==.
      std::uint64_t abits = 0, bbits = 0;
      static_assert(sizeof(double) == sizeof(std::uint64_t));
      std::memcpy(&abits, &a.metrics[m].second, sizeof(abits));
      std::memcpy(&bbits, &b.metrics[m].second, sizeof(bbits));
      if (abits != bbits) return false;
    }
  }
  return true;
}

SweepResult run_sweep(const SweepSpec& spec, const MeasureFn& measure,
                      const SweepOptions& options) {
  expects(static_cast<bool>(measure), "run_sweep requires a measure function");
  const auto points = spec.expand();
  SweepResult result;
  result.rows.resize(points.size());
  const auto t0 = std::chrono::steady_clock::now();
  const auto run_point = [&](std::size_t i) {
    result.rows[i].point = points[i];
    result.rows[i].metrics = measure(points[i]);
  };
  if (reprice_enabled() && points.size() > 1) {
    // Two waves: the first point of each functional group runs (and, for
    // eligible measures, captures its epoch profile) before the rest of
    // the group re-prices from it. Purely a scheduling optimization —
    // without it a group's points racing in one wave would each capture —
    // rows land in grid slots either way, bit-identical to serial.
    std::vector<std::size_t> leaders;
    std::vector<std::size_t> followers;
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (seen.insert(points[i].functional_group_key()).second) {
        leaders.push_back(i);
      } else {
        followers.push_back(i);
      }
    }
    parallel_for(leaders.size(), options.jobs,
                 [&](std::size_t j) { run_point(leaders[j]); });
    parallel_for(followers.size(), options.jobs,
                 [&](std::size_t j) { run_point(followers[j]); });
  } else {
    parallel_for(points.size(), options.jobs, run_point);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace memdis::core
