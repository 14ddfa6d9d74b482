#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/artifact_format.h"
#include "common/contract.h"
#include "common/csv.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/epoch_profile.h"

namespace memdis::core {
// append_double / append_json_escaped come from common/artifact_format.h: the
// byte-identity contract on artifacts is shared with the fleet writers,
// so the formatting that implements it lives in one place.

namespace {

/// Every topology preset, in CLI listing order.
const std::pair<const char*, memsim::MachineConfig (*)()> kTopologyPresets[] = {
    {"upi", memsim::MachineConfig::skylake_testbed},
    {"cxl", memsim::MachineConfig::cxl_direct_attached},
    {"cxl-switched", memsim::MachineConfig::cxl_switched_pool},
    {"split", memsim::MachineConfig::split_borrowing},
    {"three-tier", memsim::MachineConfig::three_tier_cxl},
    {"hybrid", memsim::MachineConfig::hybrid_split_pool},
};

}  // namespace

memsim::MachineConfig machine_for_fabric(const std::string& fabric) {
  for (const auto& [name, make] : kTopologyPresets)
    if (fabric == name) return make();
  std::string names;
  for (const auto& preset : kTopologyPresets)
    names.append(names.empty() ? "" : "|").append(preset.first);
  throw std::invalid_argument("unknown topology preset '" + fabric + "' (expected " + names + ")");
}

std::vector<std::string> topology_preset_names() {
  std::vector<std::string> names;
  for (const auto& preset : kTopologyPresets) names.emplace_back(preset.first);
  return names;
}

RunConfig SweepPoint::run_config() const {
  RunConfig rc;
  rc.machine = machine_for_fabric(fabric);
  rc.background_loi = loi;
  rc.prefetch_enabled = prefetch;
  if (ratio != kNodeOnly) rc.remote_capacity_ratio = ratio;
  rc.link_model = link_model;
  return rc;
}

std::string replay_cache_dir() { return {}; }

void set_replay_cache_dir(std::string dir) {
  expects(dir.empty(), "the replay cache has been removed; only \"\" is accepted");
}

std::unique_ptr<workloads::Workload> SweepPoint::make_workload() const {
  return workloads::make_workload(app, scale, seed);
}

std::string SweepPoint::functional_group_key() const {
  // Everything but the timing knobs `loi` and `link_model`, and `index`
  // (the row slot). Coarser than core::functional_key — that one sees the
  // actual workload parameters and shaped machine — but grouping only
  // schedules waves; the repricer's own key decides what is actually reused.
  std::string key = workloads::app_name(app);
  key += '/';
  key += std::to_string(scale);
  key += '/';
  append_double(key, ratio);
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
                p.link_model = link_model;
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
  const auto metrics = metric_names();
  std::unordered_map<std::string_view, std::size_t> column;
  for (std::size_t c = 0; c < metrics.size(); ++c) column.emplace(metrics[c], c);
  std::string buf;
  buf.reserve(kArtifactChunkBytes + 1024);
  buf += "index,app,scale,ratio,loi,fabric,prefetch,variant,seed";
  for (const auto& name : metrics) {
    buf += ',';
    append_csv_field(buf, name);
  }
  buf += '\n';
  // Each row's metrics are placed by column once; a name repeated within a
  // row keeps its first value.
  std::vector<const double*> cells(metrics.size());
  for (const auto& row : rows) {
    std::fill(cells.begin(), cells.end(), nullptr);
    for (const auto& [name, value] : row.metrics) {
      const double*& cell = cells[column.find(name)->second];
      if (cell == nullptr) cell = &value;
    }
    append_int(buf, row.point.index);
    buf += ',';
    append_csv_field(buf, workloads::app_name(row.point.app));
    buf += ',';
    append_int(buf, row.point.scale);
    buf += ',';
    if (row.point.ratio == kNodeOnly) {
      buf += "local";
    } else {
      append_double(buf, row.point.ratio);
    }
    buf += ',';
    append_double(buf, row.point.loi);
    buf += ',';
    append_csv_field(buf, row.point.fabric);
    buf += row.point.prefetch ? ",on," : ",off,";
    append_csv_field(buf, row.point.variant);
    buf += ',';
    append_int(buf, row.point.seed);
    for (const double* cell : cells) {
      buf += ',';
      if (cell != nullptr) append_double(buf, *cell);
    }
    buf += '\n';
    flush_artifact_chunk(os, buf);
  }
  flush_artifact_chunk(os, buf, 0);
}

void SweepResult::write_csv_file(const std::string& path) const {
  write_artifact_file(path, [this](std::ostream& os) { write_csv(os); });
}

void SweepResult::write_json(std::ostream& os) const {
  std::string buf;
  buf.reserve(kArtifactChunkBytes + 1024);
  buf += "{\n  \"scenario\": \"";
  append_json_escaped(buf, scenario);
  buf += "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    buf += "    {\"index\": ";
    append_int(buf, row.point.index);
    buf += ", \"app\": \"";
    buf += workloads::app_name(row.point.app);
    buf += "\", \"scale\": ";
    append_int(buf, row.point.scale);
    buf += ", \"ratio\": ";
    if (row.point.ratio == kNodeOnly) {
      buf += "null";
    } else {
      append_double(buf, row.point.ratio);
    }
    buf += ", \"loi\": ";
    append_double(buf, row.point.loi);
    buf += ", \"fabric\": \"";
    append_json_escaped(buf, row.point.fabric);
    buf += row.point.prefetch ? "\", \"prefetch\": true" : "\", \"prefetch\": false";
    buf += ", \"variant\": \"";
    append_json_escaped(buf, row.point.variant);
    buf += "\", \"seed\": ";
    append_int(buf, row.point.seed);
    buf += ", \"metrics\": {";
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      buf += m ? ", \"" : "\"";
      append_json_escaped(buf, row.metrics[m].first);
      buf += "\": ";
      append_double(buf, row.metrics[m].second);
    }
    buf += i + 1 < rows.size() ? "}},\n" : "}}\n";
    flush_artifact_chunk(os, buf);
  }
  buf += "  ]\n}\n";
  flush_artifact_chunk(os, buf, 0);
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
  ProfileCache cache;
  const auto run_point = [&](std::size_t i) {
    const ProfileScope scope(cache);
    result.rows[i].point = points[i];
    result.rows[i].metrics = measure(points[i]);
  };
  // Two waves: the first point of each functional group runs (and, for
  // eligible measures, captures its epoch profile) before the rest of the
  // group re-prices from it. Purely a scheduling optimization — without it
  // a group's points racing in one wave would each capture — rows land in
  // grid slots either way, bit-identical to serial.
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
  parallel_for(leaders.size(), options.jobs, [&](std::size_t j) { run_point(leaders[j]); });
  parallel_for(followers.size(), options.jobs, [&](std::size_t j) { run_point(followers[j]); });
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.repricing = cache.stats();
  return result;
}

}  // namespace memdis::core
