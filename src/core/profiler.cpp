#include "core/profiler.h"

#include "common/contract.h"
#include "common/units.h"

namespace memdis::core {

namespace {

std::vector<PhaseCharacteristics> phase_characteristics(const RunOutput& run) {
  std::vector<PhaseCharacteristics> out;
  for (const auto& phase : run.phases) {
    PhaseCharacteristics pc;
    pc.tag = phase.tag;
    pc.time_s = phase.time_s;
    pc.weight = run.elapsed_s > 0 ? phase.time_s / run.elapsed_s : 0.0;
    pc.arithmetic_intensity = phase_arithmetic_intensity(phase);
    if (phase.time_s > 0) {
      pc.gflops_rate = static_cast<double>(phase.flops) / phase.time_s * 1e-9;
      pc.dram_gbps = bytes_per_sec_to_gbps(
          static_cast<double>(phase.counters.dram_bytes_total()) / phase.time_s);
    }
    out.push_back(std::move(pc));
  }
  return out;
}

/// Level 1's config: node-local memory only, no interference, prefetch on.
RunConfig node_local(RunConfig cfg) {
  cfg.remote_capacity_ratio.reset();
  cfg.background_loi = 0.0;
  cfg.prefetch_enabled = true;
  return cfg;
}

}  // namespace

Level1Profile MultiLevelProfiler::level1(workloads::Workload& workload) const {
  RunOutput on = run_workload(workload, node_local(base_));

  const std::uint64_t rss_pages = on.peak_rss_bytes / base_.machine.page_bytes;
  std::unordered_map<std::uint64_t, std::uint64_t> hist = on.page_accesses;
  if (hist.empty()) {
    // Fully cache-resident run: no DRAM-level load misses were sampled, so
    // the best available statement is a uniform distribution over the
    // resident footprint (every page equally "hot" as far as DRAM saw).
    for (std::uint64_t p = 0; p < std::max<std::uint64_t>(rss_pages, 1); ++p) hist[p] = 1;
  }
  const std::uint64_t sampled = hist.size();
  const std::uint64_t untouched = rss_pages > sampled ? rss_pages - sampled : 0;

  return {on.arithmetic_intensity(),
          on.elapsed_s > 0 ? bytes_per_sec_to_gbps(
                                 static_cast<double>(on.counters.dram_bytes_total()) /
                                 on.elapsed_s)
                           : 0.0,
          phase_characteristics(on), ScalingCurve(hist, untouched), std::move(on)};
}

PrefetchProfile MultiLevelProfiler::prefetch(workloads::Workload& workload,
                                             const Level1Profile& l1) const {
  RunConfig cfg = node_local(base_);
  cfg.prefetch_enabled = false;
  RunOutput off = run_workload(workload, cfg);
  return {analyze_prefetch(l1.run.counters, l1.run.elapsed_s, off.counters, off.elapsed_s),
          std::move(off)};
}

Level2Profile MultiLevelProfiler::level2(workloads::Workload& workload,
                                         double remote_capacity_ratio) const {
  expects(remote_capacity_ratio >= 0.0 && remote_capacity_ratio < 1.0,
          "remote capacity ratio must be in [0,1)");
  RunConfig cfg = base_;
  cfg.remote_capacity_ratio = remote_capacity_ratio;
  cfg.background_loi = 0.0;
  RunOutput run = run_workload(workload, cfg);

  Level2Profile p;
  p.remote_capacity_ratio_configured = remote_capacity_ratio;
  p.remote_capacity_ratio_measured = run.remote_capacity_ratio();
  p.remote_bandwidth_ratio = cfg.machine.remote_bandwidth_ratio();
  p.remote_access_ratio_total = run.remote_access_ratio();
  for (const auto& phase : run.phases) {
    PhaseTierAccess pa;
    pa.tag = phase.tag;
    pa.weight = run.elapsed_s > 0 ? phase.time_s / run.elapsed_s : 0.0;
    pa.remote_access_ratio = phase_remote_access_ratio(phase);
    pa.arithmetic_intensity = phase_arithmetic_intensity(phase);
    p.phases.push_back(std::move(pa));
  }
  p.run = std::move(run);
  return p;
}

Level3Profile MultiLevelProfiler::level3(workloads::Workload& workload,
                                         double remote_capacity_ratio,
                                         const std::vector<double>& lois) const {
  RunConfig cfg = base_;
  cfg.remote_capacity_ratio = remote_capacity_ratio;
  cfg.background_loi = 0.0;
  Level3Profile p;
  p.baseline = run_workload(workload, cfg);
  p.sensitivity = sensitivity_sweep(workload, cfg, p.baseline, lois);
  p.induced = induced_interference(p.baseline, cfg.machine);
  return p;
}

}  // namespace memdis::core
