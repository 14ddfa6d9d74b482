// Single-threaded, single-process benchmark of memdis.
//
//   perfbench_memdis --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Each workload is one closed-loop caller that repeats a round of timed
// calls (one per app, or one fleet run) until S seconds of host time have
// passed, checking the simulator's outputs on every call. With --trace 0 it
// reports the end-to-end metrics (host times as per-call minima, set-up as
// a median); with --trace 1 it reports the per-layer ledger instead,
// measured from outside the library by timing calls into each module's
// public functions:
//
//   stream-spill   HPL, Hypre, NekRS via core::run_workload on `cxl`, 50% spill
//   gather-spill   BFS, XSBench, same machine and spill ratio
//   migrate-queue  Hypre on `three-tier`, 75% spill, queue links, eager planner
//   fleet-rack     2-pool rack, LoI-aware + migration, oversubscribed Poisson
//                  stream, CSV/JSON artifacts written
//
// Everything runs on the calling thread (fleet threads=1, no sweep pool),
// so the program never competes with itself for cores and cpu_s ≈ wall_s.
//
// Output: one JSON line on stdout with the workload's metrics, the exact
// simulated counts ("exact", compared against perfbench/expected.json for
// the committed seed by run.py), and the attempted/failed operation tally.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/epoch_profile.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "core/sweep.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "sim/engine.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/workload.h"

namespace {

namespace core = memdis::core;
namespace fleet = memdis::fleet;
namespace memsim = memdis::memsim;
namespace sim = memdis::sim;
namespace trace = memdis::trace;
namespace workloads = memdis::workloads;
using workloads::App;

// ---- host clocks ------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Span {
  double wall = 0.0;
  double cpu = 0.0;
};

template <class F>
Span timed(F&& f) {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  f();
  return {wall_now() - w0, cpu_now() - c0};
}

// ---- result tally -------------------------------------------------------------

/// Simulated quantities that must repeat bit for bit: across repetitions,
/// across the untraced/traced/replayed paths, and (for the committed seed)
/// against perfbench/expected.json. Ordered so output is stable.
using Exact = std::map<std::string, double>;

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  Exact exact;

  /// One checked operation: an attempt, and a failure when !ok.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) note_failure(what);
  }
  /// A check that is not itself an operation (process state, path
  /// identity): a mismatch still counts as one failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) note_failure(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, std::make_pair(value, unit));
  }

 private:
  void note_failure(const std::string& what) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(const Report& rep) {
  std::string s = "{\"attempted\": " + std::to_string(rep.attempted) +
                  ", \"failed\": " + std::to_string(rep.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i)
    s += (i ? ", " : "") + json_string(rep.failures[i]);
  s += "], \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, vu] = rep.metrics[i];
    s += (i ? ", " : "") + json_string(name) + ": {\"value\": " + json_number(vu.first) +
         ", \"unit\": " + json_string(vu.second) + "}";
  }
  s += "}, \"exact\": {";
  bool first = true;
  for (const auto& [k, v] : rep.exact) {
    s += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// ---- process-state hygiene ------------------------------------------------------

/// Pins every process-wide default a workload depends on to the value the
/// benchmark is defined with: live runs (no repricing, empty profile cache,
/// no replay cache), exact execution (no fast-forward), the bulk range fast
/// path and the SIMD probe on, and the closed-form link model as the
/// default (each workload also sets its link model in its own config).
void pin_process_state() {
  core::set_reprice_enabled(false);
  core::clear_reprice_cache();
  core::set_replay_cache_dir("");
  sim::set_fast_forward_default(false);
  sim::set_bulk_fast_path_default(true);
  sim::set_link_model_default(memsim::LinkModelKind::kLoi);
  memdis::set_simd_enabled(true);
}

/// True while the pinned state holds — asserted at workload start and before
/// every repetition, so no earlier repetition can change a later one.
bool process_state_pinned() {
  const auto stats = core::reprice_stats();
  return !core::reprice_enabled() && core::reprice_cache_size() == 0 && stats.captures == 0 &&
         stats.reprices == 0 && core::replay_cache_dir().empty() &&
         !sim::fast_forward_default() && sim::bulk_fast_path_default() &&
         sim::link_model_default() == memsim::LinkModelKind::kLoi && memdis::simd_enabled();
}

// ---- host-drift calibration -----------------------------------------------------

/// A fixed host kernel that shares no code with the library: a dependent
/// pointer chase over a 16 MiB single-cycle permutation (memory latency)
/// followed by a scalar floating-point recurrence (core clock). Its time
/// moves only with the host, which lets a reader tell a slow host from a
/// slow change. Returns the median of five timings.
double calibrate_host() {
  constexpr std::uint32_t kSlots = 1u << 22;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle over all slots
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[static_cast<std::uint32_t>((lcg >> 33) % i)]);
  }
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int s = 0; s < 5; ++s) {
    samples.push_back(timed([&] {
                        std::uint32_t p = 0;
                        for (int i = 0; i < 1'000'000; ++i) p = next[p];
                        double x = 1.0 + p * 1e-12;
                        for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
                        sink = x;
                      }).wall);
  }
  (void)sink;
  return median(samples);
}

// ---- engine workloads -------------------------------------------------------------

/// Call-mix ledger of the engine's public instrumentation stream: counts
/// element-wise load/store calls against batched range/strided/pair/stream
/// calls (and the accesses each issues), forwarding every hook to an
/// optional inner sink — the trace recorder — so one attached sink yields
/// both the ledger and the recorded stream.
class CountingSink final : public sim::TraceSink {
 public:
  explicit CountingSink(sim::TraceSink* inner) : inner_(inner) {}
  CountingSink(const CountingSink&) = delete;  // the engine holds its address
  CountingSink& operator=(const CountingSink&) = delete;

  std::uint64_t element_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_accesses = 0;

  void on_alloc(std::uint64_t bytes, const memsim::MemPolicy& policy, const std::string& name,
                std::uint64_t base) override {
    if (inner_) inner_->on_alloc(bytes, policy, name, base);
  }
  void on_free(std::uint64_t base) override {
    if (inner_) inner_->on_free(base);
  }
  void on_access(bool is_store, std::uint64_t addr, std::uint32_t size) override {
    ++element_calls;
    if (inner_) inner_->on_access(is_store, addr, size);
  }
  void on_flops(std::uint64_t n) override {
    if (inner_) inner_->on_flops(n);
  }
  void on_range(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                std::uint32_t elem) override {
    ++batch_calls;
    batch_accesses += (kind >= 2 ? 2 : 1) * (bytes / elem);  // rmw / store_load: two each
    if (inner_) inner_->on_range(kind, addr, bytes, elem);
  }
  void on_strided(bool is_store, std::uint64_t addr, std::uint64_t count, std::uint64_t stride,
                  std::uint32_t elem) override {
    ++batch_calls;
    batch_accesses += count;
    if (inner_) inner_->on_strided(is_store, addr, count, stride, elem);
  }
  void on_pair(bool is_store, std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
               std::uint32_t elem_b, std::uint64_t count) override {
    ++batch_calls;
    batch_accesses += 2 * count;
    if (inner_) inner_->on_pair(is_store, a, elem_a, b, elem_b, count);
  }
  void on_stream(const sim::StreamLane* lanes, std::size_t num_lanes,
                 std::uint64_t count) override {
    ++batch_calls;
    std::uint64_t per_iter = 0;
    for (std::size_t i = 0; i < num_lanes; ++i) {
      const auto op = lanes[i].op;
      per_iter += op == sim::StreamLane::Op::kRmw ? 2 : op == sim::StreamLane::Op::kFlops ? 0 : 1;
    }
    batch_accesses += per_iter * count;
    if (inner_) inner_->on_stream(lanes, num_lanes, count);
  }
  void on_phase(bool start, const std::string& tag) override {
    if (inner_) inner_->on_phase(start, tag);
  }

 private:
  sim::TraceSink* inner_;
};

/// One simulated application of an engine workload: the workload instance,
/// the shaped engine config its runs use, and how the timed call is made.
struct SimJob {
  App app = App::kHPL;
  std::unique_ptr<workloads::Workload> wl;
  sim::EngineConfig ecfg;                         ///< exactly what the timed call builds
  std::optional<core::RunConfig> run_config;      ///< timed call is core::run_workload
  std::optional<core::MigrationConfig> planner;   ///< eager MigrationRuntime attached
};

/// Outputs of one engine run plus the planner's counters.
struct SimOut {
  core::RunOutput out;
  std::uint64_t scans = 0;
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
  std::uint64_t self_deferred = 0;
};

/// The run_workload live path, spelled out so a sink or the planner can be
/// attached: construct the engine from `job.ecfg`, run `w`, finish.
SimOut run_engine(const SimJob& job, workloads::Workload& w, sim::TraceSink* sink,
                  bool with_planner) {
  std::optional<core::MigrationRuntime> runtime;  // outlives the engine holding its callback
  sim::Engine eng(job.ecfg);
  eng.set_prefetch_enabled(true);
  if (with_planner && job.planner) {
    runtime.emplace(*job.planner);
    runtime->attach(eng);
  }
  SimOut so;
  eng.set_trace_sink(sink);  // detached before finish(), as the trace recorder does
  so.out.result = w.run(eng);
  eng.set_trace_sink(nullptr);
  eng.finish();
  so.out.elapsed_s = eng.elapsed_seconds();
  so.out.flops = eng.total_flops();
  so.out.counters = eng.counters();
  so.out.phases = eng.phases();
  so.out.epochs = eng.epochs();
  if (runtime) {
    so.scans = runtime->scans();
    so.promoted = runtime->pages_promoted();
    so.demoted = runtime->pages_demoted();
    so.self_deferred = runtime->self_deferred_moves();
  }
  return so;
}

/// The timed call of a job as a user makes it: core::run_workload for the
/// spill workloads, an engine with the eager planner attached otherwise.
SimOut run_timed_call(const SimJob& job) {
  if (job.run_config) {
    SimOut so;
    so.out = core::run_workload(*job.wl, *job.run_config);
    return so;
  }
  return run_engine(job, *job.wl, nullptr, /*with_planner=*/true);
}

std::uint64_t migrated_bytes(const core::RunOutput& out) {
  std::uint64_t sum = 0;
  for (const auto& e : out.epochs)
    for (const auto b : e.migration_bytes) sum += b;
  return sum;
}

double max_demand_inflation(const core::RunOutput& out) {
  double m = 1.0;
  for (const auto& e : out.epochs)
    for (const double x : e.link_demand_inflation) m = std::max(m, x);
  return m;
}

std::uint64_t fabric_demand_misses(const memdis::cachesim::HwCounters& c) {
  return c.demand_dram_total() - c.demand_dram[memsim::kNodeTier];
}

/// The exact simulated fingerprint of one run, keyed "<app>.<quantity>".
Exact fingerprint(App app, const SimOut& so) {
  const std::string p = std::string(workloads::app_name(app)) + ".";
  const auto& c = so.out.counters;
  Exact e;
  e[p + "accesses"] = static_cast<double>(c.accesses());
  e[p + "epochs"] = static_cast<double>(so.out.epochs.size());
  e[p + "l1_hits"] = static_cast<double>(c.l1_hits);
  e[p + "l2_hits"] = static_cast<double>(c.l2_hits);
  e[p + "llc_misses"] = static_cast<double>(c.offcore_l3_miss);
  e[p + "prefetch_fills"] = static_cast<double>(c.prefetch_fills());
  e[p + "pf_hits"] = static_cast<double>(c.pf_hits);
  e[p + "useless_hwpf"] = static_cast<double>(c.useless_hwpf);
  e[p + "fabric_bytes"] = static_cast<double>(c.fabric_dram_bytes());
  e[p + "fabric_demand_misses"] = static_cast<double>(fabric_demand_misses(c));
  e[p + "max_demand_inflation"] = max_demand_inflation(so.out);
  e[p + "sim_elapsed_s"] = so.out.elapsed_s;
  e[p + "verified"] = so.out.result.verified ? 1.0 : 0.0;
  if (so.scans > 0) {
    e[p + "scans"] = static_cast<double>(so.scans);
    e[p + "pages_promoted"] = static_cast<double>(so.promoted);
    e[p + "pages_demoted"] = static_cast<double>(so.demoted);
    e[p + "self_deferred"] = static_cast<double>(so.self_deferred);
    e[p + "migrated_bytes"] = static_cast<double>(migrated_bytes(so.out));
  }
  return e;
}

/// Which apps run, on which machine, under which link model and planner.
struct SimWorkloadSpec {
  std::vector<App> apps;
  std::string fabric;
  double spill_ratio = 0.5;
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;
  /// An eager planner and its epoch length. core::run_workload can attach
  /// neither, so a workload with a planner builds its engine directly.
  std::optional<core::MigrationConfig> planner;
  std::uint64_t epoch_accesses = 0;  ///< 0: the engine default
};

/// Builds the jobs of a workload: instance, capacity shaping, engine config
/// (mirroring what core::run_workload derives from its RunConfig). This is
/// the set-up half of setup_s; the engine constructor is the other half.
std::vector<SimJob> make_jobs(const SimWorkloadSpec& spec, std::uint64_t seed) {
  std::vector<SimJob> jobs;
  for (const App app : spec.apps) {
    SimJob job;
    job.app = app;
    job.wl = workloads::make_workload(app, 1, seed);
    const memsim::MachineConfig base = core::machine_for_fabric(spec.fabric);
    job.ecfg.machine = core::machine_with_spill(base, spec.spill_ratio, job.wl->footprint_bytes());
    if (!spec.planner) {
      core::RunConfig rc;
      rc.machine = base;
      rc.remote_capacity_ratio = spec.spill_ratio;
      rc.prefetch_enabled = true;
      rc.link_model = spec.link_model;
      job.run_config = std::move(rc);
    }
    job.ecfg.link_model = spec.link_model;
    job.ecfg.bulk_fast_path = true;
    job.ecfg.fast_forward = false;
    if (spec.epoch_accesses > 0) job.ecfg.epoch_accesses = spec.epoch_accesses;
    job.planner = spec.planner;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Set-up is microseconds of work, so one sample times a batch of
/// kSetupBatch set-ups and reports the mean. A run takes one sample before
/// every round of timed calls (so set-up sees the same host as they do), at
/// least kSetupSamples in all, and reports their median as setup_s.
constexpr int kSetupBatch = 50;
constexpr std::size_t kSetupSamples = 9;
constexpr std::size_t kMinRounds = 3;

/// One set-up sample: build every job and construct (then drop) the engine
/// each timed call starts from — everything before the first simulated
/// access. The jobs of the last set-up are kept for the timed calls.
double setup_sample(const SimWorkloadSpec& spec, std::uint64_t seed, std::vector<SimJob>& keep) {
  return timed([&] {
           for (int b = 0; b < kSetupBatch; ++b) {
             keep = make_jobs(spec, seed);
             for (const auto& job : keep) sim::Engine eng(job.ecfg);
           }
         }).wall /
         kSetupBatch;
}

/// True when every count of `fp` equals the one in `reference`; counts the
/// reference does not hold yet (the run's first call) are added to it.
bool matches_reference(const Exact& fp, Exact& reference) {
  bool same = true;
  for (const auto& [k, v] : fp) {
    const auto [it, inserted] = reference.emplace(k, v);
    same = same && (inserted || it->second == v);
  }
  return same;
}

/// Checks one timed call: the workload verified its numerics, and its exact
/// fingerprint equals the first call's (and the traced and replayed paths').
void check_run(Report& rep, const SimJob& job, const SimOut& so, Exact& reference,
               const std::string& path) {
  const std::string name = workloads::app_name(job.app);
  const bool same = matches_reference(fingerprint(job.app, so), reference);
  rep.op(so.out.result.verified && same,
         name + " " + path + (so.out.result.verified ? ": exact counts differ from the first run"
                                                     : ": workload result not verified"));
}

/// Fastest host time seen per timed unit (one app's call, or one fleet
/// repetition). Host times are reported as the sum of these minima: on a
/// shared host other tenants only ever add time, so the fastest sample of a
/// unit is the steadiest estimate of what the code costs (perfbench/README.md
/// has the run-to-run spreads of median and minimum on the reference host).
class Fastest {
 public:
  explicit Fastest(std::size_t units)
      : best_(units, std::numeric_limits<double>::infinity()), all_(units) {}
  void add(std::size_t unit, double seconds) {
    best_[unit] = std::min(best_[unit], seconds);
    all_[unit].push_back(seconds);
  }
  [[nodiscard]] double unit(std::size_t u) const { return best_[u]; }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const double b : best_) s += b;
    return s;
  }
  /// Per-unit sample count, fastest and median on stderr, to read drift.
  void log(const char* what) const {
    for (std::size_t u = 0; u < all_.size(); ++u)
      std::fprintf(stderr, "perfbench: %s unit %zu: %zu samples, fastest %.4f s, median %.4f s\n",
                   what, u, all_[u].size(), best_[u], median(all_[u]));
  }

 private:
  std::vector<double> best_;
  std::vector<std::vector<double>> all_;
};

void run_sim_untraced(const SimWorkloadSpec& spec, std::uint64_t seed, double seconds,
                      Report& rep) {
  const std::size_t n = spec.apps.size();
  std::vector<SimJob> jobs;
  std::vector<double> setup;
  Fastest wall(n), cpu(n);
  std::uint64_t items = 0;  // simulated accesses of one round
  std::size_t rounds = 0;
  const double start = wall_now();
  do {
    setup.push_back(setup_sample(spec, seed, jobs));
    items = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rep.check(process_state_pinned(), "process-wide defaults drifted between timed calls");
      SimOut so;
      const Span s = timed([&] { so = run_timed_call(jobs[i]); });
      check_run(rep, jobs[i], so, rep.exact, "live");
      wall.add(i, s.wall);
      cpu.add(i, s.cpu);
      items += so.out.counters.accesses();
    }
    ++rounds;
  } while (rounds < kMinRounds || wall_now() - start < seconds);
  while (setup.size() < kSetupSamples) setup.push_back(setup_sample(spec, seed, jobs));

  rep.metric("setup_s", median(setup), "s");
  rep.metric("wall_s", wall.sum(), "s");
  rep.metric("cpu_s", cpu.sum(), "s");
  rep.metric("items_per_s", static_cast<double>(items) / wall.sum(), "1/s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  wall.log("wall");
}

/// Per-epoch cost of core::reprice() — a fold of the shared sim::price_epoch
/// kernel — on the profile captured from `so` (page histogram dropped: the
/// repricer never reads it). Also checks that re-pricing under the run's own
/// timing config reproduces its simulated time exactly.
double price_us_per_epoch(const SimJob& job, const SimOut& so, Report& rep) {
  core::EpochProfile profile{job.ecfg.machine, job.ecfg.stall_weight, so.out};
  profile.output.page_accesses.clear();
  core::TimingConfig timing;
  timing.link_model = job.ecfg.link_model;
  const core::RunOutput again = core::reprice(profile, timing);
  rep.op(again.elapsed_s == so.out.elapsed_s,
         std::string(workloads::app_name(job.app)) + " reprice: simulated time differs");
  std::uint64_t calls = 0;
  const double start = wall_now();
  do {
    (void)core::reprice(profile, timing);
    ++calls;
  } while (calls < 5 || wall_now() - start < 0.05);
  const double per_call = (wall_now() - start) / static_cast<double>(calls);
  core::clear_reprice_cache();  // the repricer bumps process-wide stats
  return per_call / static_cast<double>(std::max<std::size_t>(so.out.epochs.size(), 1)) * 1e6;
}

void run_sim_traced(const SimWorkloadSpec& spec, std::uint64_t seed, double seconds,
                    Report& rep) {
  std::vector<SimJob> jobs = make_jobs(spec, seed);
  const std::size_t n = jobs.size();

  Fastest live(n), traced(n), replay(n), bare(n);
  std::uint64_t element_calls = 0, batch_calls = 0, batch_accesses = 0;
  std::vector<SimOut> last(n);
  Exact reference;
  const double start = wall_now();
  do {
    element_calls = batch_calls = batch_accesses = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rep.check(process_state_pinned(), "process-wide defaults drifted between timed calls");
      const SimJob& job = jobs[i];
      // 1. the untraced timed call, exactly as in the --trace 0 run
      SimOut untraced;
      live.add(i, timed([&] { untraced = run_timed_call(job); }).wall);
      check_run(rep, job, untraced, reference, "live");
      // 2. the same run with the counting sink + trace recorder attached
      trace::TraceWriter writer;
      CountingSink counter(&writer);
      SimOut recorded;
      traced.add(i, timed([&] { recorded = run_engine(job, *job.wl, &counter, true); }).wall);
      writer.finish();
      check_run(rep, job, recorded, reference, "traced");
      element_calls += counter.element_calls;
      batch_calls += counter.batch_calls;
      batch_accesses += counter.batch_accesses;
      // 3. replay of the recorded stream: engine, cachesim and memsim alone
      trace::TraceData data;
      data.app = workloads::app_name(job.app);
      data.seed = seed;
      data.workload_name = job.wl->name();
      data.footprint_bytes = job.wl->footprint_bytes();
      data.verified = recorded.out.result.verified;
      data.residual = recorded.out.result.residual;
      data.detail = recorded.out.result.detail;
      data.record_count = writer.record_count();
      data.payload = writer.take_payload();
      trace::TraceReplayWorkload replayer(std::move(data));
      SimOut replayed;
      replay.add(i, timed([&] { replayed = run_engine(job, replayer, nullptr, true); }).wall);
      check_run(rep, job, replayed, reference, "replay");
      // 4. the planner's share: the same engine config without the runtime
      if (job.planner)
        bare.add(i, timed([&] { (void)run_engine(job, *job.wl, nullptr, false); }).wall);
      last[i] = std::move(untraced);
    }
  } while (wall_now() - start < seconds);
  rep.exact = reference;

  memdis::cachesim::HwCounters c;
  std::uint64_t epochs = 0, scans = 0, promoted = 0, demoted = 0, self_deferred = 0, migrated = 0;
  double inflation = 1.0, price_us = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const SimOut& so = last[i];
    c += so.out.counters;
    epochs += so.out.epochs.size();
    inflation = std::max(inflation, max_demand_inflation(so.out));
    migrated += migrated_bytes(so.out);
    scans += so.scans;
    promoted += so.promoted;
    demoted += so.demoted;
    self_deferred += so.self_deferred;
    price_us += price_us_per_epoch(jobs[i], so, rep) * static_cast<double>(so.out.epochs.size());
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::uint64_t accesses = c.accesses();
  double planner_s = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (jobs[i].planner) planner_s += live.unit(i) - bare.unit(i);
  rep.metric("workloads.host_s", live.sum() - replay.sum(), "s");
  rep.metric("sim.replay_s", replay.sum(), "s");
  rep.metric("sim.ns_per_access", replay.sum() / static_cast<double>(accesses) * 1e9, "ns");
  rep.metric("sim.accesses", static_cast<double>(accesses), "count");
  rep.metric("sim.epochs", static_cast<double>(epochs), "count");
  rep.metric("sim.element_calls", static_cast<double>(element_calls), "count");
  rep.metric("sim.batch_calls", static_cast<double>(batch_calls), "count");
  rep.metric("sim.batched_access_share", ratio(batch_accesses, batch_accesses + element_calls),
             "ratio");
  rep.metric("sim.price_us_per_epoch", price_us / static_cast<double>(epochs), "us");
  rep.metric("cachesim.l1_hit_ratio", ratio(c.l1_hits, accesses), "ratio");
  rep.metric("cachesim.l2_hit_ratio", ratio(c.l2_hits, accesses - c.l1_hits), "ratio");
  rep.metric("cachesim.llc_misses", static_cast<double>(c.offcore_l3_miss), "count");
  rep.metric("cachesim.pf_accuracy", ratio(c.pf_hits, c.prefetch_fills()), "ratio");
  rep.metric("cachesim.useless_hwpf", static_cast<double>(c.useless_hwpf), "count");
  rep.metric("memsim.fabric_bytes", static_cast<double>(c.fabric_dram_bytes()), "bytes");
  rep.metric("memsim.remote_access_ratio", ratio(c.fabric_dram_bytes(), c.dram_bytes_total()),
             "ratio");
  rep.metric("memsim.fabric_demand_misses", static_cast<double>(fabric_demand_misses(c)),
             "count");
  rep.metric("memsim.max_demand_inflation", inflation, "ratio");
  rep.metric("core.scans", static_cast<double>(scans), "count");
  rep.metric("core.pages_promoted", static_cast<double>(promoted), "count");
  rep.metric("core.pages_demoted", static_cast<double>(demoted), "count");
  rep.metric("core.self_deferred", static_cast<double>(self_deferred), "count");
  rep.metric("core.migrated_mib", static_cast<double>(migrated) / (1 << 20), "MiB");
  // Difference estimate: planner run minus the same engine without it.
  rep.metric("core.planner_overhead_s", planner_s, "s");
  rep.metric("trace.overhead", traced.sum() / live.sum(), "ratio");
  live.log("live");
  replay.log("replay");
}

// ---- fleet workload ---------------------------------------------------------------

constexpr std::size_t kFleetArrivals = 6000;
constexpr double kFleetRate = 0.13;  // jobs/s: oversubscribes the two-pool rack

struct FleetSetup {
  fleet::FleetConfig cfg;
  std::vector<fleet::JobClass> classes;
  std::vector<fleet::Arrival> arrivals;
  double expand_s = 0.0;
};

FleetSetup make_fleet(std::uint64_t seed) {
  FleetSetup f;
  f.classes = fleet::default_job_classes();
  f.cfg.pools = fleet::default_pools(2);
  f.cfg.policy = fleet::AdmissionPolicy::kLoiAware;
  f.cfg.migration = true;
  f.cfg.base_seed = seed;
  std::vector<double> weights;
  for (const auto& cls : f.classes) weights.push_back(cls.weight);
  fleet::ArrivalSpec spec;
  spec.kind = fleet::ArrivalKind::kPoisson;
  spec.rate_per_s = kFleetRate;
  spec.count = kFleetArrivals;
  f.expand_s =
      timed([&] { f.arrivals = fleet::expand_poisson_arrivals(spec, weights, seed); }).wall;
  return f;
}

/// Job-steps the fleet kernel evaluated: every running job is stepped once
/// per timestep from placement through the step it completes in.
std::uint64_t job_steps(const fleet::FleetResult& r, double step_s) {
  std::uint64_t steps = 0;
  for (const auto& rec : r.jobs) {
    if (rec.rejected) continue;
    const double span = (rec.finish_s - rec.start_s) / step_s;
    steps += static_cast<std::uint64_t>(std::max(1.0, std::ceil(span - 1e-9)));
  }
  return steps;
}

struct FleetRep {
  fleet::FleetResult result;
  Span run;
  Span write;
  std::uint64_t bytes = 0;
};

FleetRep fleet_repetition(const FleetSetup& f, const std::filesystem::path& out_dir) {
  FleetRep r;
  r.run = timed([&] { r.result = fleet::run_fleet(f.cfg, f.classes, f.arrivals, 1); });
  const std::string csv = (out_dir / "fleet.csv").string();
  const std::string json = (out_dir / "fleet.json").string();
  r.write = timed([&] {
    r.result.write_csv_file(csv);
    r.result.write_json_file(json);
  });
  r.bytes = std::filesystem::file_size(csv) + std::filesystem::file_size(json);
  return r;
}

Exact fleet_fingerprint(const FleetSetup& f, const FleetRep& r) {
  Exact e;
  e["fleet.arrivals"] = static_cast<double>(f.arrivals.size());
  e["fleet.completed"] = static_cast<double>(r.result.completed);
  e["fleet.rejected"] = static_cast<double>(r.result.rejected);
  e["fleet.migrations"] = static_cast<double>(r.result.migrations);
  e["fleet.p50_slowdown"] = r.result.p50_slowdown;
  e["fleet.p99_slowdown"] = r.result.p99_slowdown;
  e["fleet.makespan_s"] = r.result.makespan_s;
  e["fleet.job_steps"] = static_cast<double>(job_steps(r.result, f.cfg.step_s));
  e["io.bytes"] = static_cast<double>(r.bytes);
  return e;
}

/// The fleet drains: every arrival ends exactly one of completed/rejected,
/// and the artifacts were written in full.
void check_fleet(Report& rep, const FleetSetup& f, const FleetRep& r, Exact& reference) {
  bool ok = r.result.completed + r.result.rejected == f.arrivals.size() &&
            r.result.jobs.size() == f.arrivals.size() && r.bytes > 0;
  for (const auto& rec : r.result.jobs) ok = ok && (rec.rejected != (rec.finish_s >= 0.0));
  const bool same = matches_reference(fleet_fingerprint(f, r), reference);
  rep.op(ok && same, ok ? "fleet: exact counts differ from the first run"
                        : "fleet: arrivals not drained (completed + rejected != arrivals)");
}

/// One fleet set-up sample: the mean of kSetupBatch set-ups (job classes,
/// pools, arrival expansion). The last set-up is kept for the timed calls.
double fleet_setup_sample(std::uint64_t seed, FleetSetup& keep) {
  return timed([&] {
           for (int b = 0; b < kSetupBatch; ++b) keep = make_fleet(seed);
         }).wall /
         kSetupBatch;
}

void run_fleet_untraced(std::uint64_t seed, double seconds, const std::filesystem::path& out,
                        Report& rep) {
  std::vector<double> setup;
  FleetSetup f;
  Fastest wall(1), cpu(1);
  std::size_t rounds = 0;
  const double start = wall_now();
  do {
    setup.push_back(fleet_setup_sample(seed, f));
    rep.check(process_state_pinned(), "process-wide defaults drifted between timed calls");
    FleetRep r;
    const Span s = timed([&] { r = fleet_repetition(f, out); });
    check_fleet(rep, f, r, rep.exact);
    wall.add(0, s.wall);
    cpu.add(0, s.cpu);
    ++rounds;
  } while (rounds < kMinRounds || wall_now() - start < seconds);
  while (setup.size() < kSetupSamples) setup.push_back(fleet_setup_sample(seed, f));

  rep.metric("setup_s", median(setup), "s");
  rep.metric("wall_s", wall.sum(), "s");
  rep.metric("cpu_s", cpu.sum(), "s");
  rep.metric("items_per_s", static_cast<double>(f.arrivals.size()) / wall.sum(), "1/s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  wall.log("wall");
}

void run_fleet_traced(std::uint64_t seed, double seconds, const std::filesystem::path& out,
                      Report& rep) {
  Fastest expand(1), run(1), write(1), live(1);
  FleetSetup f;
  FleetRep last;
  Exact reference;
  const double start = wall_now();
  do {
    rep.check(process_state_pinned(), "process-wide defaults drifted between timed calls");
    f = make_fleet(seed);
    expand.add(0, f.expand_s);
    // the untraced repetition, then the same calls timed one by one
    FleetRep plain;
    live.add(0, timed([&] { plain = fleet_repetition(f, out); }).wall);
    check_fleet(rep, f, plain, reference);
    last = fleet_repetition(f, out);
    check_fleet(rep, f, last, reference);
    run.add(0, last.run.wall);
    write.add(0, last.write.wall);
  } while (wall_now() - start < seconds);
  rep.exact = reference;

  const std::uint64_t steps = job_steps(last.result, f.cfg.step_s);
  rep.metric("fleet.run_s", run.sum(), "s");
  rep.metric("fleet.expand_s", expand.sum(), "s");
  rep.metric("fleet.job_steps", static_cast<double>(steps), "count");
  rep.metric("fleet.ns_per_job_step", run.sum() / static_cast<double>(steps) * 1e9, "ns");
  rep.metric("fleet.completed", static_cast<double>(last.result.completed), "count");
  rep.metric("fleet.rejected", static_cast<double>(last.result.rejected), "count");
  rep.metric("fleet.migrations", static_cast<double>(last.result.migrations), "count");
  rep.metric("fleet.p99_slowdown", last.result.p99_slowdown, "ratio");
  rep.metric("io.write_s", write.sum(), "s");
  rep.metric("io.bytes", static_cast<double>(last.bytes), "bytes");
  rep.metric("trace.overhead", (run.sum() + write.sum()) / live.sum(), "ratio");
  live.log("live");
}

// ---- workload table ---------------------------------------------------------------

std::optional<SimWorkloadSpec> sim_workload(const std::string& name) {
  SimWorkloadSpec spec;
  if (name == "stream-spill") {
    spec.apps = {App::kHPL, App::kHypre, App::kNekRS};
    spec.fabric = "cxl";
    spec.spill_ratio = 0.5;
    return spec;
  }
  if (name == "gather-spill") {
    spec.apps = {App::kBFS, App::kXSBench};
    spec.fabric = "cxl";
    spec.spill_ratio = 0.5;
    return spec;
  }
  if (name == "migrate-queue") {
    // ext-queue-contention's scan-8 eager planner at 75% spill.
    spec.apps = {App::kHypre};
    spec.fabric = "three-tier";
    spec.spill_ratio = 0.75;
    spec.link_model = memsim::LinkModelKind::kQueue;
    spec.epoch_accesses = 250'000;
    core::MigrationConfig m;
    m.period_epochs = 8;
    m.max_pages_per_scan = 512;
    m.link_budget_pages = 512;
    m.min_heat = 1;
    m.defer_on_self_congestion = false;
    spec.planner = m;
    return spec;
  }
  return std::nullopt;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = val == "1";
      } else if (key == "--out") {
        a.out = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_memdis --workload stream-spill|gather-spill|migrate-queue|"
                 "fleet-rack --seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const auto spec = sim_workload(args->workload);
  if (!spec && args->workload != "fleet-rack") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  try {
    pin_process_state();
    Report rep;
    rep.check(process_state_pinned(), "process-wide defaults could not be pinned");
    const std::filesystem::path out = std::filesystem::path(args->out) / args->workload;
    std::filesystem::create_directories(out);
    if (spec) {
      if (args->trace) {
        run_sim_traced(*spec, args->seed, args->seconds, rep);
      } else {
        run_sim_untraced(*spec, args->seed, args->seconds, rep);
      }
    } else if (args->trace) {
      run_fleet_traced(args->seed, args->seconds, out, rep);
    } else {
      run_fleet_untraced(args->seed, args->seconds, out, rep);
    }
    // After the workload, so its 16 MiB table stays out of peak_rss_mb.
    const double calib_s = calibrate_host();
    if (args->trace) {
      rep.metric("host.calib_s", calib_s, "s");
    } else {
      std::fprintf(stderr, "perfbench: host.calib_s %.6f\n", calib_s);
    }
    emit(rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
