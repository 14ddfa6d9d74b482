// Engine: the execution-driven simulation core.
//
// Workloads run real numerics against sim::Array<T> buffers; every load and
// store is routed through the cache hierarchy, the page table, and the
// per-tier fabric links. Time advances in *epochs* (a fixed quantum of
// demand accesses, also closed at phase boundaries), each costed with the
// N-tier model:
//
//   t_epoch = max(flops/F_peak, max_t bytes_t/BW_t_eff)
//           + sum_t demand_t·lat_t_eff / (MLP·threads)
//
// For the node tier BW/lat are the tier's raw parameters; for each fabric
// tier they come from that tier's LinkModel under the configured background
// Level-of-Interference. Prefetched lines never appear in the demand-latency
// term — that is what gives hardware prefetching its performance gain
// (Sec. 4.2) and off-node latency its sting when coverage is low (XSBench,
// Sec. 5.1). With a two-tier topology this reduces exactly to the paper's
// bytes_L/bytes_R formulation.
//
// ---- bulk access streams ---------------------------------------------------
// Element-wise load()/store() is the reference instrumentation; the bulk
// API (load_range/store_range/rmw_range/store_load_range, the strided and
// paired variants, stream_range) expresses the same access *sequence*
// declaratively. Every bulk call is a set of lanes advanced in lockstep —
// a range is one lane, store_load_range and the paired calls are two — and
// all of them run through one batching kernel: while every lane's current
// cacheline is L1-resident, whole windows of iterations are applied as one
// probe per changed line plus O(1) LRU/dirty updates, with counter credit
// accumulated in registers until the batch ends. Line transitions that
// miss, and epoch boundaries, run one iteration of the exact element-wise
// emission and re-probe. The kernel is exact — counters, epoch
// boundaries, page samples, cache and prefetcher state are bit-identical
// to the element loop each call documents. `EngineConfig::bulk_fast_path
// = false` forces that reference emission; the determinism suite
// byte-compares the two.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cachesim/hierarchy.h"
#include "common/contract.h"
#include "memsim/link.h"
#include "memsim/loi_schedule.h"
#include "memsim/machine.h"
#include "memsim/page_table.h"
#include "memsim/queue_model.h"

namespace memdis::sim {

/// Stubs of the removed process-wide defaults, kept because the frozen
/// perfbench/ harness pins these names: each getter returns the one value
/// left and each setter accepts only that value. Bulk path and link model
/// are set per run through EngineConfig/RunConfig/SweepSpec; fast-forward
/// is gone.
[[nodiscard]] bool bulk_fast_path_default();
void set_bulk_fast_path_default(bool on);
[[nodiscard]] memsim::LinkModelKind link_model_default();
void set_link_model_default(memsim::LinkModelKind kind);
[[nodiscard]] bool fast_forward_default();
void set_fast_forward_default(bool on);

/// One lane of an interleaved multi-stream sweep (Engine::stream_range).
/// Lives at namespace scope so the trace layer can serialize lanes without
/// depending on the Engine definition; Engine::StreamLane aliases it.
struct StreamLane {
  /// kRmw: load then store. kFlops: a compute lane — `base` holds the flop
  /// count accounted per iteration, `stride`/`elem` are unused (may be 0)
  /// and the lane performs no memory access. Flops lanes are what lets a
  /// recorded trace fold a periodic load/store/flops pattern into one
  /// stream_range call without reordering compute relative to accesses.
  enum class Op : std::uint8_t { kLoad, kStore, kRmw, kFlops };
  std::uint64_t base = 0;    ///< address of the lane's element 0 (kFlops: flops/iter)
  std::uint64_t stride = 0;  ///< bytes between consecutive elements
  std::uint32_t elem = 0;    ///< bytes accessed per element
  Op op = Op::kLoad;
};

/// Observer of the engine's public instrumentation stream (the recording
/// half of trace record/replay — see src/trace/). Hooks fire on the public
/// API calls exactly as the workload made them, never on the engine's
/// internal element-wise decompositions, so a recorded trace reproduces the
/// original call sequence, not its expansion.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `policy` is the policy the caller passed (before any
  /// default_policy_override), `base` the returned range base — replay
  /// asserts the allocator reproduces it.
  virtual void on_alloc(std::uint64_t bytes, const memsim::MemPolicy& policy,
                        const std::string& name, std::uint64_t base) = 0;
  virtual void on_free(std::uint64_t base) = 0;
  virtual void on_access(bool is_store, std::uint64_t addr, std::uint32_t size) = 0;
  virtual void on_flops(std::uint64_t n) = 0;
  /// kind: 0 load_range, 1 store_range, 2 rmw_range, 3 store_load_range.
  virtual void on_range(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                        std::uint32_t elem) = 0;
  virtual void on_strided(bool is_store, std::uint64_t addr, std::uint64_t count,
                          std::uint64_t stride, std::uint32_t elem) = 0;
  virtual void on_pair(bool is_store, std::uint64_t a, std::uint32_t elem_a,
                       std::uint64_t b, std::uint32_t elem_b, std::uint64_t count) = 0;
  virtual void on_stream(const StreamLane* lanes, std::size_t num_lanes,
                         std::uint64_t count) = 0;
  virtual void on_phase(bool start, const std::string& tag) = 0;
};

struct EngineConfig {
  memsim::MachineConfig machine = memsim::MachineConfig::skylake_testbed();
  cachesim::HierarchyConfig hierarchy{};
  std::uint64_t epoch_accesses = 2'000'000;  ///< demand accesses per epoch
  double background_loi = 0.0;               ///< % of peak link traffic (Sec. 6)
  /// Per-link background LoI, indexed by TierId (entries for local tiers are
  /// ignored). When non-empty, listed tiers override `background_loi`, so
  /// asymmetric studies can load one pool while another idles. Tiers beyond
  /// the vector keep the scalar level.
  std::vector<double> background_loi_per_tier;
  /// Time-varying per-link LoI: scheduled tiers get their waveform
  /// re-evaluated at every closed epoch (overriding the static levels
  /// above); unscheduled tiers keep their static LoI. An empty schedule is
  /// exactly the static model — artifacts stay bit-identical.
  memsim::LoiSchedule loi_schedule;
  double stall_weight = 1.0;                 ///< scaling of the latency term
  /// Period of the per-page sampler feeding the bandwidth–capacity scaling
  /// curves (Fig. 6). Samples fire on L1 misses — the event class PEBS
  /// demand-load sampling observes on the paper's testbed (1 = every miss).
  std::uint64_t page_sample_period = 4;
  /// Overrides the placement policy of allocations that use the default
  /// (first-touch) policy — the `numactl` analogue: explicit bindings win,
  /// everything else follows the overridden system default. Used for the
  /// weighted-interleave experiments (Sec. 2.2, "Low Porting Efforts").
  std::optional<memsim::MemPolicy> default_policy_override;
  /// When false, every bulk call (range/strided/paired/stream) runs the
  /// element-wise loop it documents (bit-identical, slower) — the reference
  /// path for the batching kernel's correctness gate.
  bool bulk_fast_path = true;
  /// Which per-link delay model runs. `kLoi` (the default) is the closed
  /// form under configured background LoI only, bit-identical to the
  /// pre-queue engine. `kQueue` partitions each link's traffic into demand
  /// and bulk classes that inflate each other's delay (queue_model.h).
  memsim::LinkModelKind link_model = memsim::LinkModelKind::kLoi;
  /// Off-only stub of the removed fast-forward, kept because the frozen
  /// perfbench/ harness writes it; the Engine constructor rejects true.
  bool fast_forward = false;
};

/// Timing outputs of the per-epoch cost model: everything in an EpochRecord
/// that depends on the link state (background LoI, schedules, queue
/// windows) rather than on the access stream. Computed by price_epoch —
/// the single implementation of the cost model, shared between the
/// engine's close_epoch and the epoch-profile repricer
/// (core/epoch_profile.h), so re-priced artifacts are bit-identical to
/// full simulation by construction.
struct EpochPricing {
  double duration_s = 0.0;          ///< t_base + t_stall + migration_s
  double link_traffic_gbps = 0.0;   ///< PCM-style measured traffic, all links
  double link_utilization = 0.0;    ///< max offered utilization over links
  std::vector<double> link_loi;            ///< background LoI per tier
  std::vector<double> link_demand_mult;    ///< demand latency multiplier per tier
  std::vector<double> link_demand_inflation;  ///< bulk-attributable inflation
};

/// Prices one epoch's functional counter deltas under the given link
/// state: the N-tier cost model of the header comment, including the
/// queue-model cross-class terms when `link_model` is kQueue. `tier_bytes`,
/// `tier_demand`, and `migration_bytes` are indexed by TierId and sized to
/// the topology; `links`/`queues` are the per-tier models in their current
/// state (queues nullopt under kLoi). Pure: reads the link/queue state but
/// never mutates it — callers fold the epoch into the queue windows
/// afterwards (QueueModel::observe) exactly as close_epoch does.
[[nodiscard]] EpochPricing price_epoch(
    const memsim::MachineConfig& machine, memsim::LinkModelKind link_model,
    double stall_weight, std::uint64_t flops, const std::vector<std::uint64_t>& tier_bytes,
    const std::vector<std::uint64_t>& tier_demand,
    const std::vector<std::uint64_t>& migration_bytes, double migration_s,
    const std::vector<std::optional<memsim::LinkModel>>& links,
    const std::vector<std::optional<memsim::QueueModel>>& queues);

/// One closed epoch: the unit of the profiler's per-interval timelines
/// (Fig. 7's cacheline series, per-phase attribution, link traffic).
/// Per-tier series are indexed by TierId and sized to the topology.
struct EpochRecord {
  double start_s = 0.0;
  double duration_s = 0.0;
  std::string phase;
  std::uint64_t flops = 0;
  std::vector<std::uint64_t> tier_bytes;    ///< DRAM bytes served per tier
  std::vector<std::uint64_t> tier_demand;   ///< demand misses per tier
  std::uint64_t l2_lines_in = 0;
  double link_traffic_gbps = 0.0;   ///< PCM-style measured traffic, all links
  double link_utilization = 0.0;    ///< max offered utilization over links
  double migration_s = 0.0;         ///< page-migration transfer time charged
  std::vector<std::uint64_t> resident_bytes;  ///< numa snapshot per tier
  /// Effective background LoI on each tier's link while this epoch ran
  /// (local tiers 0) — the per-epoch record a time-varying schedule leaves
  /// behind, and what `memdis plan` reports per scan.
  std::vector<double> link_loi;
  /// Demand-class latency multiplier on each tier's link this epoch (local
  /// tiers 1.0). Under the queue model this includes the bulk class's
  /// cross-traffic — the per-epoch trace the `ext-queue-contention` golden
  /// asserts on; under the LoI model it is the closed-form multiplier.
  std::vector<double> link_demand_mult;
  /// Demand-latency inflation attributable to bulk traffic, per tier: the
  /// ratio of the demand class's latency multiplier with the bulk class's
  /// cross-traffic to the multiplier without it, at this epoch's actual
  /// demand load (local tiers and bulk-free epochs exactly 1.0; always 1.0
  /// under the `kLoi` model, whose closed form has no bulk class). The
  /// isolation trace the `ext-queue-contention` golden asserts on.
  std::vector<double> link_demand_inflation;
  /// Bulk page-migration bytes charged onto each tier's link this epoch
  /// (Engine::charge_migration_bytes), indexed by TierId. Zero without an
  /// attached migration runtime.
  std::vector<std::uint64_t> migration_bytes;

  /// Bytes served by the node tier this epoch.
  [[nodiscard]] std::uint64_t node_bytes() const {
    return tier_bytes.empty() ? 0 : tier_bytes[memsim::kNodeTier];
  }
  /// Bytes served off the node (all fabric tiers).
  [[nodiscard]] std::uint64_t fabric_bytes() const {
    std::uint64_t sum = 0;
    for (std::size_t t = 1; t < tier_bytes.size(); ++t) sum += tier_bytes[t];
    return sum;
  }
  [[nodiscard]] std::uint64_t resident_total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto b : resident_bytes) sum += b;
    return sum;
  }
  [[nodiscard]] std::uint64_t resident_node_bytes() const {
    return resident_bytes.empty() ? 0 : resident_bytes[memsim::kNodeTier];
  }
  [[nodiscard]] std::uint64_t resident_fabric_bytes() const {
    return resident_total_bytes() - resident_node_bytes();
  }
};

/// Aggregated per-phase results (between pf_start/pf_stop tags).
struct PhaseRecord {
  std::string tag;
  double time_s = 0.0;
  std::uint64_t flops = 0;
  cachesim::HwCounters counters;  ///< deltas for this phase
  /// Half-open span [epoch_begin, epoch_end) of closed-epoch records the
  /// phase covers. time_s is exactly the sum of those durations (as the
  /// running elapsed_s sum computes it), which is what lets the epoch-
  /// profile repricer reconstruct phase times bit-exactly.
  std::size_t epoch_begin = 0;
  std::size_t epoch_end = 0;
};

/// Named allocation-site bookkeeping so case studies can attribute remote
/// traffic to objects (Sec. 7.1: "information obtained from memory
/// allocation sites in our profiler").
struct AllocationInfo {
  std::string name;
  memsim::VRange range;
  bool freed = false;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& cfg = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- memory management -------------------------------------------------
  [[nodiscard]] memsim::VRange alloc(std::uint64_t bytes,
                                     memsim::MemPolicy policy = memsim::MemPolicy::first_touch(),
                                     std::string name = {});
  void free(const memsim::VRange& range);

  // ---- instrumented access & compute --------------------------------------
  /// Demand load of `size` bytes at simulated address `addr`.
  void load(std::uint64_t addr, std::uint32_t size) {
    expects(size > 0, "load of zero bytes");
    if (trace_sink_) trace_sink_->on_access(false, addr, size);
    access_span(addr, size, false);
  }
  /// Demand store of `size` bytes.
  void store(std::uint64_t addr, std::uint32_t size) {
    expects(size > 0, "store of zero bytes");
    if (trace_sink_) trace_sink_->on_access(true, addr, size);
    access_span(addr, size, true);
  }
  /// Accounts `n` floating-point operations.
  void flops(std::uint64_t n) {
    if (trace_sink_) trace_sink_->on_flops(n);
    pending_flops_ += n;
  }

  // ---- bulk access streams -------------------------------------------------
  // Each call is defined by (and bit-identical with) the element-wise loop
  // in its comment; `bytes` must be a whole number of `elem_bytes` elements.
  // All of them run as 1–2 lanes of stream_range's batching kernel.

  /// for (a = addr; a < addr+bytes; a += elem_bytes) load(a, elem_bytes);
  void load_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes);
  /// for (...) store(a, elem_bytes);
  void store_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes);
  /// for (...) { load(a, elem_bytes); store(a, elem_bytes); }  — read-modify-
  /// write sweeps (e.g. LBench's update pass, BFS's prefix sum).
  void rmw_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes);
  /// for (...) { store(a, elem_bytes); load(a, elem_bytes); }  — regenerate-
  /// then-read passes (e.g. HPL's pdtest matrix regeneration).
  void store_load_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes);

  /// for (k = 0; k < count; ++k) load(addr + k*stride_bytes, elem_bytes);
  /// The strided variant for column sweeps over row-major data.
  void load_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                    std::uint32_t elem_bytes);
  /// for (k...) store(addr + k*stride_bytes, elem_bytes);
  void store_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                     std::uint32_t elem_bytes);

  /// for (k = 0; k < count; ++k) { load(a + k*elem_a, elem_a);
  ///                               load(b + k*elem_b, elem_b); }
  /// Two interleaved sequential streams advanced in lockstep — the
  /// index/value sweep idiom of sparse codes (SuperLU's rowidx/val columns,
  /// nekRS's gather+field loads).
  void load_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                       std::uint32_t elem_b, std::uint64_t count);
  /// for (k...) { store(a + k*elem_a, elem_a); store(b + k*elem_b, elem_b); }
  void store_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                        std::uint32_t elem_b, std::uint64_t count);

  /// One lane of an interleaved multi-stream sweep (stream_range); the
  /// definition lives at namespace scope so the trace layer can use it.
  using StreamLane = ::memdis::sim::StreamLane;

  /// The general interleaved sweep — fused multi-vector loops (PCG axpy
  /// passes, stencil updates) where several arrays advance in lockstep:
  ///
  ///   for (k = 0; k < count; ++k)
  ///     for (lane : lanes)
  ///       kLoad:  load(lane.base + k*lane.stride, lane.elem)
  ///       kStore: store(...)
  ///       kRmw:   load(...); store(...)
  ///       kFlops: flops(lane.base)
  ///
  /// Lanes may target the same array (e.g. a trailing re-store). The
  /// batching kernel applies whole iterations while every lane's current
  /// cacheline is L1-resident, falling back to the exact element-wise
  /// emission around line transitions that miss and epoch boundaries.
  void stream_range(const StreamLane* lanes, std::size_t num_lanes, std::uint64_t count);

  // ---- phase tagging (the profiler API pf_start/pf_stop of Sec. 3.1) -----
  void pf_start(std::string tag);
  void pf_stop();

  /// Closes the final epoch and drains dirty cache lines. Must be called
  /// once at the end of a run before reading results.
  void finish();

  // ---- results -------------------------------------------------------------
  [[nodiscard]] double elapsed_seconds() const { return elapsed_s_; }
  [[nodiscard]] std::uint64_t total_flops() const { return total_flops_; }
  [[nodiscard]] const std::vector<EpochRecord>& epochs() const { return epochs_; }
  [[nodiscard]] const std::vector<PhaseRecord>& phases() const { return phases_; }
  [[nodiscard]] const cachesim::HwCounters& counters() const { return hierarchy_.counters(); }
  [[nodiscard]] const cachesim::PebsSampler& pebs() const { return hierarchy_.pebs(); }
  /// Sampled accesses-per-page histogram (drives the Fig. 6 curves).
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>&
  page_access_histogram() const {
    return page_hist_;
  }
  [[nodiscard]] const std::vector<AllocationInfo>& allocations() const { return allocations_; }
  [[nodiscard]] memsim::TieredMemory& memory() { return memory_; }
  [[nodiscard]] const memsim::TieredMemory& memory() const { return memory_; }
  /// The primary pool's link model (first fabric tier).
  [[nodiscard]] const memsim::LinkModel& link() const;
  /// Link model of an arbitrary fabric tier; contract violation for local
  /// tiers (they have no link).
  [[nodiscard]] const memsim::LinkModel& link(memsim::TierId t) const;
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  [[nodiscard]] cachesim::CacheHierarchy& hierarchy() { return hierarchy_; }

  /// Peak resident set across the run (Level 1 capacity usage; the paper's
  /// NMO_TRACK_RSS mode).
  [[nodiscard]] std::uint64_t peak_rss_bytes() const { return peak_rss_; }

  void set_prefetch_enabled(bool on) { hierarchy_.set_prefetch_enabled(on); }
  /// Applies the background LoI to every fabric link in the topology.
  void set_background_loi(double loi_percent);
  /// Sets the background LoI of one fabric tier's link; contract violation
  /// for local tiers. The lever behind asymmetric interference studies.
  void set_background_loi(memsim::TierId t, double loi_percent);
  /// Current background LoI on tier `t`'s link; contract violation for
  /// local tiers.
  [[nodiscard]] double background_loi(memsim::TierId t) const;

  /// Index of the epoch currently accumulating (== epochs().size()): the
  /// argument the LoI schedule is evaluated at, exposed so runtime services
  /// (the migration planner's burst deferral) can look ahead on the same
  /// clock.
  [[nodiscard]] std::uint64_t epoch_index() const { return epochs_.size(); }

  /// Charges page-migration transfer time to the running timeline. The cost
  /// is added to the *next* closed epoch's duration (migrations are issued
  /// from the epoch callback, after the current epoch has been costed) —
  /// the "per-epoch budget accounting" the migration planner spends against.
  void charge_migration_seconds(double seconds);
  /// Total migration transfer time charged so far.
  [[nodiscard]] double migration_seconds() const { return migration_s_total_; }

  /// Charges `bytes` of bulk page-migration traffic onto fabric tier
  /// `seg`'s link. The bytes land in the *next* closed epoch's record and —
  /// under the queue model — feed that link's bulk traffic class, which is
  /// what lets a migration burst inflate demand-miss latency. Contract
  /// violation for local tiers. Under the LoI model the bytes are recorded
  /// but carry no cost (the closed form has no bulk class).
  void charge_migration_bytes(memsim::TierId seg, std::uint64_t bytes);

  /// The queue of fabric tier `t`'s link; contract violation for local
  /// tiers or when the engine runs the `kLoi` model (no queues exist).
  [[nodiscard]] const memsim::QueueModel& queue(memsim::TierId t) const;

  /// Effective LoI traffic class `cls` experiences on tier `t`'s link right
  /// now: the configured background LoI plus the *other* class's windowed
  /// traffic estimate as % of capacity. Under the `kLoi` model this is just
  /// the background LoI — callers (the migration planner) can price against
  /// it unconditionally. Contract violation for local tiers.
  [[nodiscard]] double effective_loi(memsim::TierId t, memsim::TrafficClass cls) const;

  /// Installs a hook invoked after every closed epoch — the attachment
  /// point for runtime services such as the hot-page migration daemon
  /// (core::MigrationRuntime). The callback may inspect epochs() and the
  /// page histogram and call memory().migrate().
  void set_epoch_callback(std::function<void(Engine&)> cb) { epoch_cb_ = std::move(cb); }

  /// Attaches (or with nullptr detaches) the trace recording sink. The sink
  /// observes public API calls only — never the engine's internal
  /// element-wise decompositions — and adds one predictable branch per call
  /// when detached.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  /// Per-batch counter accumulator for L1-hit runs; flushed into the
  /// hierarchy's HwCounters before any epoch can close and at batch end.
  struct BulkAcc {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
  };

  /// The element-wise hot path: one demand access per line the span
  /// touches. Behind load()/store() and the batching kernel's reference
  /// emission (which must not re-fire the trace sink).
  void access_span(std::uint64_t addr, std::uint32_t size, bool is_store) {
    const std::uint64_t first = addr & ~line_mask_;
    const std::uint64_t last = (addr + size - 1) & ~line_mask_;
    for (std::uint64_t l = first; l <= last; l += line_bytes_)
      on_demand_access(l, hierarchy_.access(l, is_store).level);
  }
  void on_demand_access(std::uint64_t addr, cachesim::HitLevel level) {
    // Page-access sampling fires at L1-miss granularity — where PEBS
    // demand-load-miss events fire on the paper's testbed. L1 hits
    // (register and stack-like reuse) carry no bandwidth and are excluded
    // so the Fig. 6 curves weigh pages by memory-system traffic, not raw
    // instruction count.
    if (level != cachesim::HitLevel::kL1 &&
        ++page_sample_counter_ >= cfg_.page_sample_period) {
      page_sample_counter_ = 0;
      bump_page_hist(addr >> page_shift_);
    }
    if (++epoch_demand_accesses_ >= cfg_.epoch_accesses) close_epoch();
  }

  /// Increments the page histogram through a one-entry memo: streaming
  /// samples hit the same page ~16 times in a row, and unordered_map nodes
  /// are pointer-stable, so the repeated hash lookups collapse to one
  /// pointer bump. Same final map either way.
  void bump_page_hist(std::uint64_t page) {
    if (page != hist_memo_page_ || hist_memo_count_ == nullptr) {
      hist_memo_page_ = page;
      hist_memo_count_ = &page_hist_[page];
    }
    ++*hist_memo_count_;
  }

  /// Shared bodies of the public bulk wrappers: validate, fire the call's
  /// trace hook once, then run its lanes through stream_lanes. `kind` is
  /// the TraceSink::on_range code.
  void range_call(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                  std::uint32_t elem);
  void strided_call(bool is_store, std::uint64_t addr, std::uint64_t count,
                    std::uint64_t stride, std::uint32_t elem);
  void pair_call(bool is_store, std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                 std::uint32_t elem_b, std::uint64_t count);
  /// The batching kernel behind every bulk call (stream_range's documented
  /// loop over validated lanes). Never fires the trace sink; with
  /// bulk_fast_path off it is exactly the element-wise reference emission.
  void stream_lanes(const StreamLane* lanes, std::size_t num_lanes, std::uint64_t count);
  void flush_bulk(BulkAcc& acc) {
    if (acc.loads != 0 || acc.stores != 0) {
      hierarchy_.credit_l1_run(acc.loads, acc.stores);
      acc.loads = 0;
      acc.stores = 0;
    }
  }

  void close_epoch();
  /// Re-evaluates the LoI schedule for epoch `epoch` onto the links.
  void apply_loi_schedule(std::uint64_t epoch);

  EngineConfig cfg_;
  memsim::TieredMemory memory_;
  /// Per-tier link models, indexed by TierId; nullopt for local tiers.
  std::vector<std::optional<memsim::LinkModel>> links_;
  /// Per-tier link queues (kQueue model only), indexed by TierId; nullopt
  /// for local tiers and for every tier under the kLoi model.
  std::vector<std::optional<memsim::QueueModel>> queues_;
  /// Bulk migration bytes charged per fabric tier since the last closed
  /// epoch (charge_migration_bytes), indexed by TierId.
  std::vector<std::uint64_t> pending_migration_bytes_;
  cachesim::CacheHierarchy hierarchy_;

  // precomputed address math (cacheline/page sizes are powers of two)
  std::uint64_t line_bytes_ = 64;
  std::uint64_t line_mask_ = 63;   ///< line_bytes - 1
  std::uint32_t page_shift_ = 12;  ///< log2(page_bytes)

  // epoch state
  cachesim::HwCounters epoch_base_;
  std::uint64_t epoch_demand_accesses_ = 0;
  std::uint64_t pending_flops_ = 0;

  // page-access sampling
  std::uint64_t page_sample_counter_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> page_hist_;
  std::uint64_t hist_memo_page_ = ~0ULL;
  std::uint64_t* hist_memo_count_ = nullptr;

  // phase state
  std::string current_phase_;
  cachesim::HwCounters phase_base_;
  std::uint64_t phase_flops_base_ = 0;
  double phase_time_base_ = 0.0;
  std::size_t phase_epoch_base_ = 0;  ///< epochs_.size() at pf_start

  // totals
  double elapsed_s_ = 0.0;
  std::uint64_t total_flops_ = 0;
  std::uint64_t peak_rss_ = 0;
  double pending_migration_s_ = 0.0;  ///< charged into the next closed epoch
  double migration_s_total_ = 0.0;
  bool finished_ = false;

  TraceSink* trace_sink_ = nullptr;

  std::vector<EpochRecord> epochs_;
  std::vector<PhaseRecord> phases_;
  std::vector<AllocationInfo> allocations_;
  /// Base address → allocations_ index (bases are unique: the underlying
  /// virtual allocator never reuses addresses), so free() is O(1) instead
  /// of a scan over every allocation ever made.
  std::unordered_map<std::uint64_t, std::size_t> alloc_index_;
  std::function<void(Engine&)> epoch_cb_;
};

}  // namespace memdis::sim
