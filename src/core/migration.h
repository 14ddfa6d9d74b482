// MigrationRuntime: a transparent hot-page placement daemon.
//
// The "dynamic solution" of Sec. 5.2: detect hot pages at runtime and
// migrate them into faster tiers (in the spirit of Thermostat [1] and
// TPP [30]). Where the original runtime blindly promoted to tier 0 and
// demoted one hop, every move is now priced by the MigrationCostModel
// from the topology's per-link bandwidth/latency under the current
// per-link Level-of-Interference, amortized over the page's observed
// PEBS-sampled hotness:
//
//  * a page is moved to the destination with the highest positive net
//    value (horizon * stall-savings - transfer cost), which on an N-tier
//    chain can be an *intermediate* tier — staging switched -> direct ->
//    node across scans when the cost model prices the long-haul hop out;
//  * each fabric segment has a per-scan page budget; when a segment on the
//    direct path is exhausted the planner falls back to the best feasible
//    shorter hop (and vice versa: staging can be disabled to force direct
//    moves only);
//  * a full destination makes room by demoting its coldest page, and
//    demotion victims go to the cheapest fabric tier by the same pricing,
//    so under asymmetric LoI cold pages avoid the loaded link;
//  * transfer time is charged to the engine's epoch timeline
//    (Engine::charge_migration_seconds), so aggressive cadences pay for
//    their traffic.
//
// Mechanism: attach to the engine's epoch callback; every `period_epochs`
// epochs, diff the page-access histogram, rank candidate moves by net
// value, then execute them within the per-scan budgets.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/migration_cost.h"
#include "sim/engine.h"

namespace memdis::core {

/// Expected residency (epochs) over which a move's stall savings are
/// amortized against its transfer cost; also the lookahead window of the
/// schedule-aware pricing and burst deferral.
inline constexpr std::uint64_t kPlanHorizonEpochs = 16;

struct MigrationConfig {
  std::uint64_t period_epochs = 4;       ///< scan cadence (epochs)
  std::uint64_t max_pages_per_scan = 64; ///< promotion budget per scan
  std::uint64_t min_heat = 8;            ///< samples before a page is "hot"
  /// Permit moves that end on an intermediate fabric tier (multi-hop
  /// staging across scans). When false the planner only considers direct
  /// moves to the node tier — the pre-cost-model behavior.
  bool allow_staging = true;
  /// Per-scan page budget of each fabric segment; 0 derives it from
  /// max_pages_per_scan. Models migration traffic stealing link bandwidth.
  std::uint64_t link_budget_pages = 0;
  /// When non-empty, the planner prices moves and scales segment budgets
  /// against this *fixed* per-link LoI vector (indexed by TierId) instead
  /// of the links' live levels — a planner provisioned with static QoS
  /// information, e.g. the time average of a bursty schedule. Executed
  /// moves are still charged at the links' true current state, so a
  /// mispriced plan pays the real congestion it ignored. A live-priced
  /// planner under a LoI schedule instead defers a move whenever the
  /// schedule over the next kPlanHorizonEpochs finds an epoch where the
  /// move's path is enough cheaper to beat acting now (net of the benefit
  /// epochs lost waiting) — the planner arbitraging a congestion burst.
  std::vector<double> assumed_loi;
  /// Under the queue link model, re-price each candidate against the bulk
  /// traffic this scan has *already scheduled* on the candidate's path
  /// (self-induced congestion) and defer the move when the inflated cost
  /// erases its net value — trimming the low-value tail off a migration
  /// burst before it delays the application's own demand misses. No-op
  /// under the `loi` model, whose closed form carries no self-traffic term.
  bool defer_on_self_congestion = true;
};

/// One executed move, for the machine-readable plan dump (`memdis plan`).
struct ExecutedMove {
  std::uint64_t scan = 0;   ///< scan index that issued the move
  std::uint64_t page = 0;   ///< page number
  memsim::TierId src = 0;
  memsim::TierId dst = 0;
  std::uint64_t heat = 0;   ///< sampled accesses in the scan window
  double cost_s = 0.0;      ///< transfer cost charged, at the true link state
  double value_s = 0.0;     ///< net value the planner believed (horizon-amortized)
  bool demotion = false;    ///< victim eviction rather than a hot-page move
  bool staged = false;      ///< ended on an intermediate tier (multi-hop)
};

class MigrationRuntime {
 public:
  explicit MigrationRuntime(const MigrationConfig& cfg = {}) : cfg_(cfg) {}

  /// Installs this runtime on the engine. The runtime must outlive the run.
  void attach(sim::Engine& eng);

  [[nodiscard]] std::uint64_t pages_promoted() const { return promoted_; }
  [[nodiscard]] std::uint64_t pages_demoted() const { return demoted_; }
  [[nodiscard]] std::uint64_t scans() const { return scans_; }
  /// Moves that ended on an intermediate fabric tier (first hop of a
  /// staged multi-hop plan).
  [[nodiscard]] std::uint64_t staged_moves() const { return staged_; }
  /// Moves that ended on the node tier.
  [[nodiscard]] std::uint64_t direct_moves() const { return direct_; }
  /// Plans skipped this run because the LoI schedule priced a later epoch
  /// cheaper (congestion-burst arbitrage; the page stays put this scan).
  [[nodiscard]] std::uint64_t deferred_moves() const { return deferred_; }
  /// Plans skipped because the scan's own already-scheduled bulk traffic
  /// priced the move's path out (self-congestion deferral; queue model).
  [[nodiscard]] std::uint64_t self_deferred_moves() const { return deferred_self_; }
  /// Total priced transfer cost of all executed moves (seconds), at the
  /// links' true state at execution time.
  [[nodiscard]] double transfer_cost_s() const { return transfer_cost_s_; }
  /// Every executed move, in execution order (the plan log).
  [[nodiscard]] const std::vector<ExecutedMove>& plan_log() const { return plan_log_; }
  /// Live per-link LoI observed at each scan (indexed by scan, then
  /// TierId) — the per-scan effective interference `memdis plan` reports.
  [[nodiscard]] const std::vector<std::vector<double>>& scan_loi_log() const {
    return scan_loi_log_;
  }

  [[nodiscard]] const MigrationConfig& config() const { return cfg_; }

 private:
  void on_epoch(sim::Engine& eng);

  MigrationConfig cfg_;
  std::uint64_t epoch_count_ = 0;
  std::uint64_t scans_ = 0;
  std::uint64_t promoted_ = 0;
  std::uint64_t demoted_ = 0;
  std::uint64_t staged_ = 0;
  std::uint64_t direct_ = 0;
  std::uint64_t deferred_ = 0;
  std::uint64_t deferred_self_ = 0;
  double transfer_cost_s_ = 0.0;
  std::vector<ExecutedMove> plan_log_;
  std::vector<std::vector<double>> scan_loi_log_;
  // Histogram snapshot from the previous scan, for heat deltas.
  std::unordered_map<std::uint64_t, std::uint64_t> last_hist_;
  // Planning cost model cached between scans; rebuilt only when its LoI
  // vector (live links, or the static assumed_loi belief) changes.
  std::optional<MigrationCostModel> model_;
  std::vector<double> model_loi_;
  // Demand-class view under the queue model: tier access latencies are
  // priced at the LoI the *demand* class experiences (background + bulk
  // cross-traffic), while `model_` prices transfer costs at the bulk
  // class's view. Cached like model_.
  std::optional<MigrationCostModel> demand_model_;
  std::vector<double> demand_loi_;
  // Truth model for charging executed moves when the planner believes a
  // different (assumed) LoI than the links actually carry.
  std::optional<MigrationCostModel> truth_model_;
  std::vector<double> truth_loi_;
};

}  // namespace memdis::core
