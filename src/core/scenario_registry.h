// Scenario registry: every paper figure (and extension study) that
// simulates anything registers here under a stable name, so one front
// end — `memdis sweep --scenario NAME` — can expand, parallelise, and
// archive any of them.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace memdis::core {

/// How a paper claim is checked: ordering and monotone claims are gated
/// predicates; a magnitude claim prints the paper's number beside the
/// model's and never gates.
enum class ClaimKind { kOrdering, kMonotone, kMagnitude };

/// A scenario's rows as a claim reads them. Every value read or noted is
/// logged: the log is the model's side of the verdict.
class ClaimRows {
 public:
  explicit ClaimRows(const std::vector<SweepRow>& rows) : rows_(rows) {}
  /// Metric `name` of the row at (app, ratio, scale, variant); throws
  /// std::invalid_argument when no row carries it.
  double operator()(workloads::App app, const std::string& name, double ratio = kNodeOnly,
                    int scale = 1, const std::string& variant = "");
  /// Whether the row of `app` at `ratio` carries `name` (phase metrics
  /// exist only for the phases that ran).
  [[nodiscard]] bool has(workloads::App app, const std::string& name, double ratio) const;
  /// Logs a value derived from the rows and returns it; once a claim notes
  /// values, the log shows those instead of the raw reads.
  double note(const std::string& label, double value);
  [[nodiscard]] std::string log() const;

 private:
  [[nodiscard]] const double* find(workloads::App app, const std::string& name, double ratio,
                                   int scale, const std::string& variant) const;
  const std::vector<SweepRow>& rows_;
  std::vector<std::string> reads_, notes_;
};

/// One finding of the paper, as a pure function of its figure's rows.
struct Claim {
  ClaimKind kind;
  std::string text;
  std::function<bool(ClaimRows&)> holds;
  /// Why the current model contradicts the claim, with the model's number;
  /// empty when the claim is expected to hold. A known failure is never
  /// reworded, re-seeded or re-thresholded until it passes.
  std::string known_failure = {};
};

/// Prints each claim with its verdict on `rows`; returns how many gated
/// verdicts differ from their expectation, in either direction.
[[nodiscard]] std::size_t report_claims(const std::vector<Claim>& claims,
                                        const std::vector<SweepRow>& rows, std::ostream& os);

struct Scenario {
  std::string name;      ///< stable CLI handle, e.g. "fig06"
  std::string artifact;  ///< paper artifact, e.g. "Figure 6"
  std::string caption;   ///< one-line description for banners and listings
  SweepSpec spec;
  MeasureFn measure;
  /// Optional human-readable report printed after the sweep (tables and
  /// readings). May derive anything from the result rows.
  std::function<void(const SweepResult&, std::ostream&)> summarize;
  std::vector<Claim> claims = {};  ///< the paper's findings on this figure
};

class ScenarioRegistry {
 public:
  /// The process-wide registry, with all built-in scenarios registered.
  static ScenarioRegistry& instance();

  /// Registers a scenario; throws std::invalid_argument on duplicate names.
  void add(Scenario scenario);

  /// nullptr when `name` is not registered.
  [[nodiscard]] const Scenario* find(const std::string& name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Runs a registered scenario and stamps its name into the result.
[[nodiscard]] SweepResult run_scenario(const Scenario& scenario,
                                       const SweepOptions& options = {});

namespace detail {
/// Defined in scenarios.cpp; invoked once by ScenarioRegistry::instance().
void register_builtin_scenarios(ScenarioRegistry& registry);
}  // namespace detail

}  // namespace memdis::core
