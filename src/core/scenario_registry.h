// Scenario registry: every paper figure (and extension study) that is a
// sweep registers here under a stable name, so one front end — `memdis
// sweep --scenario NAME` — can expand, parallelise, and archive any of
// them.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace memdis::core {

struct Scenario {
  std::string name;      ///< stable CLI handle, e.g. "fig06"
  std::string artifact;  ///< paper artifact, e.g. "Figure 6"
  std::string caption;   ///< one-line description for banners and listings
  SweepSpec spec;
  MeasureFn measure;
  /// Optional human-readable report printed after the sweep (tables,
  /// expected-shape notes). May derive anything from the result rows.
  std::function<void(const SweepResult&, std::ostream&)> summarize;
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
