#include "core/scenario_registry.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "common/table.h"

namespace memdis::core {

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    detail::register_builtin_scenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) throw std::invalid_argument("scenario name must not be empty");
  if (find(scenario.name) != nullptr)
    throw std::invalid_argument("duplicate scenario '" + scenario.name + "'");
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const Scenario* a, const Scenario* b) { return a->name < b->name; });
  return out;
}

const double* ClaimRows::find(workloads::App app, const std::string& name, double ratio,
                              int scale, const std::string& variant) const {
  for (const auto& row : rows_) {
    const SweepPoint& p = row.point;
    if (p.app != app || p.ratio != ratio || p.scale != scale || p.variant != variant) continue;
    for (const auto& metric : row.metrics)
      if (metric.first == name) return &metric.second;
  }
  return nullptr;
}

double ClaimRows::operator()(workloads::App app, const std::string& name, double ratio,
                             int scale, const std::string& variant) {
  const double* value = find(app, name, ratio, scale, variant);
  std::string label = workloads::app_name(app);
  if (ratio != kNodeOnly) label.append("@").append(Table::pct(ratio, 0));
  if (scale != 1) label.append(" ").append(std::to_string(scale)).append("x");
  if (!variant.empty()) label.append(" ").append(variant);
  label.append(" ").append(name);
  if (value == nullptr)
    throw std::invalid_argument(std::string("claim reads a missing metric: ").append(label));
  std::string entry = label.append(" ").append(Table::num(*value, 3));
  if (std::find(reads_.begin(), reads_.end(), entry) == reads_.end()) reads_.push_back(entry);
  return *value;
}

bool ClaimRows::has(workloads::App app, const std::string& name, double ratio) const {
  return find(app, name, ratio, 1, "") != nullptr;
}

double ClaimRows::note(const std::string& label, double value) {
  notes_.push_back(std::string(label).append(" ").append(Table::num(value, 3)));
  return value;
}

std::string ClaimRows::log() const {
  constexpr std::size_t kShown = 12;
  const auto& values = notes_.empty() ? reads_ : notes_;
  std::string out;
  for (std::size_t i = 0; i < values.size() && i < kShown; ++i)
    out.append(i ? ", " : "").append(values[i]);
  if (values.size() > kShown)
    out.append(" (+").append(std::to_string(values.size() - kShown)).append(" more)");
  return out;
}

std::size_t report_claims(const std::vector<Claim>& claims, const std::vector<SweepRow>& rows,
                          std::ostream& os) {
  if (claims.empty()) return 0;
  os << "\nPaper claims (ordering and monotone claims are gated; magnitudes are not):\n";
  std::size_t mismatches = 0;
  for (const auto& claim : claims) {
    ClaimRows read(rows);
    const bool holds = claim.holds(read);
    const bool expected = claim.known_failure.empty();
    const char* verdict = !expected ? "known failure"
                          : claim.kind == ClaimKind::kMagnitude ? "paper vs model"
                                                                : "holds";
    if (claim.kind != ClaimKind::kMagnitude && holds != expected) {
      ++mismatches;
      verdict = expected ? "MISMATCH: fails" : "MISMATCH: holds, expected to fail";
    }
    constexpr const char* kKinds[] = {"ordering", "monotone", "magnitude"};
    os << "- [" << verdict << "] (" << kKinds[static_cast<int>(claim.kind)] << ") " << claim.text
       << "\n    model: " << read.log() << "\n";
    if (!expected) os << "    known failure: " << claim.known_failure << "\n";
  }
  return mismatches;
}

SweepResult run_scenario(const Scenario& scenario, const SweepOptions& options) {
  SweepResult result = run_sweep(scenario.spec, scenario.measure, options);
  result.scenario = scenario.name;
  return result;
}

}  // namespace memdis::core
