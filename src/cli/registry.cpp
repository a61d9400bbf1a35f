#include "cli/scenario.h"

#include "cli/scenarios.h"
#include "gen/family.h"
#include "local/fault_profile.h"

namespace locald::cli {

const std::vector<Scenario>& scenario_registry() {
  static const std::vector<Scenario> registry = [] {
    std::vector<Scenario> all;
    for (auto* section : {&matrix_scenarios, &tree_scenarios,
                          &halting_scenarios, &gen_scenarios,
                          &fault_scenarios}) {
      auto scenarios = (*section)();
      all.insert(all.end(), std::make_move_iterator(scenarios.begin()),
                 std::make_move_iterator(scenarios.end()));
    }
    return all;
  }();
  return registry;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenario_registry()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

const Scenario& check_request(const std::string& name,
                              const std::string& family,
                              const std::string& faults,
                              const std::vector<int>& sizes) {
  const Scenario* scenario = find_scenario(name);
  if (scenario == nullptr) {
    throw UnknownScenario(cat("unknown scenario ", json_quote(name),
                              " (see `locald list` or /v1/scenarios)"));
  }
  const auto does_not_take = [&](const char* what) {
    return Error(cat("scenario ", json_quote(name), " does not take ", what,
                     " (see `locald help ", name, "`)"));
  };
  if (!family.empty()) {
    if (scenario->family_help.empty()) throw does_not_take("a family");
    (void)gen::resolve_family_text(family);
  }
  if (!scenario->default_family.empty()) {
    const std::string& selector =
        family.empty() ? scenario->default_family : family;
    for (int size : sizes) {
      (void)gen::resolve_family_text(selector, size);
    }
  }
  if (!faults.empty()) {
    if (scenario->fault_help.empty()) throw does_not_take("a fault profile");
    (void)local::resolve_faults_text(faults);
  }
  return *scenario;
}

void emit_table(std::ostream& out, const ScenarioOptions& opts,
                const std::string& title, const TextTable& table) {
  if (opts.format == OutputFormat::csv) {
    out << "# " << title << '\n' << table.render_csv();
  } else {
    out << title << '\n' << table.render() << '\n';
  }
}

void emit_note(std::ostream& out, const ScenarioOptions& opts,
               const std::string& text) {
  if (opts.format == OutputFormat::text) {
    out << text << '\n';
  }
}

}  // namespace locald::cli
