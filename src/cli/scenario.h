// The scenario registry behind the `locald` command-line driver.
//
// Every paper artifact locald reproduces — the Section-1.1 separation
// matrix, the Figure-1 layered trees, the Figure-2 G(M, r) construction,
// the Figure-3 pyramids, the Corollary-1 randomized decider, and the two
// warm-up promise problems — is registered here under a stable name, next
// to the workload and fault scenarios. `locald list` enumerates the
// registry; `locald run <name>` executes one scenario end to end with
// selectable sizes, seeds, and text/CSV/JSON output, and `locald serve`
// answers the same documents over HTTP.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "exec/context.h"
#include "support/check.h"
#include "support/format.h"

namespace locald::cli {

enum class OutputFormat { text, csv };

// Knobs shared by every scenario. `size` is the scenario's principal scale
// parameter (documented per scenario in `Scenario::size_help`); 0 means
// "use the scenario default".
struct ScenarioOptions {
  std::uint64_t seed = 42;
  int size = 0;
  int trials = 0;
  // `--family name:k=v,...` selector (gen/family.h); empty = the scenario's
  // built-in topology. Only meaningful for scenarios declaring
  // `family_help`; the driver and the HTTP API reject it elsewhere.
  std::string family;
  // `--faults name:k=v,...` selector (local/fault_profile.h); empty = the
  // scenario's default profile. Only meaningful for scenarios declaring
  // `fault_help`; the driver and the HTTP API reject it elsewhere.
  std::string faults;
  OutputFormat format = OutputFormat::text;
  // Include wall-clock columns in scenario tables (`locald run --timing`).
  // Scheduling-dependent, so off by default: the default output of every
  // scenario is a pure function of (seed, size, trials), which the serving
  // layer's byte-identity contract and CI's serve smoke both gate on.
  bool timing = false;
  // Execution engine handed down by the driver (--threads); the default is
  // the serial engine. Scenarios route their hot paths through it; verdicts
  // must not depend on the thread count (`locald sweep` gates on this).
  exec::ExecContext exec;
};

// A named, runnable paper artifact.
struct Scenario {
  std::string name;       // stable CLI name, e.g. "fig1-layered-trees"
  std::string paper_ref;  // where it lives in the paper, e.g. "Fig. 1, Sec. 2"
  std::string summary;      // one line for `locald list`
  std::string size_help;    // what --size means here (empty: unused)
  std::string family_help;  // what --family selects here (empty: unsupported)
  // Runs the scenario, writing tables to `out`. Returns true when every
  // reproduced verdict matched the paper's prediction.
  std::function<bool(const ScenarioOptions&, std::ostream&)> run;
  // What --faults selects here (empty: unsupported). Declared after `run`
  // so the registry's positional aggregate initializers — written before
  // fault profiles existed — keep their meaning; scenarios opting in set
  // the field by name.
  std::string fault_help{};
  // Set by a scenario whose --size is its family's target node count: the
  // family it builds when no --family is given. check_request resolves the
  // family at every requested size of such a scenario.
  std::string default_family{};
};

// The full registry, in paper order.
const std::vector<Scenario>& scenario_registry();

// Lookup by CLI name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

// A scenario name the registry does not know (HTTP 404 rather than 400).
class UnknownScenario : public Error {
 public:
  using Error::Error;
};

// The one check of a scenario request before anything runs, shared by
// `locald run`, `locald sweep`, POST /v1/run and POST /v1/sweep. `name` must
// be registered (else UnknownScenario); a non-empty `family` / `faults`
// selector must go to a scenario that takes one and must resolve
// (gen::resolve_family_text, local::resolve_faults_text). For a scenario
// with a `default_family`, the family (the selector, or that default) must
// also resolve at every requested size: `sizes` holds the run's --size, or
// the sweep's grid (empty: the default size 0). Every failure throws
// `Error`: a usage error (exit 2 / HTTP 400), never a mismatch.
const Scenario& check_request(const std::string& name,
                              const std::string& family,
                              const std::string& faults,
                              const std::vector<int>& sizes);

// Shared table emission: a titled aligned table in text mode, a
// `# title`-prefixed RFC-4180 block in CSV mode.
void emit_table(std::ostream& out, const ScenarioOptions& opts,
                const std::string& title, const TextTable& table);

// A plain narrative line; suppressed in CSV mode so output stays parseable.
void emit_note(std::ostream& out, const ScenarioOptions& opts,
               const std::string& text);

}  // namespace locald::cli
