#include "server/api.h"

#include <limits>
#include <sstream>

#include "cli/sweep.h"
#include "gen/family.h"
#include "local/fault_profile.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/format.h"
#include "support/json.h"
#include "support/schema.h"

namespace locald::server {

namespace {

// Field accessors with request-shaped error messages (they surface to
// clients verbatim inside the 400 body).
std::uint64_t take_seed(const JsonValue& v, const char* field) {
  LOCALD_CHECK(v.is_integer(), cat("field \"", field,
                                   "\" must be a non-negative integer"));
  const std::int64_t n = v.as_integer();
  LOCALD_CHECK(n >= 0, cat("field \"", field, "\" must be non-negative"));
  return static_cast<std::uint64_t>(n);
}

int take_count(const JsonValue& v, const char* field) {
  LOCALD_CHECK(v.is_integer(), cat("field \"", field,
                                   "\" must be a non-negative integer"));
  const std::int64_t n = v.as_integer();
  LOCALD_CHECK(n >= 0 && n <= std::numeric_limits<int>::max(),
               cat("field \"", field, "\" is out of range"));
  return static_cast<int>(n);
}

JsonValue parse_object_body(const std::string& body) {
  LOCALD_CHECK(!body.empty(), "request body must be a JSON object");
  const JsonValue root = parse_json(body);
  LOCALD_CHECK(root.is_object(), "request body must be a JSON object");
  return root;
}

std::string take_scenario_name(const JsonValue& root) {
  const JsonValue* name = root.find("scenario");
  LOCALD_CHECK(name != nullptr, "field \"scenario\" is required");
  LOCALD_CHECK(name->is_string(), "field \"scenario\" must be a string");
  LOCALD_CHECK(!name->as_string().empty(),
               "field \"scenario\" must be non-empty");
  return name->as_string();
}

std::string take_family(const JsonValue& root) {
  const JsonValue* family = root.find("family");
  if (family == nullptr) {
    return {};
  }
  LOCALD_CHECK(family->is_string(), "field \"family\" must be a string");
  LOCALD_CHECK(!family->as_string().empty(),
               "field \"family\" must be a non-empty selector "
               "(see /v1/families)");
  return family->as_string();
}

std::string take_fault_profile(const JsonValue& root) {
  const JsonValue* faults = root.find("fault_profile");
  if (faults == nullptr) {
    return {};
  }
  LOCALD_CHECK(faults->is_string(),
               "field \"fault_profile\" must be a string");
  LOCALD_CHECK(!faults->as_string().empty(),
               "field \"fault_profile\" must be a non-empty selector "
               "(see /v1/faults)");
  return faults->as_string();
}

void reject_unknown_fields(const JsonValue& root,
                           std::initializer_list<const char*> known) {
  for (const auto& [key, value] : root.members()) {
    bool ok = false;
    for (const char* k : known) {
      ok = ok || key == k;
    }
    LOCALD_CHECK(ok, cat("unknown field ", json_quote(key)));
  }
}

}  // namespace

RunRequest parse_run_request(const std::string& body) {
  const JsonValue root = parse_object_body(body);
  reject_unknown_fields(
      root, {"scenario", "seed", "size", "trials", "family", "fault_profile"});
  RunRequest req;
  req.scenario = take_scenario_name(root);
  if (const JsonValue* v = root.find("seed")) req.seed = take_seed(*v, "seed");
  if (const JsonValue* v = root.find("size")) req.size = take_count(*v, "size");
  if (const JsonValue* v = root.find("trials")) {
    req.trials = take_count(*v, "trials");
  }
  req.family = take_family(root);
  req.fault_profile = take_fault_profile(root);
  return req;
}

SweepRequest parse_sweep_request(const std::string& body) {
  const JsonValue root = parse_object_body(body);
  reject_unknown_fields(
      root, {"scenario", "seed", "sizes", "trials", "family", "fault_profile"});
  SweepRequest req;
  req.scenario = take_scenario_name(root);
  req.family = take_family(root);
  req.fault_profile = take_fault_profile(root);
  if (const JsonValue* v = root.find("seed")) req.seed = take_seed(*v, "seed");
  if (const JsonValue* v = root.find("trials")) {
    req.trials = take_count(*v, "trials");
  }
  if (const JsonValue* v = root.find("sizes")) {
    LOCALD_CHECK(v->is_array(), "field \"sizes\" must be an array");
    LOCALD_CHECK(!v->items().empty(),
                 "field \"sizes\" must hold at least one size");
    // A grid is bounded work per request; an enormous one is a typo or a
    // resource-exhaustion attempt, not a sweep.
    LOCALD_CHECK(v->items().size() <= 256,
                 "field \"sizes\" holds more than 256 cells");
    for (const JsonValue& item : v->items()) {
      req.sizes.push_back(take_count(item, "sizes"));
    }
  }
  return req;
}

std::string scenarios_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-list");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("scenarios");
  w.begin_array();
  for (const cli::Scenario& s : cli::scenario_registry()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("paper_ref");
    w.value(s.paper_ref);
    w.key("summary");
    w.value(s.summary);
    w.key("size_help");
    w.value(s.size_help);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

std::string families_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-families");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("families");
  w.begin_array();
  for (const gen::Family& f : gen::family_registry()) {
    w.begin_object();
    w.key("name");
    w.value(f.name);
    w.key("summary");
    w.value(f.summary);
    w.key("randomized");
    w.value(f.randomized);
    w.key("params");
    w.begin_array();
    for (const gen::ParamSpec& p : f.params) {
      w.begin_object();
      w.key("name");
      w.value(p.name);
      w.key("default");
      w.value(p.default_value);
      w.key("min");
      w.value(p.min_value);
      w.key("max");
      w.value(p.max_value);
      w.key("help");
      w.value(p.help);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

std::string faults_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-faults");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("faults");
  w.begin_array();
  for (const local::FaultProfile& p : local::fault_registry()) {
    w.begin_object();
    w.key("name");
    w.value(p.name);
    w.key("summary");
    w.value(p.summary);
    w.key("params");
    w.begin_array();
    for (const local::FaultParamSpec& spec : p.params) {
      w.begin_object();
      w.key("name");
      w.value(spec.name);
      w.key("default");
      w.value(spec.default_value);
      w.key("min");
      w.value(spec.min_value);
      w.key("max");
      w.value(spec.max_value);
      w.key("help");
      w.value(spec.help);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

std::string version_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-version");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("graph_core");
  w.value(kGraphCoreId);
  w.key("build");
  w.begin_object();
  w.key("compiler");
#ifdef __VERSION__
  w.value(__VERSION__);
#else
  w.value("unknown");
#endif
  w.key("standard");
  w.value(static_cast<std::int64_t>(__cplusplus));
  w.end_object();
  w.end_object();
  out << "\n";
  return out.str();
}

std::string run_document(const RunRequest& request,
                         const exec::ExecContext& exec, bool* ok_out) {
  const cli::Scenario& scenario = cli::check_request(
      request.scenario, request.family, request.fault_profile, {request.size});

  cli::ScenarioOptions opts;
  opts.seed = request.seed;
  opts.size = request.size;
  opts.trials = request.trials;
  opts.family = request.family;
  opts.faults = request.fault_profile;
  opts.format = cli::OutputFormat::csv;  // the machine-readable renderer
  opts.exec = exec;

  std::ostringstream tables;
  bool ok = false;
  std::string error;
  try {
    obs::Span span("run-document", scenario.name);
    ok = scenario.run(opts, tables);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (ok_out != nullptr) *ok_out = ok;

  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-run");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("scenario");
  w.value(scenario.name);
  w.key("paper_ref");
  w.value(scenario.paper_ref);
  w.key("seed");
  w.value(request.seed);
  w.key("size");
  w.value(request.size);
  w.key("trials");
  w.value(request.trials);
  if (!request.family.empty()) {
    w.key("family");
    w.value(request.family);
  }
  if (!request.fault_profile.empty()) {
    w.key("faults");
    w.value(request.fault_profile);
  }
  w.key("ok");
  w.value(ok);
  if (!error.empty()) {
    w.key("error");
    w.value(error);
  }
  // The scenario's own CSV tables, embedded verbatim (partial when the
  // scenario threw mid-run).
  w.key("output");
  w.value(tables.str());
  w.end_object();
  out << "\n";
  return out.str();
}

namespace {

cli::SweepOptions sweep_options_for(const SweepRequest& request,
                                    exec::ThreadPool* pool) {
  // Checked here so the HTTP layer can answer 404 / 400 before running (or
  // streaming) anything; run_sweep re-checks internally.
  cli::check_request(request.scenario, request.family, request.fault_profile,
                     request.sizes);
  cli::SweepOptions sweep;
  sweep.seed = request.seed;
  sweep.sizes = request.sizes;
  sweep.trials = request.trials;
  sweep.family = request.family;
  sweep.faults = request.fault_profile;
  sweep.timing = false;  // scheduling-dependent fields never leave /v1/metrics
  sweep.pool = pool;
  return sweep;
}

}  // namespace

std::string sweep_document(const SweepRequest& request,
                           exec::ThreadPool* pool, bool* ok_out) {
  const cli::SweepOptions sweep = sweep_options_for(request, pool);
  std::ostringstream out;
  obs::Span span("sweep-document", request.scenario);
  const int exit_code = cli::run_sweep(request.scenario, sweep, out);
  if (ok_out != nullptr) *ok_out = exit_code == 0;
  return out.str();
}

void sweep_document_stream(
    const SweepRequest& request, exec::ThreadPool* pool,
    const std::function<void(const std::string&)>& emit, bool* ok_out) {
  const cli::SweepOptions sweep = sweep_options_for(request, pool);
  // One buffer, drained at every flush boundary: the emitted pieces are a
  // partition of exactly the bytes the buffered path returns, because both
  // paths run the identical writer over the identical stream.
  std::ostringstream out;
  const auto flush = [&] {
    std::string piece = out.str();
    if (!piece.empty()) {
      out.str({});
      emit(piece);
    }
  };
  const int exit_code = cli::run_sweep(request.scenario, sweep, out, flush);
  if (ok_out != nullptr) *ok_out = exit_code == 0;
}

std::string error_document(int status, const std::string& message) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("status");
  w.value(status);
  w.key("error");
  w.value(message);
  w.end_object();
  out << "\n";
  return out.str();
}

}  // namespace locald::server
