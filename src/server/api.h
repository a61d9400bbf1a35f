// The serving layer's JSON documents and request decoding, factored out of
// the socket code so `locald serve`, `locald list --format json`, and
// `locald run --format json` emit literally the same bytes.
//
// Determinism contract (inherited from the execution engine, see
// docs/ARCHITECTURE.md "Execution engine"): every document built here from a
// (scenario, seed, size, trials) tuple is a pure function of that tuple —
// no timestamps, no thread counts, no cache statistics. CI byte-compares a
// `POST /v1/run` response against the `locald run --format json` output at a
// different --threads value, so anything scheduling-dependent belongs in
// `/v1/metrics`, never here.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cli/scenario.h"
#include "exec/context.h"

namespace locald::server {

// Body of POST /v1/run, mirroring `cli::ScenarioOptions`. Defaults match
// the CLI flags' defaults so the two surfaces agree on omitted fields.
struct RunRequest {
  std::string scenario;
  std::uint64_t seed = 42;
  int size = 0;    // 0 = scenario default
  int trials = 0;  // 0 = scenario default
  // gen/family.h selector ("name:k=v,..."); empty = the scenario's built-in
  // topology. Only family-aware scenarios accept it (400 otherwise).
  std::string family;
  // local/fault_profile.h selector ("name:k=v,..."); empty = the scenario's
  // default profile. Only fault-aware scenarios accept it (400 otherwise).
  // The event engine's schedule is seeded, so fault-parameterized documents
  // keep the byte-identity contract.
  std::string fault_profile;
};

// Body of POST /v1/sweep, mirroring `cli::SweepOptions` minus the
// scheduling-affecting knobs (threads, timing) which the server owns.
struct SweepRequest {
  std::string scenario;
  std::uint64_t seed = 42;
  std::vector<int> sizes;  // empty = the scenario's default size
  int trials = 0;
  std::string family;         // as in RunRequest; handed to every cell
  std::string fault_profile;  // as in RunRequest; handed to every cell
};

// Decode a request body. Both throw `Error` (surfaced as HTTP 400) on
// malformed JSON, wrong field types, negative values, or unknown fields —
// unknown fields are rejected so a typoed "trails" cannot silently run a
// default-parameter sweep.
RunRequest parse_run_request(const std::string& body);
SweepRequest parse_sweep_request(const std::string& body);

// The scenario catalog: GET /v1/scenarios and `locald list --format json`.
std::string scenarios_document();

// The workload generator's family catalog (names, parameter schemas, size
// mapping availability): GET /v1/families and
// `locald list --families --format json`.
std::string families_document();

// The event engine's fault-profile catalog (names, parameter schemas):
// GET /v1/faults and `locald list --faults --format json`.
std::string faults_document();

// GET /v1/version: build information (compiler, language standard), the
// document schema version every /v1 response carries, and the graph-core
// identifier (support/schema.h). The one document a client may poll to
// decide whether its parser still matches the server.
std::string version_document();

// One scenario run: POST /v1/run and `locald run --format json`. Executes
// the scenario with `exec` (shared pool + cache on the server; per-run on
// the CLI — the engine contract makes the bytes identical either way) and
// reports whether the paper's prediction was reproduced. `ok_out`, when
// non-null, receives the verdict for exit-code plumbing. A request that
// fails `cli::check_request` throws before anything runs.
std::string run_document(const RunRequest& request,
                         const exec::ExecContext& exec, bool* ok_out);

// A size-grid sweep: POST /v1/sweep. Delegates to `cli::run_sweep` with
// timing disabled, so the body is the same deterministic document the CLI
// prints (cells keep their fresh per-cell caches). `pool` is the server's
// process-wide pool (null = serial). `ok_out` as above.
std::string sweep_document(const SweepRequest& request,
                           exec::ThreadPool* pool, bool* ok_out);

// Streamed form of `sweep_document`: the SAME bytes, handed to `emit` in
// pieces as cells finish (prelude, one piece per cell, postlude) instead of
// buffered whole — the chunked-transfer payload of a streamed /v1/sweep.
// Concatenating every `emit` piece reproduces `sweep_document`'s return
// value byte for byte. An `emit` that throws aborts the sweep and
// propagates (the serving layer stops computing for a vanished client).
void sweep_document_stream(const SweepRequest& request,
                           exec::ThreadPool* pool,
                           const std::function<void(const std::string&)>& emit,
                           bool* ok_out);

// {"error": ..., "status": N} — the uniform 4xx/5xx body.
std::string error_document(int status, const std::string& message);

}  // namespace locald::server
