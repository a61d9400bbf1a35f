#include "cli/sweep.h"

#include <iostream>
#include <optional>
#include <sstream>

#include "cli/scenario.h"
#include "exec/context.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "support/format.h"
#include "support/schema.h"

namespace locald::cli {

namespace {

struct CellResult {
  int size = 0;
  bool ok = false;
  std::string error;  // non-empty when the scenario threw
  double wall_ms = 0.0;
  exec::VerdictCache::Stats cache;
};

CellResult run_cell(const Scenario& scenario, const SweepOptions& sweep,
                    int size, exec::ThreadPool* pool) {
  CellResult cell;
  cell.size = size;
  // A fresh cache per cell keeps memory bounded and makes the reported hit
  // rate a per-cell figure rather than a cross-cell accumulation.
  exec::VerdictCache cache;
  ScenarioOptions opts;
  opts.seed = sweep.seed;
  opts.size = size;
  opts.trials = sweep.trials;
  opts.family = sweep.family;
  opts.faults = sweep.faults;
  opts.format = OutputFormat::csv;
  opts.exec.pool = pool;
  opts.exec.cache = &cache;
  std::ostringstream sink;  // tables are the run-mode UI; sweep keeps JSON
  const obs::Stopwatch stopwatch;
  try {
    obs::Span span("sweep-cell", "size=" + std::to_string(size));
    cell.ok = scenario.run(opts, sink);
  } catch (const std::exception& e) {
    cell.ok = false;
    cell.error = e.what();
  }
  cell.wall_ms = stopwatch.elapsed_ms();
  cell.cache = cache.stats();
  return cell;
}

}  // namespace

int run_sweep(const std::string& scenario_name, const SweepOptions& sweep,
              std::ostream& out, const std::function<void()>& flush) {
  const Scenario* scenario = nullptr;
  try {
    scenario =
        &check_request(scenario_name, sweep.family, sweep.faults, sweep.sizes);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::vector<int> sizes = sweep.sizes;
  if (sizes.empty()) {
    sizes.push_back(0);
  }
  std::optional<exec::ThreadPool> owned_pool;
  exec::ThreadPool* pool = sweep.pool;
  if (pool == nullptr && sweep.threads != 1) {
    owned_pool.emplace(sweep.threads);
    pool = &*owned_pool;
  }

  // The document is emitted incrementally — prelude, one object per cell as
  // it finishes, postlude — so a `flush` hook can ship each piece the
  // moment it exists (the serving layer's streamed /v1/sweep). Emission
  // order is exactly the buffered order; the bytes cannot differ.
  // Deterministic fields only, unless --timing opts into the volatile ones
  // (see sweep.h for the byte-identity contract).
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-sweep");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("scenario");
  w.value(scenario_name);
  w.key("paper_ref");
  w.value(scenario->paper_ref);
  w.key("seed");
  w.value(sweep.seed);
  if (!sweep.family.empty()) {
    w.key("family");
    w.value(sweep.family);
  }
  if (!sweep.faults.empty()) {
    w.key("faults");
    w.value(sweep.faults);
  }
  // 0 means "each cell ran its scenario-default trial count", which the
  // sweep cannot know; omitting the field beats recording a false zero.
  if (sweep.trials > 0) {
    w.key("trials");
    w.value(sweep.trials);
  }
  if (sweep.timing) {
    w.key("threads");
    w.value(pool ? pool->parallelism() : 1);
  }
  w.key("cells");
  w.begin_array();
  if (flush) flush();

  const obs::Stopwatch sweep_stopwatch;
  bool all_ok = true;
  // Cells run in grid order on one thread; parallelism lives inside the
  // scenario's hot paths, which keeps nested pools out of the picture and
  // the JSON cell order fixed.
  for (int size : sizes) {
    const CellResult cell = run_cell(*scenario, sweep, size, pool);
    all_ok = all_ok && cell.ok;
    w.begin_object();
    w.key("size");
    w.value(cell.size);
    w.key("ok");
    w.value(cell.ok);
    if (!cell.error.empty()) {
      w.key("error");
      w.value(cell.error);
    }
    if (sweep.timing) {
      w.key("wall_ms");
      w.value(cell.wall_ms, 3);
      w.key("cache_hits");
      w.value(cell.cache.hits);
      w.key("cache_misses");
      w.value(cell.cache.misses);
      w.key("cache_hit_rate");
      w.value(cell.cache.hit_rate(), 4);
    }
    w.end_object();
    if (flush) flush();
  }
  const double total_ms = sweep_stopwatch.elapsed_ms();

  w.end_array();
  if (sweep.timing) {
    // Known only once every cell has run, so it lives in the postlude.
    w.key("total_wall_ms");
    w.value(total_ms, 3);
  }
  w.key("all_ok");
  w.value(all_ok);
  w.end_object();
  out << "\n";
  if (flush) flush();
  return all_ok ? 0 : 1;
}

}  // namespace locald::cli
