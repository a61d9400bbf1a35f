// Per-layer probe for the locald benchmark (perfbench/run.py --trace 1).
//
// Rebuilds a workload's inputs through the library's public constructors
// and calls each layer's public entry points with a span around every call:
// ball extraction -> canonical encoding -> VerdictCache lookup/insert ->
// evaluate / decode_label -> parse_run_request / run_document. Spans stay in
// memory and are written out when the probe ends; a layer's self time is its
// span time minus the time its child spans cover.
//
//   layer_probe --workload repro-gmr|repro-search|serve-mix --seed N
//               [--bodies FILE --docs-out DIR] [--spans-out FILE]
//
// Prints one JSON object: {"metrics": {...}, "self_ns": {...},
// "counters_repeat": bool}. `--bodies` (serve-mix) names a file of request
// lines `run <json>` / `sweep <json>`; each document built from them is
// written to DIR/doc_<i>.json for the caller's byte check.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "gen/family.h"
#include "gen/workload.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/fault_profile.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "server/api.h"
#include "support/hash.h"
#include "support/rng.h"
#include "tm/fragments.h"
#include "tm/zoo.h"
#include "trees/audit.h"

namespace {

using namespace locald;
using Clock = std::chrono::steady_clock;

// Nested spans aggregated per name, plus a bounded list of raw spans for the
// Chrome trace file.
class Tracer {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t child_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  const Stat& stat(const std::string& name) { return stats_[name]; }
  std::uint64_t ns(const std::string& name) { return stats_[name].ns; }
  std::uint64_t calls(const std::string& name) { return stats_[name].calls; }
  const std::map<std::string, Stat>& stats() const { return stats_; }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Raw& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"ph\":\"X\",\"pid\":1,\"tid\":0,"
          << "\"ts\":" << s.start_ns / 1000.0 << ",\"dur\":"
          << s.dur_ns / 1000.0 << ",\"name\":\"" << s.name << "\"}";
    }
    out << "]}\n";
  }

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    std::uint64_t child_ns;
  };
  struct Raw {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  static constexpr std::size_t kMaxRawSpans = 200'000;

  void open(const char* name) { stack_.push_back({name, Clock::now(), 0}); }
  void close() {
    const auto end = Clock::now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start)
            .count());
    Stat& s = stats_[f.name];
    ++s.calls;
    s.ns += dur;
    s.child_ns += f.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
    if (spans_.size() < kMaxRawSpans) {
      spans_.push_back(
          {f.name,
           std::chrono::duration_cast<std::chrono::nanoseconds>(f.start -
                                                                origin_)
               .count(),
           static_cast<std::int64_t>(dur)});
    }
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Frame> stack_;
  std::map<std::string, Stat> stats_;
  std::vector<Raw> spans_;
};

struct Probe {
  Tracer tracer;
  std::map<std::string, double> metrics;
  std::uint64_t extract_nodes = 0;
  std::uint64_t fragments = 0;
  std::uint64_t estimate_trials = 0;
  std::uint64_t candidates_tried = 0;
  std::uint64_t rejections_found = 0;
  std::uint64_t api_bytes = 0;
};

// Work counters of one replay, compared across two identical replays.
struct ReplayCounts {
  std::uint64_t extracts = 0;
  std::uint64_t forms = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t misses = 0;
  bool operator==(const ReplayCounts&) const = default;
};

// The engine's per-node path (local/simulator.cpp decide_ball) replayed
// with a span per stage: extract the stripped ball, key memoizable balls of
// at most 256 nodes by canonical encoding, look the key up, and evaluate on
// a miss. `oblivious_stats` (non-null for A*) collects the candidate count
// of every evaluation.
ReplayCounts replay(Probe& p, const local::LocalAlgorithm& alg,
                    const local::LabeledGraph& g, exec::VerdictCache* cache,
                    const oblivious::ObliviousSimulation* oblivious_stats) {
  constexpr graph::NodeId kMemoBallCap = 256;
  const std::string alg_name = alg.name();
  const auto forms_before = graph::canonicalization_counters().forms;
  const auto misses_before = cache ? cache->stats().misses : 0;
  ReplayCounts counts;
  local::BallScratch scratch;
  Tracer::Scope run(p.tracer, "local.replay");
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    local::BallView ball;
    {
      Tracer::Scope s(p.tracer, "graph.extract");
      ball = scratch.extract(g, nullptr, v, alg.horizon());
    }
    ++counts.extracts;
    p.extract_nodes += static_cast<std::uint64_t>(ball.node_count());
    const bool memo = cache != nullptr && alg.memoization_safe() &&
                      ball.node_count() <= kMemoBallCap;
    std::string encoding;
    std::uint64_t fingerprint = 0;
    if (memo) {
      Tracer::Scope s(p.tracer, "graph.canon");
      encoding = ball.canonical_encoding();
      fingerprint = hash_string(encoding);
    }
    if (memo) {
      Tracer::Scope s(p.tracer, "exec.cache.lookup");
      if (cache->lookup(fingerprint, alg_name, encoding).has_value()) {
        continue;
      }
    }
    local::Verdict verdict = local::Verdict::yes;
    {
      Tracer::Scope s(p.tracer, oblivious_stats ? "oblivious.evaluate"
                                                : "local.evaluate");
      verdict = alg.evaluate(ball);
    }
    ++counts.evaluations;
    if (oblivious_stats != nullptr) {
      p.candidates_tried += oblivious_stats->last_stats().assignments_tried;
      p.rejections_found += verdict == local::Verdict::no ? 1 : 0;
    }
    if (memo) {
      Tracer::Scope s(p.tracer, "exec.cache.lookup");
      cache->insert(fingerprint, alg_name, encoding,
                    verdict == local::Verdict::yes);
    }
  }
  counts.forms = graph::canonicalization_counters().forms - forms_before;
  counts.misses = cache ? cache->stats().misses - misses_before : 0;
  return counts;
}

// Replays `alg` on `g` twice with fresh caches; false when the deterministic
// work counters differ between the two.
bool replay_repeats(const local::LocalAlgorithm& alg,
                    const local::LabeledGraph& g) {
  Probe first;
  Probe second;
  exec::VerdictCache a;
  exec::VerdictCache b;
  return replay(first, alg, g, &a, nullptr) ==
         replay(second, alg, g, &b, nullptr);
}

void decode_all(Probe& p, const local::LabeledGraph& g) {
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    Tracer::Scope s(p.tracer, "halting.decode_label");
    (void)halting::decode_label(g.label(v));
  }
}

// One G(M, r) instance: fragments, construction, label decoding, owning
// extraction, the verifier replay, and the engine's own run_oblivious.
void probe_gmr(Probe& p, const halting::GmrParams& params,
               exec::VerdictCache& cache) {
  {
    Tracer::Scope s(p.tracer, "tm.fragments");
    p.fragments += tm::build_fragment_collection(params.machine,
                                                 params.fragment_size,
                                                 params.policy)
                       .fragments.size();
  }
  halting::GmrInstance inst;
  {
    Tracer::Scope s(p.tracer, "halting.build_gmr");
    inst = halting::build_gmr(params);
  }
  decode_all(p, inst.graph);
  const auto verifier = halting::make_gmr_verifier(
      params.fragment_size, params.policy, params.pyramidal,
      params.step_budget);
  for (graph::NodeId v = 0; v < inst.graph.node_count(); v += 16) {
    Tracer::Scope s(p.tracer, "graph.extract_owning");
    (void)local::extract_ball(inst.graph, nullptr, v, verifier->horizon());
  }
  replay(p, *verifier, inst.graph, &cache, nullptr);
  exec::VerdictCache run_cache;
  local::RunOptions run;
  run.exec.cache = &run_cache;
  Tracer::Scope s(p.tracer, "local.run");
  (void)local::run_oblivious(*verifier, inst.graph, run);
}

bool probe_repro_gmr(Probe& p, std::uint64_t seed) {
  exec::VerdictCache cache;
  tm::FragmentPolicy fig2;  // fig2-gmr defaults: cap 400, --seed
  fig2.max_fragments = 400;
  fig2.seed = seed;
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (e.halts) {
      probe_gmr(p, {e.machine, 1, 3, fig2, false, 4096}, cache);
    }
  }
  for (std::size_t cap : {50ul, 200ul, 1000ul}) {  // ablation-fragments caps
    tm::FragmentPolicy policy;
    policy.max_fragments = cap;
    policy.seed = seed;
    probe_gmr(p, {tm::halt_after(2, 0), 1, 3, policy, false, 4096}, cache);
  }
  for (int r = 1; r <= 3; ++r) {  // fig1-layered-trees audit
    Rng rng(seed);
    trees::TreeParams tp;
    tp.r = r;
    Tracer::Scope s(p.tracer, "trees.audit");
    (void)trees::audit_tree_coverage(tp, r <= 2 ? 0 : 100'000,
                                     r >= 3 ? 100 : 50, rng);
  }
  p.metrics["exec.cache.hits"] = cache.stats().hits;
  p.metrics["exec.cache.misses"] = cache.stats().misses;
  p.metrics["exec.cache.store_hits"] = cache.stats().store_hits;
  p.metrics["exec.cache.hit_rate"] = cache.stats().hit_rate();
  const auto verifier = halting::make_gmr_verifier(3, fig2, false, 4096);
  const auto inst = halting::build_gmr(
      {tm::halt_after(2, 0), 1, 3, fig2, false, 4096});
  return replay_repeats(*verifier, inst.graph);
}

bool probe_repro_search(Probe& p, std::uint64_t seed) {
  exec::ThreadPool pool(2);
  exec::VerdictCache cache;
  // table1-matrix (¬B, ¬C): A* over an id-reading 3-colouring decider on
  // random connected n = 8 instances, as in core/matrix.cpp.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "coloring-with-ids", 1, false, [](const local::BallView& ball) {
        (void)ball.center_id();
        const auto c = ball.center_label().at(0);
        if (c < 0 || c >= 3) return local::Verdict::no;
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) == c) return local::Verdict::no;
        }
        return local::Verdict::yes;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 64;
  options.max_assignments = 5'000;
  const auto simulated = oblivious::make_oblivious_simulation(reading, options);
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    local::LabeledGraph g(graph::make_random_connected(8, 4, rng.next_u64()));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      g.set_label(v, local::Label{static_cast<std::int64_t>(rng.below(3))});
    }
    replay(p, *simulated, g, &cache, simulated.get());
    // The engine on the same instance, serial and with a fresh A* (whose
    // exhaustive-mode memo the replay has already filled).
    const auto engine_alg =
        oblivious::make_oblivious_simulation(reading, options);
    local::RunOptions run;
    run.exec.cache = &cache;
    Tracer::Scope s(p.tracer, "local.run");
    (void)local::run_oblivious(*engine_alg, g, run);
  }
  {
    Tracer::Scope s(p.tracer, "core.separation_matrix");
    (void)core::evaluate_separation_matrix(seed, {&pool, &cache});
  }
  // cor1-randomized: the randomized decider over its four instances.
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  const auto decider =
      halting::make_randomized_gmr_decider(3, policy, false, 4096);
  std::vector<tm::TuringMachine> machines{tm::halt_after(2, 0)};
  for (int rounds : {1, 2, 3}) {
    machines.push_back(tm::zigzag_halt(rounds, 1));
  }
  for (std::size_t i = 0; i < machines.size(); ++i) {
    halting::GmrInstance inst;
    {
      Tracer::Scope s(p.tracer, "halting.build_gmr");
      inst = halting::build_gmr({machines[i], 1, 3, policy, false, 4096});
    }
    decode_all(p, inst.graph);
    local::RunOptions run;
    run.exec.pool = &pool;
    run.seed = seed + i;
    Tracer::Scope s(p.tracer, "local.estimate");
    p.estimate_trials += static_cast<std::uint64_t>(
        local::estimate_acceptance(*decider, inst.graph, nullptr, 40, run)
            .trials);
  }
  p.metrics["exec.cache.hits"] = cache.stats().hits;
  p.metrics["exec.cache.misses"] = cache.stats().misses;
  p.metrics["exec.cache.store_hits"] = cache.stats().store_hits;
  p.metrics["exec.cache.hit_rate"] = cache.stats().hit_rate();
  local::LabeledGraph g(graph::make_random_connected(8, 4, seed));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, local::Label{static_cast<std::int64_t>(v % 3)});
  }
  return replay_repeats(*simulated, g);
}

bool probe_serve_mix(Probe& p, std::uint64_t seed, const std::string& bodies,
                     const std::string& docs_out) {
  // The ball keys a shared cache sees on a family: every radius-1 ball,
  // extracted, encoded and looked up.
  const auto census = local::make_oblivious(
      "degree-census", 1, [](const local::BallView& ball) {
        return ball.node_count() > 1 ? local::Verdict::yes
                                     : local::Verdict::no;
      });
  exec::VerdictCache shared;
  const exec::ExecContext exec{nullptr, &shared};
  std::ifstream in(bodies);
  std::string line;
  int index = 0;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    const std::string kind = line.substr(0, space);
    const std::string body = line.substr(space + 1);
    std::string doc;
    bool ok = false;
    if (kind == "sweep") {
      server::SweepRequest req;
      {
        Tracer::Scope s(p.tracer, "server.api.parse");
        req = server::parse_sweep_request(body);
      }
      Tracer::Scope s(p.tracer, "server.api.document");
      doc = server::sweep_document(req, nullptr, &ok);
    } else {
      server::RunRequest req;
      {
        Tracer::Scope s(p.tracer, "server.api.parse");
        req = server::parse_run_request(body);
      }
      if (req.scenario == "family-workload" ||
          req.scenario == "fault-robustness") {
        const gen::FamilyInstanceSpec spec = gen::resolve_family_text(
            req.family.empty() ? "cycle" : req.family, req.size);
        graph::CsrGraph built;
        {
          Tracer::Scope s(p.tracer, "gen.build_graph");
          built = spec.build(req.seed);
        }
        replay(p, *census, local::LabeledGraph(std::move(built)), &shared,
               nullptr);
        gen::WorkloadOptions wopts;
        wopts.seed = req.seed;
        Tracer::Scope s(p.tracer, "gen.workload");
        if (req.scenario == "family-workload") {
          (void)gen::run_family_workload(spec, wopts, exec);
        } else {
          (void)gen::run_fault_robustness(
              spec, wopts,
              local::resolve_faults_text(
                  req.fault_profile.empty() ? "chaos" : req.fault_profile),
              exec);
        }
      }
      Tracer::Scope s(p.tracer, "server.api.document");
      doc = server::run_document(req, exec, &ok);
    }
    p.api_bytes += doc.size();
    std::ofstream(docs_out + "/doc_" + std::to_string(index++) + ".json",
                  std::ios::binary)
        << doc;
  }
  p.metrics["exec.cache.hits"] = shared.stats().hits;
  p.metrics["exec.cache.misses"] = shared.stats().misses;
  p.metrics["exec.cache.store_hits"] = shared.stats().store_hits;
  p.metrics["exec.cache.hit_rate"] = shared.stats().hit_rate();
  return replay_repeats(
      *census,
      local::LabeledGraph(gen::resolve_family_text("cycle", 64).build(seed)));
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  const std::string workload = args["--workload"];
  const std::uint64_t seed =
      args.count("--seed") ? std::stoull(args["--seed"]) : 42;
  Probe p;
  const auto canon0 = graph::canonicalization_counters();
  const auto events0 = local::event_engine_counters();
  const auto pool0 = exec::ThreadPool::activity();
  bool counters_repeat = false;
  try {
    if (workload == "repro-gmr") {
      counters_repeat = probe_repro_gmr(p, seed);
    } else if (workload == "repro-search") {
      counters_repeat = probe_repro_search(p, seed);
    } else if (workload == "serve-mix") {
      counters_repeat = probe_serve_mix(p, seed, args["--bodies"],
                                        args["--docs-out"]);
    } else {
      std::cerr << "layer_probe: unknown --workload '" << workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "layer_probe: " << e.what() << "\n";
    return 1;
  }
  const auto canon1 = graph::canonicalization_counters();
  const auto events1 = local::event_engine_counters();
  const auto pool1 = exec::ThreadPool::activity();
  Tracer& t = p.tracer;
  auto& m = p.metrics;
  m["graph.extract.calls"] = t.calls("graph.extract");
  m["graph.extract.ns"] = t.ns("graph.extract");
  m["graph.extract.nodes"] = p.extract_nodes;
  m["graph.extract_owning.calls"] = t.calls("graph.extract_owning");
  m["graph.extract_owning.ns"] = t.ns("graph.extract_owning");
  m["graph.canon.forms"] = canon1.forms - canon0.forms;
  m["graph.canon.census_balls"] = canon1.census_balls - canon0.census_balls;
  m["graph.canon.census_raw_hits"] =
      canon1.census_raw_hits - canon0.census_raw_hits;
  m["graph.canon.ns"] = t.ns("graph.canon");
  m["halting.decode_label.calls"] = t.calls("halting.decode_label");
  m["halting.decode_label.ns"] = t.ns("halting.decode_label");
  m["halting.build_gmr.ns"] = t.ns("halting.build_gmr");
  m["tm.fragments.count"] = p.fragments;
  m["tm.fragments.ns"] = t.ns("tm.fragments");
  m["trees.audit.ns"] = t.ns("trees.audit");
  m["local.evaluate.calls"] = t.calls("local.evaluate");
  m["local.evaluate.ns"] = t.ns("local.evaluate");
  // Every serial engine run (local.run) is paired with a replay of the same
  // inputs, so the engine's time minus the replayed extract, canon, cache
  // and evaluate spans is the engine's own node-loop cost.
  m["local.run.ns"] = t.ns("local.run");
  m["local.run.self_ns"] =
      t.calls("local.run") == 0
          ? 0.0
          : static_cast<double>(t.ns("local.run")) -
                static_cast<double>(t.stat("local.replay").child_ns);
  m["local.estimate.trials"] = p.estimate_trials;
  m["local.estimate.ns"] = t.ns("local.estimate");
  m["local.events.dispatched"] =
      events1.events_dispatched - events0.events_dispatched;
  m["local.events.dropped"] =
      events1.messages_dropped - events0.messages_dropped;
  m["local.events.fragmented"] =
      events1.messages_fragmented - events0.messages_fragmented;
  m["oblivious.evaluate.calls"] = t.calls("oblivious.evaluate");
  m["oblivious.evaluate.ns"] = t.ns("oblivious.evaluate");
  m["oblivious.candidates_tried"] = p.candidates_tried;
  m["oblivious.useful_ratio"] =
      p.candidates_tried == 0
          ? 0.0
          : static_cast<double>(p.rejections_found) / p.candidates_tried;
  m["exec.cache.lookup_ns"] = t.ns("exec.cache.lookup");
  m["exec.pool.loops"] = pool1.loops - pool0.loops;
  m["exec.pool.inline_loops"] = pool1.inline_loops - pool0.inline_loops;
  m["exec.pool.chunks"] = pool1.chunks - pool0.chunks;
  m["exec.pool.steals"] = pool1.steals - pool0.steals;
  m["gen.build_graph.ns"] = t.ns("gen.build_graph");
  m["gen.workload.ns"] = t.ns("gen.workload");
  m["server.api.parse_ns"] = t.ns("server.api.parse");
  m["server.api.document_ns"] = t.ns("server.api.document");
  m["server.api.bytes"] = p.api_bytes;
  if (args.count("--spans-out")) {
    t.write_chrome(args["--spans-out"]);
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : m) {
    out << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  out << "}, \"self_ns\": {";
  sep = "";
  for (const auto& [name, stat] : t.stats()) {
    out << sep << "\"" << name << "\": " << (stat.ns - stat.child_ns);
    sep = ", ";
  }
  out << "}, \"counters_repeat\": " << (counters_repeat ? "true" : "false")
      << "}\n";
  std::cout << out.str();
  return 0;
}
