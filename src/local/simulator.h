// Running a local algorithm on an input (G, x, Id).
//
// Global acceptance follows the paper's local-decision rule: accept iff
// every node outputs yes; a single no rejects.
//
// Every entry point takes a `RunOptions` describing HOW to execute —
// threading, memoization, random seed — separated from WHAT to run (the
// algorithm and instance positional arguments). The default-constructed
// options mean: serial, uncached, seed 0. Results are bit-identical across
// thread counts for fixed options: every node writes its own output slot
// and reductions happen in node order afterwards; randomized entry points
// draw every (trial, node) cell from a counter-based stream keyed by
// `options.seed`, never from shared sequential generator state.
#pragma once

#include <optional>
#include <vector>

#include "exec/context.h"
#include "local/algorithm.h"
#include "local/labeled_graph.h"

namespace locald::local {

// Execution options shared by every simulator entry point.
struct RunOptions {
  // Thread pool + verdict cache; ExecContext{} = serial and uncached.
  // Memoization requires the algorithm's verdict to be a pure function of
  // the ball's canonical class (see exec/verdict_cache.h).
  exec::ExecContext exec;
  // Base of the counter streams used by the randomized entry points
  // (probe_id_dependence, estimate_acceptance); ignored by the
  // deterministic ones.
  std::uint64_t seed = 0;
  // Visibility radius override; unset means the algorithm's own horizon().
  std::optional<int> radius = std::nullopt;
};

struct RunResult {
  std::vector<Verdict> outputs;
  bool accepted = true;
  std::optional<graph::NodeId> first_rejecting;
};

// Evaluates the algorithm on every node. If the algorithm declares itself
// Id-oblivious, identifiers are stripped from every ball before evaluation.
RunResult run_local_algorithm(const LocalAlgorithm& alg, const LabeledGraph& g,
                              const IdAssignment& ids,
                              const RunOptions& options = {});

// Runs an Id-oblivious algorithm without any identifier assignment.
RunResult run_oblivious(const LocalAlgorithm& alg, const LabeledGraph& g,
                        const RunOptions& options = {});

// Empirical probe of assumption-dependence: evaluates the algorithm under
// `trials` random id assignments drawn from [0, universe) and reports
// whether any PER-NODE output differed between two assignments. A truly
// Id-oblivious algorithm never differs; the Section-2/3 deciders must.
// Trial t draws its assignment from the counter-based stream
// (options.seed, t), so the probe is a pure function of (instance, seed).
struct IdDependenceProbe {
  bool global_verdict_changed = false;
  bool some_node_output_changed = false;
  int trials = 0;
};

IdDependenceProbe probe_id_dependence(const LocalAlgorithm& alg,
                                      const LabeledGraph& g, Id universe,
                                      int trials,
                                      const RunOptions& options = {});

// Monte-Carlo estimate of Pr[accept].
struct AcceptanceEstimate {
  int trials = 0;
  int accepted = 0;
  // Pr[accept] over the trials that ran. A zero-trial estimate has no
  // probability — returning 0.0 would silently conflate "never accepted"
  // with "never ran" — so asking for one is a checked error.
  double probability() const {
    LOCALD_CHECK(trials > 0,
                 "acceptance estimate over zero trials has no probability");
    return static_cast<double>(accepted) / trials;
  }
};

// Node v's coins in trial t come from the counter-based stream
// (options.seed, t, v), so every (node, trial) cell is the same generator
// no matter which thread runs it; each ball is extracted once and
// evaluated under the coins of every trial not yet rejected.
AcceptanceEstimate estimate_acceptance(const RandomizedLocalAlgorithm& alg,
                                       const LabeledGraph& g,
                                       const IdAssignment* ids, int trials,
                                       const RunOptions& options = {});

}  // namespace locald::local
