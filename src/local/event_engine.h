// The message-passing view of the LOCAL model: an event-driven runtime with
// seeded fault injection.
//
// Section 1.2 notes that a local algorithm with horizon t is equivalent to a
// distributed algorithm running t (± 1) synchronous rounds: nodes exchange
// unbounded messages with neighbours, then output. This engine runs that
// view. Every node floods its (id, label, adjacency) knowledge for
// horizon + 1 rounds (full-information gathering), rebuilds
// (G, x, Id) |` B(v, t) from what arrived, and hands it to any
// `LocalAlgorithm`. Direct ball evaluation (`run_local_algorithm`) is the
// paper's own definition and the reference: under the `none` profile, and
// under any profile that perturbs timing without losing information (delay,
// fragmentation), the engine reproduces it verbatim (tested).
//
// Messages are events on a priority queue ordered by (virtual time,
// sequence number), and a fault profile (local/fault_profile.h) may delay,
// drop, retransmit, or fragment them in flight. Nodes progress in
// alpha-synchronizer style — a node applies its round-r update the moment
// every round-r inbox slot has resolved (payload delivered or definitively
// lost), buffering messages that arrive for future rounds — so the
// execution is asynchronous even though the protocol is written in rounds.
//
// The engine uses identifiers as transport addresses during flooding. For an
// Id-oblivious inner algorithm the reconstructed ball is stripped before
// evaluation, so obliviousness remains framework-enforced.
//
// Determinism contract: the schedule is a pure function of
// (graph, horizon, profile, seed).
//  - Every fault decision (drop per attempt, delay per message, jitter per
//    fragment) is drawn from a counter-based stream
//    `Rng::stream(seed ^ plane, arc, index(round, attempt))`, keyed by the
//    directed arc and the (round, attempt) pair — never from engine state —
//    so decisions are call-order-independent.
//  - The queue orders ties by a sequence number assigned at push time, and
//    one run is a single-threaded simulation, so pops are totally ordered.
//  - A lost message resolves its inbox slot to the empty string: a node
//    sees a fixed-arity inbox (one slot per port, in port order) with gaps.
//
// EventStats is part of the deterministic result — it reports the simulated
// schedule, not wall-clock behaviour — so scenarios may print it in
// byte-gated documents. The engine also feeds process-wide obs/ counters
// (events dispatched, drops, fragments, delays, max queue depth) for the
// volatile metric surfaces; those never flow back into results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "local/algorithm.h"
#include "local/fault_profile.h"
#include "local/labeled_graph.h"

namespace locald::local {

// What one node knows about another after flooding.
struct KnownNode {
  Id id = 0;
  Label label;
  std::vector<Id> adj;  // full adjacency, as ids (may mention unknown nodes)

  bool operator==(const KnownNode&) const = default;
};

using Knowledge = std::map<Id, KnownNode>;

// Serialization used as message payload (exercised directly by tests).
std::string encode_knowledge(Id self, const Knowledge& k);
std::pair<Id, Knowledge> decode_knowledge(const std::string& payload);

// Rebuilds the induced radius-t ball around `self` from flooded knowledge.
// Only information actually contained in the knowledge map is used.
Ball ball_from_knowledge(Id self, const Knowledge& k, int radius);

// Deterministic statistics of one simulated schedule.
struct EventStats {
  std::uint64_t events_dispatched = 0;   // queue pops
  std::uint64_t messages_sent = 0;       // one per (directed arc, round)
  std::uint64_t messages_delivered = 0;  // resolved with a payload
  std::uint64_t messages_dropped = 0;    // every attempt lost
  std::uint64_t messages_delayed = 0;    // delivered after the sync slot
  std::uint64_t fragments_sent = 0;      // pieces of split payloads
  std::uint64_t retransmissions = 0;     // attempts after the first
  std::uint64_t max_queue_depth = 0;     // high-water mark of pending events

  bool operator==(const EventStats&) const = default;
};

struct EventRunResult {
  std::vector<Verdict> verdicts;
  EventStats stats;
};

// Runs `alg` through full-information gathering (horizon + 1 rounds) on the
// event engine under `profile`. Under `none` this reproduces
// run_local_algorithm's outputs exactly; under lossy profiles nodes decide
// on whatever partial ball knowledge got through.
EventRunResult run_via_event_engine(const LocalAlgorithm& alg,
                                    const LabeledGraph& g,
                                    const IdAssignment& ids,
                                    const FaultProfileInstance& profile,
                                    std::uint64_t seed);

// Process-wide event-engine counters, accumulated across every run in this
// process. Scheduling-dependent in aggregate (how many runs happened), so
// they belong to the volatile metric surfaces only — /v1/metrics and
// GET /metrics — like the canonicalization counters they mirror.
struct EventEngineCounters {
  std::uint64_t events_dispatched = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_fragmented = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t max_queue_depth = 0;  // high-water mark across all runs
};

// Reading the counters also registers them with obs::registry() (idempotent),
// the same lazy-bridge pattern as graph::canonicalization_counters().
EventEngineCounters event_engine_counters();

}  // namespace locald::local
