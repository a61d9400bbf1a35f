// The event-driven runtime of local/event_engine.h under faults.
//
// The engine's two promises, tested head-on:
//  1. Equivalence: under the `none` control profile — and under any profile
//     that perturbs timing without losing information (delay, fragmentation)
//     — verdicts reproduce direct ball evaluation (run_local_algorithm, the
//     paper's definition) on every topology tried; heavy loss perturbs them
//     but never wedges the run. The knowledge codec and the equivalence on
//     random graphs, id assignments and horizons are in
//     test_sync_engine.cpp.
//  2. Determinism: verdicts AND schedule statistics are pure functions of
//     (graph, algorithm, profile, seed); repeat runs agree field for field,
//     and different seeds reshuffle faulty schedules without touching the
//     clean ones.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/generators.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/fault_profile.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"

namespace locald::local {
namespace {

std::unique_ptr<LocalAlgorithm> even_degree() {
  return make_oblivious("even-degree", 1, [](const BallView& ball) {
    return ball.g.degree(ball.center) % 2 == 0 ? Verdict::yes : Verdict::no;
  });
}

std::unique_ptr<LocalAlgorithm> triangle_free() {
  return make_oblivious("triangle-free", 1, [](const BallView& ball) {
    const auto& nbrs = ball.g.neighbors(ball.center);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (ball.g.has_edge(nbrs[i], nbrs[j])) {
          return Verdict::no;
        }
      }
    }
    return Verdict::yes;
  });
}

std::vector<graph::CsrGraph> topologies() {
  std::vector<graph::CsrGraph> out;
  out.push_back(graph::make_cycle(9));
  out.push_back(graph::make_path(7));
  out.push_back(graph::make_star(5));
  out.push_back(graph::make_complete(5));
  out.push_back(graph::make_grid(3, 4));
  out.push_back(graph::make_complete_binary_tree(3));
  return out;
}

TEST(EventEngine, NoneProfileReproducesBallEvaluationEverywhere) {
  const auto control = resolve_faults_text("none");
  const auto alg = even_degree();
  const auto tri = triangle_free();
  for (const graph::CsrGraph& g : topologies()) {
    const LabeledGraph instance(g);
    const IdAssignment ids = make_consecutive(g.node_count());
    for (const LocalAlgorithm* a : {alg.get(), tri.get()}) {
      const RunResult direct = run_local_algorithm(*a, instance, ids);
      const EventRunResult event =
          run_via_event_engine(*a, instance, ids, control, 42);
      EXPECT_EQ(event.verdicts, direct.outputs)
          << a->name() << " on n=" << g.node_count();
      EXPECT_EQ(event.stats.messages_dropped, 0u);
      EXPECT_EQ(event.stats.messages_delayed, 0u);
      EXPECT_EQ(event.stats.fragments_sent, 0u);
      EXPECT_EQ(event.stats.retransmissions, 0u);
    }
  }
}

// Delay and fragmentation perturb the schedule, never the information: the
// α-synchronizer waits out every slot, so verdicts still match direct ball
// evaluation even though messages arrive late and in pieces.
TEST(EventEngine, LosslessProfilesPreserveVerdicts) {
  const auto alg = even_degree();
  for (const char* selector :
       {"delay:max=7", "fragment:pieces=5", "chaos:per-mille=0"}) {
    const auto profile = resolve_faults_text(selector);
    for (const graph::CsrGraph& g : topologies()) {
      const LabeledGraph instance(g);
      const IdAssignment ids = make_consecutive(g.node_count());
      const RunResult direct = run_local_algorithm(*alg, instance, ids);
      const EventRunResult event =
          run_via_event_engine(*alg, instance, ids, profile, 7);
      EXPECT_EQ(event.verdicts, direct.outputs)
          << selector << " on n=" << g.node_count();
      EXPECT_EQ(event.stats.messages_dropped, 0u) << selector;
    }
  }
}

TEST(EventEngine, RepeatRunsAgreeVerbatimIncludingStats) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_grid(4, 4));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto profile =
      resolve_faults_text("chaos:delay=3,per-mille=400,attempts=2,pieces=3");
  const EventRunResult first =
      run_via_event_engine(*alg, instance, ids, profile, 13);
  for (int i = 0; i < 3; ++i) {
    const EventRunResult again =
        run_via_event_engine(*alg, instance, ids, profile, 13);
    EXPECT_EQ(again.verdicts, first.verdicts);
    EXPECT_TRUE(again.stats == first.stats);
  }
  // A different seed draws a different schedule (with these knobs the drop
  // pattern virtually surely differs somewhere across 96 arcs x 2 rounds).
  const EventRunResult reseeded =
      run_via_event_engine(*alg, instance, ids, profile, 14);
  EXPECT_FALSE(reseeded.stats == first.stats);
}

TEST(EventEngine, HeavyLossPerturbsVerdictsButNeverWedges) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(10));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const std::vector<Verdict> reference =
      run_local_algorithm(*alg, instance, ids).outputs;
  const auto lossy = resolve_faults_text("drop:per-mille=900,attempts=1");
  const EventRunResult faulty =
      run_via_event_engine(*alg, instance, ids, lossy, 42);
  // Every node still terminates and outputs...
  ASSERT_EQ(faulty.verdicts.size(), reference.size());
  // ...but with 90% loss some node must have missed a neighbour and seen an
  // undersized ball.
  EXPECT_NE(faulty.verdicts, reference);
  EXPECT_GT(faulty.stats.messages_dropped, 0u);
}

TEST(EventEngine, StatsAreConsistentOnACleanCycle) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(6));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto control = resolve_faults_text("none");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, control, 42);
  // horizon 1 => 2 rounds; each of the 6 degree-2 nodes sends 2 messages
  // per round, every one delivered as a single un-fragmented event.
  EXPECT_EQ(r.stats.messages_sent, 24u);
  EXPECT_EQ(r.stats.messages_delivered, 24u);
  EXPECT_EQ(r.stats.events_dispatched, 24u);
  EXPECT_GT(r.stats.max_queue_depth, 0u);
  EXPECT_LE(r.stats.max_queue_depth, 24u);
}

TEST(EventEngine, FragmentationAccountsEveryPiece) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(6));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto frag = resolve_faults_text("fragment:pieces=4");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, frag, 42);
  EXPECT_EQ(r.stats.messages_sent, 24u);
  EXPECT_EQ(r.stats.messages_delivered, 24u);
  EXPECT_EQ(r.stats.fragments_sent, 96u);   // 4 pieces per delivery
  EXPECT_EQ(r.stats.events_dispatched, 96u);
}

TEST(EventEngine, ProcessCountersAccumulateAcrossRuns) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(8));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const EventEngineCounters before = event_engine_counters();
  const auto lossy = resolve_faults_text("drop:per-mille=900,attempts=1");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, lossy, 5);
  const EventEngineCounters after = event_engine_counters();
  EXPECT_EQ(after.events_dispatched - before.events_dispatched,
            r.stats.events_dispatched);
  EXPECT_EQ(after.messages_dropped - before.messages_dropped,
            r.stats.messages_dropped);
  EXPECT_GE(after.max_queue_depth, r.stats.max_queue_depth);
}

}  // namespace
}  // namespace locald::local
