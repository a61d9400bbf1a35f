// Tests for the Id-oblivious simulation A*: equivalence under (¬B, ¬C),
// failure under (B) (the Section-2 decider), and the unbounded-search
// obstruction under (C) (the Section-3 decider).
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "local/property.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "props/properties.h"
#include "trees/construction.h"
#include "trees/decide.h"

namespace locald::oblivious {
namespace {

using local::BallView;
using local::Id;
using local::LabeledGraph;
using local::Verdict;

TEST(Simulation, RejectsObliviousInner) {
  auto inner = std::shared_ptr<const local::LocalAlgorithm>(
      props::mis_decider().release());
  EXPECT_THROW(make_oblivious_simulation(inner), Error);
}

TEST(Simulation, ReproducesIdIndependentAlgorithmExactly) {
  // An id-reading decider whose output never depends on ids: A* equals it.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "agreement-with-ids", 1, false, [](const BallView& ball) {
        (void)ball.center_id();
        const auto x = ball.center_label().at(0);
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) != x) return Verdict::no;
        }
        return Verdict::yes;
      });
  SimulationOptions options;
  options.id_universe = 32;
  options.max_assignments = 3'000;
  const auto sim = make_oblivious_simulation(reading, options);
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g(graph::make_random_connected(
        7, 3, 200 + static_cast<std::uint64_t>(trial)));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      g.set_label(v, local::Label{static_cast<std::int64_t>(rng.below(2))});
    }
    const auto direct = local::run_local_algorithm(
        *reading, g, local::make_consecutive(g.node_count()));
    const auto simulated = local::run_oblivious(*sim, g);
    EXPECT_EQ(direct.outputs, simulated.outputs);
  }
}

TEST(Simulation, ExhaustiveOnTinyBallsSampledOnLarge) {
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "const-with-ids", 0, false, [](const BallView& ball) {
        (void)ball.center_id();
        return Verdict::yes;
      });
  SimulationOptions options;
  options.id_universe = 6;
  options.max_assignments = 100;
  const auto sim = make_oblivious_simulation(reading, options);
  LabeledGraph tiny = LabeledGraph::uniform(graph::make_path(1),
                                            local::Label{});
  local::BallScratch scratch;
  const local::BallView b0 = scratch.extract(tiny, nullptr, 0, 0);
  sim->evaluate(b0);
  EXPECT_TRUE(sim->last_stats().exhaustive);
  EXPECT_EQ(sim->last_stats().assignments_tried, 6u);

  SimulationOptions big = options;
  big.id_universe = 1000;
  big.max_assignments = 50;
  auto reading2 = std::make_shared<local::LambdaAlgorithm>(
      "const-with-ids", 1, false,
      [](const BallView& b) { (void)b.center_id(); return Verdict::yes; });
  const auto sim2 = make_oblivious_simulation(reading2, big);
  LabeledGraph cyc = LabeledGraph::uniform(graph::make_cycle(9),
                                           local::Label{});
  const local::BallView b1 = scratch.extract(cyc, nullptr, 0, 1);
  sim2->evaluate(b1);
  EXPECT_FALSE(sim2->last_stats().exhaustive);
  EXPECT_EQ(sim2->last_stats().assignments_tried, 50u);
}

// A*'s quantifier ("some assignment makes A say no") depends only on the
// ball's isomorphism class, and so must its sampled stand-in. Two 3-paths
// whose end labels {1, 2} swap host order give isomorphic centre balls with
// different ball-node numbering; with one sampled candidate and an inner
// that compares the two ends' ids, applying the candidate by node index
// would give the two balls opposite verdicts on every seed.
TEST(Simulation, SampledVerdictIsClassInvariant) {
  auto inner = std::make_shared<local::LambdaAlgorithm>(
      "compare-end-ids", 1, false, [](const BallView& ball) {
        Id one = 0;
        Id two = 0;
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          (ball.label(w).at(0) == 1 ? one : two) = ball.id_of(w);
        }
        return one > two ? Verdict::no : Verdict::yes;
      });
  LabeledGraph a = LabeledGraph::uniform(graph::make_path(3), local::Label{0});
  LabeledGraph b = a;
  a.set_label(0, local::Label{1});
  a.set_label(2, local::Label{2});
  b.set_label(0, local::Label{2});
  b.set_label(2, local::Label{1});
  local::BallScratch scratch_a;
  local::BallScratch scratch_b;
  const BallView ball_a = scratch_a.extract(a, nullptr, 1, 1);
  const BallView ball_b = scratch_b.extract(b, nullptr, 1, 1);
  ASSERT_EQ(ball_a.canonical_encoding(), ball_b.canonical_encoding());
  ASSERT_NE(ball_a.label(1).at(0), ball_b.label(1).at(0));  // renumbered
  int disagreements = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SimulationOptions options;
    options.max_assignments = 1;
    options.seed = seed;
    const auto sim = make_oblivious_simulation(inner, options);
    disagreements += sim->evaluate(ball_a) != sim->evaluate(ball_b);
    EXPECT_FALSE(sim->last_stats().exhaustive);
  }
  EXPECT_EQ(disagreements, 0);
}

// The paper's key point for Section 2: applying A* to the (B)-only decider
// for P breaks it — the simulation searches id assignments the bounded-id
// promise forbids, so A* rejects yes-instances.
TEST(Simulation, BreaksSection2DeciderUnderB) {
  trees::TreeParams p;
  p.r = 2;
  p.f = local::IdBound::linear_plus(1);
  auto decider = std::shared_ptr<const local::LocalAlgorithm>(
      trees::make_P_decider(p).release());
  SimulationOptions options;
  options.id_universe = 4 * static_cast<local::Id>(p.capital_R());
  options.max_assignments = 500;
  const auto sim = make_oblivious_simulation(decider, options);
  const LabeledGraph yes =
      trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0));
  // The genuine decider accepts under bounded ids...
  Rng rng(3);
  const auto ids = local::make_random_bounded(yes.node_count(), p.f, rng);
  EXPECT_TRUE(
      local::run_local_algorithm(*trees::make_P_decider(p), yes, ids).accepted);
  // ...but its Id-oblivious simulation rejects the same yes-instance: some
  // explored assignment exceeds R(r).
  EXPECT_FALSE(local::run_oblivious(*sim, yes).accepted);
}

// Under (C): simulating an algorithm whose id-dependence is unbounded (the
// Section-3 decider simulates M for Id(v) steps) requires an unbounded
// search; with any finite universe the simulation's verdict flips as the
// universe grows past M's runtime — there is no computable "big enough".
TEST(Simulation, UniverseSizeChangesVerdictForRuntimeBoundedInner) {
  // Inner: reject iff own id >= 50 (a stand-in for "simulation reaches the
  // halting step at id >= runtime").
  auto inner = std::make_shared<local::LambdaAlgorithm>(
      "reject-at-big-id", 0, false, [](const BallView& ball) {
        return ball.center_id() >= 50 ? Verdict::no : Verdict::yes;
      });
  LabeledGraph g = LabeledGraph::uniform(graph::make_path(1),
                                         local::Label{});
  SimulationOptions small;
  small.id_universe = 50;  // never reaches the rejecting region
  small.max_assignments = 200;
  EXPECT_TRUE(local::run_oblivious(*make_oblivious_simulation(inner, small), g)
                  .accepted);
  SimulationOptions large;
  large.id_universe = 51;
  large.max_assignments = 200;
  EXPECT_FALSE(
      local::run_oblivious(*make_oblivious_simulation(inner, large), g)
          .accepted);
}

}  // namespace
}  // namespace locald::oblivious
