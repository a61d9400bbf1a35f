// Synchronous-round semantics of LOCAL (paper §1.2): a horizon-t algorithm
// is the same as t (± 1) synchronous rounds of full-information flooding.
// Covers the knowledge codec and ball reconstruction the flooding relies on
// (local/event_engine.h), and checks that the event engine run under the
// `none` control profile — and under any profile that perturbs timing
// without losing information (delay, fragmentation) — reproduces direct
// ball evaluation (run_local_algorithm, the paper's definition) verbatim, on
// every topology, id assignment and horizon tried.
//
// Fault behaviour and schedule statistics are in test_event_engine.cpp.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/fault_profile.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"
#include "props/properties.h"

namespace locald::local {
namespace {

using graph::make_cycle;
using graph::make_grid;
using graph::make_path;

TEST(Knowledge, EncodeDecodeRoundTrip) {
  Knowledge k;
  k.emplace(7, KnownNode{7, Label{1, -2}, {3, 9}});
  k.emplace(3, KnownNode{3, Label{}, {}});
  k.emplace(9, KnownNode{9, Label{5}, {7}});
  const std::string payload = encode_knowledge(7, k);
  const auto [self, decoded] = decode_knowledge(payload);
  EXPECT_EQ(self, 7u);
  EXPECT_EQ(decoded, k);
}

TEST(Knowledge, MalformedPayloadRejected) {
  EXPECT_THROW(decode_knowledge(""), Error);
  EXPECT_THROW(decode_knowledge("5\nnot-a-line\n"), Error);
}

TEST(Knowledge, BallReconstructionMatchesExtraction) {
  // Build knowledge by hand for a 5-cycle with ids = node index, then check
  // the reconstructed radius-1 ball around node 0.
  const graph::CsrGraph c5 = make_cycle(5);
  Knowledge k;
  for (graph::NodeId v = 0; v < 5; ++v) {
    KnownNode node;
    node.id = static_cast<Id>(v);
    node.label = Label{v};
    for (graph::NodeId w : c5.neighbors(v)) {
      node.adj.push_back(static_cast<Id>(w));
    }
    k.emplace(node.id, node);
  }
  const Ball owned = ball_from_knowledge(0, k, 1);
  const BallView ball = owned.view();
  EXPECT_EQ(ball.node_count(), 3);
  EXPECT_EQ(ball.center_label(), Label{0});
  ASSERT_TRUE(ball.has_ids());

  LabeledGraph lg(c5, {Label{0}, Label{1}, Label{2}, Label{3}, Label{4}});
  const IdAssignment ids = make_consecutive(5);
  BallScratch scratch;
  const BallView direct = scratch.extract(lg, &ids, 0, 1);
  EXPECT_EQ(ball.canonical_encoding(), direct.canonical_encoding());
}

TEST(Knowledge, ReconstructionIgnoresNodesBeyondRadius) {
  const graph::CsrGraph p5 = make_path(5);
  Knowledge k;
  for (graph::NodeId v = 0; v < 5; ++v) {
    KnownNode node;
    node.id = static_cast<Id>(v);
    node.label = Label{};
    for (graph::NodeId w : p5.neighbors(v)) {
      node.adj.push_back(static_cast<Id>(w));
    }
    k.emplace(node.id, node);
  }
  EXPECT_EQ(ball_from_knowledge(2, k, 1).g.node_count(), 3);
  EXPECT_EQ(ball_from_knowledge(2, k, 2).g.node_count(), 5);
}

// The headline equivalence: running any local algorithm through t+1 rounds
// of full-information flooding on the event engine produces exactly the
// per-node outputs of direct ball evaluation.
void expect_equivalence(const LocalAlgorithm& alg, const LabeledGraph& g,
                        const IdAssignment& ids,
                        const char* selector = "none",
                        std::uint64_t seed = 42) {
  const RunResult direct = run_local_algorithm(alg, g, ids);
  const EventRunResult event =
      run_via_event_engine(alg, g, ids, resolve_faults_text(selector), seed);
  EXPECT_EQ(direct.outputs, event.verdicts) << alg.name() << " under "
                                            << selector;
  EXPECT_EQ(event.stats.messages_dropped, 0u) << selector;
}

// The profiles that perturb timing but never lose information.
constexpr const char* kLosslessProfiles[] = {"none", "delay:max=7",
                                             "fragment:pieces=5"};

TEST(Equivalence, ColoringDeciderOnCycle) {
  LabeledGraph g(make_cycle(6), {Label{0}, Label{1}, Label{0}, Label{1},
                                 Label{0}, Label{1}});
  Rng rng(4);
  const IdAssignment ids = make_random_unbounded(6, 1000, rng);
  expect_equivalence(*props::proper_coloring_decider(2), g, ids);
}

TEST(Equivalence, IdAwareAlgorithmOnGrid) {
  LabeledGraph g = LabeledGraph::uniform(make_grid(4, 3), Label{1});
  Rng rng(5);
  const IdAssignment ids = make_random_unbounded(12, 500, rng);
  // Id-aware horizon-2 algorithm: reject iff some ball node has id > 400.
  const auto alg = make_id_aware("big-id", 2, [](const BallView& b) {
    for (graph::NodeId v = 0; v < b.node_count(); ++v) {
      if (b.id_of(v) > 400) return Verdict::no;
    }
    return Verdict::yes;
  });
  for (const char* selector : kLosslessProfiles) {
    expect_equivalence(*alg, g, ids, selector);
  }
}

TEST(Equivalence, HorizonZero) {
  LabeledGraph g = LabeledGraph::uniform(make_path(4), Label{2});
  const IdAssignment ids = make_consecutive(4);
  const auto alg = make_oblivious("label-check", 0, [](const BallView& b) {
    return b.center_label().at(0) == 2 ? Verdict::yes : Verdict::no;
  });
  expect_equivalence(*alg, g, ids);
}

struct EquivParam {
  int n;
  int extra;
  int horizon;
  std::uint64_t seed;
};

// Graph shape x lossless fault profile.
class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<EquivParam, const char*>> {};

TEST_P(EquivalenceSweep, RandomGraphsRandomHorizons) {
  const auto [p, selector] = GetParam();
  Rng rng(p.seed);
  const graph::CsrGraph raw = graph::make_random_connected(
      static_cast<graph::NodeId>(p.n), static_cast<graph::NodeId>(p.extra),
      p.seed);
  LabeledGraph g(raw);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{static_cast<std::int64_t>(rng.below(3))});
  }
  const IdAssignment ids =
      make_random_unbounded(g.node_count(), 10'000, rng);
  // A structurally sensitive oblivious algorithm: parity of the ball's edge
  // count, biased by the centre label.
  const auto alg = make_oblivious(
      "ball-parity", p.horizon, [](const BallView& b) {
        const auto parity =
            (b.g.edge_count() + static_cast<std::size_t>(
                                    b.center_label().at(0))) % 2;
        return parity == 0 ? Verdict::yes : Verdict::no;
      });
  expect_equivalence(*alg, g, ids, selector, p.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Random, EquivalenceSweep,
    ::testing::Combine(
        ::testing::Values(EquivParam{8, 4, 1, 11}, EquivParam{12, 6, 2, 12},
                          EquivParam{16, 10, 1, 13}, EquivParam{16, 3, 3, 14},
                          EquivParam{24, 12, 2, 15}, EquivParam{30, 20, 1, 16},
                          EquivParam{10, 35, 2, 17}),
        ::testing::ValuesIn(kLosslessProfiles)));

}  // namespace
}  // namespace locald::local
