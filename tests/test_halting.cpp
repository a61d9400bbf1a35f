// Tests for the Section-3 construction: pyramids, G(M, r) assembly, the
// structure verifier (completeness + mutation soundness), the LD decider,
// the neighbourhood generator's totality, the separation experiment, the
// Corollary-1 randomized decider, and the promise problem.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/pyramid.h"
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/promise_halting.h"
#include "halting/verifier.h"
#include "local/property.h"
#include "local/simulator.h"
#include "tm/run.h"
#include "tm/zoo.h"

namespace locald::halting {
namespace {

using graph::PyramidIndexer;
using graph::attach_pyramid;
using graph::build_pyramid;
using graph::is_pyramid;
using local::LabeledGraph;
using local::Verdict;

tm::FragmentPolicy small_policy(std::size_t cap = 400) {
  tm::FragmentPolicy policy;
  policy.max_fragments = cap;
  policy.seed = 7;
  return policy;
}

GmrParams make_params(tm::TuringMachine m, std::size_t cap = 400) {
  GmrParams p{std::move(m), 1, 3, small_policy(cap), false, 4096};
  return p;
}

TEST(Pyramid, IndexerCountsAndPositions) {
  const PyramidIndexer idx(2);  // 4x4 + 2x2 + 1
  EXPECT_EQ(idx.node_count(), 16 + 4 + 1);
  EXPECT_EQ(idx.side(0), 4);
  EXPECT_EQ(idx.side(2), 1);
  const auto pos = idx.position(idx.id(3, 1, 0));
  EXPECT_EQ(pos.x, 3);
  EXPECT_EQ(pos.y, 1);
  EXPECT_EQ(pos.z, 0);
  EXPECT_EQ(idx.apex(), idx.id(0, 0, 2));
}

TEST(Pyramid, BuildStructure) {
  const PyramidIndexer idx(2);
  const graph::CsrGraph g = build_pyramid(idx);
  EXPECT_EQ(g.node_count(), 21);
  // Apex: adjacent to the 2x2 level (4 children), no grid neighbours.
  EXPECT_EQ(g.degree(idx.apex()), 4);
  // Base corner (0,0,0): grid degree 2 + one parent.
  EXPECT_EQ(g.degree(idx.id(0, 0, 0)), 3);
  EXPECT_TRUE(is_pyramid(g, 2));
  EXPECT_FALSE(is_pyramid(g, 3));
  // A mutation breaks it.
  graph::GraphBuilder hb(g.node_count());
  for (const auto& [u, v] : g.edges()) {
    hb.add_edge(u, v);
  }
  hb.add_edge(idx.id(0, 0, 0), idx.id(3, 3, 0));
  EXPECT_FALSE(is_pyramid(hb.build(), 2));
}

TEST(Pyramid, AttachOverExistingGrid) {
  graph::GraphBuilder g(16);  // 4x4 grid nodes 0..15
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      if (x + 1 < 4) g.add_edge(y * 4 + x, y * 4 + x + 1);
      if (y + 1 < 4) g.add_edge(y * 4 + x, (y + 1) * 4 + x);
    }
  }
  const PyramidIndexer idx(2);
  const graph::NodeId first = attach_pyramid(
      g, idx, [](int x, int y) { return static_cast<graph::NodeId>(y * 4 + x); });
  EXPECT_EQ(first, 16);
  EXPECT_EQ(g.node_count(), 21);
  EXPECT_TRUE(is_pyramid(g.build(), 2));
}

TEST(Gmr, LabelRoundTrip) {
  const tm::TuringMachine m = tm::halt_after(2, 0);
  const local::Label l = cell_label(m, 1, 7, 5, 3);
  const auto d = decode_label(l);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->r, 1);
  EXPECT_EQ(d->role, kRoleTableCell);
  EXPECT_EQ(d->xm3, 1);
  EXPECT_EQ(d->ym3, 2);
  EXPECT_EQ(d->code, 3);
  EXPECT_EQ(tm::TuringMachine::decode(d->machine_encoding), m);
  EXPECT_FALSE(decode_label(local::Label{1, 2, 3}).has_value());
}

TEST(Gmr, DecodeBorrowsTheLabelAndRejectsGarbage) {
  const tm::TuringMachine m = tm::halt_after(2, 0);
  const local::Label l = cell_label(m, 1, 7, 5, 3, kRoleFragmentCell);
  const auto d = decode_label(l);
  ASSERT_TRUE(d.has_value());
  // The encoding is a view of the label's own fields, not a copy.
  EXPECT_EQ(d->machine_encoding.data(), l.fields().data() + 6);
  EXPECT_EQ(d->machine_encoding.size(), m.encode().size());

  std::vector<local::Label> garbage{
      local::Label{},
      local::Label{kGmrTag, 1, kRoleTableCell, 0, 0, 0, 2},  // 7 fields
      local::Label{kGmrTag + 1, 1, kRoleTableCell, 0, 0, 0, 2, 2},
  };
  // Each header field out of range in an otherwise valid label.
  for (const auto& [field, value] :
       std::vector<std::pair<std::size_t, std::int64_t>>{
           {1, -1}, {2, 3}, {3, 3}, {3, -1}, {4, 3}, {4, -1}}) {
    std::vector<std::int64_t> fields = l.fields();
    fields[field] = value;
    garbage.emplace_back(std::move(fields));
  }
  for (const local::Label& g : garbage) {
    EXPECT_FALSE(decode_label(g).has_value()) << g.to_string();
  }
}

TEST(Gmr, BuildShape) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  // Table padded to 4x4 (3 rows needed).
  EXPECT_EQ(inst.table_side, 4);
  EXPECT_EQ(inst.halting_step, 2);
  EXPECT_GT(inst.fragment_count, 0u);
  EXPECT_EQ(inst.graph.node_count(),
            static_cast<graph::NodeId>(16 + 9 * inst.fragment_count));
  // The pivot is the start cell and carries all glue edges.
  const auto d = decode_label(inst.graph.label(inst.pivot));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->code, params.machine.head_cell(0, 0));
  EXPECT_GT(inst.graph.graph().degree(inst.pivot),
            static_cast<graph::NodeId>(inst.fragment_count));
}

TEST(Gmr, PyramidalBuildShape) {
  GmrParams params = make_params(tm::halt_after(2, 0), 60);
  params.pyramidal = true;
  params.fragment_size = 4;
  const GmrInstance inst = build_gmr(params);
  // Table pyramid: 4x4 -> +4+1; fragment pyramids: 4x4 -> +4+1 each.
  EXPECT_EQ(inst.graph.node_count(),
            static_cast<graph::NodeId>(16 + 5 +
                                       21 * inst.fragment_count));
}

TEST(Verifier, AcceptsGenuineInstances) {
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (!e.halts) {
      continue;
    }
    const GmrParams params = make_params(e.machine);
    const GmrInstance inst = build_gmr(params);
    const auto verifier =
        make_gmr_verifier(3, params.policy, false, params.step_budget);
    const auto run = local::run_oblivious(*verifier, inst.graph);
    EXPECT_TRUE(run.accepted)
        << e.machine.name() << " rejected at node "
        << (run.first_rejecting ? *run.first_rejecting : -1);
  }
}

TEST(Verifier, RejectsCorruptedCellCode) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  // Flip an interior table cell (cell (1,1): id = 1*4+1 = 5).
  LabeledGraph bad = inst.graph;
  auto d = decode_label(bad.label(5));
  ASSERT_TRUE(d.has_value());
  const int new_code =
      (d->code + 1) % params.machine.cell_code_count();
  bad.set_label(5, cell_label(params.machine, params.r, 1, 1, new_code));
  EXPECT_FALSE(local::run_oblivious(*verifier, bad).accepted);
}

TEST(Verifier, RejectsForeignMachineLabel) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  LabeledGraph bad = inst.graph;
  bad.set_label(7, cell_label(tm::halt_after(2, 1), params.r, 3, 1,
                              decode_label(bad.label(7))->code));
  EXPECT_FALSE(local::run_oblivious(*verifier, bad).accepted);
}

TEST(Verifier, StepOneRejectsAForeignLabelInsideHubBalls) {
  // The pivot is glued to every non-natural fragment border cell, so the
  // radius-2 ball of each glued cell holds every other glued cell. Mutate
  // one glued cell's (M, r): every other glued cell's ball must then fail
  // step 1 ("everyone shares (M, r)") on a label away from its centre.
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  ASSERT_TRUE(local::run_oblivious(*verifier, inst.graph).accepted);

  std::vector<graph::NodeId> glued;
  for (graph::NodeId w : inst.graph.graph().neighbors(inst.pivot)) {
    if (decode_label(inst.graph.label(w))->role == kRoleFragmentCell) {
      glued.push_back(w);
    }
  }
  ASSERT_GE(glued.size(), 3u);
  const graph::NodeId target = glued.back();
  const std::vector<std::int64_t>& fields = inst.graph.label(target).fields();

  std::vector<std::int64_t> other_r = fields;
  other_r[1] += 1;
  std::vector<std::int64_t> other_last = fields;
  other_last.back() += 1;
  std::vector<std::int64_t> longer = fields;
  longer.push_back(0);
  for (const auto& mutated : {other_r, other_last, longer}) {
    LabeledGraph bad = inst.graph;
    bad.set_label(target, local::Label(mutated));
    const auto run = local::run_oblivious(*verifier, bad);
    EXPECT_FALSE(run.accepted) << local::Label(mutated).to_string();
    for (graph::NodeId w : glued) {
      if (w != target) {
        EXPECT_EQ(run.outputs[static_cast<std::size_t>(w)], Verdict::no)
            << "glued cell " << w << " accepted "
            << local::Label(mutated).to_string();
      }
    }
  }
}

TEST(Verifier, RejectsMissingFragment) {
  // Build with one policy, verify expecting a larger collection: the pivot's
  // Lemma-2 set comparison must fail.
  const GmrParams small = make_params(tm::halt_after(1, 0), 50);
  const GmrInstance inst = build_gmr(small);
  ASSERT_FALSE(inst.fragments_exhaustive);
  const auto verifier = make_gmr_verifier(3, small_policy(120), false, 4096);
  EXPECT_FALSE(local::run_oblivious(*verifier, inst.graph).accepted);
}

TEST(Verifier, RejectsPlainGarbage) {
  const auto verifier = make_gmr_verifier(3, small_policy(), false, 4096);
  const LabeledGraph junk = LabeledGraph::uniform(
      graph::make_cycle(6), local::Label{kGmrTag, 1, kRoleTableCell, 0, 0, 0});
  EXPECT_FALSE(local::run_oblivious(*verifier, junk).accepted);
}

TEST(Decider, SeparatesOutput0FromOutput1) {
  const GmrParams yes_params = make_params(tm::halt_after(2, 0));
  const GmrParams no_params = make_params(tm::halt_after(2, 1));
  const auto decider =
      make_gmr_decider(3, yes_params.policy, false, yes_params.step_budget);
  const auto property = property_gmr_outputs0(3, yes_params.policy, false,
                                              yes_params.step_budget);
  std::vector<LabeledGraph> instances;
  instances.push_back(build_gmr(yes_params).graph);
  instances.push_back(build_gmr(no_params).graph);
  ASSERT_TRUE(property->contains(instances[0]));
  ASSERT_FALSE(property->contains(instances[1]));
  Rng rng(3);
  const auto report = local::evaluate_decider(
      *decider, *property, instances, local::consecutive_policy(), 1, rng);
  EXPECT_TRUE(report.all_correct())
      << (report.failures.empty() ? "" : report.failures[0].detail);
}

TEST(Generator, ExactForHaltingMachines) {
  const GmrParams params = make_params(tm::halt_after(1, 0), 100);
  const GeneratedBalls gen = neighborhood_generator(params, 2);
  EXPECT_TRUE(gen.exact);
  EXPECT_EQ(gen.centers.size(),
            static_cast<std::size_t>(gen.host.node_count()));
}

TEST(Generator, TotalForDivergingMachines) {
  for (const tm::TuringMachine& m :
       {tm::bouncer(), tm::right_drifter(), tm::crawler()}) {
    const GmrParams params = make_params(m, 100);
    const GeneratedBalls gen = neighborhood_generator(params, 2);
    EXPECT_FALSE(gen.exact) << m.name();
    EXPECT_GT(gen.centers.size(), 0u) << m.name();
    EXPECT_LT(gen.centers.size(),
              static_cast<std::size_t>(gen.host.node_count()))
        << m.name() << ": bottom rows must be excluded";
  }
}

TEST(Separation, EveryComputableCandidateIsFooled) {
  const tm::FragmentPolicy policy = small_policy(150);
  std::vector<std::pair<std::string,
                        std::unique_ptr<local::LocalAlgorithm>>> candidates;
  candidates.emplace_back("always-yes", candidate_always_yes());
  candidates.emplace_back("structure-only",
                          candidate_structure_only(3, policy, false, 4096));
  candidates.emplace_back(
      "simulate-2", candidate_bounded_simulation(3, policy, false, 4096, 2));
  std::vector<tm::TuringMachine> machines;
  machines.push_back(tm::halt_after(1, 0));
  machines.push_back(tm::halt_after(1, 1));
  machines.push_back(tm::halt_after(4, 1));  // outlasts simulate-2
  const auto rows = run_separation_experiment(candidates, machines, 1, 3,
                                              policy, false, 4096);
  ASSERT_EQ(rows.size(), 9u);
  std::map<std::string, int> misclassifications;
  for (const auto& row : rows) {
    misclassifications[row.candidate] += row.misclassified;
  }
  // Lemma 1 in action: every candidate errs somewhere.
  for (const auto& [name, count] : misclassifications) {
    EXPECT_GT(count, 0) << name;
  }
  // And the specific predictions: structure-only accepts the L1 machines;
  // simulate-2 catches halt_after(1,1) but is fooled by halt_after(4,1).
  for (const auto& row : rows) {
    if (row.candidate == "simulate-2" && row.machine == "halt_after(1,1)") {
      EXPECT_FALSE(row.r_accepts);
      EXPECT_FALSE(row.misclassified);
    }
    if (row.candidate == "simulate-2" && row.machine == "halt_after(4,1)") {
      EXPECT_TRUE(row.r_accepts);
      EXPECT_TRUE(row.misclassified);
    }
  }
}

TEST(Randomized, PerfectCompletenessAndWhpSoundness) {
  const tm::FragmentPolicy policy = small_policy(80);
  const auto decider = make_randomized_gmr_decider(3, policy, false, 4096);
  GmrParams yes_params{tm::halt_after(2, 0), 1, 3, policy, false, 4096};
  GmrParams no_params{tm::zigzag_halt(2, 1), 1, 3, policy, false, 4096};
  const LabeledGraph yes = build_gmr(yes_params).graph;
  const LabeledGraph no = build_gmr(no_params).graph;
  const auto p_yes =
      local::estimate_acceptance(*decider, yes, nullptr, 10, {{}, 17});
  EXPECT_EQ(p_yes.accepted, p_yes.trials);  // one-sided: p = 1
  const auto p_no =
      local::estimate_acceptance(*decider, no, nullptr, 10, {{}, 18});
  EXPECT_EQ(p_no.accepted, 0);  // rejection probability ~ 1 at this n
}

TEST(Randomized, AnalyticBoundDecays) {
  EXPECT_GT(corollary1_failure_bound(16), corollary1_failure_bound(256));
  EXPECT_GT(corollary1_failure_bound(256), corollary1_failure_bound(4096));
  EXPECT_LT(corollary1_failure_bound(4096), 0.01);
}

TEST(PromiseHalting, DeciderAndCandidates) {
  const auto property = promise_halting_property(100'000);
  const auto decider = make_promise_halting_decider();
  // Yes: a diverging machine on any cycle; no: halting within the promise.
  const LabeledGraph yes =
      build_promise_halting_instance(tm::bouncer(), 12);
  const tm::TuringMachine m_halts = tm::halt_after(8, 0);
  const LabeledGraph no = build_promise_halting_instance(m_halts, 12);
  EXPECT_TRUE(property->contains(yes));
  EXPECT_FALSE(property->contains(no));
  Rng rng(5);
  const auto report = local::evaluate_decider(
      *decider, *property, {yes, no}, local::consecutive_policy(), 2, rng);
  EXPECT_TRUE(report.all_correct());
  // A bounded oblivious candidate is fooled by a machine outlasting it.
  const auto candidate = promise_halting_candidate(4);
  EXPECT_TRUE(local::run_oblivious(*candidate, no).accepted)
      << "halt_after(8) fools a budget-4 candidate";
  const LabeledGraph no_fast =
      build_promise_halting_instance(tm::halt_after(3, 0), 12);
  EXPECT_FALSE(local::run_oblivious(*candidate, no_fast).accepted);
}

class ZooVerifierSweep : public ::testing::TestWithParam<int> {};

// Verifier/builder agreement across zoo machines and both fragment caps.
TEST_P(ZooVerifierSweep, BuilderOutputVerifies) {
  const auto zoo = tm::small_zoo();
  const tm::ZooEntry& e =
      zoo[static_cast<std::size_t>(GetParam()) % zoo.size()];
  if (!e.halts) {
    GTEST_SKIP() << "G(M, r) is defined for halting machines";
  }
  const std::size_t cap = (GetParam() % 2 == 0) ? 120 : 700;
  const GmrParams params = make_params(e.machine, cap);
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  EXPECT_TRUE(local::run_oblivious(*verifier, inst.graph).accepted)
      << e.machine.name() << " cap=" << cap;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooVerifierSweep, ::testing::Range(0, 9));

}  // namespace
}  // namespace locald::halting
