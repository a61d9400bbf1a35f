#include "gen/workload.h"

#include <memory>

#include "graph/algorithms.h"
#include "graph/isomorphism.h"
#include "local/algorithm.h"
#include "local/ball.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"
#include "obs/trace.h"
#include "support/format.h"

namespace locald::gen {

namespace {

// The fixed Id-oblivious horizon-1 panel. All three are pure functions of
// the stripped ball's isomorphism class, so they are memoization-safe and
// their verdict counts are scheduling-deterministic.
const std::vector<std::unique_ptr<local::LocalAlgorithm>>& panel() {
  static const auto algorithms = [] {
    std::vector<std::unique_ptr<local::LocalAlgorithm>> p;
    p.push_back(local::make_oblivious(
        "even-degree", 1, [](const local::BallView& ball) {
          return ball.g.degree(ball.center) % 2 == 0 ? local::Verdict::yes
                                                     : local::Verdict::no;
        }));
    p.push_back(local::make_oblivious(
        "triangle-free", 1, [](const local::BallView& ball) {
          const auto& nbrs = ball.g.neighbors(ball.center);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
              if (ball.g.has_edge(nbrs[i], nbrs[j])) {
                return local::Verdict::no;
              }
            }
          }
          return local::Verdict::yes;
        }));
    p.push_back(local::make_oblivious(
        "max-degree-4", 1, [](const local::BallView& ball) {
          return ball.g.degree(ball.center) <= 4 ? local::Verdict::yes
                                                 : local::Verdict::no;
        }));
    return p;
  }();
  return algorithms;
}

void check_invariants(const Invariants& declared,
                      const graph::CsrGraph& g,
                      WorkloadResult& out) {
  auto fail = [&out](std::string why) {
    out.invariant_failures.push_back(std::move(why));
  };
  if (declared.node_count >= 0 && declared.node_count != out.nodes) {
    fail(cat("declared node_count ", declared.node_count, ", built ",
             out.nodes));
  }
  if (declared.edge_count >= 0 && declared.edge_count != out.edges) {
    fail(cat("declared edge_count ", declared.edge_count, ", built ",
             out.edges));
  }
  if (declared.degree_bound >= 0 && out.max_degree > declared.degree_bound) {
    fail(cat("declared degree bound ", declared.degree_bound,
             ", built max degree ", out.max_degree));
  }
  if (declared.connected && !graph::is_connected(g)) {
    fail("declared connected, built instance is not");
  }
  if (declared.bipartite && !graph::is_bipartite(g)) {
    fail("declared bipartite, built instance is not");
  }
  out.invariants_ok = out.invariant_failures.empty();
}

}  // namespace

const std::vector<std::string>& workload_panel_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& algorithm : panel()) {
      out.push_back(algorithm->name());
    }
    return out;
  }();
  return names;
}

WorkloadResult run_family_workload(const FamilyInstanceSpec& spec,
                                   const WorkloadOptions& opts,
                                   const exec::ExecContext& exec) {
  WorkloadResult out;
  out.family = spec.canonical();
  obs::Span workload_span("family-workload", spec.canonical());
  const graph::CsrGraph g = [&] {
    obs::Span span("build-graph");
    return spec.build(opts.seed);
  }();
  out.nodes = g.node_count();
  out.edges = static_cast<std::int64_t>(g.edge_count());
  out.max_degree = g.node_count() == 0 ? 0 : g.max_degree();
  {
    obs::Span span("invariant-audit");
    check_invariants(spec.invariants(), g, out);
  }

  const local::LabeledGraph instance(g);

  // Exact ball census on the two-tier canonicalization engine: byte-
  // identical extracted balls share one canonicalization, and the orbit-
  // pruned tier-2 search keeps even pathologically symmetric balls (a star
  // with k interchangeable leaves — hypercube and complete-bipartite
  // centres) near-linear instead of k!, so every cell reports exact
  // isomorphism classes — no degree-profile fallback, on any family.
  const graph::BallCensusResult census = graph::canonical_census(
      g,
      std::vector<std::string>(static_cast<std::size_t>(g.node_count())),
      /*radius=*/1, exec.pool);
  out.ball_classes = census.distinct;

  // The panel is evaluated once per distinct class (its verdicts are pure
  // functions of the class — that is what the census memoizes), then the
  // per-class verdicts are scattered over the class members in node order:
  // byte-identical to evaluating every node, at a fraction of the cost,
  // and trivially scheduling-deterministic. The census hands over the
  // class partition (class_of / class_representative) directly.
  std::vector<std::vector<local::Verdict>> class_verdicts(
      panel().size(), std::vector<local::Verdict>(
                          census.class_representative.size(),
                          local::Verdict::yes));
  {
    obs::Span span("panel-evaluate",
                   "classes=" +
                       std::to_string(census.class_representative.size()));
    exec.for_each(census.class_representative.size(), [&](std::size_t k) {
      static thread_local local::BallScratch scratch;
      const local::BallView ball = scratch.extract(
          instance, nullptr, census.class_representative[k], 1);
      obs::Span eval_span("evaluate-class");
      for (std::size_t a = 0; a < panel().size(); ++a) {
        class_verdicts[a][k] = panel()[a]->evaluate(ball);
      }
    });
  }

  for (std::size_t a = 0; a < panel().size(); ++a) {
    PanelVerdict verdict;
    verdict.algorithm = panel()[a]->name();
    bool all_yes = true;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const bool yes =
          class_verdicts[a][census.class_of[static_cast<std::size_t>(v)]] ==
          local::Verdict::yes;
      verdict.yes_nodes += yes ? 1 : 0;
      all_yes = all_yes && yes;
    }
    verdict.accepted = g.node_count() > 0 ? all_yes : true;
    out.panel.push_back(std::move(verdict));
  }
  // Serial-equivalent memoization: each algorithm decides every distinct
  // class once and hits on the rest.
  out.memo_hits = static_cast<std::int64_t>(panel().size()) *
                  (out.nodes - out.ball_classes);
  return out;
}

FaultRobustnessResult run_fault_robustness(
    const FamilyInstanceSpec& spec, const WorkloadOptions& opts,
    const local::FaultProfileInstance& profile,
    const exec::ExecContext& exec) {
  FaultRobustnessResult out;
  out.family = spec.canonical();
  out.profile = profile.canonical();
  obs::Span pass_span("fault-robustness", out.profile);
  const local::LabeledGraph instance(spec.build(opts.seed));
  out.nodes = instance.node_count();
  // Consecutive transport ids: the panel is Id-oblivious, so any
  // deterministic assignment yields the same verdicts.
  const local::IdAssignment ids =
      local::make_consecutive(instance.node_count());
  const local::FaultProfileInstance control =
      local::resolve_faults_text("none");

  out.panel.resize(panel().size());
  std::vector<local::EventStats> stats(panel().size());
  exec.for_each(panel().size(), [&](std::size_t a) {
    const local::LocalAlgorithm& alg = *panel()[a];
    obs::Span row_span("fault-panel-row", alg.name());
    FaultPanelRow row;
    row.algorithm = alg.name();
    // The clean reference: direct ball evaluation, serial and uncached so
    // the shared verdict cache sees no traffic from this pass.
    const std::vector<local::Verdict> reference =
        local::run_local_algorithm(alg, instance, ids).outputs;
    const local::EventRunResult clean =
        local::run_via_event_engine(alg, instance, ids, control, opts.seed);
    const local::EventRunResult faulty =
        local::run_via_event_engine(alg, instance, ids, profile, opts.seed);
    row.control_identical = clean.verdicts == reference;
    for (std::size_t v = 0; v < reference.size(); ++v) {
      row.reference_yes += reference[v] == local::Verdict::yes ? 1 : 0;
      row.faulty_yes += faulty.verdicts[v] == local::Verdict::yes ? 1 : 0;
      row.agree_nodes += faulty.verdicts[v] == reference[v] ? 1 : 0;
    }
    stats[a] = faulty.stats;
    out.panel[a] = std::move(row);
  });
  // The schedule is payload-independent, so every row saw the same one.
  out.stats = stats.empty() ? local::EventStats{} : stats.front();
  return out;
}

}  // namespace locald::gen
