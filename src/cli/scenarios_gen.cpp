// The workload-generator scenario: one composable (algorithm x property x
// family) cell. Where the paper scenarios hard-code their topology, this
// one takes any registered graph family via --family, audits the family's
// declared invariants on the built instance, and runs the fixed
// Id-oblivious panel over it on the execution engine — the family-level
// view the follow-up papers (identifier impact, anonymous MDS) probe.
#include "cli/scenarios.h"
#include "gen/workload.h"
#include "support/rng.h"

namespace locald::cli {
namespace {

constexpr const char* kDefaultFamily = "cycle";

// --size is the family's target node count; --trials audits that many
// instances (seeds derived per instance), which only matters for the
// randomized families.
bool run_family_workload(const ScenarioOptions& opts, std::ostream& out) {
  const gen::FamilyInstanceSpec spec = gen::resolve_family_text(
      opts.family.empty() ? kDefaultFamily : opts.family, opts.size);
  const int trials = opts.trials == 0 ? 1 : opts.trials;
  bool ok = true;

  TextTable cells({"instance", "seed", "nodes", "edges", "max deg",
                   "ball classes", "memo hits", "invariants"});
  std::vector<gen::WorkloadResult> results;
  for (int t = 0; t < trials; ++t) {
    gen::WorkloadOptions wopts;
    // Stream-derived per-instance seeds keep trials independent without
    // correlating adjacent user seeds.
    wopts.seed = t == 0 ? opts.seed
                        : Rng::stream(opts.seed, 0xFA71171E5ULL,
                                      static_cast<std::uint64_t>(t))
                              .next_u64();
    results.push_back(gen::run_family_workload(spec, wopts, opts.exec));
    const gen::WorkloadResult& r = results.back();
    ok = ok && r.ok();
    cells.add_row({r.family, cat(wopts.seed), cat(r.nodes), cat(r.edges),
                   cat(r.max_degree), cat(r.ball_classes), cat(r.memo_hits),
                   r.invariants_ok ? "ok" : "VIOLATED"});
    for (const std::string& why : r.invariant_failures) {
      emit_note(out, opts, cat("invariant violation [", r.family, "]: ", why));
    }
  }
  emit_table(out, opts, cat("family workload: ", spec.canonical()), cells);

  TextTable panel({"instance", "algorithm", "yes nodes", "global verdict"});
  for (std::size_t t = 0; t < results.size(); ++t) {
    for (const gen::PanelVerdict& v : results[t].panel) {
      panel.add_row({cat("#", t), v.algorithm, cat(v.yes_nodes),
                     v.accepted ? "accept" : "reject"});
    }
  }
  emit_table(out, opts, "Id-oblivious panel (horizon 1)", panel);
  emit_note(out, opts,
            "every declared family invariant must hold on every built "
            "instance; panel verdict counts are bit-identical at any "
            "--threads value.");
  return ok;
}

}  // namespace

std::vector<Scenario> gen_scenarios() {
  Scenario s;
  s.name = "family-workload";
  s.paper_ref = "gen/ registry";
  s.summary =
      "invariant audit + Id-oblivious panel over a generated graph family";
  s.size_help =
      "target node count for the family's size mapping (0 = family defaults)";
  s.family_help =
      "any registered family (default cycle; see `locald list --families`)";
  s.run = run_family_workload;
  s.default_family = kDefaultFamily;
  return {std::move(s)};
}

}  // namespace locald::cli
