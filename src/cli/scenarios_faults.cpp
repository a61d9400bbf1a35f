// The fault-robustness scenario: direct ball evaluation vs the event-driven
// engine under a selectable fault profile, per family cell.
//
// The paper's model assumes clean synchronous rounds; the follow-up papers
// probe verdict sensitivity to model perturbations. This scenario makes the
// network itself the perturbed axis: the Id-oblivious panel runs over a
// generated family instance by direct ball evaluation (the paper's
// definition of a local algorithm, printed as the "sync yes" column) and
// through the event-driven engine (local/event_engine.h) under a `--faults`
// profile, and the table reports per-algorithm verdict agreement plus the
// simulated schedule's deterministic statistics. A `none`-profile control
// run must reproduce direct ball evaluation verbatim — that equivalence is
// the scenario's pass criterion (divergence under real faults is the data,
// not a failure).
#include "cli/scenarios.h"
#include "gen/workload.h"
#include "local/fault_profile.h"
#include "support/rng.h"

namespace locald::cli {
namespace {

constexpr const char* kDefaultFamily = "cycle";
constexpr const char* kDefaultFaults = "chaos";

// --size is the family's target node count; --trials audits that many
// instances (per-instance seeds derived by counter stream, so the grid of
// trials is scheduling-independent).
bool run_fault_robustness(const ScenarioOptions& opts, std::ostream& out) {
  const gen::FamilyInstanceSpec spec = gen::resolve_family_text(
      opts.family.empty() ? kDefaultFamily : opts.family, opts.size);
  const local::FaultProfileInstance profile = local::resolve_faults_text(
      opts.faults.empty() ? kDefaultFaults : opts.faults);
  const int trials = opts.trials == 0 ? 1 : opts.trials;
  bool ok = true;

  TextTable table({"instance", "algorithm", "sync yes", "faulty yes",
                   "agree", "control"});
  TextTable schedule({"instance", "seed", "events", "delivered", "dropped",
                      "delayed", "fragments", "retransmits", "max queue"});
  for (int t = 0; t < trials; ++t) {
    gen::WorkloadOptions wopts;
    // The same per-trial stream plane the family-workload scenario uses:
    // trials stay independent without correlating adjacent user seeds.
    wopts.seed = t == 0 ? opts.seed
                        : Rng::stream(opts.seed, 0xFA71171E5ULL,
                                      static_cast<std::uint64_t>(t))
                              .next_u64();
    const gen::FaultRobustnessResult r =
        gen::run_fault_robustness(spec, wopts, profile, opts.exec);
    ok = ok && r.ok();
    for (const gen::FaultPanelRow& row : r.panel) {
      table.add_row({cat("#", t), row.algorithm, cat(row.reference_yes),
                     cat(row.faulty_yes),
                     cat(row.agree_nodes, "/", r.nodes),
                     row.control_identical ? "identical" : "DIVERGED"});
    }
    schedule.add_row({cat("#", t), cat(wopts.seed),
                      cat(r.stats.events_dispatched),
                      cat(r.stats.messages_delivered),
                      cat(r.stats.messages_dropped),
                      cat(r.stats.messages_delayed),
                      cat(r.stats.fragments_sent),
                      cat(r.stats.retransmissions),
                      cat(r.stats.max_queue_depth)});
  }
  emit_table(out, opts,
             cat("fault robustness: ", spec.canonical(), " under ",
                 profile.canonical()),
             table);
  emit_table(out, opts, "event-engine schedule (seeded, deterministic)",
             schedule);
  // "The synchronous engine" is the clean reference, direct ball
  // evaluation; the note's bytes are part of every fault-robustness
  // document, so the wording stays.
  emit_note(out, opts,
            "the `none` control run must reproduce the synchronous engine "
            "verbatim; the faulty columns and the schedule table are pure "
            "functions of (family, profile, seed) at any --threads value.");
  return ok;
}

}  // namespace

std::vector<Scenario> fault_scenarios() {
  Scenario s;
  s.name = "fault-robustness";
  s.paper_ref = "robustness follow-ups";
  s.summary =
      "sync vs event-driven verdicts per family cell under a fault profile";
  s.size_help =
      "target node count for the family's size mapping (0 = family defaults)";
  s.family_help =
      "any registered family (default cycle; see `locald list --families`)";
  s.fault_help =
      "any registered profile (default chaos; see `locald list --faults`)";
  s.run = run_fault_robustness;
  s.default_family = kDefaultFamily;
  return {std::move(s)};
}

}  // namespace locald::cli
