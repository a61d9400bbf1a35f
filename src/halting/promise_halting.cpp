#include "halting/promise_halting.h"

#include <algorithm>

#include "graph/generators.h"
#include "support/format.h"
#include "tm/run.h"

namespace locald::halting {

namespace {

using local::BallView;
using local::Verdict;

std::optional<tm::TuringMachine> decode_cycle_label(const local::Label& l) {
  if (l.size() < 3 || l.at(0) != kPromiseHaltTag) {
    return std::nullopt;
  }
  try {
    return tm::TuringMachine::decode(std::span(l.fields()).subspan(1));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace

local::LabeledGraph build_promise_halting_instance(
    const tm::TuringMachine& machine, graph::NodeId cycle_length) {
  std::vector<std::int64_t> fields{kPromiseHaltTag};
  const auto enc = machine.encode();
  fields.insert(fields.end(), enc.begin(), enc.end());
  return local::LabeledGraph::uniform(graph::make_cycle(cycle_length),
                                      local::Label(std::move(fields)));
}

std::unique_ptr<local::Property> promise_halting_property(
    long long oracle_budget) {
  return std::make_unique<local::LambdaProperty>(
      cat("promise-halting(budget=", oracle_budget, ")"),
      [oracle_budget](const local::LabeledGraph& g) {
        if (g.node_count() == 0) {
          return false;
        }
        const auto m = decode_cycle_label(g.label(0));
        if (!m.has_value()) {
          return false;
        }
        return !tm::run_machine(*m, oracle_budget).halted;
      });
}

std::unique_ptr<local::LocalAlgorithm> make_promise_halting_decider(
    long long sim_cap) {
  return local::make_id_aware(
      "decide-promise-halting", 0, [sim_cap](const BallView& ball) {
        const auto m = decode_cycle_label(ball.center_label());
        if (!m.has_value()) {
          return Verdict::no;
        }
        const long long budget = static_cast<long long>(std::min<local::Id>(
            ball.center_id() + 1, static_cast<local::Id>(sim_cap)));
        return tm::run_machine(*m, budget).halted ? Verdict::no
                                                  : Verdict::yes;
      });
}

std::unique_ptr<local::LocalAlgorithm> promise_halting_candidate(
    long long sim_budget) {
  return local::make_oblivious(
      cat("promise-candidate-", sim_budget), 0,
      [sim_budget](const BallView& ball) {
        const auto m = decode_cycle_label(ball.center_label());
        if (!m.has_value()) {
          return Verdict::no;
        }
        return tm::run_machine(*m, sim_budget).halted ? Verdict::no
                                                      : Verdict::yes;
      });
}

}  // namespace locald::halting
