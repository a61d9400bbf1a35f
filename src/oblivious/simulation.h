// The Id-oblivious simulation A* from the paper's introduction.
//
// Given a local algorithm A, the simulation outputs no on a ball iff SOME
// one-to-one identifier assignment makes A output no. Under (¬B, ¬C) this
// decides the same property as A — the paper's proof that identifiers are
// unnecessary when both assumptions are dropped. Under (B) the simulation
// breaks (it explores assignments that the bounded-id promise rules out),
// and under (C) it may fail to terminate (the search is over an infinite
// domain): both failure modes are demonstrated in the experiments.
//
// Substitution (documented in docs/ARCHITECTURE.md): the infinite search is realized
// as exhaustive enumeration when the injection count fits the budget and
// as seeded random sampling otherwise; `id_universe` is the finite stand-in
// for N. Sampled candidates are applied in the ball's canonical order, so
// every verdict is a pure function of the ball's isomorphism class and the
// simulation memoizes through the shared `VerdictCache` like any other
// deterministic algorithm.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "exec/thread_pool.h"
#include "local/algorithm.h"

namespace locald::oblivious {

struct SimulationOptions {
  local::Id id_universe = 1 << 20;     // ids searched in [0, id_universe)
  std::size_t max_assignments = 20'000;  // enumeration/sampling budget
  std::uint64_t seed = 1;
  // Candidate assignments are searched on this pool when set (null: serial).
  // The verdict is an exists-quantifier over a candidate set fixed by
  // (seed, ball fingerprint) counter streams, so it is identical at every
  // thread count; only `assignments_tried` may vary under parallelism. The
  // pool is not part of name(): it never changes a verdict.
  exec::ThreadPool* pool = nullptr;
};

// Statistics of the most recent completed evaluation (exposed for the
// experiments). When the same simulation object is evaluated from several
// threads at once — e.g. under the parallel node loop — the snapshot is the
// last evaluation to finish. A ball answered from a `VerdictCache` never
// reaches evaluate() and leaves the snapshot unchanged.
struct SimulationStats {
  bool exhaustive = false;          // full injection enumeration used
  std::size_t assignments_tried = 0;
};

class ObliviousSimulation final : public local::LocalAlgorithm {
 public:
  ObliviousSimulation(std::shared_ptr<const local::LocalAlgorithm> inner,
                      SimulationOptions options);

  // Names the inner algorithm and every option that can change a verdict
  // (universe, budget, seed), so simulations that may disagree never share
  // a `VerdictCache` or `VerdictStore` key.
  std::string name() const override;
  int horizon() const override { return inner_->horizon(); }
  bool id_oblivious() const override { return true; }

  local::Verdict evaluate(const local::BallView& ball) const override;

  SimulationStats last_stats() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
  }

 private:
  std::shared_ptr<const local::LocalAlgorithm> inner_;
  SimulationOptions options_;
  mutable std::mutex stats_mu_;
  mutable SimulationStats stats_;
};

std::unique_ptr<ObliviousSimulation> make_oblivious_simulation(
    std::shared_ptr<const local::LocalAlgorithm> inner,
    SimulationOptions options = {});

}  // namespace locald::oblivious
