// Scheduling-determinism of the execution engine: the counter-based RNG
// streams, the parallel simulator entry points (bit-identical results at
// any thread count), the ball-fingerprint memoization (memoized and
// unmemoized runs agree — including on the re-enabled fig2-gmr verifier
// path), the bulk canonicalization census (byte-identical encodings at
// 1/2/8 threads on the families whose cells used to take the
// degree-profile fallback), and the zero-trial acceptance-estimate guard.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "cli/bench.h"
#include "exec/context.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "support/rng.h"
#include "tm/zoo.h"

namespace locald::local {
namespace {

using graph::make_cycle;
using graph::make_path;

LabeledGraph two_colored_cycle(int n) {
  LabeledGraph g = LabeledGraph::uniform(make_cycle(n), Label{});
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{v % 2});
  }
  return g;
}

TEST(RngStream, DeterministicAndStateIndependent) {
  Rng a = Rng::stream(7, 3, 5);
  Rng b = Rng::stream(7, 3, 5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  // Deriving other streams in between must not perturb stream (3, 5).
  Rng noise1 = Rng::stream(7, 0, 0);
  Rng noise2 = Rng::stream(7, 99, 1);
  noise1.next_u64();
  noise2.next_u64();
  Rng c = Rng::stream(7, 3, 5);
  Rng d = Rng::stream(7, 3, 5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(c.next_u64(), d.next_u64());
  }
}

TEST(RngStream, DistinctCoordinatesDiverge) {
  const std::uint64_t base = Rng::stream(1, 2, 3).next_u64();
  EXPECT_NE(base, Rng::stream(2, 2, 3).next_u64());
  EXPECT_NE(base, Rng::stream(1, 3, 3).next_u64());
  EXPECT_NE(base, Rng::stream(1, 2, 4).next_u64());
  // Adjacent counters should not produce obviously correlated values.
  EXPECT_NE(Rng::stream(1, 2, 3).next_u64() ^ Rng::stream(1, 2, 4).next_u64(),
            0u);
}

// A randomized decider that actually consumes coins: accept unless the
// node's geometric draw exceeds a label-dependent threshold.
class CoinHungry final : public RandomizedLocalAlgorithm {
 public:
  std::string name() const override { return "coin-hungry"; }
  int horizon() const override { return 1; }
  bool id_oblivious() const override { return true; }
  Verdict evaluate(const BallView& ball, Rng& coin) const override {
    const int tosses = coin.coin_tosses_until_head();
    const auto threshold = 3 + ball.center_label().at(0);
    return tosses <= threshold ? Verdict::yes : Verdict::no;
  }
};

TEST(Determinism, EstimateAcceptanceIdenticalAt1And2And8Threads) {
  const LabeledGraph g = two_colored_cycle(12);
  const CoinHungry alg;
  constexpr int kTrials = 300;
  constexpr std::uint64_t kSeed = 99;

  exec::ExecContext serial;
  const auto reference =
      estimate_acceptance(alg, g, nullptr, kTrials, {serial, kSeed});
  EXPECT_EQ(reference.trials, kTrials);
  // The estimate must be non-trivial for the comparison to mean anything.
  EXPECT_GT(reference.accepted, 0);
  EXPECT_LT(reference.accepted, kTrials);

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    const auto run = estimate_acceptance(alg, g, nullptr, kTrials, {ctx, kSeed});
    EXPECT_EQ(run.accepted, reference.accepted) << threads << " threads";
    EXPECT_EQ(run.trials, reference.trials);
  }
}

// The estimate against a plain trial-major loop: trial t accepts iff every
// node outputs yes under coin stream (seed, t, v). Serial == parallel alone
// would also pass a loop order that is wrong but consistent.
TEST(Determinism, EstimateAcceptanceMatchesTrialMajorReference) {
  const LabeledGraph g = two_colored_cycle(12);
  const CoinHungry alg;
  constexpr int kTrials = 300;
  constexpr std::uint64_t kSeed = 7;

  int expected = 0;
  for (int t = 0; t < kTrials; ++t) {
    bool all_yes = true;
    for (graph::NodeId v = 0; v < g.node_count() && all_yes; ++v) {
      Rng coin = Rng::stream(kSeed, static_cast<std::uint64_t>(t),
                             static_cast<std::uint64_t>(v));
      const Ball ball = extract_ball(g, nullptr, v, alg.horizon());
      all_yes = alg.evaluate(ball.view(), coin) == Verdict::yes;
    }
    expected += all_yes ? 1 : 0;
  }
  ASSERT_GT(expected, 0);
  ASSERT_LT(expected, kTrials);

  for (int threads : {1, 4}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    const auto run =
        estimate_acceptance(alg, g, nullptr, kTrials, {ctx, kSeed});
    EXPECT_EQ(run.accepted, expected) << threads << " threads";
  }
}

TEST(Determinism, ProbeIdDependenceIdenticalAt1And2And8Threads) {
  const LabeledGraph g = LabeledGraph::uniform(make_cycle(6), Label{});
  const auto threshold = make_id_aware("big-id-rejects", 0, [](const BallView& b) {
    return b.center_id() >= 7 ? Verdict::no : Verdict::yes;
  });
  const auto constant =
      make_id_aware("const", 0, [](const BallView&) { return Verdict::yes; });
  constexpr std::uint64_t kSeed = 5;

  exec::ExecContext serial;
  const auto ref_dep =
      probe_id_dependence(*threshold, g, /*universe=*/8, 20, {serial, kSeed});
  EXPECT_TRUE(ref_dep.some_node_output_changed);
  EXPECT_TRUE(ref_dep.global_verdict_changed);
  const auto ref_const =
      probe_id_dependence(*constant, g, 1'000'000, 10, {serial, kSeed});
  EXPECT_FALSE(ref_const.some_node_output_changed);

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    const auto dep =
        probe_id_dependence(*threshold, g, 8, 20, {ctx, kSeed});
    EXPECT_EQ(dep.some_node_output_changed, ref_dep.some_node_output_changed);
    EXPECT_EQ(dep.global_verdict_changed, ref_dep.global_verdict_changed);
    const auto con = probe_id_dependence(*constant, g, 1'000'000, 10, {ctx, kSeed});
    EXPECT_FALSE(con.some_node_output_changed);
  }
}

TEST(Determinism, RunLocalAlgorithmCtxMatchesSerialOverload) {
  const LabeledGraph g = two_colored_cycle(10);
  const IdAssignment ids = make_consecutive(g.node_count());
  // Rejects on odd labels: exercises first_rejecting.
  const auto alg = make_id_aware("odd-rejects", 1, [](const BallView& b) {
    return b.center_label().at(0) == 1 ? Verdict::no : Verdict::yes;
  });
  const auto legacy = run_local_algorithm(*alg, g, ids);
  for (int threads : {1, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext ctx{&pool, &cache};
    const auto run = run_local_algorithm(*alg, g, ids, {ctx});
    EXPECT_EQ(run.outputs, legacy.outputs);
    EXPECT_EQ(run.accepted, legacy.accepted);
    EXPECT_EQ(run.first_rejecting, legacy.first_rejecting);
  }
}

TEST(CacheCorrectness, MemoizedAndUnmemoizedRunsAgree) {
  // Every ball of an unlabeled cycle is isomorphic, so one evaluation per
  // class suffices; the memoized run must still produce the same outputs.
  const LabeledGraph g = LabeledGraph::uniform(make_cycle(24), Label{});
  std::atomic<int> evaluations{0};
  const auto alg = make_oblivious("degree-2-check", 1, [&](const BallView& b) {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return b.g.degree(b.center) == 2 ? Verdict::yes : Verdict::no;
  });

  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*alg, g, {plain});
  const int unmemoized_evals = evaluations.exchange(0);
  EXPECT_EQ(unmemoized_evals, 24);

  exec::VerdictCache cache;
  exec::ExecContext memo{nullptr, &cache};
  const auto memoized = run_oblivious(*alg, g, {memo});
  EXPECT_EQ(memoized.outputs, unmemoized.outputs);
  EXPECT_EQ(memoized.accepted, unmemoized.accepted);
  // 24 isomorphic balls, one canonical class: decided once.
  EXPECT_EQ(evaluations.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 23u);

  // A graph with several classes: memoized still agrees with unmemoized.
  const LabeledGraph mixed = two_colored_cycle(16);
  const auto direct = run_oblivious(*alg, mixed, {plain});
  exec::VerdictCache cache2;
  exec::ThreadPool pool(8);
  exec::ExecContext memo_parallel{&pool, &cache2};
  const auto cached = run_oblivious(*alg, mixed, {memo_parallel});
  EXPECT_EQ(cached.outputs, direct.outputs);
}

TEST(CacheCorrectness, MemoizationUnsafeAlgorithmsBypassTheCache) {
  // An algorithm that declares itself unsafe to memoize must be evaluated
  // on every ball even when a cache is wired up.
  class Unsafe final : public LocalAlgorithm {
   public:
    std::string name() const override { return "unsafe"; }
    int horizon() const override { return 1; }
    bool id_oblivious() const override { return true; }
    bool memoization_safe() const override { return false; }
    Verdict evaluate(const BallView&) const override {
      ++evaluations;
      return Verdict::yes;
    }
    mutable std::atomic<int> evaluations{0};
  };
  const LabeledGraph g = LabeledGraph::uniform(make_cycle(8), Label{});
  Unsafe alg;
  exec::VerdictCache cache;
  exec::ExecContext memo{nullptr, &cache};
  (void)run_oblivious(alg, g, {memo});
  EXPECT_EQ(alg.evaluations.load(), 8);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  // The Id-oblivious simulation A* is NOT such an algorithm: it applies
  // sampled id lists in canonical order, so its verdicts are class-invariant
  // and it memoizes through the shared cache.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "reads-ids", 1, false, [](const BallView& b) {
        (void)b.center_id();
        return Verdict::yes;
      });
  const auto sim = oblivious::make_oblivious_simulation(inner, {});
  EXPECT_TRUE(sim->memoization_safe());
}

TEST(CacheCorrectness, SimulationsDifferingOnlyInUniverseKeepTheirVerdicts) {
  // Inner rejects iff the centre's id is at least 50: A* over [0, 50)
  // accepts everywhere, A* over [0, 51) rejects everywhere. Sharing one
  // cache must not hand either simulation the other's verdicts.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "reject-at-big-id", 0, false, [](const BallView& ball) {
        return ball.center_id() >= 50 ? Verdict::no : Verdict::yes;
      });
  oblivious::SimulationOptions small;
  small.id_universe = 50;
  small.max_assignments = 200;
  oblivious::SimulationOptions large = small;
  large.id_universe = 51;
  const auto small_sim = oblivious::make_oblivious_simulation(inner, small);
  const auto large_sim = oblivious::make_oblivious_simulation(inner, large);
  EXPECT_NE(small_sim->name(), large_sim->name());
  // The pool never changes a verdict, so it is not part of the key.
  exec::ThreadPool pool(2);
  oblivious::SimulationOptions pooled = small;
  pooled.pool = &pool;
  EXPECT_EQ(oblivious::make_oblivious_simulation(inner, pooled)->name(),
            small_sim->name());

  const LabeledGraph g = LabeledGraph::uniform(make_cycle(6), Label{});
  exec::VerdictCache cache;
  exec::ExecContext memo{nullptr, &cache};
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(run_oblivious(*small_sim, g, {memo}).accepted);
    EXPECT_FALSE(run_oblivious(*large_sim, g, {memo}).accepted);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 22u);
}

TEST(Determinism, ObliviousSimulationVerdictIndependentOfPool) {
  // Id-reading inner that rejects when the centre holds the largest id in
  // the ball: A* must find a rejecting assignment in both search modes.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "center-max-rejects", 1, false, [](const BallView& ball) {
        const Id c = ball.center_id();
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          if (v != ball.center && ball.id_of(v) > c) {
            return Verdict::yes;
          }
        }
        return Verdict::no;
      });
  const LabeledGraph g = LabeledGraph::uniform(make_path(5), Label{});
  BallScratch scratch;
  const BallView ball = scratch.extract(g, nullptr, 2, 1);

  for (bool exhaustive : {true, false}) {
    oblivious::SimulationOptions serial_opts;
    serial_opts.id_universe = exhaustive ? 8 : 4096;
    serial_opts.max_assignments = exhaustive ? 1'000 : 64;
    const auto serial_sim =
        oblivious::make_oblivious_simulation(inner, serial_opts);
    const Verdict reference = serial_sim->evaluate(ball);
    EXPECT_EQ(serial_sim->last_stats().exhaustive, exhaustive);

    exec::ThreadPool pool(8);
    oblivious::SimulationOptions pooled = serial_opts;
    pooled.pool = &pool;
    const auto pooled_sim = oblivious::make_oblivious_simulation(inner, pooled);
    EXPECT_EQ(pooled_sim->evaluate(ball), reference);
  }
}

TEST(Determinism, CensusEncodingsByteIdenticalAt1And2And8Threads) {
  // The two families whose census cells PR 4 kept off the exact path: the
  // census must now be exact AND byte-identical at every thread count.
  for (const graph::CsrGraph& host :
       {graph::make_hypercube(5), graph::make_complete_bipartite(7, 7)}) {
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(host.node_count()));
    const graph::BallCensusResult serial =
        graph::canonical_census(host, payloads, 1, nullptr);
    for (int threads : {1, 2, 8}) {
      exec::ThreadPool pool(threads);
      const graph::BallCensusResult pooled =
          graph::canonical_census(host, payloads, 1, &pool);
      ASSERT_EQ(pooled.class_of, serial.class_of) << threads << " threads";
      ASSERT_EQ(pooled.class_encoding, serial.class_encoding)
          << threads << " threads";
      EXPECT_EQ(pooled.class_representative, serial.class_representative);
      EXPECT_EQ(pooled.distinct, serial.distinct);
      EXPECT_EQ(pooled.unique_structures, serial.unique_structures);
      EXPECT_EQ(pooled.raw_duplicates, serial.raw_duplicates);
    }
  }
}

TEST(Determinism, FamilyWorkloadCellsByteIdenticalNowThatTheFallbackIsGone) {
  // `locald bench` documents over hypercube and complete-bipartite — the
  // cells that previously used the sound-but-incomplete degree-profile
  // key — byte-identical across a 1/2/8 thread grid.
  cli::BenchOptions base;
  base.seed = 13;
  base.families = {"hypercube", "complete-bipartite",
                   "complete-bipartite:a=1"};
  base.sizes = {32, 64};
  std::ostringstream serial;
  std::ostringstream pooled;
  cli::BenchOptions a = base;
  a.thread_grid = {1};
  EXPECT_EQ(cli::run_bench(a, serial), 0);
  cli::BenchOptions b = base;
  b.thread_grid = {2, 8};  // bench cross-checks the grid internally too
  EXPECT_EQ(cli::run_bench(b, pooled), 0);
  EXPECT_EQ(serial.str(), pooled.str());
}

TEST(CacheCorrectness, MemoizedAndUnmemoizedAgreeOnTheGmrVerifierPath) {
  // The fig2-gmr scenario routes its verifier through the shared cache
  // again (PR 3 had it bypass the cache because canonicalization was ~5x
  // the evaluation cost); memoized == unmemoized is the contract that
  // makes that re-enablement safe, asserted on a real G(M, r) instance.
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  policy.seed = 7;
  halting::GmrParams params{tm::halt_after(2, 0), 1, 3, policy, false, 4096};
  const auto inst = halting::build_gmr(params);
  const auto verifier = halting::make_gmr_verifier(3, policy, false, 4096);

  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*verifier, inst.graph, {plain});
  for (int threads : {1, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext memo{&pool, &cache};
    const auto memoized = run_oblivious(*verifier, inst.graph, {memo});
    EXPECT_EQ(memoized.outputs, unmemoized.outputs) << threads << " threads";
    EXPECT_EQ(memoized.accepted, unmemoized.accepted);
    const auto stats = cache.stats();
    EXPECT_GT(stats.hits + stats.misses, 0u);
  }
}

TEST(Determinism, ExhaustiveSimulationMemoNeverChangesTheVerdict) {
  // A*'s exhaustive-mode verdicts are class-invariant and memoized in the
  // shared cache; re-evaluating isomorphic balls must hit the cache and
  // return the identical verdict, serial or pooled.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "center-max-rejects", 1, false, [](const BallView& ball) {
        const Id c = ball.center_id();
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          if (v != ball.center && ball.id_of(v) > c) {
            return Verdict::yes;
          }
        }
        return Verdict::no;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 6;
  options.max_assignments = 10'000;
  const auto sim = oblivious::make_oblivious_simulation(inner, options);
  const LabeledGraph cycle =
      LabeledGraph::uniform(make_cycle(12), Label{});
  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*sim, cycle, {plain});
  EXPECT_TRUE(sim->last_stats().exhaustive);
  exec::VerdictCache cache;
  exec::ExecContext memo{nullptr, &cache};
  // All 12 balls are isomorphic: one enumeration, then 11 cache hits; the
  // second run is answered by the cache alone.
  EXPECT_EQ(run_oblivious(*sim, cycle, {memo}).outputs, unmemoized.outputs);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 11u);
  EXPECT_EQ(run_oblivious(*sim, cycle, {memo}).outputs, unmemoized.outputs);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 23u);
  for (int threads : {2, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache fresh;
    exec::ExecContext ctx{&pool, &fresh};
    EXPECT_EQ(run_oblivious(*sim, cycle, {ctx}).outputs, unmemoized.outputs);
    const auto stats = fresh.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits + stats.misses, 12u);
  }
}

TEST(Determinism, SampledSimulationMemoizedEqualsUnmemoized) {
  // An id-DEPENDENT inner under a tiny sampling budget: which balls reject
  // depends on the exact candidates drawn, so the shared cache is sound only
  // if isomorphic balls — numbered differently across a random graph — are
  // probed with isomorphic assignments.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "weighted-id-sum", 1, false, [](const BallView& ball) {
        Id sum = 0;
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          sum += ball.id_of(v) * (1 + ball.label(v).at(0));
        }
        return sum % 3 == 0 ? Verdict::no : Verdict::yes;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 1 << 16;
  options.max_assignments = 1;
  options.seed = 5;
  const auto sim = oblivious::make_oblivious_simulation(inner, options);
  LabeledGraph g(graph::make_random_connected(60, 20, 11));
  Rng rng(4);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{static_cast<std::int64_t>(rng.below(2))});
  }
  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*sim, g, {plain});
  EXPECT_FALSE(sim->last_stats().exhaustive);
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext memo{&pool, &cache};
    const auto memoized = run_oblivious(*sim, g, {memo});
    EXPECT_EQ(memoized.outputs, unmemoized.outputs) << threads << " threads";
    EXPECT_GT(cache.stats().hits, 0u) << threads << " threads";
  }
}

TEST(AcceptanceEstimate, ZeroTrialEstimateHasNoProbability) {
  AcceptanceEstimate empty;
  EXPECT_THROW(empty.probability(), Error);
  AcceptanceEstimate ran;
  ran.trials = 4;
  ran.accepted = 1;
  EXPECT_DOUBLE_EQ(ran.probability(), 0.25);
  // estimate_acceptance itself refuses to produce a zero-trial estimate.
  const LabeledGraph g = LabeledGraph::uniform(make_path(2), Label{});
  const CoinHungry alg;
  exec::ExecContext serial;
  EXPECT_THROW(estimate_acceptance(alg, g, nullptr, 0, {serial, 1}), Error);
}

}  // namespace
}  // namespace locald::local
