// Tests for the Turing-machine substrate: machine validation and encoding,
// the reference simulator, the zoo's ground truths, execution tables, and
// the agreement between tables and the direct simulation.
#include <gtest/gtest.h>

#include "tm/machine.h"
#include "tm/run.h"
#include "tm/table.h"
#include "tm/zoo.h"

namespace locald::tm {
namespace {

TEST(Machine, ConstructionValidation) {
  EXPECT_THROW(TuringMachine("too-few", 2, 2), Error);
  EXPECT_THROW(TuringMachine("no-alphabet", 3, 0), Error);
  TuringMachine m("ok", 3, 2);
  EXPECT_EQ(m.working_state_count(), 1);
  EXPECT_EQ(m.halt0(), 1);
  EXPECT_EQ(m.halt1(), 2);
  EXPECT_TRUE(m.is_halting(1));
  EXPECT_TRUE(m.is_halting(2));
  EXPECT_FALSE(m.is_halting(0));
  EXPECT_EQ(m.halt_output(1), 0);
  EXPECT_EQ(m.halt_output(2), 1);
  EXPECT_THROW(m.halt_output(0), Error);
}

TEST(Machine, TransitionRules) {
  TuringMachine m("t", 3, 2);
  EXPECT_THROW(m.delta(0, 0), Error);  // not yet defined
  m.set_transition(0, 0, Transition{1, 1, Move::right});
  EXPECT_EQ(m.delta(0, 0).next_state, 1);
  EXPECT_THROW(m.set_transition(1, 0, Transition{0, 0, Move::right}), Error)
      << "halting states have no outgoing transitions";
  EXPECT_THROW(m.validate(), Error) << "missing (0, 1)";
  m.set_transition(0, 1, Transition{2, 0, Move::left});
  EXPECT_NO_THROW(m.validate());
}

TEST(Machine, EncodeDecodeRoundTrip) {
  for (const ZooEntry& e : full_zoo()) {
    const TuringMachine decoded = TuringMachine::decode(e.machine.encode());
    EXPECT_EQ(decoded, e.machine) << e.machine.name();
  }
}

TEST(Machine, DecodeRejectsMalformed) {
  EXPECT_THROW(TuringMachine::decode({}), Error);
  EXPECT_THROW(TuringMachine::decode(std::vector<std::int64_t>{3, 2, 1}),
               Error);
}

TEST(Machine, CellCodes) {
  TuringMachine m("c", 4, 3);  // 2 working states + 2 halting, 3 symbols
  EXPECT_EQ(m.cell_code_count(), 3 * 5);
  EXPECT_EQ(m.plain_cell(2), 2);
  EXPECT_FALSE(m.cell_has_head(2));
  const int h = m.head_cell(1, 2);
  EXPECT_TRUE(m.cell_has_head(h));
  EXPECT_EQ(m.cell_state(h), 1);
  EXPECT_EQ(m.cell_symbol(h), 2);
  EXPECT_EQ(m.cell_symbol(m.plain_cell(1)), 1);
  EXPECT_THROW(m.cell_state(1), Error);
  // Codes are a bijection over (state?, symbol).
  std::set<int> seen;
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(seen.insert(m.plain_cell(s)).second);
  }
  for (int q = 0; q < 4; ++q) {
    for (int s = 0; s < 3; ++s) {
      EXPECT_TRUE(seen.insert(m.head_cell(q, s)).second);
    }
  }
}

TEST(Run, HaltAfterRunsExactly) {
  for (int k : {1, 2, 3, 7, 20}) {
    for (int out : {0, 1}) {
      const TuringMachine m = halt_after(k, out);
      const RunOutcome res = run_machine(m, 1000);
      EXPECT_TRUE(res.halted);
      EXPECT_EQ(res.steps, k);
      EXPECT_EQ(res.output, out);
    }
  }
}

TEST(Run, BudgetRespected) {
  const TuringMachine m = halt_after(10, 0);
  const RunOutcome res = run_machine(m, 5);
  EXPECT_FALSE(res.halted);
  EXPECT_EQ(res.steps, 5);
  EXPECT_EQ(res.output, -1);
}

TEST(Run, NonHaltingMachinesKeepRunning) {
  for (const TuringMachine& m :
       {bouncer(), right_drifter(), crawler(), zigzag_expander()}) {
    const RunOutcome res = run_machine(m, 10'000);
    EXPECT_FALSE(res.halted) << m.name();
    EXPECT_EQ(res.steps, 10'000) << m.name();
  }
}

TEST(Run, BouncerStaysInTwoCells) {
  const TuringMachine m = bouncer();
  Configuration c;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(step(m, c));
    ASSERT_LE(c.head, 1);
    ASSERT_GE(c.head, 0);
  }
}

TEST(Run, ZigzagExpanderExcursionsGrow) {
  const TuringMachine m = zigzag_expander();
  Configuration c;
  int max_head = 0;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(step(m, c));
    max_head = std::max(max_head, c.head);
  }
  EXPECT_GE(max_head, 50);
}

TEST(Run, ZigzagHaltRuntimeGrowsQuadratically) {
  long long prev = 0;
  for (int rounds = 1; rounds <= 6; ++rounds) {
    const RunOutcome res = run_machine(zigzag_halt(rounds, 0), 100'000);
    ASSERT_TRUE(res.halted);
    EXPECT_GT(res.steps, prev);
    prev = res.steps;
  }
  // Quadratic growth: 12 rounds takes more than 4x the steps of 6 rounds...
  const auto r6 = run_machine(zigzag_halt(6, 0), 1'000'000);
  const auto r12 = run_machine(zigzag_halt(12, 0), 1'000'000);
  EXPECT_GT(r12.steps, 3 * r6.steps);
}

TEST(Run, ZigzagHaltOutputs) {
  EXPECT_EQ(run_machine(zigzag_halt(3, 0), 100'000).output, 0);
  EXPECT_EQ(run_machine(zigzag_halt(3, 1), 100'000).output, 1);
}

TEST(Run, TraceFirstAndLastConfigurations) {
  const TuringMachine m = halt_after(3, 1);
  const auto tr = trace_machine(m, 100);
  ASSERT_EQ(tr.size(), 4u);  // configs before steps 0..3
  EXPECT_EQ(tr[0].state, TuringMachine::kStartState);
  EXPECT_EQ(tr[0].head, 0);
  EXPECT_TRUE(m.is_halting(tr[3].state));
  EXPECT_EQ(tr[3].head, 3);
}

TEST(Zoo, GroundTruthsHold) {
  for (const ZooEntry& e : full_zoo()) {
    const RunOutcome res = run_machine(e.machine, 1'000'000);
    EXPECT_EQ(res.halted, e.halts) << e.machine.name();
    if (e.halts) {
      EXPECT_EQ(res.steps, e.runtime) << e.machine.name();
      EXPECT_EQ(res.output, e.output) << e.machine.name();
    }
  }
}

TEST(Table, BuildMatchesTrace) {
  const TuringMachine m = halt_after(3, 0);
  const ExecutionTable t = ExecutionTable::build(m, 6, 6);
  // Row 0: head at column 0 in the start state, blanks elsewhere.
  EXPECT_EQ(t.cell(0, 0), m.head_cell(0, 0));
  EXPECT_EQ(t.cell(3, 0), m.plain_cell(0));
  // Head advances one column per row.
  EXPECT_EQ(t.head_column(0), 0);
  EXPECT_EQ(t.head_column(1), 1);
  EXPECT_EQ(t.head_column(2), 2);
  EXPECT_EQ(t.head_column(3), 3);
  // Halting at step 3; frozen rows repeat it.
  ASSERT_TRUE(t.halting_step().has_value());
  EXPECT_EQ(*t.halting_step(), 3);
  for (int x = 0; x < 6; ++x) {
    EXPECT_EQ(t.cell(x, 4), t.cell(x, 3));
    EXPECT_EQ(t.cell(x, 5), t.cell(x, 3));
  }
  // Written symbols persist under the frozen rows.
  EXPECT_EQ(m.cell_symbol(t.cell(0, 3)), 1);
}

TEST(Table, EveryRowHasExactlyOneHead) {
  for (const ZooEntry& e : small_zoo()) {
    const ExecutionTable t = ExecutionTable::build(e.machine, 8, 8);
    for (int y = 0; y < t.height(); ++y) {
      int heads = 0;
      for (int x = 0; x < t.width(); ++x) {
        heads += e.machine.cell_has_head(t.cell(x, y));
      }
      EXPECT_EQ(heads, 1) << e.machine.name() << " row " << y;
    }
  }
}

TEST(Table, NonHaltingMachineFillsTable) {
  const ExecutionTable t = ExecutionTable::build(crawler(), 16, 16);
  EXPECT_FALSE(t.halting_step().has_value());
  EXPECT_EQ(t.height(), 16);
}

TEST(Table, PaddedPow2Dimensions) {
  const TuringMachine m = halt_after(5, 0);  // 6 rows -> padded to 8
  const ExecutionTable t = ExecutionTable::build_padded_pow2(m, 1000);
  EXPECT_EQ(t.height(), 8);
  EXPECT_EQ(t.width(), 8);
  EXPECT_EQ(*t.halting_step(), 5);
  const ExecutionTable t2 =
      ExecutionTable::build_padded_pow2(m, 1000, /*minimum_size=*/32);
  EXPECT_EQ(t2.height(), 32);
}

TEST(Table, PaddedPow2RequiresHalting) {
  EXPECT_THROW(ExecutionTable::build_padded_pow2(bouncer(), 100), Error);
}

TEST(Table, WidthMustCoverExcursion) {
  EXPECT_THROW(ExecutionTable::build(halt_after(4, 0), 8, 4), Error);
}

class TableAgreementSweep : public ::testing::TestWithParam<int> {};

// The table's row y equals the trace's configuration before step y,
// including frozen repetition after the halt.
TEST_P(TableAgreementSweep, RowsEqualTraceConfigurations) {
  const auto zoo = full_zoo();
  const ZooEntry& e = zoo[static_cast<std::size_t>(GetParam()) % zoo.size()];
  const int size = 16;
  const ExecutionTable t = ExecutionTable::build(e.machine, size, size);
  const auto tr = trace_machine(e.machine, size);
  for (int y = 0; y < size; ++y) {
    const Configuration& c =
        tr[std::min<std::size_t>(static_cast<std::size_t>(y), tr.size() - 1)];
    for (int x = 0; x < size; ++x) {
      const int symbol =
          x < static_cast<int>(c.tape.size()) ? c.tape[static_cast<std::size_t>(x)] : 0;
      const int expected = (x == c.head)
                               ? e.machine.head_cell(c.state, symbol)
                               : e.machine.plain_cell(symbol);
      ASSERT_EQ(t.cell(x, y), expected)
          << e.machine.name() << " cell (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, TableAgreementSweep, ::testing::Range(0, 18));

}  // namespace
}  // namespace locald::tm
