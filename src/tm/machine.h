// Turing machines over a one-way infinite tape, as used by the Section-3
// construction.
//
// Conventions (fixed so that machine descriptions embed into node labels):
//  - tape symbols are 0..alphabet_size-1 with 0 = blank;
//  - states are 0..state_count-1; the last two states are the halting states
//    halt0 = state_count-2 ("M outputs 0") and halt1 = state_count-1
//    ("M outputs 1") — membership in L0/L1 is which halting state is reached;
//  - the head starts on cell 0 in state 0 on a blank tape;
//  - halting states are frozen points: a halted configuration repeats
//    forever, which lets execution tables extend past the halting step
//    (needed to pad tables to power-of-two heights for the pyramid).
//
// Moving left from cell 0 is a runtime error; the machines in the zoo are
// designed never to fall off the tape.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"

namespace locald::tm {

enum class Move : std::int8_t { left = 0, right = 1 };

struct Transition {
  int next_state = 0;
  int write = 0;
  Move move = Move::right;

  bool operator==(const Transition&) const = default;
};

class TuringMachine {
 public:
  // `state_count` includes the two halting states (so >= 3 for any machine
  // with at least one working state).
  TuringMachine(std::string name, int state_count, int alphabet_size);

  const std::string& name() const { return name_; }
  int state_count() const { return state_count_; }
  int alphabet_size() const { return alphabet_size_; }
  int working_state_count() const { return state_count_ - 2; }

  static constexpr int kStartState = 0;
  int halt0() const { return state_count_ - 2; }
  int halt1() const { return state_count_ - 1; }
  bool is_halting(int q) const {
    check_state(q);
    return q >= state_count_ - 2;
  }
  // 0 or 1; q must be halting.
  int halt_output(int q) const;

  void set_transition(int q, int symbol, Transition t);
  const Transition& delta(int q, int symbol) const;

  // All (working state, symbol) pairs must have transitions.
  void validate() const;

  // --- label embedding -----------------------------------------------------
  // Encodes the full machine description as int64 fields (alphabet, states,
  // then the transition table row-major), so that every node of G(M, r) can
  // carry "(M, r) as part of its input labelling".
  std::vector<std::int64_t> encode() const;
  static TuringMachine decode(std::span<const std::int64_t> fields,
                              std::string name = "decoded");

  bool operator==(const TuringMachine& other) const {
    return state_count_ == other.state_count_ &&
           alphabet_size_ == other.alphabet_size_ &&
           delta_ == other.delta_;
  }

  // --- execution-table cell codes -------------------------------------------
  // A table cell holds either a plain symbol s (code s) or a head-owning
  // cell (q, s) (code alphabet_size + q * alphabet_size + s).
  int cell_code_count() const {
    return alphabet_size_ * (1 + state_count_);
  }
  int plain_cell(int symbol) const;
  int head_cell(int q, int symbol) const;
  bool cell_has_head(int code) const;
  int cell_symbol(int code) const;
  // State of a head cell; code must carry a head.
  int cell_state(int code) const;
  std::string cell_to_string(int code) const;

 private:
  void check_state(int q) const {
    LOCALD_CHECK(q >= 0 && q < state_count_, "state out of range");
  }
  void check_symbol(int s) const {
    LOCALD_CHECK(s >= 0 && s < alphabet_size_, "symbol out of range");
  }

  std::string name_;
  int state_count_;
  int alphabet_size_;
  // delta_[q * alphabet + s]; present_ marks defined entries.
  std::vector<Transition> delta_;
  std::vector<bool> present_;
};

}  // namespace locald::tm
