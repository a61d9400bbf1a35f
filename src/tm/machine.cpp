#include "tm/machine.h"

namespace locald::tm {

TuringMachine::TuringMachine(std::string name, int state_count,
                             int alphabet_size)
    : name_(std::move(name)),
      state_count_(state_count),
      alphabet_size_(alphabet_size) {
  LOCALD_CHECK(state_count_ >= 3,
               "need at least one working state plus the two halting states");
  LOCALD_CHECK(alphabet_size_ >= 1, "need at least the blank symbol");
  const std::size_t n = static_cast<std::size_t>(state_count_) *
                        static_cast<std::size_t>(alphabet_size_);
  delta_.resize(n);
  present_.resize(n, false);
}

int TuringMachine::halt_output(int q) const {
  LOCALD_CHECK(is_halting(q), "state is not halting");
  return q == halt0() ? 0 : 1;
}

void TuringMachine::set_transition(int q, int symbol, Transition t) {
  check_state(q);
  check_symbol(symbol);
  LOCALD_CHECK(!is_halting(q), "halting states have no outgoing transitions");
  check_state(t.next_state);
  check_symbol(t.write);
  const std::size_t i = static_cast<std::size_t>(q) * alphabet_size_ + symbol;
  delta_[i] = t;
  present_[i] = true;
}

const Transition& TuringMachine::delta(int q, int symbol) const {
  check_state(q);
  check_symbol(symbol);
  LOCALD_CHECK(!is_halting(q), "halting states have no transitions");
  const std::size_t i = static_cast<std::size_t>(q) * alphabet_size_ + symbol;
  LOCALD_CHECK(present_[i], "transition not defined");
  return delta_[i];
}

void TuringMachine::validate() const {
  for (int q = 0; q < working_state_count(); ++q) {
    for (int s = 0; s < alphabet_size_; ++s) {
      const std::size_t i =
          static_cast<std::size_t>(q) * alphabet_size_ + s;
      LOCALD_CHECK(present_[i],
                   "machine '" + name_ + "' missing transition (q=" +
                       std::to_string(q) + ", s=" + std::to_string(s) + ")");
    }
  }
}

std::vector<std::int64_t> TuringMachine::encode() const {
  validate();
  std::vector<std::int64_t> out;
  out.push_back(state_count_);
  out.push_back(alphabet_size_);
  for (int q = 0; q < working_state_count(); ++q) {
    for (int s = 0; s < alphabet_size_; ++s) {
      const Transition& t = delta(q, s);
      out.push_back(t.next_state);
      out.push_back(t.write);
      out.push_back(t.move == Move::right ? 1 : 0);
    }
  }
  return out;
}

TuringMachine TuringMachine::decode(std::span<const std::int64_t> fields,
                                    std::string name) {
  LOCALD_CHECK(fields.size() >= 2, "machine encoding too short");
  const int states = static_cast<int>(fields[0]);
  const int alphabet = static_cast<int>(fields[1]);
  TuringMachine m(std::move(name), states, alphabet);
  const std::size_t expected =
      2 + 3 * static_cast<std::size_t>(m.working_state_count()) *
              static_cast<std::size_t>(alphabet);
  LOCALD_CHECK(fields.size() == expected, "machine encoding length mismatch");
  std::size_t i = 2;
  for (int q = 0; q < m.working_state_count(); ++q) {
    for (int s = 0; s < alphabet; ++s) {
      Transition t;
      t.next_state = static_cast<int>(fields[i++]);
      t.write = static_cast<int>(fields[i++]);
      t.move = fields[i++] == 1 ? Move::right : Move::left;
      m.set_transition(q, s, t);
    }
  }
  return m;
}

int TuringMachine::plain_cell(int symbol) const {
  check_symbol(symbol);
  return symbol;
}

int TuringMachine::head_cell(int q, int symbol) const {
  check_state(q);
  check_symbol(symbol);
  return alphabet_size_ + q * alphabet_size_ + symbol;
}

bool TuringMachine::cell_has_head(int code) const {
  LOCALD_CHECK(code >= 0 && code < cell_code_count(), "cell code out of range");
  return code >= alphabet_size_;
}

int TuringMachine::cell_symbol(int code) const {
  LOCALD_CHECK(code >= 0 && code < cell_code_count(), "cell code out of range");
  return code < alphabet_size_ ? code : (code - alphabet_size_) % alphabet_size_;
}

int TuringMachine::cell_state(int code) const {
  LOCALD_CHECK(cell_has_head(code), "cell has no head");
  return (code - alphabet_size_) / alphabet_size_;
}

std::string TuringMachine::cell_to_string(int code) const {
  if (!cell_has_head(code)) {
    return std::to_string(cell_symbol(code));
  }
  return "[q" + std::to_string(cell_state(code)) + "/" +
         std::to_string(cell_symbol(code)) + "]";
}

}  // namespace locald::tm
