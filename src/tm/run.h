// Direct Turing-machine simulation (configurations, stepping, bounded runs).
//
// This is the reference semantics; the execution-table builder and the local
// window rules are validated against it in tests.
#pragma once

#include <vector>

#include "tm/machine.h"

namespace locald::tm {

struct Configuration {
  std::vector<int> tape;  // grows on demand; absent cells are blank
  int head = 0;
  int state = TuringMachine::kStartState;
};

// One step. Returns false (and leaves the configuration unchanged) when the
// machine has already halted. Throws if the head would fall off the tape.
bool step(const TuringMachine& m, Configuration& c);

struct RunOutcome {
  bool halted = false;
  long long steps = 0;   // steps executed (== halting time when halted)
  int output = -1;       // 0/1 when halted
};

// Runs from the blank initial configuration for at most `max_steps` steps.
RunOutcome run_machine(const TuringMachine& m, long long max_steps);

// Configurations before steps 0..k where k = min(halt, max_steps); the
// final entry is the halting configuration when the machine halts in time.
std::vector<Configuration> trace_machine(const TuringMachine& m,
                                         long long max_steps);

}  // namespace locald::tm
