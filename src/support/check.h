// Checked-error primitives shared by every locald module.
//
// The library distinguishes two failure kinds:
//  - `Error`: a violated runtime precondition or malformed input; recoverable
//    by the caller, reported with context.
//  - `BugError`: an internal invariant broke; indicates a defect in locald
//    itself rather than in the caller's input.
//
// A `BugError` names the failed C++ condition and the source location of
// the check, for the developer. An `Error` reaches callers (stderr, HTTP 400
// bodies), so its text is the check's message alone: it says what is wrong
// with the input, not which expression caught it or where locald was built.
#pragma once

#include <stdexcept>
#include <string>

namespace locald {

// Violated caller-facing precondition (bad argument, malformed instance...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Violated internal invariant; a locald bug, not a usage error.
class BugError : public std::logic_error {
 public:
  explicit BugError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr,
                                             const std::string& msg) {
  throw Error(msg.empty() ? std::string("LOCALD_CHECK failed: ") + expr : msg);
}

[[noreturn]] inline void throw_assert_failure(const char* expr,
                                              const char* file, int line,
                                              const std::string& msg) {
  std::string out = std::string("ASSERT failed: ") + expr + " at " + file +
                    ":" + std::to_string(line);
  if (!msg.empty()) {
    out += " — " + msg;
  }
  throw BugError(out);
}

}  // namespace detail
}  // namespace locald

// Precondition on caller input. Throws locald::Error when violated.
#define LOCALD_CHECK(cond, msg)                            \
  do {                                                     \
    if (!(cond)) {                                         \
      ::locald::detail::throw_check_failure(#cond, (msg)); \
    }                                                      \
  } while (false)

// Internal invariant. Throws locald::BugError when violated.
#define LOCALD_ASSERT(cond, msg)                                        \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::locald::detail::throw_assert_failure(#cond, __FILE__, __LINE__, \
                                             (msg));                    \
    }                                                                   \
  } while (false)
