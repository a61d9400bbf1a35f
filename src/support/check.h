// Checked-error primitives shared by every locald module.
//
// The library distinguishes two failure kinds:
//  - `Error`: a violated runtime precondition or malformed input; recoverable
//    by the caller, reported with context.
//  - `BugError`: an internal invariant broke; indicates a defect in locald
//    itself rather than in the caller's input.
//
// Both name the failed condition. Only `BugError` carries the source
// location of the check: an `Error` reaches callers (CLI documents, HTTP 400
// bodies), and its text must not depend on where locald was built.
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

[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  const bool caller_error = kind[0] == 'L';  // LOCALD_CHECK
  std::string out;
  out += kind;
  out += " failed: ";
  out += expr;
  if (!caller_error) {
    out += " at ";
    out += file;
    out += ":";
    out += std::to_string(line);
  }
  if (!msg.empty()) {
    out += " — ";
    out += msg;
  }
  if (caller_error) {
    throw Error(out);
  }
  throw BugError(out);
}

}  // namespace detail
}  // namespace locald

// Precondition on caller input. Throws locald::Error when violated.
#define LOCALD_CHECK(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::locald::detail::throw_check_failure("LOCALD_CHECK", #cond, __FILE__, \
                                            __LINE__, (msg));                \
    }                                                                        \
  } while (false)

// Internal invariant. Throws locald::BugError when violated.
#define LOCALD_ASSERT(cond, msg)                                          \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::locald::detail::throw_check_failure("ASSERT", #cond, __FILE__,    \
                                            __LINE__, (msg));             \
    }                                                                     \
  } while (false)
