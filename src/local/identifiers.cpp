#include "local/identifiers.h"

#include <algorithm>
#include <unordered_set>

#include "support/check.h"

namespace locald::local {

IdAssignment::IdAssignment(std::vector<Id> ids) : ids_(std::move(ids)) {
  std::unordered_set<Id> seen;
  seen.reserve(ids_.size());
  for (Id id : ids_) {
    LOCALD_CHECK(seen.insert(id).second,
                 "identifier assignment must be one-to-one");
  }
}

Id IdAssignment::of(graph::NodeId v) const {
  LOCALD_CHECK(v >= 0 && v < node_count(), "node out of range");
  return ids_[static_cast<std::size_t>(v)];
}

Id IdAssignment::max_id() const {
  LOCALD_CHECK(!ids_.empty(), "empty assignment has no max id");
  return *std::max_element(ids_.begin(), ids_.end());
}

IdBound::IdBound(std::string name, std::function<Id(Id)> f)
    : name_(std::move(name)), f_(std::move(f)) {}

Id IdBound::inverse(Id i) const {
  // Smallest j with f(j) >= i. f is monotone, so gallop then bisect.
  if (f_(0) >= i) {
    return 0;
  }
  Id lo = 0;
  Id hi = 1;
  while (f_(hi) < i) {
    lo = hi;
    LOCALD_CHECK(hi < (Id{1} << 62), "IdBound::inverse overflow");
    hi *= 2;
  }
  while (lo + 1 < hi) {
    const Id mid = lo + (hi - lo) / 2;
    if (f_(mid) >= i) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

IdBound IdBound::linear_plus(Id k) {
  return IdBound("n+" + std::to_string(k),
                 [k](Id n) { return n + k; });
}

IdBound IdBound::quadratic() {
  return IdBound("n^2+1", [](Id n) { return n * n + 1; });
}

IdAssignment make_consecutive(graph::NodeId n) {
  std::vector<Id> ids(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    ids[static_cast<std::size_t>(v)] = static_cast<Id>(v);
  }
  return IdAssignment(std::move(ids));
}

IdAssignment make_random_permutation(graph::NodeId n, Rng& rng) {
  std::vector<Id> ids(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    ids[static_cast<std::size_t>(v)] = static_cast<Id>(v);
  }
  rng.shuffle(ids);
  return IdAssignment(std::move(ids));
}

IdAssignment make_random_bounded(graph::NodeId n, const IdBound& f, Rng& rng) {
  const Id universe = f(static_cast<Id>(n));
  LOCALD_CHECK(universe >= static_cast<Id>(n),
               "bound f(n) too small for a one-to-one assignment");
  return IdAssignment(rng.sample_distinct(universe,
                                          static_cast<std::size_t>(n)));
}

IdAssignment make_random_unbounded(graph::NodeId n, Id universe, Rng& rng) {
  LOCALD_CHECK(universe >= static_cast<Id>(n),
               "universe too small for a one-to-one assignment");
  return IdAssignment(rng.sample_distinct(universe,
                                          static_cast<std::size_t>(n)));
}

bool respects_bound(const IdAssignment& ids, const IdBound& f) {
  const Id limit = f(static_cast<Id>(ids.node_count()));
  for (Id id : ids.raw()) {
    if (id >= limit) {
      return false;
    }
  }
  return true;
}

}  // namespace locald::local
