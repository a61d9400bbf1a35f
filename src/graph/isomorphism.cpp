#include "graph/isomorphism.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "exec/thread_pool.h"
#include "graph/ball_slice.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/hash.h"

namespace locald::graph {

namespace {

// Colours are dense ranks; a partition is stable ("equitable") when no two
// equally coloured nodes see different multisets of neighbour colours.
using Coloring = std::vector<int>;

std::atomic<std::uint64_t> g_forms{0};
std::atomic<std::uint64_t> g_census_balls{0};
std::atomic<std::uint64_t> g_census_raw_hits{0};

// Bridge the process-wide canonicalization counters into the metrics
// registry, once, on first census/counter use. Handles are deliberately
// leaked: these counters live for the whole process.
void ensure_canon_metrics_registered() {
  static const bool once = [] {
    obs::Registry& reg = obs::registry();
    static std::vector<obs::MetricHandle> handles;
    handles.push_back(reg.counter_fn(
        "locald_canon_forms_total",
        "Tier-2 canonical form computations (one per unique structure)",
        [] { return g_forms.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_canon_census_balls_total",
        "Balls passed through the bulk canonical census",
        [] { return g_census_balls.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_canon_census_raw_hits_total",
        "Census balls deduplicated before tier-2 canonicalization",
        [] { return g_census_raw_hits.load(std::memory_order_relaxed); }));
    return true;
  }();
  (void)once;
}

// Discovered-generator cap: enough to collapse every orbit the experiments
// meet; a bound so adversarial inputs cannot grow the list without limit.
constexpr std::size_t kMaxAutomorphisms = 256;

// Partition-refinement engine with scratch shared across a whole search:
// one flat signature arena (neighbour colours per node) re-sorted per round
// — no per-round map or vector-of-vector rebuilds. The host CSR's own
// offsets index the arena. Rank order of the new colours is derived from
// (old colour, degree, sorted neighbour colours), which is
// isomorphism-invariant, so equal inputs refine identically.
class Refiner {
 public:
  explicit Refiner(CsrSpan g) : g_(g) {
    const std::size_t n = static_cast<std::size_t>(g.n);
    arena_.resize(n == 0 ? 0 : g.offsets[n]);
    order_.resize(n);
    next_color_.resize(n);
  }

  // Refines `color` in place to the coarsest stable partition at or below
  // it, re-normalizing to dense ranks. Returns the number of colours.
  int refine(Coloring& color, CanonicalStats* stats) {
    const std::size_t n = color.size();
    if (n == 0) {
      return 0;
    }
    int classes_in = distinct_count(color);
    for (;;) {
      if (stats != nullptr) {
        ++stats->refinement_rounds;
      }
      for (std::size_t v = 0; v < n; ++v) {
        std::size_t at = g_.offsets[v];
        for (NodeId w : g_.neighbors(static_cast<NodeId>(v))) {
          arena_[at++] = color[static_cast<std::size_t>(w)];
        }
        std::sort(arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[v]),
                  arena_.begin() + static_cast<std::ptrdiff_t>(at));
      }
      std::iota(order_.begin(), order_.end(), 0);
      std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
        if (color[a] != color[b]) {
          return color[a] < color[b];
        }
        const std::size_t da = g_.offsets[a + 1] - g_.offsets[a];
        const std::size_t db = g_.offsets[b + 1] - g_.offsets[b];
        if (da != db) {
          return da < db;
        }
        return std::lexicographical_compare(
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[a]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[a + 1]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[b]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[b + 1]));
      });
      int next = 0;
      next_color_[order_[0]] = 0;
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t prev = order_[i - 1];
        const std::size_t cur = order_[i];
        if (color[prev] != color[cur] ||
            !std::equal(
                arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[prev]),
                arena_.begin() +
                    static_cast<std::ptrdiff_t>(g_.offsets[prev + 1]),
                arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[cur]),
                arena_.begin() +
                    static_cast<std::ptrdiff_t>(g_.offsets[cur + 1]))) {
          ++next;
        }
        next_color_[cur] = next;
      }
      for (std::size_t v = 0; v < n; ++v) {
        color[v] = next_color_[v];
      }
      const int classes_out = next + 1;
      if (classes_out == classes_in) {
        return classes_out;
      }
      classes_in = classes_out;
    }
  }

 private:
  static int distinct_count(const Coloring& color) {
    std::vector<int> sorted(color);
    std::sort(sorted.begin(), sorted.end());
    return static_cast<int>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  }

  CsrSpan g_;
  std::vector<int> arena_;
  std::vector<std::size_t> order_;
  std::vector<int> next_color_;
};

// Initial colouring groups nodes by payload (rank = sorted payload order,
// an isomorphism-invariant assignment).
Coloring payload_coloring(const std::vector<std::string>& payloads) {
  const std::size_t n = payloads.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return payloads[a] < payloads[b];
  });
  Coloring color(n, 0);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && payloads[idx[i]] != payloads[idx[i - 1]]) {
      ++next;
    }
    color[idx[i]] = next;
  }
  return color;
}

// The target cell: the first smallest non-singleton colour class (minimal
// size, then minimal colour rank), members in ascending node order. Empty
// when the colouring is discrete. The choice rule is isomorphism-invariant;
// member iteration order need not be, because the search minimizes over
// every non-pruned branch.
std::vector<NodeId> target_cell(const Coloring& color, int classes) {
  std::vector<int> size(static_cast<std::size_t>(classes), 0);
  for (int c : color) {
    ++size[static_cast<std::size_t>(c)];
  }
  int pick = -1;
  for (int c = 0; c < classes; ++c) {
    if (size[static_cast<std::size_t>(c)] > 1 &&
        (pick < 0 || size[static_cast<std::size_t>(c)] <
                         size[static_cast<std::size_t>(pick)])) {
      pick = c;
    }
  }
  std::vector<NodeId> cell;
  if (pick < 0) {
    return cell;
  }
  for (std::size_t v = 0; v < color.size(); ++v) {
    if (color[v] == pick) {
      cell.push_back(static_cast<NodeId>(v));
    }
  }
  return cell;
}

std::string encode_discrete(CsrSpan g,
                            const std::vector<std::string>& payloads,
                            const Coloring& color,
                            std::vector<NodeId>* order_out) {
  const std::size_t n = color.size();
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(color[v])] = static_cast<NodeId>(v);
  }
  std::vector<int> position(n);
  for (std::size_t i = 0; i < n; ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::string enc;
  enc += "n=";
  enc += std::to_string(n);
  enc += ";";
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = order[i];
    const std::string& p = payloads[static_cast<std::size_t>(v)];
    enc += "L";
    enc += std::to_string(p.size());
    enc += ":";
    enc += p;
    enc += "|A";
    std::vector<int> around;
    for (NodeId w : g.neighbors(v)) {
      const int pw = position[static_cast<std::size_t>(w)];
      if (pw < static_cast<int>(i)) {  // each edge recorded once
        around.push_back(pw);
      }
    }
    std::sort(around.begin(), around.end());
    for (int a : around) {
      enc += std::to_string(a);
      enc += ",";
    }
    enc += ";";
  }
  if (order_out != nullptr) {
    *order_out = std::move(order);
  }
  return enc;
}

// Union-find over ball nodes; orbit checks live on this.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) { reset(); }
  void reset() { std::iota(parent_.begin(), parent_.end(), 0); }
  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

bool span_less(const NeighborSpan& a, const NeighborSpan& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Individualization–refinement with automorphism discovery and orbit
// pruning (see the header for the strategy).
class Canonicalizer {
 public:
  Canonicalizer(CsrSpan g, const std::vector<std::string>& payloads,
                std::size_t max_leaves, CanonicalStats* stats)
      : g_(g),
        payloads_(payloads),
        max_leaves_(max_leaves),
        stats_(stats),
        refiner_(g),
        uf_(static_cast<std::size_t>(g.n)) {}

  CanonicalForm run() {
    Coloring color = payload_coloring(payloads_);
    search(std::move(color), 0);
    LOCALD_ASSERT(has_best_ || g_.n == 0,
                  "canonical search produced no leaf");
    CanonicalForm out;
    if (g_.n == 0) {
      out.encoding = "n=0;";
    } else {
      out.order = std::move(best_order_);
      out.encoding = std::move(best_);
    }
    out.fingerprint = hash_string(out.encoding);
    return out;
  }

 private:
  void bump(std::size_t CanonicalStats::* field) {
    if (stats_ != nullptr) {
      ++(stats_->*field);
    }
  }

  // Merges cell members that are interchangeable by a transposition fixing
  // everything else: equal open neighbourhoods (non-adjacent twins) or
  // equal closed neighbourhoods (adjacent twins). Such a transposition is
  // an automorphism that fixes any prefix (prefix nodes are singletons,
  // never cell members), so one branch per twin class covers them all.
  void merge_twins(const std::vector<NodeId>& cell, UnionFind& uf) {
    const std::size_t m = cell.size();
    std::vector<std::size_t> idx(m);
    // Non-adjacent twins: identical sorted neighbour lists.
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return span_less(g_.neighbors(cell[a]), g_.neighbors(cell[b]));
    });
    for (std::size_t i = 1; i < m; ++i) {
      if (g_.neighbors(cell[idx[i]]) == g_.neighbors(cell[idx[i - 1]])) {
        uf.merge(static_cast<std::size_t>(cell[idx[i]]),
                 static_cast<std::size_t>(cell[idx[i - 1]]));
      }
    }
    // Adjacent twins: identical closed neighbourhoods.
    std::vector<std::vector<NodeId>> closed(m);
    for (std::size_t i = 0; i < m; ++i) {
      closed[i] = g_.neighbors(cell[i]).to_vector();
      closed[i].insert(
          std::lower_bound(closed[i].begin(), closed[i].end(), cell[i]),
          cell[i]);
    }
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return closed[a] < closed[b];
    });
    for (std::size_t i = 1; i < m; ++i) {
      if (closed[idx[i]] == closed[idx[i - 1]]) {
        uf.merge(static_cast<std::size_t>(cell[idx[i]]),
                 static_cast<std::size_t>(cell[idx[i - 1]]));
      }
    }
  }

  // Rebuilds the orbit structure for a node at `depth`: twin merges plus
  // every discovered generator that fixes the current prefix pointwise.
  void rebuild_orbits(const std::vector<NodeId>& cell, std::size_t depth) {
    uf_.reset();
    merge_twins(cell, uf_);
    for (const std::vector<NodeId>& a : autos_) {
      bool fixes_prefix = true;
      for (std::size_t i = 0; i < depth; ++i) {
        if (a[static_cast<std::size_t>(path_[i])] != path_[i]) {
          fixes_prefix = false;
          break;
        }
      }
      if (!fixes_prefix) {
        continue;
      }
      for (std::size_t v = 0; v < a.size(); ++v) {
        uf_.merge(v, static_cast<std::size_t>(a[v]));
      }
    }
  }

  void handle_leaf(const Coloring& color) {
    ++leaves_;
    bump(&CanonicalStats::leaves);
    LOCALD_CHECK(leaves_ <= max_leaves_,
                 "canonical_form: too many automorphism branches");
    std::vector<NodeId> order;
    std::string enc = encode_discrete(g_, payloads_, color, &order);
    if (!has_best_ || enc < best_) {
      best_ = std::move(enc);
      best_order_ = std::move(order);
      best_path_ = path_;
      has_best_ = true;
      return;
    }
    if (enc != best_) {
      return;
    }
    // Equal leaves certify the automorphism g(order[i]) = best_order[i].
    const std::size_t n = order.size();
    std::vector<NodeId> a(n);
    bool identity = true;
    for (std::size_t i = 0; i < n; ++i) {
      a[static_cast<std::size_t>(order[i])] = best_order_[i];
      identity = identity && order[i] == best_order_[i];
    }
    if (identity) {
      return;
    }
    if (autos_.size() < kMaxAutomorphisms) {
      autos_.push_back(a);
      bump(&CanonicalStats::automorphisms);
    }
    // Divergence unwind: if g fixes the shared prefix and maps this leaf's
    // divergent branch onto the (already fully explored) branch the best
    // leaf took, the rest of the current subtree is an isomorphic copy.
    std::size_t d = 0;
    while (d < path_.size() && d < best_path_.size() &&
           path_[d] == best_path_[d]) {
      ++d;
    }
    if (d >= path_.size() || d >= best_path_.size()) {
      return;
    }
    for (std::size_t i = 0; i < d; ++i) {
      if (a[static_cast<std::size_t>(path_[i])] != path_[i]) {
        return;
      }
    }
    if (a[static_cast<std::size_t>(path_[d])] == best_path_[d]) {
      unwind_to_ = static_cast<int>(d);
    }
  }

  void search(Coloring color, std::size_t depth) {
    bump(&CanonicalStats::nodes);
    const int classes = refiner_.refine(color, stats_);
    const std::vector<NodeId> cell = target_cell(color, classes);
    if (cell.empty()) {
      handle_leaf(color);
      return;
    }
    // `uf_` is shared scratch: any child recursion rebuilds it for its own
    // cell, so it must be repopulated for this node after every descent.
    bool orbits_valid = false;
    std::vector<NodeId> processed;
    for (NodeId v : cell) {
      if (!orbits_valid) {
        rebuild_orbits(cell, depth);
        orbits_valid = true;
      }
      bool duplicate = false;
      for (NodeId w : processed) {
        if (uf_.find(static_cast<std::size_t>(v)) ==
            uf_.find(static_cast<std::size_t>(w))) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        // Same orbit as an explored sibling: its subtree encodings are a
        // permuted copy — nothing new can beat the running best.
        bump(autos_.empty() ? &CanonicalStats::twin_prunes
                            : &CanonicalStats::orbit_prunes);
        continue;
      }
      // Split {v} out of its class below the rest: double every colour,
      // then lower v's. Refinement re-normalizes the ranks.
      Coloring child = color;
      for (int& c : child) {
        c *= 2;
      }
      child[static_cast<std::size_t>(v)] -= 1;
      path_.push_back(v);
      search(std::move(child), depth + 1);
      path_.pop_back();
      processed.push_back(v);
      orbits_valid = false;  // the descent clobbered uf_ (and may add autos)
      if (unwind_to_ >= 0) {
        if (static_cast<std::size_t>(unwind_to_) < depth) {
          return;  // an ancestor owns the divergence level
        }
        unwind_to_ = -1;  // this level: skip deeper, continue with siblings
      }
    }
  }

  CsrSpan g_;
  const std::vector<std::string>& payloads_;
  const std::size_t max_leaves_;
  CanonicalStats* stats_;
  Refiner refiner_;
  UnionFind uf_;

  std::size_t leaves_ = 0;
  std::string best_;
  std::vector<NodeId> best_order_;
  std::vector<NodeId> best_path_;
  bool has_best_ = false;
  std::vector<NodeId> path_;
  std::vector<std::vector<NodeId>> autos_;
  int unwind_to_ = -1;
};

void run_indexed(exec::ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
  }
}

// ---- census internals ------------------------------------------------------

// Centre-marked payloads of a ball slice, in local-id order (matching
// local::BallView's stripped-ball payload scheme).
std::vector<std::string> slice_payloads(
    const BallSlice& s, const std::vector<std::string>& host_payloads) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(s.local.n));
  for (NodeId v = 0; v < s.local.n; ++v) {
    std::string p = (v == s.center) ? "C" : "N";
    p += host_payloads[static_cast<std::size_t>(s.to_host[v])];
    out.push_back(std::move(p));
  }
  return out;
}

// Streaming FNV-1a over the exact extracted structure (local adjacency,
// centre position, payload bytes). Equal slices always hash equal; a
// collision between distinct slices is caught by the verification pass.
class Fnv {
 public:
  void bytes(const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= static_cast<unsigned char>(data[i]);
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t slice_hash(const BallSlice& s,
                         const std::vector<std::string>& host_payloads) {
  Fnv fnv;
  fnv.u64(static_cast<std::uint64_t>(s.local.n));
  fnv.u64(static_cast<std::uint64_t>(s.center));
  for (NodeId v = 0; v < s.local.n; ++v) {
    const std::string& p =
        host_payloads[static_cast<std::size_t>(s.to_host[v])];
    fnv.u64(p.size());
    fnv.bytes(p.data(), p.size());
  }
  if (s.local.n > 0) {
    for (NodeId v = 0; v <= s.local.n; ++v) {
      fnv.u64(s.local.offsets[v]);
    }
    for (EdgeIndex e = 0; e < s.local.offsets[s.local.n]; ++e) {
      fnv.u64(static_cast<std::uint64_t>(s.local.adj[e]));
    }
  }
  return fnv.value();
}

// Exact structural equality of two extracted slices (same local adjacency
// bytes, same centre, same payload bytes node for node).
bool slices_equal(const BallSlice& a, const BallSlice& b,
                  const std::vector<std::string>& host_payloads) {
  if (a.local.n != b.local.n || a.center != b.center) {
    return false;
  }
  const NodeId n = a.local.n;
  if (n == 0) {
    return true;
  }
  if (!std::equal(a.local.offsets, a.local.offsets + n + 1, b.local.offsets)) {
    return false;
  }
  if (!std::equal(a.local.adj, a.local.adj + a.local.offsets[n],
                  b.local.adj)) {
    return false;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (host_payloads[static_cast<std::size_t>(a.to_host[v])] !=
        host_payloads[static_cast<std::size_t>(b.to_host[v])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

CanonicalForm canonical_form(CsrSpan g,
                             const std::vector<std::string>& payloads,
                             std::size_t max_leaves, CanonicalStats* stats) {
  LOCALD_CHECK(payloads.size() == static_cast<std::size_t>(g.n),
               "one payload required per node");
  g_forms.fetch_add(1, std::memory_order_relaxed);
  Canonicalizer canonicalizer(g, payloads, max_leaves, stats);
  return canonicalizer.run();
}

CanonicalForm canonical_form(CsrSpan g, std::size_t max_leaves) {
  return canonical_form(
      g, std::vector<std::string>(static_cast<std::size_t>(g.n)), max_leaves);
}

std::string wl_certificate(CsrSpan g,
                           const std::vector<std::string>& payloads) {
  LOCALD_CHECK(payloads.size() == static_cast<std::size_t>(g.n),
               "one payload required per node");
  const std::size_t n = payloads.size();
  if (n == 0) {
    return "wl:n=0;";
  }
  Coloring color = payload_coloring(payloads);
  Refiner refiner(g);
  const int classes = refiner.refine(color, nullptr);
  // One class description per colour, in rank order: size, the payload the
  // class shares, and the sorted neighbour-colour multiset every member
  // sees — all isomorphism-invariant at stability.
  std::vector<std::string> lines(static_cast<std::size_t>(classes));
  std::vector<int> size(static_cast<std::size_t>(classes), 0);
  for (int c : color) {
    ++size[static_cast<std::size_t>(c)];
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(color[v]);
    if (!lines[c].empty()) {
      continue;
    }
    std::vector<int> around;
    for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
      around.push_back(color[static_cast<std::size_t>(w)]);
    }
    std::sort(around.begin(), around.end());
    std::string line;
    line += "C";
    line += std::to_string(c);
    line += "|n=";
    line += std::to_string(size[c]);
    line += "|L";
    line += std::to_string(payloads[v].size());
    line += ":";
    line += payloads[v];
    line += "|A";
    for (int a : around) {
      line += std::to_string(a);
      line += ",";
    }
    line += ";";
    lines[c] = std::move(line);
  }
  std::string cert = "wl:n=" + std::to_string(n) + ";";
  for (const std::string& line : lines) {
    cert += line;
  }
  return cert;
}

BallCensusResult canonical_census(const CsrGraph& host,
                                  const std::vector<std::string>& payloads,
                                  int radius, exec::ThreadPool* pool,
                                  std::size_t max_leaves) {
  LOCALD_CHECK(payloads.size() == static_cast<std::size_t>(host.node_count()),
               "one payload required per host node");
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  const std::size_t n = static_cast<std::size_t>(host.node_count());
  const CsrSpan hs = host.span();
  BallCensusResult result;
  ensure_canon_metrics_registered();
  g_census_balls.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) {
    return result;
  }
  obs::Span census_span("ball-census", "balls=" + std::to_string(n));

  // Stage 1 (parallel): stream every ball through a structural hash. The
  // slice lives in a per-thread arena; nothing per-node is materialized
  // beyond the 8-byte hash.
  std::vector<std::uint64_t> hash(n);
  {
    obs::Span span("census-extract-hash");
    run_indexed(pool, n, [&](std::size_t i) {
      thread_local BallScratch scratch;
      hash[i] = slice_hash(
          scratch.extract(hs, static_cast<NodeId>(i), radius), payloads);
    });
  }

  // Tentative dedup in node order (scheduling-independent): group by hash.
  std::vector<NodeId> representative;
  std::vector<std::size_t> slot(n);
  {
    std::unordered_map<std::uint64_t, std::size_t> slot_of_hash;
    slot_of_hash.reserve(n / 4 + 16);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] =
          slot_of_hash.emplace(hash[i], representative.size());
      if (inserted) {
        representative.push_back(static_cast<NodeId>(i));
      }
      slot[i] = it->second;
    }
  }

  // Verification (parallel): every non-representative must be structurally
  // identical to its slot's representative — a failed check means two
  // distinct structures collided in the 64-bit hash. Representatives of
  // multi-member slots are materialized once up front (`OwnedBallSlice`
  // copies), so each duplicate costs ONE extraction instead of
  // re-extracting its representative alongside — on dedup-heavy censuses
  // (symmetric families, where every ball is the whole graph) that is a
  // third of all extraction work. Single-member slots verify nothing and
  // materialize nothing.
  // One stage span at a time, re-aimed as the census advances; emplace/reset
  // keeps sibling stages from nesting into each other.
  std::optional<obs::Span> stage_span;
  stage_span.emplace("census-dedup-verify");
  std::vector<std::uint32_t> slot_members(representative.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++slot_members[slot[i]];
  }
  std::vector<OwnedBallSlice> rep_slice(representative.size());
  run_indexed(pool, representative.size(), [&](std::size_t k) {
    if (slot_members[k] < 2) {
      return;
    }
    thread_local BallScratch scratch;
    rep_slice[k] =
        OwnedBallSlice(scratch.extract(hs, representative[k], radius));
  });
  std::atomic<bool> collision{false};
  run_indexed(pool, n, [&](std::size_t i) {
    const NodeId rep = representative[slot[i]];
    if (rep == static_cast<NodeId>(i) ||
        collision.load(std::memory_order_relaxed)) {
      return;
    }
    thread_local BallScratch mine;
    const BallSlice a = mine.extract(hs, static_cast<NodeId>(i), radius);
    if (!slices_equal(a, rep_slice[slot[i]].view(), payloads)) {
      collision.store(true, std::memory_order_relaxed);
    }
  });
  if (collision.load()) {
    // Vanishingly rare (two distinct structures sharing a 64-bit hash).
    // Fall back to grouping the whole census by exact serialized keys —
    // deterministic, just memory-heavier.
    std::vector<std::string> raw(n);
    run_indexed(pool, n, [&](std::size_t i) {
      thread_local BallScratch scratch;
      const BallSlice s =
          scratch.extract(hs, static_cast<NodeId>(i), radius);
      std::string key;
      key += std::to_string(s.local.n);
      key += "|";
      key += std::to_string(s.center);
      key += "|";
      for (NodeId v = 0; v < s.local.n; ++v) {
        const std::string& p =
            payloads[static_cast<std::size_t>(s.to_host[v])];
        key += std::to_string(p.size());
        key += ":";
        key += p;
        key += ";";
      }
      key += "|";
      for (NodeId v = 0; v < s.local.n; ++v) {
        for (NodeId w : s.local.neighbors(v)) {
          if (w > v) {
            key += std::to_string(v);
            key += ",";
            key += std::to_string(w);
            key += ";";
          }
        }
      }
      raw[i] = std::move(key);
    });
    representative.clear();
    std::unordered_map<std::string_view, std::size_t> slot_of_key;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] =
          slot_of_key.emplace(raw[i], representative.size());
      if (inserted) {
        representative.push_back(static_cast<NodeId>(i));
      }
      slot[i] = it->second;
    }
  }
  result.unique_structures = representative.size();
  result.raw_duplicates = n - representative.size();
  g_census_raw_hits.fetch_add(result.raw_duplicates,
                              std::memory_order_relaxed);

  // Stage 2 (parallel): one tier-2 search per unique structure.
  stage_span.reset();
  stage_span.emplace("census-canonicalize",
                     "unique=" + std::to_string(representative.size()));
  std::vector<std::string> encodings(representative.size());
  run_indexed(pool, representative.size(), [&](std::size_t k) {
    thread_local BallScratch scratch;
    const BallSlice s = scratch.extract(hs, representative[k], radius);
    encodings[k] =
        canonical_form(s.local, slice_payloads(s, payloads), max_leaves)
            .encoding;
  });
  stage_span.reset();

  // Stage 3: fold unique structures into classes (distinct structures can
  // share a canonical form) and scatter in node order. Slots are ordered
  // by first-occurrence node, so the first slot of a class names the
  // class's first host node as its representative.
  std::vector<std::size_t> class_of_slot(representative.size());
  {
    std::unordered_map<std::string_view, std::size_t> class_ids;
    for (std::size_t k = 0; k < representative.size(); ++k) {
      const auto [it, inserted] =
          class_ids.emplace(encodings[k], class_ids.size());
      if (inserted) {
        result.class_representative.push_back(representative[k]);
        result.class_encoding.push_back(encodings[k]);
      }
      class_of_slot[k] = it->second;
    }
    result.distinct = static_cast<std::int64_t>(class_ids.size());
  }
  result.class_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.class_of[i] = class_of_slot[slot[i]];
  }
  return result;
}

CanonicalizationCounters canonicalization_counters() {
  ensure_canon_metrics_registered();
  CanonicalizationCounters out;
  out.forms = g_forms.load(std::memory_order_relaxed);
  out.census_balls = g_census_balls.load(std::memory_order_relaxed);
  out.census_raw_hits = g_census_raw_hits.load(std::memory_order_relaxed);
  return out;
}

bool isomorphic(CsrSpan a, const std::vector<std::string>& payload_a,
                CsrSpan b, const std::vector<std::string>& payload_b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  return canonical_form(a, payload_a).encoding ==
         canonical_form(b, payload_b).encoding;
}

bool isomorphic(CsrSpan a, CsrSpan b) {
  return isomorphic(
      a, std::vector<std::string>(static_cast<std::size_t>(a.n)), b,
      std::vector<std::string>(static_cast<std::size_t>(b.n)));
}

}  // namespace locald::graph
