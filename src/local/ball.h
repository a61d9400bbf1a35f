// Radius-t balls (G, x, Id) |` B(v, t) — the entire input of a local
// algorithm.
//
// A ball is the induced substructure on the nodes within distance t of the
// centre, carrying labels and (optionally) identifiers. Everything a local
// algorithm may legally depend on is in here; the simulator passes nothing
// else. An Id-oblivious algorithm receives a ball with the identifiers
// stripped, which makes obliviousness a property enforced by the framework
// rather than a promise of the algorithm author.
//
// `BallView` is the one way to read a ball: a non-owning index slice — a
// `CsrSpan` over scratch- or Ball-owned adjacency rows, a local->host map,
// and borrowed label/id arrays. Views are a few words, copied freely, and
// valid only while their backing storage (a `local::BallScratch`, an owning
// `Ball`, or the id vector passed to `with_ids`) is alive. Sweeps extract
// views from a per-thread `BallScratch`.
//
// `Ball` is plain owning storage (a `CsrGraph` plus label/id vectors), read
// only through `view()`. It backs the event engine's knowledge
// reconstruction (local/event_engine.h, checked against direct ball
// evaluation), and `extract_ball` returns one where a scratch's
// host-sized arrays would cost more than the copy (the tree audit's few
// sampled balls of a multi-million-node T_r).
//
// `canonical_encoding` is a complete isomorphism invariant of the ball
// (centre distinguished, labels exact, ids exact when present): two balls
// get equal encodings iff a centre-, label- and id-preserving isomorphism
// exists. Id-oblivious indistinguishability arguments compare encodings of
// stripped balls.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/ball_slice.h"
#include "graph/csr.h"
#include "local/identifiers.h"
#include "local/label.h"
#include "local/labeled_graph.h"

namespace locald::local {

struct BallView {
  graph::CsrSpan g;
  graph::NodeId center = 0;
  int radius = 0;
  // Host node behind each ball node (diagnostics; not visible to algorithms
  // through the canonical encoding). Null for balls reconstructed from
  // message-passing knowledge, which have no single host graph.
  const graph::NodeId* to_host = nullptr;
  // Exactly one of these is non-null: labels indexed by host id (zero-copy
  // views borrow the host graph's label array through `to_host`) or by
  // ball-local id (owning Balls).
  const Label* host_labels = nullptr;
  const Label* local_labels = nullptr;
  // Ball-local identifier array; null iff the ball is stripped.
  const Id* ids = nullptr;

  graph::NodeId node_count() const { return g.node_count(); }
  bool has_ids() const { return ids != nullptr; }

  const Label& label(graph::NodeId v) const {
    LOCALD_CHECK(v >= 0 && v < g.node_count(), "ball node out of range");
    return local_labels != nullptr
               ? local_labels[static_cast<std::size_t>(v)]
               : host_labels[static_cast<std::size_t>(
                     to_host[static_cast<std::size_t>(v)])];
  }

  Id id_of(graph::NodeId v) const {
    LOCALD_CHECK(has_ids(), "ball carries no identifiers");
    LOCALD_CHECK(v >= 0 && v < g.node_count(), "ball node out of range");
    return ids[static_cast<std::size_t>(v)];
  }

  Id center_id() const { return id_of(center); }
  const Label& center_label() const { return label(center); }

  // Same ball with identifiers removed (a shallow view copy).
  BallView without_ids() const {
    BallView out = *this;
    out.ids = nullptr;
    return out;
  }

  // Same ball with identifiers replaced (used by the Id-oblivious
  // simulation A* to test alternative assignments). Sizes must match;
  // values must be one-to-one. The returned view BORROWS `new_ids`; the
  // caller keeps the vector alive (and unmoved) for the view's lifetime.
  BallView with_ids(const std::vector<Id>& new_ids) const;

  // Complete invariant; see file comment.
  std::string canonical_encoding() const;
  std::uint64_t canonical_fingerprint() const;
};

// Owning ball storage; read it through view().
struct Ball {
  graph::CsrGraph g;
  std::vector<Label> labels;
  // Present iff the receiving algorithm may read identifiers.
  std::optional<std::vector<Id>> ids;
  graph::NodeId center = 0;
  int radius = 0;
  // Host node behind each ball node; empty when there is no host graph.
  std::vector<graph::NodeId> to_host;

  BallView view() const {
    BallView out;
    out.g = g.span();
    out.center = center;
    out.radius = radius;
    out.to_host = to_host.empty() ? nullptr : to_host.data();
    out.local_labels = labels.data();
    out.ids = ids.has_value() ? ids->data() : nullptr;
    return out;
  }
};

// Extract (G, x) |` B(v, radius) as an owning ball; pass `ids` to include
// identifiers. Allocates per call — hot paths use a `BallScratch` instead.
Ball extract_ball(const LabeledGraph& g, const IdAssignment* ids,
                  graph::NodeId v, int radius);

// Reusable zero-copy extraction arena: a graph::BallScratch plus an id
// gather buffer. The returned view aliases this scratch and the host
// graph's label array, and is valid until the next extract() (or the
// scratch's destruction). One BallScratch per thread.
class BallScratch {
 public:
  BallView extract(const LabeledGraph& g, const IdAssignment* ids,
                   graph::NodeId v, int radius);

 private:
  graph::BallScratch scratch_;
  std::vector<Id> ids_;
};

}  // namespace locald::local
