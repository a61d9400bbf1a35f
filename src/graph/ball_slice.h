// Radius-t ball slices over a host CSR graph: one extraction for every ball.
//
// A `BallSlice` is what a local algorithm sees at a node: the induced
// subgraph on B(v, t), renumbered to dense local ids, as an index view into
// a reusable scratch arena (a host→local remap plus row buffers), so the
// next extraction reuses every allocation. `OwnedBallSlice` copies a slice
// that must outlive its scratch.
//
// One BFS + row-assembly routine serves every ball; the scratch type picks
// the remap. `BallScratch` (`HostRemap`, a host-sized array reset sparsely
// from the previous ball: 4 B per host node, one read per edge) serves
// sweeps over every node of a host. `SparseBallScratch` (`BallRemap`, an
// open-addressed table sized to the ball) serves one-off balls
// (`local::extract_ball`), whose cost then scales with the ball rather
// than the host.
//
// Ordering contract, identical for both remaps: local id 0 is the centre;
// each BFS layer is appended sorted by ascending host id; every adjacency
// row is sorted by local id. Every canonical encoding depends on it. No
// step sorts: host rows are ascending, so a layer arrives as one ascending
// run per frontier node, and the runs are merged (O(n log runs)); rows are
// assembled from per-layer buckets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace locald::graph {

struct BallSlice {
  CsrSpan local;                     // adjacency over local ids
  const NodeId* to_host = nullptr;   // local -> host, (distance, host id) order
  NodeId center = 0;                 // local id of the centre (always 0)
  int radius = 0;
};

// Owning copy of a slice (adjacency rows, local -> host map).
struct OwnedBallSlice {
  OwnedBallSlice() = default;
  explicit OwnedBallSlice(const BallSlice& s)
      : local(s.local),
        to_host(s.to_host, s.to_host + s.local.n),
        center(s.center),
        radius(s.radius) {}

  BallSlice view() const {
    return BallSlice{local.span(), to_host.data(), center, radius};
  }

  CsrGraph local;
  std::vector<NodeId> to_host;
  NodeId center = 0;
  int radius = 0;
};

// Host -> local remaps. Between extractions a remap holds exactly the
// previous ball's members; `reset` forgets them. `claim` marks a host node
// as a member (true iff it was not one yet); `set` gives a claimed node its
// local id once its BFS layer is sorted; `find` answers kNoLocal for
// non-members.
inline constexpr NodeId kNoLocal = -1;

class HostRemap {
 public:
  void reset(NodeId host_n, const std::vector<NodeId>& previous_members);
  bool claim(NodeId h) {
    NodeId& l = local_of_[static_cast<std::size_t>(h)];
    if (l != kNoLocal) {
      return false;
    }
    l = 0;
    return true;
  }
  void set(NodeId h, NodeId l) { local_of_[static_cast<std::size_t>(h)] = l; }
  NodeId find(NodeId h) const { return local_of_[static_cast<std::size_t>(h)]; }

 private:
  std::vector<NodeId> local_of_;  // kNoLocal outside the current ball
};

class BallRemap {
 public:
  void reset(NodeId /*host_n*/, const std::vector<NodeId>& /*previous*/) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }
  bool claim(NodeId h);
  void set(NodeId h, NodeId l);
  NodeId find(NodeId h) const;

 private:
  struct Slot {
    NodeId host = kNoLocal;  // kNoLocal marks an empty slot
    NodeId local = 0;
  };
  std::size_t probe(NodeId h) const;

  // Open addressing with linear probing; a power of two, at most half full.
  std::vector<Slot> slots_ = std::vector<Slot>(64);
  std::size_t size_ = 0;
  int shift_ = 64 - 6;  // 64 - log2(slots_.size())
};

// Reusable extraction arena. The returned slice aliases the scratch and is
// valid until the next extract() or destruction.
template <class Remap>
class BasicBallScratch {
 public:
  BasicBallScratch() = default;
  BasicBallScratch(const BasicBallScratch&) = delete;
  BasicBallScratch& operator=(const BasicBallScratch&) = delete;

  BallSlice extract(const CsrSpan& host, NodeId v, int radius);

 private:
  // Sorts the layer members_[begin..] from its ascending runs.
  void merge_layer(std::size_t begin);

  Remap remap_;                       // host -> local for members_
  std::vector<NodeId> members_;       // local -> host
  std::vector<NodeId> layer_begin_;   // local id starting each BFS layer
  std::vector<NodeId> row_own_;       // same-layer bucket of the current row
  std::vector<NodeId> row_above_;     // next-layer bucket of the current row
  std::vector<EdgeIndex> offsets_;
  std::vector<NodeId> adj_;
  // merge_layer's state: where each ascending run of the layer being built
  // ends (offsets into the layer), and the buffer it merges into.
  std::vector<std::size_t> run_ends_;
  std::vector<NodeId> merge_buf_;
};

using BallScratch = BasicBallScratch<HostRemap>;
using SparseBallScratch = BasicBallScratch<BallRemap>;

}  // namespace locald::graph
