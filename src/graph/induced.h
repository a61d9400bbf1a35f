// Induced subgraphs with bidirectional node maps.
//
// The owning, general-subset counterpart of the zero-copy slice arena in
// graph/ball_slice.h. Two users remain: the tests, which check the arena and
// the ball census against nodes_within + induced_subgraph as an independent
// oracle, and local::extract_ball, the owning ball extraction.
#pragma once

#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace locald::graph {

struct InducedSubgraph {
  CsrGraph graph;
  // to_parent[i] = host id of subgraph node i.
  std::vector<NodeId> to_parent;
  // host id -> subgraph id (only nodes that were kept).
  std::unordered_map<NodeId, NodeId> from_parent;
};

// Induced subgraph on `nodes` (must be distinct). Subgraph node i corresponds
// to nodes[i], preserving the caller's ordering.
InducedSubgraph induced_subgraph(CsrSpan g, const std::vector<NodeId>& nodes);

}  // namespace locald::graph
