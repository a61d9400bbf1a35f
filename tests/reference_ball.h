// Independent reference for radius-t ball extraction, for the oracle suites.
//
// A whole-host BFS and an edge-list induced-subgraph builder, written
// without any of the library's extraction code (graph/ball_slice.h), so the
// suites that check that code do not check it against itself. It follows
// the library's ordering contract — centre first, then each BFS layer by
// ascending host id — so a correct extraction matches it byte for byte.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "support/check.h"

namespace locald::graph::reference {

// Nodes within distance `radius` of src, in (distance, host id) order.
inline std::vector<NodeId> nodes_within(CsrSpan g, NodeId src, int radius) {
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  g.check_node(src);
  std::vector<int> dist(static_cast<std::size_t>(g.node_count()), -1);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int next = dist[static_cast<std::size_t>(u)] + 1;
    if (next > radius) {
      continue;
    }
    for (NodeId w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] = next;
        queue.push_back(w);
      }
    }
  }
  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (dist[static_cast<std::size_t>(v)] >= 0) {
      members.push_back(v);
    }
  }
  const auto by_distance = [&](NodeId a, NodeId b) {
    return dist[static_cast<std::size_t>(a)] <
           dist[static_cast<std::size_t>(b)];
  };
  std::stable_sort(members.begin(), members.end(), by_distance);
  return members;
}

struct InducedSubgraph {
  CsrGraph graph;
  // to_parent[i] = host id of subgraph node i.
  std::vector<NodeId> to_parent;
  // host id -> subgraph id (only nodes that were kept).
  std::map<NodeId, NodeId> from_parent;
};

// Induced subgraph on `nodes`, which must be distinct host nodes. Subgraph
// node i corresponds to nodes[i], preserving the caller's ordering.
inline InducedSubgraph induced_subgraph(CsrSpan g,
                                        const std::vector<NodeId>& nodes) {
  InducedSubgraph out;
  out.to_parent = nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    g.check_node(nodes[i]);
    LOCALD_CHECK(out.from_parent.emplace(nodes[i], static_cast<NodeId>(i))
                     .second,
                 "induced node list contains a duplicate");
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (NodeId w : g.neighbors(nodes[i])) {
      const auto it = out.from_parent.find(w);
      if (it != out.from_parent.end() && static_cast<NodeId>(i) < it->second) {
        edges.emplace_back(static_cast<NodeId>(i), it->second);
      }
    }
  }
  out.graph = CsrGraph::from_edges(static_cast<NodeId>(nodes.size()), edges);
  return out;
}

// B(v, radius) as the reference builds it: centre is subgraph node 0.
inline InducedSubgraph ball(CsrSpan g, NodeId v, int radius) {
  return induced_subgraph(g, nodes_within(g, v, radius));
}

}  // namespace locald::graph::reference
