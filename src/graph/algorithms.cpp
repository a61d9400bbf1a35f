#include "graph/algorithms.h"

#include <algorithm>
#include <deque>

namespace locald::graph {

std::vector<int> bfs_distances(CsrSpan g, NodeId src, int max_dist) {
  LOCALD_CHECK(src >= 0 && src < g.node_count(), "bfs source out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.node_count()), kUnreached);
  std::deque<NodeId> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (max_dist >= 0 && dist[u] >= max_dist) {
      continue;
    }
    for (NodeId w : g.neighbors(u)) {
      if (dist[w] == kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

bool is_connected(CsrSpan g) {
  if (g.node_count() <= 1) {
    return true;
  }
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d == kUnreached; });
}

std::vector<int> connected_components(CsrSpan g, int* component_count) {
  std::vector<int> comp(static_cast<std::size_t>(g.node_count()), -1);
  int count = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (comp[s] != -1) {
      continue;
    }
    comp[s] = count;
    std::deque<NodeId> queue{s};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (comp[w] == -1) {
          comp[w] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  if (component_count != nullptr) {
    *component_count = count;
  }
  return comp;
}

int eccentricity(CsrSpan g, NodeId v) {
  const auto dist = bfs_distances(g, v);
  int ecc = 0;
  for (int d : dist) {
    if (d == kUnreached) {
      return kUnreached;
    }
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(CsrSpan g) {
  int best = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const int e = eccentricity(g, v);
    if (e == kUnreached) {
      return kUnreached;
    }
    best = std::max(best, e);
  }
  return best;
}

bool is_bipartite(CsrSpan g) {
  std::vector<int> side(static_cast<std::size_t>(g.node_count()), -1);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (side[s] != -1) {
      continue;
    }
    side[s] = 0;
    std::deque<NodeId> queue{s};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (side[w] == -1) {
          side[w] = side[u] ^ 1;
          queue.push_back(w);
        } else if (side[w] == side[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::optional<std::vector<NodeId>> shortest_path(CsrSpan g, NodeId src,
                                                 NodeId dst) {
  LOCALD_CHECK(dst >= 0 && dst < g.node_count(), "destination out of range");
  const auto dist = bfs_distances(g, src);
  if (dist[dst] == kUnreached) {
    return std::nullopt;
  }
  std::vector<NodeId> path{dst};
  NodeId cur = dst;
  while (cur != src) {
    for (NodeId w : g.neighbors(cur)) {
      if (dist[w] == dist[cur] - 1) {
        cur = w;
        path.push_back(cur);
        break;
      }
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool is_cycle_graph(CsrSpan g) {
  if (g.node_count() < 3 || !is_connected(g)) {
    return false;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) != 2) {
      return false;
    }
  }
  return true;
}

bool is_path_graph(CsrSpan g) {
  if (g.node_count() == 0 || !is_connected(g)) {
    return false;
  }
  if (g.node_count() == 1) {
    return true;
  }
  int endpoints = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const NodeId d = g.degree(v);
    if (d == 1) {
      ++endpoints;
    } else if (d != 2) {
      return false;
    }
  }
  return endpoints == 2;
}

bool is_tree(CsrSpan g) {
  if (g.node_count() == 0) {
    return false;
  }
  return is_connected(g) &&
         g.edge_count() == static_cast<std::size_t>(g.node_count()) - 1;
}

}  // namespace locald::graph
