// Golden equivalence suite for the CSR graph core (graph/csr.h).
//
// The CSR redesign replaced the mutable vector-of-vectors graph with an
// immutable offsets/adj pair reachable by three construction routes:
// freezing a GraphBuilder, CsrGraph::from_edges, and deep-copying a
// CsrSpan. This suite pins the routes to each other and to independent
// reference implementations — edge lists, neighbour iteration order, BFS
// ball membership — and checks ball extraction under both remaps
// (graph/ball_slice.h) against the tests/ reference builder
// (reference_ball.h), then locks the bulk
// canonical census to byte-identical output across every registered
// family, a grid of sizes, and serial / 2-thread / 4-thread pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "gen/family.h"
#include "graph/algorithms.h"
#include "graph/ball_slice.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "halting/gmr.h"
#include "local/ball.h"
#include "reference_ball.h"
#include "support/check.h"
#include "support/rng.h"
#include "tm/zoo.h"

namespace locald::graph {
namespace {

// A mixed bag of topologies covering degenerate, regular, and irregular
// adjacency shapes; every structural test below sweeps all of them.
std::vector<CsrGraph> sample_graphs() {
  std::vector<CsrGraph> graphs;
  graphs.emplace_back();                          // empty
  graphs.push_back(CsrGraph::from_edges(1, {}));  // isolated node
  graphs.push_back(CsrGraph::from_edges(4, {}));  // several isolated nodes
  graphs.push_back(make_path(7));
  graphs.push_back(make_cycle(8));
  graphs.push_back(make_complete(5));
  graphs.push_back(make_star(6));
  graphs.push_back(make_random_connected(40, 25, 901));
  graphs.push_back(make_random_tree(30, 902));
  graphs.push_back(make_random_gnp(25, 0.2, 903));
  return graphs;
}

// ---------------------------------------------------------------------------
// Construction routes agree
// ---------------------------------------------------------------------------

TEST(CsrConstruction, BuilderFromEdgesAndSpanCopyAgree) {
  for (const CsrGraph& g : sample_graphs()) {
    const auto edges = g.edges();

    GraphBuilder builder(g.node_count());
    for (const auto& [u, v] : edges) {
      builder.add_edge(u, v);
    }
    const CsrGraph from_builder = builder.build();
    const CsrGraph from_list = CsrGraph::from_edges(g.node_count(), edges);
    const CsrGraph from_span = CsrGraph(g.span());

    EXPECT_TRUE(from_builder == g);
    EXPECT_TRUE(from_list == g);
    EXPECT_TRUE(from_span == g);
    EXPECT_EQ(from_builder.edges(), edges);
    EXPECT_EQ(from_list.edges(), edges);
  }
}

TEST(CsrConstruction, FromEdgesIsInsertionOrderIndependent) {
  const CsrGraph reference = make_random_connected(30, 20, 904);
  auto edges = reference.edges();
  // Reversed and interleaved orders must freeze to the same arrays.
  std::reverse(edges.begin(), edges.end());
  EXPECT_TRUE(CsrGraph::from_edges(reference.node_count(), edges) == reference);
  std::vector<std::pair<NodeId, NodeId>> swapped;
  for (const auto& [u, v] : edges) {
    swapped.emplace_back(v, u);  // endpoint order must not matter either
  }
  EXPECT_TRUE(CsrGraph::from_edges(reference.node_count(), swapped) ==
              reference);
}

TEST(CsrConstruction, FromEdgesRejectsMalformedInput) {
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 0}}), Error);        // loop
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 3}}), Error);        // out of range
  EXPECT_THROW(CsrGraph::from_edges(3, {{-1, 1}}), Error);       // negative id
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 1}, {1, 0}}), Error);  // duplicate
}

TEST(CsrConstruction, OffsetsAndRowsAreCanonical) {
  for (const CsrGraph& g : sample_graphs()) {
    const CsrSpan s = g.span();
    ASSERT_EQ(s.offsets[0], 0u);
    std::size_t directed = 0;
    for (NodeId v = 0; v < s.node_count(); ++v) {
      const NeighborSpan row = s.neighbors(v);
      EXPECT_EQ(row.size(), static_cast<std::size_t>(s.degree(v)));
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
      EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end());
      directed += row.size();
    }
    EXPECT_EQ(directed, 2 * g.edge_count());
  }
}

// ---------------------------------------------------------------------------
// Read API vs builder reference
// ---------------------------------------------------------------------------

TEST(CsrEquivalence, NeighborIterationMatchesBuilderRows) {
  for (const CsrGraph& g : sample_graphs()) {
    GraphBuilder builder(g.node_count());
    for (const auto& [u, v] : g.edges()) {
      builder.add_edge(u, v);
    }
    ASSERT_EQ(builder.node_count(), g.node_count());
    ASSERT_EQ(builder.edge_count(), g.edge_count());
    EXPECT_EQ(builder.max_degree(), g.max_degree());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(builder.degree(v), g.degree(v));
      // Same neighbours in the same (ascending) order.
      EXPECT_EQ(g.neighbors(v).to_vector(), builder.neighbors(v));
      for (NodeId u = 0; u < g.node_count(); ++u) {
        EXPECT_EQ(g.has_edge(v, u), builder.has_edge(v, u));
      }
    }
  }
}

TEST(CsrEquivalence, BfsBallMembershipMatchesAdjacencyListReference) {
  for (const CsrGraph& g : sample_graphs()) {
    if (g.node_count() == 0) {
      continue;
    }
    // Independent dense-matrix BFS: no CSR code on this side.
    const auto n = static_cast<std::size_t>(g.node_count());
    std::vector<std::vector<bool>> adjacent(n, std::vector<bool>(n, false));
    for (const auto& [u, v] : g.edges()) {
      adjacent[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = true;
      adjacent[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = true;
    }
    for (NodeId src : {NodeId{0}, g.node_count() - 1}) {
      std::vector<int> expected(n, -1);
      expected[static_cast<std::size_t>(src)] = 0;
      for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t u = 0; u < n; ++u) {
          if (expected[u] < 0) continue;
          for (std::size_t v = 0; v < n; ++v) {
            if (adjacent[u][v] &&
                (expected[v] < 0 || expected[v] > expected[u] + 1)) {
              expected[v] = expected[u] + 1;
              changed = true;
            }
          }
        }
      }
      EXPECT_EQ(bfs_distances(g, src), expected);
      for (int radius : {0, 1, 2, 3}) {
        std::vector<NodeId> want;
        for (std::size_t v = 0; v < n; ++v) {
          if (expected[v] >= 0 && expected[v] <= radius) {
            want.push_back(static_cast<NodeId>(v));
          }
        }
        std::vector<NodeId> got = reference::nodes_within(g, src, radius);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
      }
    }
  }
}

// Both remaps must reproduce the tests/ reference ball exactly: members in
// (distance, host id) order, centre first, and the induced rows byte for
// byte.
template <class Scratch>
void expect_reference_ball(Scratch& scratch, const CsrGraph& g, NodeId v,
                           int radius) {
  const BallSlice slice = scratch.extract(g, v, radius);
  const reference::InducedSubgraph want = reference::ball(g, v, radius);
  ASSERT_EQ(slice.center, 0);
  ASSERT_EQ(slice.radius, radius);
  ASSERT_EQ(std::vector<NodeId>(slice.to_host,
                                slice.to_host + slice.local.node_count()),
            want.to_parent)
      << "node " << v << " radius " << radius;
  ASSERT_TRUE(CsrGraph(slice.local) == want.graph)
      << "node " << v << " radius " << radius;
}

TEST(CsrEquivalence, BothRemapsMatchTheReferenceBall) {
  // One scratch of each kind, reused across every host of the sweep.
  BallScratch dense;
  SparseBallScratch sparse;
  for (const CsrGraph& g : sample_graphs()) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (int radius : {0, 1, 2, 3}) {
        expect_reference_ball(dense, g, v, radius);
        expect_reference_ball(sparse, g, v, radius);
      }
    }
  }
}

TEST(CsrEquivalence, LargeAndHubBallsGrowTheBallRemap) {
  BallScratch dense;
  SparseBallScratch sparse;
  // A hub ball far past the table's first 32 entries, and a leaf ball
  // that reaches it at radius 2.
  const CsrGraph star = make_star(500);
  for (NodeId v : {NodeId{0}, NodeId{1}, NodeId{500}}) {
    for (int radius : {1, 2}) {
      expect_reference_ball(dense, star, v, radius);
      expect_reference_ball(sparse, star, v, radius);
    }
  }
  // Balls of a few hundred nodes with edges inside every layer.
  const CsrGraph grid = make_grid(40, 40);
  for (NodeId v : {NodeId{0}, NodeId{820}, NodeId{1599}}) {
    for (int radius : {4, 9, 15}) {
      expect_reference_ball(dense, grid, v, radius);
      expect_reference_ball(sparse, grid, v, radius);
    }
  }
}

TEST(CsrEquivalence, LayersOfManyInterleavedRunsMatchTheReferenceBall) {
  // A BFS layer arrives as one ascending run per frontier node and is
  // merged, not sorted. Two hosts whose layers hold many interleaved runs:
  // G(M, r), whose pivot is glued to border cells of every fragment (the
  // radius-2 ball of a fragment border cell holds the pivot's whole
  // neighbourhood), and a random graph whose ids are shuffled so that
  // every row scatters over the id range.
  tm::FragmentPolicy policy;
  policy.max_fragments = 40;
  policy.seed = 7;
  const halting::GmrInstance gmr = halting::build_gmr(
      halting::GmrParams{tm::halt_after(2, 0), 1, 3, policy, false, 4096});
  ASSERT_GT(gmr.graph.graph().degree(gmr.pivot), 40);

  const CsrGraph base = make_random_connected(120, 300, 905);
  std::vector<NodeId> perm(static_cast<std::size_t>(base.node_count()));
  std::iota(perm.begin(), perm.end(), NodeId{0});
  Rng rng(906);
  rng.shuffle(perm);
  auto edges = base.edges();
  for (auto& [u, v] : edges) {
    u = perm[static_cast<std::size_t>(u)];
    v = perm[static_cast<std::size_t>(v)];
  }
  const CsrGraph shuffled = CsrGraph::from_edges(base.node_count(), edges);

  BallScratch dense;
  SparseBallScratch sparse;
  for (const CsrGraph* g : {&gmr.graph.graph(), &shuffled}) {
    for (NodeId v = 0; v < g->node_count(); ++v) {
      for (int radius : {0, 1, 2, 3}) {
        expect_reference_ball(dense, *g, v, radius);
        expect_reference_ball(sparse, *g, v, radius);
      }
    }
  }
}

TEST(CsrEquivalence, ScratchReuseAcrossHostsOfDifferentSizes) {
  // Per-thread scratches move between hosts: the remap must forget a large
  // host's ball before a small host's, and the small host's before the
  // large host's again.
  const CsrGraph large = make_grid(300, 300);
  const CsrGraph small = make_cycle(9);
  BallScratch dense;
  SparseBallScratch sparse;
  for (int round = 0; round < 2; ++round) {
    for (NodeId v : {NodeId{0}, NodeId{45150}, NodeId{89999}}) {
      expect_reference_ball(dense, large, v, 6);
      expect_reference_ball(sparse, large, v, 6);
    }
    for (NodeId v = 0; v < small.node_count(); ++v) {
      expect_reference_ball(dense, small, v, 2);
      expect_reference_ball(sparse, small, v, 2);
    }
  }
  expect_reference_ball(dense, large, 45150, 6);
  expect_reference_ball(sparse, large, 45150, 6);
}

TEST(CsrEquivalence, OwningBallEncodesLikeTheSweepView) {
  // local::extract_ball (ball-sized remap, owning copy) and a sweep's
  // host-remap view must give every ball the same canonical encoding,
  // labels and identifiers included.
  local::BallScratch scratch;
  for (const char* selector :
       {"grid", "hypercube", "complete-bipartite", "gnp", "caterpillar"}) {
    const CsrGraph g = gen::resolve_family_text(selector, 40).build(5);
    const NodeId n = g.node_count();
    std::vector<local::Label> labels;
    std::vector<local::Id> ids;
    for (NodeId v = 0; v < n; ++v) {
      labels.push_back(local::Label{v % 3});
      ids.push_back(n - v);
    }
    const local::LabeledGraph host(g, std::move(labels));
    const local::IdAssignment assignment(std::move(ids));
    const local::IdAssignment* const stripped = nullptr;
    for (NodeId v = 0; v < n; ++v) {
      for (const local::IdAssignment* with : {stripped, &assignment}) {
        const std::string owned =
            local::extract_ball(host, with, v, 2).view().canonical_encoding();
        EXPECT_EQ(owned, scratch.extract(host, with, v, 2).canonical_encoding())
            << selector << " node " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Census: byte identity across families, sizes, and thread counts
// ---------------------------------------------------------------------------

TEST(CsrCensus, RegistryHoldsTheFullFamilyGrid) {
  EXPECT_GE(gen::family_registry().size(), 12u);
}

TEST(CsrCensus, ByteIdenticalAcrossFamiliesSizesAndThreads) {
  exec::ThreadPool two(2);
  exec::ThreadPool four(4);
  for (const gen::Family& family : gen::family_registry()) {
    for (int size : {24, 60}) {
      const gen::FamilyInstanceSpec spec =
          gen::resolve_family_text(family.name, size);
      const CsrGraph g = spec.build(5);
      const std::vector<std::string> payloads(
          static_cast<std::size_t>(g.node_count()));
      const BallCensusResult serial = canonical_census(g, payloads, 2);
      for (exec::ThreadPool* pool : {&two, &four}) {
        const BallCensusResult pooled = canonical_census(g, payloads, 2, pool);
        ASSERT_EQ(serial.class_of, pooled.class_of)
            << family.name << " size " << size;
        ASSERT_EQ(serial.class_representative, pooled.class_representative)
            << family.name << " size " << size;
        ASSERT_EQ(serial.class_encoding, pooled.class_encoding)
            << family.name << " size " << size;
        EXPECT_EQ(serial.distinct, pooled.distinct);
      }
    }
  }
}

TEST(CsrCensus, EncodingsMatchPerBallCanonicalForm) {
  BallScratch scratch;
  for (const gen::Family& family : gen::family_registry()) {
    const gen::FamilyInstanceSpec spec =
        gen::resolve_family_text(family.name, 24);
    const CsrGraph g = spec.build(5);
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(g.node_count()));
    const BallCensusResult census = canonical_census(g, payloads, 2);
    for (NodeId v = 0; v < g.node_count(); v += 5) {
      const BallSlice slice = scratch.extract(g, v, 2);
      // Centre-marked payloads, matching the census's "C"/"N" scheme.
      std::vector<std::string> marked(
          static_cast<std::size_t>(slice.local.node_count()), "N");
      marked[0] = "C";
      EXPECT_EQ(canonical_form(slice.local, marked).encoding,
                census.encoding_of(v))
          << family.name << " node " << v;
    }
  }
}

}  // namespace
}  // namespace locald::graph
