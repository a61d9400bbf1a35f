#include "trees/audit.h"

#include "graph/generators.h"
#include "local/ball.h"

namespace locald::trees {

namespace {

// Stripped radius-1 ball of the node with coordinates (x, y) in `g`.
local::Ball ball_of_coords(const local::LabeledGraph& g, int r, Coord x,
                           Coord y) {
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const local::Label& l = g.label(v);
    if (l.size() == 4 && l.at(0) == kTreeTag && l.at(1) == r &&
        l.at(2) == x && l.at(3) == y) {
      return extract_ball(g, nullptr, v, 1);
    }
  }
  LOCALD_ASSERT(false, "coordinates not found in instance");
  return {};
}

}  // namespace

TreeAuditResult audit_tree_coverage(const TreeParams& p,
                                    std::uint64_t max_nodes,
                                    std::uint64_t canonical_sample,
                                    Rng& rng) {
  const Coord R = p.capital_R();
  const std::uint64_t n = (std::uint64_t{1} << (R + 1)) - 1;
  const bool exhaustive = max_nodes == 0 || max_nodes >= n;
  const std::uint64_t count = exhaustive ? n : max_nodes;

  // Build T_r lazily only if canonical comparisons are requested.
  std::unique_ptr<local::LabeledGraph> T;
  if (canonical_sample > 0) {
    T = std::make_unique<local::LabeledGraph>(build_T(p));
  }

  TreeAuditResult result;
  for (std::uint64_t i = 0; i < count; ++i) {
    const graph::NodeId v = static_cast<graph::NodeId>(
        exhaustive ? i : rng.below(n));
    const Coord y = graph::TreeIndex::level(v);
    const Coord x = graph::TreeIndex::offset(v);
    ++result.nodes_audited;

    const std::optional<Patch> witness = witness_patch(p, x, y);
    const bool contained = witness.has_value() && witness->contains(x, y) &&
                           !is_border(*witness, x, y, R);
    if (contained) {
      ++result.patch_covered;
    }
    if (has_subtree_witness(p, x, y)) {
      ++result.subtree_covered;
    }

    if (contained && T != nullptr &&
        result.canonical_checked < canonical_sample) {
      ++result.canonical_checked;
      const local::Ball in_T = extract_ball(*T, nullptr, v, 1);
      const local::LabeledGraph instance =
          build_patch_instance(p, *witness);
      const local::Ball in_H = ball_of_coords(instance, p.r, x, y);
      if (in_T.view().canonical_encoding() !=
          in_H.view().canonical_encoding()) {
        ++result.canonical_mismatch;
      }
    }
  }
  return result;
}

}  // namespace locald::trees
