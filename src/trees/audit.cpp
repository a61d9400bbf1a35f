#include "trees/audit.h"

#include <string>

#include "graph/generators.h"
#include "local/ball.h"

namespace locald::trees {

TreeAuditResult audit_tree_coverage(const TreeParams& p,
                                    std::uint64_t max_nodes,
                                    std::uint64_t canonical_sample,
                                    Rng& rng) {
  const Coord R = p.capital_R();
  const std::uint64_t n = (std::uint64_t{1} << (R + 1)) - 1;
  const bool exhaustive = max_nodes == 0 || max_nodes >= n;
  const std::uint64_t count = exhaustive ? n : max_nodes;

  // T_r itself is never built (T_3 has 4.2M nodes): each checked ball of
  // T_r is cut from its closed neighbourhood, built from coordinates. Both
  // hosts are a few nodes, so a host-sized remap is the small one.
  local::BallScratch scratch;
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

    if (contained && result.canonical_checked < canonical_sample) {
      ++result.canonical_checked;
      const local::LabeledGraph around = build_T_neighbourhood(p, x, y);
      const std::string in_T =
          scratch.extract(around, nullptr, 0, 1).canonical_encoding();
      const local::LabeledGraph instance =
          build_patch_instance(p, *witness);
      const std::string in_H =
          scratch.extract(instance, nullptr, witness->index_of(x, y), 1)
              .canonical_encoding();
      if (in_T != in_H) {
        ++result.canonical_mismatch;
      }
    }
  }
  return result;
}

}  // namespace locald::trees
