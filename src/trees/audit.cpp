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

  // Build T_r lazily only if canonical comparisons are requested.
  std::unique_ptr<local::LabeledGraph> T;
  if (canonical_sample > 0) {
    T = std::make_unique<local::LabeledGraph>(build_T(p));
  }

  // T_r has millions of nodes and only a few sampled balls: a ball-sized
  // remap, not a host-sized one.
  local::SparseBallScratch scratch;
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
      const std::string in_T =
          scratch.extract(*T, nullptr, v, 1).canonical_encoding();
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
