#include "graph/ball_slice.h"

#include <algorithm>

namespace locald::graph {

void HostRemap::reset(NodeId host_n,
                      const std::vector<NodeId>& previous_members) {
  // Sparse reset: only the previous ball's entries are set. The array only
  // grows, so entries of a larger host used before stay in range.
  for (NodeId h : previous_members) {
    local_of_[static_cast<std::size_t>(h)] = kNoLocal;
  }
  if (local_of_.size() < static_cast<std::size_t>(host_n)) {
    local_of_.resize(static_cast<std::size_t>(host_n), kNoLocal);
  }
}

std::size_t BallRemap::probe(NodeId h) const {
  // Fibonacci hashing (the top bits of a golden-ratio product), then
  // linear probing to h's slot or the empty slot where h would go.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h)) *
       0x9E3779B97F4A7C15ULL) >>
      shift_);
  while (slots_[i].host != h && slots_[i].host != kNoLocal) {
    i = (i + 1) & mask;
  }
  return i;
}

bool BallRemap::claim(NodeId h) {
  if (2 * (size_ + 1) > slots_.size()) {  // keep the table at most half full
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.host != kNoLocal) {
        slots_[probe(s.host)] = s;
      }
    }
  }
  Slot& slot = slots_[probe(h)];
  if (slot.host == h) {
    return false;
  }
  slot = Slot{h, 0};
  ++size_;
  return true;
}

void BallRemap::set(NodeId h, NodeId l) { slots_[probe(h)].local = l; }

NodeId BallRemap::find(NodeId h) const {
  const Slot& slot = slots_[probe(h)];
  return slot.host == h ? slot.local : kNoLocal;
}

template <class Remap>
BallSlice BasicBallScratch<Remap>::extract(const CsrSpan& host, NodeId v,
                                           int radius) {
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  host.check_node(v);
  remap_.reset(host.n, members_);

  members_.clear();
  remap_.claim(v);
  members_.push_back(v);
  layer_begin_.clear();
  layer_begin_.push_back(0);
  std::size_t frontier_begin = 0;
  for (int d = 0; d < radius; ++d) {
    const std::size_t frontier_end = members_.size();
    if (frontier_begin == frontier_end) {
      break;
    }
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      for (NodeId w : host.neighbors(members_[i])) {
        if (remap_.claim(w)) {
          members_.push_back(w);
        }
      }
    }
    std::sort(members_.begin() + static_cast<std::ptrdiff_t>(frontier_end),
              members_.end());
    layer_begin_.push_back(static_cast<NodeId>(frontier_end));
    frontier_begin = frontier_end;
  }
  layer_begin_.push_back(static_cast<NodeId>(members_.size()));

  const NodeId b = static_cast<NodeId>(members_.size());
  for (NodeId i = 0; i < b; ++i) {
    remap_.set(members_[static_cast<std::size_t>(i)], i);
  }

  // Row assembly without a per-row sort: host rows are ascending in host
  // id, and local ids are assigned in (BFS layer, host id) order, so
  // within one layer the mapped local ids arrive already ascending. A
  // member's in-ball neighbours span at most the layer below, its own,
  // and the layer above — three ascending runs occupying disjoint,
  // increasing local-id ranges. Bucketing each mapped id by layer and
  // concatenating the buckets therefore yields the sorted row in O(deg),
  // which is what keeps dense balls (complete-bipartite censuses) cheap.
  offsets_.assign(static_cast<std::size_t>(b) + 1, 0);
  adj_.clear();
  std::size_t layer = 0;  // members_[u]'s layer; u ascends, so walk forward
  for (NodeId u = 0; u < b; ++u) {
    while (layer_begin_[layer + 1] <= u) {
      ++layer;
    }
    const NodeId own_begin = layer_begin_[layer];
    const NodeId above_begin = layer_begin_[layer + 1];
    row_own_.clear();
    row_above_.clear();
    for (NodeId w : host.neighbors(members_[static_cast<std::size_t>(u)])) {
      const NodeId l = remap_.find(w);
      if (l == kNoLocal) {
        continue;
      }
      if (l < own_begin) {
        adj_.push_back(l);  // layer below: lands first, in place
      } else if (l < above_begin) {
        row_own_.push_back(l);
      } else {
        row_above_.push_back(l);
      }
    }
    adj_.insert(adj_.end(), row_own_.begin(), row_own_.end());
    adj_.insert(adj_.end(), row_above_.begin(), row_above_.end());
    offsets_[static_cast<std::size_t>(u) + 1] =
        static_cast<EdgeIndex>(adj_.size());
  }

  return BallSlice{CsrSpan{b, offsets_.data(), adj_.data()}, members_.data(),
                   0, radius};
}

template class BasicBallScratch<HostRemap>;
template class BasicBallScratch<BallRemap>;

}  // namespace locald::graph
