#include "local/event_engine.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <sstream>
#include <tuple>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace locald::local {

namespace {

std::string encode_label(const Label& l) {
  std::string s;
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(l.at(i));
  }
  return s;
}

Label decode_label(const std::string& s) {
  std::vector<std::int64_t> fields;
  if (!s.empty()) {
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      fields.push_back(std::stoll(tok));
    }
  }
  return Label(std::move(fields));
}

std::string encode_ids(const std::vector<Id>& ids) {
  std::string s;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(ids[i]);
  }
  return s;
}

std::vector<Id> decode_ids(const std::string& s) {
  std::vector<Id> ids;
  if (!s.empty()) {
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      ids.push_back(std::stoull(tok));
    }
  }
  return ids;
}

}  // namespace

std::string encode_knowledge(Id self, const Knowledge& k) {
  std::string out = std::to_string(self);
  out += "\n";
  for (const auto& [id, node] : k) {
    LOCALD_ASSERT(id == node.id, "knowledge key must match node id");
    out += std::to_string(id);
    out += "|";
    out += encode_label(node.label);
    out += "|";
    out += encode_ids(node.adj);
    out += "\n";
  }
  return out;
}

std::pair<Id, Knowledge> decode_knowledge(const std::string& payload) {
  std::istringstream is(payload);
  std::string line;
  LOCALD_CHECK(std::getline(is, line), "knowledge payload missing header");
  const Id self = std::stoull(line);
  Knowledge k;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = line.find('|', p1 + 1);
    LOCALD_CHECK(p1 != std::string::npos && p2 != std::string::npos,
                 "malformed knowledge line");
    KnownNode node;
    node.id = std::stoull(line.substr(0, p1));
    node.label = decode_label(line.substr(p1 + 1, p2 - p1 - 1));
    node.adj = decode_ids(line.substr(p2 + 1));
    k.emplace(node.id, std::move(node));
  }
  return {self, std::move(k)};
}

namespace {

// Adjacency knowledge only grows (from the empty initial list to the full
// neighbour set), so merging takes the union.
void merge_into(Knowledge& dst, const Knowledge& src) {
  for (const auto& [id, node] : src) {
    auto [it, fresh] = dst.emplace(id, node);
    if (!fresh) {
      LOCALD_CHECK(it->second.label == node.label,
                   "inconsistent label knowledge for the same id");
      std::vector<Id> merged = it->second.adj;
      merged.insert(merged.end(), node.adj.begin(), node.adj.end());
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      it->second.adj = std::move(merged);
    }
  }
}

}  // namespace

Ball ball_from_knowledge(Id self, const Knowledge& k, int radius) {
  LOCALD_CHECK(k.contains(self), "knowledge must contain the centre");
  // BFS over known adjacency, depth `radius`.
  std::vector<Id> order{self};
  std::map<Id, int> dist{{self, 0}};
  std::size_t head = 0;
  while (head < order.size()) {
    const Id u = order[head++];
    const int du = dist[u];
    if (du >= radius) {
      continue;
    }
    auto it = k.find(u);
    LOCALD_ASSERT(it != k.end(), "BFS reached an unknown node");
    for (Id w : it->second.adj) {
      if (k.contains(w) && !dist.contains(w)) {
        dist[w] = du + 1;
        order.push_back(w);
      }
    }
  }
  // Deterministic node order: (distance, id).
  std::stable_sort(order.begin(), order.end(), [&](Id a, Id b) {
    return std::pair(dist[a], a) < std::pair(dist[b], b);
  });
  std::map<Id, graph::NodeId> index;
  for (std::size_t i = 0; i < order.size(); ++i) {
    index[order[i]] = static_cast<graph::NodeId>(i);
  }
  Ball ball;
  graph::GraphBuilder builder(static_cast<graph::NodeId>(order.size()));
  ball.radius = radius;
  ball.center = index.at(self);
  std::vector<Id> ball_ids;
  for (const Id u : order) {
    const KnownNode& node = k.at(u);
    ball.labels.push_back(node.label);
    ball_ids.push_back(u);
    for (Id w : node.adj) {
      auto it = index.find(w);
      if (it != index.end()) {
        builder.add_edge_if_absent(index.at(u), it->second);
      }
    }
  }
  ball.g = builder.build();
  ball.ids = std::move(ball_ids);
  // to_host is unknown to a message-passing node; leave empty.
  return ball;
}

namespace {

// Process-wide counters bridged into the metrics registry on first use —
// the graph::canonicalization_counters() pattern. Handles are deliberately
// leaked: the counters live for the whole process.
std::atomic<std::uint64_t> g_events_dispatched{0};
std::atomic<std::uint64_t> g_messages_dropped{0};
std::atomic<std::uint64_t> g_messages_fragmented{0};
std::atomic<std::uint64_t> g_messages_delayed{0};
std::atomic<std::uint64_t> g_max_queue_depth{0};

void raise_max(std::atomic<std::uint64_t>& target, std::uint64_t candidate) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !target.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
  }
}

void ensure_event_metrics_registered() {
  static const bool once = [] {
    obs::Registry& reg = obs::registry();
    static std::vector<obs::MetricHandle> handles;
    handles.push_back(reg.counter_fn(
        "locald_event_engine_events_total",
        "Events dispatched by the event-driven message-passing runtime",
        [] { return g_events_dispatched.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_dropped_total",
        "Messages lost after exhausting every transmission attempt",
        [] { return g_messages_dropped.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_fragments_total",
        "Fragments sent for payloads split across events",
        [] { return g_messages_fragmented.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_delayed_total",
        "Messages delivered after their synchronous-round slot",
        [] { return g_messages_delayed.load(std::memory_order_relaxed); }));
    handles.push_back(reg.gauge_fn(
        "locald_event_engine_max_queue_depth",
        "High-water mark of pending events across all runs",
        [] {
          return static_cast<double>(
              g_max_queue_depth.load(std::memory_order_relaxed));
        }));
    return true;
  }();
  (void)once;
}

// Stream-plane salts: distinct logical randomness planes under one seed.
// Each decision is keyed by (salted seed, directed arc, round/attempt/
// fragment index), never by engine state, so the draw a message gets is
// independent of delivery order.
constexpr std::uint64_t kDropPlane = 0xD20Full;
constexpr std::uint64_t kDelayPlane = 0xDE1A7ull;
constexpr std::uint64_t kFragPlane = 0xF2A6ull;

std::uint64_t attempt_index(int round, std::int64_t attempt) {
  return (static_cast<std::uint64_t>(round) << 8) |
         static_cast<std::uint64_t>(attempt);
}

std::uint64_t fragment_index(int round, std::int64_t attempt, std::int64_t i) {
  return (static_cast<std::uint64_t>(round) << 16) |
         (static_cast<std::uint64_t>(attempt) << 8) |
         static_cast<std::uint64_t>(i);
}

// Full-information gathering, the canonical t-round protocol: each round a
// node broadcasts its whole state (everything it knows) and merges its
// inbox into it. t + 1 rounds assemble the exact induced radius-t ball (the
// paper's "t ± 1 rounds" equivalence): edges between two distance-t nodes
// are only reported after those nodes learned their own adjacency in
// round 1.
class FullInfoGather {
 public:
  explicit FullInfoGather(const LocalAlgorithm& inner) : inner_(inner) {}

  int rounds() const { return inner_.horizon() + 1; }

  std::string init(Id id, const Label& label) const {
    Knowledge k;
    k.emplace(id, KnownNode{id, label, {}});
    return encode_knowledge(id, k);
  }

  // The inbox is ordered by neighbour port (ascending node index).
  std::string update(const std::string& state,
                     const std::vector<std::string>& inbox) const {
    auto [self, knowledge] = decode_knowledge(state);
    std::vector<Id> neighbor_ids;
    for (const std::string& msg : inbox) {
      if (msg.empty()) {
        // A lost message: this round taught us nothing about that port.
        // Knowledge merging is a union, so a neighbour heard in any other
        // round still lands in the adjacency.
        continue;
      }
      auto [sender, their] = decode_knowledge(msg);
      neighbor_ids.push_back(sender);
      merge_into(knowledge, their);
    }
    // Learning who the senders are completes this node's own adjacency.
    std::sort(neighbor_ids.begin(), neighbor_ids.end());
    Knowledge own;
    KnownNode me = knowledge.at(self);
    me.adj = neighbor_ids;
    own.emplace(self, std::move(me));
    merge_into(knowledge, own);
    return encode_knowledge(self, knowledge);
  }

  Verdict output(const std::string& state) const {
    auto [self, knowledge] = decode_knowledge(state);
    const Ball ball = ball_from_knowledge(self, knowledge, inner_.horizon());
    BallView view = ball.view();
    if (inner_.id_oblivious()) {
      view = view.without_ids();
    }
    return inner_.evaluate(view);
  }

 private:
  const LocalAlgorithm& inner_;
};

// A delivery fragment or (frag_total == 0) a definitive-loss notification
// resolving one inbox slot.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;  // push order; breaks time ties deterministically
  graph::NodeId dst = 0;
  int port = 0;
  int round = 0;
  int frag_idx = 0;
  int frag_total = 0;
  std::string piece;
};

struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
  }
};

// One inbox slot: (node, round, port). Resolves exactly once — with the
// reassembled payload, or empty on loss.
struct Slot {
  bool resolved = false;
  int pieces_received = 0;
  std::vector<std::string> pieces;  // engaged while reassembling
  std::string payload;
};

class Engine {
 public:
  Engine(const LocalAlgorithm& alg, const LabeledGraph& g,
         const IdAssignment& ids, const FaultKnobs& knobs, std::uint64_t seed)
      : gather_(alg), g_(g), ids_(ids), knobs_(knobs), seed_(seed) {}

  EventRunResult run();

 private:
  const graph::CsrGraph& graph() const { return g_.graph(); }

  Slot& slot(graph::NodeId v, int round, int port) {
    const std::size_t deg = graph().neighbors(v).size();
    return slots_[static_cast<std::size_t>(v)]
                 [static_cast<std::size_t>(round) * deg +
                  static_cast<std::size_t>(port)];
  }

  // Port of node `u` in `v`'s inbox: the rank of `u` in v's (ascending)
  // neighbour list.
  int port_of(graph::NodeId v, graph::NodeId u) const {
    const auto nbrs = graph().neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    LOCALD_ASSERT(it != nbrs.end() && *it == u, "arc endpoints must be adjacent");
    return static_cast<int>(it - nbrs.begin());
  }

  void push(Event e) {
    e.seq = next_seq_++;
    queue_.push(std::move(e));
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth,
                 static_cast<std::uint64_t>(queue_.size()));
  }

  void send_round(graph::NodeId v, int round, std::uint64_t now);
  void advance(graph::NodeId v, std::uint64_t now);

  FullInfoGather gather_;
  const LabeledGraph& g_;
  const IdAssignment& ids_;
  FaultKnobs knobs_;
  std::uint64_t seed_;

  std::vector<std::string> state_;
  std::vector<int> round_of_;
  std::vector<std::vector<Slot>> slots_;
  // Max resolution time seen per (node, round): a node that buffered
  // early-arriving future-round messages must not advance its clock into
  // the past when it finally reaches that round.
  std::vector<std::vector<std::uint64_t>> round_time_;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> queue_;
  std::uint64_t next_seq_ = 0;
  EventStats stats_;
};

void Engine::send_round(graph::NodeId v, int round, std::uint64_t now) {
  // Full-information gathering broadcasts the node's whole state.
  const std::string& msg = state_[static_cast<std::size_t>(v)];
  const std::uint64_t n = static_cast<std::uint64_t>(g_.node_count());
  for (graph::NodeId w : graph().neighbors(v)) {
    const std::uint64_t arc = static_cast<std::uint64_t>(v) * n +
                              static_cast<std::uint64_t>(w);
    const int port = port_of(w, v);
    ++stats_.messages_sent;

    // Transmission attempts: the first non-dropped attempt delivers.
    std::int64_t attempt = 0;
    bool delivered = false;
    for (; attempt < knobs_.attempts; ++attempt) {
      const bool drop =
          knobs_.loss_per_mille > 0 &&
          static_cast<std::int64_t>(
              Rng::stream(seed_ ^ kDropPlane, arc,
                          attempt_index(round, attempt))
                  .below(1000)) < knobs_.loss_per_mille;
      if (!drop) {
        delivered = true;
        break;
      }
    }
    stats_.retransmissions += static_cast<std::uint64_t>(
        delivered ? attempt : knobs_.attempts - 1);

    if (!delivered) {
      // The engine is omniscient: it knows after the last attempt's slot
      // that nothing will arrive, and resolves the slot as lost then.
      ++stats_.messages_dropped;
      Event e;
      e.time = now + static_cast<std::uint64_t>(knobs_.attempts);
      e.dst = w;
      e.port = port;
      e.round = round;
      e.frag_total = 0;  // loss notification
      push(std::move(e));
      continue;
    }

    const std::uint64_t delay =
        knobs_.delay_max > 0
            ? Rng::stream(seed_ ^ kDelayPlane, arc,
                          attempt_index(round, attempt))
                  .below(static_cast<std::uint64_t>(knobs_.delay_max) + 1)
            : 0;
    const std::uint64_t base =
        now + 1 + static_cast<std::uint64_t>(attempt) + delay;

    const int frags = static_cast<int>(std::max<std::int64_t>(
        1, knobs_.fragments));
    std::uint64_t completion = base;
    if (frags == 1) {
      Event e;
      e.time = base;
      e.dst = w;
      e.port = port;
      e.round = round;
      e.frag_total = 1;
      e.piece = msg;
      push(std::move(e));
    } else {
      // Balanced contiguous split; fragment 0 rides the base delay, later
      // fragments add their own jitter so reassembly completes at the max.
      const std::size_t len = msg.size();
      std::size_t offset = 0;
      for (int i = 0; i < frags; ++i) {
        const std::size_t piece_len =
            len / static_cast<std::size_t>(frags) +
            (static_cast<std::size_t>(i) <
                     len % static_cast<std::size_t>(frags)
                 ? 1
                 : 0);
        const std::uint64_t jitter =
            (i > 0 && knobs_.delay_max > 0)
                ? Rng::stream(seed_ ^ kFragPlane, arc,
                              fragment_index(round, attempt, i))
                      .below(static_cast<std::uint64_t>(knobs_.delay_max) + 1)
                : 0;
        Event e;
        e.time = base + jitter;
        e.dst = w;
        e.port = port;
        e.round = round;
        e.frag_idx = i;
        e.frag_total = frags;
        e.piece = msg.substr(offset, piece_len);
        completion = std::max(completion, e.time);
        push(std::move(e));
        offset += piece_len;
      }
      stats_.fragments_sent += static_cast<std::uint64_t>(frags);
    }
    ++stats_.messages_delivered;
    if (completion > now + 1) {
      ++stats_.messages_delayed;
    }
  }
}

void Engine::advance(graph::NodeId v, std::uint64_t now) {
  const std::size_t vi = static_cast<std::size_t>(v);
  const std::size_t deg = graph().neighbors(v).size();
  std::uint64_t t = now;
  while (round_of_[vi] < gather_.rounds()) {
    const int round = round_of_[vi];
    bool complete = true;
    for (std::size_t p = 0; p < deg && complete; ++p) {
      complete = slot(v, round, static_cast<int>(p)).resolved;
    }
    if (!complete) {
      return;
    }
    t = std::max(t, round_time_[vi][static_cast<std::size_t>(round)]);
    std::vector<std::string> inbox;
    inbox.reserve(deg);
    for (std::size_t p = 0; p < deg; ++p) {
      inbox.push_back(slot(v, round, static_cast<int>(p)).payload);
    }
    state_[vi] = gather_.update(state_[vi], inbox);
    ++round_of_[vi];
    if (round_of_[vi] < gather_.rounds()) {
      send_round(v, round_of_[vi], t);
    }
  }
}

EventRunResult Engine::run() {
  LOCALD_CHECK(ids_.node_count() == g_.node_count(),
               "identifier assignment size mismatch");
  const graph::NodeId n = g_.node_count();
  const int rounds = gather_.rounds();
  state_.resize(static_cast<std::size_t>(n));
  round_of_.assign(static_cast<std::size_t>(n), 0);
  slots_.resize(static_cast<std::size_t>(n));
  round_time_.resize(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    state_[static_cast<std::size_t>(v)] =
        gather_.init(ids_.of(v), g_.label(v));
    const std::size_t deg = graph().neighbors(v).size();
    slots_[static_cast<std::size_t>(v)].resize(
        static_cast<std::size_t>(rounds) * deg);
    round_time_[static_cast<std::size_t>(v)].assign(
        static_cast<std::size_t>(rounds), 0);
  }

  // Round-0 sends happen at virtual time 0 in node-index order (the
  // deterministic analogue of "everyone starts at once").
  for (graph::NodeId v = 0; v < n && rounds > 0; ++v) {
    send_round(v, 0, 0);
  }
  // Isolated nodes have no inbox slots to wait for and run to completion.
  for (graph::NodeId v = 0; v < n; ++v) {
    advance(v, 0);
  }

  while (!queue_.empty()) {
    // The queue's top is const; moving the payload out requires the pop
    // dance. const_cast is safe: the element is removed immediately after.
    Event e = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    ++stats_.events_dispatched;
    Slot& s = slot(e.dst, e.round, e.port);
    LOCALD_ASSERT(!s.resolved, "inbox slot resolved twice");
    if (e.frag_total == 0) {
      s.resolved = true;  // lost: payload stays empty
    } else {
      if (s.pieces.empty()) {
        s.pieces.resize(static_cast<std::size_t>(e.frag_total));
      }
      s.pieces[static_cast<std::size_t>(e.frag_idx)] = std::move(e.piece);
      ++s.pieces_received;
      if (s.pieces_received == e.frag_total) {
        for (std::string& piece : s.pieces) {
          s.payload += piece;
        }
        s.pieces.clear();
        s.resolved = true;
      }
    }
    if (s.resolved) {
      auto& rt = round_time_[static_cast<std::size_t>(e.dst)];
      rt[static_cast<std::size_t>(e.round)] =
          std::max(rt[static_cast<std::size_t>(e.round)], e.time);
      if (e.round == round_of_[static_cast<std::size_t>(e.dst)]) {
        advance(e.dst, e.time);
      }
    }
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    LOCALD_ASSERT(round_of_[static_cast<std::size_t>(v)] == rounds,
                  "event queue drained before every node finished");
  }

  EventRunResult result;
  result.verdicts.reserve(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    result.verdicts.push_back(
        gather_.output(state_[static_cast<std::size_t>(v)]));
  }
  result.stats = stats_;

  // Feed the volatile process-wide surface; never read back into results.
  ensure_event_metrics_registered();
  g_events_dispatched.fetch_add(stats_.events_dispatched,
                                std::memory_order_relaxed);
  g_messages_dropped.fetch_add(stats_.messages_dropped,
                               std::memory_order_relaxed);
  g_messages_fragmented.fetch_add(stats_.fragments_sent,
                                  std::memory_order_relaxed);
  g_messages_delayed.fetch_add(stats_.messages_delayed,
                               std::memory_order_relaxed);
  raise_max(g_max_queue_depth, stats_.max_queue_depth);
  return result;
}

}  // namespace

EventRunResult run_via_event_engine(const LocalAlgorithm& alg,
                                    const LabeledGraph& g,
                                    const IdAssignment& ids,
                                    const FaultProfileInstance& profile,
                                    std::uint64_t seed) {
  Engine engine(alg, g, ids, profile.knobs(), seed);
  return engine.run();
}

EventEngineCounters event_engine_counters() {
  ensure_event_metrics_registered();
  EventEngineCounters out;
  out.events_dispatched = g_events_dispatched.load(std::memory_order_relaxed);
  out.messages_dropped = g_messages_dropped.load(std::memory_order_relaxed);
  out.messages_fragmented =
      g_messages_fragmented.load(std::memory_order_relaxed);
  out.messages_delayed = g_messages_delayed.load(std::memory_order_relaxed);
  out.max_queue_depth = g_max_queue_depth.load(std::memory_order_relaxed);
  return out;
}

}  // namespace locald::local
