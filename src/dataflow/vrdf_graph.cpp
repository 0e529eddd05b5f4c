#include "dataflow/vrdf_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace vrdf::dataflow {

void VrdfGraph::record_mutation(Mutation kind, std::size_t index) {
  ++revision_;
  last_mutation_ = kind;
  last_mutation_index_ = index;
}

std::string VrdfGraph::last_mutation() const {
  const auto endpoints = [this](std::size_t e) {
    return actors_[edges_[e].source.index()].name + " -> " +
           actors_[edges_[e].target.index()].name;
  };
  switch (last_mutation_) {
    case Mutation::None:
      break;
    case Mutation::AddActor:
      return "add_actor '" + actors_[last_mutation_index_].name + "'";
    case Mutation::AddEdge:
      return "add_edge " + endpoints(last_mutation_index_);
    case Mutation::SetInitialTokens:
      return "set_initial_tokens on edge " + endpoints(last_mutation_index_);
    case Mutation::SetResponseTime:
      return "set_response_time on actor '" +
             actors_[last_mutation_index_].name + "'";
  }
  return "";
}

ActorId VrdfGraph::add_actor(std::string name, Duration response_time) {
  VRDF_REQUIRE(!name.empty(), "actor name must be non-empty");
  VRDF_REQUIRE(response_time.is_positive(), "actor response time must be positive");
  const auto slot = actor_index_.lower_bound(name);
  VRDF_REQUIRE(slot == actor_index_.end() || slot->first != name,
               "actor name '" + name + "' is already in use");
  const ActorId id = topology_.add_node();
  actor_index_.emplace_hint(slot, name, id);
  actors_.push_back(Actor{std::move(name), response_time});
  record_mutation(Mutation::AddActor, id.index());
  return id;
}

EdgeId VrdfGraph::add_edge(ActorId source, ActorId target, RateSet production,
                           RateSet consumption, std::int64_t initial_tokens) {
  VRDF_REQUIRE(topology_.contains(source), "edge source actor does not exist");
  VRDF_REQUIRE(topology_.contains(target), "edge target actor does not exist");
  VRDF_REQUIRE(initial_tokens >= 0, "initial tokens must be non-negative");
  const EdgeId id = topology_.add_edge(source, target);
  edges_.push_back(Edge{source, target, std::move(production),
                        std::move(consumption), initial_tokens,
                        EdgeId::invalid()});
  record_mutation(Mutation::AddEdge, id.index());
  return id;
}

BufferEdges VrdfGraph::add_buffer(ActorId producer, ActorId consumer,
                                  RateSet production, RateSet consumption,
                                  std::int64_t capacity,
                                  std::int64_t initial_tokens) {
  VRDF_REQUIRE(initial_tokens >= 0, "initial tokens must be non-negative");
  VRDF_REQUIRE(capacity == 0 || capacity >= initial_tokens,
               "buffer capacity must cover its initial tokens");
  const EdgeId data =
      add_edge(producer, consumer, production, consumption, initial_tokens);
  const EdgeId space =
      add_edge(consumer, producer, std::move(consumption),
               std::move(production),
               capacity == 0 ? 0 : capacity - initial_tokens);
  edges_[data.index()].paired = space;
  edges_[space.index()].paired = data;
  const BufferEdges pair{data, space};
  buffers_.push_back(pair);
  return pair;
}

const Actor& VrdfGraph::actor(ActorId id) const {
  VRDF_REQUIRE(topology_.contains(id), "actor id out of range");
  return actors_[id.index()];
}

const Edge& VrdfGraph::edge(EdgeId id) const {
  VRDF_REQUIRE(topology_.contains(id), "edge id out of range");
  return edges_[id.index()];
}

std::int64_t VrdfGraph::buffer_capacity(const BufferEdges& buffer) const {
  return edge(buffer.space).initial_tokens + edge(buffer.data).initial_tokens;
}

std::optional<ActorId> VrdfGraph::find_actor(std::string_view name) const {
  const auto it = actor_index_.find(name);
  return it == actor_index_.end() ? std::nullopt : std::optional(it->second);
}

namespace {

/// The buffers' data edges as a flat digraph over the actors; edge i is
/// the data edge of buffers[i].
graph::FlatDigraph data_digraph(std::size_t actor_count,
                                const std::vector<Edge>& edges,
                                const std::vector<BufferEdges>& buffers) {
  std::vector<ActorId> sources;
  std::vector<ActorId> targets;
  sources.reserve(buffers.size());
  targets.reserve(buffers.size());
  for (const BufferEdges& b : buffers) {
    sources.push_back(edges[b.data.index()].source);
    targets.push_back(edges[b.data.index()].target);
  }
  return {actor_count, std::move(sources), std::move(targets)};
}

EdgeId data_edge(std::size_t buffer_index) {
  return EdgeId(static_cast<EdgeId::underlying_type>(buffer_index));
}

}  // namespace

std::optional<VrdfGraph::ChainView> VrdfGraph::chain_view() const {
  // Every edge must belong to a buffer pair; chain recognition then runs on
  // the data edges alone.
  for (const Edge& e : edges_) {
    if (!e.paired.is_valid()) {
      return std::nullopt;
    }
  }
  const auto order =
      graph::chain_order(data_digraph(actors_.size(), edges_, buffers_));
  if (!order.has_value()) {
    return std::nullopt;
  }
  // Reject orders that require reversed buffers: every consecutive pair must
  // be connected by a buffer whose data edge points forward.
  ChainView view;
  view.actors = order->nodes;
  view.buffers.reserve(order->forward_edges.size());
  for (std::size_t pos = 0; pos < order->forward_edges.size(); ++pos) {
    // The data digraph's edge index is the buffer index.
    const BufferEdges& b = buffers_[order->forward_edges[pos].index()];
    const Edge& data = edges_[b.data.index()];
    if (data.source != view.actors[pos] || data.target != view.actors[pos + 1]) {
      return std::nullopt;
    }
    view.buffers.push_back(b);
  }
  return view;
}

std::optional<VrdfGraph::BufferView> VrdfGraph::buffer_view() const {
  return classify().view;
}

VrdfGraph::Classification VrdfGraph::classify() const {
  Classification c;
  c.all_paired = std::all_of(edges_.begin(), edges_.end(), [](const Edge& e) {
    return e.paired.is_valid();
  });
  if (!c.all_paired) {
    // No buffer network to classify; connectivity counts the bare edges.
    c.weakly_connected =
        graph::is_weakly_connected(graph::FlatDigraph(topology_));
    return c;
  }
  const std::size_t n = actors_.size();
  const std::size_t m = buffers_.size();
  // The data digraph's edge index is the buffer index.  Every edge is half
  // of a buffer, so the data edges connect what the whole graph connects.
  const graph::FlatDigraph data = data_digraph(n, edges_, buffers_);
  c.weakly_connected = graph::is_weakly_connected(data);
  const std::vector<std::uint32_t> component = graph::strong_components(data);

  // Feedback classification: a *minimal* set of tokened on-cycle data
  // edges whose removal leaves the skeleton acyclic.  Token-free edges
  // always belong to the skeleton — a cycle whose edges are all
  // token-free keeps it cyclic and is rejected (deadlock at t=0).
  // Tokened on-cycle edges are then re-admitted greedily in insertion
  // order: an edge stays in the skeleton unless it would close a
  // directed cycle, in which case it is the cycle's back-edge.  (A cycle
  // carrying several tokened edges thus breaks at the last-inserted one
  // — deterministic — and the others keep ordering the skeleton instead
  // of orphaning their endpoints.)
  // Per buffer: kFirstRound edges form the skeleton from the start;
  // tokened cycle edges start as kFeedback and are kReadmitted unless they
  // close a cycle.
  enum : std::uint8_t { kFeedback, kFirstRound, kReadmitted };
  std::vector<std::uint8_t> skeleton(m);
  c.on_cycle.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const ActorId s = data.source(data_edge(i));
    const ActorId t = data.target(data_edge(i));
    c.on_cycle[i] = s == t || component[s.index()] == component[t.index()];
    const bool tokened = edges_[buffers_[i].data.index()].initial_tokens != 0;
    skeleton[i] = c.on_cycle[i] && tokened ? kFeedback : kFirstRound;
  }
  // reaches(from, to): a directed skeleton path from -> to.  A path that
  // closes a cycle through an edge never leaves the edge's component, so
  // the search stays inside it.  Each search stamps the actors it visits.
  std::vector<std::uint32_t> visited(n, 0);
  std::uint32_t stamp = 0;
  std::vector<ActorId> stack;
  const auto reaches = [&](ActorId from, ActorId to) {
    ++stamp;
    stack.assign(1, from);
    visited[from.index()] = stamp;
    while (!stack.empty()) {
      const ActorId u = stack.back();
      stack.pop_back();
      if (u == to) {
        return true;
      }
      for (const EdgeId e : data.out_edges(u)) {
        const ActorId w = data.target(e);
        if (skeleton[e.index()] != kFeedback &&
            component[w.index()] == component[from.index()] &&
            visited[w.index()] != stamp) {
          visited[w.index()] = stamp;
          stack.push_back(w);
        }
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < m; ++i) {
    const ActorId s = data.source(data_edge(i));
    const ActorId t = data.target(data_edge(i));
    if (skeleton[i] == kFeedback && s != t && !reaches(t, s)) {
      skeleton[i] = kReadmitted;
    }
  }

  // Kahn's topological sort of the skeleton.  An actor's first-round
  // edges are walked before its re-admitted ones, as in a skeleton built
  // edge by edge; that order decides which ready actor comes first.  With
  // a token-free cycle the sort cannot place every actor.
  std::vector<std::uint32_t> in_degree(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (skeleton[i] != kFeedback) {
      ++in_degree[data.target(data_edge(i)).index()];
    }
  }
  std::vector<ActorId> order;
  order.reserve(n);
  stack.clear();
  for (std::size_t a = 0; a < n; ++a) {
    if (in_degree[a] == 0) {
      stack.push_back(ActorId(static_cast<ActorId::underlying_type>(a)));
    }
  }
  while (!stack.empty()) {
    const ActorId u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (const std::uint8_t round : {kFirstRound, kReadmitted}) {
      for (const EdgeId e : data.out_edges(u)) {
        const ActorId w = data.target(e);
        if (skeleton[e.index()] == round && --in_degree[w.index()] == 0) {
          stack.push_back(w);
        }
      }
    }
  }
  if (order.size() != n) {
    c.token_free_cycle = true;
    return c;
  }

  BufferView view;
  view.actors = std::move(order);
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i) {
    position[view.actors[i].index()] = i;
  }
  // Counting sort by producer position; insertion order is kept among
  // buffers sharing a producer.
  std::vector<std::size_t> start(n + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ++start[position[data.source(data_edge(i)).index()] + 1];
  }
  for (std::size_t p = 0; p < n; ++p) {
    start[p + 1] += start[p];
  }
  std::vector<std::size_t> by_producer(m);
  for (std::size_t i = 0; i < m; ++i) {
    by_producer[start[position[data.source(data_edge(i)).index()]]++] = i;
  }
  const std::vector<bool> bridge = graph::undirected_bridges(data);
  view.buffers.reserve(m);
  view.in_buffers.resize(n);
  view.out_buffers.resize(n);
  view.on_reconvergent_path.reserve(m);
  view.on_cycle.reserve(m);
  view.is_feedback.reserve(m);
  for (std::size_t pos = 0; pos < m; ++pos) {
    const std::size_t index = by_producer[pos];
    const bool feedback = skeleton[index] == kFeedback;
    view.buffers.push_back(buffers_[index]);
    if (feedback) {
      view.feedback_buffers.push_back(pos);
    } else {
      view.out_buffers[data.source(data_edge(index)).index()].push_back(pos);
      view.in_buffers[data.target(data_edge(index)).index()].push_back(pos);
    }
    view.on_reconvergent_path.push_back(!bridge[index]);
    view.on_cycle.push_back(c.on_cycle[index]);
    view.is_feedback.push_back(feedback);
  }
  view.is_cyclic = !view.feedback_buffers.empty();
  bool degrees_chain_like = true;
  for (const ActorId a : view.actors) {
    if (view.in_buffers[a.index()].empty()) {
      view.data_sources.push_back(a);
    }
    if (view.out_buffers[a.index()].empty()) {
      view.data_sinks.push_back(a);
    }
    degrees_chain_like = degrees_chain_like &&
                         view.in_buffers[a.index()].size() <= 1 &&
                         view.out_buffers[a.index()].size() <= 1;
  }
  view.is_chain = degrees_chain_like && !view.is_cyclic && c.weakly_connected;
  c.view = std::move(view);
  return c;
}

void VrdfGraph::set_initial_tokens(EdgeId id, std::int64_t tokens) {
  VRDF_REQUIRE(topology_.contains(id), "edge id out of range");
  VRDF_REQUIRE(tokens >= 0, "initial tokens must be non-negative");
  edges_[id.index()].initial_tokens = tokens;
  record_mutation(Mutation::SetInitialTokens, id.index());
}

void VrdfGraph::set_response_time(ActorId id, Duration response_time) {
  VRDF_REQUIRE(topology_.contains(id), "actor id out of range");
  VRDF_REQUIRE(response_time.is_positive(),
               "actor response time must be positive");
  actors_[id.index()].response_time = response_time;
  record_mutation(Mutation::SetResponseTime, id.index());
}

}  // namespace vrdf::dataflow
