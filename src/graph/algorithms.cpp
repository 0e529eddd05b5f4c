#include "graph/algorithms.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace vrdf::graph {

namespace {

NodeId node(std::size_t index) {
  return NodeId(static_cast<NodeId::underlying_type>(index));
}

}  // namespace

bool is_weakly_connected(const FlatDigraph& g) {
  if (g.node_count() <= 1) {
    return true;
  }
  std::vector<char> visited(g.node_count(), 0);
  std::vector<NodeId> stack{NodeId(0)};
  visited[0] = 1;
  std::size_t reached = 1;
  const auto visit = [&](NodeId m) {
    if (visited[m.index()] == 0) {
      visited[m.index()] = 1;
      ++reached;
      stack.push_back(m);
    }
  };
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const EdgeId e : g.out_edges(n)) {
      visit(g.target(e));
    }
    for (const EdgeId e : g.in_edges(n)) {
      visit(g.source(e));
    }
  }
  return reached == g.node_count();
}

std::optional<ChainOrder> chain_order(const FlatDigraph& g) {
  const std::size_t n = g.node_count();
  if (n == 0) {
    return std::nullopt;
  }
  // Distinct undirected neighbours of every node.  A path graph has at
  // most two per node, so two slots suffice and a third neighbour (or a
  // self-loop) rejects the graph on the spot.
  std::vector<std::array<NodeId, 2>> neighbours(
      n, {NodeId::invalid(), NodeId::invalid()});
  const auto link = [&neighbours](NodeId u, NodeId w) {
    auto& slots = neighbours[u.index()];
    if (slots[0] == w || slots[1] == w) {
      return true;
    }
    NodeId& free = slots[0].is_valid() ? slots[1] : slots[0];
    if (free.is_valid()) {
      return false;
    }
    free = w;
    return true;
  };
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId id(static_cast<EdgeId::underlying_type>(e));
    const NodeId s = g.source(id);
    const NodeId t = g.target(id);
    if (s == t || !link(s, t) || !link(t, s)) {
      return std::nullopt;
    }
  }
  if (n == 1) {
    ChainOrder order;  // no edges: a self-loop was rejected above
    order.nodes = {NodeId(0)};
    return order;
  }

  // A path graph has exactly two endpoints of undirected degree one and
  // n-1 distinct undirected adjacencies; everything else has degree two.
  std::vector<NodeId> endpoints;
  std::size_t pair_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = static_cast<std::size_t>(neighbours[i][0].is_valid()) +
                            static_cast<std::size_t>(neighbours[i][1].is_valid());
    pair_count += deg;
    if (deg == 0) {
      return std::nullopt;
    }
    if (deg == 1) {
      endpoints.push_back(node(i));
    }
  }
  pair_count /= 2;
  if (endpoints.size() != 2 || pair_count != n - 1) {
    return std::nullopt;
  }

  // Walk the path from one endpoint; it covers every node exactly when the
  // graph is connected (a path plus a disjoint cycle passes the counts).
  std::vector<NodeId> path;
  path.reserve(n);
  NodeId prev = NodeId::invalid();
  NodeId cur = endpoints[0];
  while (cur.is_valid()) {
    path.push_back(cur);
    const auto& slots = neighbours[cur.index()];
    const NodeId next = slots[0] != prev ? slots[0] : slots[1];
    prev = cur;
    cur = next;
  }
  if (path.size() != n) {
    return std::nullopt;
  }

  // Orient the path so that every consecutive pair has exactly one forward
  // edge; anti-parallel edges are collected as back edges.
  const auto try_orientation = [&g](const std::vector<NodeId>& nodes)
      -> std::optional<ChainOrder> {
    ChainOrder order;
    order.nodes = nodes;
    order.forward_edges.reserve(nodes.size() - 1);
    order.back_edges.resize(nodes.size() - 1);
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      const NodeId u = nodes[i];
      const NodeId w = nodes[i + 1];
      EdgeId forward = EdgeId::invalid();
      for (const EdgeId e : g.out_edges(u)) {
        if (g.target(e) == w) {
          if (forward.is_valid()) {
            return std::nullopt;  // parallel forward edges: ambiguous chain
          }
          forward = e;
        }
      }
      if (!forward.is_valid()) {
        return std::nullopt;
      }
      order.forward_edges.push_back(forward);
      for (const EdgeId e : g.out_edges(w)) {
        if (g.target(e) == u) {
          order.back_edges[i].push_back(e);
        }
      }
    }
    return order;
  };

  if (auto order = try_orientation(path)) {
    return order;
  }
  std::reverse(path.begin(), path.end());
  return try_orientation(path);
}

std::vector<bool> undirected_bridges(const FlatDigraph& g) {
  const std::size_t n = g.node_count();
  std::vector<bool> is_bridge(g.edge_count(), false);
  // Iterative DFS lowlink over the undirected incidence (out-edges, then
  // in-edges); an edge (u, v) with v a child is a bridge iff
  // low(v) > disc(u).  The parent *edge instance* is skipped, not the
  // parent node, so parallel edges correctly form a cycle; a self-loop
  // only ever meets its own, already discovered node.
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> disc(n, kUnvisited);
  std::vector<std::size_t> low(n, 0);
  std::size_t timer = 0;
  struct Frame {
    NodeId node;
    EdgeId parent_edge;  // edge used to enter, invalid at a root
    std::size_t next;    // position in out-edges, then in-edges
  };
  std::vector<Frame> stack;
  for (std::size_t r = 0; r < n; ++r) {
    if (disc[r] != kUnvisited) {
      continue;
    }
    stack.push_back({node(r), EdgeId::invalid(), 0});
    disc[r] = low[r] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto out = g.out_edges(f.node);
      const auto in = g.in_edges(f.node);
      if (f.next < out.size() + in.size()) {
        const bool forward = f.next < out.size();
        const EdgeId e = forward ? out[f.next] : in[f.next - out.size()];
        const NodeId m = forward ? g.target(e) : g.source(e);
        ++f.next;
        if (e == f.parent_edge) {
          continue;
        }
        if (disc[m.index()] == kUnvisited) {
          disc[m.index()] = low[m.index()] = timer++;
          stack.push_back(Frame{m, e, 0});  // invalidates f
        } else {
          low[f.node.index()] = std::min(low[f.node.index()], disc[m.index()]);
        }
        continue;
      }
      const Frame done = f;
      stack.pop_back();
      if (!stack.empty()) {
        const NodeId parent = stack.back().node;
        low[parent.index()] = std::min(low[parent.index()], low[done.node.index()]);
        if (low[done.node.index()] > disc[parent.index()]) {
          is_bridge[done.parent_edge.index()] = true;
        }
      }
    }
  }
  return is_bridge;
}

std::vector<std::uint32_t> strong_components(const FlatDigraph& g) {
  // Iterative Tarjan.
  const std::size_t n = g.node_count();
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint32_t> component(n, kUnvisited);
  std::vector<NodeId> stack;
  struct Frame {
    NodeId node;
    std::size_t edge_pos;
  };
  std::vector<Frame> frames;
  std::uint32_t next_index = 0;
  std::uint32_t next_component = 0;
  // A node is on Tarjan's stack while it is indexed but not yet assigned a
  // component.
  const auto on_stack = [&](NodeId m) {
    return component[m.index()] == kUnvisited;
  };

  for (std::size_t r = 0; r < n; ++r) {
    if (index[r] != kUnvisited) {
      continue;
    }
    frames.push_back(Frame{node(r), 0});
    index[r] = lowlink[r] = next_index++;
    stack.push_back(node(r));
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto out = g.out_edges(f.node);
      if (f.edge_pos < out.size()) {
        const NodeId m = g.target(out[f.edge_pos]);
        ++f.edge_pos;
        if (index[m.index()] == kUnvisited) {
          index[m.index()] = lowlink[m.index()] = next_index++;
          stack.push_back(m);
          frames.push_back(Frame{m, 0});  // invalidates f
        } else if (on_stack(m)) {
          lowlink[f.node.index()] =
              std::min(lowlink[f.node.index()], index[m.index()]);
        }
        continue;
      }
      // All successors processed.
      const NodeId v = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        const NodeId parent = frames.back().node;
        lowlink[parent.index()] =
            std::min(lowlink[parent.index()], lowlink[v.index()]);
      }
      if (lowlink[v.index()] == index[v.index()]) {
        NodeId w;
        do {
          w = stack.back();
          stack.pop_back();
          component[w.index()] = next_component;
        } while (w != v);
        ++next_component;
      }
    }
  }
  return component;
}

std::optional<std::vector<NodeId>> find_directed_cycle(const FlatDigraph& g) {
  // Iterative DFS with an explicit path stack; a back edge to a node on
  // the current path closes a cycle.
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> color(g.node_count(), kWhite);
  struct Frame {
    NodeId node;
    std::size_t edge_pos;
  };
  std::vector<Frame> path;
  for (std::size_t r = 0; r < g.node_count(); ++r) {
    if (color[r] != kWhite) {
      continue;
    }
    path.push_back(Frame{node(r), 0});
    color[r] = kGrey;
    while (!path.empty()) {
      Frame& f = path.back();
      const auto out = g.out_edges(f.node);
      if (f.edge_pos < out.size()) {
        const NodeId m = g.target(out[f.edge_pos]);
        ++f.edge_pos;
        if (color[m.index()] == kGrey) {
          std::size_t start = 0;
          while (path[start].node != m) {
            ++start;
          }
          std::vector<NodeId> cycle;
          for (std::size_t i = start; i < path.size(); ++i) {
            cycle.push_back(path[i].node);
          }
          return cycle;
        }
        if (color[m.index()] == kWhite) {
          color[m.index()] = kGrey;
          path.push_back(Frame{m, 0});  // invalidates f
        }
        continue;
      }
      color[f.node.index()] = kBlack;
      path.pop_back();
    }
  }
  return std::nullopt;
}

}  // namespace vrdf::graph
