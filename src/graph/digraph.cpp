#include "graph/digraph.hpp"

#include <utility>

#include "util/error.hpp"

namespace vrdf::graph {

NodeId Digraph::add_node() {
  const auto id = NodeId(static_cast<NodeId::underlying_type>(node_count()));
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst) {
  VRDF_REQUIRE(contains(src), "edge source node does not exist");
  VRDF_REQUIRE(contains(dst), "edge target node does not exist");
  const auto id = EdgeId(static_cast<EdgeId::underlying_type>(edge_count()));
  edges_.push_back(EdgeRecord{src, dst});
  out_edges_[src.index()].push_back(id);
  in_edges_[dst.index()].push_back(id);
  return id;
}

NodeId Digraph::edge_source(EdgeId e) const {
  VRDF_REQUIRE(contains(e), "edge id out of range");
  return edges_[e.index()].src;
}

NodeId Digraph::edge_target(EdgeId e) const {
  VRDF_REQUIRE(contains(e), "edge id out of range");
  return edges_[e.index()].dst;
}

std::span<const EdgeId> Digraph::out_edges(NodeId n) const {
  VRDF_REQUIRE(contains(n), "node id out of range");
  return out_edges_[n.index()];
}

std::span<const EdgeId> Digraph::in_edges(NodeId n) const {
  VRDF_REQUIRE(contains(n), "node id out of range");
  return in_edges_[n.index()];
}

std::vector<NodeId> Digraph::nodes() const {
  std::vector<NodeId> out;
  out.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    out.push_back(NodeId(static_cast<NodeId::underlying_type>(i)));
  }
  return out;
}

namespace {

/// Counting sort of the edge ids by `key` (stable, so each row keeps edge
/// order) into `rows`, with `start` delimiting the rows.
void build_rows(std::size_t node_count, const std::vector<NodeId>& key,
                std::vector<std::uint32_t>& start, std::vector<EdgeId>& rows) {
  start.assign(node_count + 1, 0);
  for (const NodeId k : key) {
    VRDF_REQUIRE(k.index() < node_count, "edge endpoint does not exist");
    ++start[k.index() + 1];
  }
  for (std::size_t k = 0; k < node_count; ++k) {
    start[k + 1] += start[k];
  }
  rows.resize(key.size());
  // Fill with start[k] as row k's cursor, which leaves it at row k's end
  // (= row k + 1's begin); shifting by one restores the begins.
  for (std::size_t e = 0; e < key.size(); ++e) {
    rows[start[key[e].index()]++] =
        EdgeId(static_cast<EdgeId::underlying_type>(e));
  }
  for (std::size_t k = node_count; k > 0; --k) {
    start[k] = start[k - 1];
  }
  start[0] = 0;
}

std::vector<NodeId> endpoints(const Digraph& g, bool sources) {
  std::vector<NodeId> out;
  out.reserve(g.edge_count());
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId id(static_cast<EdgeId::underlying_type>(e));
    out.push_back(sources ? g.edge_source(id) : g.edge_target(id));
  }
  return out;
}

}  // namespace

FlatDigraph::FlatDigraph(std::size_t node_count, std::vector<NodeId> sources,
                         std::vector<NodeId> targets)
    : sources_(std::move(sources)), targets_(std::move(targets)) {
  VRDF_REQUIRE(sources_.size() == targets_.size(),
               "every edge needs a source and a target");
  build_rows(node_count, sources_, out_start_, out_);
  build_rows(node_count, targets_, in_start_, in_);
}

FlatDigraph::FlatDigraph(const Digraph& g)
    : FlatDigraph(g.node_count(), endpoints(g, /*sources=*/true),
                  endpoints(g, /*sources=*/false)) {}

std::vector<EdgeId> Digraph::edges() const {
  std::vector<EdgeId> out;
  out.reserve(edge_count());
  for (std::size_t i = 0; i < edge_count(); ++i) {
    out.push_back(EdgeId(static_cast<EdgeId::underlying_type>(i)));
  }
  return out;
}

}  // namespace vrdf::graph
