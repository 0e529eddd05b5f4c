// Directed multigraph containers.
//
// Digraph is a minimal growable adjacency structure shared by the
// task-graph and dataflow layers: those layers keep their payloads (rates,
// response times, ...) in parallel arrays indexed by NodeId/EdgeId.
// FlatDigraph is its immutable counterpart in flat arrays, the input of
// the topology algorithms (graph/algorithms.hpp).  Parallel edges and
// self-loops are representable in both (a VRDF buffer is a pair of
// anti-parallel edges).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ids.hpp"

namespace vrdf::graph {

class Digraph {
public:
  Digraph() = default;

  /// Adds an isolated node and returns its id.
  NodeId add_node();

  /// Adds an edge src -> dst; both nodes must exist.
  EdgeId add_edge(NodeId src, NodeId dst);

  [[nodiscard]] std::size_t node_count() const { return out_edges_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] NodeId edge_source(EdgeId e) const;
  [[nodiscard]] NodeId edge_target(EdgeId e) const;

  /// Outgoing edge ids of `n`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId n) const;
  /// Incoming edge ids of `n`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId n) const;

  [[nodiscard]] std::size_t out_degree(NodeId n) const { return out_edges(n).size(); }
  [[nodiscard]] std::size_t in_degree(NodeId n) const { return in_edges(n).size(); }

  [[nodiscard]] bool contains(NodeId n) const {
    return n.is_valid() && n.index() < node_count();
  }
  [[nodiscard]] bool contains(EdgeId e) const {
    return e.is_valid() && e.index() < edge_count();
  }

  /// Iteration helpers: node ids are dense 0..node_count-1.
  [[nodiscard]] std::vector<NodeId> nodes() const;
  [[nodiscard]] std::vector<EdgeId> edges() const;

private:
  struct EdgeRecord {
    NodeId src;
    NodeId dst;
  };

  std::vector<EdgeRecord> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
};

/// An immutable directed multigraph in flat arrays: edge e runs
/// source(e) -> target(e), and the out-edges and the in-edges of every
/// node are each one contiguous run (compressed sparse rows), in edge
/// order.  Building one costs six allocations however large the graph.
class FlatDigraph {
public:
  /// Edge i runs sources[i] -> targets[i]; every endpoint must be below
  /// `node_count`.
  FlatDigraph(std::size_t node_count, std::vector<NodeId> sources,
              std::vector<NodeId> targets);
  /// The nodes and edges of `g`, with the same ids.
  explicit FlatDigraph(const Digraph& g);

  [[nodiscard]] std::size_t node_count() const { return out_start_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const { return sources_.size(); }

  [[nodiscard]] NodeId source(EdgeId e) const { return sources_[e.index()]; }
  [[nodiscard]] NodeId target(EdgeId e) const { return targets_[e.index()]; }

  /// Outgoing / incoming edge ids of `n`, in edge order.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId n) const {
    return {out_.data() + out_start_[n.index()],
            out_.data() + out_start_[n.index() + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId n) const {
    return {in_.data() + in_start_[n.index()],
            in_.data() + in_start_[n.index() + 1]};
  }

private:
  std::vector<NodeId> sources_;
  std::vector<NodeId> targets_;
  /// Row k of out_ (in_) is [out_start_[k], out_start_[k + 1]).
  std::vector<std::uint32_t> out_start_;
  std::vector<std::uint32_t> in_start_;
  std::vector<EdgeId> out_;
  std::vector<EdgeId> in_;
};

}  // namespace vrdf::graph
