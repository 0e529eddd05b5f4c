// Topology algorithms used by model validation and classification.
//
// The paper restricts task graphs to *chains* (Sec 3.1): every task has at
// most one input and one output buffer, and the graph is weakly connected.
// chain_order() recognizes that shape and returns the tasks from source to
// sink.  The analysis pipeline itself runs on any weakly connected
// topology whose cycles break at tokened back-edges; VrdfGraph::classify()
// builds its skeleton order on the strongly connected components, the
// undirected bridges and the weak connectivity computed here, and reports
// a token-free cycle through find_directed_cycle().
//
// Every algorithm runs on a FlatDigraph and allocates a fixed number of
// flat arrays, independent of the graph's size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace vrdf::graph {

/// True when the underlying undirected graph is connected.  The empty graph
/// counts as connected.
[[nodiscard]] bool is_weakly_connected(const FlatDigraph& g);

/// Nodes of a directed chain a1 -> a2 -> ... -> ak ordered from the unique
/// source to the unique sink, or nullopt when the graph is not a chain.
/// A single node with no edges is a chain of length one.  Edges are allowed
/// to come in anti-parallel pairs (forward data edge + reverse space edge):
/// an edge b->a is a back edge when a->b also exists and a precedes b in
/// the candidate order.
struct ChainOrder {
  std::vector<NodeId> nodes;                 // source first, sink last
  std::vector<EdgeId> forward_edges;         // forward_edges[i]: nodes[i]->nodes[i+1]
  std::vector<std::vector<EdgeId>> back_edges;  // back_edges[i]: nodes[i+1]->nodes[i]
};
[[nodiscard]] std::optional<ChainOrder> chain_order(const FlatDigraph& g);

/// Per edge (indexed by EdgeId), true when the edge is a bridge of the
/// *undirected* multigraph: removing it disconnects its endpoints.
/// Parallel edges are never bridges; self-loops are never bridges.  In a
/// fork-join DAG the bridges are exactly the chain-segment edges — every
/// edge of a reconvergent region lies on an undirected cycle.
[[nodiscard]] std::vector<bool> undirected_bridges(const FlatDigraph& g);

/// Strongly connected components (Tarjan): the component index of every
/// node (indexed by NodeId), components numbered in the order Tarjan
/// completes them — reverse topological order of the condensation.  An
/// edge lies on a directed cycle exactly when it is a self-loop or both
/// endpoints share a component.
[[nodiscard]] std::vector<std::uint32_t> strong_components(const FlatDigraph& g);

/// Some directed cycle of the graph as a node sequence n0 -> n1 -> ... ->
/// n0 (the closing edge back to n0 is implied, n0 is not repeated), or
/// nullopt when the graph is acyclic.  A self-loop yields a one-node cycle.
/// The depth-first search starts at the lowest node and follows edges in
/// edge order, so the reported cycle is deterministic.
[[nodiscard]] std::optional<std::vector<NodeId>> find_directed_cycle(
    const FlatDigraph& g);

}  // namespace vrdf::graph
