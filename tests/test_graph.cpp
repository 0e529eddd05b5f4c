// Unit tests for the digraph container and topology algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace vrdf::graph {
namespace {

FlatDigraph flat(const Digraph& g) { return FlatDigraph(g); }

/// Number of distinct components in a strong_components() result.
std::size_t component_count(const std::vector<std::uint32_t>& component) {
  std::uint32_t count = 0;
  for (const std::uint32_t c : component) {
    count = std::max(count, c + 1);
  }
  return count;
}

Digraph path_graph(std::size_t n) {
  Digraph g;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(g.add_node());
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    (void)g.add_edge(nodes[i], nodes[i + 1]);
  }
  return g;
}

TEST(Digraph, AddAndQuery) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge_source(e), a);
  EXPECT_EQ(g.edge_target(e), b);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
  EXPECT_EQ(g.out_degree(b), 0u);
}

TEST(Digraph, RejectsDanglingEdges) {
  Digraph g;
  const NodeId a = g.add_node();
  EXPECT_THROW(g.add_edge(a, NodeId(7)), ContractError);
  EXPECT_THROW(g.add_edge(NodeId::invalid(), a), ContractError);
}

TEST(Digraph, ParallelEdgesAndSelfLoopsRepresentable) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, a);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(a), 3u);
}

TEST(FlatDigraph, RowsKeepEdgeOrder) {
  // Edges 0: b->a, 1: a->b, 2: a->c, 3: c->a, 4: a->b (parallel).
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(b, a);
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, c);
  (void)g.add_edge(c, a);
  (void)g.add_edge(a, b);
  const FlatDigraph f(g);
  EXPECT_EQ(f.node_count(), 3u);
  EXPECT_EQ(f.edge_count(), 5u);
  const auto ids = [](std::span<const EdgeId> row) {
    std::vector<std::size_t> out;
    for (const EdgeId e : row) {
      out.push_back(e.index());
    }
    return out;
  };
  EXPECT_EQ(ids(f.out_edges(a)), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(ids(f.in_edges(a)), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(ids(f.out_edges(b)), (std::vector<std::size_t>{0}));
  EXPECT_EQ(ids(f.in_edges(b)), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(ids(f.in_edges(c)), (std::vector<std::size_t>{2}));
  EXPECT_EQ(f.source(EdgeId(3)), c);
  EXPECT_EQ(f.target(EdgeId(3)), a);
}

TEST(FlatDigraph, RejectsDanglingEdges) {
  EXPECT_THROW(FlatDigraph(2, {NodeId(0)}, {NodeId(2)}), ContractError);
  EXPECT_THROW(FlatDigraph(2, {NodeId(0)}, {}), ContractError);
  const FlatDigraph empty(0, {}, {});
  EXPECT_EQ(empty.node_count(), 0u);
}

TEST(WeakConnectivity, EmptyAndSingletonAreConnected) {
  Digraph g;
  EXPECT_TRUE(is_weakly_connected(flat(g)));
  (void)g.add_node();
  EXPECT_TRUE(is_weakly_connected(flat(g)));
}

TEST(WeakConnectivity, DirectionIsIgnored) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(b, a);
  (void)g.add_edge(b, c);
  EXPECT_TRUE(is_weakly_connected(flat(g)));
}

TEST(WeakConnectivity, DetectsDisconnection) {
  Digraph g;
  (void)g.add_node();
  (void)g.add_node();
  EXPECT_FALSE(is_weakly_connected(flat(g)));
}

TEST(ChainOrder, RecognizesForwardChain) {
  const Digraph g = path_graph(4);
  const auto order = chain_order(flat(g));
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->nodes.size(), 4u);
  EXPECT_EQ(order->nodes.front(), NodeId(0));
  EXPECT_EQ(order->nodes.back(), NodeId(3));
  EXPECT_EQ(order->forward_edges.size(), 3u);
  for (const auto& back : order->back_edges) {
    EXPECT_TRUE(back.empty());
  }
}

TEST(ChainOrder, RecognizesChainBuiltBackwards) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(c, b);
  (void)g.add_edge(b, a);
  const auto order = chain_order(flat(g));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->nodes.front(), c);
  EXPECT_EQ(order->nodes.back(), a);
}

TEST(ChainOrder, AcceptsAntiParallelBackEdges) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId fwd = g.add_edge(a, b);
  const EdgeId back = g.add_edge(b, a);
  const auto order = chain_order(flat(g));
  ASSERT_TRUE(order.has_value());
  // Ambiguous orientation: both (a,b) and (b,a) admit exactly one forward
  // edge; the walk starts from the lower endpoint, so a comes first.
  EXPECT_EQ(order->nodes.front(), a);
  EXPECT_EQ(order->forward_edges[0], fwd);
  ASSERT_EQ(order->back_edges[0].size(), 1u);
  EXPECT_EQ(order->back_edges[0][0], back);
}

TEST(ChainOrder, SingleNodeIsAChain) {
  Digraph g;
  (void)g.add_node();
  const auto order = chain_order(flat(g));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->nodes.size(), 1u);
  EXPECT_TRUE(order->forward_edges.empty());
}

TEST(ChainOrder, RejectsBranching) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, c);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsCycle) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, c);
  (void)g.add_edge(c, a);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsSelfLoop) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, a);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsDisconnected) {
  Digraph g = path_graph(3);
  (void)g.add_node();
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsMixedDirectionPath) {
  // a -> b <- c is an undirected path but has no consistent orientation.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(c, b);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsParallelForwardEdges) {
  // Two a -> b edges leave the undirected shape a path, but the chain
  // orientation is ambiguous (two candidate forward edges).
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, b);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsParallelForwardEdgesInsideLongerChain) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, c);
  (void)g.add_edge(b, c);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsEmptyGraph) {
  EXPECT_FALSE(chain_order(flat(Digraph{})).has_value());
}

TEST(ChainOrder, RejectsSingleNodeWithSelfLoop) {
  Digraph g;
  const NodeId a = g.add_node();
  (void)g.add_edge(a, a);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsTwoIsolatedNodes) {
  Digraph g;
  (void)g.add_node();
  (void)g.add_node();
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(ChainOrder, RejectsDisconnectedUnionOfTwoPaths) {
  // Degree profile looks chain-like (four endpoints fail fast), but also
  // check a disconnected 2+2 shape where the pair count gives it away.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const NodeId d = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(c, d);
  EXPECT_FALSE(chain_order(flat(g)).has_value());
}

TEST(Bridges, PathEdgesAreAllBridges) {
  const Digraph g = path_graph(4);
  const auto bridge = undirected_bridges(flat(g));
  ASSERT_EQ(bridge.size(), 3u);
  for (const bool b : bridge) {
    EXPECT_TRUE(b);
  }
}

TEST(Bridges, DiamondEdgesAreNotBridgesButTailIs) {
  //   a -> b -> d -> e
  //   a -> c -> d
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const NodeId d = g.add_node();
  const NodeId e = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, c);
  (void)g.add_edge(b, d);
  (void)g.add_edge(c, d);
  const EdgeId tail = g.add_edge(d, e);
  const auto bridge = undirected_bridges(flat(g));
  EXPECT_EQ(bridge, (std::vector<bool>{false, false, false, false, true}));
  EXPECT_TRUE(bridge[tail.index()]);
}

TEST(Bridges, ParallelEdgesAndSelfLoopsAreNotBridges) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, a);  // anti-parallel pair: undirected cycle
  (void)g.add_edge(b, b);  // self-loop
  (void)g.add_edge(b, c);  // bridge
  EXPECT_EQ(undirected_bridges(flat(g)),
            (std::vector<bool>{false, false, false, true}));
}

TEST(Bridges, DisconnectedComponentsHandled) {
  Digraph g = path_graph(2);
  const NodeId x = g.add_node();
  const NodeId y = g.add_node();
  (void)g.add_edge(x, y);
  (void)g.add_edge(y, x);
  EXPECT_EQ(undirected_bridges(flat(g)), (std::vector<bool>{true, false, false}));
}

TEST(Scc, FindsComponents) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const NodeId d = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, a);
  (void)g.add_edge(b, c);
  (void)g.add_edge(c, d);
  (void)g.add_edge(d, c);
  const auto component = strong_components(flat(g));
  ASSERT_EQ(component.size(), 4u);
  EXPECT_EQ(component_count(component), 2u);
  EXPECT_EQ(component[a.index()], component[b.index()]);
  EXPECT_EQ(component[c.index()], component[d.index()]);
  // Reverse topological order of the condensation: {c, d}, fed by
  // {a, b}, completes first.
  EXPECT_LT(component[c.index()], component[a.index()]);
}

TEST(Scc, SingletonComponents) {
  const Digraph g = path_graph(3);
  EXPECT_EQ(component_count(strong_components(flat(g))), 3u);
}

TEST(Scc, BufferPairIsOneComponent) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, a);
  EXPECT_EQ(component_count(strong_components(flat(g))), 1u);
}

TEST(Scc, SelfLoopStaysASingletonComponent) {
  // A self-loop does not merge its node with anything; the node is still
  // its own (cyclic) component.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, a);
  (void)g.add_edge(a, b);
  const auto component = strong_components(flat(g));
  EXPECT_EQ(component_count(component), 2u);
  EXPECT_NE(component[a.index()], component[b.index()]);
}

TEST(Scc, ParallelAndAntiParallelEdgesDoNotOverMerge) {
  // Parallel edges a→b (twice) create no cycle; the anti-parallel pair
  // b⇄c does.  Components: {a}, {b, c}.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, c);
  (void)g.add_edge(c, b);
  const auto component = strong_components(flat(g));
  EXPECT_EQ(component_count(component), 2u);
  EXPECT_EQ(component[b.index()], component[c.index()]);
  EXPECT_NE(component[a.index()], component[b.index()]);
}

TEST(Scc, DisconnectedGraphCoversEveryNode) {
  // Two disjoint pieces: a 2-cycle and an isolated node; every node must
  // get a component.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId lonely = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, a);
  const auto component = strong_components(flat(g));
  ASSERT_EQ(component.size(), 3u);
  EXPECT_EQ(component_count(component), 2u);
  EXPECT_EQ(component[a.index()], component[b.index()]);
  EXPECT_NE(component[lonely.index()], component[a.index()]);
}

TEST(Scc, SingleNodeGraph) {
  Digraph g;
  (void)g.add_node();
  EXPECT_EQ(strong_components(flat(g)), (std::vector<std::uint32_t>{0}));
}

TEST(Scc, EmptyGraphHasNoComponents) {
  EXPECT_TRUE(strong_components(flat(Digraph{})).empty());
}

TEST(Scc, CycleEdgesShareAComponent) {
  // a ⇄ b → c → d → c, plus self-loop on a: the a↔b and c↔d cycles are
  // components, the bridge b→c is the only acyclic edge.
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const NodeId d = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(b, a);
  const EdgeId bc = g.add_edge(b, c);
  (void)g.add_edge(c, d);
  (void)g.add_edge(d, c);
  (void)g.add_edge(a, a);
  const FlatDigraph f = flat(g);
  const auto component = strong_components(f);
  EXPECT_EQ(component_count(component), 2u);
  for (std::size_t e = 0; e < f.edge_count(); ++e) {
    const EdgeId id(static_cast<EdgeId::underlying_type>(e));
    const NodeId s = f.source(id);
    const NodeId t = f.target(id);
    const bool on_cycle =
        s == t || component[s.index()] == component[t.index()];
    EXPECT_EQ(on_cycle, id != bc) << "edge " << e;
  }
}

TEST(FindDirectedCycle, ReportsACycleOrNothing) {
  EXPECT_FALSE(find_directed_cycle(flat(path_graph(4))).has_value());

  Digraph g = path_graph(3);  // 0 → 1 → 2
  (void)g.add_edge(NodeId(2), NodeId(0));
  const auto cycle = find_directed_cycle(flat(g));
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(*cycle, (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2)}));

  Digraph h;
  const NodeId n = h.add_node();
  (void)h.add_edge(n, n);
  const auto loop = find_directed_cycle(flat(h));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(*loop, (std::vector<NodeId>{n}));
}

TEST(Ids, InvalidAndValidBehaviour) {
  EXPECT_FALSE(NodeId::invalid().is_valid());
  EXPECT_TRUE(NodeId(0).is_valid());
  EXPECT_EQ(NodeId(3).index(), 3u);
  EXPECT_NE(std::hash<NodeId>{}(NodeId(1)), std::hash<NodeId>{}(NodeId(2)));
}

}  // namespace
}  // namespace vrdf::graph
