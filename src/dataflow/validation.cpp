#include "dataflow/validation.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "util/error.hpp"

namespace vrdf::dataflow {

std::string ValidationReport::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) {
      os << "; ";
    }
    os << errors[i];
  }
  return os.str();
}

namespace {

/// The per-buffer invariants shared by every model class: connectivity,
/// pairing, strong consistency of the buffer protocol.
ValidationReport validate_buffer_network(
    const VrdfGraph& graph, const VrdfGraph::Classification& topology) {
  ValidationReport report;
  if (graph.actor_count() == 0) {
    report.errors.push_back("graph has no actors");
    return report;
  }
  if (!topology.weakly_connected) {
    report.errors.push_back("graph is not weakly connected");
  }
  for (std::size_t i = 0; !topology.all_paired && i < graph.edge_count();
       ++i) {
    const Edge& edge = graph.edge(EdgeId(static_cast<EdgeId::underlying_type>(i)));
    if (!edge.paired.is_valid()) {
      std::ostringstream os;
      os << "edge " << graph.actor(edge.source).name << " -> "
         << graph.actor(edge.target).name
         << " is not part of a buffer pair";
      report.errors.push_back(os.str());
    }
  }
  for (const BufferEdges& b : graph.buffers()) {
    const Edge& data = graph.edge(b.data);
    const Edge& space = graph.edge(b.space);
    if (!(data.production == space.consumption) ||
        !(data.consumption == space.production)) {
      std::ostringstream os;
      os << "buffer " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name
         << " violates strong consistency: data(pi=" << data.production
         << ", gamma=" << data.consumption << ") vs space(pi="
         << space.production << ", gamma=" << space.consumption << ')';
      report.errors.push_back(os.str());
    }
  }
  return report;
}

/// The diagnostic of a token-free cycle.  Only a rejected model gets here,
/// so the token-free data edges are gathered for it alone.
std::string token_free_cycle_error(const VrdfGraph& graph) {
  std::vector<ActorId> sources;
  std::vector<ActorId> targets;
  for (const BufferEdges& b : graph.buffers()) {
    const Edge& data = graph.edge(b.data);
    if (data.initial_tokens == 0) {
      sources.push_back(data.source);
      targets.push_back(data.target);
    }
  }
  const auto cycle = graph::find_directed_cycle(graph::FlatDigraph(
      graph.actor_count(), std::move(sources), std::move(targets)));
  VRDF_REQUIRE(cycle.has_value(), "classified token-free cycle not found");
  std::ostringstream os;
  os << "data cycle without initial tokens (deadlocks at t=0): ";
  for (const ActorId n : *cycle) {
    os << graph.actor(n).name << " -> ";
  }
  os << graph.actor(cycle->front()).name
     << "; every cycle must carry at least one initial token on a data edge";
  return os.str();
}

}  // namespace

ValidationReport validate_cyclic_model(const VrdfGraph& graph) {
  return validate_cyclic_model(graph, graph.classify());
}

ValidationReport validate_dag_model(const VrdfGraph& graph) {
  return validate_dag_model(graph, graph.classify());
}

ValidationReport validate_chain_model(const VrdfGraph& graph) {
  return validate_chain_model(graph, graph.classify());
}

ValidationReport validate_cyclic_model(
    const VrdfGraph& graph, const VrdfGraph::Classification& topology) {
  ValidationReport report = validate_buffer_network(graph, topology);
  if (!report.ok()) {
    return report;
  }
  // Every directed cycle must carry an initial token: equivalently, the
  // token-free data edges alone must be acyclic (any cycle of the full
  // data graph either is entirely token-free — rejected here — or breaks
  // at a tokened back-edge).
  if (topology.token_free_cycle) {
    report.errors.push_back(token_free_cycle_error(graph));
    return report;
  }
  // Cycle edges must have static, positive rates: the circulating token
  // count of a cycle is conserved, so a variable realized rate on any of
  // its edges lets the loop's flow balance drift unboundedly.
  const std::vector<BufferEdges> buffers = graph.buffers();
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    if (!topology.on_cycle[i]) {
      continue;
    }
    const Edge& data = graph.edge(buffers[i].data);
    const bool is_static =
        data.production.is_singleton() && data.consumption.is_singleton();
    if (!is_static || data.production.min() == 0 ||
        data.consumption.min() == 0) {
      std::ostringstream os;
      os << "buffer " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name << ": rates (pi=" << data.production
         << ", gamma=" << data.consumption
         << ") on a directed data cycle must be static and positive; a "
            "variable or zero quantum would make the cycle's circulating "
            "flow drift";
      report.errors.push_back(os.str());
    }
  }
  return report;
}

ValidationReport validate_dag_model(const VrdfGraph& graph,
                                    const VrdfGraph::Classification& topology) {
  ValidationReport report = validate_buffer_network(graph, topology);
  if (report.ok() && std::find(topology.on_cycle.begin(),
                               topology.on_cycle.end(),
                               true) != topology.on_cycle.end()) {
    report.errors.push_back("data edges contain a directed cycle");
  }
  return report;
}

ValidationReport validate_chain_model(
    const VrdfGraph& graph, const VrdfGraph::Classification& topology) {
  ValidationReport report = validate_dag_model(graph, topology);
  // A weakly connected, acyclic buffer network always has a view, and it
  // is a chain exactly when every fan-in and fan-out is at most one.
  if (report.ok() && !topology.view->is_chain) {
    report.errors.push_back("data edges do not form a chain (Sec 3.1)");
  }
  return report;
}

}  // namespace vrdf::dataflow
