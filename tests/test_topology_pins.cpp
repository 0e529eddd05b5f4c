// Byte-for-byte pins of the topology classification.  For every model of
// a fixed corpus the test renders
//  * VrdfGraph::buffer_view(), every field, and chain_view();
//  * the diagnostics, in order, of validate_cyclic_model,
//    validate_dag_model, validate_chain_model and TopologySnapshot (and
//    the snapshot's view, which must equal buffer_view());
// and compares the text with topology_pins.inc.  The corpus is MP3, the
// named example pipelines, every generator class in sink and source mode
// at three seeds, random chains of 8-64 actors, and hand-built edge cases
// (token-free cycles, tokened self-loops, several tokened edges on one
// cycle, parallel buffers, disconnected graphs, unpaired edges, variable
// rates on cycle edges, the empty graph).
//
// A strong-consistency violation is not in the corpus: add_buffer derives
// the space edge's rates from the data edge's, so no graph built through
// the public API can violate it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.hpp"
#include "dataflow/validation.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::dataflow {
namespace {

struct Pin {
  const char* name;
  const char* text;
};

#include "topology_pins.inc"

const Duration kRho = milliseconds(Rational(1));

void render_positions(std::ostream& os, const std::vector<std::size_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : " ") << v[i];
  }
  os << ']';
}

void render_flags(std::ostream& os, const char* label,
                  const std::vector<bool>& flags) {
  os << label << ' ';
  for (const bool f : flags) {
    os << (f ? '1' : '0');
  }
  os << '\n';
}

std::string render_view(const VrdfGraph& g, const VrdfGraph::BufferView& v) {
  std::ostringstream os;
  const auto actors = [&](const char* label, const std::vector<ActorId>& ids) {
    os << label;
    for (const ActorId a : ids) {
      os << ' ' << g.actor(a).name;
    }
    os << '\n';
  };
  actors("actors", v.actors);
  os << "buffers\n";
  for (std::size_t pos = 0; pos < v.buffers.size(); ++pos) {
    const Edge& data = g.edge(v.buffers[pos].data);
    os << "  " << pos << ": e" << v.buffers[pos].data.index() << "/e"
       << v.buffers[pos].space.index() << ' ' << g.actor(data.source).name
       << " -> " << g.actor(data.target).name << '\n';
  }
  os << "in/out\n";
  for (std::size_t a = 0; a < v.in_buffers.size(); ++a) {
    os << "  " << g.actor(ActorId(static_cast<std::uint32_t>(a))).name
       << ' ';
    render_positions(os, v.in_buffers[a]);
    os << ' ';
    render_positions(os, v.out_buffers[a]);
    os << '\n';
  }
  actors("sources", v.data_sources);
  actors("sinks", v.data_sinks);
  render_flags(os, "reconvergent", v.on_reconvergent_path);
  render_flags(os, "on_cycle", v.on_cycle);
  render_flags(os, "feedback", v.is_feedback);
  os << "feedback_buffers ";
  render_positions(os, v.feedback_buffers);
  os << "\ncyclic " << v.is_cyclic << " chain " << v.is_chain << '\n';
  return os.str();
}

std::string render(const VrdfGraph& g) {
  std::ostringstream os;
  const auto diagnostics = [&](const char* label,
                               const std::vector<std::string>& errors) {
    os << label << ':' << (errors.empty() ? " ok" : "") << '\n';
    for (const std::string& e : errors) {
      os << "  " << e << '\n';
    }
  };
  diagnostics("cyclic", validate_cyclic_model(g).errors);
  diagnostics("dag", validate_dag_model(g).errors);
  diagnostics("chain", validate_chain_model(g).errors);
  const analysis::TopologySnapshot snapshot(g);
  diagnostics("snapshot", snapshot.diagnostics());
  const auto view = g.buffer_view();
  if (view.has_value()) {
    os << render_view(g, *view);
    if (snapshot.ok()) {
      EXPECT_EQ(render_view(g, snapshot.view()), render_view(g, *view));
    }
  } else {
    os << "view: none\n";
    EXPECT_FALSE(snapshot.ok());
  }
  const auto chain = g.chain_view();
  os << "chain_view";
  if (chain.has_value()) {
    for (std::size_t i = 0; i < chain->actors.size(); ++i) {
      os << ' ' << g.actor(chain->actors[i]).name;
      if (i < chain->buffers.size()) {
        os << " e" << chain->buffers[i].data.index();
      }
    }
  } else {
    os << " none";
  }
  os << '\n';
  return os.str();
}

// ------------------------------------------------------------- corpus

using Corpus = std::vector<std::pair<std::string, VrdfGraph>>;

RateSet one() { return RateSet::singleton(1); }

void add_hand_built(Corpus& corpus) {
  {
    VrdfGraph g;
    corpus.emplace_back("empty", g);
  }
  {
    VrdfGraph g;
    (void)g.add_actor("solo", kRho);
    corpus.emplace_back("single_actor", g);
  }
  {
    // Two token-free cycles through b; the DFS path is what is reported.
    VrdfGraph g;
    const ActorId src = g.add_actor("src", kRho);
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    const ActorId d = g.add_actor("d", kRho);
    const ActorId snk = g.add_actor("snk", kRho);
    (void)g.add_buffer(src, a, one(), one());
    (void)g.add_buffer(a, b, one(), one());
    (void)g.add_buffer(b, d, one(), one());
    (void)g.add_buffer(b, c, one(), one());
    (void)g.add_buffer(c, a, one(), one());
    (void)g.add_buffer(d, b, one(), one());
    (void)g.add_buffer(c, snk, one(), one());
    corpus.emplace_back("token_free_cycle", g);
  }
  {
    // A token-free cycle next to a tokened one.
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    (void)g.add_buffer(a, b, one(), one(), 2, 1);
    (void)g.add_buffer(b, a, one(), one());
    (void)g.add_buffer(b, c, one(), one());
    (void)g.add_buffer(c, b, one(), one());
    corpus.emplace_back("token_free_beside_tokened", g);
  }
  {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    (void)g.add_buffer(a, a, one(), one());
    corpus.emplace_back("token_free_self_loop", g);
  }
  {
    VrdfGraph g;
    const ActorId src = g.add_actor("src", kRho);
    const ActorId a = g.add_actor("a", kRho);
    const ActorId snk = g.add_actor("snk", kRho);
    (void)g.add_buffer(src, a, RateSet::interval(1, 3), one());
    (void)g.add_buffer(a, a, one(), one(), 2, 1);
    (void)g.add_buffer(a, snk, one(), RateSet::of({0, 1}));
    corpus.emplace_back("tokened_self_loop", g);
  }
  {
    // Two tokened edges on one cycle: the last-inserted one is the
    // back-edge, the other keeps ordering the skeleton.
    VrdfGraph g;
    const ActorId src = g.add_actor("src", kRho);
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    const ActorId snk = g.add_actor("snk", kRho);
    (void)g.add_buffer(src, a, one(), one());
    (void)g.add_buffer(a, b, one(), one(), 4, 2);
    (void)g.add_buffer(b, c, one(), one());
    (void)g.add_buffer(c, a, one(), one(), 5, 3);
    (void)g.add_buffer(c, snk, one(), one());
    corpus.emplace_back("two_tokened_edges_on_one_cycle", g);
  }
  {
    // A re-admitted tokened edge leaves `a` after its token-free sibling
    // a -> x: the skeleton's topological order depends on that.
    VrdfGraph g;
    const ActorId src = g.add_actor("src", kRho);
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId x = g.add_actor("x", kRho);
    const ActorId snk = g.add_actor("snk", kRho);
    (void)g.add_buffer(src, a, one(), one());
    (void)g.add_buffer(a, b, one(), one(), 2, 1);
    (void)g.add_buffer(b, a, one(), one(), 2, 1);
    (void)g.add_buffer(a, x, one(), one());
    (void)g.add_buffer(x, snk, one(), one());
    (void)g.add_buffer(b, snk, one(), one());
    corpus.emplace_back("readmitted_edge_order", g);
  }
  {
    VrdfGraph g;
    const ActorId src = g.add_actor("src", kRho);
    const ActorId a = g.add_actor("a", kRho);
    const ActorId snk = g.add_actor("snk", kRho);
    (void)g.add_buffer(src, a, one(), one());
    (void)g.add_buffer(src, a, RateSet::singleton(2), RateSet::singleton(2));
    (void)g.add_buffer(a, snk, one(), one());
    corpus.emplace_back("parallel_buffers", g);
  }
  {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    const ActorId d = g.add_actor("d", kRho);
    (void)g.add_buffer(a, b, one(), one());
    (void)g.add_buffer(c, d, one(), one());
    corpus.emplace_back("disconnected", g);
  }
  {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    (void)g.add_actor("lonely", kRho);
    (void)g.add_buffer(a, b, one(), one());
    corpus.emplace_back("isolated_actor", g);
  }
  {
    // The bare edge is the only link to c: the graph is weakly connected
    // through it although its data edges are not.
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    (void)g.add_buffer(a, b, one(), one());
    (void)g.add_edge(b, c, one(), one());
    corpus.emplace_back("unpaired_bare_edge", g);
  }
  {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    (void)g.add_actor("lonely", kRho);
    (void)g.add_edge(a, b, one(), one());
    (void)g.add_edge(b, a, one(), one());
    corpus.emplace_back("unpaired_and_disconnected", g);
  }
  {
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    (void)g.add_buffer(a, b, RateSet::interval(1, 2), one());
    (void)g.add_buffer(b, a, one(), RateSet::of({0, 2}), 3, 1);
    (void)g.add_buffer(b, c, RateSet::interval(1, 4), one());
    corpus.emplace_back("variable_rate_on_cycle", g);
  }
  {
    // A diamond (reconvergent, no bridges) feeding a chain tail.
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    const ActorId d = g.add_actor("d", kRho);
    const ActorId e = g.add_actor("e", kRho);
    (void)g.add_buffer(a, b, one(), one());
    (void)g.add_buffer(a, c, one(), one());
    (void)g.add_buffer(c, d, one(), one());
    (void)g.add_buffer(b, d, one(), one());
    (void)g.add_buffer(d, e, one(), one());
    corpus.emplace_back("diamond", g);
  }
  {
    // A chain whose buffers were added sink first.
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    const ActorId d = g.add_actor("d", kRho);
    (void)g.add_buffer(c, d, one(), one());
    (void)g.add_buffer(b, c, one(), one());
    (void)g.add_buffer(a, b, one(), one());
    corpus.emplace_back("chain_built_backwards", g);
  }
  {
    // Every fan-in/fan-out is one but the chain is broken by a reversed
    // buffer: a -> b <- c.
    VrdfGraph g;
    const ActorId a = g.add_actor("a", kRho);
    const ActorId b = g.add_actor("b", kRho);
    const ActorId c = g.add_actor("c", kRho);
    (void)g.add_buffer(a, b, one(), one());
    (void)g.add_buffer(c, b, one(), one());
    corpus.emplace_back("mixed_direction_path", g);
  }
}

void add_generated(Corpus& corpus) {
  corpus.emplace_back("mp3", models::make_mp3_playback().graph);
  corpus.emplace_back("video_pipeline", models::make_video_pipeline().graph);
  corpus.emplace_back("sensor_acquisition",
                      models::make_sensor_acquisition().graph);
  corpus.emplace_back("feedback_pipeline",
                      models::make_feedback_pipeline().graph);
  corpus.emplace_back("av_sync", models::make_av_sync_pipeline().graph);
  corpus.emplace_back("av_dual_sink",
                      models::make_av_dual_sink_pipeline().graph);
  for (const models::ModelClass cls :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    for (const bool source : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        models::RandomModelSpec spec;
        spec.model_class = cls;
        spec.seed = seed;
        spec.source_constrained = source;
        corpus.emplace_back(std::string(models::class_name(cls)) +
                                (source ? "_source_" : "_sink_") +
                                std::to_string(seed),
                            models::make_random_model(spec).graph);
      }
    }
  }
  // Two random chains per length, at the first seeds the generator sizes
  // without overflow.
  for (const std::size_t length : {8, 16, 24, 32, 48, 64}) {
    models::RandomChainSpec spec;
    spec.length = length;
    int taken = 0;
    for (spec.seed = 1; taken < 2; ++spec.seed) {
      try {
        models::SyntheticChain m = models::make_random_chain(spec);
        corpus.emplace_back("random_chain_" + std::to_string(length) + "_" +
                                std::to_string(spec.seed),
                            std::move(m.graph));
        ++taken;
      } catch (const OverflowError&) {
        // Long chains overflow on some seeds; take the next one.
      }
    }
  }
}

Corpus corpus() {
  Corpus c;
  add_hand_built(c);
  add_generated(c);
  return c;
}

TEST(TopologyPins, CorpusMatchesPinnedRendering) {
  std::map<std::string, std::string> pinned;
  for (const Pin& pin : kPins) {
    pinned.emplace(pin.name, pin.text);
  }
  const Corpus models = corpus();
  EXPECT_EQ(models.size(), pinned.size());
  for (const auto& [name, graph] : models) {
    SCOPED_TRACE(name);
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << "no pin for " << name;
    EXPECT_EQ(render(graph), it->second);
  }
}

}  // namespace
}  // namespace vrdf::dataflow
