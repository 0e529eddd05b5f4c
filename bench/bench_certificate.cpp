// Certificate-check performance.  Compiled into bench_perf (no own main)
// so the `bench` target's BENCH_PR<N>.json captures the series:
//  - BM_CertificateCheck/<model>/<mode>: one check_certificate call on a
//    valid certificate.  model 0 is the MP3 case study, model 1 a
//    16-actor random chain.  mode 0 checks a plain analysis with the
//    parameters bound to the graph; mode 1 checks the certificate of an
//    IncrementalAnalysis after a ρ retune, with the parameters read from
//    the overlay (bind_parameters_to_graph=false), as certify mode does.
//    Every clause holds, so this is the passing path a certified
//    decision pays; the clause count rides along as a counter.
#include <benchmark/benchmark.h>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"

namespace {

using namespace vrdf;

struct CheckedModel {
  dataflow::VrdfGraph graph;
  analysis::ConstraintSet constraints;
};

CheckedModel make_checked_model(std::int64_t model) {
  if (model == 0) {
    models::Mp3Playback mp3 = models::make_mp3_playback();
    return {std::move(mp3.graph), analysis::ConstraintSet{mp3.constraint}};
  }
  models::RandomChainSpec spec;
  spec.seed = 7;
  spec.length = 16;
  spec.max_quantum = 4;
  spec.response_fraction = Rational(1, 2);
  models::SyntheticChain chain = models::make_random_chain(spec);
  return {std::move(chain.graph), analysis::ConstraintSet{chain.constraint}};
}

void BM_CertificateCheck(benchmark::State& state) {
  const CheckedModel model = make_checked_model(state.range(0));
  const bool overlay_mode = state.range(1) != 0;
  analysis::Certificate cert;
  analysis::CheckerOptions options;
  if (overlay_mode) {
    const analysis::TopologySnapshot snapshot(model.graph);
    analysis::IncrementalAnalysis engine(snapshot, model.constraints);
    const dataflow::ActorId victim = snapshot.view().actors.front();
    engine.retune(victim, Duration(model.graph.actor(victim)
                                       .response_time.seconds() *
                                   Rational(1, 2)));
    cert = analysis::make_certificate(model.graph, engine.analysis(),
                                      engine.overlay());
    options.bind_parameters_to_graph = false;
  } else {
    cert = analysis::make_certificate(
        model.graph,
        analysis::compute_buffer_capacities(model.graph, model.constraints));
  }
  std::uint64_t clauses = 0;
  for (auto _ : state) {
    const analysis::CertificateCheck check =
        analysis::check_certificate(model.graph, cert, options);
    if (!check.ok) {
      state.SkipWithError(check.first_violation().c_str());
      break;
    }
    clauses = check.clauses_checked;
    benchmark::DoNotOptimize(clauses);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["clauses"] = static_cast<double>(clauses);
}
BENCHMARK(BM_CertificateCheck)
    ->ArgNames({"model", "overlay"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace
