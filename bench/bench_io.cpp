// Model-ingest performance.  Compiled into bench_perf (no own main) so
// the `bench` target's BENCH_PR<N>.json captures the series:
//  - BM_ReadChain/<model>: one io::read_chain call on the canonical
//    vrdf-chain v1 text of a model.  model 0 is the MP3 case study,
//    1-5 the five generator classes at their default specs (capacities
//    installed, so capacity= and delta= attributes are parsed too), and
//    16/32/48 random chains of that many actors at the first seed the
//    generator sizes without overflow.  Bytes per second and the actor
//    count ride along.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "io/text_format.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace {

using namespace vrdf;

std::string chain_text(std::int64_t model) {
  if (model == 0) {
    const models::Mp3Playback mp3 = models::make_mp3_playback();
    return io::write_chain(mp3.graph, mp3.constraint);
  }
  if (model <= 5) {
    models::RandomModelSpec spec;
    spec.model_class = static_cast<models::ModelClass>(model - 1);
    const models::SyntheticModel m = models::make_random_model(spec);
    return io::write_chain(m.graph, m.constraints);
  }
  models::RandomChainSpec spec;
  spec.length = static_cast<std::size_t>(model);
  for (spec.seed = 1;; ++spec.seed) {
    try {
      const models::SyntheticChain m = models::make_random_chain(spec);
      return io::write_chain(m.graph, m.constraint);
    } catch (const OverflowError&) {
      // Long chains overflow on some seeds; take the next one.
    }
  }
}

void BM_ReadChain(benchmark::State& state) {
  const std::string text = chain_text(state.range(0));
  std::size_t actors = 0;
  for (auto _ : state) {
    const io::ChainDocument doc = io::read_chain(text);
    actors = doc.graph.actor_count();
    benchmark::DoNotOptimize(actors);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["actors"] = static_cast<double>(actors);
}
BENCHMARK(BM_ReadChain)->DenseRange(0, 5)->Arg(16)->Arg(32)->Arg(48);

}  // namespace
