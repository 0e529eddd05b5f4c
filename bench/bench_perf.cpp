// E8 — performance of the analysis and the simulator (google-benchmark).
//
// The buffer-capacity computation is a linear pass over the chain; the
// plot of time versus chain length should be a straight line.  The
// simulator's events/second bound how long the verification step of large
// models takes.  BM_Snapshot/<model> times the topology layer alone: one
// TopologySnapshot (validation, cycle classification, buffer view) of
// MP3 (0), the five generator classes at their default specs (1-5) and
// random chains of 16 and 64 actors; items are snapshots.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "analysis/buffer_sizing.hpp"
#include "analysis/snapshot.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace {

using namespace vrdf;

void BM_Mp3CapacityComputation(benchmark::State& state) {
  const models::Mp3Playback app = models::make_mp3_playback();
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(app.graph, app.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
}
BENCHMARK(BM_Mp3CapacityComputation);

void BM_ChainCapacityVsLength(benchmark::State& state) {
  models::RandomChainSpec spec;
  spec.seed = 7;
  spec.length = static_cast<std::size_t>(state.range(0));
  spec.max_quantum = 8;
  const models::SyntheticChain chain = models::make_random_chain(spec);
  for (auto _ : state) {
    const analysis::GraphAnalysis result =
        analysis::compute_buffer_capacities(chain.graph, chain.constraint);
    benchmark::DoNotOptimize(result.total_capacity);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChainCapacityVsLength)->RangeMultiplier(2)->Range(2, 64)
    ->Complexity(benchmark::oN);

void BM_PacingOnly(benchmark::State& state) {
  models::RandomChainSpec spec;
  spec.seed = 11;
  spec.length = static_cast<std::size_t>(state.range(0));
  const models::SyntheticChain chain = models::make_random_chain(spec);
  for (auto _ : state) {
    const auto budget = analysis::max_admissible_response_times(
        chain.graph, chain.constraint);
    benchmark::DoNotOptimize(budget.max_response_times.size());
  }
}
BENCHMARK(BM_PacingOnly)->Arg(8)->Arg(32);

dataflow::VrdfGraph snapshot_model(std::int64_t model) {
  if (model == 0) {
    return models::make_mp3_playback().graph;
  }
  if (model <= 5) {
    models::RandomModelSpec spec;
    spec.model_class = static_cast<models::ModelClass>(model - 1);
    return models::make_random_model(spec).graph;
  }
  models::RandomChainSpec spec;
  spec.length = static_cast<std::size_t>(model);
  for (spec.seed = 1;; ++spec.seed) {
    try {
      return models::make_random_chain(spec).graph;
    } catch (const OverflowError&) {
      // Long chains overflow on some seeds; take the next one.
    }
  }
}

void BM_Snapshot(benchmark::State& state) {
  const dataflow::VrdfGraph graph = snapshot_model(state.range(0));
  for (auto _ : state) {
    const analysis::TopologySnapshot snapshot(graph);
    benchmark::DoNotOptimize(snapshot.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["actors"] = static_cast<double>(graph.actor_count());
}
BENCHMARK(BM_Snapshot)->DenseRange(0, 5)->Arg(16)->Arg(64);

void RunSimulatorFirings(benchmark::State& state, sim::ClockMode mode) {
  // Firings per second on the Fig 1 pair with random quanta.
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  (void)g.add_buffer(a, b, dataflow::RateSet::singleton(3),
                     dataflow::RateSet::of({2, 3}), 11);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(g);
    sim.set_clock_mode(mode);
    sim.set_default_sources(42);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 10000};
    const sim::RunResult result = sim.run(stop);
    fired += result.total_firings;
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(fired);
}

void BM_SimulatorFirings(benchmark::State& state) {
  RunSimulatorFirings(state, sim::ClockMode::Auto);
}
BENCHMARK(BM_SimulatorFirings);

void BM_SimulatorFiringsExactRational(benchmark::State& state) {
  // The exact-Rational fallback path, for comparison with the tick clock.
  RunSimulatorFirings(state, sim::ClockMode::ForceExactRational);
}
BENCHMARK(BM_SimulatorFiringsExactRational);

void BM_SimulatorMp3Second(benchmark::State& state) {
  // One second of MP3 playback (44100 DAC ticks) per iteration.
  models::Mp3Playback app = models::make_mp3_playback();
  const analysis::GraphAnalysis result =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, result);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(app.graph);
    sim.set_default_sources(1);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{app.dac, 44100};
    fired += sim.run(stop).total_firings;
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_SimulatorMp3Second);

}  // namespace

BENCHMARK_MAIN();
