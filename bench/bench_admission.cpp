// Incremental-analysis / admission-control performance (PR 7).  Compiled
// into bench_perf (no own main) so the `bench` target's BENCH_PR<N>.json
// captures the series:
//  - BM_RetuneFullRecompute: one response-time change answered by a full
//    compute_buffer_capacities run over the snapshot — the baseline an
//    admission controller would pay without memoization;
//  - BM_RetuneIncremental: the same change through IncrementalAnalysis
//    (cached pacing, ω-cone re-derivation, pair-local resizing).  The
//    acceptance bar is ≥10× over the full recompute at 16+ actors; the
//    cache counters (pacing hits, pairs reused vs recomputed, cone sizes)
//    ride along in the JSON so the speedup is attributable, not inferred;
//  - BM_AdmissionServiceLoop: sustained queries/sec of a long-lived
//    AdmissionController serving a retune / admit / remove / period-move
//    mix, every decision checked and rolled back on rejection;
//  - BM_AdmissionServiceLoopCertified: the same loop on a controller
//    with set_require_certificate(true), so every decision's candidate
//    is also certified and re-validated by the independent checker.
#include <benchmark/benchmark.h>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "models/synthetic.hpp"

namespace {

using namespace vrdf;

models::SyntheticChain make_service_chain(std::size_t length) {
  models::RandomChainSpec spec;
  spec.seed = 7;
  spec.length = length;
  // Small quanta keep the exact-rational ω accumulation inside int64 on
  // long chains (the rates, not the length, drive the denominators).
  spec.max_quantum = 4;
  // Halved response times leave pacing slack, so the benchmarked retunes
  // are accepted (the hot path) rather than rejected-and-rolled-back.
  spec.response_fraction = Rational(1, 2);
  return models::make_random_chain(spec);
}

void export_engine_counters(benchmark::State& state,
                            const analysis::InvalidationStats& stats) {
  state.counters["pacing_recomputes"] =
      static_cast<double>(stats.pacing_recomputes);
  state.counters["pacing_cache_hits"] =
      static_cast<double>(stats.pacing_cache_hits);
  state.counters["pairs_recomputed"] =
      static_cast<double>(stats.pairs_recomputed);
  state.counters["pairs_reused"] = static_cast<double>(stats.pairs_reused);
  state.counters["last_cone_actors"] =
      static_cast<double>(stats.last_cone_actors);
  state.counters["last_cone_pairs"] =
      static_cast<double>(stats.last_cone_pairs);
}

void BM_RetuneFullRecompute(benchmark::State& state) {
  const models::SyntheticChain chain =
      make_service_chain(static_cast<std::size_t>(state.range(0)));
  const analysis::TopologySnapshot snapshot(chain.graph);
  const analysis::ConstraintSet constraints{chain.constraint};
  const analysis::AnalysisOptions options;
  analysis::ParameterOverlay overlay;
  const dataflow::ActorId victim = snapshot.view().actors.front();
  const Rational rho = chain.graph.actor(victim).response_time.seconds();
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    overlay.set_response_time(
        victim, Duration(rho * (flip ? Rational(1, 2) : Rational(2, 3))));
    const analysis::GraphAnalysis full = analysis::compute_buffer_capacities(
        snapshot, constraints, options, overlay);
    benchmark::DoNotOptimize(full.total_capacity);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RetuneFullRecompute)->Arg(16)->Arg(64)->Arg(256);

void run_retune_incremental(benchmark::State& state, bool mid_chain) {
  const models::SyntheticChain chain =
      make_service_chain(static_cast<std::size_t>(state.range(0)));
  const analysis::TopologySnapshot snapshot(chain.graph);
  analysis::IncrementalAnalysis engine(snapshot,
                                       analysis::ConstraintSet{chain.constraint});
  const std::vector<dataflow::ActorId>& order = snapshot.view().actors;
  // A near-source retune has an O(1) invalidation cone on a
  // sink-constrained chain (ω flows downstream-to-upstream and stops at
  // the changed actor's producers); a mid-chain retune invalidates the
  // whole upstream half — the honest worst case, with the cone size in
  // the counters.
  const dataflow::ActorId victim = mid_chain ? order[order.size() / 2]
                                             : order.front();
  const Rational rho = chain.graph.actor(victim).response_time.seconds();
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    engine.retune(victim,
                  Duration(rho * (flip ? Rational(1, 2) : Rational(2, 3))));
    benchmark::DoNotOptimize(engine.analysis().total_capacity);
  }
  state.SetItemsProcessed(state.iterations());
  export_engine_counters(state, engine.stats());
}

void BM_RetuneIncremental(benchmark::State& state) {
  run_retune_incremental(state, /*mid_chain=*/false);
}
BENCHMARK(BM_RetuneIncremental)->Arg(16)->Arg(64)->Arg(256);

void BM_RetuneIncrementalMidChain(benchmark::State& state) {
  run_retune_incremental(state, /*mid_chain=*/true);
}
BENCHMARK(BM_RetuneIncrementalMidChain)->Arg(16)->Arg(64)->Arg(256);

void run_admission_service_loop(benchmark::State& state, bool certified) {
  // Sustained decision rate of a live controller on a 16-actor chain:
  // retune a mid-chain codec down and back, admit a second stream at an
  // interior actor's own rate, stop it again — every fourth decision
  // re-propagates pacing (admit/remove), the rest ride the caches.
  // Static rates: a second constraint on a variable-rate chain is
  // rejected by the multi-constraint flow-coupling rule, and this loop
  // measures the accepted path.
  models::RandomChainSpec loop_spec;
  loop_spec.seed = 7;
  loop_spec.length = 16;
  loop_spec.max_quantum = 4;
  loop_spec.variable_percent = 0;
  loop_spec.response_fraction = Rational(1, 2);
  const models::SyntheticChain chain = models::make_random_chain(loop_spec);
  const analysis::TopologySnapshot snapshot(chain.graph);
  analysis::AdmissionController controller(
      snapshot, analysis::ConstraintSet{chain.constraint});
  controller.set_require_certificate(certified);
  const std::vector<dataflow::ActorId>& order = snapshot.view().actors;
  const dataflow::ActorId codec = order[order.size() / 2];
  const dataflow::ActorId stream_actor = order[order.size() / 4];
  const Rational rho = chain.graph.actor(codec).response_time.seconds();
  // The interior actor's pacing φ: a flow-consistent admission rate.
  Duration stream_period;
  const analysis::GraphAnalysis& initial = controller.analysis();
  for (std::size_t i = 0; i < initial.actors_in_order.size(); ++i) {
    if (initial.actors_in_order[i] == stream_actor) {
      stream_period = initial.pacing[i];
    }
  }
  std::uint64_t accepted = 0;
  std::uint64_t step = 0;
  for (auto _ : state) {
    analysis::AdmissionDecision decision;
    switch (step++ % 4) {
      case 0:
        decision = controller.retune(codec, Duration(rho * Rational(1, 2)));
        break;
      case 1:
        decision = controller.retune(codec, Duration(rho));
        break;
      case 2:
        decision = controller.admit(
            analysis::ThroughputConstraint{stream_actor, stream_period});
        break;
      default:
        decision = controller.remove(stream_actor);
        break;
    }
    accepted += decision.accepted ? 1 : 0;
    benchmark::DoNotOptimize(decision.total_capacity);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["accepted"] = static_cast<double>(accepted);
  export_engine_counters(state, controller.engine().stats());
}

void BM_AdmissionServiceLoop(benchmark::State& state) {
  run_admission_service_loop(state, /*certified=*/false);
}
BENCHMARK(BM_AdmissionServiceLoop);

void BM_AdmissionServiceLoopCertified(benchmark::State& state) {
  run_admission_service_loop(state, /*certified=*/true);
}
BENCHMARK(BM_AdmissionServiceLoopCertified);

}  // namespace
