// Robustness-layer performance (PR 6).  Compiled into bench_perf (no own
// main) so the `bench` target's BENCH_PR<N>.json captures the series:
//  - BM_RobustnessMargins: per-actor margin + headroom search cost on a
//    random chain of 2-16 actors;
//  - BM_RobustnessMarginsFleet: the same search on the models a faulted
//    fleet sweep serves, one series per (class, constraint placement)
//    cell, cycling over the cell's first 16 items;
//  - BM_SimulatorFiringsFaulted: the hot loop with a fault plan attached,
//    for comparison with BM_SimulatorFirings (the guard on the unfaulted
//    path is a single branch, so the two must stay within noise of each
//    other when no plan is attached);
//  - BM_MonitoredVerify: the two-phase harness with the conformance
//    monitor attached (the engine grades ρ and the grid per firing);
//  - BM_VerifyFleetItems: verify_throughput on the items a fleet sweep
//    serves, per (class, constraint placement) cell, plain and with the
//    faulted sweep's within-margin overrun under the monitor, cycling
//    over the cell's first 16 items.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/buffer_sizing.hpp"
#include "analysis/robustness.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"
#include "util/seed_stream.hpp"

namespace {

using namespace vrdf;

void BM_RobustnessMargins(benchmark::State& state) {
  models::RandomChainSpec spec;
  spec.seed = 7;
  spec.length = static_cast<std::size_t>(state.range(0));
  const models::SyntheticChain chain = models::make_random_chain(spec);
  for (auto _ : state) {
    const analysis::RobustnessReport report =
        analysis::robustness_margins(chain.graph, chain.constraint);
    benchmark::DoNotOptimize(report.ok);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RobustnessMargins)->RangeMultiplier(2)->Range(2, 16);

void BM_RobustnessMarginsFleet(benchmark::State& state) {
  sim::SweepSpec spec;
  spec.classes = {static_cast<models::ModelClass>(state.range(0))};
  spec.modes = {state.range(1) != 0 ? sim::ConstraintMode::Source
                                    : sim::ConstraintMode::Sink};
  spec.seeds_per_class = 16;
  const sim::FleetSweep sweep(spec);
  std::vector<models::SyntheticModel> fleet_models;
  for (const sim::FleetItem& item : sweep.items()) {
    models::RandomModelSpec random;
    random.model_class = item.model_class;
    random.seed = item.rng_seed;
    random.response_fraction = spec.response_fraction;
    random.variable_percent = spec.variable_percent;
    random.zero_percent = spec.zero_percent;
    random.source_constrained = item.mode == sim::ConstraintMode::Source;
    fleet_models.push_back(models::make_random_model(random));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const models::SyntheticModel& model = fleet_models[next];
    next = (next + 1) % fleet_models.size();
    const analysis::RobustnessReport report =
        analysis::robustness_margins(model.graph, model.constraints);
    benchmark::DoNotOptimize(report.ok);
  }
  std::string label = models::class_name(spec.classes.front());
  label += state.range(1) != 0 ? "/source" : "/sink";
  state.SetLabel(label);
}
// The eight cells a fleet sweep serves: every class sink-constrained,
// plus the source-constrained form of chain, fork_join and cyclic.
BENCHMARK(BM_RobustnessMarginsFleet)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int model_class = 0; model_class < 5; ++model_class) {
        b->Args({model_class, 0});
      }
      for (int model_class = 0; model_class < 3; ++model_class) {
        b->Args({model_class, 1});
      }
    })
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatorFiringsFaulted(benchmark::State& state) {
  // The BM_SimulatorFirings fixture with a bursty-jitter plan on both
  // actors: every start draws a hashed perturbation, the worst case for
  // the fault branch in the scheduler.
  dataflow::VrdfGraph g;
  const auto a = g.add_actor("a", milliseconds(Rational(1)));
  const auto b = g.add_actor("b", milliseconds(Rational(1)));
  (void)g.add_buffer(a, b, dataflow::RateSet::singleton(3),
                     dataflow::RateSet::of({2, 3}), 11);
  sim::FaultPlan plan(9);
  plan.bursty_jitter(a, microseconds(Rational(50)), 1, 1);
  plan.bursty_jitter(b, microseconds(Rational(50)), 1, 1);
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim(g);
    sim.set_default_sources(42);
    plan.apply(sim);
    sim::StopCondition stop;
    stop.firing_target = sim::StopCondition::FiringTarget{b, 10000};
    const sim::RunResult result = sim.run(stop);
    fired += result.total_firings;
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_SimulatorFiringsFaulted);

void BM_MonitoredVerify(benchmark::State& state) {
  models::InteriorPinnedPipeline app = models::make_interior_pinned_pipeline();
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(app.graph, app.constraint);
  analysis::apply_capacities(app.graph, sized);
  sim::VerifyOptions options;
  options.observe_firings = 100;
  options.monitor = true;
  for (auto _ : state) {
    const sim::VerifyResult verdict =
        sim::verify_throughput(app.graph, app.constraint, {}, options);
    benchmark::DoNotOptimize(verdict.ok);
  }
}
BENCHMARK(BM_MonitoredVerify);

void BM_VerifyFleetItems(benchmark::State& state) {
  sim::SweepSpec spec;
  spec.classes = {static_cast<models::ModelClass>(state.range(0))};
  spec.modes = {state.range(1) != 0 ? sim::ConstraintMode::Source
                                    : sim::ConstraintMode::Sink};
  spec.seeds_per_class = 16;
  const bool faulted = state.range(2) != 0;
  // What FleetSweep::run_item hands to verify_throughput: the sized graph
  // and, for a faulted item, the largest margin as an overrun on every
  // firing with the monitor on.
  struct Item {
    models::SyntheticModel model;
    sim::FaultPlan plan;
    sim::VerifyOptions options;
  };
  const sim::FleetSweep sweep(spec);
  std::vector<Item> items;
  for (const sim::FleetItem& item : sweep.items()) {
    models::RandomModelSpec random;
    random.model_class = item.model_class;
    random.seed = item.rng_seed;
    random.response_fraction = spec.response_fraction;
    random.variable_percent = spec.variable_percent;
    random.zero_percent = spec.zero_percent;
    random.source_constrained = item.mode == sim::ConstraintMode::Source;
    Item prepared{models::make_random_model(random), sim::FaultPlan(item.rng_seed),
                  sim::VerifyOptions{}};
    analysis::apply_capacities(
        prepared.model.graph,
        analysis::compute_buffer_capacities(prepared.model.graph,
                                            prepared.model.constraints));
    prepared.options.observe_firings = spec.observe_firings;
    prepared.options.default_seed = util::derive_seed(item.rng_seed, 1);
    prepared.options.monitor = faulted;
    if (faulted) {
      const analysis::RobustnessReport margins = analysis::robustness_margins(
          prepared.model.graph, prepared.model.constraints);
      const analysis::ActorMargin* target = &margins.actors.front();
      for (const analysis::ActorMargin& margin : margins.actors) {
        if (margin.margin > target->margin) {
          target = &margin;
        }
      }
      prepared.plan.rho_overrun(target->actor, target->margin);
    }
    items.push_back(std::move(prepared));
  }
  std::size_t next = 0;
  std::int64_t firings = 0;
  for (auto _ : state) {
    const Item& item = items[next];
    next = (next + 1) % items.size();
    const sim::VerifyResult verdict = sim::verify_throughput(
        item.model.graph, item.model.constraints,
        [&item](sim::Simulator& sim) { item.plan.apply(sim); }, item.options);
    firings += verdict.firings_simulated;
    benchmark::DoNotOptimize(verdict.ok);
  }
  state.SetItemsProcessed(firings);
  std::string label = models::class_name(spec.classes.front());
  label += state.range(1) != 0 ? "/source" : "/sink";
  label += faulted ? "/faulted" : "/plain";
  state.SetLabel(label);
}
BENCHMARK(BM_VerifyFleetItems)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int faulted = 0; faulted < 2; ++faulted) {
        for (int model_class = 0; model_class < 5; ++model_class) {
          b->Args({model_class, 0, faulted});
        }
        for (int model_class = 0; model_class < 3; ++model_class) {
          b->Args({model_class, 1, faulted});
        }
      }
    })
    ->Unit(benchmark::kMicrosecond);

}  // namespace
