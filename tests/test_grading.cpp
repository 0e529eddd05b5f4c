// Timing grades of simulated runs, pinned byte-for-byte:
//  * for one fleet-generated item of every (class, mode) cell, the
//    verdict fields of verify_throughput (offset, phase-1 lateness,
//    starvations, detail) and the ConformanceMonitor's report (ρ events,
//    per-constraint conformance, summary) — plain, with the fleet's
//    within-margin fault, under a segmented self-timed monitor and with a
//    beyond-margin fault;
//  * the same texts on the exact-Rational clock and across a mid-run
//    fallback from the tick clock, so every clock grades identically.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/buffer_sizing.hpp"
#include "analysis/robustness.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "io/trace.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/monitor.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf {
namespace {

using analysis::RobustnessReport;
using dataflow::ActorId;
using dataflow::VrdfGraph;
using models::make_random_model;
using models::ModelClass;
using models::RandomModelSpec;
using models::SyntheticModel;
using sim::ConformanceMonitor;
using sim::FaultPlan;
using sim::RunResult;
using sim::Simulator;
using sim::StopCondition;

/// One fleet item's verification inputs, built the way
/// sim::FleetSweep::run_item builds them: generate, size, install the
/// capacities plus the item's headroom and, for a faulted sweep, the
/// whole margin of the largest-margin actor as a ρ overrun on every
/// firing.  The monitor is on for plain items too: it reads the engine's
/// grades and leaves the verdict unchanged.
struct FleetVerifyCase {
  SyntheticModel model;
  FaultPlan plan;
  sim::VerifyOptions options;
};

FleetVerifyCase fleet_verify_case(const sim::SweepSpec& spec,
                                  const sim::FleetItem& item) {
  FleetVerifyCase out{SyntheticModel{}, FaultPlan(item.rng_seed), {}};
  RandomModelSpec random;
  random.model_class = item.model_class;
  random.seed = item.rng_seed;
  random.response_fraction = spec.response_fraction;
  random.variable_percent = spec.variable_percent;
  random.zero_percent = spec.zero_percent;
  random.source_constrained = item.mode == sim::ConstraintMode::Source;
  out.model = make_random_model(random);
  const analysis::GraphAnalysis sized = analysis::compute_buffer_capacities(
      out.model.graph, out.model.constraints);
  analysis::apply_capacities(out.model.graph, sized);
  for (const analysis::PairAnalysis& pair : sized.pairs) {
    const dataflow::EdgeId space = pair.buffer.space;
    out.model.graph.set_initial_tokens(
        space, out.model.graph.edge(space).initial_tokens + item.headroom);
  }
  out.options.observe_firings = spec.observe_firings;
  out.options.default_seed = util::derive_seed(item.rng_seed, 1);
  out.options.monitor = true;
  if (spec.faulted) {
    const RobustnessReport margins = analysis::robustness_margins(
        out.model.graph, out.model.constraints);
    const analysis::ActorMargin* target = &margins.actors.front();
    for (const analysis::ActorMargin& margin : margins.actors) {
      if (margin.margin > target->margin) {
        target = &margin;
      }
    }
    out.plan.rho_overrun(target->actor, target->margin);
  }
  return out;
}

/// Builds the extra configurer of one item's simulators: called once per
/// verify_throughput call and once per segmented monitor run.
using ExtraFactory =
    std::function<sim::SimulatorConfigurer(const FleetVerifyCase&)>;

sim::VerifyResult verify_case(const FleetVerifyCase& c,
                              const sim::SimulatorConfigurer& extra = {}) {
  return sim::verify_throughput(
      c.model.graph, c.model.constraints,
      [&](Simulator& sim) {
        c.plan.apply(sim);
        if (extra) {
          extra(sim);
        }
      },
      c.options);
}

/// The monitor's report as text: ρ events, their total, per-constraint
/// conformance with the first late firing, and the verdict line.
std::string render_monitor(const sim::MonitorReport& report,
                           const VrdfGraph& graph) {
  std::string text = io::rho_violations_to_csv(report, graph);
  text += "rho_total=" + std::to_string(report.rho_violation_total) + "\n";
  text += io::conformance_to_csv(report, graph);
  for (const sim::ConstraintConformance& c : report.constraints) {
    text += graph.actor(c.actor).name + " first_late=" +
            (c.first_late_firing.has_value()
                 ? std::to_string(*c.first_late_firing)
                 : std::string("none")) +
            "\n";
  }
  return text + "summary: " + report.summary + "\n";
}

/// The timing fields of a verdict and its monitor report as text.
std::string render_verdict(const sim::VerifyResult& result,
                           const VrdfGraph& graph) {
  std::string text = std::string("ok=") + (result.ok ? "1" : "0") +
                     " offset=" + result.offset_used.seconds().to_string() +
                     " lateness=" +
                     result.max_lateness_phase1.seconds().to_string() +
                     " starvations=" +
                     std::to_string(result.starvation_count) +
                     " firings=" + std::to_string(result.firings_simulated) +
                     "\ndetail: " + result.detail + "\n";
  if (result.monitor.has_value()) {
    text += render_monitor(*result.monitor, graph);
  }
  return text;
}

/// A beyond-margin plan: the first constraint's feeding producer overruns
/// by 4·(installed + 1) periods, past the token-conservation bound.
FaultPlan beyond_margin_plan(const FleetVerifyCase& c, std::uint64_t seed) {
  const RobustnessReport margins = analysis::robustness_margins(
      c.model.graph, c.model.constraints);
  const analysis::ThroughputConstraint& constraint =
      c.model.constraints.front();
  FaultPlan plan(seed);
  for (const analysis::BufferHeadroom& buffer : margins.buffers) {
    if (buffer.consumer == constraint.actor) {
      plan.rho_overrun(buffer.producer,
                       constraint.period * Rational(4 * (buffer.installed + 1)));
      break;
    }
  }
  return plan;
}

/// A self-timed run of the faulted item under a standalone monitor,
/// observed in two segments (half and all of the observed firings).
sim::MonitorReport segmented_monitor(const FleetVerifyCase& c,
                                     const sim::SimulatorConfigurer& extra = {}) {
  ConformanceMonitor monitor(c.model.graph, c.model.constraints);
  Simulator sim(c.model.graph);
  monitor.attach(sim);
  c.plan.apply(sim);
  if (extra) {
    extra(sim);
  }
  sim.set_default_sources(c.options.default_seed);
  const ActorId front = c.model.constraints.front().actor;
  for (const std::int64_t target :
       {c.options.observe_firings / 2, c.options.observe_firings}) {
    StopCondition stop;
    stop.firing_target = StopCondition::FiringTarget{front, target};
    const RunResult run = sim.run(stop);
    monitor.observe(sim, run);
  }
  return monitor.report();
}

/// One fleet item per (class, mode) cell: every class sink-constrained,
/// plus the source-constrained form of chain, fork_join and cyclic.  The
/// item is the `ordinal`-th seed of its cell at one headroom level.
struct PinnedItem {
  ModelClass model_class;
  sim::ConstraintMode mode;
  std::int64_t ordinal;
  std::int64_t headroom;
};

const PinnedItem kPinnedItems[] = {
    {ModelClass::Chain, sim::ConstraintMode::Sink, 1, 1},
    {ModelClass::ForkJoin, sim::ConstraintMode::Sink, 3, 0},
    {ModelClass::Cyclic, sim::ConstraintMode::Sink, 1, 0},
    {ModelClass::MultiConstraint, sim::ConstraintMode::Sink, 8, 1},
    {ModelClass::InteriorPinned, sim::ConstraintMode::Sink, 1, 1},
    {ModelClass::Chain, sim::ConstraintMode::Source, 2, 0},
    {ModelClass::ForkJoin, sim::ConstraintMode::Source, 1, 1},
    {ModelClass::Cyclic, sim::ConstraintMode::Source, 1, 0},
};

FleetVerifyCase pinned_case(const PinnedItem& pinned, bool faulted) {
  sim::SweepSpec spec;
  spec.classes = {pinned.model_class};
  spec.modes = {pinned.mode};
  spec.seeds_per_class = pinned.ordinal;
  spec.headroom_levels = {pinned.headroom};
  spec.observe_firings = 24;
  spec.faulted = faulted;
  return fleet_verify_case(spec, sim::FleetSweep(spec).items().back());
}

/// Every pinned view of one item: plain, within-margin faulted and
/// beyond-margin verdicts, and the segmented self-timed monitor.
std::string render_item(const PinnedItem& pinned,
                        const ExtraFactory& extra = {}) {
  const auto extra_for = [&](const FleetVerifyCase& c) {
    return extra ? extra(c) : sim::SimulatorConfigurer{};
  };
  const FleetVerifyCase plain = pinned_case(pinned, false);
  FleetVerifyCase faulted = pinned_case(pinned, true);
  std::string text =
      "-- plain\n" +
      render_verdict(verify_case(plain, extra_for(plain)), plain.model.graph);
  text += "-- faulted\n" +
          render_verdict(verify_case(faulted, extra_for(faulted)),
                         faulted.model.graph);
  text += "-- self-timed monitor\n" +
          render_monitor(segmented_monitor(faulted, extra_for(faulted)),
                         faulted.model.graph);
  faulted.plan = beyond_margin_plan(faulted, 7);
  text += "-- beyond margin\n" +
          render_verdict(verify_case(faulted, extra_for(faulted)),
                         faulted.model.graph);
  return text;
}

/// The expected render_item text of each kPinnedItems entry, generated
/// before the graders moved into the engine.
const char* const kPinnedTexts[] = {
    // chain sink
    R"pin(-- plain
ok=1 offset=3/4000 lateness=0 starvations=0 firings=216
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
t3,1/1000,24,0,0
t3 first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=3/4000 lateness=0 starvations=0 firings=216
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
t3,0,1/2000,41/64000
t3,1,1/2000,41/64000
t3,2,1/2000,41/64000
t3,3,1/2000,41/64000
t3,4,1/2000,41/64000
t3,5,1/2000,41/64000
t3,6,1/2000,41/64000
t3,7,1/2000,41/64000
t3,8,1/2000,41/64000
t3,9,1/2000,41/64000
t3,10,1/2000,41/64000
t3,11,1/2000,41/64000
t3,12,1/2000,41/64000
t3,13,1/2000,41/64000
t3,14,1/2000,41/64000
t3,15,1/2000,41/64000
t3,16,1/2000,41/64000
t3,17,1/2000,41/64000
t3,18,1/2000,41/64000
t3,19,1/2000,41/64000
t3,20,1/2000,41/64000
t3,21,1/2000,41/64000
t3,22,1/2000,41/64000
t3,23,1/2000,41/64000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
t3,1/1000,24,0,0
t3 first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 't3' (declared 1/2000 s, observed up to 41/64000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
t3,0,1/2000,41/64000
t3,1,1/2000,41/64000
t3,2,1/2000,41/64000
t3,3,1/2000,41/64000
t3,4,1/2000,41/64000
t3,5,1/2000,41/64000
t3,6,1/2000,41/64000
t3,7,1/2000,41/64000
t3,8,1/2000,41/64000
t3,9,1/2000,41/64000
t3,10,1/2000,41/64000
t3,11,1/2000,41/64000
t3,12,1/2000,41/64000
t3,13,1/2000,41/64000
t3,14,1/2000,41/64000
t3,15,1/2000,41/64000
t3,16,1/2000,41/64000
t3,17,1/2000,41/64000
t3,18,1/2000,41/64000
t3,19,1/2000,41/64000
t3,20,1/2000,41/64000
t3,21,1/2000,41/64000
t3,22,1/2000,41/64000
t3,23,1/2000,41/64000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
t3,1/1000,24,0,0
t3 first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 't3' (declared 1/2000 s, observed up to 41/64000 s)
-- beyond margin
ok=0 offset=98563/28000 lateness=47367/14000 starvations=22 firings=202
detail: 22 starved activations; first on 't3' at t=98619/28000 s (firing 2)
actor,firing,declared_s,observed_s
t2,0,3/14000,1907/14000
t2,1,3/14000,1907/14000
t2,2,3/14000,1907/14000
t2,3,3/14000,1907/14000
t2,4,3/14000,1907/14000
t2,5,3/14000,1907/14000
t2,6,3/14000,1907/14000
t2,7,3/14000,1907/14000
t2,8,3/14000,1907/14000
t2,9,3/14000,1907/14000
t2,10,3/14000,1907/14000
t2,11,3/14000,1907/14000
t2,12,3/14000,1907/14000
t2,13,3/14000,1907/14000
t2,14,3/14000,1907/14000
t2,15,3/14000,1907/14000
t2,16,3/14000,1907/14000
t2,17,3/14000,1907/14000
t2,18,3/14000,1907/14000
t2,19,3/14000,1907/14000
t2,20,3/14000,1907/14000
t2,21,3/14000,1907/14000
t2,22,3/14000,1907/14000
t2,23,3/14000,1907/14000
t2,24,3/14000,1907/14000
t2,25,3/14000,1907/14000
rho_total=26
actor,period_s,firings,late_firings,max_lateness_s
t3,1/1000,24,22,41653/14000
t3 first_late=2
summary: constraint on 't3' (period 1/1000 s) violated: 22 late activations, max lateness 41653/14000 s; rho contract violated 26 times, worst offender 't2' (declared 3/14000 s, observed up to 1907/14000 s)
)pin",
    // fork_join sink
    R"pin(-- plain
ok=1 offset=21/5000 lateness=1/10000 starvations=0 firings=535
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,0,0
snk first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=1407/320000 lateness=1/10000 starvations=0 firings=535
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
src,0,3/10000,159/320000
src,1,3/10000,159/320000
src,2,3/10000,159/320000
src,3,3/10000,159/320000
src,4,3/10000,159/320000
src,5,3/10000,159/320000
src,6,3/10000,159/320000
src,7,3/10000,159/320000
src,8,3/10000,159/320000
src,9,3/10000,159/320000
src,10,3/10000,159/320000
src,11,3/10000,159/320000
src,12,3/10000,159/320000
rho_total=13
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,0,0
snk first_late=none
summary: all constraints conformant; rho contract violated 13 times, worst offender 'src' (declared 3/10000 s, observed up to 159/320000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
src,0,3/10000,159/320000
src,1,3/10000,159/320000
src,2,3/10000,159/320000
src,3,3/10000,159/320000
src,4,3/10000,159/320000
src,5,3/10000,159/320000
src,6,3/10000,159/320000
src,7,3/10000,159/320000
src,8,3/10000,159/320000
src,9,3/10000,159/320000
src,10,3/10000,159/320000
src,11,3/10000,159/320000
rho_total=12
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,1,1/10000
snk first_late=1
summary: constraint on 'snk' (period 1/1000 s) violated: 1 late activations, max lateness 1/10000 s; rho contract violated 12 times, worst offender 'src' (declared 3/10000 s, observed up to 159/320000 s)
-- beyond margin
ok=0 offset=10989/10000 lateness=2507/2500 starvations=20 firings=524
detail: 20 starved activations; first on 'snk' at t=11029/10000 s (firing 4)
actor,firing,declared_s,observed_s
post_0,0,1/1250,58/625
post_0,1,1/1250,58/625
post_0,2,1/1250,58/625
post_0,3,1/1250,58/625
post_0,4,1/1250,58/625
post_0,5,1/1250,58/625
post_0,6,1/1250,58/625
post_0,7,1/1250,58/625
post_0,8,1/1250,58/625
post_0,9,1/1250,58/625
post_0,10,1/1250,58/625
post_0,11,1/1250,58/625
rho_total=12
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,20,911/1000
snk first_late=4
summary: constraint on 'snk' (period 1/1000 s) violated: 20 late activations, max lateness 911/1000 s; rho contract violated 12 times, worst offender 'post_0' (declared 1/1250 s, observed up to 58/625 s)
)pin",
    // cyclic sink
    R"pin(-- plain
ok=1 offset=1/250 lateness=0 starvations=0 firings=691
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,0,0
snk first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=209/51200 lateness=0 starvations=0 firings=690
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
s0_pre_0,0,7/12000,511/768000
s0_pre_0,1,7/12000,511/768000
s0_pre_0,2,7/12000,511/768000
s0_pre_0,3,7/12000,511/768000
s0_pre_0,4,7/12000,511/768000
s0_pre_0,5,7/12000,511/768000
s0_pre_0,6,7/12000,511/768000
s0_pre_0,7,7/12000,511/768000
s0_pre_0,8,7/12000,511/768000
s0_pre_0,9,7/12000,511/768000
s0_pre_0,10,7/12000,511/768000
s0_pre_0,11,7/12000,511/768000
s0_pre_0,12,7/12000,511/768000
s0_pre_0,13,7/12000,511/768000
s0_pre_0,14,7/12000,511/768000
s0_pre_0,15,7/12000,511/768000
s0_pre_0,16,7/12000,511/768000
s0_pre_0,17,7/12000,511/768000
s0_pre_0,18,7/12000,511/768000
s0_pre_0,19,7/12000,511/768000
s0_pre_0,20,7/12000,511/768000
s0_pre_0,21,7/12000,511/768000
s0_pre_0,22,7/12000,511/768000
s0_pre_0,23,7/12000,511/768000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,0,0
snk first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 's0_pre_0' (declared 7/12000 s, observed up to 511/768000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
s0_pre_0,0,7/12000,511/768000
s0_pre_0,1,7/12000,511/768000
s0_pre_0,2,7/12000,511/768000
s0_pre_0,3,7/12000,511/768000
s0_pre_0,4,7/12000,511/768000
s0_pre_0,5,7/12000,511/768000
s0_pre_0,6,7/12000,511/768000
s0_pre_0,7,7/12000,511/768000
s0_pre_0,8,7/12000,511/768000
s0_pre_0,9,7/12000,511/768000
s0_pre_0,10,7/12000,511/768000
s0_pre_0,11,7/12000,511/768000
s0_pre_0,12,7/12000,511/768000
s0_pre_0,13,7/12000,511/768000
s0_pre_0,14,7/12000,511/768000
s0_pre_0,15,7/12000,511/768000
s0_pre_0,16,7/12000,511/768000
s0_pre_0,17,7/12000,511/768000
s0_pre_0,18,7/12000,511/768000
s0_pre_0,19,7/12000,511/768000
s0_pre_0,20,7/12000,511/768000
s0_pre_0,21,7/12000,511/768000
rho_total=22
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,0,0
snk first_late=none
summary: all constraints conformant; rho contract violated 22 times, worst offender 's0_pre_0' (declared 7/12000 s, observed up to 511/768000 s)
-- beyond margin
ok=0 offset=18059/12000 lateness=17003/12000 starvations=22 firings=684
detail: 22 starved activations; first on 'snk' at t=18083/12000 s (firing 2)
actor,firing,declared_s,observed_s
post_0,0,7/12000,203/2400
post_0,1,7/12000,203/2400
post_0,2,7/12000,203/2400
post_0,3,7/12000,203/2400
post_0,4,7/12000,203/2400
post_0,5,7/12000,203/2400
post_0,6,7/12000,203/2400
post_0,7,7/12000,203/2400
post_0,8,7/12000,203/2400
post_0,9,7/12000,203/2400
post_0,10,7/12000,203/2400
post_0,11,7/12000,203/2400
post_0,12,7/12000,203/2400
post_0,13,7/12000,203/2400
post_0,14,7/12000,203/2400
post_0,15,7/12000,203/2400
post_0,16,7/12000,203/2400
post_0,17,7/12000,203/2400
rho_total=18
actor,period_s,firings,late_firings,max_lateness_s
snk,1/1000,24,22,7997/6000
snk first_late=2
summary: constraint on 'snk' (period 1/1000 s) violated: 22 late activations, max lateness 7997/6000 s; rho contract violated 18 times, worst offender 'post_0' (declared 7/12000 s, observed up to 203/2400 s)
)pin",
    // multi_constraint sink
    R"pin(-- plain
ok=1 offset=23/2000 lateness=3/2000 starvations=0 firings=455
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
snk0,1/250,24,0,0
snk1,1/200,18,0,0
snk0 first_late=none
snk1 first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=23/2000 lateness=3/2000 starvations=0 firings=498
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
snk0,0,1/500,7/2000
snk0,1,1/500,7/2000
snk0,2,1/500,7/2000
snk0,3,1/500,7/2000
snk0,4,1/500,7/2000
snk0,5,1/500,7/2000
snk0,6,1/500,7/2000
snk0,7,1/500,7/2000
snk0,8,1/500,7/2000
snk0,9,1/500,7/2000
snk0,10,1/500,7/2000
snk0,11,1/500,7/2000
snk0,12,1/500,7/2000
snk0,13,1/500,7/2000
snk0,14,1/500,7/2000
snk0,15,1/500,7/2000
snk0,16,1/500,7/2000
snk0,17,1/500,7/2000
snk0,18,1/500,7/2000
snk0,19,1/500,7/2000
snk0,20,1/500,7/2000
snk0,21,1/500,7/2000
snk0,22,1/500,7/2000
snk0,23,1/500,7/2000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
snk0,1/250,24,0,0
snk1,1/200,18,0,0
snk0 first_late=none
snk1 first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 'snk0' (declared 1/500 s, observed up to 7/2000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
snk0,0,1/500,7/2000
snk0,1,1/500,7/2000
snk0,2,1/500,7/2000
snk0,3,1/500,7/2000
snk0,4,1/500,7/2000
snk0,5,1/500,7/2000
snk0,6,1/500,7/2000
snk0,7,1/500,7/2000
snk0,8,1/500,7/2000
snk0,9,1/500,7/2000
snk0,10,1/500,7/2000
snk0,11,1/500,7/2000
snk0,12,1/500,7/2000
snk0,13,1/500,7/2000
snk0,14,1/500,7/2000
snk0,15,1/500,7/2000
snk0,16,1/500,7/2000
snk0,17,1/500,7/2000
snk0,18,1/500,7/2000
snk0,19,1/500,7/2000
snk0,20,1/500,7/2000
snk0,21,1/500,7/2000
snk0,22,1/500,7/2000
snk0,23,1/500,7/2000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
snk0,1/250,24,3,3/2000
snk1,1/200,21,0,0
snk0 first_late=1
snk1 first_late=none
summary: constraint on 'snk0' (period 1/250 s) violated: 3 late activations, max lateness 3/2000 s; rho contract violated 24 times, worst offender 'snk0' (declared 1/500 s, observed up to 7/2000 s)
-- beyond margin
ok=0 offset=49701/2000 lateness=11157/2000 starvations=34 firings=1362
detail: 34 starved activations; first on 'snk0' at t=49741/2000 s (firing 5)
actor,firing,declared_s,observed_s
pre_1,0,7/2000,871/2000
pre_1,1,7/2000,871/2000
pre_1,2,7/2000,871/2000
pre_1,3,7/2000,871/2000
pre_1,4,7/2000,871/2000
pre_1,5,7/2000,871/2000
pre_1,6,7/2000,871/2000
pre_1,7,7/2000,871/2000
pre_1,8,7/2000,871/2000
pre_1,9,7/2000,871/2000
pre_1,10,7/2000,871/2000
pre_1,11,7/2000,871/2000
pre_1,12,7/2000,871/2000
pre_1,13,7/2000,871/2000
rho_total=14
actor,period_s,firings,late_firings,max_lateness_s
snk0,1/250,24,19,1883/400
snk1,1/200,18,15,1883/400
snk0 first_late=5
snk1 first_late=4
summary: constraint on 'snk0' (period 1/250 s) violated: 19 late activations, max lateness 1883/400 s; rho contract violated 14 times, worst offender 'pre_1' (declared 7/2000 s, observed up to 871/2000 s)
)pin",
    // interior_pinned sink
    R"pin(-- plain
ok=1 offset=1/875 lateness=0 starvations=0 firings=153
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
pin,1/1000,24,0,0
pin first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=1/875 lateness=0 starvations=0 firings=152
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
d0,0,1/2800,23/35840
d0,1,1/2800,23/35840
d0,2,1/2800,23/35840
d0,3,1/2800,23/35840
d0,4,1/2800,23/35840
d0,5,1/2800,23/35840
d0,6,1/2800,23/35840
rho_total=7
actor,period_s,firings,late_firings,max_lateness_s
pin,1/1000,24,0,0
pin first_late=none
summary: all constraints conformant; rho contract violated 7 times, worst offender 'd0' (declared 1/2800 s, observed up to 23/35840 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
d0,0,1/2800,23/35840
d0,1,1/2800,23/35840
d0,2,1/2800,23/35840
d0,3,1/2800,23/35840
d0,4,1/2800,23/35840
d0,5,1/2800,23/35840
rho_total=6
actor,period_s,firings,late_firings,max_lateness_s
pin,1/1000,24,0,0
pin first_late=none
summary: all constraints conformant; rho contract violated 6 times, worst offender 'd0' (declared 1/2800 s, observed up to 23/35840 s)
-- beyond margin
ok=0 offset=5109/3500 lateness=4783/3500 starvations=21 firings=148
detail: 21 starved activations; first on 'pin' at t=10239/7000 s (firing 3)
actor,firing,declared_s,observed_s
u1,0,1/1750,81/875
u1,1,1/1750,81/875
u1,2,1/1750,81/875
u1,3,1/1750,81/875
u1,4,1/1750,81/875
u1,5,1/1750,81/875
u1,6,1/1750,81/875
u1,7,1/1750,81/875
u1,8,1/1750,81/875
u1,9,1/1750,81/875
u1,10,1/1750,81/875
u1,11,1/1750,81/875
u1,12,1/1750,81/875
u1,13,1/1750,81/875
u1,14,1/1750,81/875
u1,15,1/1750,81/875
rho_total=16
actor,period_s,firings,late_firings,max_lateness_s
pin,1/1000,24,21,2549/2000
pin first_late=3
summary: constraint on 'pin' (period 1/1000 s) violated: 21 late activations, max lateness 2549/2000 s; rho contract violated 16 times, worst offender 'u1' (declared 1/1750 s, observed up to 81/875 s)
)pin",
    // chain source
    R"pin(-- plain
ok=1 offset=0 lateness=0 starvations=0 firings=154
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
t0,1/1000,24,0,0
t0 first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=0 lateness=0 starvations=0 firings=154
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
t3,0,63/40000,2583/1280000
rho_total=1
actor,period_s,firings,late_firings,max_lateness_s
t0,1/1000,24,0,0
t0 first_late=none
summary: all constraints conformant; rho contract violated 1 times, worst offender 't3' (declared 63/40000 s, observed up to 2583/1280000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
t0,1/1000,24,0,0
t0 first_late=none
summary: all constraints conformant
-- beyond margin
ok=1 offset=0 lateness=0 starvations=0 firings=154
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
t0,1/1000,24,0,0
t0 first_late=none
summary: all constraints conformant
)pin",
    // fork_join source
    R"pin(-- plain
ok=1 offset=0 lateness=0 starvations=0 firings=786
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=0 lateness=0 starvations=0 firings=790
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
src,0,1/2000,11/16000
src,1,1/2000,11/16000
src,2,1/2000,11/16000
src,3,1/2000,11/16000
src,4,1/2000,11/16000
src,5,1/2000,11/16000
src,6,1/2000,11/16000
src,7,1/2000,11/16000
src,8,1/2000,11/16000
src,9,1/2000,11/16000
src,10,1/2000,11/16000
src,11,1/2000,11/16000
src,12,1/2000,11/16000
src,13,1/2000,11/16000
src,14,1/2000,11/16000
src,15,1/2000,11/16000
src,16,1/2000,11/16000
src,17,1/2000,11/16000
src,18,1/2000,11/16000
src,19,1/2000,11/16000
src,20,1/2000,11/16000
src,21,1/2000,11/16000
src,22,1/2000,11/16000
src,23,1/2000,11/16000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 'src' (declared 1/2000 s, observed up to 11/16000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
src,0,1/2000,11/16000
src,1,1/2000,11/16000
src,2,1/2000,11/16000
src,3,1/2000,11/16000
src,4,1/2000,11/16000
src,5,1/2000,11/16000
src,6,1/2000,11/16000
src,7,1/2000,11/16000
src,8,1/2000,11/16000
src,9,1/2000,11/16000
src,10,1/2000,11/16000
src,11,1/2000,11/16000
src,12,1/2000,11/16000
src,13,1/2000,11/16000
src,14,1/2000,11/16000
src,15,1/2000,11/16000
src,16,1/2000,11/16000
src,17,1/2000,11/16000
src,18,1/2000,11/16000
src,19,1/2000,11/16000
src,20,1/2000,11/16000
src,21,1/2000,11/16000
src,22,1/2000,11/16000
src,23,1/2000,11/16000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 'src' (declared 1/2000 s, observed up to 11/16000 s)
-- beyond margin
ok=1 offset=0 lateness=0 starvations=0 firings=786
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant
)pin",
    // cyclic source
    R"pin(-- plain
ok=1 offset=0 lateness=0 starvations=0 firings=789
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant
-- faulted
ok=1 offset=0 lateness=0 starvations=0 firings=789
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
src,0,1/2000,9/16000
src,1,1/2000,9/16000
src,2,1/2000,9/16000
src,3,1/2000,9/16000
src,4,1/2000,9/16000
src,5,1/2000,9/16000
src,6,1/2000,9/16000
src,7,1/2000,9/16000
src,8,1/2000,9/16000
src,9,1/2000,9/16000
src,10,1/2000,9/16000
src,11,1/2000,9/16000
src,12,1/2000,9/16000
src,13,1/2000,9/16000
src,14,1/2000,9/16000
src,15,1/2000,9/16000
src,16,1/2000,9/16000
src,17,1/2000,9/16000
src,18,1/2000,9/16000
src,19,1/2000,9/16000
src,20,1/2000,9/16000
src,21,1/2000,9/16000
src,22,1/2000,9/16000
src,23,1/2000,9/16000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 'src' (declared 1/2000 s, observed up to 9/16000 s)
-- self-timed monitor
actor,firing,declared_s,observed_s
src,0,1/2000,9/16000
src,1,1/2000,9/16000
src,2,1/2000,9/16000
src,3,1/2000,9/16000
src,4,1/2000,9/16000
src,5,1/2000,9/16000
src,6,1/2000,9/16000
src,7,1/2000,9/16000
src,8,1/2000,9/16000
src,9,1/2000,9/16000
src,10,1/2000,9/16000
src,11,1/2000,9/16000
src,12,1/2000,9/16000
src,13,1/2000,9/16000
src,14,1/2000,9/16000
src,15,1/2000,9/16000
src,16,1/2000,9/16000
src,17,1/2000,9/16000
src,18,1/2000,9/16000
src,19,1/2000,9/16000
src,20,1/2000,9/16000
src,21,1/2000,9/16000
src,22,1/2000,9/16000
src,23,1/2000,9/16000
rho_total=24
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant; rho contract violated 24 times, worst offender 'src' (declared 1/2000 s, observed up to 9/16000 s)
-- beyond margin
ok=1 offset=0 lateness=0 starvations=0 firings=789
detail: periodic execution sustained for 24 firings
actor,firing,declared_s,observed_s
rho_total=0
actor,period_s,firings,late_firings,max_lateness_s
src,1/1000,24,0,0
src first_late=none
summary: all constraints conformant
)pin",
};

TEST(GradingPins, VerdictsAndMonitorReportsOnEveryFleetCell) {
  static_assert(std::size(kPinnedItems) == std::size(kPinnedTexts));
  for (std::size_t i = 0; i < std::size(kPinnedItems); ++i) {
    const PinnedItem& item = kPinnedItems[i];
    SCOPED_TRACE(std::string(models::class_name(item.model_class)) + " " +
                 sim::constraint_mode_name(item.mode));
    EXPECT_EQ(render_item(item), kPinnedTexts[i]);
  }
}

TEST(GradingClocks, ExactRationalClockGradesIdentically) {
  const ExtraFactory exact = [](const FleetVerifyCase&) {
    return [](Simulator& sim) {
      sim.set_clock_mode(sim::ClockMode::ForceExactRational);
    };
  };
  for (std::size_t i = 0; i < std::size(kPinnedItems); ++i) {
    const PinnedItem& item = kPinnedItems[i];
    SCOPED_TRACE(std::string(models::class_name(item.model_class)) + " " +
                 sim::constraint_mode_name(item.mode));
    EXPECT_EQ(render_item(item, exact), kPinnedTexts[i]);
  }
}

// The first simulator of each verify call (phase 1) and the segmented
// monitor's simulator run two firings of the leading constrained actor on
// the tick clock, then fall back to Rational time: a release delay of
// 1/9999991 s on a firing that never comes has no tick.  The grades of the
// two firings cross the clock conversion.  Phase 2 is left alone: it sets
// its periodic modes after the configurer, so driving it early would
// change the schedule.
TEST(GradingClocks, MidRunFallbackGradesIdentically) {
  const ExtraFactory fallback = [](const FleetVerifyCase& c) {
    auto calls = std::make_shared<int>(0);
    return [calls, seed = c.options.default_seed,
            front = c.model.constraints.front().actor](Simulator& sim) {
      if ((*calls)++ != 0) {
        return;
      }
      sim.set_default_sources(seed);
      StopCondition stop;
      stop.firing_target = StopCondition::FiringTarget{front, 2};
      (void)sim.run(stop);
      EXPECT_TRUE(sim.using_tick_clock());
      sim.inject_release_delay(front, std::int64_t{1} << 40,
                               seconds(Rational(1, 9999991)));
      EXPECT_FALSE(sim.using_tick_clock());
    };
  };
  for (std::size_t i = 0; i < std::size(kPinnedItems); ++i) {
    const PinnedItem& item = kPinnedItems[i];
    SCOPED_TRACE(std::string(models::class_name(item.model_class)) + " " +
                 sim::constraint_mode_name(item.mode));
    EXPECT_EQ(render_item(item, fallback), kPinnedTexts[i]);
  }
}

// A grid requested on a live tick engine whose scale cannot hold its
// period moves the engine onto Rational time and grades from there on.
TEST(GradingClocks, UnrepresentableGridFallsBackToRational) {
  VrdfGraph graph;
  const ActorId p = graph.add_actor("p", milliseconds(Rational(1)));
  const ActorId c = graph.add_actor("c", milliseconds(Rational(1)));
  (void)graph.add_buffer(p, c, dataflow::RateSet::singleton(1),
                         dataflow::RateSet::singleton(1), 4);
  Simulator sim(graph);
  sim.set_default_sources(1);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{c, 3};
  (void)sim.run(stop);
  ASSERT_TRUE(sim.using_tick_clock());
  const Duration period = seconds(Rational(1, 9999991));
  sim::GradingRequest request;
  request.grids.push_back(sim::GradingRequest::Grid{c, period, Duration()});
  sim.request_grading(request);
  EXPECT_FALSE(sim.using_tick_clock());
  // c has its grid; a second one is refused.
  EXPECT_THROW(sim.request_grading(request), ContractError);

  stop.firing_target = StopCondition::FiringTarget{c, 8};
  (void)sim.run(stop);
  const sim::GridGrade grade = sim.grid_grade(c);
  EXPECT_EQ(grade.graded, 5);  // firings 3..7 finish after the request
  // c starts every 1 ms, far behind a 1/9999991 s grid: every graded
  // start after the anchor is late.
  EXPECT_EQ(grade.late, 4);
  EXPECT_EQ(grade.first_late, 4);
  // Firing k of c starts at (k + 1) ms; the anchor is firing 3.
  EXPECT_EQ(grade.anchor, TimePoint(Rational(4, 1000)) - period * Rational(3));
  EXPECT_EQ(grade.max_lateness,
            milliseconds(Rational(4)) - period * Rational(4));
  EXPECT_TRUE(sim.grid_grade(p).graded == 0);
}

}  // namespace
}  // namespace vrdf
