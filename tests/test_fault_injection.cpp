// Fault injection, conformance monitoring and robustness margins:
//  * FaultPlan semantics (overruns, stalls, bursts, drop-outs) and
//    seeded replayability;
//  * ConformanceMonitor ρ-contract events, lateness grading and the
//    stall watchdog's blocked-cycle diagnosis;
//  * analysis::robustness_margins against installed capacities;
//  * the randomized validation harness: within-margin faults never
//    starve phase 2, beyond-margin faults are always detected and named,
//    lateness is monotone and linear in a single-firing stall delta —
//    across all five random model classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "analysis/robustness.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "io/report.hpp"
#include "io/trace.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/monitor.hpp"
#include "sim/property_checks.hpp"
#include "sim/simulator.hpp"
#include "sim/verify.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using analysis::RobustnessReport;
using dataflow::ActorId;
using dataflow::RateSet;
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

const Duration kMs = milliseconds(Rational(1));

struct Pipeline {
  VrdfGraph graph;
  ActorId producer;
  ActorId consumer;
  dataflow::BufferEdges buffer;
};

/// 1-in-1-out pipeline with enough capacity that the producer free-runs.
Pipeline make_pipeline(std::int64_t capacity = 64) {
  Pipeline p;
  p.producer = p.graph.add_actor("p", kMs);
  p.consumer = p.graph.add_actor("c", kMs);
  p.buffer = p.graph.add_buffer(p.producer, p.consumer, RateSet::singleton(1),
                                RateSet::singleton(1), capacity);
  return p;
}

std::vector<TimePoint> starts_under(const Pipeline& p, const FaultPlan& plan,
                                    ActorId actor, Duration horizon) {
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  sim.record_firings(p.consumer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + horizon;
  (void)sim.run(stop);
  std::vector<TimePoint> starts;
  for (const auto& record : sim.firings(actor)) {
    starts.push_back(record.start);
  }
  return starts;
}

const ModelClass kAllClasses[] = {
    ModelClass::Chain, ModelClass::ForkJoin, ModelClass::Cyclic,
    ModelClass::MultiConstraint, ModelClass::InteriorPinned};

using models::class_name;

/// The first actor not bound by any throughput constraint (every random
/// model has one: the classes pin only sources/sinks/one interior actor).
const analysis::ActorMargin& first_unconstrained_actor(
    const RobustnessReport& report) {
  for (const analysis::ActorMargin& m : report.actors) {
    bool constrained = false;
    for (const analysis::ThroughputConstraint& c : report.constraints) {
      constrained = constrained || c.actor == m.actor;
    }
    if (!constrained) {
      return m;
    }
  }
  return report.actors.front();
}

bool names_actor(const std::vector<sim::RhoViolation>& violations,
                 ActorId actor) {
  for (const sim::RhoViolation& v : violations) {
    if (v.actor == actor) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultInjection, RhoOverrunStretchesEveryAffectedFiring) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs / Rational(2));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 4u);
  for (const auto& record : records) {
    EXPECT_EQ(record.finish - record.start, kMs * Rational(3, 2));
  }
}

TEST(FaultInjection, FactorScalesTheResponseTime) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, Duration(), Rational(3));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].finish - records[0].start, kMs * Rational(3));
}

TEST(FaultInjection, TransientStallDelaysExactlyOneFiring) {
  Pipeline p = make_pipeline();
  FaultPlan faulted;
  faulted.transient_stall(p.producer, 3, kMs * Rational(4));
  const auto baseline =
      starts_under(p, FaultPlan{}, p.producer, kMs * Rational(30));
  const auto stalled =
      starts_under(p, faulted, p.producer, kMs * Rational(30));
  ASSERT_GE(baseline.size(), 6u);
  ASSERT_GE(stalled.size(), 6u);
  // Firings 0..3 start on time (the stall lengthens firing 3 itself);
  // every later firing is pushed back by exactly the outage.
  for (std::size_t k = 0; k <= 3; ++k) {
    EXPECT_EQ(stalled[k], baseline[k]) << "firing " << k;
  }
  for (std::size_t k = 4; k < std::min(baseline.size(), stalled.size()); ++k) {
    EXPECT_EQ(stalled[k] - baseline[k], kMs * Rational(4)) << "firing " << k;
  }
}

TEST(FaultInjection, ComposedFaultsAddUpPerFiring) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs).rho_overrun(p.producer, kMs * Rational(2));
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].finish - records[0].start, kMs * Rational(4));
}

TEST(FaultInjection, SourceDropoutHitsPeriodicFirings) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.source_dropout(p.producer, kMs * Rational(5), 4);
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(60);
  (void)sim.run(stop);
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 9u);
  for (std::size_t k = 0; k < 9; ++k) {
    const Duration expected =
        (k % 4 == 0) ? kMs * Rational(6) : kMs;  // every 4th firing drops out
    EXPECT_EQ(records[k].finish - records[k].start, expected) << "firing " << k;
  }
}

TEST(FaultInjection, BurstyJitterReplaysBitForBitFromItsSeed) {
  Pipeline p = make_pipeline();
  FaultPlan plan(7);
  plan.bursty_jitter(p.producer, kMs, 2, 5);
  const auto first = starts_under(p, plan, p.consumer, kMs * Rational(40));
  const auto second = starts_under(p, plan, p.consumer, kMs * Rational(40));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // The extras stay within [0, max] and hit only burst positions.
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  sim.record_firings(p.producer);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(40);
  (void)sim.run(stop);
  bool any_jitter = false;
  const auto& records = sim.firings(p.producer);
  ASSERT_GE(records.size(), 10u);
  for (const auto& record : records) {
    const Duration extra = record.finish - record.start - kMs;
    EXPECT_FALSE(extra.is_negative());
    EXPECT_LE(extra, kMs);
    const std::int64_t pos = record.index % 5;
    if (pos >= 2) {
      EXPECT_TRUE(extra.is_zero()) << "firing " << record.index;
    }
    any_jitter = any_jitter || extra.is_positive();
  }
  EXPECT_TRUE(any_jitter);
}

TEST(FaultInjection, DescribeNamesActorsAndKinds) {
  Pipeline p = make_pipeline();
  FaultPlan plan(3);
  plan.rho_overrun(p.producer, kMs).transient_stall(p.consumer, 2, kMs);
  const std::string text = plan.describe(p.graph);
  EXPECT_NE(text.find("seed 3"), std::string::npos);
  EXPECT_NE(text.find("rho_overrun on 'p'"), std::string::npos);
  EXPECT_NE(text.find("transient_stall on 'c'"), std::string::npos);
}

// ------------------------------------------------------------------ Monitor

TEST(Monitor, CleanRunIsConformant) {
  Pipeline p = make_pipeline();
  analysis::ConstraintSet constraints;  // none: pure ρ/watchdog monitoring
  ConformanceMonitor monitor(p.graph, constraints);
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(50);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);
  EXPECT_TRUE(monitor.report().rho_conformant);
  EXPECT_EQ(monitor.report().rho_violation_total, 0);
  EXPECT_FALSE(monitor.report().blockage.blocked);
}

TEST(Monitor, RhoViolationsNameTheOffendingActor) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs / Rational(2), Rational(1), 2, 3);
  ConformanceMonitor monitor(p.graph, {});
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(50);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  const sim::MonitorReport& report = monitor.report();
  EXPECT_FALSE(report.rho_conformant);
  EXPECT_EQ(report.rho_violation_total, 3);  // firings 2, 3, 4
  ASSERT_EQ(report.rho_violations.size(), 3u);
  for (const sim::RhoViolation& v : report.rho_violations) {
    EXPECT_EQ(v.actor, p.producer);
    EXPECT_GE(v.firing, 2);
    EXPECT_LE(v.firing, 4);
    EXPECT_EQ(v.declared, kMs);
    EXPECT_EQ(v.observed, kMs * Rational(3, 2));
  }
  EXPECT_NE(report.summary.find("'p'"), std::string::npos);
}

// The engine grades every finished firing, so overruns past 2^18 firings
// per actor are still counted and named, and the conformance row counts
// every graded firing.
TEST(Monitor, RhoOverrunsLateInALongRunAreNamed) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs / Rational(2), Rational(1), 300000, 3);
  ConformanceMonitor monitor(
      p.graph, {analysis::ThroughputConstraint{p.consumer, kMs}});
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  plan.apply(sim);
  StopCondition stop;
  stop.firing_target = StopCondition::FiringTarget{p.consumer, 310000};
  const RunResult run = sim.run(stop);
  ASSERT_GE(run.total_firings, 620000);
  monitor.observe(sim, run);

  const sim::MonitorReport& report = monitor.report();
  EXPECT_FALSE(report.rho_conformant);
  EXPECT_EQ(report.rho_violation_total, 3);
  ASSERT_EQ(report.rho_violations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report.rho_violations[i].actor, p.producer);
    EXPECT_EQ(report.rho_violations[i].firing,
              300000 + static_cast<std::int64_t>(i));
    EXPECT_EQ(report.rho_violations[i].observed, kMs * Rational(3, 2));
  }
  ASSERT_EQ(report.constraints.size(), 1u);
  EXPECT_EQ(report.constraints.front().firings_observed, 310000);
  EXPECT_NE(report.summary.find("rho contract violated 3 times, worst "
                                "offender 'p'"),
            std::string::npos)
      << report.summary;
}

TEST(Monitor, RefusesTwoConstraintsOnOneActor) {
  Pipeline p = make_pipeline();
  EXPECT_THROW(ConformanceMonitor(
                   p.graph, {analysis::ThroughputConstraint{p.consumer, kMs},
                             analysis::ThroughputConstraint{
                                 p.consumer, kMs * Rational(2)}}),
               ContractError);
}

TEST(Monitor, WatchdogNamesTheBlockedCycle) {
  // Capacity 2 < quantum 3: producer waits for space held by the
  // consumer, consumer waits for data held by the producer — a 2-cycle.
  VrdfGraph graph;
  const ActorId p = graph.add_actor("p", kMs);
  const ActorId c = graph.add_actor("c", kMs);
  (void)graph.add_buffer(p, c, RateSet::singleton(3), RateSet::singleton(3), 2);
  ConformanceMonitor monitor(graph, {});
  Simulator sim(graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs;
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  const sim::BlockageReport& blockage = monitor.report().blockage;
  ASSERT_TRUE(blockage.blocked);
  EXPECT_EQ(blockage.waits.size(), 2u);
  EXPECT_EQ(blockage.cycle.size(), 2u);
  EXPECT_NE(blockage.message.find("blocked cycle"), std::string::npos);
  EXPECT_NE(blockage.message.find("'p' waits for 3 free containers"),
            std::string::npos);
  EXPECT_NE(blockage.message.find("'c' waits for 3 tokens"),
            std::string::npos);
  EXPECT_EQ(monitor.report().summary, blockage.message);
}

TEST(Monitor, VerifyEmbedsTheWatchdogDiagnosisOnDeadlock) {
  VrdfGraph graph;
  const ActorId p = graph.add_actor("p", kMs);
  const ActorId c = graph.add_actor("c", kMs);
  (void)graph.add_buffer(p, c, RateSet::singleton(3), RateSet::singleton(3), 2);
  const analysis::ThroughputConstraint constraint{c, kMs};
  const sim::VerifyResult result = sim::verify_throughput(graph, constraint);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("deadlock"), std::string::npos);
  EXPECT_NE(result.detail.find("'p' waits for 3 free containers"),
            std::string::npos);
}

TEST(Monitor, CsvEmittersAreStructured) {
  Pipeline p = make_pipeline();
  FaultPlan plan;
  plan.rho_overrun(p.producer, kMs, Rational(1), 0, 1);
  ConformanceMonitor monitor(
      p.graph, {analysis::ThroughputConstraint{p.consumer, kMs}});
  Simulator sim(p.graph);
  sim.set_default_sources(1);
  monitor.attach(sim);
  plan.apply(sim);
  StopCondition stop;
  stop.until_time = TimePoint() + kMs * Rational(20);
  const RunResult run = sim.run(stop);
  monitor.observe(sim, run);

  const std::string violations =
      io::rho_violations_to_csv(monitor.report(), p.graph);
  EXPECT_NE(violations.find("actor,firing,declared_s,observed_s"),
            std::string::npos);
  EXPECT_NE(violations.find("p,0,"), std::string::npos);
  const std::string conformance =
      io::conformance_to_csv(monitor.report(), p.graph);
  EXPECT_NE(conformance.find("actor,period_s,firings,late_firings"),
            std::string::npos);
  EXPECT_NE(conformance.find("\nc,"), std::string::npos);
}

// --------------------------------------------------------------- Robustness

TEST(Robustness, HeadroomAndMarginsOnASlackedModel) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 5;
  spec.capacity_headroom = 2;
  const SyntheticModel model = make_random_model(spec);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(report.ok);
  ASSERT_FALSE(report.actors.empty());
  ASSERT_FALSE(report.buffers.empty());
  for (const analysis::BufferHeadroom& b : report.buffers) {
    EXPECT_EQ(b.headroom, 2);
    EXPECT_EQ(b.installed, b.required + 2);
  }
  bool any_positive = false;
  for (const analysis::ActorMargin& m : report.actors) {
    EXPECT_FALSE(m.margin.is_negative());
    EXPECT_LE(m.response_time + m.margin, m.max_response_time);
    any_positive = any_positive || m.margin.is_positive();
  }
  EXPECT_TRUE(any_positive);
  EXPECT_FALSE(report.joint_safe_fraction.is_negative());
  EXPECT_LE(report.joint_safe_fraction, Rational(1));
}

TEST(Robustness, TightModelHasZeroMargins) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 3;
  spec.response_fraction = Rational(1);  // ρ = φ: no slack anywhere
  const SyntheticModel model = make_random_model(spec);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(report.ok);
  for (const analysis::ActorMargin& m : report.actors) {
    EXPECT_TRUE(m.margin.is_zero());
    EXPECT_EQ(m.response_time, m.max_response_time);
  }
}

TEST(Robustness, UndersizedCapacitiesAreRejected) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::Chain;
  spec.seed = 9;
  SyntheticModel model = make_random_model(spec);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  ASSERT_TRUE(analysis.admissible);
  // Steal one container from the first buffer's space edge.
  const dataflow::EdgeId space = analysis.pairs.front().buffer.space;
  const std::int64_t installed = model.graph.edge(space).initial_tokens;
  ASSERT_GT(installed, 0);
  model.graph.set_initial_tokens(space, installed - 1);
  const RobustnessReport report =
      analysis::robustness_margins(model.graph, model.constraints);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics.front().find("below the analysed requirement"),
            std::string::npos);
}

TEST(Robustness, ReportContainsTheMarginsSection) {
  RandomModelSpec spec;
  spec.model_class = ModelClass::InteriorPinned;
  spec.seed = 2;
  spec.capacity_headroom = 1;
  const SyntheticModel model = make_random_model(spec);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  ASSERT_TRUE(analysis.admissible);
  const std::string report =
      io::analysis_report(model.graph, model.constraints, analysis);
  EXPECT_NE(report.find("## Robustness margins"), std::string::npos);
  EXPECT_NE(report.find("tolerable overrun"), std::string::npos);
  EXPECT_NE(report.find("headroom"), std::string::npos);

  const RobustnessReport margins =
      analysis::robustness_margins(model.graph, model.constraints);
  ASSERT_TRUE(margins.ok);
  const std::string csv = io::margins_to_csv(margins, model.graph);
  EXPECT_NE(csv.find("actor,rho_s,phi_s,margin_s"), std::string::npos);
  EXPECT_NE(csv.find("buffer,required,installed,headroom"), std::string::npos);
}

// The margins themselves, byte for byte: margins_to_csv (ρ, φ, margin per
// actor; required, installed and headroom per buffer) plus the verdict,
// the joint safe fraction and the diagnostics.  The expected text was
// generated by a search that re-analysed a modified copy of the graph
// for every probe, so any drift in a probe's verdict shows up here.
std::string render_margins(const RobustnessReport& report,
                           const VrdfGraph& graph) {
  std::string text = io::margins_to_csv(report, graph);
  text += std::string("ok=") + (report.ok ? "1" : "0") +
          " joint=" + report.joint_safe_fraction.to_string() + "\n";
  for (const std::string& diagnostic : report.diagnostics) {
    text += "diagnostic: " + diagnostic + "\n";
  }
  return text;
}

// Every generator class at seed 5 with one container of headroom; the
// source-constrained form for the classes that have one
// (MultiConstraint and InteriorPinned ignore the flag).
TEST(Robustness, MarginsArePinnedOnEveryClass) {
  struct Expected {
    ModelClass model_class;
    bool source_constrained;
    const char* text;
  };
  const Expected cases[] = {
      {ModelClass::Chain, false,
       R"(actor,rho_s,phi_s,margin_s
t0,3/88000,3/44000,3/88000
t1,3/8000,3/4000,69/512000
t2,1/2000,1/1000,47/128000
t3,1/2000,1/1000,51/128000
buffer,required,installed,headroom
t0->t1,17,18,1
t1->t2,18,19,1
t2->t3,19,20,1
ok=1 joint=21/64
)"},
      {ModelClass::ForkJoin, false,
       R"(actor,rho_s,phi_s,margin_s
src,3/4000,3/2000,93/256000
s0_b2_0,1/4000,1/2000,1/4000
s0_b2_1,1/8000,1/4000,1/8000
s0_b1_0,3/4000,3/2000,93/256000
s0_b0_0,1/8000,1/4000,1/8000
s0_join,1/4000,1/2000,1/4000
post_0,3/8000,3/4000,189/512000
snk,1/2000,1/1000,3/8000
buffer,required,installed,headroom
src->s0_b0_0,17,18,1
src->s0_b1_0,17,18,1
src->s0_b2_0,16,17,1
s0_b2_0->s0_b2_1,3,4,1
s0_b2_1->s0_join,3,4,1
s0_b1_0->s0_join,11,12,1
s0_b0_0->s0_join,3,4,1
s0_join->post_0,6,7,1
post_0->snk,9,10,1
ok=1 joint=17/64
)"},
      {ModelClass::Cyclic, false,
       R"(actor,rho_s,phi_s,margin_s
src,3/4000,3/2000,93/256000
s0_b2_0,1/4000,1/2000,1/4000
s0_b2_1,1/8000,1/4000,1/8000
s0_b1_0,3/4000,3/2000,93/256000
s0_b0_0,1/8000,1/4000,1/8000
s0_join,1/4000,1/2000,1/4000
post_0,3/8000,3/4000,189/512000
snk,1/2000,1/1000,3/8000
buffer,required,installed,headroom
src->s0_b0_0,17,18,1
src->s0_b1_0,17,18,1
src->s0_b2_0,16,17,1
s0_b2_0->s0_b2_1,3,4,1
s0_b2_1->s0_join,3,4,1
s0_b1_0->s0_join,11,12,1
s0_b0_0->s0_join,3,4,1
s0_join->post_0,6,7,1
s0_join->src,46,47,1
post_0->snk,9,10,1
ok=1 joint=17/64
)"},
      {ModelClass::MultiConstraint, false,
       R"(actor,rho_s,phi_s,margin_s
src,3/1000,3/500,63/64000
snk1,1/2000,1/1000,1/2000
snk0,3/1000,3/500,63/64000
buffer,required,installed,headroom
src->snk0,16,17,1
src->snk1,9,10,1
ok=1 joint=5/32
)"},
      {ModelClass::InteriorPinned, false,
       R"(actor,rho_s,phi_s,margin_s
u0,3/2000,3/1000,93/128000
u1,1/4000,1/2000,1/4000
pin,1/2000,1/1000,1/2000
d0,3/2000,3/1000,93/128000
d1,1/4000,1/2000,1/4000
buffer,required,installed,headroom
u0->u1,10,11,1
u1->pin,3,4,1
pin->d0,21,22,1
d0->d1,24,25,1
ok=1 joint=27/64
)"},
      {ModelClass::Chain, true,
       R"(actor,rho_s,phi_s,margin_s
t0,1/2000,1/1000,1/2000
t1,1/1000,1/500,1/1000
t2,1/3000,1/1500,1/16000
t3,1/5625,2/5625,23/360000
buffer,required,installed,headroom
t0->t1,12,13,1
t1->t2,14,15,1
t2->t3,41,42,1
ok=1 joint=1/8
)"},
      {ModelClass::ForkJoin, true,
       R"(actor,rho_s,phi_s,margin_s
src,1/2000,1/1000,21/128000
s0_b2_0,1/6000,1/3000,1/6000
s0_b2_1,1/12000,1/6000,1/12000
s0_b1_0,1/2000,1/1000,21/128000
s0_b0_0,1/12000,1/6000,1/12000
s0_join,1/6000,1/3000,1/6000
post_0,1/4000,1/2000,63/256000
snk,1/6000,1/3000,1/6000
buffer,required,installed,headroom
src->s0_b0_0,9,10,1
src->s0_b1_0,16,17,1
src->s0_b2_0,10,11,1
s0_b2_0->s0_b2_1,3,4,1
s0_b2_1->s0_join,9,10,1
s0_b1_0->s0_join,11,12,1
s0_b0_0->s0_join,11,12,1
s0_join->post_0,10,11,1
post_0->snk,17,18,1
ok=1 joint=5/32
)"},
      {ModelClass::Cyclic, true,
       R"(actor,rho_s,phi_s,margin_s
src,1/2000,1/1000,21/128000
s0_b2_0,1/6000,1/3000,1/6000
s0_b2_1,1/12000,1/6000,1/12000
s0_b1_0,1/2000,1/1000,21/128000
s0_b0_0,1/12000,1/6000,1/12000
s0_join,1/6000,1/3000,1/6000
post_0,1/4000,1/2000,63/256000
snk,1/6000,1/3000,1/6000
buffer,required,installed,headroom
src->s0_b0_0,9,10,1
src->s0_b1_0,16,17,1
src->s0_b2_0,10,11,1
s0_b2_0->s0_b2_1,3,4,1
s0_b2_1->s0_join,9,10,1
s0_b1_0->s0_join,11,12,1
s0_b0_0->s0_join,11,12,1
s0_join->post_0,10,11,1
s0_join->src,46,47,1
post_0->snk,17,18,1
ok=1 joint=5/32
)"},
  };
  for (const Expected& expected : cases) {
    SCOPED_TRACE(std::string(class_name(expected.model_class)) +
                 (expected.source_constrained ? " source" : " sink"));
    RandomModelSpec spec;
    spec.model_class = expected.model_class;
    spec.seed = 5;
    spec.capacity_headroom = 1;
    spec.source_constrained = expected.source_constrained;
    const SyntheticModel model = make_random_model(spec);
    EXPECT_EQ(render_margins(analysis::robustness_margins(model.graph,
                                                          model.constraints),
                             model.graph),
              expected.text);
  }
}

// The tight and undersized models of the tests above: zero slack gives
// zero margins and a vacuous joint fraction of 1; a stolen container
// gives zero margins, ok=0 and the diagnostic naming the buffer.
TEST(Robustness, MarginsArePinnedOnTightAndUndersizedModels) {
  RandomModelSpec tight;
  tight.model_class = ModelClass::Chain;
  tight.seed = 3;
  tight.response_fraction = Rational(1);
  const SyntheticModel tight_model = make_random_model(tight);
  EXPECT_EQ(render_margins(analysis::robustness_margins(
                               tight_model.graph, tight_model.constraints),
                           tight_model.graph),
            R"(actor,rho_s,phi_s,margin_s
t0,3/17500,3/17500,0
t1,9/35000,9/35000,0
t2,3/10000,3/10000,0
t3,1/1000,1/1000,0
buffer,required,installed,headroom
t0->t1,19,19,0
t1->t2,25,25,0
t2->t3,24,24,0
ok=1 joint=1
)");

  RandomModelSpec undersized;
  undersized.model_class = ModelClass::Chain;
  undersized.seed = 9;
  SyntheticModel model = make_random_model(undersized);
  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  ASSERT_TRUE(analysis.admissible);
  const dataflow::EdgeId space = analysis.pairs.front().buffer.space;
  model.graph.set_initial_tokens(space,
                                 model.graph.edge(space).initial_tokens - 1);
  EXPECT_EQ(
      render_margins(
          analysis::robustness_margins(model.graph, model.constraints),
          model.graph),
      R"(actor,rho_s,phi_s,margin_s
t0,1/52500,1/26250,0
t1,1/30000,1/15000,0
t2,1/2000,1/1000,0
t3,1/2000,1/1000,0
buffer,required,installed,headroom
t0->t1,32,31,-1
t1->t2,37,37,0
t2->t3,20,20,0
ok=0 joint=0
diagnostic: installed capacity of buffer t0->t1 (31) is below the analysed requirement (32)
)");
}

// ---------------------------------------------------------- Randomized sweep

constexpr std::uint64_t kSweepSeeds = 40;

TEST(RandomizedSweep, WithinMarginFaultsNeverStarvePhase2) {
  // The faulted fleet sweep (PR 8): every item computes its robustness
  // margins, injects the entire tolerable overrun of the largest-margin
  // actor on every firing — the exact margin boundary, the strongest
  // within-margin stress — and verifies under the monitor.  All five
  // classes, headroom levels 0 and 2, 40 seeds each: 400 graphs, double
  // the old single-threaded loop.  The constraint must hold everywhere
  // (zero phase-2 starvations) while the monitor names every positive-
  // margin breach.
  sim::SweepSpec spec;
  spec.seeds_per_class = static_cast<std::int64_t>(kSweepSeeds);
  spec.headroom_levels = {0, 2};
  spec.observe_firings = 200;
  spec.faulted = true;
  const sim::FleetReport report = sim::FleetSweep(spec).run(4);
  EXPECT_EQ(report.total.items, 400);
  ASSERT_EQ(report.total.passed, report.total.items) << sim::canonical_text(report);
  EXPECT_EQ(report.total.starvations, 0);

  // The monitor still names the contract breach even though the
  // constraint held — for every item whose injected margin was positive.
  EXPECT_GT(report.total.faults_expected, 0);
  EXPECT_EQ(report.total.faults_named, report.total.faults_expected)
      << sim::canonical_text(report);
}

TEST(RandomizedSweep, BeyondMarginFaultsAreDetectedAndNamed) {
  for (const ModelClass model_class : kAllClasses) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      SCOPED_TRACE(std::string(class_name(model_class)) + " seed " +
                   std::to_string(seed));
      RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      spec.capacity_headroom = static_cast<std::int64_t>(seed % 3);
      // With zero-token consumptions excluded, every constrained firing
      // demands at least one token from its feed buffer, so the demand
      // rate is bounded below by one token per period.
      spec.zero_percent = 0;
      const SyntheticModel model = make_random_model(spec);
      const RobustnessReport margins =
          analysis::robustness_margins(model.graph, model.constraints);
      ASSERT_TRUE(margins.ok);

      // An overrun on an arbitrary actor need not break the constraint —
      // the analysis is conservative and headroom or pipelining can absorb
      // even multiples of phi.  Token conservation gives a bound no amount
      // of buffering can evade: a buffer's long-run supply rate is at most
      // installed / rho'.  Slow the constrained actor's feeding producer
      // until that bound sits strictly below one token per period.
      const analysis::ThroughputConstraint& constraint =
          model.constraints.front();
      const analysis::BufferHeadroom* feed = nullptr;
      for (const analysis::BufferHeadroom& buffer : margins.buffers) {
        if (buffer.consumer != constraint.actor) {
          continue;
        }
        const bool producer_constrained = std::any_of(
            model.constraints.begin(), model.constraints.end(),
            [&](const analysis::ThroughputConstraint& c) {
              return c.actor == buffer.producer;
            });
        if (!producer_constrained) {
          feed = &buffer;
          break;
        }
      }
      ASSERT_NE(feed, nullptr);
      const Duration beyond =
          constraint.period * Rational(4 * (feed->installed + 1));
      FaultPlan plan(seed);
      plan.rho_overrun(feed->producer, beyond);
      sim::VerifyOptions options;
      options.observe_firings = 200;
      options.monitor = true;
      const sim::VerifyResult result = sim::verify_throughput(
          model.graph, model.constraints,
          [&](Simulator& sim) { plan.apply(sim); }, options);

      // Detected: never a silently passing run, never a bare hang.
      ASSERT_FALSE(result.ok);
      EXPECT_FALSE(result.detail.empty());
      ASSERT_TRUE(result.monitor.has_value());
      const sim::MonitorReport& report = *result.monitor;
      // Named: the ρ-contract events point at the injected actor, and the
      // constraint grading or the watchdog reports the consequence.
      EXPECT_FALSE(report.rho_conformant);
      EXPECT_TRUE(names_actor(report.rho_violations, feed->producer));
      EXPECT_TRUE(result.starvation_count > 0 || report.blockage.blocked)
          << result.detail;
      EXPECT_NE(report.summary, "all constraints conformant");
    }
  }
}

TEST(RandomizedSweep, LatenessMonotoneAndLinearInStallDelta) {
  for (const ModelClass model_class : kAllClasses) {
    SCOPED_TRACE(class_name(model_class));
    RandomModelSpec spec;
    spec.model_class = model_class;
    spec.seed = 11;
    const SyntheticModel model = make_random_model(spec);
    const RobustnessReport margins =
        analysis::robustness_margins(model.graph, model.constraints);
    ASSERT_TRUE(margins.ok);
    const ActorId actor = first_unconstrained_actor(margins).actor;
    const Duration delta = model.constraints.front().period;
    const TimePoint horizon =
        TimePoint() + model.constraints.front().period * Rational(100);

    // A *single-firing* stall keeps lateness linear in Δ (a per-firing
    // overrun would accumulate): baseline ≤ Δ ≤ 2Δ, pointwise within Δ.
    FaultPlan none;
    FaultPlan light;
    light.transient_stall(actor, 3, delta);
    FaultPlan heavy;
    heavy.transient_stall(actor, 3, delta * Rational(2));

    const auto vs_baseline =
        sim::check_fault_monotonic_linear(model.graph, none, light, delta,
                                          horizon);
    EXPECT_TRUE(vs_baseline.monotonic) << vs_baseline.detail;
    EXPECT_TRUE(vs_baseline.linear) << vs_baseline.detail;
    const auto vs_light =
        sim::check_fault_monotonic_linear(model.graph, light, heavy, delta,
                                          horizon);
    EXPECT_TRUE(vs_light.monotonic) << vs_light.detail;
    EXPECT_TRUE(vs_light.linear) << vs_light.detail;
  }
}

}  // namespace
}  // namespace vrdf
