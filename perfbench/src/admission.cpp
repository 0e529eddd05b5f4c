// `admission` workload: one closed-loop client asking run-time what-ifs of
// long-lived controllers.  A plain AdmissionController and a
// certificate-gated one serve the same seeded operation sequence (ρ
// retunes, some of which must be rejected and rolled back; period moves;
// admit/remove of streams on interior actors), and a DeploymentController
// pair on a two-processor TDM platform serves slot retunes and stream
// admissions.  The plain controller runs entirely in the incremental
// engine; the certified one spends most of its time in the checker.
// Neither rebuilds a snapshot or runs the simulator.
//
// The sequence is a fixed set of scripts per controller, each replayed
// from the controllers' built state.  A set-up probe runs every script
// once; one that throws there (OverflowError on the longest chains) is
// attributed to the probe and left out of the measured window, which
// replays the rest in a fixed rotation.  Every decision of the window is
// then one the probe answered, and the window's mix of decisions does not
// drift with how many of them the host got through.
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/deployment.hpp"
#include "bench.hpp"
#include "inputs.hpp"
#include "models/synthetic.hpp"
#include "util/seed_stream.hpp"

namespace perfbench {
namespace {

namespace analysis = vrdf::analysis;
using vrdf::Duration;
using vrdf::Rational;
using vrdf::dataflow::ActorId;

/// Models per run, half chains and half fork-joins.  Their sizes are
/// spread evenly over the range rather than drawn, so every seed serves
/// the same size mix and only shapes, rates and operations vary.
constexpr std::size_t kModels = 48;
constexpr int kOpsPerSession = 16;
/// Operation scripts per controller.  The probe runs each once, about
/// 6000 decisions on each kind of controller, so a per-decision leak in
/// the engine or the checker shows in peak_rss_mb.
constexpr std::size_t kScripts = 8;
/// Slices of the measured window; a set-up is timed between each two.
constexpr int kSetupSlices = 30;
/// Interior streams admitted at most at once per controller.
constexpr std::size_t kMaxExtraStreams = 2;

/// A set-up model and the controllers serving it.  The graph and the
/// snapshot live on the heap: the snapshot and the controllers keep
/// references to them.
struct ModelSession {
  const char* model_class = "";
  std::size_t size = 0;
  std::uint64_t seed = 0;
  std::unique_ptr<vrdf::dataflow::VrdfGraph> graph;
  analysis::ConstraintSet initial;
  std::unique_ptr<analysis::TopologySnapshot> snapshot;
  /// The controllers as built; every session starts from copies.
  std::unique_ptr<const analysis::AdmissionController> built_plain;
  std::unique_ptr<const analysis::AdmissionController> built_certified;
  std::unique_ptr<analysis::AdmissionController> plain;
  std::unique_ptr<analysis::AdmissionController> certified;
  std::vector<ActorId> extra;

  void build() {
    snapshot = std::make_unique<analysis::TopologySnapshot>(*graph);
    built_plain = std::make_unique<analysis::AdmissionController>(*snapshot, initial);
    auto gated = std::make_unique<analysis::AdmissionController>(*snapshot, initial);
    gated->set_require_certificate(true);
    built_certified = std::move(gated);
    restore();
  }
  void restore() {
    plain = std::make_unique<analysis::AdmissionController>(*built_plain);
    certified = std::make_unique<analysis::AdmissionController>(*built_certified);
    extra.clear();
  }
};

struct DeploymentSession {
  Deployment deployment;
  std::unique_ptr<analysis::DeploymentController> plain;
  std::unique_ptr<analysis::DeploymentController> certified;
  std::vector<std::string> extra;

  /// Builds the controllers afresh: they own their platform and snapshot,
  /// so they are not copied.
  void build() {
    plain = std::make_unique<analysis::DeploymentController>(
        deployment.tasks, deployment.platform, deployment.streams);
    certified = std::make_unique<analysis::DeploymentController>(
        deployment.tasks, deployment.platform, deployment.streams);
    certified->set_require_certificate(true);
    extra.clear();
  }
};

struct SetupFailure {
  FailureKey key;
  std::string what;
};

struct AdmissionInputs {
  std::vector<std::unique_ptr<ModelSession>> models;
  std::unique_ptr<DeploymentSession> deployment;
  std::vector<SetupFailure> failures;
};

AdmissionInputs make_inputs(std::uint64_t seed) {
  AdmissionInputs inputs;
  const auto half = static_cast<std::int64_t>(kModels / 2);
  for (std::size_t i = 0; i < kModels; ++i) {
    auto m = std::make_unique<ModelSession>();
    m->seed = vrdf::util::derive_seed(seed, i);
    const bool chain = i % 2 == 0;
    m->model_class = chain ? "chain" : "fork_join";
    const auto rank = static_cast<std::int64_t>(i / 2);
    const std::int64_t length = 16 + rank * 48 / (half - 1);
    const std::int64_t stages = 3 + rank * 7 / (half - 1);
    m->size = static_cast<std::size_t>(chain ? length : stages);
    try {
      vrdf::models::SyntheticChain generated;
      if (chain) {
        vrdf::models::RandomChainSpec spec;
        spec.seed = m->seed;
        spec.length = static_cast<std::size_t>(length);
        // Half of φ leaves slack, so ρ increases are sometimes accepted.
        spec.response_fraction = Rational(1, 2);
        generated = vrdf::models::make_random_chain(spec);
      } else {
        vrdf::models::RandomForkJoinSpec spec;
        spec.seed = m->seed;
        spec.stages = static_cast<std::size_t>(stages);
        spec.response_fraction = Rational(1, 2);
        generated = vrdf::models::make_random_fork_join(spec);
      }
      m->size = generated.graph.actor_count();
      m->graph = std::make_unique<vrdf::dataflow::VrdfGraph>(std::move(generated.graph));
      m->initial = {generated.constraint};
      m->build();
      inputs.models.push_back(std::move(m));
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      inputs.failures.push_back(
          {{m->model_class, m->size, m->seed, exception_type(error)},
           exception_what(error)});
    }
  }
  inputs.deployment = std::make_unique<DeploymentSession>();
  inputs.deployment->deployment =
      make_deployment(vrdf::util::derive_seed(seed, kModels),
                      vrdf::sched::ArbiterPolicy::Tdm, 3, 3, /*relaxed=*/true);
  inputs.deployment->build();
  return inputs;
}

/// The engine invariant: analysis() equals a full recompute over the same
/// snapshot, constraints, options and overlay.  Throws what the recompute
/// throws.
bool matches_full_recompute(const analysis::IncrementalAnalysis& engine) {
  return identical(engine.analysis(),
                   analysis::compute_buffer_capacities(engine.snapshot(), engine.constraints(),
                                                       engine.options(), engine.overlay()));
}

enum class Outcome { Accepted, Rejected, Threw };

struct Decision {
  Outcome outcome = Outcome::Rejected;
  std::exception_ptr error;
};

std::optional<Duration> pacing_of(const analysis::GraphAnalysis& a, ActorId actor) {
  for (std::size_t i = 0; i < a.actors_in_order.size(); ++i) {
    if (a.actors_in_order[i] == actor) {
      return a.pacing[i];
    }
  }
  return std::nullopt;
}

bool constrained(const analysis::ConstraintSet& set, ActorId actor) {
  for (const analysis::ThroughputConstraint& c : set) {
    if (c.actor == actor) {
      return true;
    }
  }
  return false;
}

constexpr std::array<std::array<std::int64_t, 2>, 5> kRhoFactors{
    {{1, 4}, {1, 2}, {3, 4}, {1, 1}, {3, 2}}};
constexpr std::array<std::array<std::int64_t, 2>, 5> kPeriodFactors{
    {{1, 2}, {3, 4}, {1, 1}, {4, 3}, {2, 1}}};

struct Latencies {
  std::vector<double> plain_us;
  std::vector<double> certified_us;
};

class AdmissionClient {
public:
  AdmissionClient(AdmissionInputs& inputs, std::uint64_t seed, Report& report)
      : inputs_(inputs), base_seed_(vrdf::util::decorrelate(seed)), report_(report) {}

  /// Replays the rotation until the deadline.
  void serve_until(std::int64_t deadline_ns, Tracer* tracer, Latencies* out) {
    while (!rotation_.empty() && before(deadline_ns)) {
      const Script& script = rotation_[cursor_++ % rotation_.size()];
      (void)session(script, tracer, out);
    }
  }
  /// The set-up probe: runs every script of every controller once, round
  /// the controllers, and keeps those that did not throw as the rotation.
  void probe() {
    for (std::size_t index = 0; index < kScripts; ++index) {
      for (std::size_t slot = 0; slot <= inputs_.models.size(); ++slot) {
        const Script script{slot, index};
        if (!session(script, nullptr, nullptr)) {
          rotation_.push_back(script);
        }
      }
    }
  }

  /// Every controller must still equal a full recompute of its own
  /// constraints and overlay.
  void check_all() {
    for (const auto& m : inputs_.models) {
      check_invariant(m->plain->engine(), m->model_class, m->size, m->seed);
      check_invariant(m->certified->engine(), m->model_class, m->size, m->seed);
    }
    const DeploymentSession& d = *inputs_.deployment;
    check_invariant(d.plain->engine(), "tdm", d.deployment.names.size(), 0);
    check_invariant(d.certified->engine(), "tdm", d.deployment.names.size(), 0);
  }

  std::uint64_t accepted = 0;
  std::uint64_t answered = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t inconsistent_after_throw = 0;
  std::uint64_t cone_pairs = 0;
  std::uint64_t cone_samples = 0;
  ClauseCounts clauses;

private:
  /// Script `index` of the controllers in `slot` (the last slot is the
  /// deployment's).
  struct Script {
    std::size_t slot = 0;
    std::size_t index = 0;
  };

  /// Replays one script from the built state; true when an operation or
  /// the full recompute of the invariant threw.  The controllers are then
  /// left in their built state, so check_all sees only states a session
  /// completed.
  bool session(const Script& script, Tracer* tracer, Latencies* out) {
    Rng rng(vrdf::util::derive_seed(base_seed_, script.slot * kScripts + script.index));
    if (script.slot == inputs_.models.size()) {
      inputs_.deployment->build();
      return deployment_session(rng, tracer, out);
    }
    ModelSession& m = *inputs_.models[script.slot];
    m.restore();
    return model_session(m, rng, tracer, out);
  }

  bool model_session(ModelSession& m, Rng& rng, Tracer* tracer, Latencies* out) {
    const std::size_t n = m.graph->actor_count();
    bool threw = false;
    for (int step = 0; step < kOpsPerSession && !threw; ++step) {
      const analysis::GraphAnalysis& state = m.plain->analysis();
      const std::uint64_t pick = rng.next() % 100;
      const char* name = nullptr;
      std::function<analysis::AdmissionDecision(analysis::AdmissionController&)> op;
      ActorId target;
      if (pick < 45) {
        name = "admission.retune";
        target = ActorId(static_cast<ActorId::underlying_type>(rng.next() % n));
        const auto& f = kRhoFactors[rng.next() % kRhoFactors.size()];
        const Duration rho(pacing_of(state, target).value_or(Duration()).seconds() *
                           Rational(f[0], f[1]));
        if (!rho.is_positive()) {
          continue;
        }
        op = [target, rho](analysis::AdmissionController& c) {
          return c.retune(target, rho);
        };
      } else if (pick < 60) {
        name = "admission.set_period";
        const analysis::ThroughputConstraint primary = m.initial.front();
        const auto& f = kPeriodFactors[rng.next() % kPeriodFactors.size()];
        const Duration tau(primary.period.seconds() * Rational(f[0], f[1]));
        op = [primary, tau](analysis::AdmissionController& c) {
          return c.set_period(primary.actor, tau);
        };
      } else if (m.extra.size() < kMaxExtraStreams) {
        name = "admission.admit";
        target = ActorId(static_cast<ActorId::underlying_type>(rng.next() % n));
        if (constrained(m.plain->streams(), target)) {
          continue;
        }
        const analysis::ThroughputConstraint stream{
            target, pacing_of(state, target).value_or(Duration())};
        if (!stream.period.is_positive()) {
          continue;
        }
        op = [stream](analysis::AdmissionController& c) { return c.admit(stream); };
      } else {
        name = "admission.remove";
        target = m.extra[rng.next() % m.extra.size()];
        op = [target](analysis::AdmissionController& c) { return c.remove(target); };
      }
      const Decision plain = decide(name, "plain", tracer, out ? &out->plain_us : nullptr,
                                    [&] { return op(*m.plain).accepted; });
      const Decision certified =
          decide(name, "certified", tracer, out ? &out->certified_us : nullptr,
                 [&] { return op(*m.certified).accepted; });
      threw = settle(plain, certified, m.model_class, m.size, m.seed);
      if (!threw && plain.outcome == Outcome::Accepted) {
        if (std::string_view(name) == "admission.admit") {
          m.extra.push_back(target);
        } else if (std::string_view(name) == "admission.remove") {
          std::erase(m.extra, target);
        }
      }
      if (!threw && tracer != nullptr) {
        sample_cone(m.plain->engine());
        if (certified.outcome == Outcome::Accepted) {
          replay_certificate(*m.graph, *m.certified, m.model_class, tracer);
        }
      }
    }
    if (threw) {
      count_after_throw(m.plain->engine());
    } else {
      const bool plain_ok = check_invariant(m.plain->engine(), m.model_class, m.size, m.seed);
      const bool certified_ok =
          check_invariant(m.certified->engine(), m.model_class, m.size, m.seed);
      threw = !(plain_ok && certified_ok);
    }
    if (threw) {
      m.restore();
    }
    return threw;
  }

  bool deployment_session(Rng& rng, Tracer* tracer, Latencies* out) {
    DeploymentSession& d = *inputs_.deployment;
    const std::vector<std::string>& names = d.deployment.names;
    const Duration wheel = d.deployment.wheel;
    bool threw = false;
    for (int step = 0; step < kOpsPerSession && !threw; ++step) {
      const char* name = nullptr;
      std::function<analysis::DeploymentDecision(analysis::DeploymentController&)> op;
      std::string task = names[rng.next() % names.size()];
      const Duration slot(wheel.seconds() *
                          Rational(std::array<std::int64_t, 5>{1, 2, 3, 4, 6}[rng.next() % 5],
                                   16));
      if (rng.next() % 2 == 0) {
        name = "deployment.set_slot";
        op = [task, slot](analysis::DeploymentController& c) {
          return c.set_slot(task, slot);
        };
      } else if (d.extra.empty()) {
        name = "deployment.admit";
        bool is_stream = false;
        for (const analysis::DeploymentConstraint& s : d.deployment.streams) {
          is_stream = is_stream || s.task == task;
        }
        const std::optional<Duration> period =
            pacing_of(d.plain->analysis(), d.plain->actor_of(task));
        if (is_stream || !period) {
          continue;
        }
        const std::optional<Duration> grant =
            rng.next() % 2 == 0 ? std::optional<Duration>(slot) : std::nullopt;
        op = [task, period, grant](analysis::DeploymentController& c) {
          return c.admit(task, *period, grant);
        };
      } else {
        name = "deployment.remove";
        task = d.extra.back();
        op = [task](analysis::DeploymentController& c) { return c.remove(task); };
      }
      const Decision plain = decide(name, "plain", tracer, out ? &out->plain_us : nullptr,
                                    [&] { return op(*d.plain).accepted; });
      const Decision certified =
          decide(name, "certified", tracer, out ? &out->certified_us : nullptr,
                 [&] { return op(*d.certified).accepted; });
      threw = settle(plain, certified, "tdm", names.size(), 0);
      if (!threw && plain.outcome == Outcome::Accepted) {
        if (std::string_view(name) == "deployment.admit") {
          d.extra.push_back(task);
        } else if (std::string_view(name) == "deployment.remove") {
          d.extra.pop_back();
        }
      }
      if (!threw && tracer != nullptr) {
        sample_cone(d.plain->engine());
        if (certified.outcome == Outcome::Accepted) {
          analysis::Certificate cert;
          {
            const Span s(tracer, "analysis.certificate_emit", request_, "tdm");
            cert = d.certified->certificate();
          }
          check_replayed(d.certified->graph(), cert, "tdm", tracer);
        }
      }
    }
    if (threw) {
      count_after_throw(d.plain->engine());
    } else {
      const bool plain_ok = check_invariant(d.plain->engine(), "tdm", names.size(), 0);
      const bool certified_ok = check_invariant(d.certified->engine(), "tdm", names.size(), 0);
      threw = !(plain_ok && certified_ok);
    }
    if (threw) {
      d.build();
    }
    return threw;
  }

  template <typename F>
  Decision decide(const char* name, const char* side, Tracer* tracer,
                  std::vector<double>* latencies, F&& call) {
    ++request_;
    Decision decision;
    const std::int64_t start = now_ns();
    try {
      const Span s(tracer, name, request_, side);
      decision.outcome = call() ? Outcome::Accepted : Outcome::Rejected;
    } catch (...) {
      decision.outcome = Outcome::Threw;
      decision.error = std::current_exception();
    }
    const double us = static_cast<double>(now_ns() - start) / 1e3;
    if (decision.outcome != Outcome::Threw && latencies != nullptr) {
      latencies->push_back(us);
    }
    return decision;
  }

  /// Accounts both decisions; returns true when either threw.
  bool settle(const Decision& plain, const Decision& certified, const char* model_class,
              std::size_t size, std::uint64_t seed) {
    for (const Decision* d : {&plain, &certified}) {
      if (d->outcome == Outcome::Threw) {
        report_.failure({model_class, size, seed, exception_type(d->error)},
                        exception_what(d->error));
      } else {
        report_.outcomes.answered();
      }
    }
    if (plain.outcome != certified.outcome) {
      report_.violation(std::string("plain and certified controllers disagree on ") +
                        model_class + " seed " + std::to_string(seed));
    }
    if (plain.outcome != Outcome::Threw) {
      ++answered;
      accepted += plain.outcome == Outcome::Accepted ? 1 : 0;
    }
    return plain.outcome == Outcome::Threw || certified.outcome == Outcome::Threw;
  }

  /// A session that threw is not held to the invariant: whether the
  /// engine kept its state is counted, and the next session of these
  /// controllers starts again from set-up.
  void count_after_throw(const analysis::IncrementalAnalysis& engine) {
    try {
      inconsistent_after_throw += matches_full_recompute(engine) ? 0 : 1;
    } catch (...) {
      ++inconsistent_after_throw;
    }
    ++rebuilds;
  }

  /// False when the full recompute threw.
  bool check_invariant(const analysis::IncrementalAnalysis& engine,
                       const char* model_class, std::size_t size, std::uint64_t seed) {
    try {
      if (!matches_full_recompute(engine)) {
        report_.violation(std::string("analysis() differs from a full recompute on ") +
                          model_class + " seed " + std::to_string(seed));
      }
      return true;
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      report_.failure({model_class, size, seed, exception_type(error)},
                      "full recompute: " + exception_what(error));
      return false;
    }
  }

  void sample_cone(const analysis::IncrementalAnalysis& engine) {
    cone_pairs += engine.stats().last_cone_pairs;
    ++cone_samples;
  }

  // Traced run only: the certified controller checks its candidate inside
  // the decision, where no span can reach.  Re-emitting and re-checking the
  // accepted state outside the decision measures that share.
  void replay_certificate(const vrdf::dataflow::VrdfGraph& graph,
                          const analysis::AdmissionController& controller,
                          const char* model_class, Tracer* tracer) {
    analysis::Certificate cert;
    {
      const Span s(tracer, "analysis.certificate_emit", request_, model_class);
      cert = analysis::make_certificate(graph, controller.analysis(),
                                        controller.engine().overlay());
    }
    check_replayed(graph, cert, model_class, tracer);
  }

  void check_replayed(const vrdf::dataflow::VrdfGraph& graph,
                      const analysis::Certificate& cert, const char* model_class,
                      Tracer* tracer) {
    analysis::CheckerOptions options;
    options.bind_parameters_to_graph = false;
    analysis::CertificateCheck check;
    {
      const Span s(tracer, "analysis.checker", request_, model_class);
      check = analysis::check_certificate(graph, cert, options);
    }
    clauses.add(model_class, check.clauses_checked);
    if (!check.ok) {
      report_.violation(std::string("replayed certificate rejected on ") + model_class +
                        ": " + check.first_violation());
    }
  }

  AdmissionInputs& inputs_;
  std::uint64_t base_seed_;
  Report& report_;
  std::vector<Script> rotation_;
  std::size_t cursor_ = 0;
  std::uint64_t request_ = 0;
};

double ratio(std::uint64_t part, std::uint64_t rest) {
  return part + rest == 0 ? 0.0
                          : static_cast<double>(part) / static_cast<double>(part + rest);
}

void emit_layers(const Tracer& tracer, const AdmissionClient& client,
                 const AdmissionInputs& inputs, Report& report) {
  const LayerTimes layers(tracer.spans());
  for (const char* side : {"plain", "certified"}) {
    for (const char* op : {"retune", "set_period", "admit", "remove"}) {
      report.metric(std::string("admission.") + side + "." + op + "_us",
                    layers.mean_us(std::string("admission.") + op, side), "us");
    }
    for (const char* op : {"set_slot", "admit", "remove"}) {
      report.metric(std::string("deployment.") + side + "." + op + "_us",
                    layers.mean_us(std::string("deployment.") + op, side), "us");
    }
  }
  for (const char* c : {"chain", "fork_join", "tdm"}) {
    const std::string suffix = std::string(".") + c;
    report.metric("analysis.certificate_emit_us" + suffix,
                  layers.mean_us("analysis.certificate_emit", c), "us");
    report.metric("analysis.checker_us" + suffix, layers.mean_us("analysis.checker", c), "us");
    report.metric("checker.clauses_per_request" + suffix, client.clauses.per_certificate(c),
                  "count");
  }
  analysis::InvalidationStats sum;
  const auto add = [&](const analysis::InvalidationStats& s) {
    sum.pairs_reused += s.pairs_reused;
    sum.pairs_recomputed += s.pairs_recomputed;
    sum.pacing_cache_hits += s.pacing_cache_hits;
    sum.pacing_recomputes += s.pacing_recomputes;
  };
  for (const auto& m : inputs.models) {
    add(m->plain->engine().stats());
  }
  add(inputs.deployment->plain->engine().stats());
  report.metric("incremental.pair_reuse_ratio",
                ratio(sum.pairs_reused, sum.pairs_recomputed), "ratio");
  report.metric("incremental.pacing_hit_ratio",
                ratio(sum.pacing_cache_hits, sum.pacing_recomputes), "ratio");
  report.metric("incremental.cone_pairs",
                client.cone_samples == 0
                    ? 0.0
                    : static_cast<double>(client.cone_pairs) /
                          static_cast<double>(client.cone_samples),
                "count");
  report.metric("admission.accepted_share", ratio(client.accepted,
                                                  client.answered - client.accepted),
                "ratio");
}

}  // namespace

Report run_admission(const RunConfig& config) {
  Report report;
  SetupClock setup;
  const auto build_inputs = [&] { return make_inputs(config.seed); };
  AdmissionInputs inputs;
  for (int i = 0; i < kSetupsBefore; ++i) {
    inputs = setup.time(build_inputs);
  }
  for (const SetupFailure& f : inputs.failures) {
    report.failure(f.key, f.what);
  }
  AdmissionClient client(inputs, config.seed, report);
  client.probe();
  report.warmed_up();
  if (!config.trace) {
    Latencies latencies;
    serve_sliced(
        config.seconds, kSetupSlices,
        [&](double seconds) { client.serve_until(deadline_after(seconds), nullptr, &latencies); },
        [&] { (void)setup.time(build_inputs); });
    report.setup_time(setup);
    report.latency("", "plain decision", summarize(latencies.plain_us));
    report.latency("variant_", "certified decision", summarize(latencies.certified_us));
  } else {
    Latencies plain;
    Latencies traced;
    Tracer tracer;
    alternate_slices(config.seconds, [&](bool on, double seconds) {
      client.serve_until(deadline_after(seconds), on ? &tracer : nullptr,
                         on ? &traced : &plain);
    });
    emit_layers(tracer, client, inputs, report);
    report.traced(tracer, config.trace_path, plain.plain_us, traced.plain_us);
  }
  client.check_all();
  report.notes.push_back("sessions rebuilt after a throw: " +
                         std::to_string(client.rebuilds) + ", inconsistent after the throw: " +
                         std::to_string(client.inconsistent_after_throw));
  if (config.trace) {
    report.metric("admission.rebuilds", static_cast<double>(client.rebuilds), "count");
    report.metric("admission.inconsistent_after_throw",
                  static_cast<double>(client.inconsistent_after_throw), "count");
  }
  return report;
}

}  // namespace perfbench
