// `fleet` workload: one process sweeping certified fleets on all hardware
// threads.  Each operation is a FleetSweep of the vrdf_fleet CLI's default
// size, eight seeds of every model class in sink and source mode (64
// items); it runs once unfaulted and once faulted over the same items.
// The simulator dominates an unfaulted item; robustness margins and the
// conformance monitor make a faulted one about four times heavier.  The
// design and admission hot paths are barely used.
#include <map>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/robustness.hpp"
#include "bench.hpp"
#include "models/synthetic.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fleet.hpp"
#include "sim/verify.hpp"
#include "util/seed_stream.hpp"

namespace perfbench {
namespace {

namespace analysis = vrdf::analysis;
namespace sim = vrdf::sim;

/// Distinct sweeps per run; operations cycle through them.
constexpr std::size_t kSweeps = 1024;
/// Slices of the measured window; a set-up is timed between each two.
constexpr int kSetupSlices = 30;
/// Sweeps whose canonical bytes are compared at 1 and all workers.
constexpr std::size_t kIdentityChecks = 4;

sim::SweepSpec spec_for(std::uint64_t seed, std::size_t index, bool faulted) {
  sim::SweepSpec spec;
  spec.base_seed = vrdf::util::derive_seed(seed, index);
  spec.seeds_per_class = 8;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.certify = true;
  spec.faulted = faulted;
  return spec;
}

struct SweepPair {
  sim::FleetSweep unfaulted;
  sim::FleetSweep faulted;
};

std::vector<SweepPair> make_sweeps(std::uint64_t seed) {
  std::vector<SweepPair> sweeps;
  sweeps.reserve(kSweeps);
  for (std::size_t i = 0; i < kSweeps; ++i) {
    sweeps.push_back({sim::FleetSweep(spec_for(seed, i, false)),
                      sim::FleetSweep(spec_for(seed, i, true))});
  }
  return sweeps;
}

struct Latencies {
  std::vector<double> unfaulted_us;
  std::vector<double> faulted_us;
  std::size_t unfaulted_items = 0;
  std::size_t faulted_items = 0;
};

class FleetClient {
public:
  FleetClient(const std::vector<SweepPair>& sweeps, std::size_t threads, Report& report)
      : sweeps_(sweeps), threads_(threads), report_(report) {}

  /// Serves sweep pairs until the deadline, at least one.
  void serve_until(std::int64_t deadline_ns, Tracer* tracer, Latencies* out) {
    do {
      const std::size_t index = cursor_++ % sweeps_.size();
      const SweepPair& pair = sweeps_[index];
      for (const bool faulted : {false, true}) {
        const sim::FleetSweep& sweep = faulted ? pair.faulted : pair.unfaulted;
        const std::int64_t start = now_ns();
        sim::FleetReport result;
        {
          const Span s(tracer, "sim.fleet.sweep", index, faulted ? "faulted" : "unfaulted");
          result = sweep.run(threads_);
        }
        const double us = static_cast<double>(now_ns() - start) / 1e3;
        if (out != nullptr) {
          (faulted ? out->faulted_us : out->unfaulted_us).push_back(us);
          (faulted ? out->faulted_items : out->unfaulted_items) += result.items.size();
        }
        check(result, faulted);
        if (index < kIdentityChecks && canonical_[index][faulted].empty()) {
          canonical_[index][faulted] = sim::canonical_text(result);
        }
      }
    } while (before(deadline_ns));
  }

  /// One unfaulted sweep.  A faulted warm-up would make peak_rss_mb depend
  /// on whether it met one of the rare items whose monitor records run to
  /// megabytes.
  void warm_up() { check(sweeps_.front().unfaulted.run(threads_), false); }

  /// The canonical report bytes must not depend on the worker count.
  void check_identity() {
    for (const auto& [index, texts] : canonical_) {
      for (const auto& [faulted, text] : texts) {
        const SweepPair& pair = sweeps_[index];
        const sim::FleetReport one =
            (faulted ? pair.faulted : pair.unfaulted).run(1);
        if (sim::canonical_text(one) != text) {
          report_.violation("canonical_text differs between 1 and " +
                            std::to_string(threads_) + " workers on sweep " +
                            std::to_string(index));
        }
      }
    }
    if (canonical_.empty()) {
      report_.violation("no sweep completed");
    }
  }

  /// Items per second of unfaulted sweeps at `threads` workers until the
  /// deadline (at least one sweep).
  double items_per_s(std::size_t threads, std::int64_t deadline_ns) {
    std::size_t items = 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i == 0 || before(deadline_ns); ++i) {
      items += sweeps_[i % sweeps_.size()].unfaulted.run(threads).items.size();
    }
    return static_cast<double>(items) * 1e9 / static_cast<double>(now_ns() - start);
  }

private:
  void check(const sim::FleetReport& result, bool faulted) {
    for (const sim::FleetItemResult& item : result.items) {
      const char* model_class = vrdf::models::class_name(item.item.model_class);
      if (item.rejected) {
        // The pipeline refused or threw before simulating; run_item keeps
        // only the message.  Every item must pass, so this also fails
        // the run.
        report_.failure({model_class, 0, item.item.rng_seed, "rejected"},
                        item.detail);
        report_.violation(std::string(faulted ? "faulted " : "") + model_class +
                          " item seed " + std::to_string(item.item.rng_seed) +
                          " was rejected: " + item.detail);
        continue;
      }
      report_.outcomes.answered();
      if (!item.pass || item.starvation_count != 0) {
        report_.violation(std::string(faulted ? "faulted " : "") + model_class +
                          " item seed " + std::to_string(item.item.rng_seed) +
                          " failed verification: " + item.detail);
      }
    }
  }

  const std::vector<SweepPair>& sweeps_;
  std::size_t threads_;
  Report& report_;
  std::size_t cursor_ = 0;
  std::map<std::size_t, std::map<bool, std::string>> canonical_;
};

struct StageTotals {
  std::size_t items = 0;
  double stages_us = 0.0;
  double run_item_us = 0.0;
  std::int64_t firings = 0;
  double verify_us = 0.0;
};

// Traced run only: the stages of run_item, replayed on this thread with
// the parameters the sweep uses.  Returns false when the item stops before
// verification (its failure is counted by the measured sweeps).
bool replay_stages(const sim::SweepSpec& spec, const sim::FleetItem& item,
                   Tracer& tracer, double& stages_us, StageTotals& totals) {
  const char* mode = spec.faulted ? "faulted" : "unfaulted";
  const auto timed = [&](const char* name, auto&& call) {
    const std::int64_t start = now_ns();
    {
      const Span s(&tracer, name, item.index, mode);
      call();
    }
    const double us = static_cast<double>(now_ns() - start) / 1e3;
    stages_us += us;
    return us;
  };
  try {
    vrdf::models::SyntheticModel model;
    timed("models.generate", [&] {
      vrdf::models::RandomModelSpec random;
      random.model_class = item.model_class;
      random.seed = item.rng_seed;
      random.response_fraction = spec.response_fraction;
      random.variable_percent = spec.variable_percent;
      random.zero_percent = spec.zero_percent;
      random.source_constrained = item.mode == sim::ConstraintMode::Source;
      model = vrdf::models::make_random_model(random);
    });
    analysis::GraphAnalysis sized;
    timed("analysis.analyze", [&] {
      sized = analysis::compute_buffer_capacities(model.graph, model.constraints);
    });
    if (!sized.admissible) {
      return false;
    }
    timed("analysis.certify", [&] {
      const analysis::Certificate cert = analysis::make_certificate(model.graph, sized);
      (void)analysis::check_certificate(model.graph, cert);
    });
    analysis::apply_capacities(model.graph, sized);
    sim::FaultPlan plan(item.rng_seed);
    sim::SimulatorConfigurer configure;
    if (spec.faulted) {
      bool ok = false;
      timed("analysis.margins", [&] {
        const analysis::RobustnessReport margins =
            analysis::robustness_margins(model.graph, model.constraints);
        ok = margins.ok;
        if (ok) {
          const analysis::ActorMargin* target = &margins.actors.front();
          for (const analysis::ActorMargin& m : margins.actors) {
            target = m.margin > target->margin ? &m : target;
          }
          plan.rho_overrun(target->actor, target->margin);
        }
      });
      if (!ok) {
        return false;
      }
      configure = [&plan](sim::Simulator& s) { plan.apply(s); };
    }
    sim::VerifyOptions options;
    options.observe_firings = spec.observe_firings;
    options.default_seed = vrdf::util::derive_seed(item.rng_seed, 1);
    options.monitor = spec.faulted;
    sim::VerifyResult verdict;
    const double verify_us = timed("sim.verify", [&] {
      verdict = sim::verify_throughput(model.graph, model.constraints, configure, options);
    });
    if (!spec.faulted) {
      totals.firings += verdict.firings_simulated;
      totals.verify_us += verify_us;
    }
    return true;
  } catch (...) {
    return false;
  }
}

// The stages, then run_item itself on the same item (or the other way
// round on odd items, so neither side always finds warm caches).  The
// difference is the harness around the stages.
void replay_item(const sim::FleetSweep& sweep, const sim::SweepSpec& spec,
                 const sim::FleetItem& item, Tracer& tracer, StageTotals& totals) {
  const auto time_run_item = [&] {
    const std::int64_t start = now_ns();
    {
      const Span s(&tracer, "sim.fleet.run_item", item.index,
                   spec.faulted ? "faulted" : "unfaulted");
      (void)sweep.run_item(item);
    }
    return static_cast<double>(now_ns() - start) / 1e3;
  };
  double stages_us = 0.0;
  double run_item_us = 0.0;
  bool completed = false;
  if (item.index % 2 == 1) {
    run_item_us = time_run_item();
    completed = replay_stages(spec, item, tracer, stages_us, totals);
  } else {
    completed = replay_stages(spec, item, tracer, stages_us, totals);
    run_item_us = completed ? time_run_item() : 0.0;
  }
  if (completed) {
    totals.run_item_us += run_item_us;
    totals.stages_us += stages_us;
    ++totals.items;
  }
}

}  // namespace

Report run_fleet(const RunConfig& config) {
  Report report;
  SetupClock setup;
  const auto build_sweeps = [&] { return make_sweeps(config.seed); };
  std::vector<SweepPair> sweeps;
  for (int i = 0; i < kSetupsBefore; ++i) {
    sweeps = setup.time(build_sweeps);
  }

  FleetClient client(sweeps, config.threads, report);
  client.warm_up();
  report.warmed_up();

  if (!config.trace) {
    Latencies latencies;
    serve_sliced(
        config.seconds, kSetupSlices,
        [&](double seconds) { client.serve_until(deadline_after(seconds), nullptr, &latencies); },
        [&] { (void)setup.time(build_sweeps); });
    report.setup_time(setup);
    const auto per_item = [](LatencySummary s, std::size_t items, std::size_t sweeps) {
      // Throughput in items, not sweeps: every sweep has the same size.
      s.ops_per_s *= sweeps == 0 ? 0.0
                                 : static_cast<double>(items) / static_cast<double>(sweeps);
      return s;
    };
    report.latency("", "unfaulted sweep (ops = items)",
                   per_item(summarize(latencies.unfaulted_us),
                            latencies.unfaulted_items,
                            latencies.unfaulted_us.size()));
    report.latency("variant_", "faulted sweep (ops = items)",
                   per_item(summarize(latencies.faulted_us),
                            latencies.faulted_items,
                            latencies.faulted_us.size()));
  } else {
    Latencies plain;
    Latencies traced;
    Tracer tracer;
    alternate_slices(config.seconds, [&](bool on, double seconds) {
      client.serve_until(deadline_after(seconds), on ? &tracer : nullptr,
                         on ? &traced : &plain);
    });

    // Per-stage replay on one thread, over the items of the first sweeps.
    std::map<bool, StageTotals> stages;
    const std::int64_t replay_deadline = deadline_after(config.seconds / 4);
    for (std::size_t i = 0; i < sweeps.size() && before(replay_deadline); ++i) {
      for (const bool faulted : {false, true}) {
        const sim::FleetSweep& sweep = faulted ? sweeps[i].faulted : sweeps[i].unfaulted;
        const sim::SweepSpec spec = spec_for(config.seed, i, faulted);
        for (const sim::FleetItem& item : sweep.items()) {
          replay_item(sweep, spec, item, tracer, stages[faulted]);
        }
      }
    }
    // Rounds alternate 1 and all workers, so drift in host speed falls on
    // both sides alike; each side reports its median round.
    std::vector<double> at_one_rounds;
    std::vector<double> at_all_rounds;
    for (int round = 0; round < 4; ++round) {
      at_one_rounds.push_back(client.items_per_s(1, deadline_after(config.seconds / 32)));
      at_all_rounds.push_back(
          client.items_per_s(config.threads, deadline_after(config.seconds / 32)));
    }
    const double at_one = median(at_one_rounds);
    const double at_all = median(at_all_rounds);

    const LayerTimes layers(tracer.spans());
    report.metric("models.generate_us", layers.mean_us("models.generate", "unfaulted"), "us");
    report.metric("analysis.analyze_us", layers.mean_us("analysis.analyze", "unfaulted"), "us");
    report.metric("analysis.certify_us", layers.mean_us("analysis.certify", "unfaulted"), "us");
    report.metric("sim.verify_us", layers.mean_us("sim.verify", "unfaulted"), "us");
    report.metric("sim.verify_faulted_us", layers.mean_us("sim.verify", "faulted"), "us");
    report.metric("analysis.margins_us", layers.mean_us("analysis.margins", "faulted"), "us");
    const StageTotals& u = stages[false];
    report.metric("sim.firings_per_s",
                  u.verify_us > 0 ? static_cast<double>(u.firings) * 1e6 / u.verify_us : 0.0,
                  "1/s");
    report.metric("fleet.harness_overhead_us",
                  u.items == 0 ? 0.0
                               : (u.run_item_us - u.stages_us) / static_cast<double>(u.items),
                  "us");
    report.metric("fleet.scaling_efficiency",
                  at_one > 0 ? at_all / (static_cast<double>(config.threads) * at_one) : 0.0,
                  "ratio");
    report.notes.push_back("items/s at 1 worker " + std::to_string(at_one) + ", at " +
                           std::to_string(config.threads) + " workers " +
                           std::to_string(at_all));
    report.traced(tracer, config.trace_path, plain.unfaulted_us, traced.unfaulted_us);
  }
  client.check_identity();
  return report;
}

}  // namespace perfbench
