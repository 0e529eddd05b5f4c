#include "sim/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/log.hpp"

namespace vrdf::sim {

using dataflow::ActorId;
using dataflow::EdgeId;

namespace {

/// "producer->consumer" of the buffer the edge belongs to (bare edges name
/// themselves); space halves are labelled in the buffer's data direction.
[[nodiscard]] std::string buffer_label(const dataflow::VrdfGraph& graph,
                                       EdgeId edge, bool space) {
  EdgeId data = edge;
  if (space) {
    data = graph.edge(edge).paired;
  }
  const dataflow::Edge& e = graph.edge(data);
  return graph.actor(e.source).name + "->" + graph.actor(e.target).name;
}

[[nodiscard]] std::string wait_phrase(const dataflow::VrdfGraph& graph,
                                      const BlockedWait& wait) {
  std::ostringstream os;
  os << "'" << graph.actor(wait.actor).name << "' waits for " << wait.needed
     << (wait.waiting_for_space ? " free containers" : " tokens")
     << " on buffer " << buffer_label(graph, wait.edge, wait.waiting_for_space)
     << " (has " << wait.available << ")";
  return os.str();
}

}  // namespace

BlockageReport diagnose_blockage(const dataflow::VrdfGraph& graph,
                                 const std::vector<BlockedWait>& blocked) {
  BlockageReport report;
  report.waits = blocked;
  if (blocked.empty()) {
    return report;
  }
  report.blocked = true;

  // Wait-for relation: the waiter waits for the producer of its missing
  // edge (for a space edge that is the buffer's consumer — back-pressure).
  // One representative wait per actor (the first listed) keeps the walk
  // deterministic.
  std::unordered_map<std::uint32_t, std::size_t> first_wait;
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    first_wait.emplace(blocked[i].actor.value(), i);
  }
  // Follow the relation until it revisits an actor: at a true deadlock
  // every wait chain closes into a cycle.  rank = position in the current
  // walk; a revisit inside the walk yields the cycle suffix.
  std::unordered_map<std::uint32_t, std::size_t> rank;
  std::vector<ActorId> walk;
  ActorId at = blocked.front().actor;
  while (true) {
    const auto wait_it = first_wait.find(at.value());
    if (wait_it == first_wait.end()) {
      break;  // chain leaves the blocked set (defensive; see header)
    }
    const auto rank_it = rank.find(at.value());
    if (rank_it != rank.end()) {
      report.cycle.assign(walk.begin() +
                              static_cast<std::ptrdiff_t>(rank_it->second),
                          walk.end());
      break;
    }
    rank.emplace(at.value(), walk.size());
    walk.push_back(at);
    at = graph.edge(blocked[wait_it->second].edge).source;
  }

  std::ostringstream os;
  if (!report.cycle.empty()) {
    os << "blocked cycle: ";
    for (std::size_t i = 0; i < report.cycle.size(); ++i) {
      if (i > 0) {
        os << " -> ";
      }
      os << wait_phrase(graph, blocked[first_wait.at(report.cycle[i].value())]);
    }
    os << " -> back to '" << graph.actor(report.cycle.front()).name << "'";
  } else {
    os << "blocked actors: ";
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      if (i > 0) {
        os << "; ";
      }
      os << wait_phrase(graph, blocked[i]);
    }
  }
  report.message = os.str();
  VRDF_LOG(Debug) << "watchdog: " << report.message;
  return report;
}

ConformanceMonitor::ConformanceMonitor(const dataflow::VrdfGraph& graph,
                                       analysis::ConstraintSet constraints,
                                       MonitorOptions options)
    : graph_(&graph),
      constraints_(std::move(constraints)),
      options_(options),
      rho_seen_(graph.actor_count(), 0),
      late_seen_(constraints_.size(), 0),
      starvation_cursor_(constraints_.size(), 0) {
  report_.constraints.reserve(constraints_.size());
  for (const analysis::ThroughputConstraint& c : constraints_) {
    VRDF_REQUIRE(c.actor.is_valid() && c.actor.index() < graph.actor_count(),
                 "constrained actor does not exist in the monitored graph");
    // attach() grades each constrained actor on one grid.
    VRDF_REQUIRE(std::none_of(report_.constraints.begin(),
                              report_.constraints.end(),
                              [&](const ConstraintConformance& seen) {
                                return seen.actor == c.actor;
                              }),
                 "duplicate constrained actor in the monitored set");
    ConstraintConformance conformance;
    conformance.actor = c.actor;
    conformance.period = c.period;
    report_.constraints.push_back(conformance);
  }
  refresh_summary();
}

void ConformanceMonitor::attach(Simulator& sim) const {
  VRDF_REQUIRE(&sim.graph() == graph_,
               "monitor attached to a simulator of another graph");
  GradingRequest request;
  request.rho = true;
  request.rho_events = options_.max_events;
  for (const analysis::ThroughputConstraint& c : constraints_) {
    request.grids.push_back(GradingRequest::Grid{c.actor, c.period,
                                                 options_.lateness_tolerance});
  }
  sim.request_grading(request);
}

void ConformanceMonitor::observe(const Simulator& sim, const RunResult& run) {
  VRDF_REQUIRE(&sim.graph() == graph_,
               "monitor observed a simulator of another graph");
  observe_rho(sim);
  observe_constraints(sim, run);
  if (run.deadlocked()) {
    report_.blockage = diagnose_blockage(*graph_, run.blocked);
  }
  refresh_summary();
}

void ConformanceMonitor::observe_rho(const Simulator& sim) {
  // The engine keeps each actor's first max_events overruns.  Events are
  // taken per actor in id order until the report holds max_events, so an
  // actor's overrun number max_events or later is only reached once the
  // report is full and never needs to be kept.
  for (const ActorId a : graph_->actors()) {
    const RhoGrade& grade = sim.rho_grade(a);
    std::int64_t& seen = rho_seen_[a.index()];
    if (grade.overruns == seen) {
      continue;
    }
    report_.rho_violation_total += grade.overruns - seen;
    report_.rho_conformant = false;
    const Duration declared = graph_->actor(a).response_time;
    for (auto i = static_cast<std::size_t>(seen);
         i < grade.first.size() &&
         report_.rho_violations.size() < options_.max_events;
         ++i) {
      const RhoOverrun& overrun = grade.first[i];
      report_.rho_violations.push_back(
          RhoViolation{a, overrun.firing, declared, overrun.observed});
      VRDF_LOG(Debug) << "conformance: actor '" << graph_->actor(a).name
                      << "' firing " << overrun.firing
                      << " violated its rho contract (declared "
                      << declared.to_string() << ", observed "
                      << overrun.observed.to_string() << ")";
    }
    seen = grade.overruns;
  }
}

void ConformanceMonitor::observe_constraints(const Simulator& sim,
                                             const RunResult& run) {
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    ConstraintConformance& conformance = report_.constraints[c];
    const Duration tau = conformance.period;

    // Starvation-based grading: the engine's own periodic grid (the
    // phase-2 machinery of sim/verify.cpp) — authoritative whenever the
    // actor runs strictly periodically.
    std::int64_t starved = 0;
    for (std::size_t s = starvation_cursor_[c]; s < run.starvations.size();
         ++s) {
      const Starvation& starvation = run.starvations[s];
      if (starvation.actor != conformance.actor) {
        continue;
      }
      ++starved;
      const TimePoint started = starvation.actual_start.has_value()
                                    ? *starvation.actual_start
                                    : run.end_time;
      const Duration lateness = started - starvation.scheduled;
      conformance.max_lateness = std::max(conformance.max_lateness, lateness);
      if (!conformance.first_late_firing.has_value() ||
          starvation.firing < *conformance.first_late_firing) {
        conformance.first_late_firing = starvation.firing;
      }
    }
    starvation_cursor_[c] = run.starvations.size();

    // Anchored-grid grading for self-timed monitoring: lateness of start
    // k versus first_start + k·τ, graded by the engine.  For a strictly
    // periodic actor with an on-time first start this coincides with the
    // enforced grid.  A late start before this segment would already
    // have set first_late_firing, so the engine's first late index is
    // this segment's first when none is set.
    const GridGrade grade = sim.grid_grade(conformance.actor);
    conformance.max_lateness =
        std::max(conformance.max_lateness, grade.max_lateness);
    const std::int64_t anchored_late = grade.late - late_seen_[c];
    late_seen_[c] = grade.late;
    if (!conformance.first_late_firing.has_value()) {
      conformance.first_late_firing = grade.first_late;
    }
    conformance.firings_observed = grade.graded;

    // A starving periodic actor shows up through both lenses; count each
    // late activation once, preferring the engine's starvation record.
    conformance.late_firings += std::max(starved, anchored_late);

    VRDF_LOG(Trace) << "conformance: constraint '"
                    << graph_->actor(conformance.actor).name << "' period "
                    << tau.to_string() << ": " << conformance.firings_observed
                    << " firings, " << conformance.late_firings
                    << " late, max lateness "
                    << conformance.max_lateness.to_string();
  }
}

void ConformanceMonitor::refresh_summary() {
  std::ostringstream os;
  if (report_.blockage.blocked) {
    os << report_.blockage.message;
  } else {
    const ConstraintConformance* worst = nullptr;
    for (const ConstraintConformance& c : report_.constraints) {
      if (c.late_firings > 0 &&
          (worst == nullptr || c.late_firings > worst->late_firings)) {
        worst = &c;
      }
    }
    if (worst != nullptr) {
      os << "constraint on '" << graph_->actor(worst->actor).name
         << "' (period " << worst->period.to_string() << ") violated: "
         << worst->late_firings << " late activations, max lateness "
         << worst->max_lateness.to_string();
    } else {
      os << "all constraints conformant";
    }
  }
  if (!report_.rho_conformant) {
    // Name the worst offender: the actor with the most violations.
    std::unordered_map<std::uint32_t, std::int64_t> by_actor;
    const RhoViolation* worst = nullptr;
    std::int64_t worst_count = 0;
    for (const RhoViolation& v : report_.rho_violations) {
      const std::int64_t count = ++by_actor[v.actor.value()];
      if (count > worst_count) {
        worst_count = count;
        worst = &v;
      }
    }
    os << "; rho contract violated " << report_.rho_violation_total
       << " times";
    if (worst != nullptr) {
      os << ", worst offender '" << graph_->actor(worst->actor).name
         << "' (declared " << worst->declared.to_string()
         << ", observed up to ";
      Duration max_observed;
      for (const RhoViolation& v : report_.rho_violations) {
        if (v.actor == worst->actor) {
          max_observed = std::max(max_observed, v.observed);
        }
      }
      os << max_observed.to_string() << ")";
    }
  }
  report_.summary = os.str();
}

}  // namespace vrdf::sim
