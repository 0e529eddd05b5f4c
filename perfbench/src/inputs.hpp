// Seeded input generation (the `models` layer, set-up only).  Every input
// is a pure function of the run seed; the library receives only the
// generated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/deployment.hpp"
#include "sched/platform.hpp"
#include "taskgraph/task_graph.hpp"

namespace perfbench {

/// A task graph bound to a two-processor platform, with one stream per
/// branch off a shared root task.
struct Deployment {
  vrdf::taskgraph::TaskGraph tasks;
  vrdf::sched::Platform platform;
  std::vector<vrdf::analysis::DeploymentConstraint> streams;
  /// Task names in creation order (root first).
  std::vector<std::string> names;
  vrdf::Duration wheel;
};

/// `streams` branches of `branch_length` tasks off one root, bound
/// alternately to two processors under `policy`.  Branch k consumes
/// g_k ∈ {1, 2} root tokens per firing and runs at period g_k·base, so the
/// stream set is flow-consistent.  Round-robin WCETs always fit the wheel.
/// With `relaxed` the TDM WCETs stay within one slot and the base period at
/// four wheels, which keeps the deployment admissible; otherwise TDM WCETs
/// reach three slots and the base period two wheels, so some deployments
/// are refused with diagnostics.
[[nodiscard]] Deployment make_deployment(std::uint64_t seed,
                                         vrdf::sched::ArbiterPolicy policy,
                                         std::size_t streams,
                                         std::size_t branch_length,
                                         bool relaxed);

/// One request of the `design` workload.
struct DesignRequest {
  /// "mp3", the five generator class names, "random_chain", "tdm" or
  /// "round_robin".
  const char* model_class = "";
  std::uint64_t seed = 0;
  /// Actors (tasks for deployments) of the generated model; the requested
  /// length when generation failed.
  std::size_t size = 0;
  /// `vrdf-chain v1` text of a model request.
  std::string text;
  std::optional<Deployment> deployment;
  /// Set when the generator itself threw: the request fails in the set-up
  /// probe and is left out of the measured window, never replaced by
  /// another seed.
  std::string error_type;
  std::string error_what;
};

/// The design request mix: per 20 requests one MP3, two of each generator
/// class at its defaults, six default-spec random chains of 8–64 actors
/// and three deployments (two TDM, one round-robin), shuffled.
[[nodiscard]] std::vector<DesignRequest> make_design_mix(std::uint64_t seed,
                                                         std::size_t count);

}  // namespace perfbench
