// `design` workload: one closed-loop client sizing models one at a time,
// the way a designer drives the sizer.  A chain request is
// read_chain → compute_buffer_capacities → make_certificate →
// check_certificate; a deployment request is
// analyze_deployment(certify = true).  The checker and the analysis do
// nearly all the work; the incremental engine and the simulator none.
//
// A set-up probe serves every request of the mix once.  A request that
// throws there (OverflowError on long random chains) is attributed to the
// probe and left out of the measured window, which serves the rest.
#include <array>
#include <map>
#include <optional>
#include <string_view>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/deployment.hpp"
#include "analysis/pacing.hpp"
#include "analysis/snapshot.hpp"
#include "bench.hpp"
#include "inputs.hpp"
#include "io/text_format.hpp"
#include "models/mp3.hpp"

namespace perfbench {
namespace {

namespace analysis = vrdf::analysis;

// Distinct requests in the mix: enough that the slowest percent is tens of
// different long chains, so p99 does not hang on one input.
constexpr std::size_t kMixSize = 4000;
/// A set-up takes about 0.4 s (shared 4-vCPU VM), so fewer are timed
/// during the window.
constexpr int kSetupSlices = 10;

struct Served {
  std::vector<double> all_us;
  std::vector<double> deployment_us;
};

class DesignClient {
public:
  DesignClient(const std::vector<DesignRequest>& mix, Report& report)
      : mix_(mix), report_(report) {}

  /// Serves requests round the mix until the deadline.
  void serve_until(std::int64_t deadline_ns, Tracer* tracer, Served* served) {
    while (!mix_.empty() && before(deadline_ns)) {
      serve(mix_[cursor_ % mix_.size()], tracer, served);
      ++cursor_;
    }
  }
  /// The set-up probe: serves every request of the mix once, and returns
  /// which of them threw.
  std::vector<bool> probe() {
    std::vector<bool> threw(mix_.size());
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      threw[i] = !serve(mix_[i], nullptr, nullptr);
    }
    return threw;
  }
  [[nodiscard]] const ClauseCounts& clauses() const { return clauses_; }
  [[nodiscard]] std::size_t mp3_checked() const { return mp3_checked_; }

private:
  /// Serves one request; false when it threw.
  bool serve(const DesignRequest& request, Tracer* tracer, Served* served) {
    const std::uint64_t id = ++request_id_;
    if (!request.error_type.empty()) {
      fail(request, request.error_type, request.error_what);
      return false;
    }
    try {
      const std::int64_t start = now_ns();
      if (request.deployment) {
        serve_deployment(request, *request.deployment, tracer, id);
      } else {
        serve_chain(request, tracer, id);
      }
      const double us = static_cast<double>(now_ns() - start) / 1e3;
      report_.outcomes.answered();
      if (served != nullptr) {
        served->all_us.push_back(us);
        if (request.deployment) {
          served->deployment_us.push_back(us);
        }
      }
      if (tracer != nullptr) {
        replay(request, tracer, id);
      }
      return true;
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      fail(request, exception_type(error), exception_what(error));
      return false;
    }
  }

  void serve_chain(const DesignRequest& request, Tracer* tracer, std::uint64_t id) {
    const Span span(tracer, "design.request", id, request.model_class);
    vrdf::io::ChainDocument doc;
    {
      const Span s(tracer, "io.read_chain", id);
      doc = vrdf::io::read_chain(request.text);
    }
    analysis::GraphAnalysis result;
    {
      const Span s(tracer, "analysis.graph_overload", id);
      result = analysis::compute_buffer_capacities(doc.graph, doc.constraints);
    }
    if (!result.admissible) {
      return;  // diagnostics are the answer
    }
    analysis::Certificate cert;
    {
      const Span s(tracer, "analysis.certificate_emit", id, request.model_class);
      cert = analysis::make_certificate(doc.graph, result);
    }
    analysis::CertificateCheck check;
    {
      const Span s(tracer, "analysis.checker", id, request.model_class);
      check = analysis::check_certificate(doc.graph, cert);
    }
    if (tracer != nullptr) {
      clauses_.add(request.model_class, check.clauses_checked);
    }
    if (!check.ok) {
      violation(request, "checker rejected an admissible result: " +
                             check.first_violation());
    }
    if (std::string_view(request.model_class) == "mp3") {
      check_mp3(result);
    }
  }

  void serve_deployment(const DesignRequest& request, const Deployment& d,
                        Tracer* tracer, std::uint64_t id) {
    const Span span(tracer, "design.request", id, request.model_class);
    analysis::DeploymentOptions options;
    options.certify = true;
    analysis::DeploymentResult result;
    {
      const Span s(tracer, "analysis.deployment", id, request.model_class);
      result = analysis::analyze_deployment(d.tasks, d.platform, d.streams, options);
    }
    if (result.admissible &&
        !(result.certificate_check && result.certificate_check->ok)) {
      violation(request, "checker rejected an admissible deployment");
    }
  }

  // Traced run only: calls outside the request that split its layers
  // further (snapshot, pacing and sizing on the snapshot path; κ
  // derivation, certificate emission and check of a deployment).  They
  // share the request id but are not its children, so the request's own
  // time is unchanged.
  void replay(const DesignRequest& request, Tracer* tracer, std::uint64_t id) {
    if (request.deployment) {
      const Deployment& d = *request.deployment;
      {
        const Span s(tracer, "sched.derive_kappa", id, request.model_class);
        (void)analysis::derive_response_times(d.tasks, d.platform);
      }
      const analysis::DeploymentResult result =
          analysis::analyze_deployment(d.tasks, d.platform, d.streams);
      if (!result.admissible) {
        return;
      }
      analysis::Certificate cert;
      {
        const Span s(tracer, "analysis.certificate_emit", id, request.model_class);
        cert = analysis::make_certificate(result.construction.graph, result.analysis);
        analysis::attach_platform_clause(cert, result.kappas,
                                         result.construction.actor_of_task);
      }
      analysis::CertificateCheck check;
      {
        const Span s(tracer, "analysis.checker", id, request.model_class);
        check = analysis::check_certificate(result.construction.graph, cert);
      }
      clauses_.add(request.model_class, check.clauses_checked);
      return;
    }
    const vrdf::io::ChainDocument doc = vrdf::io::read_chain(request.text);
    std::optional<analysis::TopologySnapshot> snapshot;
    {
      const Span s(tracer, "analysis.snapshot", id);
      snapshot.emplace(doc.graph);
    }
    {
      const Span s(tracer, "analysis.pacing", id);
      (void)analysis::compute_pacing(*snapshot, doc.constraints);
    }
    const Span s(tracer, "analysis.sizing", id);
    (void)analysis::compute_buffer_capacities(*snapshot, doc.constraints);
  }

  void check_mp3(const analysis::GraphAnalysis& result) {
    const auto& want = vrdf::models::Mp3PaperNumbers::kVrdfCapacities;
    bool same = result.pairs.size() == want.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = result.pairs[i].capacity == want[i];
    }
    if (!same) {
      report_.violation("MP3 capacities differ from {6015, 3263, 882}");
    }
    ++mp3_checked_;
  }

  void fail(const DesignRequest& request, const std::string& type,
            const std::string& what) {
    report_.failure({request.model_class, request.size, request.seed, type}, what);
  }

  void violation(const DesignRequest& request, const std::string& what) {
    report_.violation(std::string(request.model_class) + " seed " +
                      std::to_string(request.seed) + ": " + what);
  }

  const std::vector<DesignRequest>& mix_;
  Report& report_;
  std::size_t cursor_ = 0;
  std::uint64_t request_id_ = 0;
  std::size_t mp3_checked_ = 0;
  ClauseCounts clauses_;
};

/// The graph overload and the snapshot entry point must agree on every
/// model of the mix.
void check_snapshot_path(const std::vector<DesignRequest>& mix, Report& report) {
  for (const DesignRequest& request : mix) {
    if (request.text.empty()) {
      continue;
    }
    try {
      const vrdf::io::ChainDocument doc = vrdf::io::read_chain(request.text);
      const analysis::GraphAnalysis by_graph =
          analysis::compute_buffer_capacities(doc.graph, doc.constraints);
      const analysis::TopologySnapshot snapshot(doc.graph);
      const analysis::GraphAnalysis by_snapshot =
          analysis::compute_buffer_capacities(snapshot, doc.constraints);
      if (!identical(by_graph, by_snapshot)) {
        report.violation(std::string("graph overload and snapshot path differ on ") +
                         request.model_class + " seed " + std::to_string(request.seed));
      }
    } catch (...) {
      // Already counted as a failed request of the window.
    }
  }
}

constexpr std::array<const char*, 9> kDesignClasses{
    "mp3",    "chain",           "fork_join",    "cyclic", "multi_constraint",
    "interior_pinned", "random_chain", "tdm",    "round_robin"};

void emit_layers(const Tracer& tracer, const DesignClient& client, Report& report) {
  const LayerTimes layers(tracer.spans());
  report.metric("io.read_chain_us", layers.mean_us("io.read_chain"), "us");
  report.metric("analysis.snapshot_us", layers.mean_us("analysis.snapshot"), "us");
  report.metric("analysis.pacing_us", layers.mean_us("analysis.pacing"), "us");
  // compute_buffer_capacities runs pacing inside; its self time is the
  // sizing call minus a pacing call on the same snapshot.
  report.metric("analysis.sizing_us",
                layers.mean_us("analysis.sizing") - layers.mean_us("analysis.pacing"), "us");
  report.metric("analysis.graph_overload_us", layers.mean_us("analysis.graph_overload"), "us");
  for (const char* c : kDesignClasses) {
    const std::string suffix = std::string(".") + c;
    report.metric("analysis.certificate_emit_us" + suffix,
                  layers.mean_us("analysis.certificate_emit", c), "us");
    report.metric("analysis.checker_us" + suffix, layers.mean_us("analysis.checker", c), "us");
    report.metric("checker.clauses_per_request" + suffix, client.clauses().per_certificate(c),
                  "count");
  }
  for (const char* c : {"tdm", "round_robin"}) {
    report.metric(std::string("sched.derive_kappa_us.") + c,
                  layers.mean_us("sched.derive_kappa", c), "us");
    report.metric(std::string("analysis.deployment_us.") + c,
                  layers.mean_us("analysis.deployment", c), "us");
  }
}

}  // namespace

Report run_design(const RunConfig& config) {
  Report report;
  SetupClock setup;
  const auto build_mix = [&] { return make_design_mix(config.seed, kMixSize); };
  std::vector<DesignRequest> mix;
  for (int i = 0; i < kSetupsBefore; ++i) {
    mix = setup.time(build_mix);
  }

  DesignClient client(mix, report);
  const std::vector<bool> threw = client.probe();
  report.warmed_up();
  std::vector<DesignRequest> answering;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (!threw[i]) {
      answering.push_back(std::move(mix[i]));
    }
  }
  mix = std::move(answering);

  if (!config.trace) {
    Served served;
    serve_sliced(
        config.seconds, kSetupSlices,
        [&](double seconds) { client.serve_until(deadline_after(seconds), nullptr, &served); },
        [&] { (void)setup.time(build_mix); });
    report.setup_time(setup);
    report.latency("", "design request", summarize(served.all_us));
    report.latency("variant_", "design deployment request",
                   summarize(served.deployment_us));
  } else {
    Served plain;
    Served traced;
    Tracer tracer;
    alternate_slices(config.seconds, [&](bool on, double seconds) {
      client.serve_until(deadline_after(seconds), on ? &tracer : nullptr,
                         on ? &traced : &plain);
    });
    emit_layers(tracer, client, report);
    report.traced(tracer, config.trace_path, plain.all_us, traced.all_us);
  }

  check_snapshot_path(mix, report);
  if (client.mp3_checked() == 0) {
    report.violation("no MP3 request was answered");
  }
  return report;
}

}  // namespace perfbench
