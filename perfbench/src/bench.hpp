// Shared run configuration and result record of the three workloads.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace vrdf::analysis {
struct GraphAnalysis;
}  // namespace vrdf::analysis

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured wall time of the run.
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_path;
  /// Workers of the fleet sweep (the host's hardware threads).
  std::size_t threads = 1;
};

/// Set-ups timed before the measured window; the first two find cold
/// caches and fresh pages.
inline constexpr int kSetupsBefore = 3;

/// Times a workload's set-up; `setup_s` is the median of the set-ups it
/// timed.  The host is a shared VM whose speed shifts by tens of percent
/// for seconds at a time, so set-ups are timed before the measured window
/// and again between slices of it (serve_sliced): a burst of back-to-back
/// set-ups would see one host state, these see the mix the operations see.
class SetupClock {
public:
  /// Runs `setup` and records its wall time, excluding the destruction of
  /// what it returns.
  template <typename F>
  auto time(F&& setup) {
    const std::int64_t start = now_ns();
    auto result = setup();
    seconds_.push_back(static_cast<double>(now_ns() - start) / 1e9);
    return result;
  }
  [[nodiscard]] double median_s() const { return median(seconds_); }
  [[nodiscard]] std::size_t samples() const { return seconds_.size(); }

private:
  std::vector<double> seconds_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One kind of failure, aggregated over the times it recurred.
struct FailureKey {
  std::string model_class;
  std::size_t size = 0;
  std::uint64_t seed = 0;
  std::string type;
  friend bool operator<(const FailureKey& a, const FailureKey& b) {
    return std::tie(a.model_class, a.size, a.seed, a.type) <
           std::tie(b.model_class, b.size, b.seed, b.type);
  }
};
struct FailureTally {
  std::uint64_t count = 0;
  std::string what;
};

struct Report {
  /// False when any correctness check failed; `violations` names the
  /// first few.
  bool correct = true;
  std::vector<std::string> violations;
  /// Operations of the measured window.
  Outcomes outcomes;
  std::map<FailureKey, FailureTally> failures;
  /// Operations of the set-up probe, the warm-up that serves every input
  /// of the run once before the window.  `answered_share` is read from
  /// these.  The design and admission workloads leave an input whose
  /// operation threw here out of the window, so the window measures only
  /// operations that answer; the failure stays attributed here.
  Outcomes probe_outcomes;
  std::map<FailureKey, FailureTally> probe_failures;
  /// Metrics in emission order.
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Human-readable context lines printed before the result.
  std::vector<std::string> notes;
  double peak_rss_mb = 0.0;

  void violation(const std::string& what) {
    correct = false;
    if (violations.size() < 8) {
      violations.push_back(what);
    }
  }
  /// Counts a thrown operation and attributes it.
  void failure(const FailureKey& key, const std::string& what) {
    outcomes.threw();
    FailureTally& tally = failures[key];
    ++tally.count;
    tally.what = what;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  /// Ends the warm-up: records `peak_rss_mb` — the resident high-water of
  /// set-up plus the warm-up, a fixed amount of work that reaches every
  /// input — and moves the outcomes and failures so far to the probe's.
  /// The measured window's growth is left out: it holds the benchmark's
  /// own latency samples, 8 bytes per operation, so it follows the host's
  /// speed.  On a shared 4-vCPU VM, reading at the end of the run gave
  /// `admission` 12% more when the host ran 1.7 times faster.  On `fleet`
  /// the growth also depends on which rare long-simulation item each
  /// worker's malloc arena happened to serve.
  void warmed_up();
  /// Ends a traced run: trace.overhead_pct from the p50 of the untraced
  /// and the traced slices, and the spans written to `path` (if any).
  void traced(const Tracer& tracer, const std::string& path,
              const std::vector<double>& untraced_us, const std::vector<double>& traced_us);
  /// setup_s from `clock`, noting its sample count.
  void setup_time(const SetupClock& clock);
  /// p50/tail/ops_per_s of one operation kind under `prefix` ("" or
  /// "variant_"), noting the tail level and sample count.
  void latency(const std::string& prefix, const std::string& what,
               const LatencySummary& summary);
};

/// The exception's class name ("OverflowError", "ModelError", ...).
[[nodiscard]] std::string exception_type(const std::exception_ptr& error);
[[nodiscard]] std::string exception_what(const std::exception_ptr& error);

/// Field-for-field equality of two analyses.
[[nodiscard]] bool identical(const vrdf::analysis::GraphAnalysis& a,
                             const vrdf::analysis::GraphAnalysis& b);

/// True while the steady clock has not reached `deadline_ns`.
[[nodiscard]] inline bool before(std::int64_t deadline_ns) {
  return now_ns() < deadline_ns;
}
[[nodiscard]] inline std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Checker clauses validated per certificate, by model class.
class ClauseCounts {
public:
  void add(const std::string& model_class, std::uint64_t clauses) {
    auto& [total, certificates] = counts_[model_class];
    total += clauses;
    ++certificates;
  }
  [[nodiscard]] double per_certificate(const std::string& model_class) const {
    const auto it = counts_.find(model_class);
    return it == counts_.end() ? 0.0
                               : static_cast<double>(it->second.first) /
                                     static_cast<double>(it->second.second);
  }

private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts_;
};

/// The traced run splits its window into slices that alternate untraced
/// and traced, so drift in host speed falls on both halves alike.
/// `serve(traced, seconds)` serves one slice.
template <typename F>
void alternate_slices(double seconds, F&& serve) {
  constexpr int kPairs = 10;
  for (int i = 0; i < kPairs; ++i) {
    serve(false, seconds / (2 * kPairs));
    serve(true, seconds / (2 * kPairs));
  }
}

/// Serves `seconds` in `slices` equal slices (`serve(slice_seconds)`) and
/// calls `between()` between each two of them.
template <typename Serve, typename Between>
void serve_sliced(double seconds, int slices, Serve&& serve, Between&& between) {
  for (int i = 0; i < slices; ++i) {
    if (i > 0) {
      between();
    }
    serve(seconds / slices);
  }
}

Report run_design(const RunConfig& config);
Report run_admission(const RunConfig& config);
Report run_fleet(const RunConfig& config);

}  // namespace perfbench
