// Summary statistics of the benchmark: percentiles under the reporting
// rule, outcome accounting and the seeded generator every workload draws
// its inputs from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The highest percentile of the ladder {99, 90, 75, 50} that has at
/// least `min_beyond` samples beyond it among `n`, or nullopt when not
/// even the median has.  A tail figure read from fewer samples would be
/// set by one or two outliers.
[[nodiscard]] std::optional<double> tail_percentile(std::size_t n,
                                                    std::size_t min_beyond = 10);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, which need not
/// be sorted.  Zero for an empty vector.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Median of `samples` (nearest rank).
[[nodiscard]] double median(std::vector<double> samples);

/// Latency summary of one operation kind: median, tail under the
/// reporting rule, sample count and throughput over the time spent.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0.0;
  /// The tail percentile reported: tail_percentile of the run's samples
  /// (p50 when even the median has too few beyond it).
  double tail_level = 0.0;
  double tail_us = 0.0;
  /// Operations per second of time spent in them (1e6 / mean latency).
  double ops_per_s = 0.0;
};

/// Windows a run's samples are cut into (see summarize).
inline constexpr std::size_t kWindows = 8;

/// Summarizes samples given in the order they were taken.  They are cut
/// into kWindows consecutive windows of equal count, and each figure is the
/// median over the windows of that window's figure: the host is a shared
/// VM, and a burst of interference that spoils one or two windows then
/// does not move the result.  Fewer than kWindows samples form one window.
/// The tail level is set by the sample count of the whole run.
[[nodiscard]] LatencySummary summarize(const std::vector<double>& latencies_us);

/// Attempted/failed accounting.  An operation that threw is a failure; an
/// inadmissible answer that carries diagnostics is an answer.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void answered() { ++attempted; }
  void threw() {
    ++attempted;
    ++failed;
  }
  [[nodiscard]] double failed_share() const;
  [[nodiscard]] double answered_share() const;
};

/// splitmix64 stream: the benchmark's only source of randomness, so the
/// same seed gives byte-identical inputs on every host.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi);

private:
  std::uint64_t state_;
};

}  // namespace perfbench
