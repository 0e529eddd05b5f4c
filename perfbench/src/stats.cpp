#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/seed_stream.hpp"

namespace perfbench {

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.0, 90.0, 75.0, 50.0}) {
    // Samples strictly above the nearest-rank position of p.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n > 0 && n - rank >= min_beyond) {
      return p;
    }
  }
  return std::nullopt;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

LatencySummary summarize(const std::vector<double>& latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  if (latencies_us.empty()) {
    return s;
  }
  const std::size_t windows = s.samples < kWindows ? 1 : kWindows;
  // The rule picks the level from the run's samples, and every window reads
  // that level.  Picked per window, the fleet's level would change with
  // host speed: its runs hold 300 to 500 sweeps, across the window
  // threshold of p75 (320).
  s.tail_level = tail_percentile(s.samples).value_or(50.0);
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> window(
        latencies_us.begin() + static_cast<std::ptrdiff_t>(w * s.samples / windows),
        latencies_us.begin() + static_cast<std::ptrdiff_t>((w + 1) * s.samples / windows));
    p50s.push_back(percentile(window, 50.0));
    tails.push_back(percentile(window, s.tail_level));
    const double total = std::accumulate(window.begin(), window.end(), 0.0);
    rates.push_back(total > 0.0 ? 1e6 * static_cast<double>(window.size()) / total : 0.0);
  }
  s.p50_us = median(p50s);
  s.tail_us = median(tails);
  s.ops_per_s = median(rates);
  return s;
}

double Outcomes::failed_share() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

double Outcomes::answered_share() const {
  return attempted == 0 ? 0.0 : 1.0 - failed_share();
}

std::uint64_t Rng::next() {
  state_ += vrdf::util::kGoldenGamma;
  return vrdf::util::mix64(state_);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

}  // namespace perfbench
