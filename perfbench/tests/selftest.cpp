// Tests of the benchmark's own logic: the percentile rule, self-time
// computation, failed_share accounting and seed determinism of the
// generated inputs.  Run: vrdfbench_selftest (exit 0 when all pass).
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentile_rule() {
  // p99 needs ten samples beyond its nearest rank: 1000 samples, not 999.
  expect(tail_percentile(1000) == 99.0, "p99 at n=1000");
  expect(tail_percentile(999) == 90.0, "p90 at n=999");
  expect(tail_percentile(100) == 90.0, "p90 at n=100");
  expect(tail_percentile(99) == 75.0, "p75 at n=99");
  expect(tail_percentile(20) == 50.0, "p50 at n=20");
  expect(!tail_percentile(19).has_value(), "no tail at n=19");
  expect(!tail_percentile(0).has_value(), "no tail at n=0");

  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(static_cast<double>(1001 - i));  // unsorted input
  }
  expect(percentile(samples, 50.0) == 500.0, "nearest-rank median of 1..1000");
  expect(percentile(samples, 99.0) == 990.0, "nearest-rank p99 of 1..1000");

  // kWindows windows of 1000 samples, one slow and one slower in each.
  std::vector<double> steady(kWindows * 1000, 100.0);
  for (std::size_t w = 0; w < kWindows; ++w) {
    steady[w * 1000 + 999] = 300.0;  // one slow operation per window
    steady[w * 1000 + 998] = 200.0;
  }
  const LatencySummary s = summarize(steady);
  expect(s.samples == kWindows * 1000 && s.tail_level == 99.0 && s.tail_us == 100.0,
         "p99 with 1000 samples per window, read at its nearest rank");
  // 1000 operations per window took 998·100 + 200 + 300 us.
  expect(s.p50_us == 100.0 && s.ops_per_s > 9970.0 && s.ops_per_s < 9970.2,
         "median and ops/s over time spent");
  expect(summarize(std::vector<double>(999, 1.0)).tail_level == 90.0,
         "999 samples in a run fall back to p90");
  // The run's count sets the level: 400 samples support p90, although a
  // window of 50 alone would support only p75.
  expect(summarize(std::vector<double>(400, 1.0)).tail_level == 90.0,
         "the level follows the run, not the window");

  // A burst that spoils one window does not move the medians over windows.
  std::vector<double> burst(kWindows * 200, 100.0);
  for (std::size_t i = 400; i < 600; ++i) {
    burst[i] = 5000.0;
  }
  const LatencySummary b = summarize(burst);
  expect(b.p50_us == 100.0 && b.tail_us == 100.0 && b.ops_per_s == 10000.0,
         "one spoiled window leaves every figure unchanged");
  const LatencySummary few = summarize({3.0, 1.0, 2.0});
  expect(few.samples == 3 && few.p50_us == 2.0, "fewer samples than windows form one window");
}

void test_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping, union
  // 40) and [90,120] (clipped to 10); grandchild [12,18] inside the first.
  std::vector<SpanRecord> spans(5);
  spans[0] = {"root", "", 0, 100, -1, 1};
  spans[1] = {"a", "", 10, 30, 0, 1};
  spans[2] = {"b", "", 20, 50, 0, 1};
  spans[3] = {"c", "", 90, 120, 0, 1};
  spans[4] = {"d", "", 12, 18, 1, 1};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self time subtracts the union of children");
  expect(self[1] == 20 - 6, "child self time subtracts its grandchild");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time is duration");

  Tracer tracer;
  {
    const Span outer(&tracer, "outer", 7);
    const Span inner(&tracer, "inner", 7, "tag");
  }
  expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[1].request == 7,
         "a nested span records its parent and request");
  const LayerTimes layers(tracer.spans());
  expect(layers.count("inner", "tag") == 1 && layers.count("inner") == 0,
         "layer times keyed by name and tag");
  expect(layers.mean_us("absent") == 0.0, "an absent layer reads 0");
  const Span none(nullptr, "ignored", 0);
  expect(tracer.spans().size() == 2, "a null tracer records nothing");
}

void test_failed_share() {
  Report report;
  for (int i = 0; i < 18; ++i) {
    report.outcomes.answered();
  }
  report.failure({"random_chain", 64, 5, "OverflowError"}, "overflow");
  report.failure({"random_chain", 64, 5, "OverflowError"}, "overflow");
  expect(report.outcomes.attempted == 20 && report.outcomes.failed == 2,
         "a thrown operation counts as attempted and failed");
  expect(report.outcomes.failed_share() == 0.1, "failed_share = failed / attempted");
  expect(report.outcomes.answered_share() == 0.9, "answered_share = 1 - failed_share");
  expect(report.failures.size() == 1 && report.failures.begin()->second.count == 2,
         "recurring failures aggregate under one attribution");
  expect(report.correct, "a failure is not a correctness violation");
  expect(Outcomes{}.failed_share() == 0.0, "no attempts, no failed share");
  report.warmed_up();
  expect(report.probe_outcomes.attempted == 20 && report.probe_outcomes.failed == 2 &&
             report.probe_failures.size() == 1,
         "the warm-up's outcomes and failures become the probe's");
  expect(report.outcomes.attempted == 0 && report.failures.empty(),
         "the measured window starts with no outcomes");
}

std::string fingerprint(const std::vector<DesignRequest>& mix) {
  std::string all;
  for (const DesignRequest& r : mix) {
    all += r.model_class;
    all += '|' + std::to_string(r.seed) + '|' + std::to_string(r.size) + '|' + r.error_type +
           '|' + r.text;
    if (r.deployment) {
      for (const std::string& name : r.deployment->names) {
        all += name + ',';
      }
      for (const auto& b : r.deployment->platform.bindings()) {
        all += b.slot.to_string() + b.wcet.to_string() + ',';
      }
      for (const auto& s : r.deployment->streams) {
        all += s.task + s.period.to_string() + ',';
      }
    }
    all += '\n';
  }
  return all;
}

void test_seed_determinism() {
  const std::string a = fingerprint(make_design_mix(42, 120));
  const std::string b = fingerprint(make_design_mix(42, 120));
  const std::string c = fingerprint(make_design_mix(43, 120));
  expect(a == b, "the same seed gives byte-identical inputs");
  expect(a != c, "another seed gives other inputs");
  const std::vector<DesignRequest> mix = make_design_mix(42, 120);
  std::size_t mp3 = 0;
  std::size_t deployments = 0;
  for (const DesignRequest& r : mix) {
    mp3 += std::string(r.model_class) == "mp3" ? 1 : 0;
    deployments += r.deployment ? 1 : 0;
  }
  expect(mp3 == 6 && deployments == 18, "the mix keeps its composition");
  Rng x(9);
  Rng y(9);
  bool same = true;
  for (int i = 0; i < 100; ++i) {
    same = same && x.range(8, 64) == y.range(8, 64);
  }
  expect(same, "the generator stream is a function of its seed");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_failed_share();
  test_seed_determinism();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
