#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <typeinfo>

#include "analysis/types.hpp"
#include "bench.hpp"
#include "util/error.hpp"

namespace perfbench {

void Report::latency(const std::string& prefix, const std::string& what,
                     const LatencySummary& summary) {
  metric(prefix + "p50_us", summary.p50_us, "us");
  metric(prefix + "tail_us", summary.tail_us, "us");
  metric(prefix + "ops_per_s", summary.ops_per_s, "1/s");
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: n=%zu p50=%.2f us p%g=%.2f us (%stail_us) %.1f ops/s",
                what.c_str(), summary.samples, summary.p50_us,
                summary.tail_level, summary.tail_us, prefix.c_str(),
                summary.ops_per_s);
  notes.emplace_back(line);
}

void Report::setup_time(const SetupClock& clock) {
  metric("setup_s", clock.median_s(), "s");
  notes.push_back("setup_s: median of " + std::to_string(clock.samples()) + " set-ups");
}

void Report::traced(const Tracer& tracer, const std::string& path,
                    const std::vector<double>& untraced_us,
                    const std::vector<double>& traced_us) {
  const double base = summarize(untraced_us).p50_us;
  const double with = summarize(traced_us).p50_us;
  metric("trace.overhead_pct", base > 0 ? 100.0 * (with - base) / base : 0.0, "%");
  if (!path.empty() && !tracer.write(path)) {
    notes.push_back("could not write " + path);
  }
}

void Report::warmed_up() {
  double peak_mb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peak_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  peak_rss_mb = peak_mb;
  probe_outcomes = std::exchange(outcomes, Outcomes{});
  probe_failures = std::exchange(failures, {});
}

std::string exception_type(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const vrdf::OverflowError&) {
    return "OverflowError";
  } catch (const vrdf::ModelError&) {
    return "ModelError";
  } catch (const vrdf::ContractError&) {
    return "ContractError";
  } catch (const vrdf::Error&) {
    return "Error";
  } catch (const std::exception& e) {
    return typeid(e).name();
  } catch (...) {
    return "unknown";
  }
}

std::string exception_what(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

bool identical(const vrdf::analysis::GraphAnalysis& a,
               const vrdf::analysis::GraphAnalysis& b) {
  if (a.admissible != b.admissible || a.diagnostics != b.diagnostics ||
      a.side != b.side || a.constraints.size() != b.constraints.size() ||
      a.constraint_is_sink_kind != b.constraint_is_sink_kind ||
      a.constraint_is_source_kind != b.constraint_is_source_kind ||
      a.is_chain != b.is_chain || a.is_cyclic != b.is_cyclic ||
      a.actors_in_order != b.actors_in_order || a.pacing != b.pacing ||
      a.leads != b.leads || a.total_capacity != b.total_capacity ||
      a.rounding != b.rounding || a.pairs.size() != b.pairs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.constraints.size(); ++i) {
    if (a.constraints[i].actor != b.constraints[i].actor ||
        a.constraints[i].period != b.constraints[i].period) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    const vrdf::analysis::PairAnalysis& p = a.pairs[i];
    const vrdf::analysis::PairAnalysis& q = b.pairs[i];
    if (p.producer != q.producer || p.consumer != q.consumer ||
        p.buffer.data != q.buffer.data || p.buffer.space != q.buffer.space ||
        p.pacing_basis != q.pacing_basis || p.bound_rate != q.bound_rate ||
        p.delta_producer != q.delta_producer ||
        p.delta_consumer != q.delta_consumer || p.delta_total != q.delta_total ||
        p.raw_tokens != q.raw_tokens || p.capacity != q.capacity ||
        p.determined_by != q.determined_by || p.is_static != q.is_static ||
        p.is_feedback != q.is_feedback || p.initial_tokens != q.initial_tokens ||
        p.required_initial_tokens != q.required_initial_tokens) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
