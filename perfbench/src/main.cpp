// vrdfbench: runs one workload of the repository benchmark and prints its
// metrics.  See perfbench/README.md for the workloads and metrics.
//
//   vrdfbench --workload design|admission|fleet --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// The fleet workload runs on every hardware thread.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}, whose counts are the
// measured window's; the lines before it are context: tail levels and
// sample counts, the set-up probe's failed share and failure attribution,
// and failed correctness checks.  Exit code 1 when a correctness check failed, 2 on
// bad arguments, 3 when the build is not optimised.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef VRDFBENCH_BUILD_TYPE
#define VRDFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define VRDFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define VRDFBENCH_COMPILER "g++ " __VERSION__
#else
#define VRDFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

int usage(const std::string& why) {
  std::cerr << "vrdfbench: " << why
            << "\nusage: vrdfbench --workload design|admission|fleet --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "vrdfbench: refusing to report from a non-optimised build (build type "
            << VRDFBENCH_BUILD_TYPE << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  RunConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      config.trace = value == "1";
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage("unknown argument " + arg);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage("bad number for " + arg + ": " + value);
    }
  }
  if (config.seconds <= 0.0) {
    return usage("--seconds must be positive");
  }

  Report report;
  if (config.workload == "design") {
    report = run_design(config);
  } else if (config.workload == "admission") {
    report = run_admission(config);
  } else if (config.workload == "fleet") {
    report = run_fleet(config);
  } else {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (!config.trace) {
    report.metric("peak_rss_mb", report.peak_rss_mb, "MB");
    report.metric("answered_share", report.probe_outcomes.answered_share(), "share");
  } else {
    report.metric("probe.failed_share", report.probe_outcomes.failed_share(), "share");
  }

  std::cout << "build: " << VRDFBENCH_BUILD_TYPE << ", compiler " << VRDFBENCH_COMPILER
            << ", workers " << config.threads << "\n";
  for (const std::string& note : report.notes) {
    std::cout << "note: " << note << "\n";
  }
  const auto print_outcomes = [&](const char* phase, const Outcomes& outcomes,
                                  const std::map<FailureKey, FailureTally>& failures) {
    std::cout << "failed_share: phase=" << phase << " "
              << json_number(outcomes.failed_share()) << " (" << outcomes.failed << " of "
              << outcomes.attempted << ")\n";
    for (const auto& [key, tally] : failures) {
      std::cout << "failure: phase=" << phase << " workload=" << config.workload
                << " class=" << key.model_class << " size=" << key.size
                << " seed=" << key.seed << " type=" << key.type << " count=" << tally.count
                << " what=" << tally.what << "\n";
    }
  };
  print_outcomes("probe", report.probe_outcomes, report.probe_failures);
  print_outcomes("window", report.outcomes, report.failures);
  for (const std::string& v : report.violations) {
    std::cout << "check FAILED: " << v << "\n";
  }

  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.outcomes.attempted
            << ", \"failed\": " << report.outcomes.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, metric] : report.metrics) {
    std::cout << separator << "\"" << name << "\": {\"value\": " << json_number(metric.value)
              << ", \"unit\": \"" << metric.unit << "\"}";
    separator = ", ";
  }
  std::cout << "}}" << std::endl;
  return report.correct ? 0 : 1;
}
