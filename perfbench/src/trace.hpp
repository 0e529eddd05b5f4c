// In-memory span recorder for the traced run.
//
// A span is recorded around each call the benchmark makes into a library
// layer: name, start, end, the enclosing span and the request it served.
// Spans stay in memory while the run measures and are written out once it
// ends, so the only cost inside the timed loop is two clock reads and a
// vector append.  Self time — a span's duration minus the part of it its
// child spans cover — is computed afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  /// Static strings: layer name ("analysis.checker") and model class tag
  /// ("" when the span is not class-specific).
  const char* name = "";
  const char* tag = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span, or -1 for a root.
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
public:
  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name, const char* tag, std::uint64_t request);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes one tab-separated line per span (index, parent, request, name,
  /// tag, start_ns, end_ns, self_ns).  Returns false when the file cannot
  /// be written.
  bool write(const std::string& path) const;

private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanRecord>& spans);

/// Span counts and mean durations per (name, tag).
class LayerTimes {
public:
  explicit LayerTimes(const std::vector<SpanRecord>& spans);
  [[nodiscard]] std::uint64_t count(const std::string& name,
                                    const std::string& tag = "") const;
  /// Mean duration of the matching spans; 0 when there are none.
  [[nodiscard]] double mean_us(const std::string& name,
                               const std::string& tag = "") const;

private:
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Totals> totals_;
};

/// RAII span; a null tracer records nothing, so the untraced run pays
/// only a branch.
class Span {
public:
  Span(Tracer* tracer, const char* name, std::uint64_t request,
       const char* tag = "")
      : tracer_(tracer),
        index_(tracer == nullptr ? 0 : tracer->open(name, tag, request)) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer* tracer_;
  std::size_t index_;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
