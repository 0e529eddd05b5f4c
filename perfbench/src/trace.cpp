#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::size_t Tracer::open(const char* name, const char* tag,
                         std::uint64_t request) {
  SpanRecord span;
  span.name = name;
  span.tag = tag;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request;
  const std::size_t index = spans_.size();
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Spans close in LIFO order (RAII), so the open stack pops its top.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  out << "index\tparent\trequest\tname\ttag\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name << '\t'
        << s.tag << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i]
        << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    // Union of the clipped child intervals, so overlapping children
    // (possible once spans come from several threads) count once.
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

LayerTimes::LayerTimes(const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& span : spans) {
    Totals& t = totals_[{span.name, span.tag}];
    ++t.count;
    t.total_us += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
}

std::uint64_t LayerTimes::count(const std::string& name, const std::string& tag) const {
  const auto it = totals_.find({name, tag});
  return it == totals_.end() ? 0 : it->second.count;
}

double LayerTimes::mean_us(const std::string& name, const std::string& tag) const {
  const auto it = totals_.find({name, tag});
  return it == totals_.end() ? 0.0 : it->second.total_us / static_cast<double>(it->second.count);
}

}  // namespace perfbench
