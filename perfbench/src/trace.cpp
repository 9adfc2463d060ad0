#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::add(std::string name, std::int64_t request,
                               std::int64_t parent, double start_us,
                               double end_us) {
  spans_.push_back(
      {std::move(name), request, parent, start_us, std::max(start_us, end_us)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::finish(std::int64_t span, std::int64_t request,
                          Clock::time_point end) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.request = request;
  s.end_us = std::max(s.start_us, offset_us(end));
}

std::vector<double> SpanRecorder::self_times_us() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, span.start_us);
      hi = std::min(hi, span.end_us);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (span.end_us - span.start_us) - covered;
  }
  return self;
}

bool SpanRecorder::write_ndjson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_times_us();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"span\":%zu,\"name\":\"%s\",\"request\":%lld,"
                 "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"self_us\":%.3f}\n",
                 i, s.name.c_str(), static_cast<long long>(s.request),
                 static_cast<long long>(s.parent), s.start_us, s.end_us,
                 self[i]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
