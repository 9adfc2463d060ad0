#pragma once
// In-memory span recorder. Spans are kept in a vector while a traced run
// executes and written once, as NDJSON, when it ends. A span's self time is
// its duration minus the part of its interval covered by its children.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t request = -1;  // request the span belongs to; -1 = none
  std::int64_t parent = -1;   // index of the parent span; -1 = root
  double start_us = 0.0;      // relative to the recorder's origin
  double end_us = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Records a span and returns its index (the handle children name).
  std::int64_t add(std::string name, std::int64_t request,
                   std::int64_t parent, double start_us, double end_us);
  std::int64_t add(std::string name, std::int64_t request,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point end) {
    return add(std::move(name), request, parent, offset_us(start),
               offset_us(end));
  }

  /// Closes a span opened with end == start, tagging its request.
  void finish(std::int64_t span, std::int64_t request, Clock::time_point end);

  double offset_us(Clock::time_point t) const { return us_between(origin_, t); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, index-aligned with spans(): duration minus
  /// the union of its children's intervals clipped to its own.
  std::vector<double> self_times_us() const;

  /// Writes every span with its self time as one JSON object per line.
  bool write_ndjson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
