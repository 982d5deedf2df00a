#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file
/// A span recorder for the benchmark's traced run. The benchmark opens a
/// span around each call it makes into a library layer; a span records
/// its name, start, end, the span open when it began (its parent) and
/// the query it belongs to. Spans stay in memory until the run ends.
///
/// Single-threaded: spans are opened and closed on the benchmark's
/// calling thread only. A null Tracer* turns every ScopedSpan into a
/// no-op, which is how the same code runs untraced.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string naming the layer call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;     ///< index into Tracer::spans(), -1 = root
  std::uint64_t query_id = 0;   ///< 0 = set-up, queries count from 1
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t Begin(const char* name, std::uint64_t query_id);
  /// Closes span \p id, which must be the innermost open span.
  void End(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Element q is the summed duration in ms of the spans called \p name
  /// of query q, for q in [0, queries].
  std::vector<double> PerQueryMs(const char* name, std::uint64_t queries) const;
  /// Durations in ms of every span called \p name, in start order.
  std::vector<double> DurationsMs(const char* name) const;

  /// Writes the spans of queries up to \p max_query_id (set-up included)
  /// as Chrome trace-event JSON ("X" events, microseconds).
  skypref::Status WriteChromeTrace(const std::string& path,
                                   std::uint64_t max_query_id) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t query_id)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
