// Spans recorded by the traced run around the public calls it makes into each
// layer (serve, engine, hw, compiler, quant). Spans stay in memory and are
// written once, at the end, as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing). A null Tracer makes every ScopedSpan a no-op, which is
// how the untraced phases run the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rsnn::e2e {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the tracer's origin
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = root span
  std::int64_t request = -1;   ///< request the span serves, -1 = none
  int thread = 0;
};

/// Self time summed over every span sharing a name. A span's self time is
/// its duration minus the part of it covered by its child spans.
struct SpanSummary {
  std::string name;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  std::uint64_t next_id();
  std::int64_t now_ns() const;
  void record(SpanRecord span);

  std::vector<SpanSummary> summarize() const;
  /// Write every span as a Chrome "X" (complete) event. Diagnostic, "" on
  /// success.
  std::string write_chrome(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// Records [construction, destruction) as one span when `tracer` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, to pass as a child's parent (0 when untraced).
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  SpanRecord span_;
};

}  // namespace rsnn::e2e
