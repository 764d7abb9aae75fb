// Spans for the traced run: the benchmark wraps each call it makes into a
// library layer in a Span. Spans stay in memory until the run ends, then
// go out as Chrome trace-event JSON (chrome://tracing, Perfetto) and as
// per-name self times. Untraced runs construct inert spans: one branch, no
// clock read.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    // index of the enclosing span, -1 at the root
  std::uint64_t request = 0;   // request id (serve_mixed); 0 = none
  std::uint32_t thread = 0;    // small per-tracer thread number
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Spans opened while disabled are inert; a traced run turns tracing off
  /// for the passes it times as untraced, to measure tracing overhead.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Nanoseconds since the tracer was created.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Opens a span on the calling thread, nested under its innermost open
  /// span; returns its index. Spans must close in reverse opening order.
  std::int64_t open(std::string_view name, std::uint64_t request = 0);
  void close(std::int64_t index);

  /// Records a finished span with explicit times and no parent (a request
  /// whose send and answer happened on different loop iterations).
  void record(std::string_view name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t request);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  std::atomic<bool> enabled_;
  std::uint64_t origin_ns_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::uint32_t> thread_numbers_;
};

/// RAII span; inert when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// Chrome trace-event JSON ("X" complete events; microsecond timestamps;
/// parent and request ids in args).
std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0.0;  // inclusive
  double self_ms = 0.0;   // inclusive minus the union of the children
};

/// Per span name: call count, inclusive time, and self time. A span's self
/// time is its duration minus the part of it its direct children cover
/// (children that overlap are counted once).
std::map<std::string, SelfTime> self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
