#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The calling thread's innermost open span, per tracer. One benchmark run
// has one live tracer, so a single slot per thread suffices.
thread_local std::int64_t t_open = -1;

std::string escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(steady_ns()) {}

std::uint64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

std::int64_t Tracer::open(std::string_view name, std::uint64_t request) {
  const std::uint64_t start = now_ns();
  const auto thread_key = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::scoped_lock lock(mutex_);
  const auto thread = thread_numbers_.try_emplace(
      thread_key, static_cast<std::uint32_t>(thread_numbers_.size() + 1));
  spans_.push_back({std::string(name), start, start, t_open, request,
                    thread.first->second});
  t_open = static_cast<std::int64_t>(spans_.size() - 1);
  return t_open;
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  const std::scoped_lock lock(mutex_);
  auto& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_open = span.parent;
}

void Tracer::record(std::string_view name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t request) {
  const std::scoped_lock lock(mutex_);
  spans_.push_back({std::string(name), start_ns, end_ns, -1, request, 0});
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"", i == 0 ? "" : ",");
    out += buffer;
    out += escape(span.name);
    std::snprintf(buffer, sizeof buffer,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"request\":%llu}}",
                  span.thread, static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    out += buffer;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start_ns;  // end of the union so far
    for (const auto& [start, end] : kids) {
      const std::uint64_t from = std::max(start, reach);
      const std::uint64_t to = std::min(end, span.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    auto& entry = out[span.name];
    entry.count += 1;
    entry.total_ms += static_cast<double>(duration) / 1e6;
    entry.self_ms += static_cast<double>(duration - std::min(covered, duration)) / 1e6;
  }
  return out;
}

}  // namespace perfbench
