#include "util/telemetry.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>

#include "util/json_writer.h"
#include "util/strings.h"

namespace epserve::telemetry {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

struct TimerAcc {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
};

struct SpanAcc {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
};

/// The merged process-wide table. One mutex; touched only when a thread
/// flushes (outermost scope exit / scope-free record) or a snapshot is taken.
struct GlobalTable {
  std::mutex mutex;
  int next_thread_id = 0;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::uint64_t, std::less<>> gauges;
  std::map<std::string, TimerAcc, std::less<>> timers;
  struct SpanGlobal {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::set<int> threads;
  };
  std::map<std::string, SpanGlobal, std::less<>> spans;
};

GlobalTable& global() {
  static GlobalTable table;
  return table;
}

template <typename Map, typename Mapped = typename Map::mapped_type>
Mapped& slot(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), Mapped{}).first;
  return it->second;
}

/// Per-thread buffer. Owned exclusively by its thread; its contents reach
/// the global table only through flush(), under the global mutex.
struct ThreadBuffer {
  int id;
  int depth = 0;       // open Span/root-span scopes on this thread
  std::string path;    // current '/'-joined span path
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, TimerAcc, std::less<>> timers;
  std::map<std::string, SpanAcc, std::less<>> spans;

  ThreadBuffer() {
    const std::lock_guard<std::mutex> lock(global().mutex);
    id = global().next_thread_id++;
  }
  ~ThreadBuffer() { flush(); }

  [[nodiscard]] bool empty() const {
    return counters.empty() && timers.empty() && spans.empty();
  }

  void flush() {
    if (empty()) return;
    GlobalTable& table = global();
    const std::lock_guard<std::mutex> lock(table.mutex);
    for (const auto& [name, value] : counters) {
      slot(table.counters, name) += value;
    }
    for (const auto& [name, acc] : timers) {
      auto& merged = slot(table.timers, name);
      merged.count += acc.count;
      merged.ns += acc.ns;
    }
    for (const auto& [span_path, acc] : spans) {
      auto& merged = slot(table.spans, span_path);
      merged.count += acc.count;
      merged.ns += acc.ns;
      merged.threads.insert(id);
    }
    counters.clear();
    timers.clear();
    spans.clear();
  }

  void flush_if_unscoped() {
    if (depth == 0) flush();
  }
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_counter(std::string_view name, std::uint64_t delta) {
  ThreadBuffer& buffer = thread_buffer();
  slot(buffer.counters, name) += delta;
  buffer.flush_if_unscoped();
}

void record_timer(std::string_view name, std::uint64_t ns) {
  ThreadBuffer& buffer = thread_buffer();
  auto& acc = slot(buffer.timers, name);
  ++acc.count;
  acc.ns += ns;
  buffer.flush_if_unscoped();
}

std::size_t span_enter(std::string_view name) {
  ThreadBuffer& buffer = thread_buffer();
  const std::size_t prev_len = buffer.path.size();
  if (!buffer.path.empty()) buffer.path += '/';
  buffer.path += name;
  ++buffer.depth;
  return prev_len;
}

std::string span_enter_root(std::string_view name) {
  ThreadBuffer& buffer = thread_buffer();
  std::string saved = std::move(buffer.path);
  buffer.path = name;
  ++buffer.depth;
  return saved;
}

void span_exit(std::size_t prev_len, std::uint64_t ns) {
  ThreadBuffer& buffer = thread_buffer();
  auto& acc = slot(buffer.spans, buffer.path);
  ++acc.count;
  acc.ns += ns;
  buffer.path.resize(prev_len);
  --buffer.depth;
  buffer.flush_if_unscoped();
}

void span_exit_root(std::string prev_path, std::uint64_t ns) {
  ThreadBuffer& buffer = thread_buffer();
  auto& acc = slot(buffer.spans, buffer.path);
  ++acc.count;
  acc.ns += ns;
  buffer.path = std::move(prev_path);
  --buffer.depth;
  buffer.flush_if_unscoped();
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  detail::GlobalTable& table = detail::global();
  const std::lock_guard<std::mutex> lock(table.mutex);
  table.counters.clear();
  table.gauges.clear();
  table.timers.clear();
  table.spans.clear();
}

void gauge_set(std::string_view name, std::uint64_t value) {
  if (!enabled()) return;
  // Straight to the global table: gauges are last-write-wins levels, so
  // buffering them thread-locally would reorder concurrent writers anyway.
  detail::GlobalTable& table = detail::global();
  const std::lock_guard<std::mutex> lock(table.mutex);
  detail::slot(table.gauges, name) = value;
}

void count_cache(std::string_view member, bool hit) {
  if (!enabled()) return;
  std::string name;
  name.reserve(member.size() + 7);
  name = member;
  name += hit ? ".hits" : ".misses";
  detail::record_counter(name, 1);
}

void Span::enter(std::string_view prefix, std::string_view suffix,
                 Scope scope) {
  active_ = true;
  root_ = scope == Scope::kRoot;
  if (suffix.empty()) {
    if (root_) {
      saved_path_ = detail::span_enter_root(prefix);
    } else {
      prev_len_ = detail::span_enter(prefix);
    }
  } else {
    std::string name;
    name.reserve(prefix.size() + suffix.size());
    name = prefix;
    name += suffix;
    if (root_) {
      saved_path_ = detail::span_enter_root(name);
    } else {
      prev_len_ = detail::span_enter(name);
    }
  }
  start_ns_ = detail::now_ns();
}

const CounterStat* Snapshot::find_counter(std::string_view name) const {
  for (const auto& stat : counters) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

const TimerStat* Snapshot::find_timer(std::string_view name) const {
  for (const auto& stat : timers) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

const SpanStat* Snapshot::find_span(std::string_view path) const {
  for (const auto& stat : spans) {
    if (stat.path == path) return &stat;
  }
  return nullptr;
}

const GaugeStat* Snapshot::find_gauge(std::string_view name) const {
  for (const auto& stat : gauges) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

std::string Snapshot::render_text() const {
  std::string out = "== telemetry ==\n";
  out += "spans (path, count, total ms, threads):\n";
  for (const auto& stat : spans) {
    out += "  " + stat.path + "  n=" + std::to_string(stat.count) + "  " +
           format_fixed(stat.total_ms, 3) + " ms  threads=" +
           std::to_string(stat.threads) + "\n";
  }
  out += "timers (name, count, total ms):\n";
  for (const auto& stat : timers) {
    out += "  " + stat.name + "  n=" + std::to_string(stat.count) + "  " +
           format_fixed(stat.total_ms, 3) + " ms\n";
  }
  out += "counters:\n";
  for (const auto& stat : counters) {
    out += "  " + stat.name + "  " + std::to_string(stat.value) + "\n";
  }
  // The gauges section appears only when a gauge was set, so commands that
  // predate gauges render byte-identically to before they existed.
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& stat : gauges) {
      out += "  " + stat.name + "  " + std::to_string(stat.value) + "\n";
    }
  }
  return out;
}

std::string Snapshot::render_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("spans").begin_array();
  for (const auto& stat : spans) {
    json.begin_object();
    json.key("path").value(stat.path);
    json.key("count").value(static_cast<std::size_t>(stat.count));
    json.key("total_ms").value(stat.total_ms);
    json.key("threads").value(stat.threads);
    json.end_object();
  }
  json.end_array();
  json.key("timers").begin_array();
  for (const auto& stat : timers) {
    json.begin_object();
    json.key("name").value(stat.name);
    json.key("count").value(static_cast<std::size_t>(stat.count));
    json.key("total_ms").value(stat.total_ms);
    json.end_object();
  }
  json.end_array();
  json.key("counters").begin_array();
  for (const auto& stat : counters) {
    json.begin_object();
    json.key("name").value(stat.name);
    json.key("value").value(static_cast<std::size_t>(stat.value));
    json.end_object();
  }
  json.end_array();
  // Emitted only when non-empty (same byte-compatibility rule as the text
  // rendering).
  if (!gauges.empty()) {
    json.key("gauges").begin_array();
    for (const auto& stat : gauges) {
      json.begin_object();
      json.key("name").value(stat.name);
      json.key("value").value(static_cast<std::size_t>(stat.value));
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  return json.str();
}

Snapshot snapshot() {
  // The calling thread's buffer is safe to flush from here (same thread);
  // other threads' pending scopes merge when they close.
  detail::thread_buffer().flush();
  detail::GlobalTable& table = detail::global();
  const std::lock_guard<std::mutex> lock(table.mutex);
  Snapshot snap;
  snap.counters.reserve(table.counters.size());
  for (const auto& [name, value] : table.counters) {
    snap.counters.push_back({name, value});
  }
  snap.gauges.reserve(table.gauges.size());
  for (const auto& [name, value] : table.gauges) {
    snap.gauges.push_back({name, value});
  }
  snap.timers.reserve(table.timers.size());
  for (const auto& [name, acc] : table.timers) {
    snap.timers.push_back(
        {name, acc.count, static_cast<double>(acc.ns) / 1e6});
  }
  snap.spans.reserve(table.spans.size());
  for (const auto& [path, acc] : table.spans) {
    snap.spans.push_back({path, acc.count,
                          static_cast<double>(acc.ns) / 1e6,
                          static_cast<int>(acc.threads.size())});
  }
  return snap;
}

}  // namespace epserve::telemetry
