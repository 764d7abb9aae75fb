#include "dataset/columnar.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "power/uarch.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::dataset {

namespace {

/// Largest row count any builder has reached since process start — the
/// `columnar.peak_rows` gauge. A plain atomic max: the gauge answers "how
/// big did snapshots get" across every build in the process.
std::atomic<std::uint64_t> g_peak_rows{0};

void note_rows(std::uint64_t rows) {
  std::uint64_t prev = g_peak_rows.load(std::memory_order_relaxed);
  while (prev < rows && !g_peak_rows.compare_exchange_weak(
                            prev, rows, std::memory_order_relaxed)) {
  }
  telemetry::gauge_set("columnar.peak_rows",
                       g_peak_rows.load(std::memory_order_relaxed));
}

}  // namespace

ColumnarSnapshot::Builder::Builder(std::uint64_t max_rows)
    : max_rows_(max_rows) {
  EPSERVE_EXPECTS(max_rows <= kMaxRows);
}

epserve::Result<bool> ColumnarSnapshot::Builder::append(
    std::span<const ServerRecord> records,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  EPSERVE_EXPECTS(!finished_);
  EPSERVE_EXPECTS(derived.size() == records.size());
  if (records.size() > max_rows_ - rows_) {
    return Error::out_of_range(
        "columnar snapshot rows would exceed the uint32 index ceiling: " +
        std::to_string(rows_) + " + " + std::to_string(records.size()) +
        " > " + std::to_string(max_rows_));
  }
  telemetry::count("columnar.chunk_builds");
  telemetry::count("columnar.rows", records.size());

  const std::size_t n = records.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ServerRecord& r = records[i];
    snap_.hw_year_.push_back(r.hw_year);
    snap_.pub_year_.push_back(r.pub_year);
    snap_.nodes_.push_back(r.nodes);
    snap_.chips_.push_back(r.chips);
    snap_.total_cores_.push_back(static_cast<std::int32_t>(r.total_cores()));
    // Provisional first-seen intern id; finish() remaps onto the sorted id
    // space so the result matches the one-shot sorted-unique interning.
    const auto [it, inserted] = provisional_ids_.try_emplace(
        r.cpu_codename, static_cast<std::int32_t>(snap_.codenames_.size()));
    if (inserted) snap_.codenames_.push_back(r.cpu_codename);
    snap_.codename_id_.push_back(it->second);
    const auto* info = power::find_uarch(r.cpu_codename);
    // Generated/imported populations always resolve; ad-hoc cluster fleets
    // (synthetic test servers, external records) may not — mark as unknown.
    snap_.family_id_.push_back(
        info != nullptr ? static_cast<std::int32_t>(info->family) : -1);
    snap_.mpc_centi_.push_back(ResultRepository::mpc_centi_key(r));
    snap_.memory_per_core_.push_back(r.memory_per_core());
    snap_.idle_watts_.push_back(r.curve.idle_watts());
    snap_.peak_watts_.push_back(r.curve.peak_watts());
    snap_.peak_ops_.push_back(r.curve.peak_ops());
    snap_.ep_.push_back(derived[i].ep);
    snap_.overall_score_.push_back(derived[i].overall_score);
    snap_.idle_fraction_.push_back(derived[i].idle_fraction);
    snap_.peak_ee_value_.push_back(derived[i].peak_ee.value);
    snap_.peak_ee_utilization_.push_back(derived[i].peak_ee_utilization);
  }
  rows_ += n;
  note_rows(rows_);
  return true;
}

epserve::Result<bool> ColumnarSnapshot::Builder::append(
    std::span<const ServerRecord> records) {
  std::vector<metrics::DerivedCurveMetrics> derived;
  derived.reserve(records.size());
  for (const auto& r : records) {
    derived.push_back(metrics::derive_curve_metrics(r.curve));
  }
  return append(records, derived);
}

ColumnarSnapshot ColumnarSnapshot::Builder::finish() {
  EPSERVE_EXPECTS(!finished_);
  finished_ = true;

  // Remap provisional (first-seen) codename ids onto the sorted-unique id
  // space: id order == lexicographic order, matching std::map key order —
  // the same interning the one-shot build produces.
  std::vector<std::string> sorted = snap_.codenames_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::int32_t> remap(snap_.codenames_.size());
  for (std::size_t provisional = 0; provisional < snap_.codenames_.size();
       ++provisional) {
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(),
                                     snap_.codenames_[provisional]);
    remap[provisional] = static_cast<std::int32_t>(lo - sorted.begin());
  }
  for (auto& id : snap_.codename_id_) {
    id = remap[static_cast<std::size_t>(id)];
  }
  snap_.codenames_ = std::move(sorted);
  snap_.codenames_.shrink_to_fit();
  provisional_ids_.clear();
  return std::move(snap_);
}

ColumnarSnapshot ColumnarSnapshot::build(
    std::span<const ServerRecord> records,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  EPSERVE_EXPECTS(derived.size() == records.size());
  Builder builder;
  // A span can never exceed the uint32 ceiling in one chunk on supported
  // populations; the contract check keeps the wrapper infallible.
  const auto appended = builder.append(records, derived);
  EPSERVE_EXPECTS(appended.ok());
  return builder.finish();
}

ColumnarSnapshot ColumnarSnapshot::build(std::span<const ServerRecord> records) {
  std::vector<metrics::DerivedCurveMetrics> derived;
  derived.reserve(records.size());
  for (const auto& r : records) {
    derived.push_back(metrics::derive_curve_metrics(r.curve));
  }
  return build(records, derived);
}

ColumnarSnapshot ColumnarSnapshot::build(
    const ResultRepository& repo,
    std::span<const metrics::DerivedCurveMetrics> derived) {
  return build(std::span<const ServerRecord>(repo.records()), derived);
}

ColumnarSnapshot ColumnarSnapshot::build(const ResultRepository& repo) {
  return build(std::span<const ServerRecord>(repo.records()));
}

}  // namespace epserve::dataset
