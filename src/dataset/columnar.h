// ColumnarSnapshot: structure-of-arrays view of a ResultRepository.
//
// Every figure/table in the paper is a group-by over the population. The
// snapshot flattens the fields the analyses actually touch into index-aligned
// columns, built once per repository (AnalysisContext caches one under
// std::call_once). Group-bys are permutation sorts over int32 key columns
// (dataset/group_index.h) and metric extraction is a contiguous gather — no
// pointer chasing, per-group heap allocation or per-record indirection.
//
// Determinism contract: the derived columns are bit-for-bit copies of the
// DerivedCurveMetrics bundle, and every grouping built on top of the snapshot
// iterates records in ascending record-index order within a group and
// ascending key order across groups (pinned by
// tests/dataset_columnar_test.cpp). Analysis outputs computed from spans +
// columns are pinned byte for byte by the dumps in tests/golden/.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dataset/repository.h"
#include "metrics/derived.h"
#include "util/result.h"

namespace epserve::dataset {

class ColumnarSnapshot {
 public:
  ColumnarSnapshot() = default;

  /// Hard row ceiling: grouping (dataset/group_index.h) stores uint32 record
  /// indices, so a snapshot must stay addressable by uint32.
  static constexpr std::uint64_t kMaxRows =
      std::numeric_limits<std::uint32_t>::max();

  /// Streaming builder: append record chunks, finalize interning at the end.
  /// Peak memory is the columns plus one caller-held chunk — no full
  /// vector<ServerRecord> materialization. The finished snapshot is
  /// byte-identical to a one-shot build() over the concatenated records,
  /// whatever the chunk boundaries (codename ids are provisional first-seen
  /// ids during appends and are remapped onto the sorted-unique id space in
  /// finish()). Emits `columnar.chunk_builds` / `columnar.rows` counters per
  /// append and maintains the `columnar.peak_rows` gauge (the largest row
  /// count any builder has reached since process start). Defined after the
  /// enclosing class — it holds the snapshot under construction by value.
  class Builder;

  /// Builds the snapshot from a repository plus its index-aligned derived
  /// bundle (one DerivedCurveMetrics per record, e.g. AnalysisContext's
  /// memoized vector). Derived columns are copied bitwise. All build()
  /// overloads are thin one-chunk wrappers over Builder.
  static ColumnarSnapshot build(
      const ResultRepository& repo,
      std::span<const metrics::DerivedCurveMetrics> derived);

  /// Convenience overload deriving the bundle itself (cold path).
  static ColumnarSnapshot build(const ResultRepository& repo);

  /// Core build over a bare record span — the entry point cluster::Fleet
  /// uses for fleets that are not repositories. Identical to the repository
  /// overloads for the same records; records with a codename unknown to
  /// power::find_uarch() get family_id -1 (analysis repositories always
  /// resolve, ad-hoc cluster fleets may not).
  static ColumnarSnapshot build(
      std::span<const ServerRecord> records,
      std::span<const metrics::DerivedCurveMetrics> derived);
  static ColumnarSnapshot build(std::span<const ServerRecord> records);

  [[nodiscard]] std::size_t size() const { return hw_year_.size(); }

  // --- Record columns (index-aligned with repo.records()) -------------------
  [[nodiscard]] std::span<const std::int32_t> hw_year() const {
    return hw_year_;
  }
  [[nodiscard]] std::span<const std::int32_t> pub_year() const {
    return pub_year_;
  }
  [[nodiscard]] std::span<const std::int32_t> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const std::int32_t> chips() const { return chips_; }
  [[nodiscard]] std::span<const std::int32_t> total_cores() const {
    return total_cores_;
  }
  /// Interned codename id (see codenames()).
  [[nodiscard]] std::span<const std::int32_t> codename_id() const {
    return codename_id_;
  }
  /// static_cast<int32>(power::UarchFamily) — ascending ids match the
  /// enum's order.
  [[nodiscard]] std::span<const std::int32_t> family_id() const {
    return family_id_;
  }
  /// ResultRepository::mpc_centi_key per record (150 == 1.50 GB/core).
  [[nodiscard]] std::span<const std::int32_t> mpc_centi() const {
    return mpc_centi_;
  }
  [[nodiscard]] std::span<const double> memory_per_core() const {
    return memory_per_core_;
  }
  [[nodiscard]] std::span<const double> idle_watts() const {
    return idle_watts_;
  }
  [[nodiscard]] std::span<const double> peak_watts() const {
    return peak_watts_;
  }
  [[nodiscard]] std::span<const double> peak_ops() const { return peak_ops_; }

  // --- Derived columns (bitwise copies of the derived bundle) ---------------
  [[nodiscard]] std::span<const double> ep() const { return ep_; }
  [[nodiscard]] std::span<const double> overall_score() const {
    return overall_score_;
  }
  [[nodiscard]] std::span<const double> idle_fraction() const {
    return idle_fraction_;
  }
  [[nodiscard]] std::span<const double> peak_ee_value() const {
    return peak_ee_value_;
  }
  [[nodiscard]] std::span<const double> peak_ee_utilization() const {
    return peak_ee_utilization_;
  }

  // --- Codename interning ---------------------------------------------------
  /// Distinct codenames sorted ascending, so iterating codename-id groups in
  /// ascending id order visits codenames in lexicographic order.
  [[nodiscard]] const std::vector<std::string>& codenames() const {
    return codenames_;
  }
  [[nodiscard]] std::string_view codename_of(std::int32_t id) const {
    return codenames_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<std::int32_t> hw_year_;
  std::vector<std::int32_t> pub_year_;
  std::vector<std::int32_t> nodes_;
  std::vector<std::int32_t> chips_;
  std::vector<std::int32_t> total_cores_;
  std::vector<std::int32_t> codename_id_;
  std::vector<std::int32_t> family_id_;
  std::vector<std::int32_t> mpc_centi_;
  std::vector<double> memory_per_core_;
  std::vector<double> idle_watts_;
  std::vector<double> peak_watts_;
  std::vector<double> peak_ops_;
  std::vector<double> ep_;
  std::vector<double> overall_score_;
  std::vector<double> idle_fraction_;
  std::vector<double> peak_ee_value_;
  std::vector<double> peak_ee_utilization_;
  std::vector<std::string> codenames_;
};

class ColumnarSnapshot::Builder {
 public:
  /// `max_rows` is a test seam for the uint32 index guard; the default is
  /// the real kMaxRows ceiling. Must not exceed kMaxRows.
  explicit Builder(std::uint64_t max_rows = kMaxRows);

  /// Appends a chunk with its index-aligned derived slice. Fails with a
  /// named out-of-range error (nothing appended) when the chunk would push
  /// the snapshot past the row ceiling.
  epserve::Result<bool> append(
      std::span<const ServerRecord> records,
      std::span<const metrics::DerivedCurveMetrics> derived);
  /// Convenience overload deriving the bundle for the chunk itself.
  epserve::Result<bool> append(std::span<const ServerRecord> records);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }

  /// Finalizes codename interning and returns the snapshot. The builder
  /// must not be reused afterwards.
  [[nodiscard]] ColumnarSnapshot finish();

 private:
  ColumnarSnapshot snap_;
  std::unordered_map<std::string, std::int32_t> provisional_ids_;
  std::uint64_t rows_ = 0;
  std::uint64_t max_rows_ = kMaxRows;
  bool finished_ = false;
};

}  // namespace epserve::dataset
