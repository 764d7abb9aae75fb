// ResultRepository: owner of a generated (or imported) population, with
// record views, metric extraction and top-decile sets. Group-bys (by year,
// family, codename, topology, memory per core) are GroupIndex spans over a
// ColumnarSnapshot of the repository (dataset/columnar.h,
// dataset/group_index.h).
#pragma once

#include <functional>
#include <vector>

#include "dataset/record.h"

namespace epserve::dataset {

/// Non-owning view over a subset of records.
using RecordView = std::vector<const ServerRecord*>;

/// Which date key to organise by — the paper's central re-keying choice.
enum class YearKey { kHardwareAvailability, kPublished };

class ResultRepository {
 public:
  explicit ResultRepository(std::vector<ServerRecord> records);

  [[nodiscard]] const std::vector<ServerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// All records as a view.
  [[nodiscard]] RecordView all() const;

  /// Records matching a predicate.
  [[nodiscard]] RecordView where(
      const std::function<bool(const ServerRecord&)>& pred) const;

  /// Memory-per-core grouping key of one record: integer centi-GB-per-core
  /// (150 == 1.50 GB/core). The integer key keeps grouping exact; divide by
  /// 100.0 to recover the 2-decimal ratio the paper's Table I prints.
  static int mpc_centi_key(const ServerRecord& record);

  /// Metric vector over a view (EP, overall score, idle fraction, ...).
  static std::vector<double> metric(
      const RecordView& view,
      const std::function<double(const ServerRecord&)>& fn);

  /// Convenience metric extractors.
  static std::vector<double> ep_values(const RecordView& view);
  static std::vector<double> score_values(const RecordView& view);
  static std::vector<double> idle_fraction_values(const RecordView& view);

  /// Index of a record inside records(). Views hold pointers into that
  /// vector, so this is the hook a metric cache (analysis::AnalysisContext)
  /// uses to keep index-aligned per-record data. `record` must belong to
  /// this repository.
  [[nodiscard]] std::size_t index_of(const ServerRecord& record) const;

  /// The ceil(10%) records with the highest value, given one pre-computed
  /// value per record, index-aligned with records() (ties broken by record
  /// id for determinism).
  [[nodiscard]] RecordView top_decile_by(
      const std::vector<double>& values) const;

 private:
  std::vector<ServerRecord> records_;
};

}  // namespace epserve::dataset
