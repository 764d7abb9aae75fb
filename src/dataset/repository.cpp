#include "dataset/repository.h"

#include <algorithm>
#include <cmath>

#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::dataset {

ResultRepository::ResultRepository(std::vector<ServerRecord> records)
    : records_(std::move(records)) {}

RecordView ResultRepository::all() const {
  RecordView view;
  view.reserve(records_.size());
  for (const auto& r : records_) view.push_back(&r);
  return view;
}

RecordView ResultRepository::where(
    const std::function<bool(const ServerRecord&)>& pred) const {
  RecordView view;
  view.reserve(records_.size());
  for (const auto& r : records_) {
    if (pred(r)) view.push_back(&r);
  }
  return view;
}

int ResultRepository::mpc_centi_key(const ServerRecord& record) {
  return static_cast<int>(std::lround(record.memory_per_core() * 100.0));
}

std::vector<double> ResultRepository::metric(
    const RecordView& view,
    const std::function<double(const ServerRecord&)>& fn) {
  std::vector<double> out;
  out.reserve(view.size());
  for (const auto* r : view) out.push_back(fn(*r));
  return out;
}

std::vector<double> ResultRepository::ep_values(const RecordView& view) {
  return metric(view, [](const ServerRecord& r) {
    return metrics::energy_proportionality(r.curve);
  });
}

std::vector<double> ResultRepository::score_values(const RecordView& view) {
  return metric(view, [](const ServerRecord& r) {
    return metrics::overall_score(r.curve);
  });
}

std::vector<double> ResultRepository::idle_fraction_values(
    const RecordView& view) {
  return metric(view,
                [](const ServerRecord& r) { return r.curve.idle_fraction(); });
}

std::size_t ResultRepository::index_of(const ServerRecord& record) const {
  const ServerRecord* base = records_.data();
  EPSERVE_EXPECTS(&record >= base && &record < base + records_.size());
  return static_cast<std::size_t>(&record - base);
}

RecordView ResultRepository::top_decile_by(
    const std::vector<double>& values) const {
  EPSERVE_EXPECTS(values.size() == records_.size());
  RecordView view = all();
  const auto cutoff = static_cast<std::size_t>(
      std::ceil(static_cast<double>(view.size()) * 0.1));
  std::sort(view.begin(), view.end(),
            [&](const ServerRecord* a, const ServerRecord* b) {
              const double fa = values[index_of(*a)];
              const double fb = values[index_of(*b)];
              if (fa != fb) return fa > fb;
              return a->id < b->id;
            });
  view.resize(std::min(cutoff, view.size()));
  return view;
}

}  // namespace epserve::dataset
