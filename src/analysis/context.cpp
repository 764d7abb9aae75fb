#include "analysis/context.h"

namespace epserve::analysis {

// Every accessor funnels through memoize() (context.h): one call_once build,
// one CacheStats bump, and — when telemetry is on — per-member hit/miss
// counters ("ctx.<member>.hits"/".misses") plus a ".build" timer. Member
// names below are the telemetry names documented in docs/OBSERVABILITY.md.

const std::vector<metrics::DerivedCurveMetrics>& AnalysisContext::derived()
    const {
  return memoize(derived_, "ctx.derived", derived_builds_, [&] {
    std::vector<metrics::DerivedCurveMetrics> bundle;
    bundle.reserve(repo_.size());
    for (const auto& r : repo_.records()) {
      bundle.push_back(metrics::derive_curve_metrics(r.curve));
    }
    return bundle;
  });
}

const metrics::DerivedCurveMetrics& AnalysisContext::derived(
    const dataset::ServerRecord& record) const {
  return derived()[repo_.index_of(record)];
}

const dataset::ColumnarSnapshot& AnalysisContext::columnar() const {
  return memoize(columnar_, "ctx.columnar", columnar_builds_, [&] {
    return dataset::ColumnarSnapshot::build(repo_, derived());
  });
}

const dataset::GroupIndex& AnalysisContext::groups_by_year(
    dataset::YearKey key) const {
  const bool hw = key == dataset::YearKey::kHardwareAvailability;
  auto& slot = hw ? groups_hw_year_ : groups_pub_year_;
  return memoize(slot,
                 hw ? "ctx.groups_by_hw_year" : "ctx.groups_by_pub_year",
                 group_index_builds_, [&] {
                   const auto& snap = columnar();
                   return dataset::GroupIndex::over(hw ? snap.hw_year()
                                                       : snap.pub_year());
                 });
}

const dataset::GroupIndex& AnalysisContext::groups_by_family() const {
  return memoize(groups_family_, "ctx.groups_by_family", group_index_builds_,
                 [&] {
                   return dataset::GroupIndex::over(columnar().family_id());
                 });
}

const dataset::GroupIndex& AnalysisContext::groups_by_codename() const {
  return memoize(groups_codename_, "ctx.groups_by_codename",
                 group_index_builds_, [&] {
                   return dataset::GroupIndex::over(columnar().codename_id());
                 });
}

const dataset::GroupIndex& AnalysisContext::groups_by_nodes() const {
  return memoize(groups_nodes_, "ctx.groups_by_nodes", group_index_builds_,
                 [&] { return dataset::GroupIndex::over(columnar().nodes()); });
}

const dataset::GroupIndex& AnalysisContext::groups_single_node_by_chips()
    const {
  return memoize(groups_chips_, "ctx.groups_single_node_by_chips",
                 group_index_builds_, [&] {
                   const auto& snap = columnar();
                   std::vector<std::uint8_t> single_node(snap.size());
                   for (std::size_t i = 0; i < snap.size(); ++i) {
                     single_node[i] = snap.nodes()[i] == 1 ? 1 : 0;
                   }
                   return dataset::GroupIndex::over_masked(snap.chips(),
                                                           single_node);
                 });
}

const dataset::GroupIndex& AnalysisContext::groups_by_mpc() const {
  return memoize(groups_mpc_, "ctx.groups_by_mpc", group_index_builds_, [&] {
    return dataset::GroupIndex::over(columnar().mpc_centi());
  });
}

std::vector<double> AnalysisContext::gather(
    std::span<const double> column, std::span<const std::uint32_t> members) {
  std::vector<double> out;
  out.reserve(members.size());
  for (const std::uint32_t i : members) out.push_back(column[i]);
  return out;
}

namespace {

/// One field of each record's derived bundle, in record order.
template <typename Field>
std::vector<double> field_of(
    const std::vector<metrics::DerivedCurveMetrics>& bundle, Field field) {
  std::vector<double> out;
  out.reserve(bundle.size());
  for (const auto& d : bundle) out.push_back(d.*field);
  return out;
}

}  // namespace

const dataset::RecordView& AnalysisContext::top_ep_decile() const {
  return memoize(top_ep_, "ctx.top_ep_decile", decile_builds_, [&] {
    return repo_.top_decile_by(
        field_of(derived(), &metrics::DerivedCurveMetrics::ep));
  });
}

const dataset::RecordView& AnalysisContext::top_score_decile() const {
  return memoize(top_score_, "ctx.top_score_decile", decile_builds_, [&] {
    return repo_.top_decile_by(
        field_of(derived(), &metrics::DerivedCurveMetrics::overall_score));
  });
}

AnalysisContext::CacheStats AnalysisContext::cache_stats() const {
  CacheStats stats;
  stats.derived_builds = derived_builds_.load(std::memory_order_relaxed);
  stats.decile_builds = decile_builds_.load(std::memory_order_relaxed);
  stats.columnar_builds = columnar_builds_.load(std::memory_order_relaxed);
  stats.group_index_builds =
      group_index_builds_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace epserve::analysis
