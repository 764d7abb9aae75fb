#include "cluster/fleet.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>

#include "cluster/working_region.h"
#include "dataset/generator.h"
#include "metrics/efficiency.h"
#include "metrics/load_level.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

constexpr std::size_t kRowBins =
    static_cast<std::size_t>(metrics::kernels::FleetGridView::kRowBins);

/// Fails with "server N: ..." on the first record whose curve fails
/// PowerCurve::validate() — the error surface build() and Builder share.
epserve::Result<bool> validate_curves(
    std::span<const dataset::ServerRecord> servers) {
  for (const auto& server : servers) {
    if (auto valid = server.curve.validate(); !valid.ok()) {
      return Error{valid.error().code, "server " + std::to_string(server.id) +
                                           ": " + valid.error().message};
    }
  }
  return true;
}

/// The one exit from fleet assembly: rejects an empty fleet, then runs
/// `assemble` under the `fleet.build` span and counts the fleet.
template <typename Assemble>
epserve::Result<Fleet> finish_assembly(std::size_t servers,
                                       Assemble&& assemble) {
  if (servers == 0) {
    return Error::invalid_argument("fleet is empty");
  }
  telemetry::Span span("fleet.build");
  telemetry::count("fleet.builds");
  telemetry::count("fleet.servers", servers);
  return assemble();
}

}  // namespace

void Fleet::append_row(const dataset::ServerRecord& server) {
  ids_.push_back(server.id);
  // The grid row is the interpolation table's own knot watts and slopes,
  // copied bit-for-bit (its knot utilisations are kRowU0), so grid
  // evaluation and the knot walk run the identical expression on identical
  // inputs.
  const auto table = server.curve.interpolation_table();
  for (std::size_t seg = 0; seg < kRowBins; ++seg) {
    grid_w0_.push_back(table.knot_watts[seg]);
    grid_m_.push_back(table.slope[seg]);
  }
  grid_inv_peak_.push_back(table.inv_peak);
  ee_at_full_.push_back(
      metrics::ee_at_level(server.curve, metrics::kNumLoadLevels - 1));
  capacity_ops_ += server.curve.peak_ops();
  total_idle_watts_ += server.curve.idle_watts();
}

epserve::Result<Fleet> Fleet::build(
    std::span<const dataset::ServerRecord> servers) {
  if (auto valid = validate_curves(servers); !valid.ok()) {
    return valid.error();
  }
  return finish_assembly(servers.size(), [servers] {
    Fleet fleet;
    fleet.servers_ = servers;
    fleet.snapshot_ = dataset::ColumnarSnapshot::build(servers);
    fleet.ids_.reserve(servers.size());
    fleet.ee_at_full_.reserve(servers.size());
    fleet.grid_w0_.reserve(servers.size() * kRowBins);
    fleet.grid_m_.reserve(servers.size() * kRowBins);
    fleet.grid_inv_peak_.reserve(servers.size());
    for (const auto& server : servers) fleet.append_row(server);
    return fleet;
  });
}

epserve::Result<bool> Fleet::Builder::append(
    std::span<const dataset::ServerRecord> chunk) {
  const telemetry::Span span("fleet.append");
  if (auto valid = validate_curves(chunk); !valid.ok()) {
    return valid.error();
  }
  if (auto appended = snapshot_builder_.append(chunk); !appended.ok()) {
    return appended.error();
  }
  for (const auto& server : chunk) {
    fleet_.curves_.push_back(server.curve);
    fleet_.append_row(server);
  }
  telemetry::count("fleet.append_rows", chunk.size());
  return true;
}

epserve::Result<Fleet> Fleet::Builder::finish() {
  return finish_assembly(fleet_.size(), [this] {
    fleet_.snapshot_ = snapshot_builder_.finish();
    return std::move(fleet_);
  });
}

metrics::kernels::GridView Fleet::grid_row(std::size_t i) const {
  metrics::kernels::GridView view;
  view.u0 = metrics::kernels::kRowU0;
  view.w0 = grid_w0_.data() + i * kRowBins;
  view.m = grid_m_.data() + i * kRowBins;
  view.inv_peak = grid_inv_peak_[i];
  view.scale = 10.0;
  view.last_bin = static_cast<std::int32_t>(kRowBins) - 1;
  return view;
}

void Fleet::normalized_power_batch(std::size_t i, std::span<const double> utils,
                                   std::span<double> out) const {
  EPSERVE_EXPECTS(utils.size() == out.size());
  metrics::kernels::active().row_batch(grid_view(), i, utils.data(),
                                       out.data(), utils.size());
  telemetry::count("kernel.batch_points", utils.size());
}

void Fleet::normalized_power_matrix(std::size_t i0, std::size_t count,
                                    std::span<const double> utils,
                                    std::span<double> out,
                                    std::size_t slots) const {
  EPSERVE_EXPECTS(i0 + count <= size());
  EPSERVE_EXPECTS(utils.size() == count * slots && out.size() == utils.size());
  metrics::kernels::active().row_matrix(grid_view(), i0, count, utils.data(),
                                        out.data(), slots);
  telemetry::count("kernel.batch_points", utils.size());
}

void Fleet::normalized_power_per_server(std::span<const double> utils,
                                        std::span<double> out) const {
  EPSERVE_EXPECTS(utils.size() == size() && out.size() == size());
  metrics::kernels::active().fleet_batch(grid_view(), utils.data(),
                                         out.data());
  telemetry::count("kernel.batch_points", utils.size());
}

const Fleet::OrderCache& Fleet::order_cache(OrderKey key) const {
  OrderCache& cache = caches_->orders[static_cast<std::size_t>(key)];
  std::call_once(cache.built, [&] {
    // Root scope: the path stays `fleet.order` whichever caller (policy,
    // autoscaler, serve request, thread) happens to sort first.
    const telemetry::Span span("fleet.order", telemetry::Span::Scope::kRoot);
    telemetry::count("fleet.order_builds");
    const std::span<const double> score =
        key == OrderKey::kEeAtFull ? ee_at_full()
        : key == OrderKey::kPeakEe ? peak_ee_value()
                                   : overall_score();
    cache.order.resize(size());
    std::iota(cache.order.begin(), cache.order.end(), std::size_t{0});
    std::sort(cache.order.begin(), cache.order.end(),
              [&](std::size_t a, std::size_t b) {
                if (score[a] != score[b]) return score[a] > score[b];
                return ids_[a] < ids_[b];
              });
    // The inverse permutation and the permuted peak_ops column, so walks
    // over the order read memory sequentially.
    const std::span<const double> peak = peak_ops();
    cache.rank.resize(size());
    cache.ranked_peak_ops.resize(size());
    for (std::size_t r = 0; r < size(); ++r) {
      cache.rank[cache.order[r]] = r;
      cache.ranked_peak_ops[r] = peak[cache.order[r]];
    }
  });
  return cache;
}

std::span<const std::size_t> Fleet::order(OrderKey key) const {
  return order_cache(key).order;
}

std::span<const std::size_t> Fleet::rank(OrderKey key) const {
  return order_cache(key).rank;
}

std::span<const double> Fleet::ranked_peak_ops(OrderKey key) const {
  return order_cache(key).ranked_peak_ops;
}

const Fleet::RegionTops& Fleet::optimal_region_tops(
    double ee_threshold) const {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &ee_threshold, sizeof(bits));
  RegionCache* cache = nullptr;
  {
    const std::lock_guard<std::mutex> lock(caches_->regions_mutex);
    auto& entry = caches_->regions[bits];
    if (!entry) entry = std::make_unique<RegionCache>();
    cache = entry.get();
  }
  std::call_once(cache->built, [&] {
    const telemetry::Span span("fleet.region_tops",
                               telemetry::Span::Scope::kRoot);
    telemetry::count("fleet.region_tops_builds");
    const std::span<const std::size_t> ranks = rank(OrderKey::kPeakEe);
    const std::span<const double> peak_ee = peak_ee_value();
    const std::span<const double> peak = peak_ops();
    RegionTops& tops = cache->tops;
    tops.ranked_top.resize(size());
    tops.utilization.resize(size());
    for (std::size_t i = 0; i < size(); ++i) {
      const Region region = optimal_region(curve(i), peak_ee[i], ee_threshold);
      const double top = region.empty() ? 1.0 : region.hi;
      tops.ranked_top[ranks[i]] = top;
      tops.utilization[i] = RegionTops::loaded(top, peak[i]);
    }
  });
  return cache->tops;
}

std::uint64_t Fleet::digest() const {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix_u64 = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;  // FNV prime
    }
  };
  const auto mix_column = [&mix_u64](std::span<const double> column) {
    for (const double value : column) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(value));
      std::memcpy(&bits, &value, sizeof(bits));
      mix_u64(bits);
    }
  };
  mix_u64(size());
  for (const std::int32_t id : ids_) {
    mix_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  mix_column(peak_ops());
  mix_column(peak_watts());
  mix_column(idle_watts());
  mix_column(ep());
  return hash;
}

Result<Fleet> build_streamed_fleet(const dataset::ScaledConfig& config,
                                   std::size_t chunk_rows) {
  Fleet::Builder builder;
  std::optional<Error> append_error;
  auto emitted = dataset::generate_population_chunked(
      config, chunk_rows,
      [&](std::span<const dataset::ServerRecord> chunk, std::uint64_t) {
        if (append_error) return;
        if (auto appended = builder.append(chunk); !appended.ok()) {
          append_error = appended.error();
        }
      });
  if (!emitted.ok()) return emitted.error();
  if (append_error) return *append_error;
  return builder.finish();
}

}  // namespace epserve::cluster
