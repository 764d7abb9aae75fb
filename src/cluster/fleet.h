// cluster::Fleet — the shared, immutable fleet handle every cluster
// subsystem evaluates against (paper §V.C operationalised at fleet scale).
//
// The cluster layer used to re-derive the same per-server state on every
// call: each placement evaluation rebuilt each server's power interpolation
// table, each policy re-sorted the fleet from raw ServerRecord fields, and
// each subsystem (placement, day simulation, autoscaler, knightshift, power
// cap, working regions, operating guide) walked its own
// std::vector<ServerRecord> copy record by record. A Fleet is built once —
// columnar snapshot (dataset::ColumnarSnapshot) plus one native-resolution
// grid row per server (the ten knot segments' watts and slopes and the
// inverse peak, copied bit-for-bit from the curve's interpolation table) and
// the fleet-level aggregates — and then shared, read-only, across every
// policy, slot, and thread.
//
// Determinism contract (docs/CLUSTER.md): every column is a bitwise copy of
// the corresponding per-record computation, and every evaluation path runs
// PowerCurve::normalized_power's expression term for term over the grid
// rows, so anything evaluated through a Fleet is byte-identical to the
// legacy record-at-a-time path (pinned by tests/cluster_fleet_test.cpp at
// fleet sizes 1/100/5000, 1 and 8 threads, under every kernel variant).
//
// Construction: build() and Builder are the only ways to make a Fleet, and
// both validate, so every Fleet is non-empty and every curve passed
// PowerCurve::validate(); consumers need no empty-fleet or curve checks of
// their own. The two share one per-row assembly routine.
//
// Lifetime: a build() fleet *views* the caller's records (like
// AnalysisContext views its repository) — it must not outlive the vector it
// was built from. A Builder fleet owns its curve column instead.
//
// Server orders: the placement policies and the autoscaler walk the fleet
// best-first by a score column. order(key) sorts that column once, on first
// use (std::call_once, so concurrent first callers build it exactly once),
// and every later call reads the cached permutation. The same call_once
// also stores the inverse permutation (rank(key)) and peak_ops permuted
// into the order (ranked_peak_ops(key)), so a placement's cut walk reads
// memory sequentially and its fill finds each server's rank in index order.
// OptimalRegionPolicy's region tops are cached the same way, once per EE
// threshold (optimal_region_tops). Every cache is a pure function of the
// immutable columns — the same comparator and the same std::sort on
// identical input give the identical permutation, ties included — so none
// needs invalidating, all are built lazily (never at construction), and
// they travel with the Fleet when the Fleet is moved. Fleets are move-only.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dataset/columnar.h"
#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"
#include "util/aligned.h"
#include "util/result.h"

namespace epserve::dataset {
struct ScaledConfig;
}  // namespace epserve::dataset

namespace epserve::cluster {

class Fleet {
 public:
  /// The score columns a cached server order can follow (see order()).
  enum class OrderKey {
    kEeAtFull,      // ee_at_full(): PackToFullPolicy
    kPeakEe,        // peak_ee_value(): OptimalRegionPolicy
    kOverallScore,  // overall_score(): autoscale_over_day
  };

  /// Validated build: fails on an empty fleet ("fleet is empty") or on the
  /// first record whose measurement sheet fails PowerCurve::validate()
  /// ("server N: ..."). Views `servers` without copying their curves.
  /// Emits a `fleet.build` telemetry span and bumps the `fleet.builds`
  /// counter.
  static epserve::Result<Fleet> build(
      std::span<const dataset::ServerRecord> servers);

  /// Streaming fleet assembly (defined below).
  class Builder;

  /// Number of servers (never zero: both constructors reject empty fleets).
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Record id of server i (the placement/autoscaler ordering tiebreak).
  [[nodiscard]] std::int32_t server_id(std::size_t i) const { return ids_[i]; }

  /// Measurement sheet of server i — the viewed record's curve, or the
  /// owned curve column on a Builder fleet.
  [[nodiscard]] const metrics::PowerCurve& curve(std::size_t i) const {
    return curves_.empty() ? servers_[i].curve : curves_[i];
  }

  /// The columnar snapshot backing the record/derived columns.
  [[nodiscard]] const dataset::ColumnarSnapshot& snapshot() const {
    return snapshot_;
  }

  // --- Fleet aggregates (summed in ascending server order, exactly as the
  // --- legacy per-call loops did) ------------------------------------------
  [[nodiscard]] double capacity_ops() const { return capacity_ops_; }
  [[nodiscard]] double total_idle_watts() const { return total_idle_watts_; }

  // --- Per-server columns ---------------------------------------------------
  [[nodiscard]] std::span<const double> peak_ops() const {
    return snapshot_.peak_ops();
  }
  [[nodiscard]] std::span<const double> peak_watts() const {
    return snapshot_.peak_watts();
  }
  [[nodiscard]] std::span<const double> idle_watts() const {
    return snapshot_.idle_watts();
  }
  [[nodiscard]] std::span<const double> ep() const { return snapshot_.ep(); }
  [[nodiscard]] std::span<const double> overall_score() const {
    return snapshot_.overall_score();
  }
  [[nodiscard]] std::span<const double> idle_fraction() const {
    return snapshot_.idle_fraction();
  }
  [[nodiscard]] std::span<const double> peak_ee_value() const {
    return snapshot_.peak_ee_value();
  }
  [[nodiscard]] std::span<const double> peak_ee_utilization() const {
    return snapshot_.peak_ee_utilization();
  }
  /// EE at the 100% load level (PackToFullPolicy's ordering score).
  [[nodiscard]] std::span<const double> ee_at_full() const {
    return ee_at_full_;
  }

  /// Server indices ordered by `key`'s column descending, record id
  /// ascending on equal scores. Sorted on the first call per key (one
  /// `fleet.order` span and one `fleet.order_builds` count, which also
  /// cover rank() and ranked_peak_ops()), cached after; safe to call from
  /// any number of threads.
  [[nodiscard]] std::span<const std::size_t> order(OrderKey key) const;
  /// Inverse of order(key): rank(key)[order(key)[r]] == r.
  [[nodiscard]] std::span<const std::size_t> rank(OrderKey key) const;
  /// peak_ops() permuted into order(key):
  /// ranked_peak_ops(key)[r] == peak_ops()[order(key)[r]].
  [[nodiscard]] std::span<const double> ranked_peak_ops(OrderKey key) const;

  // --- Batch power kernels --------------------------------------------------
  /// normalized_power of server `i`, evaluated inline over its grid row —
  /// bitwise identical to curve(i).normalized_power(u). Same precondition:
  /// utilization in [0, 1] (ContractViolation otherwise).
  [[nodiscard]] double normalized_power(std::size_t i, double utilization) const {
    return metrics::kernels::detail::fleet_eval_checked(grid_view(), i,
                                                        utilization);
  }
  /// Batched variant: out[k] = normalized_power(i, utils[k]). Dispatches
  /// through metrics::kernels::active() over the server's grid row; every
  /// variant, kScalarReference (EPSERVE_FORCE_SCALAR=1) included, is bitwise
  /// identical to the knot walk (docs/KERNELS.md).
  void normalized_power_batch(std::size_t i, std::span<const double> utils,
                              std::span<double> out) const;

  /// One point per server: out[i] = normalized_power(i, utils[i]) across the
  /// whole fleet — the day-sim/placement inner product, served by the
  /// fleet_batch kernel over the SoA grid columns. Both spans must have
  /// size() entries.
  void normalized_power_per_server(std::span<const double> utils,
                                   std::span<double> out) const;

  /// Blocked matrix form of normalized_power_batch — the placement batch
  /// evaluator's inner loop: for servers i0..i0+count-1,
  /// out[r * slots + d] = normalized_power(i0 + r, utils[r * slots + d]).
  /// One kernel call per block amortises dispatch across every row; same
  /// bitwise/routing contract as normalized_power_batch. Both spans must
  /// have count * slots entries.
  void normalized_power_matrix(std::size_t i0, std::size_t count,
                               std::span<const double> utils,
                               std::span<double> out,
                               std::size_t slots) const;

  /// The fleet's grid columns at native knot resolution (ten bins per
  /// server, 32-byte aligned, row i at i * kRowBins), built once at
  /// construction — the one evaluation state every kernel reads.
  [[nodiscard]] metrics::kernels::FleetGridView grid_view() const {
    metrics::kernels::FleetGridView view;
    view.w0 = grid_w0_.data();
    view.m = grid_m_.data();
    view.inv_peak = grid_inv_peak_.data();
    view.servers = grid_inv_peak_.size();
    return view;
  }

  /// Server i's grid row as a single-curve kernel view (scale 10, the
  /// shared kRowU0 knot column).
  [[nodiscard]] metrics::kernels::GridView grid_row(std::size_t i) const;

  /// OptimalRegionPolicy's demand-independent stage-1 state at one EE
  /// threshold, over order(OrderKey::kPeakEe).
  struct RegionTops {
    /// Top of each ranked server's optimal working region (1.0 when the
    /// region is empty), identical to optimal_region() per record; rank
    /// order: ranked_top[r] belongs to server order(kPeakEe)[r].
    std::vector<double> ranked_top;
    /// Each server's utilisation once stage 1 has loaded it to its top,
    /// index order: loaded(top, peak_ops()[i]).
    std::vector<double> utilization;

    /// The stage-1 greedy's own expression for a server filled to `top`:
    /// it takes top * peak_ops and adds take / peak_ops to 0.0 — not always
    /// bitwise `top`. (Its headroom skip never fires: a valid curve's
    /// region top is > 0.)
    [[nodiscard]] static double loaded(double top, double peak_ops) {
      return 0.0 + (top * peak_ops) / peak_ops;
    }
  };

  /// The region tops at `ee_threshold`, built on the first call per
  /// threshold (one `fleet.region_tops` span and one
  /// `fleet.region_tops_builds` count) and cached after; safe to call from
  /// any number of threads. The reference stays valid for the Fleet's life.
  [[nodiscard]] const RegionTops& optimal_region_tops(
      double ee_threshold) const;

  /// Deterministic FNV-1a digest of the fleet's composition (server ids and
  /// the bit patterns of the peak/idle/EP columns). Two fleets digest equal
  /// iff they evaluate identically, so the serve layer stamps it on every
  /// response: a response mixing state from two epochs would carry a digest
  /// matching neither (docs/SERVING.md, tests/serve_swap_stress_test.cpp).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Only build() and Builder construct fleets.
  Fleet() = default;

  struct OrderCache {
    std::once_flag built;
    std::vector<std::size_t> order;
    std::vector<std::size_t> rank;
    std::vector<double> ranked_peak_ops;
  };
  struct RegionCache {
    std::once_flag built;
    RegionTops tops;
  };
  static constexpr std::size_t kOrderKeys = 3;
  // Lazily built caches. Heap-held because once_flag and mutex cannot move;
  // the pointer moves with the Fleet.
  struct Caches {
    std::array<OrderCache, kOrderKeys> orders;
    // Region tops keyed by the threshold's bit pattern (NaN-safe). The
    // mutex guards the map only; each entry builds under its own once_flag.
    std::mutex regions_mutex;
    std::map<std::uint64_t, std::unique_ptr<RegionCache>> regions;
  };

  /// The cached order for `key`, sorted on first use.
  const OrderCache& order_cache(OrderKey key) const;

  /// The one per-row assembly routine build() and Builder share: id, grid
  /// row, EE at full load and the aggregates.
  void append_row(const dataset::ServerRecord& server);

  std::span<const dataset::ServerRecord> servers_;  // build() fleets only
  dataset::ColumnarSnapshot snapshot_;
  std::vector<std::int32_t> ids_;  // always populated (digest, tiebreaks)
  std::vector<metrics::PowerCurve> curves_;  // Builder fleets only
  std::vector<double> ee_at_full_;
  // SoA grid columns (native knot resolution; see grid_view()): the only
  // per-server evaluation state. The knot utilisations are the shared
  // kernels::kRowU0 column.
  util::AlignedVector<double> grid_w0_;        // [size * kRowBins]
  util::AlignedVector<double> grid_m_;         // [size * kRowBins]
  util::AlignedVector<double> grid_inv_peak_;  // [size]
  double capacity_ops_ = 0.0;
  double total_idle_watts_ = 0.0;
  std::unique_ptr<Caches> caches_ = std::make_unique<Caches>();
};

/// Streaming fleet assembly for chunk-emitting generators
/// (dataset::generate_population_chunked): append record chunks, then
/// finish() into a fleet that OWNS its curve column instead of viewing
/// caller records, so a full vector<ServerRecord> is never materialized.
/// Validation, per-row assembly and telemetry are build()'s own; digest()
/// is byte-identical to a monolithic build() of the same records at any
/// chunk size (pinned by tests/cluster_fleet_stream_test.cpp).
class Fleet::Builder {
 public:
  Builder() = default;

  /// Validates and appends one chunk; fails on the first bad curve with
  /// the same "server N: ..." error build() produces (nothing from the
  /// failing chunk is appended).
  epserve::Result<bool> append(std::span<const dataset::ServerRecord> chunk);

  [[nodiscard]] std::uint64_t rows() const { return fleet_.size(); }

  /// Finishes the fleet ("fleet is empty" when nothing was appended).
  /// The builder must not be reused afterwards.
  epserve::Result<Fleet> finish();

 private:
  dataset::ColumnarSnapshot::Builder snapshot_builder_;
  Fleet fleet_;  // under construction; its snapshot is set by finish()
};

/// The streamed fleet build: dataset::generate_population_chunked chunks of
/// `chunk_rows` rows go straight into a Fleet::Builder, so peak memory is
/// two chunks of records plus the fleet's own columns. Fails with the
/// generator's error or the first failing append.
epserve::Result<Fleet> build_streamed_fleet(const dataset::ScaledConfig& config,
                                            std::size_t chunk_rows);

}  // namespace epserve::cluster
