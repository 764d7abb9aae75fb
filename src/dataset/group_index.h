// GroupIndex: span-based grouping over a ColumnarSnapshot key column.
//
// One permutation sort per key: the index stores a single uint32 permutation
// of the participating record indices plus per-group [begin, end) offsets
// into it, so a whole grouping costs two flat allocations and groups are
// contiguous spans (no per-group heap vectors, no pointer chasing).
//
// Ordering contract (load-bearing for byte-identical reports): groups are
// exposed in ascending key order, and members within a group in ascending
// record-index order, so iterating `members(g)` and gathering from a
// snapshot column visits values in record order within each key.
//
// Build strategies: interned key columns (years, codename/family ids,
// mpc_centi, node/chip counts) have tiny value ranges, so the default build
// is a counting/bucket sort — O(n + range) instead of O(n log n) — that
// scatters indices in ascending order and is therefore naturally stable.
// The comparison sort is retained as the equivalence reference (and as the
// fallback for pathologically wide key ranges); the two produce identical
// indices, pinned by tests/dataset_group_radix_test.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "util/result.h"

namespace epserve::dataset {

class GroupIndex {
 public:
  GroupIndex() = default;

  /// Row ceiling: the permutation stores uint32 record indices.
  static constexpr std::uint64_t kMaxRows =
      std::numeric_limits<std::uint32_t>::max();

  enum class Strategy {
    kAuto,        // radix when the key range is bounded, else comparison
    kRadix,       // force counting/bucket sort (contract-checks the range)
    kComparison,  // force the reference comparison sort
  };

  /// Groups all rows of `keys` (one key per record index). Populations past
  /// the uint32 ceiling are a contract violation here — use over_checked()
  /// where the size is data-driven.
  static GroupIndex over(std::span<const std::int32_t> keys,
                         Strategy strategy = Strategy::kAuto);

  /// Groups only rows with mask[i] != 0 (e.g. nodes == 1 for the paper's
  /// single-node-by-chips slice). `mask` must be index-aligned with `keys`.
  static GroupIndex over_masked(std::span<const std::int32_t> keys,
                                std::span<const std::uint8_t> mask,
                                Strategy strategy = Strategy::kAuto);

  /// Checked variants: return a named out-of-range error (instead of index
  /// truncation) when `keys` exceeds the uint32 row ceiling.
  static epserve::Result<GroupIndex> over_checked(
      std::span<const std::int32_t> keys, Strategy strategy = Strategy::kAuto);
  static epserve::Result<GroupIndex> over_masked_checked(
      std::span<const std::int32_t> keys, std::span<const std::uint8_t> mask,
      Strategy strategy = Strategy::kAuto);

  [[nodiscard]] std::size_t group_count() const { return bounds_.size(); }

  /// Key of group g (groups are sorted ascending by key).
  [[nodiscard]] std::int32_t key(std::size_t g) const {
    return bounds_[g].key;
  }

  /// Record indices of group g, ascending.
  [[nodiscard]] std::span<const std::uint32_t> members(std::size_t g) const {
    const Bounds& b = bounds_[g];
    return {perm_.data() + b.begin, static_cast<std::size_t>(b.end - b.begin)};
  }

  /// Group position for a key (binary search); nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> find(std::int32_t key) const;

  /// Total rows across all groups (== keys.size() for over(); masked rows
  /// are excluded for over_masked()).
  [[nodiscard]] std::size_t total_members() const { return perm_.size(); }

 private:
  static GroupIndex build_dispatch(std::vector<std::uint32_t> perm,
                                   std::span<const std::int32_t> keys,
                                   Strategy strategy);
  static GroupIndex build_comparison(std::vector<std::uint32_t> perm,
                                     std::span<const std::int32_t> keys);
  static GroupIndex build_radix(std::vector<std::uint32_t> perm,
                                std::span<const std::int32_t> keys,
                                std::int64_t key_min, std::int64_t key_max);

  struct Bounds {
    std::int32_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  std::vector<std::uint32_t> perm_;  // grouped record indices, back to back
  std::vector<Bounds> bounds_;       // one entry per group, keys ascending
};

}  // namespace epserve::dataset
