#include "dataset/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "dataset/calibration.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "power/uarch.h"
#include "util/contracts.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace epserve::dataset {

namespace {

using metrics::kLoadLevels;
using metrics::kNumLoadLevels;

constexpr double kMinIdle = 0.03;
constexpr double kMaxIdle = 0.92;

/// Vendor palette for cosmetic identities.
constexpr std::array<std::string_view, 10> kVendors = {
    "Dell",  "HP",     "IBM",    "Fujitsu",    "Sugon",
    "Inspur", "Lenovo", "Huawei", "SuperMicro", "Acer"};

/// Approximate socket TDP per family era (drives absolute peak power).
double family_tdp(power::UarchFamily family) {
  using power::UarchFamily;
  switch (family) {
    case UarchFamily::kNetburst: return 110.0;
    case UarchFamily::kCore: return 80.0;
    case UarchFamily::kNehalem: return 95.0;
    case UarchFamily::kSandyBridge: return 95.0;
    case UarchFamily::kIvyBridge: return 95.0;
    case UarchFamily::kHaswell: return 90.0;
    case UarchFamily::kBroadwell: return 105.0;
    case UarchFamily::kSkylake: return 105.0;
    case UarchFamily::kAmd10h: return 105.0;
    case UarchFamily::kBulldozer: return 115.0;
    case UarchFamily::kIceLake: return 135.0;
    case UarchFamily::kSapphireRapids: return 185.0;
    case UarchFamily::kZen: return 155.0;
    case UarchFamily::kZen2: return 180.0;
    case UarchFamily::kZen3: return 200.0;
    case UarchFamily::kZen4: return 250.0;
  }
  return 95.0;
}

/// Work-in-progress record before curve synthesis.
struct Draft {
  int hw_year = 0;
  const power::UarchInfo* uarch = nullptr;
  double ep_target = 0.6;
  double peak_spot = 1.0;
  double pinned_score = 0.0;  // 0 = use the year target
  int nodes = 1;
  int chips = 2;
  int cores_per_chip = 8;
  double mpc = 1.0;
  double ee_multiplier = 1.0;
  bool is_exemplar = false;
  bool dual_peak = false;
  std::string_view note;
  double score_mean = 0.0;
  double score_sd_rel = 0.15;
  double ep_floor = 0.05;
};

/// Cores per chip typical of a codename's era.
int default_cores_per_chip(const power::UarchInfo& info, Rng& rng) {
  using power::UarchFamily;
  switch (info.family) {
    case UarchFamily::kNetburst: return 1 + static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kCore: return 2 + 2 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kNehalem:
      return info.codename == "Lynnfield" ? 4
                                          : 4 + 2 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kSandyBridge: return 8;
    case UarchFamily::kIvyBridge: return 10;
    case UarchFamily::kHaswell: return 12;
    case UarchFamily::kBroadwell: return 16;
    case UarchFamily::kSkylake: return 18;
    case UarchFamily::kAmd10h: return 6;
    case UarchFamily::kBulldozer: return 16;
    case UarchFamily::kIceLake:
      return 28 + 4 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kSapphireRapids:
      return 48 + 8 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kZen: return 24 + 8 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kZen2: return 48 + 16 * static_cast<int>(rng.uniform_index(2));
    case UarchFamily::kZen3: return 64;
    case UarchFamily::kZen4:
      return 84 + 12 * static_cast<int>(rng.uniform_index(2));
  }
  return 8;
}

/// Idle-fraction window at which a two-segment curve with the requested EP
/// can place its peak EE at `spot` (see generator.h step 4).
struct IdleWindow {
  double lo = kMinIdle;
  double hi = kMaxIdle;
  double shape_tau = 0.5;
  [[nodiscard]] bool valid() const { return lo < hi; }
};

IdleWindow idle_window_for(double ep, double spot) {
  IdleWindow w;
  if (spot >= 1.0) {
    w.shape_tau = 0.5;
    // Peak at 100%: idle < (1-EP)/tau_shape; slopes non-negative.
    w.lo = std::max(kMinIdle, 1.0 - 2.0 * ep + 0.01);
    w.hi = std::min({kMaxIdle, (1.0 - ep) / w.shape_tau - 0.01,
                     1.0 - ep / (1.0 + w.shape_tau) - 0.01});
  } else {
    w.shape_tau = spot;
    // Peak at tau: idle > (1-EP)/tau; EP feasible: idle <= 1 - EP/(1+tau).
    w.lo = std::max(kMinIdle, (1.0 - ep) / spot + 0.01);
    w.hi = std::min(kMaxIdle, 1.0 - ep / (1.0 + spot) - 0.01);
  }
  return w;
}

/// Minimal EP at which an interior peak at `spot` is feasible (window
/// non-degenerate). Derived from idle_window_for's two bounds.
double min_ep_for_interior_peak(double spot) {
  // (1-EP)/spot + 0.02 <= 1 - EP/(1+spot)  =>  EP >= ...
  // Solve numerically (monotone in EP) to keep the algebra out of the code.
  double lo = 0.0, hi = 1.2;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const IdleWindow w = idle_window_for(mid, spot);
    (w.valid() ? hi : lo) = mid;
  }
  return hi;
}

/// One synthesized measurement sheet.
struct CurveBuild {
  metrics::PowerCurve curve;
  double measured_ep = 0.0;
};

/// Discretises the model, applies jitter while preserving monotonicity and
/// the peak-EE spot, and scales to absolute watts/ops.
CurveBuild build_curve(const metrics::TwoSegmentPowerModel& model,
                       double target_spot, bool dual_peak, double peak_watts,
                       double overall_score, double jitter_sd, Rng& rng) {
  std::array<double, kNumLoadLevels> norm{};
  const auto spot_level_result =
      metrics::level_of_utilization(std::min(target_spot, 1.0));
  EPSERVE_EXPECTS(spot_level_result.ok());  // spots are planned on the grid
  const std::size_t spot_level = spot_level_result.value();

  // The model is fixed across retry attempts; evaluate the sheet once.
  std::array<double, kNumLoadLevels> base{};
  model.power_batch(kLoadLevels, base);

  for (int attempt = 0;; ++attempt) {
    const double sd = jitter_sd * std::pow(0.5, attempt);
    for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
      double w = base[i];
      if (attempt < 6 && sd > 0.0) {
        w *= 1.0 + std::clamp(rng.normal(0.0, sd), -2.5 * sd, 2.5 * sd);
      }
      norm[i] = w;
    }
    // Monotone forward pass, then renormalise to the 100% level.
    for (std::size_t i = 1; i < kNumLoadLevels; ++i) {
      norm[i] = std::max(norm[i], norm[i - 1]);
    }
    for (std::size_t i = 0; i < kNumLoadLevels; ++i) norm[i] /= norm.back();

    if (dual_peak) {
      // Tie EE at 90% to EE at 80% exactly: w(0.9) = (0.9/0.8) * w(0.8).
      norm[8] = norm[7] * (0.9 / 0.8);
      if (norm[8] > 1.0) {
        telemetry::count("generate.jitter_retries");
        continue;  // infeasible jitter draw; retry
      }
    }

    // The jitter must not move the peak-EE level (ops are linear in load, so
    // the peak level is argmax u/norm(u)).
    std::size_t argmax = 0;
    double best = 0.0;
    for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
      const double ee = kLoadLevels[i] / norm[i];
      if (ee > best + 1e-12) {
        best = ee;
        argmax = i;
      }
    }
    if (argmax != spot_level && attempt < 8) {
      telemetry::count("generate.jitter_retries");
      continue;
    }

    const double idle_norm =
        std::min(model.power(0.0), norm.front() * 0.999);
    std::array<double, kNumLoadLevels> watts{};
    std::array<double, kNumLoadLevels> ops{};
    double watts_sum = idle_norm * peak_watts;
    for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
      watts[i] = norm[i] * peak_watts;
      watts_sum += watts[i];
    }
    // Choose peak ops so the overall score lands exactly on target:
    // score = (peak_ops * sum(u_i)) / (sum(watts) + idle).
    constexpr double kLoadSum = 5.5;  // 0.1 + 0.2 + ... + 1.0
    const double peak_ops = overall_score * watts_sum / kLoadSum;
    for (std::size_t i = 0; i < kNumLoadLevels; ++i) {
      ops[i] = peak_ops * kLoadLevels[i];
    }
    CurveBuild out{metrics::PowerCurve(watts, ops, idle_norm * peak_watts),
                   0.0};
    out.measured_ep = metrics::energy_proportionality(out.curve);
    return out;
  }
}

/// Phase-4 curve synthesis shared by the quota (477) and scaled paths: turns
/// a finished Draft into a ServerRecord (pub_year left equal to hw_year).
/// All randomness comes from `rng` — the caller hands the server's private
/// substream — and the draw order in here is a frozen part of the
/// byte-identity contract for both populations.
Result<ServerRecord> synthesize_record(Draft d, std::uint64_t server_index,
                                       double curve_jitter_sd,
                                       double power_spread, Rng& rng) {
  EPSERVE_ENSURES(d.uarch != nullptr);

  // Per-year floor keeps pinned minima (e.g. 2016's 0.73 exemplar) the
  // actual minima after the chip/MPC shifts.
  if (!d.is_exemplar) {
    d.ep_target = std::max(d.ep_target, d.ep_floor);
  }

  // Idle fraction inside the feasibility window, near the codename's
  // typical value.
  IdleWindow window = idle_window_for(d.ep_target, d.peak_spot);
  if (!window.valid()) {
    // EP target slightly out of range for the requested spot; nudge EP.
    d.ep_target = min_ep_for_interior_peak(d.peak_spot) + 0.02;
    window = idle_window_for(d.ep_target, d.peak_spot);
  }
  EPSERVE_ENSURES(window.valid());
  const double idle = rng.truncated_normal(
      d.uarch->typical_idle_fraction, 0.04, window.lo, window.hi);

  auto model = metrics::TwoSegmentPowerModel::solve(d.ep_target, idle,
                                                    window.shape_tau);
  if (!model.ok()) {
    return model.error();
  }

  // Absolute scale: peak watts from the board, score from the year target.
  const double tdp = family_tdp(d.uarch->family);
  const double total_cores_d =
      static_cast<double>(d.nodes * d.chips * d.cores_per_chip);
  // Floor at 0.5 GB (a 2004 single-core machine at 0.5 GB/core): the
  // floor must never bind, or the server would leave its Table I bucket.
  const double memory_gb =
      std::max(0.5, std::round(d.mpc * total_cores_d * 100.0) / 100.0);
  double peak_watts =
      d.nodes * (d.chips * tdp * 1.25 + 55.0) + memory_gb * 0.25;
  peak_watts *= 1.0 + std::clamp(rng.normal(0.0, power_spread), -0.2, 0.2);

  double score = d.pinned_score;
  if (score <= 0.0) {
    score = d.score_mean * d.ee_multiplier *
            (1.0 + std::clamp(rng.normal(0.0, d.score_sd_rel), -0.4, 0.4));
    score = std::max(score, d.score_mean * 0.3);
  }

  const CurveBuild build =
      build_curve(model.value(), d.peak_spot, d.dual_peak, peak_watts, score,
                  d.is_exemplar ? 0.0 : curve_jitter_sd, rng);

  ServerRecord rec;
  rec.id = static_cast<int>(server_index) + 1;
  rec.vendor = std::string(kVendors[rng.uniform_index(kVendors.size())]);
  rec.model = rec.vendor + " " +
              std::string(d.uarch->codename) + " R" +
              std::to_string(100 + static_cast<int>(rng.uniform_index(900)));
  if (d.nodes > 1) {
    rec.form_factor = FormFactor::kMultiNode;
  } else if (d.is_exemplar && d.note.find("tower") != std::string_view::npos) {
    rec.form_factor = FormFactor::kTower;
  } else if (d.is_exemplar && d.note.find("1U") != std::string_view::npos) {
    rec.form_factor = FormFactor::k1U;
  } else {
    const std::array<FormFactor, 4> common = {FormFactor::k1U, FormFactor::k2U,
                                              FormFactor::k2U, FormFactor::k4U};
    rec.form_factor = common[rng.uniform_index(common.size())];
  }
  rec.nodes = d.nodes;
  rec.chips = d.chips;
  rec.cores_per_chip = d.cores_per_chip;
  rec.cpu_codename = std::string(d.uarch->codename);
  rec.memory_gb = memory_gb;
  rec.hw_year = d.hw_year;
  rec.pub_year = d.hw_year;  // the caller introduces any mismatch
  rec.curve = build.curve;
  return rec;
}

}  // namespace

Result<std::vector<ServerRecord>> generate_population(
    const GeneratorConfig& config) {
  if (!plan_is_consistent()) {
    return Error::failed_precondition(
        "dataset calibration plan is internally inconsistent");
  }
  Rng plan_rng(config.seed);
  // Per-phase wall time; "generate" is the whole pipeline. Counters under
  // "generate.*" are pure functions of the config, so they merge to the same
  // totals at every thread count (docs/OBSERVABILITY.md).
  const telemetry::Span generate_span("generate");
  std::optional<telemetry::Span> phase_span;
  phase_span.emplace("phase1_cohorts");

  // ---- Phase 1: drafts per year (cohorts, exemplars, EP, spots). ----------
  std::vector<Draft> drafts;
  drafts.reserve(kTotalServers);

  for (const auto& plan : year_plans()) {
    // Remaining per-codename slots after exemplars claim theirs.
    std::vector<CodenameQuota> remaining(plan.codenames.begin(),
                                         plan.codenames.end());
    std::vector<PeakSpotQuota> spots(plan.peak_spots.begin(),
                                     plan.peak_spots.end());
    std::vector<Draft> year_drafts;

    for (const auto& ex : exemplars()) {
      if (ex.hw_year != plan.year) continue;
      for (auto& q : remaining) {
        if (q.codename == ex.codename && q.count > 0) {
          --q.count;
          break;
        }
      }
      for (auto& s : spots) {
        if (std::abs(s.utilization - ex.peak_spot) < 1e-9 && s.count > 0) {
          --s.count;
          break;
        }
      }
      Draft d;
      d.hw_year = plan.year;
      d.uarch = power::find_uarch(ex.codename);
      d.ep_target = ex.ep;
      d.peak_spot = ex.peak_spot;
      d.pinned_score = ex.overall_score;
      d.chips = ex.chips;
      d.cores_per_chip = ex.cores_per_chip;
      d.is_exemplar = true;
      d.dual_peak = ex.dual_peak_spot;
      d.note = ex.note;
      d.score_mean = plan.score_mean;
      d.score_sd_rel = plan.score_sd_rel;
      year_drafts.push_back(d);
    }

    // Sample the rest of the year's cohort.
    for (const auto& q : remaining) {
      for (int i = 0; i < q.count; ++i) {
        Draft d;
        d.hw_year = plan.year;
        d.uarch = power::find_uarch(q.codename);
        d.ep_target = plan_rng.truncated_normal(q.ep_mean, q.ep_sd,
                                                q.ep_mean - 2.5 * q.ep_sd,
                                                std::min(0.99, q.ep_mean + 2.5 * q.ep_sd));
        d.cores_per_chip = default_cores_per_chip(*d.uarch, plan_rng);
        d.score_mean = plan.score_mean;
        d.score_sd_rel = plan.score_sd_rel;
        d.ep_floor = plan.ep_floor;
        year_drafts.push_back(d);
      }
    }

    // Interior peak spots go to the highest-EP non-exemplar servers.
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < year_drafts.size(); ++i) {
      if (!year_drafts[i].is_exemplar) open.push_back(i);
    }
    std::sort(open.begin(), open.end(), [&](std::size_t a, std::size_t b) {
      return year_drafts[a].ep_target > year_drafts[b].ep_target;
    });
    std::sort(spots.begin(), spots.end(),
              [](const PeakSpotQuota& a, const PeakSpotQuota& b) {
                return a.utilization < b.utilization;
              });
    std::size_t cursor = 0;
    for (const auto& s : spots) {
      for (int i = 0; i < s.count; ++i) {
        EPSERVE_ENSURES(cursor < open.size());
        Draft& d = year_drafts[open[cursor++]];
        d.peak_spot = s.utilization;
        if (s.utilization < 1.0) {
          // Interior peaks need enough EP headroom; lift quietly if short.
          const double floor_ep =
              min_ep_for_interior_peak(s.utilization) + 0.01;
          d.ep_target = std::max(d.ep_target, floor_ep);
        }
      }
    }

    // Multi-node quota: taken from the low-EP tail (the high-EP heads hold
    // the interior peak spots). Walking the tail upward in the plan's quota
    // order (2, 8, 4, 16 where present) gives 16-node systems the highest
    // base EPs and parks 8-node systems below 4-node ones — the Fig.13
    // economies-of-scale ordering with its dip at 8 nodes — on top of
    // node_ep_shift().
    std::size_t node_cursor = 0;
    for (const auto& nq : plan.multi_node) {
      for (int i = 0; i < nq.count; ++i) {
        EPSERVE_ENSURES(node_cursor < open.size());
        Draft& d = year_drafts[open[open.size() - 1 - node_cursor++]];
        d.nodes = nq.nodes;
        d.chips = 2;
        d.ep_target =
            std::min(0.99, d.ep_target + node_ep_shift(nq.nodes));
      }
    }

    for (auto& d : year_drafts) drafts.push_back(std::move(d));
  }
  EPSERVE_ENSURES(static_cast<int>(drafts.size()) == kTotalServers);
  phase_span.emplace("phase2_chips");

  // ---- Phase 2: chip counts for single-node servers (global quotas). ------
  {
    std::vector<ChipAdjust> chip_pool(chip_adjusts().begin(),
                                      chip_adjusts().end());
    for (auto& d : drafts) {
      if (d.nodes > 1) continue;
      if (d.is_exemplar) {
        // Exemplars have pinned chip counts and EP; just consume the quota.
        for (auto& c : chip_pool) {
          if (c.chips == d.chips && c.single_node_count > 0) {
            --c.single_node_count;
            break;
          }
        }
        continue;
      }
      // Era weighting: 4- and 8-chip boards live mostly in 2008-2013.
      std::vector<double> weights;
      for (const auto& c : chip_pool) {
        double w = static_cast<double>(c.single_node_count);
        if ((c.chips >= 4) && (d.hw_year < 2008 || d.hw_year > 2013)) {
          w *= 0.05;
        }
        weights.push_back(w);
      }
      const std::size_t pick = plan_rng.categorical(weights);
      auto& chosen = chip_pool[pick];
      --chosen.single_node_count;
      d.chips = chosen.chips;
      d.ep_target = std::clamp(d.ep_target + chosen.ep_shift, 0.06, 0.99);
      d.ee_multiplier *= chosen.ee_multiplier;
    }
  }

  phase_span.emplace("phase3_mpc");

  // ---- Phase 3: memory-per-core assignment (global Table I quotas). -------
  {
    std::vector<MpcQuota> mpc_pool(mpc_quotas().begin(), mpc_quotas().end());
    for (auto& d : drafts) {
      std::vector<double> weights;
      for (const auto& q : mpc_pool) {
        double w = static_cast<double>(q.count);
        if (d.hw_year < q.preferred_from_year) w *= 0.03;
        weights.push_back(w);
      }
      const std::size_t pick = plan_rng.categorical(weights);
      auto& chosen = mpc_pool[pick];
      --chosen.count;
      d.mpc = chosen.gb_per_core;
      d.ee_multiplier *= chosen.ee_multiplier;
      if (!d.is_exemplar) {
        d.ep_target = std::clamp(d.ep_target + chosen.ep_shift, 0.06, 0.99);
      }
    }
  }

  phase_span.emplace("phase4_curves");
  telemetry::count("generate.records", drafts.size());

  // ---- Phase 4: synthesize curves and assemble records. -------------------
  // The per-server solve loop is the generator's hot path and every solve is
  // independent, so it fans out over a thread pool. Server i draws from
  // rng.substream(i) — a pure function of the post-phase-3 generator state
  // and the server index — which makes the records byte-identical for every
  // thread count and schedule (threads == 1 runs the plain serial loop).
  // Substream index offset for the curve-synthesis phase. Like the default
  // seed itself, this constant is part of the dataset calibration: it selects
  // the draw set under which the default seed reproduces the paper's soft
  // targets (Fig.14 score ordering et al. — chosen for the widest margins on
  // the small 4-/8-chip groups). Hard quotas hold for any value.
  constexpr std::uint64_t kCurveSynthesisSalt = 4;
  const Rng rng_base = plan_rng;  // post-phase-3 state seeds the substreams
  const std::size_t thread_count = resolve_thread_count(config.threads);
  const auto pool = make_worker_pool(thread_count);
  std::vector<ServerRecord> records(drafts.size());
  std::vector<std::optional<Error>> solve_errors(drafts.size());

  parallel_for(pool.get(), drafts.size(), [&](std::size_t server_index) {
    // synthesize_record takes the draft by value: the feasibility nudges in
    // there must not leak across tasks (and phase 5 never re-reads drafts).
    Rng rng = rng_base.substream(server_index + kCurveSynthesisSalt);
    auto rec = synthesize_record(drafts[server_index], server_index,
                                 config.curve_jitter_sd, config.power_spread,
                                 rng);
    if (!rec.ok()) {
      solve_errors[server_index] = rec.error();
      return;
    }
    records[server_index] = std::move(rec).take();
  });

  for (const auto& error : solve_errors) {
    if (error.has_value()) return *error;
  }

  phase_span.emplace("phase5_mismatches");

  // ---- Phase 5: published-year mismatches (74 results). -------------------
  {
    auto offsets = year_mismatch_offsets();
    std::vector<int> offset_pool(offsets.begin(), offsets.end());

    // Mandatory: every pre-2007 machine published in the benchmark era.
    for (auto& rec : records) {
      if (rec.hw_year >= 2007) continue;
      const int needed = 2007 - rec.hw_year;
      // Take the largest available offset that is >= needed.
      auto best = offset_pool.end();
      for (auto it = offset_pool.begin(); it != offset_pool.end(); ++it) {
        if (*it >= needed && (best == offset_pool.end() || *it > *best)) best = it;
      }
      EPSERVE_ENSURES(best != offset_pool.end());
      rec.pub_year = rec.hw_year + *best;
      offset_pool.erase(best);
    }
    // The single negative offset goes to a 2016 machine (published 2015).
    if (auto neg = std::find(offset_pool.begin(), offset_pool.end(), -1); neg != offset_pool.end()) {
      for (auto& rec : records) {
        if (rec.hw_year == 2016 && rec.pub_year == rec.hw_year) {
          rec.pub_year = 2015;
          offset_pool.erase(neg);
          break;
        }
      }
    }
    // Spread the rest over 2007-2015 hardware, deterministic stride.
    std::size_t idx = 0;
    for (auto& rec : records) {
      if (offset_pool.empty()) break;
      ++idx;
      if (rec.pub_year != rec.hw_year) continue;
      if (rec.hw_year < 2007 || rec.hw_year > 2015) continue;
      if (idx % 5 != 0) continue;  // stride keeps mismatches spread out
      // Find an offset keeping pub_year within the dataset window.
      for (auto it = offset_pool.begin(); it != offset_pool.end(); ++it) {
        if (rec.hw_year + *it <= 2016 && *it > 0) {
          rec.pub_year = rec.hw_year + *it;
          offset_pool.erase(it);
          break;
        }
      }
    }
    // If the stride left offsets unassigned, sweep once more without it.
    for (auto& rec : records) {
      if (offset_pool.empty()) break;
      if (rec.pub_year != rec.hw_year) continue;
      if (rec.hw_year < 2007 || rec.hw_year > 2015) continue;
      for (auto it = offset_pool.begin(); it != offset_pool.end(); ++it) {
        if (rec.hw_year + *it <= 2016 && *it > 0) {
          rec.pub_year = rec.hw_year + *it;
          offset_pool.erase(it);
          break;
        }
      }
    }
    EPSERVE_ENSURES(offset_pool.empty());
  }

  return records;
}

Result<std::vector<std::vector<ServerRecord>>> generate_ensemble(
    std::span<const std::uint64_t> seeds, const GeneratorConfig& base,
    ThreadPool* pool) {
  // One task per seed; each member forces the generator's serial path so a
  // member never contends for the ensemble's pool from inside a worker.
  // Substream discipline makes every member byte-identical to a standalone
  // generate_population() call, so the split is purely a scheduling choice.
  std::vector<std::vector<ServerRecord>> members(seeds.size());
  std::vector<std::optional<Error>> member_errors(seeds.size());
  parallel_for(pool, seeds.size(), [&](std::size_t member_index) {
    GeneratorConfig config = base;
    config.seed = seeds[member_index];
    config.threads = 1;
    auto population = generate_population(config);
    if (!population.ok()) {
      member_errors[member_index] = population.error();
      return;
    }
    members[member_index] = std::move(population).take();
  });
  for (const auto& error : member_errors) {
    if (error.has_value()) return *error;
  }
  return members;
}

// --- Scaled (2007-2023) population -----------------------------------------

namespace {

/// Precomputed categorical weight tables for the scaled population: one
/// read-only bundle built per generate call from calibration's scaled plan,
/// shared by every worker (the per-server sampler only reads it).
struct ScaledTables {
  std::span<const YearPlan> plans;
  std::vector<double> year_weights;
  std::vector<std::vector<double>> codename_weights;  // per year
  std::vector<std::vector<double>> spot_weights;      // per year
  /// Node pick per year: [0] = single-node remainder, [k>0] maps to
  /// plans[y].multi_node[k-1].
  std::vector<std::vector<double>> node_weights;
  /// EP floor per peak-spot entry (interior peaks need enough headroom for a
  /// non-degenerate idle window; 0 for the 100% spot).
  std::vector<std::vector<double>> spot_floor_ep;
  /// Era-weighted chip / MPC pools per year — the same weighting rules the
  /// quota path's phases 2-3 apply, used as probabilities instead of pools.
  std::vector<std::vector<double>> chip_weights;
  std::vector<std::vector<double>> mpc_weights;
  /// Published-year mismatch offsets with the 477 plan's frequencies.
  std::vector<int> mismatch_offsets;
  std::vector<double> mismatch_weights;
};

ScaledTables build_scaled_tables() {
  ScaledTables t;
  t.plans = scaled_year_plans();
  const std::size_t years = t.plans.size();
  t.year_weights.reserve(years);
  t.codename_weights.resize(years);
  t.spot_weights.resize(years);
  t.node_weights.resize(years);
  t.spot_floor_ep.resize(years);
  t.chip_weights.resize(years);
  t.mpc_weights.resize(years);
  for (std::size_t y = 0; y < years; ++y) {
    const YearPlan& plan = t.plans[y];
    t.year_weights.push_back(static_cast<double>(plan.count));
    for (const auto& q : plan.codenames) {
      t.codename_weights[y].push_back(static_cast<double>(q.count));
    }
    for (const auto& s : plan.peak_spots) {
      t.spot_weights[y].push_back(static_cast<double>(s.count));
      t.spot_floor_ep[y].push_back(
          s.utilization < 1.0
              ? min_ep_for_interior_peak(s.utilization) + 0.01
              : 0.0);
    }
    int multi = 0;
    for (const auto& nq : plan.multi_node) multi += nq.count;
    t.node_weights[y].push_back(static_cast<double>(plan.count - multi));
    for (const auto& nq : plan.multi_node) {
      t.node_weights[y].push_back(static_cast<double>(nq.count));
    }
    // Era weighting mirrors quota phase 2: 4- and 8-chip boards live mostly
    // in 2008-2013.
    for (const auto& c : chip_adjusts()) {
      double w = static_cast<double>(c.single_node_count);
      if (c.chips >= 4 && (plan.year < 2008 || plan.year > 2013)) w *= 0.05;
      t.chip_weights[y].push_back(w);
    }
    // Era weighting mirrors quota phase 3 (Table I era affinity).
    for (const auto& q : mpc_quotas()) {
      double w = static_cast<double>(q.count);
      if (plan.year < q.preferred_from_year) w *= 0.03;
      t.mpc_weights[y].push_back(w);
    }
  }
  const auto offsets = year_mismatch_offsets();
  std::map<int, int> offset_counts;
  for (const int off : offsets) ++offset_counts[off];
  for (const auto& [off, count] : offset_counts) {
    t.mismatch_offsets.push_back(off);
    t.mismatch_weights.push_back(static_cast<double>(count));
  }
  return t;
}

/// One scaled server: a pure function of (seed, index). Draws its whole
/// cohort (year, codename, EP, spot, nodes/chips, MPC) from the weight
/// tables on a private substream, then reuses the shared phase-4 synthesis.
/// The draw order is a frozen part of the byte-identity contract.
Result<ServerRecord> scaled_server(const ScaledTables& t,
                                   const ScaledConfig& config,
                                   const Rng& rng_base, std::uint64_t index) {
  Rng rng = rng_base.substream(index);
  const std::size_t y = rng.categorical(t.year_weights);
  const YearPlan& plan = t.plans[y];
  const CodenameQuota& quota =
      plan.codenames[rng.categorical(t.codename_weights[y])];

  Draft d;
  d.hw_year = plan.year;
  d.uarch = power::find_uarch(quota.codename);
  d.ep_target = rng.truncated_normal(
      quota.ep_mean, quota.ep_sd, quota.ep_mean - 2.5 * quota.ep_sd,
      std::min(0.99, quota.ep_mean + 2.5 * quota.ep_sd));
  d.cores_per_chip = default_cores_per_chip(*d.uarch, rng);
  d.score_mean = plan.score_mean;
  d.score_sd_rel = plan.score_sd_rel;
  d.ep_floor = plan.ep_floor;

  // Peak-EE spot; interior peaks lift EP into the feasible band, matching
  // the paper's high-EP/interior-peak coupling the quota path encodes by
  // assigning interior spots to the EP-sorted heads.
  const std::size_t spot = rng.categorical(t.spot_weights[y]);
  d.peak_spot = plan.peak_spots[spot].utilization;
  d.ep_target = std::max(d.ep_target, t.spot_floor_ep[y][spot]);

  // Node count; multi-node systems are 2-chip per node (Fig.13 convention).
  const std::size_t node_pick = rng.categorical(t.node_weights[y]);
  if (node_pick > 0) {
    d.nodes = plan.multi_node[node_pick - 1].nodes;
    d.chips = 2;
    d.ep_target = std::min(0.99, d.ep_target + node_ep_shift(d.nodes));
  } else {
    const ChipAdjust& chip =
        chip_adjusts()[rng.categorical(t.chip_weights[y])];
    d.chips = chip.chips;
    d.ep_target = std::clamp(d.ep_target + chip.ep_shift, 0.06, 0.99);
    d.ee_multiplier *= chip.ee_multiplier;
  }

  // Memory per core (Table I shape, era-weighted).
  const MpcQuota& mpc = mpc_quotas()[rng.categorical(t.mpc_weights[y])];
  d.mpc = mpc.gb_per_core;
  d.ee_multiplier *= mpc.ee_multiplier;
  d.ep_target = std::clamp(d.ep_target + mpc.ep_shift, 0.06, 0.99);

  auto rec = synthesize_record(d, index, config.curve_jitter_sd,
                               config.power_spread, rng);
  if (!rec.ok()) return rec.error();
  ServerRecord out = std::move(rec).take();

  // Published-year mismatch at the 477 plan's rate (74/477), offsets drawn
  // with the plan's frequencies and clamped to the 2007-2023 window.
  if (rng.uniform_index(477) < 74) {
    const int off = t.mismatch_offsets[rng.categorical(t.mismatch_weights)];
    out.pub_year = std::clamp(out.hw_year + off, 2007, 2023);
  }
  return out;
}

}  // namespace

Result<std::uint64_t> generate_population_chunked(const ScaledConfig& config,
                                                  std::size_t chunk_size,
                                                  const ChunkSink& sink) {
  if (chunk_size == 0) {
    return Error::invalid_argument("chunk_size must be positive");
  }
  if (!sink) {
    return Error::invalid_argument("chunk sink must be callable");
  }
  if (!scaled_plan_is_consistent()) {
    return Error::failed_precondition(
        "scaled cohort plan is internally inconsistent");
  }
  // Record ids are int32 (index + 1); refuse populations that would wrap.
  if (config.servers >=
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
    return Error::out_of_range(
        "scaled population of " + std::to_string(config.servers) +
        " servers exceeds the int32 record-id space");
  }

  const telemetry::Span generate_span("generate_scaled");
  telemetry::count("generate.scaled_records", config.servers);
  const ScaledTables tables = build_scaled_tables();
  const Rng rng_base(config.seed);
  const std::size_t thread_count = resolve_thread_count(config.threads);
  const auto pool = make_worker_pool(thread_count);

  // Double-buffered: while the pool's workers generate chunk k+1 into one
  // buffer, the driving thread hands chunk k (the other buffer) to the sink
  // as parallel_for's prologue, then joins the generation. Chunks still
  // reach the sink from this thread in index order, each only after its own
  // errors were checked; inside a chunk every server draws from its own
  // substream, so neither the chunk size nor the thread count can move a
  // single byte of output.
  std::array<std::vector<ServerRecord>, 2> buffers;
  std::vector<std::optional<Error>> chunk_errors;
  std::span<const ServerRecord> ready;  // generated and checked, not sunk
  std::uint64_t ready_first = 0;
  const std::function<void()> emit_ready = [&] {
    if (ready.empty()) return;
    telemetry::count("generate.chunks");
    sink(ready, ready_first);
  };
  for (std::uint64_t first = 0; first < config.servers; first += chunk_size) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_size, config.servers - first));
    std::vector<ServerRecord>& chunk = buffers[(first / chunk_size) % 2];
    chunk.resize(n);
    chunk_errors.assign(n, std::nullopt);
    parallel_for(
        pool.get(), n,
        [&](std::size_t i) {
          auto rec = scaled_server(tables, config, rng_base, first + i);
          if (!rec.ok()) {
            chunk_errors[i] = rec.error();
            return;
          }
          chunk[i] = std::move(rec).take();
        },
        emit_ready);
    for (const auto& error : chunk_errors) {
      if (error.has_value()) return *error;
    }
    ready = std::span<const ServerRecord>(chunk.data(), n);
    ready_first = first;
  }
  emit_ready();
  return config.servers;
}

Result<std::vector<ServerRecord>> generate_scaled_population(
    const ScaledConfig& config) {
  std::vector<ServerRecord> records;
  records.reserve(static_cast<std::size_t>(config.servers));
  constexpr std::size_t kMaterializeChunk = 65536;
  auto emitted = generate_population_chunked(
      config, kMaterializeChunk,
      [&records](std::span<const ServerRecord> chunk, std::uint64_t) {
        records.insert(records.end(), chunk.begin(), chunk.end());
      });
  if (!emitted.ok()) return emitted.error();
  return records;
}

}  // namespace epserve::dataset
