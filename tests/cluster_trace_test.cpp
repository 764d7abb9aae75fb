// Trace library + idle model + policy/trace matrix (ROADMAP item 3):
// registry invariants, checked-vs-clamped construction, idle-state energy
// conservation, and matrix determinism across thread counts.
#include "cluster/trace.h"

#include <gtest/gtest.h>

#include <array>

#include <utility>

#include "cluster/day_simulation.h"
#include "cluster/idle_model.h"
#include "cluster/matrix.h"
#include "metrics/curve_models.h"

namespace epserve::cluster {
namespace {

dataset::ServerRecord make_server(int id, double ep, double idle, double tau) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = id;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 2e6);
  return r;
}

std::vector<dataset::ServerRecord> records() {
  std::vector<dataset::ServerRecord> out;
  out.push_back(make_server(1, 0.95, 0.20, 0.7));
  out.push_back(make_server(2, 0.90, 0.25, 0.8));
  out.push_back(make_server(3, 0.75, 0.30, 0.6));
  out.push_back(make_server(4, 0.60, 0.40, 0.5));
  out.push_back(make_server(5, 0.45, 0.55, 0.5));
  out.push_back(make_server(6, 0.30, 0.70, 0.5));
  return out;
}

// --- Registry invariants ---------------------------------------------------

TEST(TraceRegistry, CatalogListsTheFourTraceClasses) {
  const auto names = trace_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "diurnal");
  EXPECT_EQ(names[1], "flash_crowd");
  EXPECT_EQ(names[2], "weekly");
  EXPECT_EQ(names[3], "scale_out");
}

TEST(TraceRegistry, EveryTraceSatisfiesTheSharedInvariants) {
  // Per-trace slot counts are part of the contract (the matrix and the CLI
  // catalog table quote them); demand must be a valid simulate_day input.
  const std::pair<std::string_view, std::pair<std::size_t, double>> expected[] =
      {{"diurnal", {24, 1.0}},
       {"flash_crowd", {48, 0.5}},
       {"weekly", {168, 1.0}},
       {"scale_out", {24, 1.0}}};
  for (const auto& [name, shape] : expected) {
    auto trace = make_trace(name);
    ASSERT_TRUE(trace.ok()) << name;
    EXPECT_EQ(trace.value().demand.size(), shape.first) << name;
    EXPECT_EQ(trace.value().slot_hours, shape.second) << name;
    EXPECT_GT(trace.value().slot_hours, 0.0) << name;
    for (const double d : trace.value().demand) {
      EXPECT_GE(d, 0.0) << name;
      EXPECT_LE(d, 1.0) << name;
    }
  }
}

TEST(TraceRegistry, OnlyScaleOutIsLatencyCritical) {
  for (const auto& info : trace_catalog()) {
    auto trace = make_trace(info.name);
    ASSERT_TRUE(trace.ok());
    EXPECT_EQ(trace.value().latency_critical(), info.latency_critical);
    if (info.latency_critical) {
      ASSERT_EQ(trace.value().max_idle_state.size(),
                trace.value().demand.size());
      for (const int cap : trace.value().max_idle_state) {
        EXPECT_GE(cap, 1);
        EXPECT_LE(cap, 2);  // C1/C3 only — deep states forbidden
      }
    } else {
      EXPECT_TRUE(trace.value().max_idle_state.empty());
    }
  }
}

TEST(TraceRegistry, UnknownNameListsTheKnownNames) {
  const auto missing = make_trace("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Error::Code::kNotFound);
  EXPECT_NE(missing.error().message.find(
                "diurnal, flash_crowd, weekly, scale_out"),
            std::string::npos);
}

TEST(TraceRegistry, DefaultDiurnalIsBitIdenticalToTheLegacyConstructor) {
  // The 24 slot values of the retired clamping diurnal constructor at its
  // defaults (base 0.25, amplitude 0.45), as exact hex-float constants.
  constexpr std::array<double, 24> kLegacyDefault = {
      0x1.7333333333333p-2, 0x1.437b8b846bebp-2,  0x1.1ede24aa510b3p-2,
      0x1.07d9c6cb8dd37p-2, 0x1p-2,               0x1.07d9c6cb8dd37p-2,
      0x1.1ede24aa510b4p-2, 0x1.437b8b846beb1p-2, 0x1.7333333333333p-2,
      0x1.aac4a1ad884ecp-2, 0x1.e666666666666p-2, 0x1.1104158fa23fp-1,
      0x1.2cccccccccccdp-1, 0x1.44a8a0a43070ep-1, 0x1.56f754113de0cp-1,
      0x1.627983009f7cbp-1, 0x1.6666666666666p-1, 0x1.627983009f7cbp-1,
      0x1.56f754113de0dp-1, 0x1.44a8a0a43070ep-1, 0x1.2cccccccccccdp-1,
      0x1.1104158fa23fp-1,  0x1.e666666666668p-2, 0x1.aac4a1ad884ecp-2,
  };
  const auto checked = make_trace("diurnal");
  ASSERT_TRUE(checked.ok());
  ASSERT_EQ(checked.value().demand.size(), kLegacyDefault.size());
  EXPECT_EQ(checked.value().slot_hours, 1.0);
  for (std::size_t s = 0; s < kLegacyDefault.size(); ++s) {
    EXPECT_EQ(checked.value().demand[s], kLegacyDefault[s]) << "slot " << s;
  }
}

TEST(TraceRegistry, CheckedPathRejectsWhatTheLegacyPathClamps) {
  // Regression for the silent-clamp fix: shapes that push any slot outside
  // [0, 1] are reported, never clamped.
  for (const auto& [base, amplitude] :
       {std::pair{0.9, 0.9}, std::pair{-0.5, 0.3}, std::pair{0.5, 5.0}}) {
    TraceSpec spec;
    spec.name = "diurnal";
    spec.base = base;
    spec.amplitude = amplitude;
    const auto checked = make_trace(spec);
    ASSERT_FALSE(checked.ok()) << base << "/" << amplitude;
    EXPECT_EQ(checked.error().code, Error::Code::kInvalidArgument);
  }
}

// --- Idle model ------------------------------------------------------------

TEST(IdleModel, NoneIsTrivialAndAcpiIsNot) {
  EXPECT_TRUE(IdleModel::none().trivial());
  EXPECT_TRUE(IdleModel::none().validate().ok());
  EXPECT_FALSE(IdleModel::acpi().trivial());
  EXPECT_TRUE(IdleModel::acpi().validate().ok());
  EXPECT_EQ(IdleModel::acpi().deepest(), 4);
  EXPECT_FALSE(IdleModel::by_name("nope").ok());
}

TEST(IdleModel, ValidateRejectsMalformedLadders) {
  IdleModel empty;
  EXPECT_FALSE(empty.validate().ok());

  IdleModel costly_active = IdleModel::none();
  costly_active.states[0].wake_energy_j = 5.0;
  EXPECT_FALSE(costly_active.validate().ok());

  IdleModel rising = IdleModel::acpi();
  rising.states[2].power_fraction = 0.9;  // deeper state drawing more
  EXPECT_FALSE(rising.validate().ok());

  IdleModel cheap_deep = IdleModel::acpi();
  cheap_deep.states[4].wake_energy_j = 0.0;  // deeper state waking cheaper
  EXPECT_FALSE(cheap_deep.validate().ok());
}

TEST(IdleModel, ZeroCostMultiStateModelConservesTheLegacyAccounting) {
  // Energy conservation: a ladder whose states draw full active-idle power
  // and wake for free exercises the idle pass without being able to change
  // any accounted quantity — the results must equal the legacy path bitwise.
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  IdleModel free_ladder;
  free_ladder.states = {{"C0", 1.0, 0.0, 0.0}, {"C1", 1.0, 0.0, 0.0}};
  ASSERT_TRUE(free_ladder.validate().ok());
  ASSERT_FALSE(free_ladder.trivial());
  const PackToFullPolicy pack;
  for (const auto& info : trace_catalog()) {
    auto trace = make_trace(info.name);
    ASSERT_TRUE(trace.ok());
    const auto legacy = simulate_day(pack, fleet, trace.value());
    const auto modeled =
        simulate_day(pack, fleet, trace.value(), free_ladder);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(modeled.ok());
    EXPECT_EQ(modeled.value().energy_kwh, legacy.value().energy_kwh)
        << info.name;
    EXPECT_EQ(modeled.value().served_gops, legacy.value().served_gops)
        << info.name;
    EXPECT_EQ(modeled.value().avg_efficiency, legacy.value().avg_efficiency)
        << info.name;
    EXPECT_EQ(modeled.value().wake_energy_kwh, 0.0);
    EXPECT_EQ(modeled.value().wake_lost_gops, 0.0);
  }
}

TEST(IdleModel, AcpiLadderSavesEnergyAndChargesWakesOnFlashCrowd) {
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  auto trace = make_trace("flash_crowd");
  ASSERT_TRUE(trace.ok());
  const PackToFullPolicy pack;
  const auto baseline = simulate_day(pack, fleet, trace.value());
  const auto modeled =
      simulate_day(pack, fleet, trace.value(), IdleModel::acpi());
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(modeled.ok());
  // Parked servers sleeping below active idle save net energy even after
  // the burst's wake charges; the wake accounting must be visible.
  EXPECT_LT(modeled.value().energy_kwh, baseline.value().energy_kwh);
  EXPECT_GT(modeled.value().wake_count, 0u);
  EXPECT_GT(modeled.value().wake_energy_kwh, 0.0);
  EXPECT_GT(modeled.value().idle_energy_kwh, 0.0);
  EXPECT_GT(modeled.value().wake_lost_gops, 0.0);
  EXPECT_LT(modeled.value().served_gops, baseline.value().served_gops);
}

TEST(IdleModel, ScaleOutIdleCapCostsEnergyVersusUncappedSleep) {
  // The latency-critical trace forbids deep states, so its parked servers
  // burn more residency power than the same demand shape without the cap.
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  auto capped = make_trace("scale_out");
  ASSERT_TRUE(capped.ok());
  DemandTrace uncapped = capped.value();
  uncapped.max_idle_state.clear();
  const PackToFullPolicy pack;
  const auto with_cap =
      simulate_day(pack, fleet, capped.value(), IdleModel::acpi());
  const auto without_cap =
      simulate_day(pack, fleet, uncapped, IdleModel::acpi());
  ASSERT_TRUE(with_cap.ok());
  ASSERT_TRUE(without_cap.ok());
  EXPECT_GT(with_cap.value().idle_energy_kwh,
            without_cap.value().idle_energy_kwh);
  EXPECT_GE(with_cap.value().energy_kwh, without_cap.value().energy_kwh);
}

// --- Policy x trace matrix -------------------------------------------------

TEST(PolicyTraceMatrix, CoversEveryTracePolicyCellOffOneFleet) {
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  const auto run = run_policy_trace_matrix(fleet);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& matrix = run.value();
  EXPECT_EQ(matrix.traces.size(), trace_catalog().size());
  EXPECT_EQ(matrix.policies.size(), 4u);
  ASSERT_EQ(matrix.cells.size(), matrix.traces.size() * matrix.policies.size());
  ASSERT_EQ(matrix.winners.size(), matrix.traces.size());
  for (const auto& verdict : matrix.winners) {
    EXPECT_FALSE(verdict.policy.empty()) << verdict.trace;
    EXPECT_GT(verdict.avg_efficiency, 0.0) << verdict.trace;
  }
  // The autoscaler powers machines off, which scale_out's idle cap forbids.
  for (const auto& cell : matrix.cells) {
    const bool off_policy = cell.policy == "autoscaler";
    const bool critical = cell.trace == "scale_out";
    EXPECT_EQ(cell.eligible, !(off_policy && critical))
        << cell.trace << "/" << cell.policy;
    if (cell.eligible) {
      EXPECT_GT(cell.result.energy_kwh, 0.0)
          << cell.trace << "/" << cell.policy;
    }
  }
}

TEST(PolicyTraceMatrix, ByteIdenticalAtOneAndEightThreads) {
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  MatrixOptions serial;
  serial.threads = 1;
  MatrixOptions parallel;
  parallel.threads = 8;
  const auto a = run_policy_trace_matrix(fleet, serial);
  const auto b = run_policy_trace_matrix(fleet, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().cells.size(), b.value().cells.size());
  for (std::size_t i = 0; i < a.value().cells.size(); ++i) {
    const auto& x = a.value().cells[i];
    const auto& y = b.value().cells[i];
    EXPECT_EQ(x.trace, y.trace);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.eligible, y.eligible);
    EXPECT_EQ(x.result.energy_kwh, y.result.energy_kwh);
    EXPECT_EQ(x.result.served_gops, y.result.served_gops);
    EXPECT_EQ(x.result.avg_efficiency, y.result.avg_efficiency);
    EXPECT_EQ(x.result.idle_energy_kwh, y.result.idle_energy_kwh);
    EXPECT_EQ(x.result.wake_energy_kwh, y.result.wake_energy_kwh);
    EXPECT_EQ(x.result.wake_count, y.result.wake_count);
  }
  // The rendered reports (text and JSON) are therefore byte-identical too.
  EXPECT_EQ(render_matrix_text(a.value()), render_matrix_text(b.value()));
  EXPECT_EQ(render_matrix_json(a.value()), render_matrix_json(b.value()));
}

TEST(PolicyTraceMatrix, RejectsEmptyFleetAndUnknownTrace) {
  // An empty fleet never reaches the matrix: Fleet::build rejects it
  // (FleetBuild.RejectsEmptyFleet).
  const auto fleet_records = records();
  const auto fleet = Fleet::build(fleet_records).take();
  MatrixOptions options;
  options.traces = {"diurnal", "nope"};
  const auto run = run_policy_trace_matrix(fleet, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, Error::Code::kNotFound);
}

}  // namespace
}  // namespace epserve::cluster
