// ServerRecord: one published-SPECpower-style result.
//
// Mirrors the fields the paper's analyses consume from a published result:
// identity (vendor/model/form factor), topology (nodes, chips, cores),
// processor codename, memory configuration, the two date keys the paper's
// §I re-keying argument revolves around (published year vs hardware
// availability year), and the 11-point measurement sheet.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/power_curve.h"

namespace epserve::dataset {

enum class FormFactor { k1U, k2U, k4U, kTower, kBlade, kMultiNode };

std::string_view form_factor_name(FormFactor ff);

struct ServerRecord {
  int id = 0;
  std::string vendor;
  std::string model;
  FormFactor form_factor = FormFactor::k2U;

  // Topology.
  int nodes = 1;
  int chips = 2;            // sockets per node
  int cores_per_chip = 8;
  std::string cpu_codename; // resolves through power::find_uarch()

  // Memory.
  double memory_gb = 64.0;

  // Dates (the paper's central re-keying distinction).
  int hw_year = 2012;   // hardware availability year
  int pub_year = 2012;  // result publication year

  // Measurements.
  metrics::PowerCurve curve;

  /// Total cores across all nodes and chips, computed in 64 bits: imported
  /// topologies are unbounded ints, and validate_population() reports a
  /// product past int range before anything narrows it.
  [[nodiscard]] std::int64_t total_cores() const {
    return std::int64_t{nodes} * chips * cores_per_chip;
  }

  /// Installed memory per core in GB (the paper's MPC metric).
  [[nodiscard]] double memory_per_core() const {
    return memory_gb / static_cast<double>(total_cores());
  }

  [[nodiscard]] bool is_multi_node() const { return nodes > 1; }

  /// True when the published year differs from the hardware availability
  /// year (15.5% of the paper's 477 results).
  [[nodiscard]] bool year_mismatch() const { return pub_year != hw_year; }
};

}  // namespace epserve::dataset
