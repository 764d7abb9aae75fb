#include "dataset/validation.h"

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "power/uarch.h"

namespace epserve::dataset {

namespace {
constexpr int kFirstPlausibleYear = 2000;
constexpr int kLastPlausibleYear = 2030;

/// True when nodes * chips * cores_per_chip (each >= 1) exceeds int range.
/// nodes * chips always fits 64 bits, and the third factor is applied only
/// when that partial product fits an int, so the check cannot overflow.
bool core_count_overflows(const ServerRecord& r) {
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  const std::int64_t node_chips = std::int64_t{r.nodes} * r.chips;
  return node_chips > kMax || node_chips * r.cores_per_chip > kMax;
}
}  // namespace

ValidationReport validate_population(
    const std::vector<ServerRecord>& records) {
  ValidationReport report;
  const auto add = [&report](int id, std::string message) {
    report.issues.push_back({id, std::move(message)});
  };

  if (records.empty()) {
    add(0, "population is empty");
    return report;
  }

  std::set<int> ids;
  for (const auto& r : records) {
    if (!ids.insert(r.id).second) {
      add(r.id, "duplicate record id");
    }
    if (auto valid = r.curve.validate(); !valid.ok()) {
      add(r.id, "invalid curve: " + valid.error().message);
    }
    if (!r.curve.power_monotone()) {
      add(r.id, "power not monotone in load");
    }
    if (power::find_uarch(r.cpu_codename) == nullptr) {
      add(r.id, "unknown CPU codename: " + r.cpu_codename);
    }
    // Memory per core is only meaningful for a positive core count that
    // fits an int.
    bool cores_valid = false;
    if (r.nodes < 1 || r.chips < 1 || r.cores_per_chip < 1) {
      add(r.id, "non-positive topology");
    } else if (core_count_overflows(r)) {
      add(r.id, "core count overflows: " + std::to_string(r.nodes) + " x " +
                    std::to_string(r.chips) + " x " +
                    std::to_string(r.cores_per_chip));
    } else {
      cores_valid = true;
    }
    if (r.memory_gb <= 0.0) {
      add(r.id, "non-positive memory");
    } else if (cores_valid && r.memory_per_core() > 64.0) {
      std::ostringstream oss;
      oss << "implausible memory per core: " << r.memory_per_core()
          << " GB/core";
      add(r.id, oss.str());
    }
    for (const int year : {r.hw_year, r.pub_year}) {
      if (year < kFirstPlausibleYear || year > kLastPlausibleYear) {
        add(r.id, "year outside plausible window: " + std::to_string(year));
      }
    }
    if (r.pub_year < r.hw_year - 1) {
      add(r.id,
          "published more than one year before hardware availability");
    }
  }
  return report;
}

}  // namespace epserve::dataset
