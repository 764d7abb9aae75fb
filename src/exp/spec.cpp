#include "exp/spec.h"

#include <algorithm>
#include <utility>

#include "cluster/idle_model.h"
#include "cluster/matrix.h"
#include "cluster/trace.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/strings.h"

namespace epserve::exp {
namespace {

constexpr std::string_view kSpecSchema = "epserve-exp-spec-v1";

bool known_policy(const std::string& name) {
  const auto& policies = cluster::day_policies();
  return std::find(policies.begin(), policies.end(), name) != policies.end();
}

bool known_trace(const std::string& name) {
  for (const auto& info : cluster::trace_catalog()) {
    if (info.name == name) return true;
  }
  return false;
}

/// The registry the committed artifacts and CI gates run. Axis values are
/// literal here — a named spec is as declarative as a spec.json document.
const std::vector<Spec>& registry() {
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> out;
    {
      Spec smoke;
      smoke.name = "smoke";
      smoke.description =
          "two-cell CI smoke matrix: 64 servers, one trace, serial "
          "generation";
      smoke.fleet_sizes = {64};
      smoke.policies = {"pack-to-full", "balanced"};
      smoke.traces = {"diurnal"};
      smoke.idle_models = {"none"};
      smoke.seeds = {1};
      smoke.gen_threads = {1};
      out.push_back(std::move(smoke));
    }
    {
      Spec def;
      def.name = "default";
      def.description =
          "the committed sweep (EXPERIMENTS_SWEEPS.md): two fleet sizes x "
          "four policies x three trace classes x two seeds, ACPI idle "
          "ladder";
      def.fleet_sizes = {500, 2000};
      def.policies = {"pack-to-full", "balanced", "optimal-region",
                      "autoscaler"};
      def.traces = {"diurnal", "flash_crowd", "scale_out"};
      def.idle_models = {"acpi"};
      def.seeds = {20230930, 42};
      def.gen_threads = {0};
      out.push_back(std::move(def));
    }
    {
      Spec scale;
      scale.name = "scale";
      scale.description =
          "100k-server fleets over the full trace catalog under both idle "
          "models (minutes of wall clock; not run by CI)";
      scale.fleet_sizes = {100000};
      scale.policies = {"pack-to-full", "balanced", "optimal-region",
                        "autoscaler"};
      scale.traces = {"diurnal", "flash_crowd", "weekly", "scale_out"};
      scale.idle_models = {"none", "acpi"};
      scale.seeds = {20230930};
      scale.gen_threads = {0};
      out.push_back(std::move(scale));
    }
    return out;
  }();
  return specs;
}

std::string known_spec_list() {
  std::vector<std::string> names;
  for (const auto& spec : registry()) names.push_back(spec.name);
  return join(names, ", ");
}

/// Reads a JSON array member of non-negative integers (u64 axis values).
Result<std::vector<std::uint64_t>> u64_axis(const JsonValue& doc,
                                            std::string_view key) {
  const JsonValue* member = doc.find(key);
  if (member == nullptr || !member->is_array()) {
    return Error::parse(std::string(key) + ": expected an array");
  }
  std::vector<std::uint64_t> out;
  out.reserve(member->items().size());
  for (const auto& item : member->items()) {
    if (!item.is_number() || item.as_number() < 0.0 ||
        item.as_number() != static_cast<double>(
                                static_cast<std::uint64_t>(item.as_number()))) {
      return Error::parse(std::string(key) +
                          ": entries must be non-negative integers");
    }
    out.push_back(static_cast<std::uint64_t>(item.as_number()));
  }
  return out;
}

Result<std::vector<std::string>> string_axis(const JsonValue& doc,
                                             std::string_view key) {
  const JsonValue* member = doc.find(key);
  if (member == nullptr || !member->is_array()) {
    return Error::parse(std::string(key) + ": expected an array");
  }
  std::vector<std::string> out;
  out.reserve(member->items().size());
  for (const auto& item : member->items()) {
    if (!item.is_string()) {
      return Error::parse(std::string(key) + ": entries must be strings");
    }
    out.push_back(item.as_string());
  }
  return out;
}

void write_u64_axis(JsonWriter& json, const std::string& key,
                    std::span<const std::uint64_t> values) {
  json.key(key).begin_array();
  for (const auto value : values) json.value(static_cast<std::size_t>(value));
  json.end_array();
}

void write_string_axis(JsonWriter& json, const std::string& key,
                       std::span<const std::string> values) {
  json.key(key).begin_array();
  for (const auto& value : values) json.value(value);
  json.end_array();
}

}  // namespace

Result<bool> validate_spec(const Spec& spec) {
  if (spec.name.empty()) {
    return Error::invalid_argument("spec name must not be empty");
  }
  if (spec.fleet_sizes.empty() || spec.policies.empty() ||
      spec.traces.empty() || spec.idle_models.empty() || spec.seeds.empty() ||
      spec.gen_threads.empty()) {
    return Error::invalid_argument(
        "spec '" + spec.name +
        "': every axis (fleet_sizes, policies, traces, idle_models, seeds, "
        "gen_threads) must be non-empty");
  }
  for (const auto size : spec.fleet_sizes) {
    if (size == 0) {
      return Error::invalid_argument("spec '" + spec.name +
                                     "': fleet sizes must be positive");
    }
  }
  for (const auto& policy : spec.policies) {
    if (!known_policy(policy)) {
      return Error::invalid_argument("spec '" + spec.name +
                                     "': unknown policy '" + policy + "'");
    }
  }
  for (const auto& trace : spec.traces) {
    if (!known_trace(trace)) {
      return Error::invalid_argument("spec '" + spec.name +
                                     "': unknown trace '" + trace + "'");
    }
  }
  for (const auto& idle : spec.idle_models) {
    if (!cluster::IdleModel::by_name(idle).ok()) {
      return Error::invalid_argument("spec '" + spec.name +
                                     "': unknown idle model '" + idle + "'");
    }
  }
  for (const auto threads : spec.gen_threads) {
    if (threads < 0) {
      return Error::invalid_argument(
          "spec '" + spec.name + "': gen_threads must be >= 0 (0 = auto)");
    }
  }
  return true;
}

std::vector<Cell> expand_cells(const Spec& spec) {
  std::vector<Cell> cells;
  cells.reserve(cell_count(spec));
  for (const auto fleet_size : spec.fleet_sizes) {
    for (const auto seed : spec.seeds) {
      for (const auto threads : spec.gen_threads) {
        for (const auto& idle : spec.idle_models) {
          for (const auto& trace : spec.traces) {
            for (const auto& policy : spec.policies) {
              Cell cell;
              cell.fleet_size = fleet_size;
              cell.seed = seed;
              cell.gen_threads = threads;
              cell.idle = idle;
              cell.trace = trace;
              cell.policy = policy;
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

std::size_t cell_count(const Spec& spec) {
  return spec.fleet_sizes.size() * spec.seeds.size() *
         spec.gen_threads.size() * spec.idle_models.size() *
         spec.traces.size() * spec.policies.size();
}

std::vector<std::string_view> spec_names() {
  std::vector<std::string_view> names;
  names.reserve(registry().size());
  for (const auto& spec : registry()) names.emplace_back(spec.name);
  return names;
}

Result<Spec> named_spec(std::string_view name) {
  for (const auto& spec : registry()) {
    if (spec.name == name) return spec;
  }
  return Error::not_found("unknown spec '" + std::string(name) +
                          "' (known specs: " + known_spec_list() + ")");
}

Result<Spec> spec_from_json(std::string_view text) {
  auto parsed = parse_json(text);
  if (!parsed.ok()) return parsed.error();
  return spec_from_value(parsed.value());
}

Result<Spec> spec_from_value(const JsonValue& doc) {
  if (!doc.is_object()) return Error::parse("spec: expected a JSON object");
  auto schema = doc.string_member("schema");
  if (!schema.ok()) return schema.error();
  if (schema.value() != kSpecSchema) {
    return Error::parse("spec: unsupported schema '" + schema.value() +
                        "' (expected " + std::string(kSpecSchema) + ")");
  }
  Spec spec;
  auto name = doc.string_member("name");
  if (!name.ok()) return name.error();
  spec.name = std::move(name).take();
  auto description = doc.string_member_or("description", "");
  if (!description.ok()) return description.error();
  spec.description = std::move(description).take();

  auto fleet_sizes = u64_axis(doc, "fleet_sizes");
  if (!fleet_sizes.ok()) return fleet_sizes.error();
  spec.fleet_sizes = std::move(fleet_sizes).take();
  auto policies = string_axis(doc, "policies");
  if (!policies.ok()) return policies.error();
  spec.policies = std::move(policies).take();
  auto traces = string_axis(doc, "traces");
  if (!traces.ok()) return traces.error();
  spec.traces = std::move(traces).take();
  auto idle_models = string_axis(doc, "idle_models");
  if (!idle_models.ok()) return idle_models.error();
  spec.idle_models = std::move(idle_models).take();
  auto seeds = u64_axis(doc, "seeds");
  if (!seeds.ok()) return seeds.error();
  spec.seeds = std::move(seeds).take();
  auto gen_threads = u64_axis(doc, "gen_threads");
  if (!gen_threads.ok()) return gen_threads.error();
  spec.gen_threads.reserve(gen_threads.value().size());
  for (const auto threads : gen_threads.value()) {
    spec.gen_threads.push_back(static_cast<int>(threads));
  }

  if (auto valid = validate_spec(spec); !valid.ok()) return valid.error();
  return spec;
}

std::string spec_to_json(const Spec& spec) {
  JsonWriter json;
  write_spec(json, spec);
  return json.str();
}

void write_spec(JsonWriter& json, const Spec& spec) {
  json.begin_object();
  json.key("schema").value(std::string(kSpecSchema));
  json.key("name").value(spec.name);
  json.key("description").value(spec.description);
  write_u64_axis(json, "fleet_sizes", spec.fleet_sizes);
  write_string_axis(json, "policies", spec.policies);
  write_string_axis(json, "traces", spec.traces);
  write_string_axis(json, "idle_models", spec.idle_models);
  write_u64_axis(json, "seeds", spec.seeds);
  json.key("gen_threads").begin_array();
  for (const auto threads : spec.gen_threads) json.value(threads);
  json.end_array();
  json.end_object();
}

}  // namespace epserve::exp
