#include "serve/config_codec.h"

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

namespace ffet::serve {

namespace {

using report::json::Value;

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

bool read_field(const std::string& key, const Value& v, flow::FlowConfig& cfg,
                std::string* error) {
  // Numbers are range-checked before the cast: converting a non-finite,
  // fractional or out-of-range double to an integer type is undefined.
  const auto num = [&](auto& dst) {
    using T = std::remove_reference_t<decltype(dst)>;
    if (!v.is_number()) {
      return set_error(error, "config field \"" + key + "\" must be a number");
    }
    const double x = v.number;
    if (!std::isfinite(x)) {
      return set_error(error, "config field \"" + key + "\" must be finite");
    }
    if constexpr (std::is_integral_v<T>) {
      using Lim = std::numeric_limits<T>;
      if (x != std::trunc(x) || x < static_cast<double>(Lim::min()) ||
          x > static_cast<double>(Lim::max())) {
        return set_error(error, "config field \"" + key +
                                    "\" must be an integer in [" +
                                    std::to_string(Lim::min()) + ", " +
                                    std::to_string(Lim::max()) + "]");
      }
    }
    dst = static_cast<T>(x);
    return true;
  };
  const auto str = [&](std::string& dst) {
    if (!v.is_string()) {
      return set_error(error, "config field \"" + key + "\" must be a string");
    }
    dst = v.str;
    return true;
  };
  const auto boolean = [&](bool& dst) {
    if (!v.is_bool()) {
      return set_error(error, "config field \"" + key + "\" must be a bool");
    }
    dst = v.boolean;
    return true;
  };

  if (key == "tech") {
    if (!v.is_string()) {
      return set_error(error, "config field \"tech\" must be a string");
    }
    if (v.str == "ffet") {
      cfg.tech_kind = tech::TechKind::Ffet3p5T;
    } else if (v.str == "cfet") {
      cfg.tech_kind = tech::TechKind::Cfet4T;
    } else {
      return set_error(error, "unknown tech \"" + v.str + "\"");
    }
    return true;
  }
  if (key == "front_layers") return num(cfg.front_layers);
  if (key == "back_layers") return num(cfg.back_layers);
  if (key == "backside_input_fraction") {
    return num(cfg.backside_input_fraction);
  }
  if (key == "target_freq_ghz") return num(cfg.target_freq_ghz);
  if (key == "utilization") return num(cfg.utilization);
  if (key == "aspect_ratio") return num(cfg.aspect_ratio);
  if (key == "rv32_registers") return num(cfg.rv32_registers);
  if (key == "seed") return num(cfg.seed);
  if (key == "simulate_activity") return boolean(cfg.simulate_activity);
  if (key == "activity_cycles") return num(cfg.activity_cycles);
  if (key == "eco_passes") return num(cfg.eco_passes);
  if (key == "threads") return num(cfg.threads);
  if (key == "trace_path") return str(cfg.trace_path);
  if (key == "flow_report_path") return str(cfg.flow_report_path);
  if (key == "ledger_path") return str(cfg.ledger_path);
  // Unknown field: reject.  A knob the daemon does not know cannot key the
  // cache, so accepting it would alias distinct sweeps.
  return set_error(error, "unknown config field \"" + key + "\"");
}

}  // namespace

std::optional<flow::FlowConfig> config_from_json(const Value& obj,
                                                 std::string* error) {
  if (!obj.is_object()) {
    set_error(error, "config point must be a JSON object");
    return std::nullopt;
  }
  flow::FlowConfig cfg;
  for (const auto& [key, v] : obj.members) {
    if (!read_field(key, v, cfg, error)) return std::nullopt;
  }
  // A config the flow would throw on is the client's error, answered here
  // rather than by a worker dying on it.
  if (std::string bad = flow::validate_config(cfg); !bad.empty()) {
    set_error(error, std::move(bad));
    return std::nullopt;
  }
  return cfg;
}

namespace {

std::optional<std::vector<flow::FlowConfig>> configs_from_array(
    const Value& arr, std::string* error) {
  if (!arr.is_array()) {
    set_error(error, "submission must be a JSON array of config objects");
    return std::nullopt;
  }
  std::vector<flow::FlowConfig> out;
  out.reserve(arr.items.size());
  for (std::size_t i = 0; i < arr.items.size(); ++i) {
    auto cfg = config_from_json(arr.items[i], error);
    if (!cfg) {
      if (error) *error = "point " + std::to_string(i) + ": " + *error;
      return std::nullopt;
    }
    out.push_back(std::move(*cfg));
  }
  return out;
}

}  // namespace

std::optional<std::vector<flow::FlowConfig>> configs_from_json_text(
    std::string_view text, std::string* error) {
  std::string perr;
  const auto doc = report::json::parse(text, &perr);
  if (!doc) {
    set_error(error, "malformed submission: " + perr);
    return std::nullopt;
  }
  return configs_from_array(*doc, error);
}

std::optional<Submission> submission_from_json_text(std::string_view text,
                                                    std::string* error) {
  std::string perr;
  const auto doc = report::json::parse(text, &perr);
  if (!doc) {
    set_error(error, "malformed submission: " + perr);
    return std::nullopt;
  }
  Submission sub;
  if (doc->is_array()) {
    auto cfgs = configs_from_array(*doc, error);
    if (!cfgs) return std::nullopt;
    sub.configs = std::move(*cfgs);
    return sub;
  }
  if (!doc->is_object()) {
    set_error(error, "submission must be a JSON array or wrapper object");
    return std::nullopt;
  }
  const Value* configs = nullptr;
  for (const auto& [key, v] : doc->members) {
    if (key == "trace_id") {
      if (!v.is_string()) {
        set_error(error, "submission \"trace_id\" must be a string");
        return std::nullopt;
      }
      sub.trace_id = v.str;
    } else if (key == "configs") {
      configs = &v;
    } else {
      // Same strictness as config fields: an unknown wrapper key is a
      // protocol mismatch, not something to silently drop.
      set_error(error, "unknown submission field \"" + key + "\"");
      return std::nullopt;
    }
  }
  if (configs == nullptr) {
    set_error(error, "submission wrapper is missing \"configs\"");
    return std::nullopt;
  }
  auto cfgs = configs_from_array(*configs, error);
  if (!cfgs) return std::nullopt;
  sub.configs = std::move(*cfgs);
  return sub;
}

}  // namespace ffet::serve
