// config_codec.h — FlowConfig JSON parse side (mirror of flow/config_json).
//
// Reuses the strict recursive-descent parser from src/report (the exact
// mirror of the to_chars emitters), so a config that round-trips through
// the wire reconstructs bit-identically: every double re-parses to the same
// value, and FlowConfig::label() — the service cache key — is byte-stable
// across the client/daemon/worker hops.
//
// Parsing is strict about types but tolerant about presence: absent fields
// keep their FlowConfig defaults (a newer client may omit what it does not
// set), unknown fields are an error (a typo'd knob silently ignored would
// alias distinct sweeps onto one cache key).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "report/json.h"

namespace ffet::serve {

/// Parse one config object ({"tech":"ffet",...}).  nullopt + `error` on a
/// type mismatch, an unknown field, a number its field cannot hold
/// (non-finite, fractional for an integer field, out of the type's range)
/// or a config flow::validate_config rejects.
std::optional<flow::FlowConfig> config_from_json(
    const report::json::Value& obj, std::string* error = nullptr);

/// Parse a submission payload: a JSON array of config objects.
std::optional<std::vector<flow::FlowConfig>> configs_from_json_text(
    std::string_view text, std::string* error = nullptr);

/// A parsed kSubmit payload.  Both wire shapes are accepted: the bare
/// config array of PR 9 clients, and the {"trace_id":"...","configs":[...]}
/// wrapper a tracing client sends to stamp the submission.
struct Submission {
  std::string trace_id;  ///< empty when the client sent a bare array
  std::vector<flow::FlowConfig> configs;
};

std::optional<Submission> submission_from_json_text(
    std::string_view text, std::string* error = nullptr);

}  // namespace ffet::serve
