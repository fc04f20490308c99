#include "serve/protocol.h"

#include <exception>
#include <utility>

namespace lumos::serve {

api::Scenario WhatIf::to_scenario() const {
  api::Scenario s = api::whatif();
  if (tp > 0) s.with_tensor_parallelism(tp);
  if (pp > 0 && dp > 0) {
    s.with_scaled_parallelism(pp, dp);
  } else if (dp > 0) {
    s.with_data_parallelism(dp);
  } else if (pp > 0) {
    s.with_pipeline_parallelism(pp);
  }
  if (num_layers > 0) s.with_num_layers(num_layers);
  if (d_model > 0) s.with_hidden_size(d_model, d_ff > 0 ? d_ff : 4 * d_model);
  if (fusion) s.with_fusion();
  if (!cost_model.empty()) s.with_cost_model(cost_model);
  if (!hooks.empty()) s.with_hooks(hooks);
  return s;
}

std::string WhatIf::fingerprint() const {
  std::string f;
  f.reserve(64);
  f += "dp=" + std::to_string(dp);
  f += ";pp=" + std::to_string(pp);
  f += ";tp=" + std::to_string(tp);
  f += ";layers=" + std::to_string(num_layers);
  f += ";d_model=" + std::to_string(d_model);
  f += ";d_ff=" + std::to_string(d_ff);
  f += ";fusion=" + std::to_string(fusion ? 1 : 0);
  f += ";cost_model=" + cost_model;
  f += ";hooks=" + hooks;
  return f;
}

namespace {

const char* method_name(Method m) {
  switch (m) {
    case Method::kPredict: return "predict";
    case Method::kStats: return "stats";
    case Method::kPing: return "ping";
    case Method::kShutdown: return "shutdown";
  }
  return "predict";
}

}  // namespace

std::string encode(const Request& request) {
  json::Object obj{{"method", method_name(request.method)},
                   {"id", request.id}};
  if (request.method == Method::kPredict) {
    obj["baseline"] = request.baseline;
    const WhatIf& w = request.whatif;
    json::Object whatif;
    if (w.dp > 0) whatif["dp"] = w.dp;
    if (w.pp > 0) whatif["pp"] = w.pp;
    if (w.tp > 0) whatif["tp"] = w.tp;
    if (w.num_layers > 0) whatif["num_layers"] = w.num_layers;
    if (w.d_model > 0) whatif["d_model"] = w.d_model;
    if (w.d_ff > 0) whatif["d_ff"] = w.d_ff;
    if (w.fusion) whatif["fusion"] = true;
    if (!w.cost_model.empty()) whatif["cost_model"] = w.cost_model;
    if (!w.hooks.empty()) whatif["hooks"] = w.hooks;
    obj["whatif"] = std::move(whatif);
  }
  return json::write(json::Value(std::move(obj)));
}

Status decode_request(std::string_view line, Request& out) try {
  const json::Value v = json::parse(line);
  if (!v.is_object()) return parse_error("request: not a JSON object");
  out.id = v.get_int("id", 0);  // before validation, so errors echo the id

  const std::string method = v.get_string("method", "");
  if (method == "predict") {
    out.method = Method::kPredict;
  } else if (method == "stats") {
    out.method = Method::kStats;
  } else if (method == "ping") {
    out.method = Method::kPing;
  } else if (method == "shutdown") {
    out.method = Method::kShutdown;
  } else {
    return parse_error("request: unknown method '" + method + "'");
  }
  out.baseline = v.get_string("baseline", "");
  out.whatif = WhatIf{};
  if (const json::Value* w = v.as_object().find("whatif");
      w != nullptr && w->is_object()) {
    WhatIf& o = out.whatif;
    o.dp = w->get_int32("dp", 0);
    o.pp = w->get_int32("pp", 0);
    o.tp = w->get_int32("tp", 0);
    o.num_layers = w->get_int32("num_layers", 0);
    o.d_model = w->get_int("d_model", 0);
    o.d_ff = w->get_int("d_ff", 0);
    o.fusion = w->get_bool("fusion", false);  // hand-written clients send 0/1
    o.cost_model = w->get_string("cost_model", "");
    o.hooks = w->get_string("hooks", "");
  }
  if (out.method == Method::kPredict && out.baseline.empty()) {
    return invalid_argument_error("request: predict without a baseline path");
  }
  return Status::ok();
} catch (const std::exception& e) {
  // Malformed JSON, or a number an integer field cannot hold.
  return parse_error(std::string("request: ") + e.what());
}

namespace {

/// error_code travels as the ErrorCode integer; rebuild a same-code Status
/// client-side so callers can switch on it exactly as for local failures.
Status status_from_wire(std::int64_t code, std::string message) {
  switch (static_cast<ErrorCode>(code)) {
    case ErrorCode::kOk: return Status::ok();
    case ErrorCode::kInvalidArgument:
      return invalid_argument_error(std::move(message));
    case ErrorCode::kUnknownModel:
      return unknown_model_error(std::move(message));
    case ErrorCode::kParseError: return parse_error(std::move(message));
    case ErrorCode::kCyclicGraph: return cyclic_graph_error(std::move(message));
    case ErrorCode::kDeadlock: return deadlock_error(std::move(message));
    case ErrorCode::kUnsupported: return unsupported_error(std::move(message));
    case ErrorCode::kIoError: return io_error(std::move(message));
    case ErrorCode::kValidationError:
      return validation_error(std::move(message));
    case ErrorCode::kFailedPrecondition:
      return failed_precondition_error(std::move(message));
    case ErrorCode::kDeadlineExceeded:
      return deadline_exceeded_error(std::move(message));
    case ErrorCode::kInternal: break;
  }
  return internal_error(std::move(message));
}

}  // namespace

Status decode_reply(std::string_view line, Reply& out) try {
  json::Value v = json::parse(line);
  if (!v.is_object()) return parse_error("reply: not a JSON object");
  out.id = v.get_int("id", 0);
  out.ok = v.get_bool("ok", false);
  out.error = out.ok ? Status::ok()
                     : status_from_wire(
                           v.get_int("error_code",
                                     static_cast<std::int64_t>(
                                         ErrorCode::kInternal)),
                           v.get_string("error", "unknown server error"));
  out.body = std::move(v);
  return Status::ok();
} catch (const std::exception& e) {
  return parse_error(std::string("reply: ") + e.what());
}

std::string error_reply(std::int64_t id, const Status& status) {
  return json::write(json::Value(json::Object{
      {"id", id},
      {"ok", false},
      {"error_code", static_cast<std::int64_t>(status.code())},
      {"error", status.message()}}));
}

std::string pong_reply(std::int64_t id) {
  return json::write(
      json::Value(json::Object{{"id", id}, {"ok", true}, {"pong", true}}));
}

}  // namespace lumos::serve
