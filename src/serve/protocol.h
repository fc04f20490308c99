// lumos_serve wire protocol: newline-delimited JSON over a Unix domain
// socket. One request per line, one reply line per request, in order.
//
// Request line:
//   {"method":"predict","id":7,"baseline":"/path/base.snap",
//    "whatif":{"dp":8,"fusion":true}}
//   {"method":"stats","id":1}      {"method":"ping","id":2}
//   {"method":"shutdown","id":3}
//
// Reply line (predict):
//   {"id":7,"ok":true,"makespan_ns":...,"makespan_ms":...,"executed":...,
//    "kernels_eliminated":...,"fusion_saved_ns":...,
//    "breakdown":{"exposed_compute_ns":...,"overlapped_ns":...,
//                 "exposed_comm_ns":...,"other_ns":...},
//    "baseline_cached":true,"coalesced":false,"content_hash":"<hex>"}
// The breakdown is the predicted schedule's per-rank average (see
// analysis/breakdown.h), in ns. "content_hash" is the baseline snapshot's
// payload checksum, the engine's cache key (see serve/engine.h).
// Reply line (error):
//   {"id":7,"ok":false,"error_code":5,"error":"deadlock: ..."}
//
// The structs here are the parsed form of those lines; the serving engine
// (serve/engine.h) consumes Request, the server (serve/server.h) produces
// the reply lines. Everything is plain JSON so clients need no library
// beyond a socket and a JSON writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "api/scenario.h"
#include "api/status.h"
#include "json/json.h"

namespace lumos::serve {

/// The what-if manipulation of a predict request: a flat, JSON-friendly
/// subset of api::Scenario's manipulation surface. Zero / empty means "not
/// requested".
struct WhatIf {
  std::int32_t dp = 0;          ///< with_data_parallelism
  std::int32_t pp = 0;          ///< with_pipeline_parallelism (with dp: scaled)
  std::int32_t tp = 0;          ///< with_tensor_parallelism
  std::int32_t num_layers = 0;  ///< with_num_layers
  std::int64_t d_model = 0;     ///< with_hidden_size (d_ff defaults to 4x)
  std::int64_t d_ff = 0;
  bool fusion = false;          ///< with_fusion (default options)
  std::string cost_model;       ///< registered cost-model name
  std::string hooks;            ///< registered hooks name

  /// The manipulation as a Scenario, ready for api::predict_on.
  api::Scenario to_scenario() const;

  /// Canonical textual form — identical requests produce identical
  /// fingerprints, so this is the single-flight coalescing key (paired
  /// with the baseline's cache key). Field-order and formatting are
  /// fixed; do not derive it from client JSON text.
  std::string fingerprint() const;
};

enum class Method : std::uint8_t { kPredict, kStats, kPing, kShutdown };

struct Request {
  Method method = Method::kPredict;
  std::int64_t id = 0;      ///< client-chosen, echoed verbatim in the reply
  std::string baseline;     ///< snapshot path (predict only)
  WhatIf whatif;            ///< manipulation (predict only)
};

/// Serializes a request as one JSON line (no trailing newline).
std::string encode(const Request& request);

/// Parses one request line. kParseError on malformed JSON or an unknown
/// method; kInvalidArgument on a predict request without a baseline.
Status decode_request(std::string_view line, Request& out);

/// Client-side view of one reply line.
struct Reply {
  std::int64_t id = 0;
  bool ok = false;
  Status error;       ///< decoded error_code/error when !ok
  json::Value body;   ///< the full reply object (result fields, stats, ...)
};

/// Parses one reply line; kParseError when the line is not a reply object.
/// A transported error (`ok:false`) still decodes successfully — it lands
/// in `out.error` so callers distinguish transport failures from request
/// failures.
Status decode_reply(std::string_view line, Reply& out);

// -- reply builders (server side) -------------------------------------------
std::string error_reply(std::int64_t id, const Status& status);
std::string pong_reply(std::int64_t id);

}  // namespace lumos::serve
