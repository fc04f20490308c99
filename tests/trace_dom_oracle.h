// The DOM Chrome-trace reference: a json::Value tree writer and reader for
// one rank trace. src/ emits through the streaming trace::JsonWriter and
// ingests through the SAX parser; the tests pin both against this oracle
// (stream-vs-DOM bytes in every indent mode, SAX-vs-DOM events), so it
// lives here and not in the library.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "json/json.h"
#include "trace/event.h"

namespace lumos::testutil {

namespace dom_detail {

constexpr double kNsPerUs = 1000.0;

/// Serializes one event straight from the table columns (ids resolved to
/// text through the pool at this report boundary only).
inline json::Value event_to_json(const trace::EventTable& t, std::size_t i) {
  json::Object obj;
  obj["ph"] = "X";
  obj["cat"] = std::string(trace::to_string(t.category(i)));
  obj["name"] = t.name(i);
  obj["pid"] = static_cast<std::int64_t>(t.pid(i));
  obj["tid"] = static_cast<std::int64_t>(t.tid(i));
  obj["ts"] = static_cast<double>(t.ts_ns(i)) / kNsPerUs;
  obj["dur"] = static_cast<double>(t.dur_ns(i)) / kNsPerUs;

  json::Object args;
  if (t.correlation(i) >= 0) args["correlation"] = t.correlation(i);
  if (t.stream(i) >= 0) args["stream"] = t.stream(i);
  if (t.cuda_event(i) >= 0) args["cuda_event"] = t.cuda_event(i);
  if (t.layer(i) >= 0) args["layer"] = static_cast<std::int64_t>(t.layer(i));
  if (t.microbatch(i) >= 0) {
    args["microbatch"] = static_cast<std::int64_t>(t.microbatch(i));
  }
  if (!t.phase(i).empty()) args["phase"] = t.phase(i);
  if (!t.block(i).empty()) args["block"] = t.block(i);
  if (t.collective_op(i).valid()) {
    args["collective"] = t.collective_op_view(i);
    args["comm_group"] = t.collective_group_view(i);
    args["comm_bytes"] = t.collective_bytes(i);
    args["comm_group_size"] =
        static_cast<std::int64_t>(t.collective_group_size(i));
    if (t.collective_instance(i) >= 0) {
      args["comm_instance"] = t.collective_instance(i);
    }
  }
  if (const trace::GemmShape gemm = t.gemm(i); gemm.valid()) {
    args["gemm_m"] = gemm.m;
    args["gemm_n"] = gemm.n;
    args["gemm_k"] = gemm.k;
  }
  if (t.bytes_moved(i) > 0) args["bytes_moved"] = t.bytes_moved(i);
  if (!args.empty()) obj["args"] = std::move(args);
  return json::Value(std::move(obj));
}

inline trace::TraceEvent event_from_json(const json::Value& v) {
  const json::Object& obj = v.as_object();
  trace::TraceEvent e;
  e.name = v.get_string("name", "");
  auto cat = trace::category_from_string(v.get_string("cat", ""));
  if (!cat) {
    throw std::runtime_error("chrome_trace: unknown category '" +
                             v.get_string("cat", "") + "'");
  }
  e.cat = *cat;
  e.pid = static_cast<std::int32_t>(v.get_int("pid", 0));
  e.tid = static_cast<std::int32_t>(v.get_int("tid", 0));
  e.ts_ns = static_cast<std::int64_t>(v.get_double("ts", 0.0) * kNsPerUs + 0.5);
  e.dur_ns =
      static_cast<std::int64_t>(v.get_double("dur", 0.0) * kNsPerUs + 0.5);
  if (const json::Value* args = obj.find("args")) {
    e.correlation = args->get_int("correlation", -1);
    e.stream = args->get_int("stream", -1);
    e.cuda_event = args->get_int("cuda_event", -1);
    e.layer = static_cast<std::int32_t>(args->get_int("layer", -1));
    e.microbatch = static_cast<std::int32_t>(args->get_int("microbatch", -1));
    e.phase = args->get_string("phase", "");
    e.block = args->get_string("block", "");
    e.collective.op = args->get_string("collective", "");
    e.collective.group = args->get_string("comm_group", "");
    e.collective.bytes = args->get_int("comm_bytes", 0);
    e.collective.group_size =
        static_cast<std::int32_t>(args->get_int("comm_group_size", 0));
    e.collective.instance = args->get_int("comm_instance", -1);
    e.gemm.m = args->get_int("gemm_m", 0);
    e.gemm.n = args->get_int("gemm_n", 0);
    e.gemm.k = args->get_int("gemm_k", 0);
    e.bytes_moved = args->get_int("bytes_moved", 0);
  }
  return e;
}

}  // namespace dom_detail

/// Serializes a rank trace to a Chrome-trace JSON value (DOM form):
/// json::write of it is the byte contract of trace::to_json_string.
inline json::Value trace_to_json(const trace::RankTrace& trace) {
  json::Object root;
  root["schemaVersion"] = 1;
  root["deviceProperties"] = json::Array{};
  root["distributedInfo"] =
      json::Object{{"rank", json::Value(static_cast<std::int64_t>(trace.rank))}};
  json::Array events;
  events.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    events.push_back(dom_detail::event_to_json(trace.events, i));
  }
  root["traceEvents"] = std::move(events);
  return json::Value(std::move(root));
}

/// Parses a Chrome-trace JSON value into a rank trace. Unknown categories
/// are skipped, as the SAX path skips them. Throws json::TypeError /
/// std::out_of_range on structurally invalid input.
inline trace::RankTrace rank_trace_from_json(const json::Value& root) {
  trace::RankTrace trace;
  const json::Object& obj = root.as_object();
  if (const json::Value* info = obj.find("distributedInfo")) {
    trace.rank = static_cast<std::int32_t>(info->get_int("rank", 0));
  }
  const json::Value* events = obj.find("traceEvents");
  if (events == nullptr) {
    throw std::out_of_range("chrome_trace: missing key 'traceEvents'");
  }
  for (const json::Value& ev : events->as_array()) {
    // Tolerate auxiliary event types: only complete events with a known
    // category become trace events, mirroring how Lumos filters real Kineto
    // traces.
    if (ev.get_string("ph", "X") != "X") continue;
    if (!trace::category_from_string(ev.get_string("cat", ""))) continue;
    trace.events.push_back(dom_detail::event_from_json(ev));
  }
  trace.sort_by_time();
  return trace;
}

}  // namespace lumos::testutil
