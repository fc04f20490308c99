// JsonWriter: streaming Chrome-trace serialization straight from EventTable
// columns.
//
// trace::to_json_string used to materialize a full json::Value DOM per rank
// — one Object of heap Values per event, a fresh escape() string per name,
// a std::to_string per integer — and only then print the tree. For a
// multi-rank Session::write_trace_files that tree was the dominant cost of the
// whole emit path. JsonWriter removes it: one pass over the table columns
// appends directly into a reusable output buffer, integers go through
// std::to_chars, and pooled strings (names, phases, blocks, collective
// ops/groups) are escaped+quoted once per distinct id and memoized, so an
// event name repeated ten thousand times costs one memcpy per occurrence.
//
// Output contract: byte-identical to json::write(trace_to_json(trace),
// {indent}) in every indent mode, where trace_to_json is the DOM reference
// writer in tests/trace_dom_oracle.h; golden tests (tests/test_io.cpp,
// tests/test_data_layer.cpp) pin the equality. Doubles (the µs ts/dur
// fields) use the same format: integral values < 1e15 print as "<int>.0"
// (grisu-free integer fast path), the rest via
// std::to_chars(chars_format::general, 17), which is specified to match
// the DOM writer's snprintf("%.17g") byte-for-byte.
//
// Buffer reuse contract: write() clears and refills the internal buffer
// and returns a view of it — valid until the next write() or destruction.
// The escaped-string memo is keyed on the trace's TracePools instance, so
// reusing one writer across the ranks of one ClusterTrace (which share
// pools) pays each distinct string once per cluster, not once per rank.
// Session::chrome_trace_json writes one rank that SimResult::emit_rank
// gathered into fresh pools, so its memo covers that rank's strings only;
// SimResult::to_trace puts every rank in one pools, which a reused writer
// pays once. A JsonWriter is single-threaded; concurrent emitters (e.g.
// sweep workers calling Session::chrome_trace_json) each use their own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.h"

namespace lumos::trace {

class JsonWriter {
 public:
  /// `indent` as in json::WriteOptions: < 0 compact, >= 0 pretty-print
  /// with that many spaces per level.
  explicit JsonWriter(int indent = -1) : indent_(indent) {}

  /// Serializes `trace` into the internal buffer and returns a view of it.
  /// The view is invalidated by the next write() and by destruction.
  std::string_view write(const RankTrace& trace);

  /// Moves the serialized bytes out (the buffer is left reusable-empty).
  std::string take() && { return std::move(buf_); }

 private:
  void nl(int level);
  void member_key(std::string_view key, int level, bool& first);
  void append_int(std::int64_t v);
  void append_us(std::int64_t ns);  ///< write_double(ns / 1000.0) replica
  void append_quoted(std::string_view s);
  void append_pooled(std::vector<std::string>& memo, const StringPool& pool,
                     std::uint32_t id);
  void write_event(const EventTable& t, std::size_t i);

  int indent_;
  std::string buf_;

  // Escaped+quoted text per pooled id, lazily built, keyed on the pools
  // instance (reset when a trace with different pools is written). Held
  // as a shared_ptr so the keyed-on pools cannot die and have their heap
  // address reused by an unrelated TracePools between writes (which would
  // make the pointer comparison serve stale memo entries).
  std::shared_ptr<const TracePools> memo_pools_;
  std::vector<std::string> name_memo_;   ///< names pool: name/phase/block
  std::vector<std::string> op_memo_;     ///< collective op names
  std::vector<std::string> group_memo_;  ///< communicator group names
};

}  // namespace lumos::trace
