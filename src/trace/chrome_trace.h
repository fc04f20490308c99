// Chrome-trace-format (Kineto) JSON import/export.
//
// The on-disk format matches what PyTorch Kineto produces: a top-level
// object with a `traceEvents` array of complete ("ph":"X") events plus
// metadata fields. Timestamps/durations are double microseconds in JSON and
// integer nanoseconds in memory.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "trace/event.h"

namespace lumos::trace {

/// File-level ingest options. Every rank file is mmap(2)'d (io::MappedFile)
/// and json::sax_parse scans the mapping directly, so file bytes reach the
/// columnar EventTable without an intermediate owning buffer.
struct IoOptions {
  /// Cluster-ingest worker count (read_cluster_trace): rank files are
  /// parsed concurrently, each worker into a private EventTable/TracePools,
  /// then deterministically merged into the shared cluster pools in
  /// numeric-rank order (see trace/ingest.h) — the result is bit-identical
  /// to a serial parse for any worker count. 0 = one worker per hardware
  /// thread; 1 = the serial path (also used whenever only one rank file is
  /// discovered). Exposed as Scenario::with_ingest_workers and lumos_cli
  /// --ingest-workers.
  std::size_t ingest_workers = 0;
};

/// Serializes to a JSON string (compact by default). Streams the table
/// columns through trace::JsonWriter — no JSON DOM is materialized.
std::string to_json_string(const RankTrace& trace, int indent = -1);

/// Parses a JSON string through the SAX fast path. Unknown categories are
/// skipped (real Kineto traces contain many auxiliary event types). Throws
/// json::ParseError / json::TypeError / std::out_of_range on structurally
/// invalid input.
RankTrace rank_trace_from_json_string(std::string_view text);

/// Parses Chrome-trace JSON into `trace` in place via the SAX fast path,
/// interning into the EventTable's *existing* pools — the cluster reader's
/// shared pools on the serial path, or a worker's private pools on the
/// parallel ingest path (trace/ingest.cpp). Events are appended and the
/// table is re-sorted by (ts, tid). Throws like rank_trace_from_json_string.
void parse_rank_trace_json(std::string_view text, RankTrace& trace);

/// Parses one on-disk rank file through the zero-copy mmap path. Throws
/// the same json::ParseError / std::out_of_range diagnostics as the string
/// path, and std::runtime_error for I/O failures.
RankTrace rank_trace_from_json_file(const std::string& path);

/// Writes one file per rank: <prefix>_rank<k>.json, where <k> is the rank's
/// *global* id (Megatron numbering, not necessarily contiguous). Returns
/// the paths written, in rank order. One streaming writer buffer and one
/// filename buffer are reused across ranks.
std::vector<std::string> write_cluster_trace_files(const ClusterTrace& trace,
                                                   const std::string& prefix);

/// Reads all <prefix>_rank*.json files, in numeric rank order (the rank is
/// parsed out of the filename at discovery — see trace::discover_rank_files
/// in trace/ingest.h). Parsing fans over `io.ingest_workers` threads with a
/// deterministic pool merge; any worker count produces a bit-identical
/// ClusterTrace. Throws trace::IngestError (a std::runtime_error carrying a
/// structured kind + the offending path) when the trace directory is
/// missing, no file matches, or — with `num_ranks` > 0 — the file count
/// differs; api::Session maps those to kIoError / kInvalidArgument.
/// Defined in trace/ingest.cpp.
ClusterTrace read_cluster_trace(const std::string& prefix,
                                std::size_t num_ranks = 0,
                                const IoOptions& io = {});

}  // namespace lumos::trace
