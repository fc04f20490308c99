// Structural validation and summary statistics for traces.
//
// The parser and the ground-truth engine both rely on a set of invariants
// that real Kineto traces satisfy; validate() checks them and reports
// human-readable violations instead of letting downstream stages produce
// silently wrong graphs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/event.h"

namespace lumos::trace {

/// One invariant violation found in a trace.
struct Violation {
  std::string message;
  std::size_t event_index = 0;  ///< index into RankTrace::events, if relevant
};

/// Checks structural invariants of a rank trace:
///  - durations are non-negative,
///  - GPU events carry a stream (tid == stream),
///  - every device activity's correlation ID matches exactly one CUDA
///    runtime launch on the host,
///  - every launch's correlation ID matches at most one device activity,
///  - kernels on one stream do not overlap each other (streams are FIFO),
///  - CPU events on one thread do not overlap each other (no nesting in
///    the flattened representation used here),
///  - cudaStreamWaitEvent events name a CUDA event that some
///    cudaEventRecord recorded earlier in the trace.
std::vector<Violation> validate(const RankTrace& trace);

/// Validates every rank of a cluster trace; messages are prefixed with the
/// rank index.
std::vector<Violation> validate(const ClusterTrace& trace);

/// Aggregate statistics over one rank trace.
struct TraceStats {
  std::size_t num_events = 0;
  std::map<EventCategory, std::size_t> events_per_category;
  std::map<std::string, std::size_t> events_per_name;
  std::size_t num_cpu_threads = 0;
  std::size_t num_gpu_streams = 0;
  std::int64_t span_ns = 0;
  std::int64_t total_kernel_ns = 0;       ///< sum of kernel durations
  std::int64_t total_comm_kernel_ns = 0;  ///< sum over collective kernels
  std::int64_t busy_gpu_ns = 0;  ///< union of kernel intervals, all streams
};

TraceStats compute_stats(const RankTrace& trace);

}  // namespace lumos::trace
