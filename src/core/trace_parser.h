// TraceParser: reconstructs the task-level execution graph from raw Kineto
// traces (paper §3.3).
//
// The parser works *only* from event-visible facts — timestamps, thread and
// stream ids, correlation ids, CUDA event ids, event names — never from any
// builder-side ground truth. It recovers:
//   - CPU→CPU intra-thread edges from per-thread event order;
//   - CPU→CPU inter-thread edges from significant execution gaps ("we
//     detect these dependencies by identifying significant execution gaps
//     within threads and establishing cross-thread dependencies
//     accordingly", §3.3.2): a task that begins after an unexplained gap is
//     linked to the latest-ending task on another thread;
//   - CPU→GPU edges by correlation id (cudaLaunchKernel → kernel);
//   - GPU→GPU intra-stream edges from per-stream order, and inter-stream
//     edges by pairing cudaEventRecord with cudaStreamWaitEvent on the same
//     CUDA event: the last kernel launched to the recorded stream before
//     the record must precede the first kernel launched to the waiting
//     stream after the wait;
//   - GPU→CPU synchronization stays a *runtime* dependency (resolved by the
//     simulator); the parser only normalizes the durations of blocking APIs,
//     whose profiled duration is dominated by the wait the simulator will
//     re-derive.
#pragma once

#include <cstdint>

#include "core/execution_graph.h"
#include "trace/event.h"

namespace lumos::core {

struct ParserOptions {
  /// Blocking CUDA API (cudaStreamSynchronize etc.) durations are clamped
  /// to this value; their true duration is wait time the simulator models.
  std::int64_t sync_duration_clamp_ns = 4'000;
  /// Minimum unexplained gap on a CPU thread that triggers inter-thread
  /// dependency inference.
  std::int64_t interthread_gap_ns = 2'000;
  /// Disable switches for ablation studies (paper-style "which dependency
  /// classes matter" analysis).
  bool infer_interthread = true;
  bool infer_interstream = true;
};

class TraceParser {
 public:
  explicit TraceParser(ParserOptions options = {}) : options_(options) {}

  /// Parses a single rank's trace into a graph.
  ExecutionGraph parse(const trace::RankTrace& trace) const;

  /// Parses every rank into one multi-rank graph (ranks are independent;
  /// cross-rank interactions are embedded in profiled collective/kernel
  /// durations, matching how Lumos replays production traces).
  ExecutionGraph parse(const trace::ClusterTrace& trace) const;

 private:
  /// Appends one rank's tasks and edges.
  void parse_rank_into(const trace::RankTrace& trace,
                       ExecutionGraph& graph) const;

  ParserOptions options_;
};

}  // namespace lumos::core
