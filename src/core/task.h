// Task and dependency types for the Lumos execution graph (paper §3.3).
//
// The graph contains exactly two task classes (paper §3.3.1):
//   - CPU tasks: framework operators and CUDA runtime events, keyed by the
//     CPU thread they ran on;
//   - GPU tasks: kernels / memcpys / memsets, keyed by their CUDA stream.
//
// Dependencies fall into the four classes of paper §3.3.2. Most are *fixed*
// edges known at graph construction; GPU→CPU synchronization edges are
// *runtime* dependencies resolved during simulation (Algorithm 1), because
// "which kernel will be last [on a stream] cannot be known prior to
// execution" once the graph has been manipulated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/event.h"

namespace lumos::core {

using TaskId = std::int32_t;
constexpr TaskId kInvalidTask = -1;

/// Identifies the serial execution lane a task occupies: one CPU thread or
/// one CUDA stream of one rank. Tasks on the same processor execute in
/// order; distinct processors run concurrently.
struct Processor {
  std::int32_t rank = 0;
  bool gpu = false;
  std::int64_t lane = 0;  ///< thread id (CPU) or stream id (GPU)

  bool operator==(const Processor&) const = default;
  auto operator<=>(const Processor&) const = default;
};

/// The four dependency classes from paper §3.3.2 (intra/inter split kept
/// explicit so ablations can drop a single class), plus CrossRank edges used
/// for coupled multi-rank simulation of manipulated graphs.
enum class DepType : std::uint8_t {
  IntraThread,  ///< CPU→CPU: program order on one thread
  InterThread,  ///< CPU→CPU: cross-thread blocking (fwd → autograd thread)
  CpuToGpu,     ///< CUDA launch → kernel, matched by correlation ID
  GpuToCpu,     ///< kernel → synchronizing CPU call (explicit form)
  IntraStream,  ///< GPU→GPU: FIFO order on one stream
  InterStream,  ///< GPU→GPU: cudaEventRecord → cudaStreamWaitEvent
  CrossRank,    ///< pipeline send → recv (manipulated-graph simulation)
};

/// DepType is dense, starting at 0 — histograms and per-type tables can be
/// fixed-size arrays indexed by static_cast<std::size_t>(type).
inline constexpr std::size_t kDepTypeCount = 7;

std::string_view to_string(DepType type);

/// One node of the execution graph.
///
/// `event` carries all semantic metadata (name, category, CUDA API,
/// annotations); `processor` locates the task; `id` doubles as the task's
/// *program order*: ids are assigned in launch order, so "kernels enqueued
/// to stream S before task T" is exactly "GPU tasks on S with id < T.id".
/// That property is what lets Algorithm 1 resolve runtime dependencies.
///
/// Task is a read-only *view*: graphs are built and stored as columns
/// (core/task_columns.h), and ExecutionGraph::tasks() materializes Tasks
/// from them only for the SimulatorHooks that take a `const Task&`. The
/// simulator, graph transforms and analyses read ExecutionGraph::meta() —
/// the columnar TaskMetaTable (core/task_meta.h) that classifies every task
/// once (interned name/op/group ids, CudaApi, dense LaneId, duration) — and
/// its column payload, so they never touch this struct's TraceEvent.
struct Task {
  TaskId id = kInvalidTask;
  Processor processor;
  trace::TraceEvent event;  ///< ts_ns holds the *profiled* start time

  std::int64_t duration_ns() const { return event.dur_ns; }
  bool is_gpu() const { return processor.gpu; }
  trace::CudaApi cuda_api() const { return event.cuda_api(); }

  /// True for NCCL collective kernels (used by coupling & manipulation).
  bool is_collective_kernel() const {
    return is_gpu() && event.collective.valid();
  }
};

/// A directed dependency edge: `src` must finish before `dst` may start.
struct Edge {
  TaskId src = kInvalidTask;
  TaskId dst = kInvalidTask;
  DepType type = DepType::IntraThread;

  bool operator==(const Edge&) const = default;
};

}  // namespace lumos::core
