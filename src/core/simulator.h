// Discrete-event replay simulator — the paper's Algorithm 1.
//
// Two dependency mechanisms (paper §3.5):
//  - *Fixed* dependencies are the graph's edges, counted at initialization.
//  - *Runtime* dependencies are resolved when a task is picked: a
//    cudaStreamSynchronize must wait for the last kernel enqueued to its
//    stream, "but which kernel will be last cannot be known prior to
//    execution". Task ids encode launch order, so the blocking kernel is the
//    last unfinished GPU task on the stream with a smaller id.
//
// The implementation processes task starts in nondecreasing time order
// (a lazy priority queue re-pushes tasks whose feasible start moved), which
// makes it possible to support *collective coupling*: NCCL kernels of one
// collective instance start together once every participating rank arrives,
// the way real NCCL rendezvous behaves. Coupling is used by the ground-truth
// cluster engine and by every replay the library runs: core::replay, the
// dPRO baseline, the facade's run_replay (Session, predict_on, Sweep,
// serve) and compiled programs all couple, with the profiled duration of
// the last-arriving member as the transfer time, so peer-wait skew is
// re-derived at the rendezvous rather than double-counted. The
// SimOptions default stays uncoupled for caller-built runs
// (api::replay_graph with default options, ablation studies).
//
// Determinism: a run is a pure function of (graph, options, hooks). Queue
// ties are broken by profiled timestamp and then by task id, and
// SimResult::stuck_tasks is ordered ascending by task id, so sequential and
// concurrent executions (api::Sweep workers) produce bit-identical results.
//
// Data layer: the run loop reads only the graph's columnar TaskMetaTable
// (core/task_meta.h) — dense LaneIds instead of Processor-keyed maps,
// precomputed CudaApi / collective flags instead of per-pick string parses,
// pre-resolved sync targets, and materialized rendezvous groups. Task
// structs (with their heap strings) are dereferenced only to serve user
// hooks; with no hooks installed the simulator replays the rows' duration
// column, which the meta table reads in place.
//
// Thread safety: run() is const and allocates all per-run state locally, so
// any number of Simulators — or repeated runs of one Simulator — may execute
// concurrently over the same frozen ExecutionGraph (the shared meta table
// builds once under the graph's double-checked lock). Hooks passed via
// SimOptions are invoked from the running thread; share a hooks instance
// across concurrent runs only if it is itself thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/execution_graph.h"
#include "trace/event.h"

namespace lumos::core {

/// Customization points for the simulation. The defaults replay profiled
/// durations verbatim; the ground-truth engine overrides them to inject
/// jitter and network contention.
class SimulatorHooks {
 public:
  virtual ~SimulatorHooks() = default;

  /// Duration of a non-collective task (default: profiled duration).
  virtual std::int64_t task_duration_ns(const Task& task) {
    return task.event.dur_ns;
  }

  /// Duration of a coupled collective kernel, decided once all members have
  /// arrived. `concurrent_collectives` counts other collective instances
  /// in flight on any participating rank at start time (contention signal).
  virtual std::int64_t collective_duration_ns(const Task& task,
                                              int concurrent_collectives) {
    (void)concurrent_collectives;
    return task.event.dur_ns;
  }
};

struct SimOptions {
  /// When true, collective kernels with the same (comm_group, instance)
  /// rendezvous: all start at the max ready time of the group.
  bool couple_collectives = false;
  /// Optional hooks; not owned. nullptr uses defaults.
  SimulatorHooks* hooks = nullptr;
  /// Optional per-task dropout mask; not owned, size must equal the graph's
  /// task count. A nonzero entry marks a task that never becomes runnable
  /// (a crashed rank, injected by faults::FaultPlan): it is skipped at
  /// initialization and at every re-push, so it — and everything
  /// transitively waiting on it, incomplete rendezvous groups included —
  /// surfaces in SimResult::stuck_tasks. nullptr drops nothing.
  const std::vector<std::uint8_t>* dropped_tasks = nullptr;
};

/// Outcome of a simulation run.
struct SimResult {
  std::vector<std::int64_t> start_ns;  ///< per task id
  std::vector<std::int64_t> end_ns;    ///< per task id
  std::int64_t makespan_ns = 0;        ///< max end - min start
  std::size_t executed = 0;            ///< tasks that ran

  /// Non-empty when the simulation deadlocked (unsatisfiable dependencies,
  /// e.g. an incomplete collective group); lists stuck task ids, ascending,
  /// so diagnostics are reproducible across runs and across threads.
  std::vector<TaskId> stuck_tasks;

  bool complete() const { return stuck_tasks.empty(); }

  /// Simulated end of the latest task on `rank`.
  std::int64_t rank_end_ns(const ExecutionGraph& graph,
                           std::int32_t rank) const;

  /// Materializes the replayed trace (paper §3.5: "the simulation generates
  /// a trace similar to the input trace initially profiled from the real
  /// run"). Event ts/dur reflect simulated times. emit_rank() over every
  /// rank of the graph, ascending, into one fresh TracePools.
  trace::ClusterTrace to_trace(const ExecutionGraph& graph) const;

  /// One rank of to_trace(): appends the tasks of rank `out.rank`, re-timed
  /// (ts = start, dur = end - start, pid = rank) and in (ts, tid) order,
  /// to `out.events` through one column gather, interning their strings
  /// into its pools in task-id order. Reads no other rank's rows beyond
  /// one pass over the rank column; appends nothing for an absent rank.
  void emit_rank(const ExecutionGraph& graph, trace::RankTrace& out) const;
};

class Simulator {
 public:
  explicit Simulator(const ExecutionGraph& graph, SimOptions options = {});

  /// Runs Algorithm 1 to completion (or deadlock) and returns the result.
  /// Const and re-entrant: all run state lives on the stack of this call.
  SimResult run() const;

 private:
  const ExecutionGraph& graph_;
  SimOptions options_;
};

/// Lumos replay of a (multi-rank) parsed trace graph: collective instances
/// rendezvous across ranks, with the profiled duration of the last-arriving
/// member as the transfer time — so peer-wait skew is re-derived rather than
/// double-counted. For single-rank graphs this degenerates gracefully
/// (every group has one member).
SimResult replay(const ExecutionGraph& graph);

}  // namespace lumos::core
