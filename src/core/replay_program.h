// Compiled replay: lower a frozen ExecutionGraph into a flat replay
// program (ROADMAP item 5).
//
// The interpreter (core/simulator.h) re-derives the schedule order on every
// run: a lazy priority queue picks tasks in nondecreasing start order,
// runtime dependencies are probed per pick, and collective rendezvous is
// discovered dynamically. For a *frozen* graph replayed many times (a
// resident lumos_serve baseline, a Sweep grid) all of that discovery work
// is invariant — only the duration column changes between runs.
//
// ReplayCompiler proves, once, that the schedule *order* is a static
// property of the graph, and emits a flat instruction stream that a tight
// dispatch loop evaluates as a pure recurrence over task end times:
//
//   1. Runtime dependencies become static edges. The blocker of a
//      cudaStream/EventSynchronize is "the last GPU task on the pre-resolved
//      sync lane launched before the bound" — a pure function of the meta
//      table, independent of durations. Same for cudaDeviceSynchronize
//      (one blocker per GPU lane of the rank).
//   2. Lane serialization becomes a static chain. For every pair of
//      consecutive tasks (a, b) on one lane (candidate order = topological
//      position) the compiler proves a dependency path a => b in the
//      transformed graph; then *any* positive duration assignment executes
//      a before b, so `lane_free` can be threaded through the instruction
//      stream instead of re-sorted by a queue.
//   3. Coupled collectives become rendezvous nodes: members' out-edges are
//      re-sourced from a group node (all members end together at the group
//      end), member arrival order is pre-sorted by the interpreter's
//      documented (profiled ts, task id) tie-break, and the last-arrival
//      scan replicates the interpreter's strictly-greater max exactly.
//
// Anything the proof does not cover — a cycle through the transformed
// graph (deadlock fixtures), an unprovable lane order (independent tasks
// sharing a lane), non-positive durations (which break the tie-break
// argument), or SimulatorHooks (a per-pick callback by definition) — makes
// compile() report a fallback status and the caller runs the interpreter.
// The interpreter stays the pinned reference: a compiled run is
// bit-identical to Simulator::run() on the same graph and options
// (tests/test_replay_program.cpp holds that across the fixture zoo).
//
// Storage: the instruction, operand, member and duration arrays are
// io::Columns. A compiled program owns them; a program loaded from a
// snapshot (snapshot/snapshot.h, section 5) borrows them from the mapping
// and borrows the graph's row duration column, so a served miss runs no
// compile. Instr and Member are padding-free with zeroed reserved bytes:
// their bytes are written verbatim and covered by the payload checksum.
//
// Thread safety: ReplayProgram is immutable after compile; run() is const
// and allocates all per-run state locally, so any number of threads may
// replay one shared program concurrently (serve::Engine and api::Sweep do).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "core/simulator.h"
#include "core/task_meta.h"
#include "io/column.h"

namespace lumos::core {

/// Why compile() did (or did not) produce a program.
enum class ReplayCompileStatus : std::uint8_t {
  kCompiled = 0,
  /// The transformed graph (fixed + sync + rendezvous edges) has a cycle —
  /// the interpreter would deadlock; stuck-task reporting needs it.
  kCyclic,
  /// Two tasks share a lane with no dependency path ordering them, so the
  /// execution order is duration-dependent (or the proof search exceeded
  /// its budget). The queue-based interpreter must arbitrate.
  kUnorderedLane,
  /// A task has duration <= 0. The compiled tie-break replication is only
  /// exact when every heap key strictly increases along a dependency chain.
  kNonPositiveDuration,
};

/// Short stable label for logs/tests ("compiled", "cyclic", ...).
const char* to_string(ReplayCompileStatus status);

/// The flat program: one instruction per task (plus one per rendezvous
/// group), in a proven execution order, with CSR operand lists. A run reads
/// only the duration column (baked or caller-supplied) and writes the same
/// SimResult the interpreter would.
class ReplayProgram {
 public:
  enum class Op : std::uint8_t {
    kRun,        ///< start = max(preds' end, lane_free); occupy the lane
    kArrive,     ///< collective member: record arrival, do not occupy
    kRendezvous  ///< resolve one group: start/end all members, free lanes
  };

  struct Instr {
    Op op = Op::kRun;
    std::uint8_t reserved[3] = {};  ///< zero: no indeterminate bytes
    LaneId lane = kInvalidLane;     ///< kRun/kArrive: the task's lane
    std::int32_t id = 0;      ///< TaskId, or group ordinal for kRendezvous
    std::uint32_t first = 0;  ///< CSR offset into operands / members
    std::uint32_t count = 0;
  };

  /// One collective member as the rendezvous step reads it, pre-sorted by
  /// (profiled ts, id) — the interpreter's equal-key pop order.
  struct Member {
    TaskId task = kInvalidTask;
    LaneId lane = kInvalidLane;
    /// meta is_p2p (0 or 1): rendezvous-start when last to arrive.
    std::uint8_t p2p = 0;
    std::uint8_t reserved[3] = {};
  };

  /// Replays with the durations baked at compile time (the graph's own
  /// profiled duration column) — the lumos_serve / Sweep steady state.
  SimResult run() const;

  /// Replays with a caller-supplied duration column (duration-only
  /// what-ifs, structure-shared rebuilds). Precondition:
  /// accepts(durations); callers that cannot guarantee it use another path.
  SimResult run(std::span<const std::int64_t> durations) const;

  /// Whether run(durations) is exact: one entry per task and every entry
  /// > 0, the positivity compile() proved for the baked column.
  bool accepts(std::span<const std::int64_t> durations) const;

  std::size_t task_count() const { return task_count_; }
  std::size_t collective_count() const { return collective_count_; }

  /// The program itself, in execution order: one instruction per task and
  /// per rendezvous group, with the CSR operand and member arrays they
  /// index.
  std::span<const Instr> instructions() const { return instrs_; }
  std::span<const TaskId> operands() const { return operands_; }
  std::span<const Member> members() const { return members_; }

 private:
  friend class ReplayCompiler;
  friend struct lumos::snapshot::Access;  // stores and maps the arrays

  std::size_t task_count_ = 0;
  std::size_t lane_count_ = 0;
  std::size_t collective_count_ = 0;

  io::Column<Instr> instrs_;            ///< proven execution order
  io::Column<TaskId> operands_;         ///< CSR: effective predecessors
  io::Column<Member> members_;          ///< CSR: rendezvous member groups
  io::Column<std::int64_t> durations_;  ///< baked column for run()
};

// Written to snapshots byte for byte: no padding, so no indeterminate bytes
// reach the file or its checksum.
static_assert(sizeof(ReplayProgram::Instr) == 20 &&
              std::has_unique_object_representations_v<ReplayProgram::Instr>);
static_assert(sizeof(ReplayProgram::Member) == 12 &&
              std::has_unique_object_representations_v<ReplayProgram::Member>);

/// Lowers a finalized graph into a ReplayProgram, or reports why it cannot.
/// The program replaces runs with SimOptions::couple_collectives on, the
/// setting every api path replays with.
class ReplayCompiler {
 public:
  struct Result {
    /// Null unless status == kCompiled.
    std::shared_ptr<const ReplayProgram> program;
    ReplayCompileStatus status = ReplayCompileStatus::kCompiled;
    explicit operator bool() const { return program != nullptr; }
  };

  /// Pure function of the graph; never throws, never fails hard — an
  /// unsupported construct is a fallback status, not an error. The
  /// returned program is self-contained (it copies the columns it reads)
  /// and does not keep the graph alive. Its output is part of the snapshot
  /// format: any change to it bumps snapshot::kFormatVersion.
  static Result compile(const ExecutionGraph& graph);
};

}  // namespace lumos::core
