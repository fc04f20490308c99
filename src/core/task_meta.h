// The columnar hot-path data layer: LaneTable + TaskMetaTable.
//
// Every semantic fact the simulator and the graph-level analyses need about
// a task — its category, its CUDA runtime API, which serial lane it runs
// on, its collective rendezvous group, its duration — lives in the graph's
// column payload (core/task_columns.h), but deriving it in the replay loop
// would mean heap-string map keys (std::map<Processor, ...>, GroupKey{
// std::string, ...}) and a pass over ~20 event columns per pick.
// TaskMetaTable performs that classification once, when a graph is
// finalized, and keeps one copy of each fact:
//
//   - read in place: category, CUDA API, duration, profiled ts and name are
//     the rows' own event columns, viewed once when the table is indexed,
//     so a hot-path read is one indexed load and the table copies none of
//     them;
//   - classified and stored: per-task flags, the task's dense LaneId,
//     collective op / group / instance (gathered through the sparse
//     side-table), the pre-resolved runtime-dependency targets (which lane
//     a cudaStreamSynchronize waits on, which EventRecord a
//     cudaEventSynchronize resolves to), the lanes themselves (rank / gpu /
//     lane columns) and the rendezvous groups (comm group x instance, one
//     CSR of member lists);
//   - derived by index() from those: the LaneTable's lookup, rank and
//     GPU-lane indexes, the GPU tasks per lane, and each task's rendezvous
//     group index. build() and the snapshot loader both end in index(), so
//     a loaded table holds no index the file supplied.
//
// Event names / collective ops / communicator groups are the interned
// trace::StringPool handles the producers already wrote (resolve them back
// to text only at report boundaries) — classification copies ids, it never
// re-interns.
//
// The table is owned by ExecutionGraph, built lazily under the same
// double-checked locking discipline as the adjacency index (or eagerly via
// ExecutionGraph::finalize(), which every producer calls), and shared
// with edge-filtered derivations — it depends only on the task payload,
// never on the edge set. It keeps the column payload it was classified from (columns()),
// which must not change while the table lives: ExecutionGraph clones shared
// rows before it appends to or reserves them. All build-order choices (lane
// ids, group ids) are deterministic functions of the task sequence, so
// identical graphs yield identical tables and api::Sweep's
// sequential-vs-parallel bit-identity is preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/task.h"
#include "core/task_columns.h"
#include "io/column.h"
#include "trace/string_pool.h"

namespace lumos::snapshot {
struct Access;  // raw column access for the binary snapshot reader/writer
}

namespace lumos::core {

/// Dense index of one serial execution lane (one distinct Processor).
using LaneId = std::int32_t;
constexpr LaneId kInvalidLane = -1;

/// Maps Processors to dense LaneIds and back, with rank and GPU-lane
/// indexes precomputed for the simulator's bookkeeping. Lanes are numbered
/// in first-appearance (task id) order; ranks are numbered in first-
/// appearance order as well.
class LaneTable {
 public:
  /// Lane of `p`, or kInvalidLane when no task runs on it.
  LaneId id_of(const Processor& p) const;

  Processor processor(LaneId lane) const {
    const auto i = static_cast<std::size_t>(lane);
    return {rank_[i], gpu_[i] != 0, lane_[i]};
  }
  std::size_t size() const { return rank_.size(); }
  bool is_gpu(LaneId lane) const {
    return gpu_[static_cast<std::size_t>(lane)] != 0;
  }

  /// Dense rank index of a lane (0..rank_count()-1).
  std::int32_t rank_index(LaneId lane) const {
    return rank_index_[static_cast<std::size_t>(lane)];
  }
  std::size_t rank_count() const { return rank_values_.size(); }
  /// The actual rank id behind a dense rank index.
  std::int32_t rank_value(std::int32_t rank_index) const {
    return rank_values_[static_cast<std::size_t>(rank_index)];
  }

  /// GPU lanes of one dense rank index, ascending by stream id — the set a
  /// cudaDeviceSynchronize on that rank waits on.
  std::span<const LaneId> gpu_lanes(std::int32_t rank_index) const {
    const auto i = static_cast<std::size_t>(rank_index);
    return {gpu_lane_ids_.data() + gpu_offsets_[i],
            static_cast<std::size_t>(gpu_offsets_[i + 1] - gpu_offsets_[i])};
  }

 private:
  friend class TaskMetaTable;
  friend struct lumos::snapshot::Access;

  /// Appends the next lane (build only).
  void push_back(const Processor& p);
  /// Derives every member below the Processor columns from them.
  void index();

  // Each lane's Processor, by LaneId.
  io::Column<std::int32_t> rank_;
  io::Column<std::uint8_t> gpu_;
  io::Column<std::int64_t> lane_;  ///< thread (CPU) or stream (GPU) id
  std::vector<std::uint32_t> sorted_;     ///< lane ids sorted by Processor
  std::vector<std::int32_t> rank_index_;  ///< per lane, dense
  std::vector<std::int32_t> rank_values_; ///< dense rank index -> rank id
  std::vector<std::int32_t> gpu_offsets_; ///< CSR over dense rank indices
  std::vector<LaneId> gpu_lane_ids_;
};

/// One collective rendezvous: all coupled kernels of one (communicator
/// group, instance) pair, members in task-id order — a view into the
/// TaskMetaTable that holds it.
struct RendezvousGroup {
  trace::GroupId group;
  std::int64_t instance = -1;
  std::span<const TaskId> members;
};

class TaskMetaTable {
 public:
  /// Classifies every task of `columns` once, reading the producer's ids
  /// straight from its event columns: no re-interning and no name parsing,
  /// so for a parsed graph the table's pools are the trace's pools (trace
  /// ids == graph ids). The table keeps `columns` (see columns()).
  /// Deterministic: identical payloads produce identical tables.
  static TaskMetaTable build(std::shared_ptr<const ColumnTaskSource> columns);

  std::size_t size() const { return lane_.size(); }

  // -- hot-path column accessors (all O(1), no string work) -----------------
  trace::EventCategory category(TaskId id) const {
    return static_cast<trace::EventCategory>(cat_[idx(id)]);
  }
  trace::CudaApi cuda_api(TaskId id) const {
    return static_cast<trace::CudaApi>(api_[idx(id)]);
  }
  LaneId lane(TaskId id) const { return lane_[idx(id)]; }
  std::int64_t duration_ns(TaskId id) const { return dur_[idx(id)]; }
  std::int64_t ts_ns(TaskId id) const { return ts_[idx(id)]; }
  trace::NameId name(TaskId id) const { return {name_[idx(id)]}; }
  trace::OpId collective_op(TaskId id) const { return {coll_op_[idx(id)]}; }
  trace::GroupId collective_group(TaskId id) const {
    return {coll_group_[idx(id)]};
  }
  std::int64_t collective_instance(TaskId id) const {
    return coll_instance_[idx(id)];
  }

  bool is_gpu(TaskId id) const { return (flags_[idx(id)] & kGpu) != 0; }
  /// Category-based device-activity test (Kernel / Memcpy / Memset) — the
  /// same classification trace::TraceEvent::is_gpu() applies to events.
  bool is_device_activity(TaskId id) const {
    const auto cat = static_cast<trace::EventCategory>(cat_[idx(id)]);
    return cat == trace::EventCategory::Kernel ||
           cat == trace::EventCategory::Memcpy ||
           cat == trace::EventCategory::Memset;
  }
  bool is_collective_kernel(TaskId id) const {
    return (flags_[idx(id)] & kCollectiveKernel) != 0;
  }
  /// Listed in a rendezvous group: a collective kernel with a known
  /// instance — the set the simulator couples when
  /// SimOptions::couple_collectives is on.
  bool is_coupled_collective(TaskId id) const {
    return group_idx_[idx(id)] >= 0;
  }
  /// Pipeline point-to-point transfer (op "send"/"recv"): starts at the
  /// rendezvous rather than at its own arrival.
  bool is_p2p(TaskId id) const { return (flags_[idx(id)] & kP2p) != 0; }

  /// Rendezvous group index of a coupled collective, -1 otherwise.
  std::int32_t group_index(TaskId id) const { return group_idx_[idx(id)]; }

  /// Pre-resolved runtime-dependency target: for cudaStreamSynchronize the
  /// lane of the stream it blocks on, for cudaEventSynchronize the lane the
  /// matching cudaEventRecord targeted. kInvalidLane when unresolvable
  /// (unknown stream / no record) — the task then has no runtime blocker.
  LaneId sync_lane(TaskId id) const { return sync_lane_[idx(id)]; }
  /// The "launched before" bound for the sync search: the task's own id for
  /// StreamSynchronize, the EventRecord's id for EventSynchronize.
  TaskId sync_before(TaskId id) const { return sync_before_[idx(id)]; }

  // -- derived tables --------------------------------------------------------
  const LaneTable& lanes() const { return lanes_; }
  /// GPU tasks of one lane in id (= launch) order; empty for CPU lanes.
  std::span<const TaskId> gpu_tasks(LaneId lane) const {
    const auto i = static_cast<std::size_t>(lane);
    return {gpu_task_ids_.data() + gpu_task_offsets_[i],
            static_cast<std::size_t>(gpu_task_offsets_[i + 1] -
                                     gpu_task_offsets_[i])};
  }
  /// Rendezvous groups, numbered in first-appearance (task id) order.
  std::size_t rendezvous_group_count() const { return group_id_.size(); }
  RendezvousGroup rendezvous_group(std::size_t gi) const {
    const std::uint64_t lo = member_offsets_[gi];
    const std::uint64_t hi = member_offsets_[gi + 1];
    return {{group_id_[gi]},
            group_instance_[gi],
            {members_.data() + lo, static_cast<std::size_t>(hi - lo)}};
  }

  // -- the classified payload ----------------------------------------------
  /// The column payload this table was classified from (the graph's
  /// rows). Report boundaries read task rows here.
  const ColumnTaskSource& columns() const { return *columns_; }

  // -- string resolution (report boundaries only) ---------------------------
  const trace::StringPool& names() const { return pools()->names; }
  const trace::StringPool& ops() const { return pools()->ops; }
  const trace::StringPool& groups() const { return pools()->groups; }
  /// The pools backing this table — the trace's own pools when the graph
  /// was parsed from a trace (see build()).
  const std::shared_ptr<trace::TracePools>& pools() const {
    return columns_->pools();
  }
  /// Text of a handle; the invalid handle is the empty string.
  std::string_view name_view(TaskId id) const {
    return view(pools()->names, name_[idx(id)]);
  }
  std::string_view op_view(trace::OpId id) const {
    return view(pools()->ops, id.index);
  }
  std::string_view group_view(trace::GroupId id) const {
    return view(pools()->groups, id.index);
  }

 private:
  friend struct lumos::snapshot::Access;

  static std::size_t idx(TaskId id) { return static_cast<std::size_t>(id); }

  /// Derives everything below the stored columns from them: the views of
  /// the rows' event columns, the lane table's indexes, the GPU-task CSR
  /// and the group index. Member ids must index the rows. Returns false
  /// when a task is listed in more than one rendezvous slot.
  bool index();

  static std::string_view view(const trace::StringPool& pool,
                               std::uint32_t id) {
    return id == trace::NameId::kInvalidIndex ? std::string_view{}
                                              : pool.view(id);
  }

  enum Flag : std::uint8_t {
    kGpu = 1u << 0,
    kCollectiveKernel = 1u << 1,
    kP2p = 1u << 2,
  };

  // Stored: what build() classifies and snapshots keep. io::Column: owned
  // on the build path, zero-copy views of the mapping on the snapshot path.
  io::Column<std::uint8_t> flags_;
  io::Column<LaneId> lane_;
  io::Column<std::uint32_t> coll_op_;
  io::Column<std::uint32_t> coll_group_;
  io::Column<std::int64_t> coll_instance_;
  io::Column<LaneId> sync_lane_;
  io::Column<TaskId> sync_before_;
  LaneTable lanes_;
  // Rendezvous groups as one CSR: by group index, the comm group id, the
  // instance and the offsets of its members in members_.
  io::Column<std::uint32_t> group_id_;
  io::Column<std::int64_t> group_instance_;
  io::Column<std::uint64_t> member_offsets_;
  io::Column<TaskId> members_;
  std::shared_ptr<const ColumnTaskSource> columns_;

  // Read in place: columns_'s event columns, viewed by index().
  const std::uint8_t* cat_ = nullptr;
  const std::uint8_t* api_ = nullptr;
  const std::int64_t* dur_ = nullptr;
  const std::int64_t* ts_ = nullptr;
  const std::uint32_t* name_ = nullptr;

  // Derived by index().
  std::vector<std::int32_t> group_idx_;         ///< -1 when uncoupled
  std::vector<std::int32_t> gpu_task_offsets_;  ///< CSR over lanes
  std::vector<TaskId> gpu_task_ids_;
};

}  // namespace lumos::core
