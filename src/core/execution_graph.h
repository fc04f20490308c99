// ExecutionGraph: the task-level dependency graph at the center of Lumos.
//
// A graph may span one rank (replay of a single trace) or many ranks (the
// ground-truth engine and manipulated-graph prediction). Edges are stored
// flat, as src / dst / type columns, and indexed into CSR adjacency on
// demand.
//
// Data layer: a graph's tasks are columns — one row of interned ids plus
// scalars per task, in a ColumnTaskSource (core/task_columns.h) over the
// graph's TracePools — appended by every producer and shared by
// edge-filtered derivations (with_edges_if). On top of that payload the
// graph owns a columnar TaskMetaTable (core/task_meta.h) — per-task
// CudaApi/category/flags, dense LaneIds and collective rendezvous groups,
// all classified once (finalize(), or lazily in meta()) and shared by
// those derivations too. tasks() / task(id) are a const Task view for
// SimulatorHooks, materialized from the columns once per graph.
//
// Thread safety: mutation (add_task / add_edge) is not
// synchronized — build the graph on one thread. Once built, every const
// member is safe to call from any number of threads concurrently: the lazily
// built CSR adjacency cache, the materialized tasks and the TaskMetaTable
// are each guarded by double-checked locking, so a frozen graph can back
// many Simulator instances at once (api::Sweep fans scenario variants out
// over exactly this shared-const-graph shape).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "core/task.h"
#include "core/task_columns.h"
#include "core/task_meta.h"
#include "io/column.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace lumos::core {

/// Count of edges per dependency type, indexable by DepType (a dense enum).
/// Iteration yields (type, count) entries for the types present (count > 0),
/// matching the sparse-map interface this replaced.
class EdgeTypeHistogram {
 public:
  std::size_t& operator[](DepType type) {
    return counts_[static_cast<std::size_t>(type)];
  }
  std::size_t operator[](DepType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }

  std::size_t total() const;
  bool operator==(const EdgeTypeHistogram&) const = default;

  struct Entry {
    DepType type;
    std::size_t count;
  };

  class const_iterator {
   public:
    const_iterator(const EdgeTypeHistogram* hist, std::size_t pos)
        : hist_(hist), pos_(pos) {
      skip_zeros();
    }
    Entry operator*() const {
      return {static_cast<DepType>(pos_), hist_->counts_[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      skip_zeros();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void skip_zeros() {
      while (pos_ < kDepTypeCount && hist_->counts_[pos_] == 0) ++pos_;
    }
    const EdgeTypeHistogram* hist_;
    std::size_t pos_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, kDepTypeCount}; }

 private:
  std::array<std::size_t, kDepTypeCount> counts_{};
};

class ExecutionGraph {
 public:
  /// An empty graph over fresh pools.
  ExecutionGraph();
  /// An empty graph whose add_task rows carry string ids interned into
  /// `pools` — the producer path.
  explicit ExecutionGraph(std::shared_ptr<trace::TracePools> pools);
  // A graph is not copied: share a frozen one (shared_ptr<const>) or derive
  // one (with_edges_if). The caches hold mutexes/atomics, so moves are
  // spelled out: payload (columns, edges) transfers, cache state of the
  // source is carried over. A moved-from graph is empty: size(), meta(),
  // tasks() and the edge accessors work on it; add_task throws.
  ExecutionGraph(const ExecutionGraph&) = delete;
  ExecutionGraph& operator=(const ExecutionGraph&) = delete;
  ExecutionGraph(ExecutionGraph&& other) noexcept;
  /// Analysis escape: a move writes every cache member of both sides
  /// without locks — moving a graph that is concurrently read is a caller
  /// bug by contract (a move mutates), so there is no discipline here for
  /// the analysis to check.
  ExecutionGraph& operator=(ExecutionGraph&& other) noexcept
      LUMOS_NO_THREAD_SAFETY_ANALYSIS;

  /// Appends a task as one column row (string ids of the pools passed at
  /// construction), assigning the next id (= program order). Returns it.
  /// std::logic_error on a moved-from graph.
  TaskId add_task(const Processor& processor,
                  const trace::EventTable::Row& row);
  /// Appends rows order[k] of `events` as tasks, in that order, each on
  /// the processor its row names (rank pid, gpu for device categories,
  /// lane tid): the parser's batch form of add_task, one column gather.
  /// Returns the first new id. std::logic_error on a moved-from graph.
  TaskId add_tasks(const trace::EventTable& events,
                   std::span<const std::uint32_t> order);
  /// Build phase: overrides the duration of task `id`'s row, an id
  /// add_task or add_tasks returned.
  void set_duration(TaskId id, std::int64_t dur_ns);

  /// Adds a fixed dependency edge. Self-edges and invalid ids are rejected
  /// with std::invalid_argument.
  void add_edge(TaskId src, TaskId dst, DepType type);

  /// Capacity hint: room for `tasks` rows and `edges` edges in total.
  /// Shared rows are cloned first, as add_task does, so a published meta
  /// table keeps reading rows that do not move.
  void reserve(std::size_t tasks, std::size_t edges);

  /// The Task view hooked simulation reads, materialized from the columns
  /// on first call (once per graph, thread-safe).
  const std::vector<Task>& tasks() const {
    ensure_tasks();
    return tasks_unsync();
  }
  const Task& task(TaskId id) const {
    ensure_tasks();
    return tasks_unsync()[static_cast<std::size_t>(id)];
  }
  /// Task count: the column row count.
  std::size_t size() const { return columns_ ? columns_->count() : 0; }
  bool empty() const { return size() == 0; }

  /// The edges as Edge values, read from the src / dst / type columns: the
  /// layout snapshots store, so a loaded graph borrows them.
  auto edges() const {
    return std::views::iota(std::size_t{0}, edge_src_.size()) |
           std::views::transform([src = edge_src_.data(),
                                  dst = edge_dst_.data(),
                                  type = edge_type_.data()](std::size_t i) {
             return Edge{src[i], dst[i], static_cast<DepType>(type[i])};
           });
  }

  /// The columnar per-task metadata (core/task_meta.h): lanes, interned
  /// names/ops/groups, CudaApi, durations, rendezvous groups. Built lazily
  /// on first use (thread-safe); producers call finalize() to build it
  /// eagerly at the build/parse boundary. Valid until the next mutation.
  ///
  /// Analysis escape: the lock-free read of meta_ is sound because
  /// ensure_meta()'s acquire-load of meta_valid_ pairs with the builder's
  /// release-store, and the table is immutable from publication until the
  /// next (single-threaded, documented) mutation.
  const TaskMetaTable& meta() const LUMOS_NO_THREAD_SAFETY_ANALYSIS;

  /// Eagerly builds the derived indexes (meta table + adjacency). Producers
  /// call this once a graph is fully built, so all semantic classification
  /// happens at build time, before the graph is published to (possibly
  /// concurrent) consumers.
  void finalize();

  /// Successor task ids of `id` (fixed edges only). Valid until the next
  /// mutation; builds the adjacency index lazily.
  ///
  /// Analysis escape (both directions): the CSR vectors are read without
  /// adjacency_mutex_ only after ensure_adjacency()'s acquire-load of
  /// adjacency_valid_ observed the builder's release-store; the index is
  /// immutable until the next single-threaded mutation invalidates it.
  std::span<const TaskId> successors(TaskId id) const
      LUMOS_NO_THREAD_SAFETY_ANALYSIS;
  std::span<const TaskId> predecessors(TaskId id) const
      LUMOS_NO_THREAD_SAFETY_ANALYSIS;

  /// Number of fixed in-edges per task.
  std::vector<std::int32_t> in_degrees() const;

  /// Distinct rank ids in ascending order.
  std::vector<std::int32_t> ranks() const;

  /// Count of edges of each dependency type.
  EdgeTypeHistogram edge_type_histogram() const;

  /// Verifies the graph is a DAG (fixed edges only); returns false and
  /// fills `cycle_hint` with a task on a cycle otherwise.
  bool is_acyclic(TaskId* cycle_hint = nullptr) const;

  /// Returns a graph keeping only the edges `keep` accepts (how the dPRO
  /// baseline graph is derived). It shares this graph's columns and meta
  /// table: both depend only on the rows, which are identical.
  ExecutionGraph with_edges_if(
      const std::function<bool(const Edge&)>& keep) const;
  /// with_edges_if dropping every edge of type `drop` (ablation support).
  ExecutionGraph without_edges(DepType drop) const;

 private:
  friend struct lumos::snapshot::Access;  // installs columns + meta

  /// The rows, cloned first when shared (build phase only).
  ColumnTaskSource& owned_columns();
  /// The id the next appended task gets; invalidates the caches a new row
  /// makes stale. std::logic_error on a moved-from graph.
  TaskId next_task_id();
  /// Appends an edge unchecked: add_edge validates first, with_edges_if
  /// copies edges this graph already holds.
  void push_edge(const Edge& e);

  void build_adjacency() const LUMOS_REQUIRES(adjacency_mutex_);
  /// Builds the adjacency index if missing. Safe to race from const
  /// accessors: double-checked on `adjacency_valid_` under `adjacency_mutex_`.
  void ensure_adjacency() const LUMOS_EXCLUDES(adjacency_mutex_);
  /// Builds the meta table if missing; same double-checked discipline on
  /// `meta_valid_` under `meta_mutex_`.
  void ensure_meta() const LUMOS_EXCLUDES(meta_mutex_);
  /// Materializes tasks from the columns if not yet present; same
  /// double-checked discipline on `tasks_valid_` under `tasks_mutex_`.
  void ensure_tasks() const LUMOS_EXCLUDES(tasks_mutex_);

  /// Analysis escape for the double-checked fast path: tasks_ may be read
  /// without tasks_mutex_ because every reader arrives through
  /// ensure_tasks(), whose acquire-load of tasks_valid_ pairs with the
  /// builder's release-store — from publication until the next
  /// (single-threaded) add_task the vector is immutable. All other access
  /// takes tasks_mutex_ and stays under full analysis.
  const std::vector<Task>& tasks_unsync() const
      LUMOS_NO_THREAD_SAFETY_ANALYSIS {
    return tasks_;
  }

  // The task rows; null only in a moved-from graph. Edge-filtered
  // derivations share them; a graph that appends to shared columns clones
  // them first.
  std::shared_ptr<ColumnTaskSource> columns_;

  // The Task view, materialized from columns_ on first demand (mutable
  // cache, double-checked). add_task only clears the flag; the next
  // materialization overwrites the stale vector.
  mutable Mutex tasks_mutex_;
  mutable std::vector<Task> tasks_ LUMOS_GUARDED_BY(tasks_mutex_);
  mutable std::atomic<bool> tasks_valid_{false};

  io::Column<TaskId> edge_src_;
  io::Column<TaskId> edge_dst_;
  io::Column<std::uint8_t> edge_type_;  ///< a DepType

  // Lazily built CSR adjacency (mutable cache). `adjacency_valid_` is an
  // acquire/release flag: readers that observe `true` see the fully built
  // index; builders publish under `adjacency_mutex_`.
  mutable std::atomic<bool> adjacency_valid_{false};
  mutable Mutex adjacency_mutex_;
  mutable std::vector<std::int32_t> succ_offsets_
      LUMOS_GUARDED_BY(adjacency_mutex_);
  mutable std::vector<std::int32_t> pred_offsets_
      LUMOS_GUARDED_BY(adjacency_mutex_);
  mutable std::vector<TaskId> succ_ids_ LUMOS_GUARDED_BY(adjacency_mutex_);
  mutable std::vector<TaskId> pred_ids_ LUMOS_GUARDED_BY(adjacency_mutex_);

  // Lazily built columnar metadata (mutable cache, same discipline). Held
  // behind a shared_ptr so with_edges_if shares the immutable table.
  mutable std::atomic<bool> meta_valid_{false};
  mutable Mutex meta_mutex_;
  mutable std::shared_ptr<const TaskMetaTable> meta_
      LUMOS_GUARDED_BY(meta_mutex_);
};

}  // namespace lumos::core
