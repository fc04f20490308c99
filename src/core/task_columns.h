// The column payload of an ExecutionGraph: what every producer writes.
//
// A graph's tasks are stored as rows of interned ids plus scalars — one
// trace::EventTable row per task, its strings interned into the graph's
// TracePools, and the task's Processor as rank / gpu / lane columns. The
// producers (IterationGraphBuilder for ground truth and every what-if
// rebuild, TraceParser, the snapshot loader) append rows here directly;
// TaskMetaTable classifies from these columns without re-interning, and
// report boundaries (SimResult::to_trace, template extraction, snapshot
// save, fusion) read them back. A Task view is materialized from the
// columns only for hooked simulation — once per graph, through
// ExecutionGraph's lazy task cache.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/task.h"
#include "io/column.h"
#include "trace/event_table.h"

namespace lumos::core {

/// Task payload as columns. Building (push) is single-threaded; a published
/// payload is immutable and safe to read from any number of threads.
class ColumnTaskSource {
 public:
  /// An empty payload interning into `pools` (fresh pools when null).
  explicit ColumnTaskSource(std::shared_ptr<trace::TracePools> pools = nullptr);
  /// Adopts existing columns (the snapshot loader's zero-copy views).
  ColumnTaskSource(trace::EventTable events, io::Column<std::int32_t> rank,
                   io::Column<std::uint8_t> gpu, io::Column<std::int64_t> lane);

  std::size_t count() const { return events_.size(); }
  /// Builds the Task view (ids 0..count-1 in order).
  std::vector<Task> materialize() const;

  /// Appends one task. String ids in `row` must be ids of pools().
  void push(const Processor& processor, const trace::EventTable::Row& row);
  /// Appends rows order[k] of `events` as tasks, each on the processor its
  /// row names — rank pid, the device flag of its category, lane tid —
  /// through one column gather (trace::EventTable::append_rows).
  void append(const trace::EventTable& events,
              std::span<const std::uint32_t> order);
  /// Build phase: overrides task `i`'s duration.
  void set_duration(std::size_t i, std::int64_t dur_ns) {
    events_.set_dur_ns(i, dur_ns);
  }
  void reserve(std::size_t n);

  const trace::EventTable& events() const { return events_; }
  const std::shared_ptr<trace::TracePools>& pools() const {
    return events_.pools();
  }

  Processor processor(std::size_t i) const {
    return {rank_[i], gpu_[i] != 0, lane_[i]};
  }
  std::int32_t rank(std::size_t i) const { return rank_[i]; }
  bool gpu(std::size_t i) const { return gpu_[i] != 0; }

  std::span<const std::int32_t> rank_column() const { return rank_; }
  std::span<const std::uint8_t> gpu_column() const { return gpu_; }
  std::span<const std::int64_t> lane_column() const { return lane_; }

 private:
  trace::EventTable events_;
  io::Column<std::int32_t> rank_;
  io::Column<std::uint8_t> gpu_;
  io::Column<std::int64_t> lane_;
};

}  // namespace lumos::core
