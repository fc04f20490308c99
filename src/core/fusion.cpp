#include "core/fusion.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace lumos::core {

namespace {

/// GPU-side overhead recovered per eliminated kernel (ramp-up/teardown).
constexpr std::int64_t kPerKernelSavingNs = 2'500;

}  // namespace

FusionResult fuse_elementwise(const ExecutionGraph& graph,
                              const FusionOptions& options) {
  // 1. Walk each GPU lane's tasks in id (launch) order — the meta table
  //    already holds them as dense per-lane lists — and find maximal runs
  //    of fusible kernels within one block instance, reading the event
  //    columns (one pool, so equal ids are equal strings).
  const TaskMetaTable& meta = graph.meta();
  const ColumnTaskSource& cols = meta.columns();
  const trace::EventTable& ev = cols.events();
  const std::size_t n = cols.count();
  auto fusible = [&](TaskId id) {
    const auto i = static_cast<std::size_t>(id);
    return ev.category(i) == trace::EventCategory::Kernel &&
           ev.bytes_moved(i) > 0 && !ev.collective_op(i).valid() &&
           !ev.gemm(i).valid();
  };
  auto block_key = [&](TaskId id) {
    const auto i = static_cast<std::size_t>(id);
    return std::tuple(ev.block_id(i), ev.layer(i), ev.phase_id(i),
                      ev.microbatch(i));
  };

  // head[t] = the surviving kernel that absorbs task t (t itself for a
  // run's head); added_ns[head] = extra duration the head takes on.
  std::vector<TaskId> head(n, kInvalidTask);
  std::vector<std::int64_t> added_ns(n, 0);
  FusionResult result;

  for (LaneId lane = 0; lane < static_cast<LaneId>(meta.lanes().size());
       ++lane) {
    const std::span<const TaskId> ids = meta.gpu_tasks(lane);
    std::size_t i = 0;
    while (i < ids.size()) {
      if (!fusible(ids[i])) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < ids.size() && fusible(ids[j]) &&
             block_key(ids[j]) == block_key(ids[i]) &&
             (options.max_run_length == 0 ||
              static_cast<std::int32_t>(j - i) < options.max_run_length)) {
        ++j;
      }
      if (j - i >= 2) {
        const auto h = static_cast<std::size_t>(ids[i]);
        head[h] = ids[i];
        ++result.fused_groups;
        for (std::size_t k = i + 1; k < j; ++k) {
          const auto t = static_cast<std::size_t>(ids[k]);
          head[t] = ids[i];
          const std::int64_t contribution = std::max<std::int64_t>(
              0, ev.dur_ns(t) - kPerKernelSavingNs);
          added_ns[h] += contribution;
          result.saved_ns += ev.dur_ns(t) - contribution;
          ++result.kernels_eliminated;
        }
      }
      i = j;
    }
  }

  // 2. Append the survivors' rows in order (ids shift) into fresh pools.
  //    A head is renamed `fused_<name>`, interned before the rest of its
  //    row: the order a push of the renamed event would intern it in.
  auto pools = std::make_shared<trace::TracePools>();
  trace::RowRemap remap(*ev.pools(), *pools);
  result.graph = ExecutionGraph(pools);
  result.graph.reserve(n - result.kernels_eliminated, graph.edges().size());
  std::vector<TaskId> new_id(n, kInvalidTask);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TaskId>(i);
    if (head[i] != kInvalidTask && head[i] != id) continue;  // absorbed
    trace::EventTable::Row row = ev.row(i);
    if (head[i] == id) {
      const std::uint32_t name =
          pools->names.intern("fused_" + std::string(ev.name(i)));
      row.name = trace::NameId::kInvalidIndex;
      row = remap(row);
      row.name = name;
      row.dur_ns += added_ns[i];
    } else {
      row = remap(row);
    }
    new_id[i] = result.graph.add_task(cols.processor(i), row);
  }

  // 3. Re-target edges to the heads, dropping collapsed intra-run edges
  //    and duplicates.
  auto resolve = [&](TaskId id) {
    const TaskId h = head[static_cast<std::size_t>(id)];
    return new_id[static_cast<std::size_t>(h != kInvalidTask ? h : id)];
  };
  std::set<std::tuple<TaskId, TaskId, DepType>> seen;
  for (const Edge& e : graph.edges()) {
    const TaskId src = resolve(e.src);
    const TaskId dst = resolve(e.dst);
    if (src == dst) continue;
    if (seen.insert({src, dst, e.type}).second) {
      result.graph.add_edge(src, dst, e.type);
    }
  }
  result.graph.finalize();
  return result;
}

}  // namespace lumos::core
