#include "core/execution_graph.h"

#include <set>
#include <stdexcept>

namespace lumos::core {

std::string_view to_string(DepType type) {
  switch (type) {
    case DepType::IntraThread: return "intra_thread";
    case DepType::InterThread: return "inter_thread";
    case DepType::CpuToGpu: return "cpu_to_gpu";
    case DepType::GpuToCpu: return "gpu_to_cpu";
    case DepType::IntraStream: return "intra_stream";
    case DepType::InterStream: return "inter_stream";
    case DepType::CrossRank: return "cross_rank";
  }
  return "unknown";
}

ExecutionGraph::ExecutionGraph()
    : ExecutionGraph(std::make_shared<trace::TracePools>()) {}

ExecutionGraph::ExecutionGraph(std::shared_ptr<trace::TracePools> pools)
    : columns_(std::make_shared<ColumnTaskSource>(std::move(pools))) {}

ExecutionGraph::ExecutionGraph(ExecutionGraph&& other) noexcept {
  *this = std::move(other);
}

ExecutionGraph& ExecutionGraph::operator=(ExecutionGraph&& other) noexcept {
  if (this == &other) return *this;
  columns_ = std::move(other.columns_);
  tasks_ = std::move(other.tasks_);
  tasks_valid_.store(other.tasks_valid_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  other.tasks_valid_.store(false, std::memory_order_relaxed);
  edge_src_ = std::move(other.edge_src_);
  edge_dst_ = std::move(other.edge_dst_);
  edge_type_ = std::move(other.edge_type_);
  succ_offsets_ = std::move(other.succ_offsets_);
  pred_offsets_ = std::move(other.pred_offsets_);
  succ_ids_ = std::move(other.succ_ids_);
  pred_ids_ = std::move(other.pred_ids_);
  meta_ = std::move(other.meta_);
  adjacency_valid_.store(
      other.adjacency_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.adjacency_valid_.store(false, std::memory_order_relaxed);
  meta_valid_.store(other.meta_valid_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  other.meta_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

void ExecutionGraph::ensure_tasks() const {
  if (tasks_valid_.load(std::memory_order_acquire)) return;
  MutexLock lock(tasks_mutex_);
  if (tasks_valid_.load(std::memory_order_relaxed)) return;
  tasks_ = columns_ ? columns_->materialize() : std::vector<Task>{};
  tasks_valid_.store(true, std::memory_order_release);
}

TaskId ExecutionGraph::add_task(const Processor& processor,
                                const trace::EventTable::Row& row) {
  const TaskId id = next_task_id();
  owned_columns().push(processor, row);
  return id;
}

TaskId ExecutionGraph::add_tasks(const trace::EventTable& events,
                                 std::span<const std::uint32_t> order) {
  const TaskId first = next_task_id();
  owned_columns().append(events, order);
  return first;
}

void ExecutionGraph::set_duration(TaskId id, std::int64_t dur_ns) {
  owned_columns().set_duration(static_cast<std::size_t>(id), dur_ns);
  tasks_valid_.store(false, std::memory_order_relaxed);
  meta_valid_.store(false, std::memory_order_relaxed);
}

TaskId ExecutionGraph::next_task_id() {
  if (!columns_) {
    throw std::logic_error("ExecutionGraph: add_task on a moved-from graph");
  }
  // Build phase, single-threaded. A materialized Task vector is a stale
  // cache from here on.
  tasks_valid_.store(false, std::memory_order_relaxed);
  adjacency_valid_.store(false, std::memory_order_relaxed);
  meta_valid_.store(false, std::memory_order_relaxed);
  return static_cast<TaskId>(columns_->count());
}

void ExecutionGraph::add_edge(TaskId src, TaskId dst, DepType type) {
  if (src == dst) {
    throw std::invalid_argument("ExecutionGraph: self edge on task " +
                                std::to_string(src));
  }
  const auto n = static_cast<TaskId>(size());
  if (src < 0 || dst < 0 || src >= n || dst >= n) {
    throw std::invalid_argument("ExecutionGraph: edge references invalid task");
  }
  push_edge({src, dst, type});
}

void ExecutionGraph::push_edge(const Edge& e) {
  edge_src_.push_back(e.src);
  edge_dst_.push_back(e.dst);
  edge_type_.push_back(static_cast<std::uint8_t>(e.type));
  adjacency_valid_.store(false, std::memory_order_relaxed);
}

void ExecutionGraph::reserve(std::size_t tasks, std::size_t edges) {
  if (columns_) owned_columns().reserve(tasks);
  edge_src_.reserve(edges);
  edge_dst_.reserve(edges);
  edge_type_.reserve(edges);
}

ColumnTaskSource& ExecutionGraph::owned_columns() {
  // Rows shared with a copy or with a published meta table, which reads
  // them in place, are cloned before they can reallocate.
  if (columns_.use_count() != 1) {
    columns_ = std::make_shared<ColumnTaskSource>(*columns_);
  }
  return *columns_;
}

void ExecutionGraph::build_adjacency() const {
  const std::size_t n = size();
  succ_offsets_.assign(n + 1, 0);
  pred_offsets_.assign(n + 1, 0);
  const std::span<const TaskId> src = edge_src_, dst = edge_dst_;
  for (std::size_t i = 0; i < src.size(); ++i) {
    ++succ_offsets_[static_cast<std::size_t>(src[i]) + 1];
    ++pred_offsets_[static_cast<std::size_t>(dst[i]) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    succ_offsets_[i] += succ_offsets_[i - 1];
    pred_offsets_[i] += pred_offsets_[i - 1];
  }
  succ_ids_.assign(src.size(), kInvalidTask);
  pred_ids_.assign(src.size(), kInvalidTask);
  std::vector<std::int32_t> succ_fill(succ_offsets_.begin(),
                                      succ_offsets_.end() - 1);
  std::vector<std::int32_t> pred_fill(pred_offsets_.begin(),
                                      pred_offsets_.end() - 1);
  for (std::size_t i = 0; i < src.size(); ++i) {
    succ_ids_[static_cast<std::size_t>(
        succ_fill[static_cast<std::size_t>(src[i])]++)] = dst[i];
    pred_ids_[static_cast<std::size_t>(
        pred_fill[static_cast<std::size_t>(dst[i])]++)] = src[i];
  }
}

void ExecutionGraph::ensure_adjacency() const {
  // Double-checked: concurrent readers of a frozen graph (Sweep workers
  // sharing one baseline) may race to the first successors() call; exactly
  // one builds, the rest wait, and the release store publishes the index.
  if (adjacency_valid_.load(std::memory_order_acquire)) return;
  MutexLock lock(adjacency_mutex_);
  if (adjacency_valid_.load(std::memory_order_relaxed)) return;
  build_adjacency();
  adjacency_valid_.store(true, std::memory_order_release);
}

void ExecutionGraph::ensure_meta() const {
  if (meta_valid_.load(std::memory_order_acquire)) return;
  MutexLock lock(meta_mutex_);
  if (meta_valid_.load(std::memory_order_relaxed)) return;
  // A moved-from graph has no columns; it classifies as an empty payload.
  meta_ = std::make_shared<const TaskMetaTable>(TaskMetaTable::build(
      columns_ ? columns_ : std::make_shared<const ColumnTaskSource>()));
  meta_valid_.store(true, std::memory_order_release);
}

const TaskMetaTable& ExecutionGraph::meta() const {
  ensure_meta();
  return *meta_;
}

void ExecutionGraph::finalize() {
  ensure_meta();
  ensure_adjacency();
}

std::span<const TaskId> ExecutionGraph::successors(TaskId id) const {
  ensure_adjacency();
  const auto i = static_cast<std::size_t>(id);
  return {succ_ids_.data() + succ_offsets_[i],
          static_cast<std::size_t>(succ_offsets_[i + 1] - succ_offsets_[i])};
}

std::span<const TaskId> ExecutionGraph::predecessors(TaskId id) const {
  ensure_adjacency();
  const auto i = static_cast<std::size_t>(id);
  return {pred_ids_.data() + pred_offsets_[i],
          static_cast<std::size_t>(pred_offsets_[i + 1] - pred_offsets_[i])};
}

std::vector<std::int32_t> ExecutionGraph::in_degrees() const {
  std::vector<std::int32_t> deg(size(), 0);
  for (const TaskId dst : edge_dst_) ++deg[static_cast<std::size_t>(dst)];
  return deg;
}

std::vector<std::int32_t> ExecutionGraph::ranks() const {
  if (!columns_) return {};
  const std::span<const std::int32_t> column = columns_->rank_column();
  const std::set<std::int32_t> ranks(column.begin(), column.end());
  return {ranks.begin(), ranks.end()};
}

std::size_t EdgeTypeHistogram::total() const {
  std::size_t sum = 0;
  for (std::size_t c : counts_) sum += c;
  return sum;
}

EdgeTypeHistogram ExecutionGraph::edge_type_histogram() const {
  EdgeTypeHistogram hist;
  for (const std::uint8_t type : edge_type_) {
    ++hist[static_cast<DepType>(type)];
  }
  return hist;
}

bool ExecutionGraph::is_acyclic(TaskId* cycle_hint) const {
  // Kahn's algorithm; anything left unprocessed sits on a cycle.
  std::vector<std::int32_t> deg = in_degrees();
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < deg.size(); ++i) {
    if (deg[i] == 0) ready.push_back(static_cast<TaskId>(i));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    TaskId t = ready.back();
    ready.pop_back();
    ++processed;
    for (TaskId s : successors(t)) {
      if (--deg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (processed == size()) return true;
  if (cycle_hint != nullptr) {
    for (std::size_t i = 0; i < deg.size(); ++i) {
      if (deg[i] > 0) {
        *cycle_hint = static_cast<TaskId>(i);
        break;
      }
    }
  }
  return false;
}

ExecutionGraph ExecutionGraph::with_edges_if(
    const std::function<bool(const Edge&)>& keep) const {
  ExecutionGraph out;
  out.columns_ = columns_;
  out.edge_src_.reserve(edge_src_.size());
  out.edge_dst_.reserve(edge_src_.size());
  out.edge_type_.reserve(edge_src_.size());
  for (const Edge& e : edges()) {
    if (keep(e)) out.push_edge(e);
  }
  // The rows are identical, so the derived graph shares this one's meta
  // table (building it here if needed keeps derived replays off the lazy
  // path). `out` is local, so its lock is uncontended — taken anyway so
  // the analysis can check the cross-object copy instead of being escaped.
  ensure_meta();
  {
    MutexLock out_lock(out.meta_mutex_);
    MutexLock lock(meta_mutex_);
    out.meta_ = meta_;
  }
  out.meta_valid_.store(true, std::memory_order_relaxed);
  return out;
}

ExecutionGraph ExecutionGraph::without_edges(DepType drop) const {
  return with_edges_if([drop](const Edge& e) { return e.type != drop; });
}

}  // namespace lumos::core
