#include "trace/event_table.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <set>

namespace lumos::trace {

EventTable::EventTable() : pools_(std::make_shared<TracePools>()) {}

EventTable::EventTable(std::shared_ptr<TracePools> pools)
    : pools_(std::move(pools)) {
  if (!pools_) pools_ = std::make_shared<TracePools>();
}

EventTable::EventTable(std::initializer_list<TraceEvent> events)
    : EventTable() {
  reserve(events.size());
  for (const TraceEvent& e : events) push_back(e);
}

void EventTable::reserve(std::size_t n) {
  cat_.reserve(n);
  api_.reserve(n);
  ts_.reserve(n);
  dur_.reserve(n);
  pid_.reserve(n);
  tid_.reserve(n);
  correlation_.reserve(n);
  stream_.reserve(n);
  cuda_event_.reserve(n);
  layer_.reserve(n);
  microbatch_.reserve(n);
  bytes_moved_.reserve(n);
  name_.reserve(n);
  phase_.reserve(n);
  block_.reserve(n);
  coll_idx_.reserve(n);
  gemm_idx_.reserve(n);
}

void EventTable::push_back(const TraceEvent& e) {
  Row row;
  row.cat = static_cast<std::uint8_t>(e.cat);
  row.ts_ns = e.ts_ns;
  row.dur_ns = e.dur_ns;
  row.pid = e.pid;
  row.tid = e.tid;
  row.correlation = e.correlation;
  row.stream = e.stream;
  row.cuda_event = e.cuda_event;
  row.layer = e.layer;
  row.microbatch = e.microbatch;
  row.bytes_moved = e.bytes_moved;
  row.name = intern_or_invalid(pools_->names, e.name);
  row.phase = intern_or_invalid(pools_->names, e.phase);
  row.block = intern_or_invalid(pools_->names, e.block);
  if (e.collective != CollectiveInfo{}) {
    row.has_collective = true;
    row.coll_op = intern_or_invalid(pools_->ops, e.collective.op);
    row.coll_group = intern_or_invalid(pools_->groups, e.collective.group);
    row.coll_bytes = e.collective.bytes;
    row.coll_group_size = e.collective.group_size;
    row.coll_instance = e.collective.instance;
  }
  if (e.gemm != GemmShape{}) {
    row.has_gemm = true;
    row.gemm_m = e.gemm.m;
    row.gemm_n = e.gemm.n;
    row.gemm_k = e.gemm.k;
  }
  push_row(row);
}

void EventTable::push_row(const Row& row) {
  cat_.push_back(row.cat);
  // The CUDA API classification happens exactly once, here at ingest —
  // unless the producer already knows it (graph builders, row copies).
  const auto cat = static_cast<EventCategory>(row.cat);
  CudaApi api = row.api;
  if (api == CudaApi::None && cat == EventCategory::CudaRuntime &&
      row.name != NameId::kInvalidIndex) {
    api = cuda_api_from_name(pools_->names.view(row.name));
  }
  api_.push_back(static_cast<std::uint8_t>(api));
  ts_.push_back(row.ts_ns);
  dur_.push_back(row.dur_ns);
  pid_.push_back(row.pid);
  tid_.push_back(row.tid);
  correlation_.push_back(row.correlation);
  stream_.push_back(row.stream);
  cuda_event_.push_back(row.cuda_event);
  layer_.push_back(row.layer);
  microbatch_.push_back(row.microbatch);
  bytes_moved_.push_back(row.bytes_moved);
  name_.push_back(row.name);
  phase_.push_back(row.phase);
  block_.push_back(row.block);
  if (row.has_collective) {
    coll_idx_.push_back(static_cast<std::int32_t>(coll_.op.size()));
    coll_.op.push_back(row.coll_op);
    coll_.group.push_back(row.coll_group);
    coll_.bytes.push_back(row.coll_bytes);
    coll_.group_size.push_back(row.coll_group_size);
    coll_.instance.push_back(row.coll_instance);
  } else {
    coll_idx_.push_back(-1);
  }
  if (row.has_gemm) {
    gemm_idx_.push_back(static_cast<std::int32_t>(gemm_.m.size()));
    gemm_.m.push_back(row.gemm_m);
    gemm_.n.push_back(row.gemm_n);
    gemm_.k.push_back(row.gemm_k);
  } else {
    gemm_idx_.push_back(-1);
  }
}

EventTable::Row EventTable::row(std::size_t i) const {
  Row row;
  row.cat = cat_[i];
  row.api = static_cast<CudaApi>(api_[i]);
  row.ts_ns = ts_[i];
  row.dur_ns = dur_[i];
  row.pid = pid_[i];
  row.tid = tid_[i];
  row.correlation = correlation_[i];
  row.stream = stream_[i];
  row.cuda_event = cuda_event_[i];
  row.layer = layer_[i];
  row.microbatch = microbatch_[i];
  row.bytes_moved = bytes_moved_[i];
  row.name = name_[i];
  row.phase = phase_[i];
  row.block = block_[i];
  if (const std::int32_t r = coll_idx_[i]; r >= 0) {
    const auto u = static_cast<std::size_t>(r);
    row.has_collective = true;
    row.coll_op = coll_.op[u];
    row.coll_group = coll_.group[u];
    row.coll_bytes = coll_.bytes[u];
    row.coll_group_size = coll_.group_size[u];
    row.coll_instance = coll_.instance[u];
  }
  if (const std::int32_t r = gemm_idx_[i]; r >= 0) {
    const auto u = static_cast<std::size_t>(r);
    row.has_gemm = true;
    row.gemm_m = gemm_.m[u];
    row.gemm_n = gemm_.n[u];
    row.gemm_k = gemm_.k[u];
  }
  return row;
}

RowRemap::RowRemap(const TracePools& from, TracePools& to)
    : names_{&from.names, &to.names, {}},
      ops_{&from.ops, &to.ops, {}},
      groups_{&from.groups, &to.groups, {}} {}

std::uint32_t RowRemap::Domain::map(std::uint32_t id) {
  // kInvalidIndex encodes the empty string in every domain: never remapped.
  if (id == NameId::kInvalidIndex) return id;
  if (id >= memo.size()) memo.resize(from->size(), NameId::kInvalidIndex);
  std::uint32_t& out = memo[id];
  if (out == NameId::kInvalidIndex) out = to->intern(from->view(id));
  return out;
}

EventTable::Row RowRemap::operator()(EventTable::Row row) {
  row.name = names_.map(row.name);
  row.phase = names_.map(row.phase);
  row.block = names_.map(row.block);
  if (row.has_collective) {
    row.coll_op = ops_.map(row.coll_op);
    row.coll_group = groups_.map(row.coll_group);
  }
  return row;
}

void RowRemap::intern_rows(const EventTable& t,
                           std::span<const std::uint32_t> rows) {
  for (const std::uint32_t i : rows) {
    names_.map(t.name_id(i).index);
    names_.map(t.phase_id(i).index);
    names_.map(t.block_id(i).index);
    if (t.has_collective(i)) {
      ops_.map(t.collective_op(i).index);
      groups_.map(t.collective_group(i).index);
    }
  }
}

namespace {

/// Grows `column` by `n` entries and returns the first new one.
template <class T>
T* grow(io::Column<T>& column, std::size_t n) {
  const std::size_t base = column.size();
  column.resize(base + n);
  return column.begin() + base;
}

/// dst += src[order[k]] for every k, each value passed through `map`.
template <class T, class Map>
void gather(io::Column<T>& dst, const io::Column<T>& src,
            std::span<const std::uint32_t> order, Map map) {
  T* out = grow(dst, order.size());
  const T* in = src.data();  // const read: no detach of a borrowed column
  for (std::size_t k = 0; k < order.size(); ++k) out[k] = map(in[order[k]]);
}

template <class T>
void gather(io::Column<T>& dst, const io::Column<T>& src,
            std::span<const std::uint32_t> order) {
  gather(dst, src, order, [](T v) { return v; });
}

}  // namespace

void EventTable::append_rows(const EventTable& src,
                             std::span<const std::uint32_t> order,
                             RowRemap* remap) {
  std::optional<RowRemap> own;
  if (remap == nullptr && src.pools_ != pools_) {
    remap = &own.emplace(*src.pools_, *pools_);
    remap->intern_rows(src, order);
  }
  const auto name = [remap](std::uint32_t id) {
    return remap != nullptr ? remap->names_.map(id) : id;
  };
  const auto op = [remap](std::uint32_t id) {
    return remap != nullptr ? remap->ops_.map(id) : id;
  };
  const auto group = [remap](std::uint32_t id) {
    return remap != nullptr ? remap->groups_.map(id) : id;
  };
  gather(cat_, src.cat_, order);
  gather(api_, src.api_, order);
  gather(ts_, src.ts_, order);
  gather(dur_, src.dur_, order);
  gather(pid_, src.pid_, order);
  gather(tid_, src.tid_, order);
  gather(correlation_, src.correlation_, order);
  gather(stream_, src.stream_, order);
  gather(cuda_event_, src.cuda_event_, order);
  gather(layer_, src.layer_, order);
  gather(microbatch_, src.microbatch_, order);
  gather(bytes_moved_, src.bytes_moved_, order);
  gather(name_, src.name_, order, name);
  gather(phase_, src.phase_, order, name);
  gather(block_, src.block_, order, name);
  // Side tables: a row with a payload gets the next dense side-table row.
  std::int32_t* coll_idx = grow(coll_idx_, order.size());
  std::int32_t* gemm_idx = grow(gemm_idx_, order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint32_t i = order[k];
    coll_idx[k] = -1;
    if (const std::int32_t r = src.coll_idx_[i]; r >= 0) {
      const auto u = static_cast<std::size_t>(r);
      coll_idx[k] = static_cast<std::int32_t>(coll_.op.size());
      coll_.op.push_back(op(src.coll_.op[u]));
      coll_.group.push_back(group(src.coll_.group[u]));
      coll_.bytes.push_back(src.coll_.bytes[u]);
      coll_.group_size.push_back(src.coll_.group_size[u]);
      coll_.instance.push_back(src.coll_.instance[u]);
    }
    gemm_idx[k] = -1;
    if (const std::int32_t r = src.gemm_idx_[i]; r >= 0) {
      const auto u = static_cast<std::size_t>(r);
      gemm_idx[k] = static_cast<std::int32_t>(gemm_.m.size());
      gemm_.m.push_back(src.gemm_.m[u]);
      gemm_.n.push_back(src.gemm_.n[u]);
      gemm_.k.push_back(src.gemm_.k[u]);
    }
  }
}

namespace {

template <class T>
void apply_permutation(io::Column<T>& column,
                       const std::vector<std::uint32_t>& order) {
  const T* src = column.data();  // const read: no detach of a borrowed column
  std::vector<T> next(column.size());
  for (std::size_t i = 0; i < order.size(); ++i) next[i] = src[order[i]];
  column = std::move(next);
}

}  // namespace

void EventTable::sort_by_time() {
  const std::size_t n = size();
  const auto before = [this](std::size_t a, std::size_t b) {
    if (ts_[a] != ts_[b]) return ts_[a] < ts_[b];
    return tid_[a] < tid_[b];
  };
  // A stable sort of sorted rows is the identity: skip the permutation.
  std::size_t i = 1;
  while (i < n && !before(i, i - 1)) ++i;
  if (i >= n) return;
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), before);
  apply_permutation(cat_, order);
  apply_permutation(api_, order);
  apply_permutation(ts_, order);
  apply_permutation(dur_, order);
  apply_permutation(pid_, order);
  apply_permutation(tid_, order);
  apply_permutation(correlation_, order);
  apply_permutation(stream_, order);
  apply_permutation(cuda_event_, order);
  apply_permutation(layer_, order);
  apply_permutation(microbatch_, order);
  apply_permutation(bytes_moved_, order);
  apply_permutation(name_, order);
  apply_permutation(phase_, order);
  apply_permutation(block_, order);
  apply_permutation(coll_idx_, order);
  apply_permutation(gemm_idx_, order);
}

namespace {

bool is_identity_map(std::span<const std::uint32_t> map) {
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map[i] != i) return false;
  }
  return true;
}

void remap_column(io::Column<std::uint32_t>& column,
                  std::span<const std::uint32_t> map) {
  for (std::size_t i = 0; i < column.size(); ++i) {
    // kInvalidIndex encodes "empty string" in every pooled column and is
    // the same sentinel for all three handle tags — it never remaps.
    if (column[i] != NameId::kInvalidIndex) column[i] = map[column[i]];
  }
}

}  // namespace

void EventTable::rebind_pools(std::shared_ptr<TracePools> pools,
                              std::span<const std::uint32_t> name_map,
                              std::span<const std::uint32_t> op_map,
                              std::span<const std::uint32_t> group_map) {
  // A worker whose private pool happens to agree id-for-id with the shared
  // pool (e.g. all ranks emit the same strings in the same order — the
  // common case for homogeneous clusters) skips the column sweeps entirely.
  if (!is_identity_map(name_map)) {
    remap_column(name_, name_map);
    remap_column(phase_, name_map);
    remap_column(block_, name_map);
  }
  if (!is_identity_map(op_map)) remap_column(coll_.op, op_map);
  if (!is_identity_map(group_map)) remap_column(coll_.group, group_map);
  pools_ = std::move(pools);
}

TraceEvent EventTable::materialize(std::size_t i) const {
  TraceEvent e;
  e.name = std::string(view(name_[i]));
  e.cat = static_cast<EventCategory>(cat_[i]);
  e.ts_ns = ts_[i];
  e.dur_ns = dur_[i];
  e.pid = pid_[i];
  e.tid = tid_[i];
  e.correlation = correlation_[i];
  e.stream = stream_[i];
  e.cuda_event = cuda_event_[i];
  e.layer = layer_[i];
  e.microbatch = microbatch_[i];
  e.phase = std::string(view(phase_[i]));
  e.block = std::string(view(block_[i]));
  e.bytes_moved = bytes_moved_[i];
  const std::int32_t cr = coll_idx_[i];
  if (cr >= 0) {
    const auto u = static_cast<std::size_t>(cr);
    e.collective.op =
        std::string(coll_.op[u] == OpId::kInvalidIndex
                        ? std::string_view{}
                        : pools_->ops.view(coll_.op[u]));
    e.collective.group =
        std::string(coll_.group[u] == GroupId::kInvalidIndex
                        ? std::string_view{}
                        : pools_->groups.view(coll_.group[u]));
    e.collective.bytes = coll_.bytes[u];
    e.collective.group_size = coll_.group_size[u];
    e.collective.instance = coll_.instance[u];
  }
  const std::int32_t gr = gemm_idx_[i];
  if (gr >= 0) {
    const auto u = static_cast<std::size_t>(gr);
    e.gemm = {gemm_.m[u], gemm_.n[u], gemm_.k[u]};
  }
  return e;
}

std::int64_t EventTable::begin_ns() const {
  if (ts_.empty()) return 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t t : ts_) lo = std::min(lo, t);
  return lo;
}

std::int64_t EventTable::end_ns() const {
  std::int64_t hi = 0;
  for (std::size_t i = 0; i < ts_.size(); ++i) {
    hi = std::max(hi, ts_[i] + dur_[i]);
  }
  return hi;
}

std::vector<std::int32_t> RankTrace::cpu_threads() const {
  std::set<std::int32_t> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.is_cpu(i)) tids.insert(events.tid(i));
  }
  return {tids.begin(), tids.end()};
}

std::vector<std::int64_t> RankTrace::gpu_streams() const {
  std::set<std::int64_t> streams;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.is_gpu(i)) {
      streams.insert(static_cast<std::int64_t>(events.tid(i)));
    }
  }
  return {streams.begin(), streams.end()};
}

RankTrace& ClusterTrace::add_rank(std::int32_t rank) {
  if (!pools_) pools_ = std::make_shared<TracePools>();
  ranks.push_back(RankTrace{rank, EventTable(pools_)});
  return ranks.back();
}

std::int64_t ClusterTrace::iteration_ns() const {
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = 0;
  bool any = false;
  for (const RankTrace& r : ranks) {
    if (r.events.empty()) continue;
    any = true;
    lo = std::min(lo, r.begin_ns());
    hi = std::max(hi, r.end_ns());
  }
  return any ? hi - lo : 0;
}

std::size_t ClusterTrace::total_events() const {
  std::size_t n = 0;
  for (const RankTrace& r : ranks) n += r.events.size();
  return n;
}

}  // namespace lumos::trace
