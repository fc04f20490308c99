#include "core/task_meta.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

namespace lumos::core {

LaneId LaneTable::id_of(const Processor& p) const {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), p,
                             [this](std::uint32_t lane, const Processor& key) {
                               return processor(static_cast<LaneId>(lane)) <
                                      key;
                             });
  if (it == sorted_.end() || !(processor(static_cast<LaneId>(*it)) == p)) {
    return kInvalidLane;
  }
  return static_cast<LaneId>(*it);
}

void LaneTable::push_back(const Processor& p) {
  rank_.push_back(p.rank);
  gpu_.push_back(p.gpu ? 1 : 0);
  lane_.push_back(p.lane);
}

namespace {

struct ProcessorHash {
  std::size_t operator()(const Processor& p) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(p.lane) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.rank))
         << 1) ^
        (p.gpu ? 1u : 0u));
  }
};

/// Hash of an (int, int64) key pair: rendezvous (group, instance) and
/// EventRecord (rank, cuda event) lookups.
struct PairHash {
  template <class A>
  std::size_t operator()(const std::pair<A, std::int64_t>& k) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k.second) * 0x9E3779B97F4A7C15ULL) ^
        static_cast<std::uint64_t>(k.first));
  }
};

}  // namespace

void LaneTable::index() {
  // Lookup index + dense rank numbering (first-appearance order). The
  // columns are read through spans and the const accessors: the non-const
  // Column operator[] would copy a borrowed column.
  const std::span<const std::int32_t> rank = rank_;
  sorted_.resize(size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    sorted_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return processor(static_cast<LaneId>(a)) <
                     processor(static_cast<LaneId>(b));
            });
  rank_index_.resize(size());
  rank_values_.clear();
  std::map<std::int32_t, std::int32_t> rank_of;
  for (std::size_t i = 0; i < rank.size(); ++i) {
    auto [it, inserted] =
        rank_of.emplace(rank[i], static_cast<std::int32_t>(rank_of.size()));
    if (inserted) rank_values_.push_back(rank[i]);
    rank_index_[i] = it->second;
  }

  // GPU lanes per rank, ascending by stream id (the cudaDeviceSynchronize
  // wait set): sorted_ walks Processors ascending, so each rank's GPU lanes
  // land in ascending stream order.
  gpu_offsets_.assign(rank_count() + 1, 0);
  for (std::uint32_t lane : sorted_) {
    if (is_gpu(static_cast<LaneId>(lane))) {
      ++gpu_offsets_[static_cast<std::size_t>(rank_index_[lane]) + 1];
    }
  }
  for (std::size_t i = 1; i < gpu_offsets_.size(); ++i) {
    gpu_offsets_[i] += gpu_offsets_[i - 1];
  }
  gpu_lane_ids_.resize(static_cast<std::size_t>(gpu_offsets_.back()));
  std::vector<std::int32_t> fill(gpu_offsets_.begin(), gpu_offsets_.end() - 1);
  for (std::uint32_t lane : sorted_) {
    if (is_gpu(static_cast<LaneId>(lane))) {
      gpu_lane_ids_[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(rank_index_[lane])]++)] =
          static_cast<LaneId>(lane);
    }
  }
}

bool TaskMetaTable::index() {
  const trace::EventTable& ev = columns_->events();
  cat_ = ev.category_column().data();
  api_ = ev.cuda_api_column().data();
  dur_ = ev.dur_column().data();
  ts_ = ev.ts_column().data();
  name_ = ev.name_column().data();

  lanes_.index();

  // GPU tasks per lane in id (= launch) order. Spans, because the
  // non-const Column operator[] would copy a borrowed column.
  const std::span<const std::uint8_t> flags = flags_.span();
  const std::span<const LaneId> lane = lane_.span();
  const std::size_t n = size();
  gpu_task_offsets_.assign(lanes_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (flags[i] & kGpu) {
      ++gpu_task_offsets_[static_cast<std::size_t>(lane[i]) + 1];
    }
  }
  for (std::size_t i = 1; i < gpu_task_offsets_.size(); ++i) {
    gpu_task_offsets_[i] += gpu_task_offsets_[i - 1];
  }
  gpu_task_ids_.resize(static_cast<std::size_t>(gpu_task_offsets_.back()));
  std::vector<std::int32_t> fill(gpu_task_offsets_.begin(),
                                 gpu_task_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (flags[i] & kGpu) {
      gpu_task_ids_[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(lane[i])]++)] = static_cast<TaskId>(i);
    }
  }

  // Group index from the member lists, so coupling means "listed in a
  // group" and the two can never disagree.
  group_idx_.assign(n, -1);
  for (std::size_t gi = 0; gi < rendezvous_group_count(); ++gi) {
    for (const TaskId m : rendezvous_group(gi).members) {
      std::int32_t& slot = group_idx_[static_cast<std::size_t>(m)];
      if (slot >= 0) return false;
      slot = static_cast<std::int32_t>(gi);
    }
  }
  return true;
}

TaskMetaTable TaskMetaTable::build(
    std::shared_ptr<const ColumnTaskSource> columns) {
  TaskMetaTable t;
  t.columns_ = std::move(columns);
  const ColumnTaskSource& cols = *t.columns_;
  const trace::EventTable& ev = cols.events();
  const std::size_t n = cols.count();
  // Columns are filled as plain vectors, then moved into the table.
  std::vector<std::uint8_t> flags(n, 0);
  std::vector<LaneId> task_lane(n);
  std::vector<std::uint32_t> coll_op(n, trace::OpId::kInvalidIndex);
  std::vector<std::uint32_t> coll_group(n, trace::GroupId::kInvalidIndex);
  std::vector<std::int64_t> coll_instance(n, -1);
  std::vector<LaneId> sync_lane(n, kInvalidLane);
  std::vector<TaskId> sync_before(n, kInvalidTask);
  std::vector<std::uint32_t> group_id;
  std::vector<std::int64_t> group_instance;
  std::vector<std::pair<std::int32_t, TaskId>> membership;  ///< (group, task)

  // Point-to-point ops by id: a collective is p2p iff its op id is one of
  // these (find() never interns — the pools may be a shared trace's).
  const std::uint32_t send = t.pools()->ops.find("send");
  const std::uint32_t recv = t.pools()->ops.find("recv");

  // Pass 1: lanes in first-appearance order, plus per-task classification.
  // Producers alternate a CPU lane and a GPU lane, so the last lane of
  // each kind short-circuits most lane lookups.
  std::unordered_map<Processor, LaneId, ProcessorHash> lane_of;
  std::pair<Processor, LaneId> last_lane[2] = {{{}, kInvalidLane},
                                               {{}, kInvalidLane}};
  std::unordered_map<std::pair<std::uint32_t, std::int64_t>, std::int32_t,
                     PairHash>
      group_of;
  std::unordered_map<std::pair<std::int32_t, std::int64_t>, TaskId, PairHash>
      record_task;
  for (std::size_t i = 0; i < n; ++i) {
    const Processor processor = cols.processor(i);
    const auto id = static_cast<TaskId>(i);

    auto& [cached, cached_lane] = last_lane[processor.gpu ? 1 : 0];
    if (cached_lane == kInvalidLane || !(cached == processor)) {
      auto [it, inserted] =
          lane_of.try_emplace(processor, static_cast<LaneId>(lane_of.size()));
      if (inserted) t.lanes_.push_back(processor);
      cached = processor;
      cached_lane = it->second;
    }
    task_lane[i] = cached_lane;

    std::uint8_t f = processor.gpu ? kGpu : 0;
    if (const trace::OpId op = ev.collective_op(i); op.valid()) {
      const std::int64_t instance = ev.collective_instance(i);
      coll_op[i] = op.index;
      coll_group[i] = ev.collective_group(i).index;
      coll_instance[i] = instance;
      if (op.index == send || op.index == recv) f |= kP2p;
      if (processor.gpu) {
        f |= kCollectiveKernel;
        if (instance >= 0) {
          auto [git, gnew] = group_of.try_emplace(
              std::make_pair(coll_group[i], instance),
              static_cast<std::int32_t>(group_id.size()));
          if (gnew) {
            group_id.push_back(coll_group[i]);
            group_instance.push_back(instance);
          }
          membership.emplace_back(git->second, id);
        }
      }
    }
    flags[i] = f;

    if (ev.cuda_api(i) == trace::CudaApi::EventRecord &&
        ev.cuda_event(i) >= 0) {
      // Later re-records of the same event id overwrite earlier ones, the
      // same way the CUDA runtime does.
      record_task[{processor.rank, ev.cuda_event(i)}] = id;
    }
  }
  t.flags_ = std::move(flags);
  t.lane_ = std::move(task_lane);
  t.coll_op_ = std::move(coll_op);
  t.coll_group_ = std::move(coll_group);
  t.coll_instance_ = std::move(coll_instance);

  // The rendezvous CSR: each group's members in task id order.
  std::vector<std::uint64_t> member_offsets(group_id.size() + 1, 0);
  for (const auto& [g, task] : membership) {
    ++member_offsets[static_cast<std::size_t>(g) + 1];
  }
  for (std::size_t g = 1; g < member_offsets.size(); ++g) {
    member_offsets[g] += member_offsets[g - 1];
  }
  std::vector<TaskId> members(membership.size());
  std::vector<std::uint64_t> fill(member_offsets.begin(),
                                  member_offsets.end() - 1);
  for (const auto& [g, task] : membership) {
    members[fill[static_cast<std::size_t>(g)]++] = task;
  }
  t.group_id_ = std::move(group_id);
  t.group_instance_ = std::move(group_instance);
  t.member_offsets_ = std::move(member_offsets);
  t.members_ = std::move(members);
  // Each task is a member of one group at most, so indexing cannot fail
  // here; pass 2 needs the lane lookup index.
  t.index();

  // Pass 2: pre-resolve runtime-dependency targets, now that every lane
  // exists. Semantics mirror the simulator's former per-run lookups: a
  // StreamSynchronize blocks on the last prior launch to its own (rank,
  // stream); an EventSynchronize blocks on the last prior launch to the
  // stream its (rank-local) EventRecord targeted, bounded by the record's
  // id; unresolvable targets mean "no runtime blocker".
  for (std::size_t i = 0; i < n; ++i) {
    switch (ev.cuda_api(i)) {
      case trace::CudaApi::StreamSynchronize:
        sync_lane[i] = t.lanes_.id_of({cols.rank(i), true, ev.stream(i)});
        sync_before[i] = static_cast<TaskId>(i);
        break;
      case trace::CudaApi::EventSynchronize: {
        auto it = record_task.find({cols.rank(i), ev.cuda_event(i)});
        if (it == record_task.end()) break;
        const auto record = static_cast<std::size_t>(it->second);
        sync_lane[i] =
            t.lanes_.id_of({cols.rank(record), true, ev.stream(record)});
        sync_before[i] = it->second;
        break;
      }
      default:
        break;
    }
  }

  t.sync_lane_ = std::move(sync_lane);
  t.sync_before_ = std::move(sync_before);
  return t;
}

}  // namespace lumos::core
