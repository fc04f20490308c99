#include "core/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

#include "core/task_meta.h"

namespace lumos::core {

std::int64_t SimResult::rank_end_ns(const ExecutionGraph& graph,
                                    std::int32_t rank) const {
  const std::span<const std::int32_t> ranks =
      graph.meta().columns().rank_column();
  std::int64_t hi = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == rank) hi = std::max(hi, end_ns[i]);
  }
  return hi;
}

trace::ClusterTrace SimResult::to_trace(const ExecutionGraph& graph) const {
  // All ranks intern into one fresh TracePools (the one-pool-per-trace
  // rule), ascending rank by ascending rank.
  trace::ClusterTrace out;
  const std::vector<std::int32_t> ranks = graph.ranks();
  out.ranks.reserve(ranks.size());
  for (const std::int32_t rank : ranks) emit_rank(graph, out.add_rank(rank));
  return out;
}

void SimResult::emit_rank(const ExecutionGraph& graph,
                          trace::RankTrace& out) const {
  // The pools are `out`'s rather than the graph's: this may run
  // concurrently over a shared frozen graph, and interning into a shared
  // pool would race. Strings are interned in task-id order before the rows
  // are sorted, so the trace's ids are those a push_back of every
  // materialized event in (rank, id) order would assign.
  const ColumnTaskSource& cols = graph.meta().columns();
  const trace::EventTable& events = cols.events();
  const std::span<const std::int32_t> ranks = cols.rank_column();
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == out.rank) ids.push_back(static_cast<std::uint32_t>(i));
  }
  trace::RowRemap remap(*events.pools(), *out.events.pools());
  remap.intern_rows(events, ids);
  std::stable_sort(ids.begin(), ids.end(),
                   [this, &events](std::uint32_t a, std::uint32_t b) {
                     if (start_ns[a] != start_ns[b]) {
                       return start_ns[a] < start_ns[b];
                     }
                     return events.tid(a) < events.tid(b);
                   });
  const std::size_t base = out.events.size();
  out.events.append_rows(events, ids, &remap);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::uint32_t i = ids[k];
    out.events.set_ts_ns(base + k, start_ns[i]);
    out.events.set_dur_ns(base + k, end_ns[i] - start_ns[i]);
    out.events.set_pid(base + k, out.rank);
  }
}

namespace {

/// Internal per-run state implementing Algorithm 1 with time-ordered starts.
///
/// All semantic lookups go through the graph's TaskMetaTable: lanes are
/// dense indices (per-lane state is a flat vector), the CUDA API and
/// collective classification are precomputed bytes, runtime-dependency
/// targets are pre-resolved lane/task ids, and rendezvous groups are dense
/// member lists. The Task structs (and their heap strings) are touched only
/// when user hooks ask for them.
class Run {
 public:
  Run(const ExecutionGraph& graph, const SimOptions& options)
      : graph_(graph),
        meta_(graph.meta()),
        lanes_(meta_.lanes()),
        options_(options),
        hooks_(options.hooks),
        dropped_(options.dropped_tasks) {}

  SimResult execute() {
    initialize();
    const std::size_t n = graph_.size();
    while (!queue_.empty()) {
      auto [key_start, seq, id] = queue_.top();
      queue_.pop();
      const auto idx = static_cast<std::size_t>(id);
      // Stale entries, and dropped tasks (SimOptions::dropped_tasks): a
      // dropped task may still be pushed by a completing predecessor or
      // runtime blocker; discarding it here — at the single pop site —
      // covers every push path, so it never executes and lands in the
      // stuck-task scan below together with its transitive dependents.
      if (done_[idx] || parked_[idx] || is_dropped(idx)) continue;
      const std::int64_t fs = feasible_start(id);
      if (fs > key_start) {
        push(id, fs);
        continue;
      }
      // Runtime dependencies (paper §3.5): resolved when the task is picked.
      // A blocker that has not executed defers the task; one that already
      // executed but ends later lifts the task's ready time (the blocking
      // API returns only when the device work completes).
      const RuntimeDep dep = runtime_blocker(id);
      if (dep.blocker != kInvalidTask) {
        add_runtime_dependent(dep.blocker, id);
        continue;  // re-queued when the blocker completes
      }
      if (dep.ready_ns > fs) {
        ready_time_[idx] = std::max(ready_time_[idx], dep.ready_ns);
        push(id, feasible_start(id));
        continue;
      }
      if (options_.couple_collectives && meta_.is_coupled_collective(id)) {
        park_collective(id, fs);
      } else {
        execute_task(id, fs, task_duration(id));
      }
    }
    SimResult result;
    result.start_ns = std::move(start_);
    result.end_ns = std::move(end_);
    result.executed = executed_;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = 0;
    // Scanning ids 0..n keeps stuck_tasks ascending by task id — part of
    // the determinism contract (SimResult::stuck_tasks), relied on by
    // api::Sweep's sequential-vs-parallel bit-identity guarantee.
    for (std::size_t i = 0; i < n; ++i) {
      if (!done_[i]) {
        result.stuck_tasks.push_back(static_cast<TaskId>(i));
        continue;
      }
      lo = std::min(lo, result.start_ns[i]);
      hi = std::max(hi, result.end_ns[i]);
    }
    result.makespan_ns = executed_ > 0 ? hi - lo : 0;
    return result;
  }

 private:
  // Heap entries: (feasible start, original trace ts, id). The trace ts
  // tie-break realizes the paper's `pick(R)` in profiled order; the final
  // id component makes equal-(time, ts) pops total-ordered, so every run —
  // sequential or on a Sweep worker — schedules identically.
  using HeapEntry = std::tuple<std::int64_t, std::int64_t, TaskId>;

  /// Duration of a non-collective task: hooks when provided, otherwise the
  /// profiled duration straight from the meta column (identical value, no
  /// virtual call, no Task deref).
  std::int64_t task_duration(TaskId id) const {
    return hooks_ != nullptr ? hooks_->task_duration_ns(graph_.task(id))
                             : meta_.duration_ns(id);
  }

  void initialize() {
    const std::size_t n = graph_.size();
    dep_count_ = graph_.in_degrees();
    start_.assign(n, 0);
    end_.assign(n, 0);
    ready_time_.assign(n, 0);
    done_.assign(n, false);
    parked_.assign(n, false);
    waiters_head_.assign(n, -1);
    waiters_.clear();
    lane_free_.assign(lanes_.size(), 0);
    if (options_.couple_collectives) {
      arrivals_.assign(meta_.rendezvous_group_count(), {});
      active_per_rank_.assign(lanes_.rank_count(), 0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (dep_count_[i] == 0 && !is_dropped(i)) {
        push(static_cast<TaskId>(i), feasible_start(static_cast<TaskId>(i)));
      }
    }
  }

  bool is_dropped(std::size_t idx) const {
    return dropped_ != nullptr && (*dropped_)[idx] != 0;
  }

  std::int64_t feasible_start(TaskId id) const {
    const auto idx = static_cast<std::size_t>(id);
    return std::max(ready_time_[idx],
                    lane_free_[static_cast<std::size_t>(meta_.lane(id))]);
  }

  void push(TaskId id, std::int64_t at) {
    queue_.emplace(at, meta_.ts_ns(id), id);
  }

  /// Result of a runtime-dependency probe: either an unfinished blocker to
  /// defer on, or the time by which all prior device work completes.
  struct RuntimeDep {
    TaskId blocker = kInvalidTask;
    std::int64_t ready_ns = 0;
  };

  /// Latest GPU task on `lane` with id < `before` (launch order). Streams
  /// are FIFO, so if that task finished, everything before it did.
  RuntimeDep last_prior_on_lane(LaneId lane, TaskId before) const {
    const std::span<const TaskId> list = meta_.gpu_tasks(lane);
    auto pos = std::lower_bound(list.begin(), list.end(), before);
    if (pos == list.begin()) return {};
    const TaskId prior = *std::prev(pos);
    if (!done_[static_cast<std::size_t>(prior)]) return {prior, 0};
    return {kInvalidTask, end_[static_cast<std::size_t>(prior)]};
  }

  /// Runtime-dependency check for blocking CUDA APIs. The wait target
  /// (lane + launch-order bound) was pre-resolved at meta build time.
  RuntimeDep runtime_blocker(TaskId id) const {
    switch (meta_.cuda_api(id)) {
      case trace::CudaApi::StreamSynchronize:
      case trace::CudaApi::EventSynchronize: {
        const LaneId lane = meta_.sync_lane(id);
        if (lane == kInvalidLane) return {};
        return last_prior_on_lane(lane, meta_.sync_before(id));
      }
      case trace::CudaApi::DeviceSynchronize: {
        RuntimeDep out;
        const std::int32_t rank = lanes_.rank_index(meta_.lane(id));
        for (LaneId lane : lanes_.gpu_lanes(rank)) {
          RuntimeDep d = last_prior_on_lane(lane, id);
          if (d.blocker != kInvalidTask) return d;
          out.ready_ns = std::max(out.ready_ns, d.ready_ns);
        }
        return out;
      }
      default:
        return {};
    }
  }

  void park_collective(TaskId id, std::int64_t ready_at) {
    const auto gi = static_cast<std::size_t>(meta_.group_index(id));
    auto& arrived = arrivals_[gi];
    parked_[static_cast<std::size_t>(id)] = true;
    arrived.emplace_back(id, ready_at);
    if (arrived.size() < meta_.rendezvous_group(gi).members.size()) return;

    // Rendezvous complete. Each member's kernel occupies its stream from
    // its own arrival (real NCCL kernels spin while waiting for peers); the
    // transfer begins once the last member arrives and all members finish
    // together. Emitted durations therefore include peer-wait time, exactly
    // like profiled NCCL kernels.
    std::int64_t rendezvous = 0;
    TaskId last_arrival = arrived.front().first;
    for (const auto& [member, at] : arrived) {
      if (at > rendezvous) {
        rendezvous = at;
        last_arrival = member;
      }
    }
    expire_active_collectives(rendezvous);
    int concurrency = 0;
    for (const auto& [member, at] : arrived) {
      concurrency = std::max(
          concurrency,
          active_per_rank_[static_cast<std::size_t>(
              lanes_.rank_index(meta_.lane(member)))]);
    }
    const std::int64_t transfer =
        hooks_ != nullptr
            ? hooks_->collective_duration_ns(graph_.task(last_arrival),
                                             concurrency)
            : meta_.duration_ns(last_arrival);
    const std::int64_t group_end = rendezvous + transfer;
    // Ring collectives (allreduce & friends) spin on-stream while waiting
    // for peers, so early members start at their own arrival and their
    // durations absorb the skew — matching profiled NCCL kernels. Pipeline
    // send/recv transfers engage only once both sides are ready, so both
    // kernels run [rendezvous, end) and pipeline bubbles surface as stream
    // idle time ("other" in the paper's breakdowns).
    const bool rendezvous_start = meta_.is_p2p(last_arrival);
    std::vector<std::int32_t> member_ranks;
    for (const auto& [member, at] : arrived) {
      parked_[static_cast<std::size_t>(member)] = false;
      const std::int64_t start = rendezvous_start ? rendezvous : at;
      execute_task(member, start, group_end - start);
      member_ranks.push_back(lanes_.rank_index(meta_.lane(member)));
    }
    for (std::int32_t r : member_ranks) {
      ++active_per_rank_[static_cast<std::size_t>(r)];
    }
    active_heap_.emplace(group_end, std::move(member_ranks));
  }

  void expire_active_collectives(std::int64_t now) {
    while (!active_heap_.empty() && active_heap_.top().first <= now) {
      for (std::int32_t r : active_heap_.top().second) {
        --active_per_rank_[static_cast<std::size_t>(r)];
      }
      active_heap_.pop();
    }
  }

  void execute_task(TaskId id, std::int64_t at, std::int64_t duration) {
    const auto idx = static_cast<std::size_t>(id);
    assert(!done_[idx]);
    start_[idx] = at;
    end_[idx] = at + duration;
    done_[idx] = true;
    ++executed_;
    const auto lane = static_cast<std::size_t>(meta_.lane(id));
    lane_free_[lane] = std::max(lane_free_[lane], end_[idx]);
    for (TaskId succ : graph_.successors(id)) {
      const auto s = static_cast<std::size_t>(succ);
      ready_time_[s] = std::max(ready_time_[s], end_[idx]);
      if (--dep_count_[s] == 0) push(succ, feasible_start(succ));
    }
    // Wake order is immaterial: the queue is totally ordered by (time, ts,
    // id), so any push order pops identically.
    for (std::int32_t w = waiters_head_[idx]; w >= 0;
         w = waiters_[static_cast<std::size_t>(w)].next) {
      const TaskId waiter = waiters_[static_cast<std::size_t>(w)].task;
      if (!done_[static_cast<std::size_t>(waiter)]) {
        push(waiter, std::max(feasible_start(waiter), end_[idx]));
      }
    }
    waiters_head_[idx] = -1;
  }

  const ExecutionGraph& graph_;
  const TaskMetaTable& meta_;
  const LaneTable& lanes_;
  SimOptions options_;
  SimulatorHooks* hooks_;  ///< nullptr = replay profiled durations verbatim
  /// nullptr = nothing dropped; see SimOptions::dropped_tasks.
  const std::vector<std::uint8_t>* dropped_ = nullptr;

  std::vector<std::int32_t> dep_count_;
  std::vector<std::int64_t> start_, end_, ready_time_;
  std::vector<bool> done_, parked_;
  /// Runtime dependents per blocker as intrusive lists: a head index per
  /// task into one shared node pool. Only blocking CUDA calls ever wait, so
  /// a 4-byte head beats a vector per task (allocated, cleared and freed on
  /// every run).
  struct Waiter {
    TaskId task;
    std::int32_t next;
  };
  void add_runtime_dependent(TaskId blocker, TaskId waiter) {
    std::int32_t& head = waiters_head_[static_cast<std::size_t>(blocker)];
    waiters_.push_back({waiter, head});
    head = static_cast<std::int32_t>(waiters_.size() - 1);
  }
  std::vector<std::int32_t> waiters_head_;
  std::vector<Waiter> waiters_;
  std::vector<std::int64_t> lane_free_;  ///< indexed by LaneId
  std::size_t executed_ = 0;

  /// Per-rendezvous-group (TaskId, ready time) arrivals, indexed like
  /// TaskMetaTable::rendezvous_group().
  std::vector<std::vector<std::pair<TaskId, std::int64_t>>> arrivals_;
  std::vector<int> active_per_rank_;  ///< indexed by dense rank index
  std::priority_queue<std::pair<std::int64_t, std::vector<std::int32_t>>,
                      std::vector<std::pair<std::int64_t,
                                            std::vector<std::int32_t>>>,
                      std::greater<>>
      active_heap_;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      queue_;
};

}  // namespace

Simulator::Simulator(const ExecutionGraph& graph, SimOptions options)
    : graph_(graph), options_(options) {}

SimResult Simulator::run() const { return Run(graph_, options_).execute(); }

SimResult replay(const ExecutionGraph& graph) {
  SimOptions options;
  options.couple_collectives = true;
  return Simulator(graph, options).run();
}

}  // namespace lumos::core
