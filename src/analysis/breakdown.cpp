#include "analysis/breakdown.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/interval_merge.h"

namespace lumos::analysis {

namespace {

/// Intersection length of two sorted-merged interval sets.
std::int64_t intersection_ns(const std::vector<Interval>& a,
                             const std::vector<Interval>& b) {
  std::int64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

/// One rank's breakdown from its merged compute/comm interval sets (sorted,
/// disjoint) and their union lengths over a window of `span_ns` — the
/// single definition both the trace-based and the schedule-based overloads
/// share, so they stay bit-identical by construction.
Breakdown classify(const std::vector<Interval>& compute,
                   std::int64_t compute_len, const std::vector<Interval>& comm,
                   std::int64_t comm_len, std::int64_t span_ns) {
  Breakdown b;
  b.overlapped_ns = intersection_ns(compute, comm);
  b.exposed_compute_ns = compute_len - b.overlapped_ns;
  b.exposed_comm_ns = comm_len - b.overlapped_ns;
  const std::int64_t busy =
      compute_len + comm_len - b.overlapped_ns;  // |C ∪ M|
  b.other_ns = span_ns - busy;
  return b;
}

/// One rank's breakdown from its raw compute/comm interval sets; the
/// sort-then-sweep lives in the shared merge_intervals kernel.
Breakdown assemble(std::vector<Interval> compute, std::vector<Interval> comm,
                   std::int64_t span_ns) {
  const std::int64_t compute_len = merge_intervals(compute);
  const std::int64_t comm_len = merge_intervals(comm);
  return classify(compute, compute_len, comm, comm_len, span_ns);
}

/// One category's device intervals of one rank, appended lane by lane so
/// each lane is a run for merge_runs. Reused across ranks.
struct LaneRuns {
  std::vector<Interval> intervals;
  std::vector<std::size_t> run_ends;
  std::vector<Interval> merged;

  explicit LaneRuns(std::size_t capacity) {
    intervals.reserve(capacity);
    merged.reserve(capacity);
  }

  void clear() {
    intervals.clear();
    run_ends.clear();
  }
  void close_run() { run_ends.push_back(intervals.size()); }
  std::int64_t merge() { return merge_runs(intervals, run_ends, merged); }
};

}  // namespace

Breakdown& Breakdown::operator+=(const Breakdown& o) {
  exposed_compute_ns += o.exposed_compute_ns;
  overlapped_ns += o.overlapped_ns;
  exposed_comm_ns += o.exposed_comm_ns;
  other_ns += o.other_ns;
  return *this;
}

Breakdown Breakdown::operator/(std::int64_t divisor) const {
  return {exposed_compute_ns / divisor, overlapped_ns / divisor,
          exposed_comm_ns / divisor, other_ns / divisor};
}

std::string Breakdown::to_string() const {
  std::ostringstream out;
  out << "compute=" << exposed_compute_ns / 1e6
      << "ms overlapped=" << overlapped_ns / 1e6
      << "ms comm=" << exposed_comm_ns / 1e6 << "ms other=" << other_ns / 1e6
      << "ms total=" << total_ns() / 1e6 << "ms";
  return out.str();
}

Breakdown compute_breakdown(const trace::RankTrace& rank,
                            std::int64_t begin_ns, std::int64_t end_ns) {
  if (begin_ns == 0 && end_ns == 0) {
    begin_ns = rank.begin_ns();
    end_ns = rank.end_ns();
  }
  const trace::EventTable& t = rank.events;
  std::vector<Interval> compute;
  std::vector<Interval> comm;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t.is_gpu(i)) continue;
    const std::int64_t lo = std::clamp(t.ts_ns(i), begin_ns, end_ns);
    const std::int64_t hi = std::clamp(t.end_ns(i), begin_ns, end_ns);
    if (lo >= hi) continue;
    (t.collective_op(i).valid() ? comm : compute).emplace_back(lo, hi);
  }
  return assemble(std::move(compute), std::move(comm), end_ns - begin_ns);
}

Breakdown compute_breakdown(const trace::ClusterTrace& trace) {
  if (trace.ranks.empty()) return {};
  // Use the global iteration window for every rank so per-rank idle tails
  // (pipeline bubbles) are attributed to "other" consistently.
  std::int64_t begin = trace.ranks.front().begin_ns();
  std::int64_t end = trace.ranks.front().end_ns();
  for (const trace::RankTrace& r : trace.ranks) {
    begin = std::min(begin, r.begin_ns());
    end = std::max(end, r.end_ns());
  }
  Breakdown sum;
  for (const trace::RankTrace& r : trace.ranks) {
    sum += compute_breakdown(r, begin, end);
  }
  return sum / static_cast<std::int64_t>(trace.ranks.size());
}

Breakdown compute_breakdown(const core::ExecutionGraph& graph,
                            const core::SimResult& result) {
  const std::size_t n = graph.size();
  if (n == 0) return {};
  const core::TaskMetaTable& meta = graph.meta();

  // Global iteration window over every task, mirroring the min-begin /
  // max-end the trace-based overload derives from the materialized events.
  std::int64_t begin = result.start_ns[0];
  std::int64_t end = result.end_ns[0];
  std::size_t device = 0;
  for (std::size_t i = 0; i < n; ++i) {
    begin = std::min(begin, result.start_ns[i]);
    end = std::max(end, result.end_ns[i]);
    device += meta.is_device_activity(static_cast<core::TaskId>(i));
  }

  // Each GPU lane runs its tasks one at a time in launch order, so a lane's
  // compute and comm intervals each arrive as a run sorted by start. The
  // buffers are sized for the rank with the most GPU tasks, once.
  const core::LaneTable& lanes = meta.lanes();
  const auto ranks = static_cast<std::int32_t>(lanes.rank_count());
  std::size_t widest = 0;
  for (std::int32_t r = 0; r < ranks; ++r) {
    std::size_t tasks = 0;
    for (const core::LaneId lane : lanes.gpu_lanes(r)) {
      tasks += meta.gpu_tasks(lane).size();
    }
    widest = std::max(widest, tasks);
  }
  LaneRuns compute(widest), comm(widest);
  std::size_t walked = 0;
  Breakdown sum;
  for (std::int32_t r = 0; r < ranks; ++r) {
    compute.clear();
    comm.clear();
    for (const core::LaneId lane : lanes.gpu_lanes(r)) {
      for (const core::TaskId id : meta.gpu_tasks(lane)) {
        if (!meta.is_device_activity(id)) continue;
        ++walked;
        const auto i = static_cast<std::size_t>(id);
        const std::int64_t lo = std::clamp(result.start_ns[i], begin, end);
        const std::int64_t hi = std::clamp(result.end_ns[i], begin, end);
        if (lo >= hi) continue;
        (meta.collective_op(id).valid() ? comm : compute)
            .intervals.emplace_back(lo, hi);
      }
      compute.close_run();
      comm.close_run();
    }
    const std::int64_t compute_len = compute.merge();
    const std::int64_t comm_len = comm.merge();
    sum += classify(compute.merged, compute_len, comm.merged, comm_len,
                    end - begin);
  }
  // Parsed and built graphs keep all device activity on GPU lanes; a
  // hand-built graph that does not takes the reference path.
  if (walked != device) return compute_breakdown(result.to_trace(graph));
  return sum / ranks;
}

}  // namespace lumos::analysis
