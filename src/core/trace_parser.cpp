#include "core/trace_parser.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace lumos::core {

namespace {

/// CPU tasks sorted by end time, for inter-thread gap attribution.
struct EndIndexEntry {
  std::int64_t end_ns;
  TaskId id;
  std::int32_t tid;
};

/// The graph's pools: the trace's own pools when every rank shares one
/// TracePools instance (the one-pool-per-trace rule all producers follow),
/// so task rows copy the trace's ids verbatim and graph ids == trace ids.
/// Hand-assembled traces with per-rank pools get fresh pools — the parser
/// must never intern new strings into a pool another rank's readers may be
/// using.
std::shared_ptr<trace::TracePools> graph_pools(
    const trace::ClusterTrace& trace) {
  if (trace.ranks.empty()) return std::make_shared<trace::TracePools>();
  const std::shared_ptr<trace::TracePools>& pools =
      trace.ranks.front().events.pools();
  for (const trace::RankTrace& rank : trace.ranks) {
    if (rank.events.pools() != pools) {
      return std::make_shared<trace::TracePools>();
    }
  }
  return pools;
}

}  // namespace

ExecutionGraph TraceParser::parse(const trace::RankTrace& trace) const {
  ExecutionGraph graph(trace.events.pools());
  parse_rank_into(trace, graph);
  // Classify the columnar task metadata now, at parse time, so the graph is
  // published classification-complete.
  graph.finalize();
  return graph;
}

ExecutionGraph TraceParser::parse(const trace::ClusterTrace& trace) const {
  const std::shared_ptr<trace::TracePools> pools = graph_pools(trace);
  ExecutionGraph graph(pools);
  graph.reserve(trace.total_events(), 0);
  for (const trace::RankTrace& rank : trace.ranks) {
    parse_rank_into(rank, graph);
  }
  graph.finalize();
  return graph;
}

void TraceParser::parse_rank_into(const trace::RankTrace& trace,
                                  ExecutionGraph& graph) const {
  const trace::EventTable& t = trace.events;

  // 1. Append task rows in timestamp order; ids then encode launch order,
  //    the invariant the simulator's runtime-dependency rules need. One
  //    gather copies the rows with the trace's interned ids (re-homed only
  //    when this rank's pools are not the graph's), so no event string is
  //    copied. Ingested ranks are already in (ts, tid) order, which the
  //    sort then leaves alone.
  std::vector<std::uint32_t> ordered;
  ordered.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.category(i) == trace::EventCategory::UserAnnotation) continue;
    ordered.push_back(static_cast<std::uint32_t>(i));
  }
  const auto launch_order = [&t](std::uint32_t a, std::uint32_t b) {
    if (t.ts_ns(a) != t.ts_ns(b)) return t.ts_ns(a) < t.ts_ns(b);
    return t.tid(a) < t.tid(b);
  };
  if (!std::is_sorted(ordered.begin(), ordered.end(), launch_order)) {
    std::stable_sort(ordered.begin(), ordered.end(), launch_order);
  }

  const std::size_t n = ordered.size();
  const TaskId first = graph.add_tasks(t, ordered);
  const auto id_of = [first](std::size_t j) {
    return first + static_cast<TaskId>(j);
  };
  // Clamped durations (blocking CUDA APIs): the value the task row carries
  // and every pass below uses for end times.
  std::vector<std::int64_t> dur(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = ordered[j];
    dur[j] = t.dur_ns(i);
    if (trace::blocks_cpu(t.cuda_api(i)) &&
        dur[j] > options_.sync_duration_clamp_ns) {
      dur[j] = options_.sync_duration_clamp_ns;
      graph.set_duration(id_of(j), dur[j]);
    }
  }
  auto end_of = [&t, &ordered, &dur](std::size_t j) {
    return t.ts_ns(ordered[j]) + dur[j];
  };

  // 2. Intra-thread / intra-stream program order.
  std::map<std::int32_t, TaskId> last_cpu;
  std::map<std::int64_t, TaskId> last_gpu;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = ordered[j];
    if (t.is_gpu(i)) {
      const auto stream = static_cast<std::int64_t>(t.tid(i));
      if (auto it = last_gpu.find(stream); it != last_gpu.end()) {
        graph.add_edge(it->second, id_of(j), DepType::IntraStream);
      }
      last_gpu[stream] = id_of(j);
    } else {
      const std::int32_t tid = t.tid(i);
      if (auto it = last_cpu.find(tid); it != last_cpu.end()) {
        graph.add_edge(it->second, id_of(j), DepType::IntraThread);
      }
      last_cpu[tid] = id_of(j);
    }
  }

  // 3. CPU→GPU launch edges by correlation id.
  std::unordered_map<std::int64_t, TaskId> launch_by_corr;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = ordered[j];
    if (!t.is_gpu(i) && trace::launches_device_work(t.cuda_api(i)) &&
        t.correlation(i) >= 0) {
      launch_by_corr[t.correlation(i)] = id_of(j);
    }
  }
  std::unordered_map<std::int64_t, TaskId> kernel_by_corr;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = ordered[j];
    if (t.is_gpu(i) && t.correlation(i) >= 0) {
      kernel_by_corr[t.correlation(i)] = id_of(j);
      if (auto it = launch_by_corr.find(t.correlation(i));
          it != launch_by_corr.end()) {
        graph.add_edge(it->second, id_of(j), DepType::CpuToGpu);
      }
    }
  }

  // 4. GPU→GPU inter-stream edges from cudaEventRecord/cudaStreamWaitEvent
  //    pairs. Replaying the CPU event stream in time order reconstructs
  //    "last kernel launched to the recorded stream before the record" and
  //    "first kernel launched to the waiting stream after the wait".
  if (options_.infer_interstream) {
    std::map<std::int64_t, TaskId> last_launched_kernel;  // per stream
    std::map<std::int64_t, TaskId> record_point;          // per cuda event
    std::map<std::int64_t, std::vector<TaskId>> pending_waits;  // per stream
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = ordered[j];
      if (t.is_gpu(i)) continue;
      switch (t.cuda_api(i)) {
        case trace::CudaApi::LaunchKernel:
        case trace::CudaApi::MemcpyAsync:
        case trace::CudaApi::MemsetAsync: {
          auto kit = kernel_by_corr.find(t.correlation(i));
          if (kit == kernel_by_corr.end()) break;
          const TaskId kernel_id = kit->second;
          const std::int64_t stream = t.stream(i);
          if (auto pit = pending_waits.find(stream);
              pit != pending_waits.end()) {
            for (TaskId src : pit->second) {
              if (src != kernel_id) {
                graph.add_edge(src, kernel_id, DepType::InterStream);
              }
            }
            pending_waits.erase(pit);
          }
          last_launched_kernel[stream] = kernel_id;
          break;
        }
        case trace::CudaApi::EventRecord: {
          auto lit = last_launched_kernel.find(t.stream(i));
          record_point[t.cuda_event(i)] =
              lit != last_launched_kernel.end() ? lit->second : kInvalidTask;
          break;
        }
        case trace::CudaApi::StreamWaitEvent: {
          auto rit = record_point.find(t.cuda_event(i));
          if (rit != record_point.end() && rit->second != kInvalidTask) {
            pending_waits[t.stream(i)].push_back(rit->second);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // 5. CPU→CPU inter-thread dependencies from unexplained gaps: when a
  //    thread resumes after a gap, attribute the wake-up to the latest CPU
  //    task on another thread that ended at or before the resume point.
  if (options_.infer_interthread) {
    std::vector<EndIndexEntry> by_end;
    std::map<std::int32_t, std::vector<std::size_t>> per_thread;  // order pos
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = ordered[j];
      if (t.is_gpu(i)) continue;
      by_end.push_back({end_of(j), id_of(j), t.tid(i)});
      per_thread[t.tid(i)].push_back(j);
    }
    std::sort(by_end.begin(), by_end.end(),
              [](const EndIndexEntry& a, const EndIndexEntry& b) {
                return a.end_ns < b.end_ns;
              });
    for (const auto& [tid, thread_tasks] : per_thread) {
      for (std::size_t k = 0; k < thread_tasks.size(); ++k) {
        const std::size_t j = thread_tasks[k];
        const std::uint32_t i = ordered[j];
        // Blocking APIs explain their own gap (GPU→CPU runtime dependency).
        if (trace::blocks_cpu(t.cuda_api(i))) continue;
        const bool first_on_thread = k == 0;
        std::int64_t prev_end = 0;
        if (!first_on_thread) {
          prev_end = end_of(thread_tasks[k - 1]);
          if (t.ts_ns(i) - prev_end < options_.interthread_gap_ns) {
            continue;
          }
        }
        // Latest entry with end <= b.ts on a different thread, ending
        // after the previous task on this thread (otherwise it adds no
        // ordering information).
        auto it = std::upper_bound(
            by_end.begin(), by_end.end(), t.ts_ns(i),
            [](std::int64_t ts, const EndIndexEntry& e) {
              return ts < e.end_ns;
            });
        TaskId candidate = kInvalidTask;
        while (it != by_end.begin()) {
          --it;
          if (!first_on_thread && it->end_ns <= prev_end) break;
          if (it->tid != tid) {
            candidate = it->id;
            break;
          }
        }
        if (candidate != kInvalidTask) {
          graph.add_edge(candidate, id_of(j), DepType::InterThread);
        } else if (first_on_thread) {
          continue;  // thread simply starts first; no dependency
        }
      }
    }
  }
}

}  // namespace lumos::core
