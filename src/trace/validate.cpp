#include "trace/validate.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/interval_merge.h"

namespace lumos::trace {

namespace {

void check_no_overlap_per_lane(
    const RankTrace& trace, bool gpu_lane, const char* lane_kind,
    std::vector<Violation>& out) {
  // Group event indices by lane (thread for CPU, stream for GPU), sort
  // each lane by start and flag every event that starts before its
  // predecessor ends. Consecutive pairs suffice for non-negative
  // durations: with the lane sorted by start, no consecutive overlap means
  // the ends ascend too, so no pair overlaps at all.
  const EventTable& t = trace.events;
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> lanes;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // User annotations are ranges (ProfilerStep#N spans a whole iteration)
    // and legitimately overlap the ops they contain.
    if (t.category(i) == EventCategory::UserAnnotation) continue;
    if (t.is_gpu(i) == gpu_lane) {
      lanes[t.tid(i)].push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (auto& [lane, indices] : lanes) {
    std::sort(indices.begin(), indices.end(),
              [&t](std::uint32_t a, std::uint32_t b) {
                return t.ts_ns(a) < t.ts_ns(b);
              });
    for (std::size_t j = 1; j < indices.size(); ++j) {
      const std::uint32_t prev = indices[j - 1];
      const std::uint32_t cur = indices[j];
      if (t.ts_ns(cur) < t.end_ns(prev)) {
        std::ostringstream msg;
        msg << lane_kind << " " << lane << ": '" << t.name(cur)
            << "' starts at " << t.ts_ns(cur) << " before '" << t.name(prev)
            << "' ends at " << t.end_ns(prev);
        out.push_back({msg.str(), indices[j]});
      }
    }
  }
}

}  // namespace

std::vector<Violation> validate(const RankTrace& trace) {
  std::vector<Violation> out;
  const EventTable& t = trace.events;

  std::unordered_map<std::int64_t, std::size_t> launch_by_corr;
  std::unordered_map<std::int64_t, std::size_t> device_by_corr;
  std::set<std::int64_t> recorded_events;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.dur_ns(i) < 0) {
      out.push_back(
          {"negative duration on '" + std::string(t.name(i)) + "'", i});
    }
    const bool gpu = t.is_gpu(i);
    if (gpu && t.stream(i) < 0) {
      out.push_back(
          {"GPU event '" + std::string(t.name(i)) + "' missing stream", i});
    }
    if (gpu && t.stream(i) >= 0 && t.tid(i) != t.stream(i)) {
      out.push_back({"GPU event '" + std::string(t.name(i)) +
                         "' tid does not equal stream",
                     i});
    }
    // The CudaApi column was classified once at ingest — no name parse here.
    const CudaApi api = t.cuda_api(i);
    if (launches_device_work(api)) {
      if (t.correlation(i) < 0) {
        out.push_back(
            {"launch '" + std::string(t.name(i)) + "' missing correlation",
             i});
      } else if (!launch_by_corr.emplace(t.correlation(i), i).second) {
        out.push_back({"duplicate launch correlation " +
                           std::to_string(t.correlation(i)),
                       i});
      }
    }
    if (gpu) {
      if (t.correlation(i) < 0) {
        out.push_back({"device activity '" + std::string(t.name(i)) +
                           "' missing correlation",
                       i});
      } else if (!device_by_corr.emplace(t.correlation(i), i).second) {
        out.push_back({"duplicate device correlation " +
                           std::to_string(t.correlation(i)),
                       i});
      }
    }
    if (api == CudaApi::EventRecord) {
      if (t.cuda_event(i) < 0) {
        out.push_back({"cudaEventRecord missing cuda_event id", i});
      } else {
        recorded_events.insert(t.cuda_event(i));
      }
    }
  }

  // Every device activity must have a matching host-side launch.
  for (const auto& [corr, idx] : device_by_corr) {
    if (!launch_by_corr.count(corr)) {
      out.push_back({"device correlation " + std::to_string(corr) +
                         " has no host launch",
                     idx});
    }
  }

  // Every wait must reference a recorded event.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.cuda_api(i) == CudaApi::StreamWaitEvent) {
      if (t.cuda_event(i) < 0) {
        out.push_back({"cudaStreamWaitEvent missing cuda_event id", i});
      } else if (!recorded_events.count(t.cuda_event(i))) {
        out.push_back({"cudaStreamWaitEvent on unrecorded event " +
                           std::to_string(t.cuda_event(i)),
                       i});
      }
    }
  }

  check_no_overlap_per_lane(trace, /*gpu_lane=*/true, "stream", out);
  check_no_overlap_per_lane(trace, /*gpu_lane=*/false, "thread", out);
  return out;
}

std::vector<Violation> validate(const ClusterTrace& trace) {
  std::vector<Violation> out;
  for (const RankTrace& rank : trace.ranks) {
    for (Violation v : validate(rank)) {
      v.message = "rank " + std::to_string(rank.rank) + ": " + v.message;
      out.push_back(std::move(v));
    }
  }
  return out;
}

TraceStats compute_stats(const RankTrace& trace) {
  const EventTable& t = trace.events;
  TraceStats stats;
  stats.num_events = t.size();
  stats.span_ns = trace.span_ns();
  stats.num_cpu_threads = trace.cpu_threads().size();
  stats.num_gpu_streams = trace.gpu_streams().size();

  // Dense per-name-id counters (O(1) per event, no string hashing); the
  // id -> text resolution happens once per distinct name below. The shared
  // pool may hold names of other ranks / annotations — those stay at zero.
  std::vector<std::size_t> name_counts(t.names().size(), 0);
  std::size_t unnamed = 0;
  std::vector<analysis::Interval> kernel_intervals;
  for (std::size_t i = 0; i < t.size(); ++i) {
    ++stats.events_per_category[t.category(i)];
    const NameId name = t.name_id(i);
    if (name.valid()) {
      ++name_counts[name.index];
    } else {
      ++unnamed;
    }
    if (t.is_gpu(i)) {
      stats.total_kernel_ns += t.dur_ns(i);
      if (t.collective_op(i).valid()) stats.total_comm_kernel_ns += t.dur_ns(i);
      kernel_intervals.emplace_back(t.ts_ns(i), t.end_ns(i));
    }
  }
  for (std::uint32_t id = 0; id < name_counts.size(); ++id) {
    if (name_counts[id] > 0) {
      stats.events_per_name[std::string(t.names().view(id))] = name_counts[id];
    }
  }
  if (unnamed > 0) stats.events_per_name[std::string()] = unnamed;
  stats.busy_gpu_ns = analysis::merge_intervals(kernel_intervals);
  return stats;
}

}  // namespace lumos::trace
