// Shared test helpers: tiny model specs (fast to simulate), a graph author
// for hand-built graphs, a seeded random graph generator, and graph
// comparison utilities.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/execution_graph.h"
#include "trace/event_table.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"

namespace lumos::testutil {

/// A miniature GPT: small enough for sub-second ground-truth simulation,
/// structurally identical to the paper's models.
inline workload::ModelSpec tiny_model() {
  workload::ModelSpec m;
  m.name = "GPT-tiny";
  m.num_layers = 8;
  m.d_model = 1024;
  m.d_ff = 4096;
  m.num_heads = 8;
  m.head_dim = 128;
  m.vocab_size = 8192;
  m.seq_len = 512;
  return m;
}

inline workload::ParallelConfig tiny_config(std::int32_t tp = 2,
                                            std::int32_t pp = 2,
                                            std::int32_t dp = 2) {
  workload::ParallelConfig c;
  c.tp = tp;
  c.pp = pp;
  c.dp = dp;
  c.microbatch_size = 1;
  return c;
}

/// A one-rank trace whose middle kernel lasts zero ns. ReplayCompiler
/// refuses its graph (kNonPositiveDuration), so every hook-free replay of it
/// runs on the interpreter.
inline trace::ClusterTrace zero_duration_kernel_trace() {
  trace::RankTrace rank;
  rank.rank = 0;
  trace::TraceEvent op;
  op.name = "aten::linear";
  op.cat = trace::EventCategory::CpuOp;
  op.ts_ns = 0;
  op.dur_ns = 50;
  op.tid = 1;
  rank.events.push_back(op);
  const std::int64_t durations[] = {40, 0, 25};
  for (std::size_t i = 0; i < 3; ++i) {
    trace::TraceEvent k;
    k.name = "gemm_" + std::to_string(i);
    k.cat = trace::EventCategory::Kernel;
    k.ts_ns = 100 + 100 * static_cast<std::int64_t>(i);
    k.dur_ns = durations[i];
    k.tid = 7;
    k.stream = 7;
    rank.events.push_back(k);
  }
  trace::ClusterTrace cluster;
  cluster.ranks.push_back(rank);
  return cluster;
}

/// Hand-builds a graph the way producers do: each Task's event is interned
/// through a scratch EventTable into pools the author owns, then appended
/// to `graph` as one column row. Set every field before add(); the graph
/// has no way to edit a row afterwards.
struct GraphAuthor {
  std::shared_ptr<trace::TracePools> pools =
      std::make_shared<trace::TracePools>();
  core::ExecutionGraph graph{pools};

  core::TaskId add(const core::Task& task) {
    trace::EventTable scratch(pools);
    scratch.push_back(task.event);
    return graph.add_task(task.processor, scratch.row(0));
  }
};

/// Random graph generator: layered DAG over a few ranks, threads and
/// streams, with launches, kernels, syncs and coupled collectives. Every
/// lane carries chain edges (like parser/builder output), so the compiled
/// engine accepts each seed.
class RandomGraph {
 public:
  explicit RandomGraph(std::uint64_t seed) : rng_(seed) {
    const int ranks = pick(1, 3);
    for (int r = 0; r < ranks; ++r) build_rank(r);
    add_cross_thread_edges();
  }

  core::ExecutionGraph& graph() { return author_.graph; }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  core::TaskId add_cpu(std::int32_t rank, std::int32_t tid,
                       std::string name, trace::EventCategory cat,
                       std::int64_t stream = -1) {
    core::Task t;
    t.processor = {rank, false, tid};
    t.event.name = std::move(name);
    t.event.cat = cat;
    t.event.dur_ns = pick(1, 50);
    t.event.ts_ns = seq_++;
    t.event.stream = stream;
    core::TaskId id = author_.add(t);
    auto key = std::make_pair(rank, tid);
    if (auto it = last_cpu_.find(key); it != last_cpu_.end()) {
      author_.graph.add_edge(it->second, id, core::DepType::IntraThread);
    }
    last_cpu_[key] = id;
    return id;
  }

  core::TaskId add_kernel(std::int32_t rank, std::int64_t stream,
                          bool collective, const std::string& group,
                          std::int64_t instance) {
    add_cpu(rank, pick(0, 1), "cudaLaunchKernel",
            trace::EventCategory::CudaRuntime, stream);
    core::Task t;
    t.processor = {rank, true, stream};
    t.event.name = collective ? "nccl" : "kernel";
    t.event.cat = trace::EventCategory::Kernel;
    t.event.dur_ns = pick(10, 300);
    t.event.ts_ns = seq_++;
    t.event.stream = stream;
    if (collective) {
      t.event.collective.op = pick(0, 1) ? "allreduce" : "recv";
      t.event.collective.group = group;
      t.event.collective.instance = instance;
      t.event.collective.group_size = 2;
    }
    core::TaskId id = author_.add(t);
    auto key = std::make_pair(rank, stream);
    if (auto it = last_kernel_.find(key); it != last_kernel_.end()) {
      author_.graph.add_edge(it->second, id, core::DepType::IntraStream);
    }
    // CPU->GPU edge from the launch we just appended (id - 1).
    author_.graph.add_edge(id - 1, id, core::DepType::CpuToGpu);
    last_kernel_[key] = id;
    return id;
  }

  void build_rank(std::int32_t rank) {
    const int ops = pick(20, 60);
    for (int i = 0; i < ops; ++i) {
      switch (pick(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          add_cpu(rank, pick(0, 1), "aten::op",
                  trace::EventCategory::CpuOp);
          break;
        case 4:
        case 5:
        case 6:
          add_kernel(rank, pick(0, 1) ? 7 : 13, false, "", -1);
          break;
        case 7: {  // inter-stream edge between latest kernels
          auto a = last_kernel_.find({rank, 7});
          auto b = last_kernel_.find({rank, 13});
          if (a != last_kernel_.end() && b != last_kernel_.end() &&
              a->second != b->second) {
            core::TaskId src = std::min(a->second, b->second);
            core::TaskId dst = std::max(a->second, b->second);
            author_.graph.add_edge(src, dst, core::DepType::InterStream);
          }
          break;
        }
        case 8:
          add_cpu(rank, pick(0, 1), "cudaStreamSynchronize",
                  trace::EventCategory::CudaRuntime, pick(0, 1) ? 7 : 13);
          break;
        case 9:
          // Coupled collective spanning rank 0 and this rank (aligned
          // instances ensure group completeness).
          if (rank > 0) {
            const std::int64_t inst = collective_instance_++;
            const std::string group = "g" + std::to_string(rank);
            add_kernel(0, 13, true, group, inst);
            add_kernel(rank, 13, true, group, inst);
          }
          break;
      }
    }
  }

  void add_cross_thread_edges() {
    // A few random forward (id-ordered) inter-thread edges; forward edges
    // cannot create cycles.
    const auto n = static_cast<core::TaskId>(author_.graph.size());
    for (int i = 0; i < 5 && n > 2; ++i) {
      core::TaskId a = pick(0, n - 2);
      core::TaskId b = pick(a + 1, n - 1);
      if (!author_.graph.meta().is_gpu(a) &&
          !author_.graph.meta().is_gpu(b)) {
        author_.graph.add_edge(a, b, core::DepType::InterThread);
      }
    }
  }

  GraphAuthor author_;
  std::mt19937_64 rng_;
  std::int64_t seq_ = 0;
  std::int64_t collective_instance_ = 0;
  std::map<std::pair<std::int32_t, std::int32_t>, core::TaskId> last_cpu_;
  std::map<std::pair<std::int32_t, std::int64_t>, core::TaskId>
      last_kernel_;
};
/// Identity of a task that is stable across graph reconstructions: the
/// n-th task on a given (rank, gpu, lane) processor.
using LaneKey = std::tuple<std::int32_t, bool, std::int64_t, std::size_t>;

/// Maps each task to its lane-ordinal key.
inline std::map<core::TaskId, LaneKey> lane_keys(
    const core::ExecutionGraph& g) {
  std::map<std::tuple<std::int32_t, bool, std::int64_t>, std::size_t> counts;
  std::map<core::TaskId, LaneKey> out;
  for (const core::Task& t : g.tasks()) {
    auto lane = std::make_tuple(t.processor.rank, t.processor.gpu,
                                t.processor.lane);
    out[t.id] = std::tuple_cat(lane, std::make_tuple(counts[lane]++));
  }
  return out;
}

/// Edge set of a graph expressed in lane-ordinal space, so two graphs of
/// the same execution can be compared even if their task ids differ.
inline std::set<std::pair<LaneKey, LaneKey>> edge_set(
    const core::ExecutionGraph& g, core::DepType type) {
  auto keys = lane_keys(g);
  std::set<std::pair<LaneKey, LaneKey>> out;
  for (const core::Edge& e : g.edges()) {
    if (e.type == type) out.insert({keys.at(e.src), keys.at(e.dst)});
  }
  return out;
}

}  // namespace lumos::testutil
