// Shared test helpers: tiny model specs (fast to simulate), a graph author
// for hand-built graphs, and graph comparison utilities.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <tuple>
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
