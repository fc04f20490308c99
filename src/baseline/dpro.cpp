#include "baseline/dpro.h"

namespace lumos::baseline {

core::ExecutionGraph dpro_graph(const core::ExecutionGraph& graph) {
  // dPRO's global dataflow graph knows a collective's *inputs* (compute
  // feeds the all-reduce) and the producer/consumer relations of pipeline
  // transfers (a recv's output feeds the next forward), so those edges
  // survive. It lacks the cudaEventRecord/cudaStreamWaitEvent ordering from
  // communication back into computation, which lets its replay overlap
  // collectives with the compute that really waits for them — exactly the
  // paper's diagnosis of its overlap overestimation. The derived graph
  // shares the rows and the meta table, whose flags classify the edges.
  const core::TaskMetaTable& meta = graph.meta();
  auto is_p2p = [&](core::TaskId id) {
    return meta.is_collective_kernel(id) && meta.is_p2p(id);
  };
  core::ExecutionGraph out = graph.with_edges_if([&](const core::Edge& e) {
    const bool missed_by_dpro = e.type == core::DepType::InterStream &&
                                meta.is_collective_kernel(e.src) &&
                                !is_p2p(e.src) && !is_p2p(e.dst);
    return !missed_by_dpro;
  });
  out.finalize();
  return out;
}

core::SimResult replay_dpro(const core::ExecutionGraph& graph) {
  // dPRO also builds a global (cross-worker) dataflow graph, so collective
  // coupling stays on; only the inter-stream dependencies are lost.
  core::ExecutionGraph stripped = dpro_graph(graph);
  core::SimOptions options;
  options.couple_collectives = true;
  return core::Simulator(stripped, options).run();
}

}  // namespace lumos::baseline
