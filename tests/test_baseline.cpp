// dPRO-baseline tests: edge filtering and the characteristic
// overlap-overestimation failure mode.
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "baseline/dpro.h"
#include "cluster/ground_truth.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "test_util.h"

namespace lumos::baseline {
namespace {

using core::DepType;
using core::ExecutionGraph;
using core::Task;
using testutil::tiny_config;
using testutil::tiny_model;

TEST(DproGraph, DropsCollectiveInterStreamEdges) {
  testutil::GraphAuthor author;
  ExecutionGraph& g = author.graph;
  auto add_kernel = [&](std::int64_t stream, const char* op) {
    Task t;
    t.processor = {0, true, stream};
    t.event.cat = trace::EventCategory::Kernel;
    t.event.name = "k";
    t.event.dur_ns = 10;
    if (op != nullptr) {
      t.event.collective.op = op;
      t.event.collective.group = "g";
    }
    return author.add(t);
  };
  core::TaskId compute = add_kernel(7, nullptr);
  core::TaskId allreduce = add_kernel(13, "allreduce");
  core::TaskId recv = add_kernel(22, "recv");
  core::TaskId compute2 = add_kernel(7, nullptr);
  g.add_edge(compute, allreduce, DepType::InterStream);   // kept (dataflow in)
  g.add_edge(allreduce, compute2, DepType::InterStream);  // dropped (missed)
  g.add_edge(recv, compute, DepType::InterStream);        // kept (p2p)
  g.add_edge(compute, allreduce, DepType::IntraStream);   // kept (not IS)

  ExecutionGraph d = dpro_graph(g);
  EXPECT_EQ(d.size(), g.size());
  auto hist = d.edge_type_histogram();
  EXPECT_EQ(hist[DepType::InterStream], 2u);
  EXPECT_EQ(hist[DepType::IntraStream], 1u);
  for (const core::Edge& e : d.edges()) {
    EXPECT_FALSE(e.src == allreduce && e.dst == compute2 &&
                 e.type == DepType::InterStream)
        << "comm->compute inter-stream edge must be dropped";
  }
}

TEST(DproGraph, PreservesTaskPayloads) {
  testutil::GraphAuthor author;
  Task t;
  t.processor = {3, true, 7};
  t.event.cat = trace::EventCategory::Kernel;
  t.event.name = "gemm";
  t.event.dur_ns = 42;
  author.add(t);
  ExecutionGraph d = dpro_graph(author.graph);
  EXPECT_EQ(d.task(0).event.name, "gemm");
  EXPECT_EQ(d.task(0).event.dur_ns, 42);
  EXPECT_EQ(d.task(0).processor.rank, 3);
}

TEST(DproReplay, OverestimatesOverlapOnRealWorkload) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
  auto run = engine.run_profiled(13);
  ExecutionGraph graph = core::TraceParser().parse(run.trace);

  core::SimResult lumos_result = core::replay(graph);
  core::SimResult dpro_result = replay_dpro(graph);
  ASSERT_TRUE(lumos_result.complete());
  ASSERT_TRUE(dpro_result.complete());

  // The paper's diagnosis, reproduced: dPRO overestimates overlapped
  // execution and underestimates total iteration time.
  EXPECT_LT(dpro_result.makespan_ns, lumos_result.makespan_ns);
  analysis::Breakdown lumos_bd =
      analysis::compute_breakdown(lumos_result.to_trace(graph));
  analysis::Breakdown dpro_bd =
      analysis::compute_breakdown(dpro_result.to_trace(graph));
  EXPECT_GT(dpro_bd.overlapped_ns, lumos_bd.overlapped_ns);
  EXPECT_LT(dpro_bd.exposed_comm_ns, lumos_bd.exposed_comm_ns);
}

TEST(DproReplay, ErrorGrowsWithTensorParallelCommShare) {
  // tp=1 has no TP collectives -> little for dPRO to get wrong; tp=2 adds
  // per-layer all-reduces whose serialization dPRO misses.
  auto signed_err = [](std::int32_t tp) {
    cluster::GroundTruthEngine engine(tiny_model(), tiny_config(tp, 1, 2));
    auto run = engine.run_profiled(17);
    ExecutionGraph graph = core::TraceParser().parse(run.trace);
    const double dpro_ms =
        static_cast<double>(replay_dpro(graph).makespan_ns);
    const double lumos_ms =
        static_cast<double>(core::replay(graph).makespan_ns);
    return (dpro_ms - lumos_ms) / lumos_ms * 100.0;
  };
  const double err_tp1 = signed_err(1);
  const double err_tp2 = signed_err(2);
  // More negative = bigger underestimate. The tiny model keeps absolute
  // magnitudes small; the paper-scale magnitudes are exercised in
  // bench_fig5_replay.
  EXPECT_LT(err_tp2, err_tp1 - 0.05);
}

}  // namespace
}  // namespace lumos::baseline
