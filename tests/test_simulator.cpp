// Simulator (Algorithm 1) tests on hand-built graphs: fixed dependencies,
// runtime dependencies, processor serialization, collective rendezvous,
// hooks, deadlock detection.
#include <gtest/gtest.h>

#include "core/execution_graph.h"
#include "core/simulator.h"
#include "test_util.h"

namespace lumos::core {
namespace {

/// Small fluent helper for building test graphs.
struct GraphFixture : testutil::GraphAuthor {
  std::int64_t seq = 0;

  TaskId cpu(std::int32_t rank, std::int32_t tid, std::int64_t dur,
             std::string name = "op") {
    Task t;
    t.processor = {rank, false, tid};
    t.event.name = std::move(name);
    t.event.cat = trace::EventCategory::CpuOp;
    t.event.dur_ns = dur;
    t.event.ts_ns = seq++;
    t.event.pid = rank;
    t.event.tid = tid;
    return add(t);
  }

  TaskId runtime(std::int32_t rank, std::int32_t tid, std::int64_t dur,
                 std::string name, std::int64_t stream = -1,
                 std::int64_t cuda_event = -1) {
    Task t;
    t.processor = {rank, false, tid};
    t.event.name = std::move(name);
    t.event.cat = trace::EventCategory::CudaRuntime;
    t.event.dur_ns = dur;
    t.event.ts_ns = seq++;
    t.event.stream = stream;
    t.event.cuda_event = cuda_event;
    return add(t);
  }

  TaskId kernel(std::int32_t rank, std::int64_t stream, std::int64_t dur,
                std::string name = "kernel",
                trace::CollectiveInfo collective = {}) {
    Task t;
    t.processor = {rank, true, stream};
    t.event.name = std::move(name);
    t.event.cat = trace::EventCategory::Kernel;
    t.event.dur_ns = dur;
    t.event.ts_ns = seq++;
    t.event.stream = stream;
    t.event.collective = std::move(collective);
    return add(t);
  }

  TaskId collective(std::int32_t rank, std::int64_t stream, std::int64_t dur,
                    std::string group, std::int64_t instance,
                    std::string op = "allreduce",
                    std::int32_t group_size = 2) {
    return kernel(rank, stream, dur, "nccl",
                  {std::move(op), std::move(group), 1024, group_size,
                   instance});
  }

  SimResult run(bool coupled = false, SimulatorHooks* hooks = nullptr) {
    SimOptions options;
    options.couple_collectives = coupled;
    options.hooks = hooks;
    return Simulator(graph, options).run();
  }
};

TEST(ExecutionGraph, AddEdgeValidation) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId b = f.cpu(0, 1, 10);
  EXPECT_THROW(f.graph.add_edge(a, a, DepType::IntraThread),
               std::invalid_argument);
  EXPECT_THROW(f.graph.add_edge(a, 99, DepType::IntraThread),
               std::invalid_argument);
  EXPECT_NO_THROW(f.graph.add_edge(a, b, DepType::IntraThread));
}

TEST(ExecutionGraph, AdjacencyAndDegrees) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 1);
  TaskId b = f.cpu(0, 1, 1);
  TaskId c = f.cpu(0, 1, 1);
  f.graph.add_edge(a, b, DepType::IntraThread);
  f.graph.add_edge(a, c, DepType::IntraThread);
  f.graph.add_edge(b, c, DepType::InterThread);
  EXPECT_EQ(f.graph.successors(a).size(), 2u);
  EXPECT_EQ(f.graph.predecessors(c).size(), 2u);
  auto deg = f.graph.in_degrees();
  EXPECT_EQ(deg[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(deg[static_cast<std::size_t>(c)], 2);
}

TEST(ExecutionGraph, CycleDetection) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 1);
  TaskId b = f.cpu(0, 1, 1);
  f.graph.add_edge(a, b, DepType::IntraThread);
  EXPECT_TRUE(f.graph.is_acyclic());
  f.graph.add_edge(b, a, DepType::InterThread);
  TaskId hint = kInvalidTask;
  EXPECT_FALSE(f.graph.is_acyclic(&hint));
  EXPECT_NE(hint, kInvalidTask);
}

TEST(ExecutionGraph, WithoutEdgesFilters) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 1);
  TaskId b = f.cpu(0, 1, 1);
  f.graph.add_edge(a, b, DepType::IntraThread);
  f.graph.add_edge(a, b, DepType::InterStream);
  ExecutionGraph stripped = f.graph.without_edges(DepType::InterStream);
  EXPECT_EQ(stripped.edges().size(), 1u);
  EXPECT_EQ(stripped.edges()[0].type, DepType::IntraThread);
  EXPECT_EQ(stripped.size(), f.graph.size());
}

TEST(Simulator, ChainExecutesSequentially) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId b = f.cpu(0, 1, 20);
  TaskId c = f.cpu(0, 1, 30);
  f.graph.add_edge(a, b, DepType::IntraThread);
  f.graph.add_edge(b, c, DepType::IntraThread);
  SimResult r = f.run();
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r.start_ns[0], 0);
  EXPECT_EQ(r.start_ns[1], 10);
  EXPECT_EQ(r.start_ns[2], 30);
  EXPECT_EQ(r.makespan_ns, 60);
}

TEST(Simulator, DiamondWaitsForSlowestBranch) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId fast = f.cpu(0, 2, 5);
  TaskId slow = f.kernel(0, 7, 100);
  TaskId join = f.cpu(0, 3, 1);
  f.graph.add_edge(a, fast, DepType::InterThread);
  f.graph.add_edge(a, slow, DepType::CpuToGpu);
  f.graph.add_edge(fast, join, DepType::InterThread);
  f.graph.add_edge(slow, join, DepType::GpuToCpu);
  SimResult r = f.run();
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(join)], 110);
}

TEST(Simulator, ProcessorSerializesIndependentTasks) {
  GraphFixture f;
  f.cpu(0, 1, 10);
  f.cpu(0, 1, 10);  // same thread, no edge
  SimResult r = f.run();
  // No overlap on one processor even without edges.
  EXPECT_EQ(std::max(r.start_ns[0], r.start_ns[1]), 10);
  EXPECT_EQ(r.makespan_ns, 20);
}

TEST(Simulator, DistinctProcessorsRunConcurrently) {
  GraphFixture f;
  f.cpu(0, 1, 10);
  f.cpu(0, 2, 10);
  f.kernel(0, 7, 10);
  SimResult r = f.run();
  EXPECT_EQ(r.makespan_ns, 10);
}

TEST(Simulator, StreamSynchronizeWaitsForPriorKernels) {
  GraphFixture f;
  TaskId launch = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k = f.kernel(0, 7, 100);
  TaskId sync = f.runtime(0, 1, 5, "cudaStreamSynchronize", 7);
  TaskId after = f.cpu(0, 1, 1);
  f.graph.add_edge(launch, k, DepType::CpuToGpu);
  f.graph.add_edge(launch, sync, DepType::IntraThread);
  f.graph.add_edge(sync, after, DepType::IntraThread);
  SimResult r = f.run();
  // Sync is a runtime dependency: it must start only at kernel end (105).
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(sync)], 105);
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(after)], 110);
}

TEST(Simulator, StreamSynchronizeIgnoresOtherStreams) {
  GraphFixture f;
  TaskId launch = f.runtime(0, 1, 5, "cudaLaunchKernel", 13);
  TaskId k = f.kernel(0, 13, 1000);
  TaskId sync = f.runtime(0, 1, 5, "cudaStreamSynchronize", 7);  // stream 7!
  f.graph.add_edge(launch, k, DepType::CpuToGpu);
  f.graph.add_edge(launch, sync, DepType::IntraThread);
  SimResult r = f.run();
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(sync)], 5);
}

TEST(Simulator, StreamSynchronizeIgnoresLaterKernels) {
  GraphFixture f;
  TaskId sync = f.runtime(0, 1, 5, "cudaStreamSynchronize", 7);
  TaskId launch = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k = f.kernel(0, 7, 1000);  // launched AFTER the sync (higher id)
  f.graph.add_edge(sync, launch, DepType::IntraThread);
  f.graph.add_edge(launch, k, DepType::CpuToGpu);
  SimResult r = f.run();
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(sync)], 0);
}

TEST(Simulator, DeviceSynchronizeWaitsForAllStreams) {
  GraphFixture f;
  TaskId l1 = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k1 = f.kernel(0, 7, 50);
  TaskId l2 = f.runtime(0, 1, 5, "cudaLaunchKernel", 13);
  TaskId k2 = f.kernel(0, 13, 200);
  TaskId sync = f.runtime(0, 1, 5, "cudaDeviceSynchronize");
  f.graph.add_edge(l1, k1, DepType::CpuToGpu);
  f.graph.add_edge(l2, k2, DepType::CpuToGpu);
  f.graph.add_edge(l1, l2, DepType::IntraThread);
  f.graph.add_edge(l2, sync, DepType::IntraThread);
  SimResult r = f.run();
  // k2 starts at 10 and runs 200 -> sync at 210.
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(sync)], 210);
}

TEST(Simulator, EventSynchronizeWaitsForRecordPoint) {
  GraphFixture f;
  TaskId l1 = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k1 = f.kernel(0, 7, 100);
  TaskId record = f.runtime(0, 1, 2, "cudaEventRecord", 7, /*event=*/1);
  TaskId l2 = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k2 = f.kernel(0, 7, 1000);  // after the record point
  TaskId esync = f.runtime(0, 2, 3, "cudaEventSynchronize", -1, /*event=*/1);
  f.graph.add_edge(l1, k1, DepType::CpuToGpu);
  f.graph.add_edge(l1, record, DepType::IntraThread);
  f.graph.add_edge(record, l2, DepType::IntraThread);
  f.graph.add_edge(l2, k2, DepType::CpuToGpu);
  SimResult r = f.run();
  // The event fires when k1 (before the record) completes at 105; k2 must
  // not gate it.
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(esync)], 105);
}

TEST(Simulator, UncoupledCollectivesReplayProfiledDurations) {
  GraphFixture f;
  TaskId c0 = f.collective(0, 13, 500, "tp_0", 0);
  TaskId c1 = f.collective(1, 13, 700, "tp_0", 0);
  SimResult r = f.run(/*coupled=*/false);
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(c0)], 500);
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(c1)], 700);
}

TEST(Simulator, CoupledAllReduceRendezvous) {
  GraphFixture f;
  // Rank 0 ready at 100; rank 1 ready at 400 (blocked behind a kernel).
  TaskId pre0 = f.kernel(0, 7, 100);
  TaskId c0 = f.collective(0, 13, 50, "tp_0", 0);
  TaskId pre1 = f.kernel(1, 7, 400);
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);
  f.graph.add_edge(pre0, c0, DepType::InterStream);
  f.graph.add_edge(pre1, c1, DepType::InterStream);
  SimResult r = f.run(/*coupled=*/true);
  ASSERT_TRUE(r.complete());
  // Ring collectives spin: rank 0 starts at its own arrival (100) and both
  // end together at rendezvous(400) + transfer(50) = 450.
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(c0)], 100);
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(c1)], 400);
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(c0)], 450);
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(c1)], 450);
}

TEST(Simulator, CoupledSendRecvStartsAtRendezvous) {
  GraphFixture f;
  TaskId pre0 = f.kernel(0, 21, 100);
  TaskId send = f.collective(0, 21, 30, "pp_fwd_s0to1", 0, "send");
  TaskId pre1 = f.kernel(1, 22, 400);
  TaskId recv = f.collective(1, 22, 30, "pp_fwd_s0to1", 0, "recv");
  f.graph.add_edge(pre0, send, DepType::IntraStream);
  f.graph.add_edge(pre1, recv, DepType::IntraStream);
  SimResult r = f.run(/*coupled=*/true);
  ASSERT_TRUE(r.complete());
  // P2P engages only when both sides are ready: both kernels run
  // [400, 430) and the bubble shows up as stream idle.
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(send)], 400);
  EXPECT_EQ(r.start_ns[static_cast<std::size_t>(recv)], 400);
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(recv)], 430);
}

TEST(Simulator, CoupledCollectiveUsesLastArrivalDuration) {
  GraphFixture f;
  TaskId pre0 = f.kernel(0, 7, 100);
  TaskId c0 = f.collective(0, 13, 999, "tp_0", 0);  // wait-inflated profile
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);   // last arrival: pure
  TaskId pre1 = f.kernel(1, 7, 400);
  f.graph.add_edge(pre0, c0, DepType::InterStream);
  f.graph.add_edge(pre1, c1, DepType::InterStream);
  SimResult r = f.run(/*coupled=*/true);
  // Transfer time comes from the last-arriving member (c1: 50), not the
  // wait-inflated early member.
  EXPECT_EQ(r.end_ns[static_cast<std::size_t>(c1)], 450);
}

TEST(Simulator, IncompleteCollectiveGroupDeadlocksDetectably) {
  GraphFixture f;
  TaskId gate = f.cpu(0, 1, 10);
  TaskId c0 = f.collective(0, 13, 50, "tp_0", 0);
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);
  // c1 can never run: depends on a task that depends on c1 (cycle).
  f.graph.add_edge(gate, c0, DepType::InterStream);
  TaskId blocker = f.cpu(1, 1, 10);
  f.graph.add_edge(c1, blocker, DepType::GpuToCpu);
  f.graph.add_edge(blocker, c1, DepType::InterThread);
  SimResult r = f.run(/*coupled=*/true);
  EXPECT_FALSE(r.complete());
  EXPECT_FALSE(r.stuck_tasks.empty());
}

TEST(Simulator, HooksOverrideDurations) {
  struct DoubleHooks : SimulatorHooks {
    std::int64_t task_duration_ns(const Task& t) override {
      return 2 * t.event.dur_ns;
    }
  } hooks;
  GraphFixture f;
  f.cpu(0, 1, 10);
  SimResult r = f.run(false, &hooks);
  EXPECT_EQ(r.makespan_ns, 20);
}

TEST(Simulator, CollectiveHookSeesConcurrency) {
  struct CountingHooks : SimulatorHooks {
    int max_concurrent = 0;
    std::int64_t collective_duration_ns(const Task& t, int c) override {
      max_concurrent = std::max(max_concurrent, c);
      return t.event.dur_ns;
    }
  } hooks;
  GraphFixture f;
  // Two overlapping collectives on different streams of the same rank,
  // singleton instances so they rendezvous immediately but overlap.
  f.collective(0, 13, 1'000, "tp_0", 0, "allreduce", /*group_size=*/1);
  f.collective(0, 17, 1'000, "dp_0", 0, "allreduce", /*group_size=*/1);
  SimResult r = f.run(/*coupled=*/true, &hooks);
  ASSERT_TRUE(r.complete());
  EXPECT_GE(hooks.max_concurrent, 1);
}

TEST(Simulator, ResultToTraceRoundTrip) {
  GraphFixture f;
  TaskId a = f.cpu(3, 1, 10);
  TaskId k = f.kernel(3, 7, 20);
  f.graph.add_edge(a, k, DepType::CpuToGpu);
  SimResult r = f.run();
  trace::ClusterTrace t = r.to_trace(f.graph);
  ASSERT_EQ(t.ranks.size(), 1u);
  EXPECT_EQ(t.ranks[0].rank, 3);
  ASSERT_EQ(t.ranks[0].events.size(), 2u);
  EXPECT_EQ(t.ranks[0].events[1].ts_ns, 10);
  EXPECT_EQ(t.ranks[0].events[1].dur_ns, 20);
}

TEST(Simulator, DeterministicAcrossRuns) {
  GraphFixture f;
  for (int i = 0; i < 50; ++i) {
    f.kernel(i % 3, 7, 10 + i);
    f.cpu(i % 3, 1, 5 + i);
  }
  SimResult a = Simulator(f.graph).run();
  SimResult b = Simulator(f.graph).run();
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

TEST(Simulator, EmptyGraph) {
  ExecutionGraph g;
  SimResult r = Simulator(g).run();
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.makespan_ns, 0);
  EXPECT_EQ(r.executed, 0u);
}

TEST(Simulator, RankEndNs) {
  GraphFixture f;
  f.cpu(0, 1, 10);
  f.cpu(5, 1, 99);
  SimResult r = f.run();
  EXPECT_EQ(r.rank_end_ns(f.graph, 0), 10);
  EXPECT_EQ(r.rank_end_ns(f.graph, 5), 99);
  EXPECT_EQ(r.rank_end_ns(f.graph, 42), 0);
}

}  // namespace
}  // namespace lumos::core
