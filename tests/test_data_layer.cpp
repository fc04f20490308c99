// Data-layer tests: trace::StringPool, core::LaneTable / TaskMetaTable, and
// refactor-equivalence golden properties — the columns must agree with a
// from-scratch reclassification of every Task, and simulation results must
// be bit-identical across graph copies, rebuilds, lazy vs. eager
// finalization, and repeated runs (the contract api::Sweep's sequential-vs-
// parallel identity rests on).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/breakdown.h"
#include "cluster/ground_truth.h"
#include "core/execution_graph.h"
#include "core/graph_manipulator.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "test_util.h"
#include "trace/chrome_trace.h"
#include "trace/string_pool.h"
#include "trace_dom_oracle.h"

namespace lumos {
namespace {

using core::DepType;
using core::ExecutionGraph;
using core::kInvalidLane;
using core::kInvalidTask;
using core::LaneId;
using core::LaneTable;
using core::Processor;
using core::SimResult;
using core::Task;
using core::TaskId;
using core::TaskMetaTable;

// ---------------------------------------------------------------------------
// StringPool
// ---------------------------------------------------------------------------

TEST(StringPool, InternDeduplicates) {
  trace::StringPool pool;
  const std::uint32_t a = pool.intern("allreduce");
  const std::uint32_t b = pool.intern("send");
  const std::uint32_t a2 = pool.intern("allreduce");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, IdsAreDenseInFirstInternOrder) {
  trace::StringPool pool;
  EXPECT_EQ(pool.intern("x"), 0u);
  EXPECT_EQ(pool.intern("y"), 1u);
  EXPECT_EQ(pool.intern("x"), 0u);
  EXPECT_EQ(pool.intern("z"), 2u);
}

TEST(StringPool, ViewRoundTrips) {
  trace::StringPool pool;
  const std::uint32_t id = pool.intern("cudaLaunchKernel");
  EXPECT_EQ(pool.view(id), "cudaLaunchKernel");
  // Views stay valid across growth-triggering inserts.
  for (int i = 0; i < 1000; ++i) pool.intern("s" + std::to_string(i));
  EXPECT_EQ(pool.view(id), "cudaLaunchKernel");
}

TEST(StringPool, FindDoesNotIntern) {
  trace::StringPool pool;
  pool.intern("present");
  EXPECT_EQ(pool.find("present"), 0u);
  EXPECT_EQ(pool.find("absent"), trace::NameId::kInvalidIndex);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPool, DeterministicAcrossIdenticalSequences) {
  trace::StringPool a, b;
  const char* words[] = {"fwd", "bwd", "fwd", "opt", "bwd", "nccl"};
  for (const char* w : words) {
    EXPECT_EQ(a.intern(w), b.intern(w));
  }
}

TEST(StringHandles, TypedHandlesCompare) {
  trace::NameId none;
  EXPECT_FALSE(none.valid());
  trace::NameId a{0}, b{0}, c{1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

// ---------------------------------------------------------------------------
// LaneTable / TaskMetaTable on a hand-built graph
// ---------------------------------------------------------------------------

ExecutionGraph mixed_graph() {
  testutil::GraphAuthor author;
  std::int64_t seq = 0;
  auto add = [&](std::int32_t rank, bool gpu, std::int64_t lane,
                 const char* name, trace::EventCategory cat,
                 std::int64_t dur, trace::CollectiveInfo collective = {}) {
    Task t;
    t.processor = {rank, gpu, lane};
    t.event.name = name;
    t.event.cat = cat;
    t.event.dur_ns = dur;
    t.event.ts_ns = seq++;
    t.event.collective = std::move(collective);
    return author.add(t);
  };
  add(0, false, 1, "op_a", trace::EventCategory::CpuOp, 10);
  add(0, false, 1, "cudaLaunchKernel", trace::EventCategory::CudaRuntime, 5);
  add(0, true, 7, "gemm", trace::EventCategory::Kernel, 100);
  add(1, true, 7, "gemm", trace::EventCategory::Kernel, 100);
  add(1, false, 2, "op_a", trace::EventCategory::CpuOp, 10);
  add(0, true, 13, "nccl", trace::EventCategory::Kernel, 50,
      {.op = "allreduce", .group = "tp_0", .instance = 0});
  return std::move(author.graph);
}

TEST(LaneTable, DenseIdsAndLookupRoundTrip) {
  ExecutionGraph g = mixed_graph();
  const LaneTable& lanes = g.meta().lanes();
  // 5 distinct processors: (0,cpu,1) (0,gpu,7) (1,gpu,7) (1,cpu,2) (0,gpu,13)
  EXPECT_EQ(lanes.size(), 5u);
  std::set<LaneId> seen;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const Processor& p = lanes.processor(static_cast<LaneId>(i));
    const LaneId back = lanes.id_of(p);
    EXPECT_EQ(back, static_cast<LaneId>(i));
    seen.insert(back);
  }
  EXPECT_EQ(seen.size(), lanes.size());
  EXPECT_EQ(lanes.id_of({9, false, 9}), kInvalidLane);
}

TEST(LaneTable, RankIndexingAndGpuLanes) {
  ExecutionGraph g = mixed_graph();
  const LaneTable& lanes = g.meta().lanes();
  ASSERT_EQ(lanes.rank_count(), 2u);
  EXPECT_EQ(lanes.rank_value(0), 0);
  EXPECT_EQ(lanes.rank_value(1), 1);
  // Rank 0 has GPU streams 7 and 13, ascending by stream id.
  auto r0 = lanes.gpu_lanes(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(lanes.processor(r0[0]).lane, 7);
  EXPECT_EQ(lanes.processor(r0[1]).lane, 13);
  auto r1 = lanes.gpu_lanes(1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(lanes.processor(r1[0]).lane, 7);
  EXPECT_TRUE(lanes.is_gpu(r1[0]));
}

TEST(TaskMetaTable, ColumnsMatchTaskReclassification) {
  ExecutionGraph g = mixed_graph();
  const TaskMetaTable& meta = g.meta();
  ASSERT_EQ(meta.size(), g.size());
  for (const Task& t : g.tasks()) {
    const TaskId id = t.id;
    EXPECT_EQ(meta.category(id), t.event.cat);
    EXPECT_EQ(meta.cuda_api(id), t.cuda_api());
    EXPECT_EQ(meta.duration_ns(id), t.event.dur_ns);
    EXPECT_EQ(meta.ts_ns(id), t.event.ts_ns);
    EXPECT_EQ(meta.is_gpu(id), t.is_gpu());
    EXPECT_EQ(meta.is_collective_kernel(id), t.is_collective_kernel());
    EXPECT_EQ(meta.name_view(id), t.event.name);
    EXPECT_EQ(meta.lanes().processor(meta.lane(id)), t.processor);
    if (t.event.collective.valid()) {
      EXPECT_EQ(meta.op_view(meta.collective_op(id)), t.event.collective.op);
      EXPECT_EQ(meta.group_view(meta.collective_group(id)),
                t.event.collective.group);
      EXPECT_EQ(meta.collective_instance(id), t.event.collective.instance);
    } else {
      EXPECT_FALSE(meta.collective_op(id).valid());
      EXPECT_FALSE(meta.collective_group(id).valid());
    }
  }
}

TEST(TaskMetaTable, RendezvousGroups) {
  ExecutionGraph g = mixed_graph();
  const TaskMetaTable& meta = g.meta();
  ASSERT_EQ(meta.rendezvous_group_count(), 1u);
  const core::RendezvousGroup group = meta.rendezvous_group(0);
  EXPECT_EQ(group.instance, 0);
  EXPECT_EQ(meta.group_view(group.group), "tp_0");
  ASSERT_EQ(group.members.size(), 1u);
  EXPECT_EQ(group.members[0], 5);
  EXPECT_EQ(meta.group_index(5), 0);
  EXPECT_EQ(meta.group_index(0), -1);
  EXPECT_TRUE(meta.is_coupled_collective(5));
  EXPECT_FALSE(meta.is_coupled_collective(0));
  EXPECT_FALSE(meta.is_p2p(5));
  EXPECT_EQ(meta.category(5), trace::EventCategory::Kernel);
  EXPECT_EQ(meta.duration_ns(5), 50);
  EXPECT_EQ(meta.group_view(meta.collective_group(5)), "tp_0");
}

TEST(ExecutionGraph, ReserveOnAFinalizedGraphKeepsItsMetaTableValid) {
  // The published meta table reads the rows in place, so reserve() must
  // clone rows it shares rather than reallocate them under the table (ASan
  // reports the read of the freed rows below if it does not).
  ExecutionGraph g = mixed_graph();
  g.finalize();
  const TaskMetaTable& meta = g.meta();
  std::vector<std::int64_t> durations;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    durations.push_back(meta.duration_ns(static_cast<TaskId>(i)));
    names.emplace_back(meta.name_view(static_cast<TaskId>(i)));
  }
  g.reserve(1u << 16, 1u << 16);
  ASSERT_EQ(&g.meta(), &meta) << "reserve changes no row, so the table stays";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    EXPECT_EQ(meta.duration_ns(static_cast<TaskId>(i)), durations[i]);
    EXPECT_EQ(meta.name_view(static_cast<TaskId>(i)), names[i]);
  }
  g.add_task({0, false, 1}, {});
  EXPECT_EQ(g.meta().size(), durations.size() + 1);
}

TEST(TaskMetaTable, GpuTasksPerLaneInLaunchOrder) {
  ExecutionGraph g = mixed_graph();
  const TaskMetaTable& meta = g.meta();
  const LaneId lane = meta.lanes().id_of({0, true, 7});
  ASSERT_NE(lane, kInvalidLane);
  auto ids = meta.gpu_tasks(lane);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2);
  // CPU lanes carry no GPU tasks.
  const LaneId cpu_lane = meta.lanes().id_of({0, false, 1});
  ASSERT_NE(cpu_lane, kInvalidLane);
  EXPECT_TRUE(meta.gpu_tasks(cpu_lane).empty());
}

TEST(TaskMetaTable, ColumnRowsClassifyLikeAuthoredTasks) {
  // A graph's Task view, interned again into other pools and appended as
  // column rows, classifies identically; appending after classifying
  // classifies the grown rows.
  auto pools = std::make_shared<trace::TracePools>();
  ExecutionGraph rows(pools);
  const ExecutionGraph authored = mixed_graph();
  for (const Task& t : authored.tasks()) {
    trace::EventTable scratch(pools);
    scratch.push_back(t.event);
    rows.add_task(t.processor, scratch.row(0));
  }
  ASSERT_EQ(rows.size(), authored.size());
  const ExecutionGraph& built = rows;
  const TaskMetaTable& a = built.meta();
  const TaskMetaTable& b = authored.meta();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_EQ(a.lane(id), b.lane(id));
    EXPECT_EQ(a.cuda_api(id), b.cuda_api(id));
    EXPECT_EQ(a.name_view(id), b.name_view(id));
    EXPECT_EQ(a.group_index(id), b.group_index(id));
    EXPECT_EQ(built.task(id).event, authored.task(id).event);
  }

  rows.add_task({2, false, 1}, {});
  EXPECT_EQ(rows.meta().size(), authored.size() + 1);
}

TEST(ExecutionGraph, MovedFromGraphIsAValidEmptyGraph) {
  ExecutionGraph source = mixed_graph();
  source.add_edge(0, 1, DepType::IntraThread);
  source.finalize();
  (void)source.tasks();  // every cache is populated before the move
  ExecutionGraph moved = std::move(source);
  ASSERT_EQ(moved.size(), 6u);
  EXPECT_EQ(moved.meta().size(), 6u);
  EXPECT_EQ(moved.edges().size(), 1u);

  ExecutionGraph assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 6u);
  EXPECT_EQ(assigned.task(5).event.collective.group, "tp_0");

  for (const ExecutionGraph* g : {&source, &moved}) {
    EXPECT_EQ(g->size(), 0u);
    EXPECT_TRUE(g->empty());
    EXPECT_EQ(g->meta().size(), 0u);
    EXPECT_EQ(g->meta().lanes().size(), 0u);
    EXPECT_TRUE(g->tasks().empty());
    EXPECT_TRUE(g->edges().empty());
    EXPECT_TRUE(g->ranks().empty());
    EXPECT_TRUE(g->is_acyclic());
    EXPECT_TRUE(core::Simulator(*g).run().complete());
  }
  // Reassigning a moved-from graph makes it whole again.
  source = mixed_graph();
  EXPECT_EQ(source.size(), 6u);
  EXPECT_EQ(source.meta().size(), 6u);
}

TEST(TaskMetaTable, DeterministicAcrossIdenticalBuilds) {
  ExecutionGraph a = mixed_graph();
  ExecutionGraph b = mixed_graph();
  const TaskMetaTable& ma = a.meta();
  const TaskMetaTable& mb = b.meta();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_EQ(ma.lane(id), mb.lane(id));
    EXPECT_EQ(ma.name(id), mb.name(id));
    EXPECT_EQ(ma.collective_op(id), mb.collective_op(id));
    EXPECT_EQ(ma.collective_group(id), mb.collective_group(id));
    EXPECT_EQ(ma.group_index(id), mb.group_index(id));
  }
}

// ---------------------------------------------------------------------------
// EdgeTypeHistogram
// ---------------------------------------------------------------------------

TEST(EdgeTypeHistogram, CountsIndexAndIterate) {
  ExecutionGraph g = mixed_graph();
  g.add_edge(0, 1, DepType::IntraThread);
  g.add_edge(1, 2, DepType::CpuToGpu);
  g.add_edge(0, 4, DepType::InterThread);
  g.add_edge(2, 3, DepType::InterStream);
  g.add_edge(1, 4, DepType::InterThread);
  const core::EdgeTypeHistogram hist = g.edge_type_histogram();
  EXPECT_EQ(hist[DepType::IntraThread], 1u);
  EXPECT_EQ(hist[DepType::InterThread], 2u);
  EXPECT_EQ(hist[DepType::CpuToGpu], 1u);
  EXPECT_EQ(hist[DepType::GpuToCpu], 0u);
  EXPECT_EQ(hist.total(), 5u);
  // Iteration yields only present types, like the sparse map it replaced.
  std::size_t entries = 0, sum = 0;
  for (const auto& [type, count] : hist) {
    EXPECT_GT(count, 0u);
    ++entries;
    sum += count;
  }
  EXPECT_EQ(entries, 4u);
  EXPECT_EQ(sum, hist.total());
}

// ---------------------------------------------------------------------------
// Refactor-equivalence golden properties: replay bit-identity on seeded
// template graphs and a replayed trace.
// ---------------------------------------------------------------------------

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.stuck_tasks, b.stuck_tasks);
}

class GoldenReplay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                      testutil::tiny_config());
    run_ = new cluster::GroundTruthRun(engine.run_profiled(/*seed=*/3));
  }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
  }
  static cluster::GroundTruthRun* run_;
};

cluster::GroundTruthRun* GoldenReplay::run_ = nullptr;

TEST_F(GoldenReplay, RepeatedRunsAreBitIdentical) {
  ExecutionGraph g = core::TraceParser().parse(run_->trace);
  expect_identical(core::replay(g), core::replay(g));
}

TEST_F(GoldenReplay, LazyAndEagerMetaAgree) {
  // The parser finalizes eagerly; a graph holding the same rows and edges
  // that is never finalized classifies lazily, on its first replay.
  const ExecutionGraph eager = core::TraceParser().parse(run_->trace);
  const SimResult reference = core::replay(eager);
  const core::ColumnTaskSource& rows = eager.meta().columns();
  ExecutionGraph lazy(rows.pools());
  for (std::size_t i = 0; i < rows.count(); ++i) {
    lazy.add_task(rows.processor(i), rows.events().row(i));
  }
  for (const core::Edge& e : eager.edges()) {
    lazy.add_edge(e.src, e.dst, e.type);
  }
  expect_identical(core::replay(lazy), reference);
}

TEST_F(GoldenReplay, TemplateGraphReplaysBitIdenticallyAcrossRebuilds) {
  // Seeded template-provider rebuild: two independent builds of the same
  // (model, config) from the same profiled graph must replay identically.
  ExecutionGraph profiled = core::TraceParser().parse(run_->trace);
  cost::KernelPerfModel kernel_model{cost::HardwareSpec{}};
  core::GraphManipulator m1(profiled, testutil::tiny_model(),
                            testutil::tiny_config(), kernel_model, {});
  core::GraphManipulator m2(profiled, testutil::tiny_model(),
                            testutil::tiny_config(), kernel_model, {});
  const workload::ParallelConfig dp4 = testutil::tiny_config(2, 2, 4);
  workload::BuiltJob j1 = m1.with_spec(testutil::tiny_model(), dp4);
  workload::BuiltJob j2 = m2.with_spec(testutil::tiny_model(), dp4);
  expect_identical(core::replay(j1.graph), core::replay(j2.graph));
}

TEST_F(GoldenReplay, ScheduleBreakdownMatchesTraceBreakdown) {
  // The columnar breakdown overload must agree bit-for-bit with the
  // classic trace-materializing path it replaces in Prediction.
  ExecutionGraph g = core::TraceParser().parse(run_->trace);
  const SimResult sim = core::replay(g);
  const analysis::Breakdown from_columns = analysis::compute_breakdown(g, sim);
  const analysis::Breakdown from_trace =
      analysis::compute_breakdown(sim.to_trace(g));
  EXPECT_EQ(from_columns.exposed_compute_ns, from_trace.exposed_compute_ns);
  EXPECT_EQ(from_columns.overlapped_ns, from_trace.overlapped_ns);
  EXPECT_EQ(from_columns.exposed_comm_ns, from_trace.exposed_comm_ns);
  EXPECT_EQ(from_columns.other_ns, from_trace.other_ns);
}

TEST_F(GoldenReplay, WithoutEdgesSharesMetaAndStaysConsistent) {
  ExecutionGraph g = core::TraceParser().parse(run_->trace);
  ExecutionGraph ablated = g.without_edges(DepType::InterStream);
  // Same tasks, fewer edges; the shared meta table must still describe
  // every task correctly.
  ASSERT_EQ(ablated.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_EQ(ablated.meta().lane(id), g.meta().lane(id));
    EXPECT_EQ(ablated.meta().duration_ns(id), g.meta().duration_ns(id));
  }
  const SimResult r = core::replay(ablated);
  EXPECT_EQ(r.executed, ablated.size());
}

// ---------------------------------------------------------------------------
// Parse-path golden fixture
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ParsePathGolden, JsonIngestAndPredictionMatchPreRefactorFixture) {
  // Golden values captured on the AoS trace layer immediately before the
  // columnar EventTable refactor (tiny 2x2x2 scenario, profiled seed 123).
  // The full pipeline — emit Kineto JSON, SAX-ingest it into the columnar
  // tables, parse the graph, replay — must stay bit-identical to what the
  // pre-refactor code produced.
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  EXPECT_EQ(run.trace.total_events(), 6548u);
  ASSERT_EQ(run.trace.ranks.size(), 4u);
  EXPECT_EQ(fnv1a(trace::to_json_string(run.trace.ranks[0])),
            11453389673110840838ULL);

  trace::ClusterTrace round;
  for (const trace::RankTrace& rank : run.trace.ranks) {
    round.ranks.push_back(
        trace::rank_trace_from_json_string(trace::to_json_string(rank)));
  }
  ExecutionGraph g = core::TraceParser().parse(round);
  const SimResult r = core::replay(g);
  EXPECT_EQ(g.size(), 6544u);  // 6548 events minus 4 ProfilerStep markers
  EXPECT_EQ(r.executed, 6544u);
  EXPECT_EQ(r.makespan_ns, 9696976);
  EXPECT_EQ(fnv1a(trace::to_json_string(r.to_trace(g).ranks[0])),
            4020730746583819554ULL);
}

TEST(ParsePathGolden, StreamingWriterMatchesDomOnSeedFixture) {
  // The streaming JsonWriter behind to_json_string must stay byte-identical
  // to the DOM reference writer on the full seed-123 fixture, in every
  // indent mode (the compact mode is additionally pinned by the FNV golden
  // above — 11453389673110840838 predates the streaming writer).
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  for (const trace::RankTrace& rank : run.trace.ranks) {
    for (const int indent : {-1, 1, 2}) {
      const std::string dom =
          json::write(testutil::trace_to_json(rank), {.indent = indent});
      const std::string streamed = trace::to_json_string(rank, indent);
      ASSERT_EQ(streamed, dom)
          << "rank " << rank.rank << " indent " << indent;
    }
  }
}

TEST(ParsePathGolden, GraphMetaSharesClusterTracePools) {
  // One pool per trace, end to end: all ranks read from disk share one
  // TracePools, and the parsed graph's meta table adopts that same object
  // instead of re-interning.
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config(1, 1, 1));
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/5);
  const std::string prefix =
      ::testing::TempDir() + "/lumos_pool_share";
  trace::write_cluster_trace_files(run.trace, prefix);
  trace::ClusterTrace back =
      trace::read_cluster_trace(prefix, run.trace.ranks.size());
  for (const trace::RankTrace& rank : back.ranks) {
    EXPECT_EQ(rank.events.pools(), back.ranks.front().events.pools());
  }
  ExecutionGraph g = core::TraceParser().parse(back);
  EXPECT_EQ(g.meta().pools(), back.ranks.front().events.pools());
}

}  // namespace
}  // namespace lumos
