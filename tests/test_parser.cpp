// TraceParser / dependency-inference tests: the parser must reconstruct,
// from event-visible facts only, the same dependency structure the builder
// (ground truth) created — the paper's central claim of trace-driven graph
// construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/ground_truth.h"
#include "core/trace_parser.h"
#include "test_util.h"
#include "trace/event.h"

namespace lumos::core {
namespace {

using testutil::edge_set;
using testutil::tiny_config;
using testutil::tiny_model;

trace::TraceEvent cpu_event(std::string name, std::int64_t ts,
                            std::int64_t dur, std::int32_t tid,
                            trace::EventCategory cat =
                                trace::EventCategory::CpuOp) {
  trace::TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = tid;
  return e;
}

trace::TraceEvent kernel_event(std::string name, std::int64_t ts,
                               std::int64_t dur, std::int64_t stream,
                               std::int64_t corr) {
  trace::TraceEvent e;
  e.name = std::move(name);
  e.cat = trace::EventCategory::Kernel;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = static_cast<std::int32_t>(stream);
  e.stream = stream;
  e.correlation = corr;
  return e;
}

// ---------------------------------------------------------------------------
// Hand-built micro traces
// ---------------------------------------------------------------------------

TEST(TraceParser, IntraThreadChain) {
  trace::RankTrace t;
  t.events.push_back(cpu_event("a", 0, 10, 1));
  t.events.push_back(cpu_event("b", 10, 10, 1));
  t.events.push_back(cpu_event("c", 20, 10, 1));
  ExecutionGraph g = TraceParser().parse(t);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edge_type_histogram()[DepType::IntraThread], 2u);
}

TEST(TraceParser, CorrelationLinksLaunchToKernel) {
  trace::RankTrace t;
  auto launch = cpu_event("cudaLaunchKernel", 0, 5, 1,
                          trace::EventCategory::CudaRuntime);
  launch.correlation = 7;
  launch.stream = 7;
  t.events.push_back(launch);
  t.events.push_back(kernel_event("gemm", 8, 100, 7, 7));
  ExecutionGraph g = TraceParser().parse(t);
  auto hist = g.edge_type_histogram();
  EXPECT_EQ(hist[DepType::CpuToGpu], 1u);
}

TEST(TraceParser, IntraStreamOrderFollowsTimestamps) {
  trace::RankTrace t;
  auto l1 = cpu_event("cudaLaunchKernel", 0, 2, 1,
                      trace::EventCategory::CudaRuntime);
  l1.correlation = 1;
  l1.stream = 7;
  auto l2 = l1;
  l2.ts_ns = 3;
  l2.correlation = 2;
  t.events.push_back(l1);
  t.events.push_back(l2);
  t.events.push_back(kernel_event("k2", 50, 10, 7, 2));
  t.events.push_back(kernel_event("k1", 10, 30, 7, 1));
  ExecutionGraph g = TraceParser().parse(t);
  EXPECT_EQ(g.edge_type_histogram()[DepType::IntraStream], 1u);
  // The edge must run k1 -> k2 regardless of event order in the file.
  for (const Edge& e : g.edges()) {
    if (e.type == DepType::IntraStream) {
      EXPECT_EQ(g.task(e.src).event.name, "k1");
      EXPECT_EQ(g.task(e.dst).event.name, "k2");
    }
  }
}

TEST(TraceParser, InterStreamFromRecordWaitPair) {
  trace::RankTrace t;
  auto l1 = cpu_event("cudaLaunchKernel", 0, 2, 1,
                      trace::EventCategory::CudaRuntime);
  l1.correlation = 1;
  l1.stream = 7;
  auto record = cpu_event("cudaEventRecord", 2, 1, 1,
                          trace::EventCategory::CudaRuntime);
  record.stream = 7;
  record.cuda_event = 42;
  auto wait = cpu_event("cudaStreamWaitEvent", 3, 1, 1,
                        trace::EventCategory::CudaRuntime);
  wait.stream = 13;
  wait.cuda_event = 42;
  auto l2 = cpu_event("cudaLaunchKernel", 4, 2, 1,
                      trace::EventCategory::CudaRuntime);
  l2.correlation = 2;
  l2.stream = 13;
  t.events.push_back(l1);
  t.events.push_back(record);
  t.events.push_back(wait);
  t.events.push_back(l2);
  t.events.push_back(kernel_event("producer", 5, 10, 7, 1));
  t.events.push_back(kernel_event("consumer", 20, 10, 13, 2));
  ExecutionGraph g = TraceParser().parse(t);
  ASSERT_EQ(g.edge_type_histogram()[DepType::InterStream], 1u);
  for (const Edge& e : g.edges()) {
    if (e.type == DepType::InterStream) {
      EXPECT_EQ(g.task(e.src).event.name, "producer");
      EXPECT_EQ(g.task(e.dst).event.name, "consumer");
    }
  }
}

TEST(TraceParser, RecordBeforeAnyKernelMakesNoEdge) {
  trace::RankTrace t;
  auto record = cpu_event("cudaEventRecord", 0, 1, 1,
                          trace::EventCategory::CudaRuntime);
  record.stream = 7;
  record.cuda_event = 1;
  auto wait = cpu_event("cudaStreamWaitEvent", 1, 1, 1,
                        trace::EventCategory::CudaRuntime);
  wait.stream = 13;
  wait.cuda_event = 1;
  auto l = cpu_event("cudaLaunchKernel", 2, 1, 1,
                     trace::EventCategory::CudaRuntime);
  l.correlation = 1;
  l.stream = 13;
  t.events.push_back(record);
  t.events.push_back(wait);
  t.events.push_back(l);
  t.events.push_back(kernel_event("k", 5, 10, 13, 1));
  ExecutionGraph g = TraceParser().parse(t);
  EXPECT_EQ(g.edge_type_histogram()[DepType::InterStream], 0u);
}

TEST(TraceParser, InterStreamDisabledByOption) {
  trace::RankTrace t;
  auto l1 = cpu_event("cudaLaunchKernel", 0, 2, 1,
                      trace::EventCategory::CudaRuntime);
  l1.correlation = 1;
  l1.stream = 7;
  auto record = cpu_event("cudaEventRecord", 2, 1, 1,
                          trace::EventCategory::CudaRuntime);
  record.stream = 7;
  record.cuda_event = 42;
  auto wait = cpu_event("cudaStreamWaitEvent", 3, 1, 1,
                        trace::EventCategory::CudaRuntime);
  wait.stream = 13;
  wait.cuda_event = 42;
  auto l2 = l1;
  l2.ts_ns = 4;
  l2.correlation = 2;
  l2.stream = 13;
  t.events.push_back(l1);
  t.events.push_back(record);
  t.events.push_back(wait);
  t.events.push_back(l2);
  t.events.push_back(kernel_event("p", 5, 10, 7, 1));
  t.events.push_back(kernel_event("c", 20, 10, 13, 2));
  ParserOptions opts;
  opts.infer_interstream = false;
  ExecutionGraph g = TraceParser(opts).parse(t);
  EXPECT_EQ(g.edge_type_histogram()[DepType::InterStream], 0u);
}

TEST(TraceParser, GapTriggersInterThreadInference) {
  trace::RankTrace t;
  t.events.push_back(cpu_event("main1", 0, 100'000, 1));
  t.events.push_back(cpu_event("main2", 100'000, 10'000, 1));
  // Worker thread resumes exactly when main2 ends, after a long gap.
  t.events.push_back(cpu_event("worker_early", 0, 10'000, 2));
  t.events.push_back(cpu_event("worker_late", 110'000, 10'000, 2));
  ExecutionGraph g = TraceParser().parse(t);
  bool found = false;
  for (const Edge& e : g.edges()) {
    if (e.type == DepType::InterThread) {
      EXPECT_EQ(g.task(e.src).event.name, "main2");
      EXPECT_EQ(g.task(e.dst).event.name, "worker_late");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceParser, SmallGapDoesNotTriggerInference) {
  trace::RankTrace t;
  t.events.push_back(cpu_event("main", 0, 100, 1));
  t.events.push_back(cpu_event("worker1", 0, 50, 2));
  t.events.push_back(cpu_event("worker2", 50 + 500, 10, 2));  // 0.5us gap
  ParserOptions opts;
  opts.interthread_gap_ns = 2'000;
  ExecutionGraph g = TraceParser(opts).parse(t);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.type, DepType::InterThread);
  }
}

TEST(TraceParser, BlockingSyncGapIsNotMisattributed) {
  trace::RankTrace t;
  t.events.push_back(cpu_event("other_thread_op", 0, 500, 2));
  t.events.push_back(cpu_event("main1", 0, 10, 1));
  auto sync = cpu_event("cudaStreamSynchronize", 10, 990, 1,
                        trace::EventCategory::CudaRuntime);
  sync.stream = 7;
  t.events.push_back(sync);
  ExecutionGraph g = TraceParser().parse(t);
  // The sync explains its own wait; no inter-thread edge to it.
  for (const Edge& e : g.edges()) {
    if (e.type == DepType::InterThread) {
      EXPECT_NE(g.task(e.dst).event.name, "cudaStreamSynchronize");
    }
  }
}

TEST(TraceParser, ClampsBlockingSyncDurations) {
  trace::RankTrace t;
  auto sync = cpu_event("cudaStreamSynchronize", 0, 5'000'000, 1,
                        trace::EventCategory::CudaRuntime);
  sync.stream = 7;
  t.events.push_back(sync);
  ParserOptions opts;
  opts.sync_duration_clamp_ns = 4'000;
  ExecutionGraph g = TraceParser(opts).parse(t);
  EXPECT_EQ(g.task(0).event.dur_ns, 4'000);
}

TEST(TraceParser, DropsUserAnnotations) {
  trace::RankTrace t;
  t.events.push_back(cpu_event("ProfilerStep#1", 0, 100, 1,
                               trace::EventCategory::UserAnnotation));
  t.events.push_back(cpu_event("op", 0, 10, 1));
  ExecutionGraph g = TraceParser().parse(t);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.task(0).event.name, "op");
}

TEST(TraceParser, ShuffledRankParsesLikeItsSortedCopy) {
  // The parser orders rows itself: a rank whose events arrive shuffled
  // (pushed in reverse, ties included) gives the rows and edges of its
  // (ts, tid)-sorted copy, which the parser takes without re-sorting.
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(1, 1, 1));
  const cluster::GroundTruthRun run = engine.run_profiled(3);
  const trace::EventTable& events = run.trace.ranks.front().events;
  ASSERT_GT(events.size(), 100u);
  trace::RankTrace shuffled;
  for (std::size_t i = events.size(); i-- > 0;) {
    shuffled.events.push_back(events[i]);
  }
  trace::RankTrace sorted = shuffled;
  sorted.sort_by_time();
  const ExecutionGraph a = TraceParser().parse(shuffled);
  const ExecutionGraph b = TraceParser().parse(sorted);
  ASSERT_EQ(a.size(), b.size());
  for (TaskId id = 0; id < static_cast<TaskId>(a.size()); ++id) {
    ASSERT_EQ(a.task(id).event, b.task(id).event) << id;
    ASSERT_EQ(a.task(id).processor, b.task(id).processor) << id;
  }
  EXPECT_TRUE(std::ranges::equal(a.edges(), b.edges()));
}

// ---------------------------------------------------------------------------
// Round-trip against the ground-truth builder
// ---------------------------------------------------------------------------

class ParserRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    auto [tp, pp] = GetParam();
    cluster::GroundTruthEngine engine(tiny_model(), tiny_config(tp, pp, 2));
    run_ = std::make_unique<cluster::GroundTruthRun>(engine.run_profiled(3));
    parsed_ = TraceParser().parse(run_->trace);
  }

  std::unique_ptr<cluster::GroundTruthRun> run_;
  ExecutionGraph parsed_;
};

TEST_P(ParserRoundTrip, RecoversSameTaskCount) {
  EXPECT_EQ(parsed_.size(), run_->job.graph.size());
}

TEST_P(ParserRoundTrip, RecoversCpuToGpuEdgesExactly) {
  EXPECT_EQ(edge_set(parsed_, DepType::CpuToGpu),
            edge_set(run_->job.graph, DepType::CpuToGpu));
}

TEST_P(ParserRoundTrip, RecoversIntraStreamEdgesExactly) {
  EXPECT_EQ(edge_set(parsed_, DepType::IntraStream),
            edge_set(run_->job.graph, DepType::IntraStream));
}

TEST_P(ParserRoundTrip, RecoversIntraThreadEdgesExactly) {
  EXPECT_EQ(edge_set(parsed_, DepType::IntraThread),
            edge_set(run_->job.graph, DepType::IntraThread));
}

TEST_P(ParserRoundTrip, RecoversInterStreamEdgesExactly) {
  EXPECT_EQ(edge_set(parsed_, DepType::InterStream),
            edge_set(run_->job.graph, DepType::InterStream));
}

TEST_P(ParserRoundTrip, RecoversInterThreadEdges) {
  // Gap inference must recover the dispatch->autograd and autograd->resume
  // handoffs. Edges whose destination is a blocking CUDA API are exempt:
  // the stretched sync leaves no gap to observe, and the simulator's
  // runtime dependency already enforces that ordering.
  auto built = edge_set(run_->job.graph, DepType::InterThread);
  auto inferred = edge_set(parsed_, DepType::InterThread);
  auto keys = testutil::lane_keys(run_->job.graph);
  std::map<testutil::LaneKey, TaskId> by_key;
  for (const auto& [id, key] : keys) by_key[key] = id;
  std::size_t required = 0, recovered = 0;
  for (const auto& e : built) {
    const Task& dst = run_->job.graph.task(by_key.at(e.second));
    if (trace::blocks_cpu(dst.cuda_api())) continue;
    ++required;
    recovered += inferred.count(e);
  }
  EXPECT_GE(static_cast<double>(recovered),
            0.95 * static_cast<double>(required));
  EXPECT_LE(inferred.size(), built.size() + built.size() / 2 + 4);
}

TEST_P(ParserRoundTrip, ParsedGraphIsAcyclic) {
  TaskId hint = kInvalidTask;
  EXPECT_TRUE(parsed_.is_acyclic(&hint)) << "cycle at " << hint;
}

INSTANTIATE_TEST_SUITE_P(Configs, ParserRoundTrip,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(2, 1),
                                           std::make_tuple(1, 2),
                                           std::make_tuple(2, 2),
                                           std::make_tuple(2, 4)));

TEST(TraceParserCluster, MultiRankParsePreservesPerRankStructure) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
  auto run = engine.run_profiled(5);
  TraceParser parser;
  ExecutionGraph all = parser.parse(run.trace);
  std::size_t sum = 0;
  for (const trace::RankTrace& rank : run.trace.ranks) {
    sum += parser.parse(rank).size();
  }
  EXPECT_EQ(all.size(), sum);
  EXPECT_EQ(all.ranks().size(), run.trace.ranks.size());
}

}  // namespace
}  // namespace lumos::core
