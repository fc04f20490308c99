// Analysis-module tests: breakdown interval arithmetic (and the
// schedule-based breakdown pinned to the trace-based one), the interval
// kernels, SM-utilization timelines, error metrics, critical-path
// extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "analysis/breakdown.h"
#include "analysis/critical_path.h"
#include "analysis/interval_merge.h"
#include "analysis/metrics.h"
#include "analysis/sm_utilization.h"
#include "cluster/ground_truth.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "costmodel/kernel_model.h"
#include "test_util.h"

namespace lumos::analysis {
namespace {

trace::TraceEvent kernel(std::int64_t ts, std::int64_t dur,
                         std::int64_t stream, bool comm = false) {
  trace::TraceEvent e;
  e.name = comm ? "nccl" : "gemm";
  e.cat = trace::EventCategory::Kernel;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = static_cast<std::int32_t>(stream);
  e.stream = stream;
  if (comm) {
    e.collective.op = "allreduce";
    e.collective.group = "tp_0";
  }
  return e;
}

trace::TraceEvent cpu(std::int64_t ts, std::int64_t dur) {
  trace::TraceEvent e;
  e.name = "op";
  e.cat = trace::EventCategory::CpuOp;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = 1;
  return e;
}

// ---------------------------------------------------------------------------
// Interval-merge kernel
// ---------------------------------------------------------------------------

TEST(IntervalMerge, SortsMergesAndReturnsUnion) {
  std::vector<Interval> v{{20, 25}, {0, 10}, {5, 15}};
  EXPECT_EQ(merge_intervals(v), 20);
  EXPECT_EQ(v, (std::vector<Interval>{{0, 15}, {20, 25}}));
}

TEST(IntervalMerge, TouchingIntervalsMergeAndEmptyIsZero) {
  std::vector<Interval> touching{{0, 10}, {10, 20}};
  EXPECT_EQ(merge_intervals(touching), 20);
  EXPECT_EQ(touching.size(), 1u);
  std::vector<Interval> none;
  EXPECT_EQ(merge_intervals(none), 0);
  std::vector<Interval> degenerate{{3, 3}};
  EXPECT_EQ(merge_intervals(degenerate), 0);
}

TEST(IntervalMerge, GatherSelectsAndClampsColumns) {
  const std::vector<std::int64_t> ts{0, 10, 50, 100};
  const std::vector<std::int64_t> dur{5, 10, 5, 2};
  const std::vector<std::uint32_t> select{0, 1, 2};  // 100 not selected
  const std::vector<Interval> got = gather_intervals(ts, dur, select, 2, 52);
  EXPECT_EQ(got, (std::vector<Interval>{{2, 5}, {10, 20}, {50, 52}}));
  // Unclamped gather keeps everything with positive length.
  EXPECT_EQ(gather_intervals(ts, dur, select).size(), 3u);
}

TEST(IntervalMerge, MergeRunsUnionsLaneOrderedRuns) {
  // Two runs: intervals touching across runs merge, like within one.
  std::vector<Interval> lanes{{0, 10}, {20, 30}, {10, 15}, {40, 50}};
  const std::vector<std::size_t> two{2, 4};
  std::vector<Interval> out{{-5, -1}};  // stale content is cleared
  EXPECT_EQ(merge_runs(lanes, two, out), 35);
  EXPECT_EQ(out, (std::vector<Interval>{{0, 15}, {20, 30}, {40, 50}}));
  // A run out of order is sorted on its own.
  std::vector<Interval> unordered{{20, 30}, {0, 10}};
  const std::vector<std::size_t> one{2};
  EXPECT_EQ(merge_runs(unordered, one, out), 20);
  EXPECT_EQ(out, (std::vector<Interval>{{0, 10}, {20, 30}}));
  // No intervals, in no runs or in empty ones.
  std::vector<Interval> none;
  const std::vector<std::size_t> empty_runs{0, 0};
  EXPECT_EQ(merge_runs(none, {}, out), 0);
  EXPECT_EQ(merge_runs(none, empty_runs, out), 0);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Kernel equivalence. merge_intervals (sort, then sweep) is the spec; the
// run merge must agree with it bit-for-bit.
// ---------------------------------------------------------------------------

/// Lays `input` out as `runs` contiguous runs (some empty when there are
/// more runs than intervals), each sorted by begin when `sorted`, and
/// expects merge_runs to reproduce the reference union and length.
void expect_runs_agree(const std::vector<Interval>& input,
                       const std::vector<Interval>& reference,
                       std::int64_t reference_union, std::size_t runs,
                       bool sorted) {
  std::vector<Interval> laid = input;
  std::vector<std::size_t> ends;
  std::size_t begin = 0;
  for (std::size_t r = 1; r <= runs; ++r) {
    const std::size_t end = laid.size() * r / runs;
    if (sorted) {
      std::sort(laid.begin() + static_cast<std::ptrdiff_t>(begin),
                laid.begin() + static_cast<std::ptrdiff_t>(end));
    }
    ends.push_back(end);
    begin = end;
  }
  std::vector<Interval> merged;
  EXPECT_EQ(merge_runs(laid, ends, merged), reference_union)
      << runs << " runs, sorted=" << sorted;
  EXPECT_EQ(merged, reference) << runs << " runs, sorted=" << sorted;
}

/// Runs one input through merge_intervals and through merge_runs, which
/// sees it as 1, 3 and 40 runs (the last past its head limit), both sorted
/// per run and as laid out, expecting identical union lengths and merged
/// output.
void expect_kernels_agree(std::vector<Interval> input) {
  std::vector<Interval> reference = input;
  const std::int64_t reference_union = merge_intervals(reference);
  for (const std::size_t runs : {1u, 3u, 40u}) {
    expect_runs_agree(input, reference, reference_union, runs,
                      /*sorted=*/true);
    expect_runs_agree(input, reference, reference_union, runs,
                      /*sorted=*/false);
  }
}

TEST(IntervalMergeEquivalence, AdversarialShapes) {
  // Touching chains (every boundary merges).
  std::vector<Interval> touching;
  for (std::int64_t i = 0; i < 500; ++i) touching.push_back({i * 10, i * 10 + 10});
  expect_kernels_agree(touching);

  // Zero-duration intervals, alone and inside/at the edges of others.
  expect_kernels_agree({{5, 5}});
  expect_kernels_agree({{0, 10}, {5, 5}, {10, 10}, {3, 3}, {20, 20}});
  std::vector<Interval> degenerate_run;
  for (std::int64_t i = 0; i < 300; ++i) degenerate_run.push_back({7, 7});
  degenerate_run.push_back({0, 3});
  expect_kernels_agree(degenerate_run);

  // Equal begins with different ends (run order vs std::sort pair order).
  std::vector<Interval> ties;
  for (std::int64_t i = 0; i < 400; ++i) ties.push_back({100, 100 + (i * 37) % 91});
  expect_kernels_agree(ties);

  // INT64-boundary begins/ends (the sweep's arithmetic at both extremes).
  // Spans kept small enough that the union length itself cannot overflow.
  expect_kernels_agree({{INT64_MAX - 10, INT64_MAX},
                        {INT64_MAX - 7, INT64_MAX - 2},
                        {INT64_MIN, INT64_MIN + 5},
                        {INT64_MIN + 3, INT64_MIN + 9},
                        {-10, 10},
                        {0, 0}});
  std::vector<Interval> boundary;
  for (std::int64_t i = 0; i < 400; ++i) {
    boundary.push_back({INT64_MIN + i * 3, INT64_MIN + i * 3 + 2});
    boundary.push_back({INT64_MAX - i * 5 - 4, INT64_MAX - i * 5});
  }
  expect_kernels_agree(boundary);
}

TEST(IntervalMergeEquivalence, RandomizedSizes) {
  std::mt19937_64 rng(20260726);
  // Odd and even counts, from one interval to thousands.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 127u, 128u, 129u, 1000u,
                              4097u}) {
    std::vector<Interval> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = static_cast<std::int64_t>(rng() % 1'000'000) - 500'000;
      const auto len = static_cast<std::int64_t>(rng() % 2'000);
      v.push_back({b, b + len});
    }
    expect_kernels_agree(std::move(v));
  }
}

// ---------------------------------------------------------------------------
// Breakdown
// ---------------------------------------------------------------------------

TEST(Breakdown, PureComputeIsExposedCompute) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 100, 7));
  Breakdown b = compute_breakdown(r);
  EXPECT_EQ(b.exposed_compute_ns, 100);
  EXPECT_EQ(b.overlapped_ns, 0);
  EXPECT_EQ(b.exposed_comm_ns, 0);
  EXPECT_EQ(b.other_ns, 0);
}

TEST(Breakdown, DisjointComputeAndCommWithIdle) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 100, 7));
  r.events.push_back(kernel(150, 50, 13, /*comm=*/true));
  Breakdown b = compute_breakdown(r);
  EXPECT_EQ(b.exposed_compute_ns, 100);
  EXPECT_EQ(b.exposed_comm_ns, 50);
  EXPECT_EQ(b.overlapped_ns, 0);
  EXPECT_EQ(b.other_ns, 50);  // [100,150) idle
  EXPECT_EQ(b.total_ns(), 200);
}

TEST(Breakdown, PartialOverlapSplitsCorrectly) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 100, 7));             // compute [0,100)
  r.events.push_back(kernel(60, 80, 13, /*comm=*/true));  // comm [60,140)
  Breakdown b = compute_breakdown(r);
  EXPECT_EQ(b.overlapped_ns, 40);       // [60,100)
  EXPECT_EQ(b.exposed_compute_ns, 60);  // [0,60)
  EXPECT_EQ(b.exposed_comm_ns, 40);     // [100,140)
  EXPECT_EQ(b.other_ns, 0);
}

TEST(Breakdown, MultipleStreamsMergeBeforeClassification) {
  trace::RankTrace r;
  // Two compute streams overlapping each other: must not double count.
  r.events.push_back(kernel(0, 100, 7));
  r.events.push_back(kernel(50, 100, 8));
  Breakdown b = compute_breakdown(r);
  EXPECT_EQ(b.exposed_compute_ns, 150);
  EXPECT_EQ(b.total_ns(), 150);
}

TEST(Breakdown, ExplicitWindowClipsEvents) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 100, 7));
  Breakdown b = compute_breakdown(r, 50, 200);
  EXPECT_EQ(b.exposed_compute_ns, 50);  // only [50,100)
  EXPECT_EQ(b.other_ns, 100);           // [100,200)
}

TEST(Breakdown, CpuEventsAreIgnored) {
  trace::RankTrace r;
  r.events.push_back(cpu(0, 1'000));
  r.events.push_back(kernel(0, 100, 7));
  Breakdown b = compute_breakdown(r);
  EXPECT_EQ(b.exposed_compute_ns, 100);
  EXPECT_EQ(b.other_ns, 900);  // CPU-only time is idle from the GPU's view
}

TEST(Breakdown, ArithmeticHelpers) {
  Breakdown a{10, 20, 30, 40};
  Breakdown b{1, 2, 3, 4};
  a += b;
  EXPECT_EQ(a.exposed_compute_ns, 11);
  EXPECT_EQ(a.total_ns(), 110);
  Breakdown half = a / 2;
  EXPECT_EQ(half.overlapped_ns, 11);
  EXPECT_FALSE(a.to_string().empty());
}

TEST(Breakdown, ClusterAverageUsesGlobalWindow) {
  trace::ClusterTrace t;
  t.ranks.resize(2);
  t.ranks[0].rank = 0;
  t.ranks[0].events.push_back(kernel(0, 100, 7));
  t.ranks[1].rank = 1;
  t.ranks[1].events.push_back(kernel(100, 100, 7));
  Breakdown b = compute_breakdown(t);
  // Each rank: 100 busy + 100 idle within the [0,200) window -> average.
  EXPECT_EQ(b.exposed_compute_ns, 100);
  EXPECT_EQ(b.other_ns, 100);
}

// ---------------------------------------------------------------------------
// Schedule-based breakdown: equal, field by field, to the trace-based
// breakdown of the materialized schedule (the contract breakdown.h states)
// ---------------------------------------------------------------------------

void expect_same_breakdown(const Breakdown& got, const Breakdown& want) {
  EXPECT_EQ(got.exposed_compute_ns, want.exposed_compute_ns);
  EXPECT_EQ(got.overlapped_ns, want.overlapped_ns);
  EXPECT_EQ(got.exposed_comm_ns, want.exposed_comm_ns);
  EXPECT_EQ(got.other_ns, want.other_ns);
}

void expect_exact_breakdown(const core::ExecutionGraph& graph,
                            const core::SimResult& sim) {
  expect_same_breakdown(compute_breakdown(graph, sim),
                        compute_breakdown(sim.to_trace(graph)));
}

/// Checks the schedules of both engines: the coupled interpreter and the
/// compiled program.
void expect_exact_breakdown_on_both_engines(
    const core::ExecutionGraph& graph) {
  core::SimOptions options;
  options.couple_collectives = true;
  const core::SimResult interpreted = core::Simulator(graph, options).run();
  ASSERT_TRUE(interpreted.complete());
  expect_exact_breakdown(graph, interpreted);
  const core::ReplayCompiler::Result compiled =
      core::ReplayCompiler::compile(graph);
  ASSERT_TRUE(compiled) << core::to_string(compiled.status);
  expect_exact_breakdown(graph, compiled.program->run());
}

TEST(ExactBreakdown, RandomGraphsOnBothEngines) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    testutil::RandomGraph random(seed);
    expect_exact_breakdown_on_both_engines(random.graph());
  }
}

TEST(ExactBreakdown, Seed123ParsedGraphOnBothEngines) {
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const core::ExecutionGraph graph =
      core::TraceParser().parse(engine.run_profiled(/*seed=*/123).trace);
  expect_exact_breakdown_on_both_engines(graph);
}

TEST(ExactBreakdown, RebuiltGraphsOnBothEngines) {
  // The GPT-3 15B 2x2x4 baseline rebuilt to 2x4x8 (~73k tasks) and
  // 2x16x32 (~311k tasks), as the perf benches rebuild it.
  const auto config = [](std::int32_t pp, std::int32_t dp) {
    workload::ParallelConfig c;
    c.tp = 2;
    c.pp = pp;
    c.dp = dp;
    return c;
  };
  const workload::ModelSpec model = workload::ModelSpec::gpt3_15b();
  cluster::GroundTruthEngine engine(model, config(2, 4));
  const core::ExecutionGraph baseline =
      core::TraceParser().parse(engine.run_profiled(/*seed=*/7).trace);
  const cost::KernelPerfModel kernel_model;
  const core::GraphManipulator manipulator(baseline, model, config(2, 4),
                                           kernel_model);
  for (const auto& [pp, dp] : {std::pair{4, 8}, std::pair{16, 32}}) {
    SCOPED_TRACE(testing::Message() << "2x" << pp << "x" << dp);
    expect_exact_breakdown_on_both_engines(
        manipulator.with_spec(model, config(pp, dp)).graph);
  }
}

core::TaskId add_kernel(testutil::GraphAuthor& author, bool gpu_lane,
                        std::int64_t lane, std::int64_t ts,
                        std::int64_t dur, bool comm = false) {
  core::Task t;
  t.processor = {0, gpu_lane, lane};
  t.event = kernel(ts, dur, lane, comm);
  return author.add(t);
}

TEST(ExactBreakdown, InterpreterLaneOutOfLaunchOrder) {
  // Kernel `late` is launched first on stream 7 but waits on a 100 ns CPU
  // op; `early`, launched second with no dependency, runs first. Without a
  // chain edge the interpreter runs the lane out of launch order.
  testutil::GraphAuthor author;
  core::Task op;
  op.processor = {0, false, 1};
  op.event = cpu(0, 100);
  const core::TaskId gate = author.add(op);
  const core::TaskId late = add_kernel(author, true, 7, 1, 30);
  const core::TaskId early = add_kernel(author, true, 7, 2, 40);
  add_kernel(author, true, 13, 3, 120, /*comm=*/true);
  author.graph.add_edge(gate, late, core::DepType::CpuToGpu);

  const core::SimResult sim = core::Simulator(author.graph).run();
  ASSERT_TRUE(sim.complete());
  ASSERT_LT(sim.start_ns[static_cast<std::size_t>(early)],
            sim.start_ns[static_cast<std::size_t>(late)]);
  expect_exact_breakdown(author.graph, sim);
  // compute [0,40) u [100,130), comm [0,120), span 130.
  const Breakdown b = compute_breakdown(author.graph, sim);
  EXPECT_EQ(b.overlapped_ns, 60);
  EXPECT_EQ(b.exposed_compute_ns, 10);
  EXPECT_EQ(b.exposed_comm_ns, 60);
  EXPECT_EQ(b.other_ns, 0);
}

TEST(ExactBreakdown, KernelOnACpuLaneCounts) {
  // Only a hand-built graph puts device activity off the GPU lanes; it
  // still counts, as it does in the materialized trace.
  testutil::GraphAuthor author;
  add_kernel(author, /*gpu_lane=*/false, 1, 0, 100);
  add_kernel(author, /*gpu_lane=*/true, 7, 1, 50, /*comm=*/true);
  const core::SimResult sim = core::Simulator(author.graph).run();
  ASSERT_TRUE(sim.complete());
  expect_exact_breakdown(author.graph, sim);
  const Breakdown b = compute_breakdown(author.graph, sim);
  EXPECT_EQ(b.exposed_compute_ns, 50);
  EXPECT_EQ(b.overlapped_ns, 50);
  EXPECT_EQ(b.exposed_comm_ns, 0);
}

// ---------------------------------------------------------------------------
// SM utilization
// ---------------------------------------------------------------------------

TEST(SmUtilization, FullyBusyBucketIsOne) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 2'000'000, 7));
  auto u = sm_utilization(r, 1'000'000);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 1.0);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
}

TEST(SmUtilization, HalfBusyBucket) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 500'000, 7));
  r.events.push_back(kernel(1'000'000, 1, 7));  // extend span to 2 buckets
  auto u = sm_utilization(r, 1'000'000, 0, 2'000'000);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_NEAR(u[0], 0.5, 1e-9);
  EXPECT_NEAR(u[1], 1e-6, 1e-7);
}

TEST(SmUtilization, OverlappingStreamsCountOnce) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 1'000'000, 7));
  r.events.push_back(kernel(0, 1'000'000, 13, true));
  auto u = sm_utilization(r, 1'000'000);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 1.0);
}

TEST(SmUtilization, PartialLastBucketNormalizedByWidth) {
  trace::RankTrace r;
  r.events.push_back(kernel(0, 1'500'000, 7));
  auto u = sm_utilization(r, 1'000'000, 0, 1'500'000);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[1], 1.0);  // 0.5ms busy / 0.5ms width
}

TEST(SmUtilization, EmptyTraceYieldsEmptyTimeline) {
  trace::RankTrace r;
  EXPECT_TRUE(sm_utilization(r).empty());
}

TEST(SmUtilization, TimelineMetrics) {
  std::vector<double> a{1.0, 0.5, 0.0};
  std::vector<double> b{0.5, 0.5, 0.5};
  EXPECT_NEAR(timeline_mae(a, b), (0.5 + 0.0 + 0.5) / 3.0, 1e-12);
  EXPECT_NEAR(timeline_rmse(a, b), std::sqrt(0.5 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(timeline_mae({}, {}), 0.0);
  // Length mismatch: shorter is zero-padded.
  EXPECT_NEAR(timeline_mae({1.0}, {1.0, 1.0}), 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, PercentError) {
  EXPECT_DOUBLE_EQ(percent_error(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(90, 100), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(signed_percent_error(90, 100), -10.0);
  EXPECT_DOUBLE_EQ(signed_percent_error(110, 100), 10.0);
}

TEST(Metrics, MeanAndMax) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(max_value({1, 5, 3}), 5.0);
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

TEST(CriticalPath, FollowsBindingChain) {
  testutil::GraphAuthor author;
  core::ExecutionGraph& g = author.graph;
  auto add = [&](bool gpu, std::int64_t lane, std::int64_t dur,
                 bool comm = false) {
    core::Task t;
    t.processor = {0, gpu, lane};
    t.event.cat = gpu ? trace::EventCategory::Kernel
                      : trace::EventCategory::CpuOp;
    t.event.name = comm ? "nccl" : "w";
    t.event.dur_ns = dur;
    if (comm) t.event.collective.op = "allreduce";
    return author.add(t);
  };
  core::TaskId a = add(false, 1, 10);
  core::TaskId b = add(true, 7, 100);
  core::TaskId c = add(true, 13, 50, /*comm=*/true);
  g.add_edge(a, b, core::DepType::CpuToGpu);
  g.add_edge(b, c, core::DepType::InterStream);
  core::SimResult r = core::Simulator(g).run();
  CriticalPathSummary s = critical_path(g, r);
  ASSERT_EQ(s.path.size(), 3u);
  EXPECT_EQ(s.cpu_ns, 10);
  EXPECT_EQ(s.compute_kernel_ns, 100);
  EXPECT_EQ(s.comm_kernel_ns, 50);
  EXPECT_EQ(s.idle_ns, 0);
  EXPECT_EQ(s.total_ns(), r.makespan_ns);
  EXPECT_FALSE(to_string(s).empty());
}

TEST(CriticalPath, EmptyGraph) {
  core::ExecutionGraph g;
  core::SimResult r = core::Simulator(g).run();
  CriticalPathSummary s = critical_path(g, r);
  EXPECT_TRUE(s.path.empty());
}

TEST(CriticalPath, ProcessorSerializationOnPath) {
  testutil::GraphAuthor author;
  core::ExecutionGraph& g = author.graph;
  // Two tasks on one stream, no edges: path must go through both via
  // processor order.
  for (int i = 0; i < 2; ++i) {
    core::Task t;
    t.processor = {0, true, 7};
    t.event.cat = trace::EventCategory::Kernel;
    t.event.dur_ns = 100;
    t.event.ts_ns = i;
    author.add(t);
  }
  core::SimResult r = core::Simulator(g).run();
  CriticalPathSummary s = critical_path(g, r);
  EXPECT_EQ(s.path.size(), 2u);
  EXPECT_EQ(s.compute_kernel_ns, 200);
}

}  // namespace
}  // namespace lumos::analysis
