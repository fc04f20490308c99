// Tests for the extension modules: memory model, interleaved schedules,
// trace diffing, and operator-fusion what-if.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/timeline.h"
#include "analysis/trace_diff.h"
#include "cluster/ground_truth.h"
#include "core/fusion.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "test_util.h"
#include "workload/memory_model.h"
#include "workload/schedule.h"

namespace lumos {
namespace {

using testutil::tiny_config;
using testutil::tiny_model;

// ---------------------------------------------------------------------------
// Memory model
// ---------------------------------------------------------------------------

TEST(MemoryModel, Gpt3_175bFitsItsPaperConfiguration) {
  // 175B on TP8/PP4 was trained on the paper's cluster, so it must fit.
  workload::MemoryModel model;
  workload::ParallelConfig config;
  config.tp = 8;
  config.pp = 4;
  config.dp = 8;
  EXPECT_TRUE(model.fits(workload::ModelSpec::gpt3_175b(), config));
}

TEST(MemoryModel, Gpt3_175bDoesNotFitOneGpu) {
  workload::MemoryModel model;
  workload::ParallelConfig config;  // 1x1x1
  EXPECT_FALSE(model.fits(workload::ModelSpec::gpt3_175b(), config));
}

TEST(MemoryModel, WeightsAndOptimizerScaleWithParams) {
  workload::MemoryModelOptions opts;
  opts.distributed_optimizer = false;
  workload::MemoryModel model(opts);
  workload::ParallelConfig config;
  config.tp = 2;
  config.pp = 2;
  const auto e =
      model.estimate(workload::ModelSpec::gpt3_15b(), config, /*stage=*/1);
  const std::int64_t params =
      workload::ModelSpec::gpt3_15b().params_per_rank(2, 2, 1);
  EXPECT_EQ(e.weights_bytes, params * 2);
  EXPECT_EQ(e.gradients_bytes, params * 2);
  EXPECT_EQ(e.optimizer_bytes, params * 12);
}

TEST(MemoryModel, DistributedOptimizerShardsState) {
  workload::MemoryModelOptions sharded;  // default: on
  workload::MemoryModelOptions plain;
  plain.distributed_optimizer = false;
  workload::ParallelConfig config;
  config.tp = 8;
  config.pp = 4;
  config.dp = 8;
  const auto with = workload::MemoryModel(sharded).worst_case(
      workload::ModelSpec::gpt3_175b(), config);
  const auto without = workload::MemoryModel(plain).worst_case(
      workload::ModelSpec::gpt3_175b(), config);
  EXPECT_EQ(without.optimizer_bytes / with.optimizer_bytes, 8);
  // Without ZeRO-1, 175B at TP8/PP4 genuinely does not fit 80 GB.
  EXPECT_FALSE(workload::MemoryModel(plain).fits(
      workload::ModelSpec::gpt3_175b(), config));
}

TEST(MemoryModel, OneFOneBHoldsFewerActivationsThanGPipe) {
  workload::MemoryModelOptions f1b1;
  workload::MemoryModelOptions gpipe;
  gpipe.policy = workload::SchedulePolicy::GPipe;
  workload::MemoryModel a(f1b1), b(gpipe);
  workload::ParallelConfig config;
  config.tp = 2;
  config.pp = 4;
  config.num_microbatches = 16;
  const auto ma = a.estimate(workload::ModelSpec::gpt3_15b(), config, 0);
  const auto mb = b.estimate(workload::ModelSpec::gpt3_15b(), config, 0);
  EXPECT_LT(ma.activation_bytes, mb.activation_bytes);
  // 1F1B stage 0 holds p in-flight; GPipe holds all m.
  EXPECT_EQ(mb.activation_bytes / ma.activation_bytes, 16 / 4);
}

TEST(MemoryModel, EarlierStagesHoldMoreActivations) {
  workload::MemoryModel model;
  workload::ParallelConfig config;
  config.tp = 2;
  config.pp = 4;
  config.num_microbatches = 8;
  EXPECT_GT(model.peak_inflight_microbatches(config, 0),
            model.peak_inflight_microbatches(config, 3));
}

TEST(MemoryModel, RecomputationShrinksActivations) {
  workload::MemoryModelOptions recompute;
  recompute.activation_recomputation = true;
  workload::MemoryModel with(recompute), without;
  workload::ParallelConfig config;
  config.tp = 2;
  config.pp = 2;
  EXPECT_LT(
      with.activation_bytes_per_layer(workload::ModelSpec::gpt3_15b(), config),
      without.activation_bytes_per_layer(workload::ModelSpec::gpt3_15b(),
                                         config) /
          5);
}

TEST(MemoryModel, TensorParallelismShardsActivations) {
  workload::MemoryModel model;
  workload::ParallelConfig tp2;
  tp2.tp = 2;
  workload::ParallelConfig tp8;
  tp8.tp = 8;
  const auto m = workload::ModelSpec::gpt3_15b();
  EXPECT_GT(model.activation_bytes_per_layer(m, tp2),
            model.activation_bytes_per_layer(m, tp8));
}

TEST(MemoryModel, ReportIsReadable) {
  workload::MemoryModel model;
  workload::ParallelConfig config;
  config.tp = 8;
  config.pp = 4;
  auto e = model.worst_case(workload::ModelSpec::gpt3_175b(), config);
  EXPECT_NE(e.to_string().find("GiB"), std::string::npos);
  EXPECT_GT(e.total_gib(), 10.0);
}

// ---------------------------------------------------------------------------
// Interleaved schedule
// ---------------------------------------------------------------------------

TEST(InterleavedSchedule, DegeneratesToOneChunk) {
  auto s = workload::interleaved_schedule(0, 2, 4, 1);
  ASSERT_EQ(s.size(), 8u);
  for (const auto& a : s) EXPECT_EQ(a.chunk, 0);
}

TEST(InterleavedSchedule, RejectsBadArguments) {
  EXPECT_THROW(workload::interleaved_schedule(0, 4, 6, 2),
               std::invalid_argument);  // m % p != 0
  EXPECT_THROW(workload::interleaved_schedule(4, 4, 8, 2),
               std::invalid_argument);
  EXPECT_THROW(workload::interleaved_schedule(0, 4, 8, 0),
               std::invalid_argument);
}

class InterleavedProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(InterleavedProperties, EachMicrobatchChunkPairOnce) {
  auto [stages, microbatches, chunks] = GetParam();
  for (std::int32_t stage = 0; stage < stages; ++stage) {
    auto s = workload::interleaved_schedule(stage, stages, microbatches,
                                            chunks);
    ASSERT_EQ(s.size(), static_cast<std::size_t>(2 * microbatches * chunks));
    std::set<std::pair<int, int>> fwd, bwd;
    for (const auto& a : s) {
      EXPECT_GE(a.microbatch, 0);
      EXPECT_LT(a.microbatch, microbatches);
      EXPECT_GE(a.chunk, 0);
      EXPECT_LT(a.chunk, chunks);
      auto key = std::make_pair(a.microbatch, a.chunk);
      if (a.kind == workload::PassKind::Forward) {
        EXPECT_TRUE(fwd.insert(key).second);
      } else {
        // Backward of (m, c) requires its forward already ran.
        EXPECT_TRUE(fwd.count(key));
        EXPECT_TRUE(bwd.insert(key).second);
      }
    }
    EXPECT_EQ(fwd.size(), static_cast<std::size_t>(microbatches * chunks));
    EXPECT_EQ(bwd.size(), static_cast<std::size_t>(microbatches * chunks));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InterleavedProperties,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 4)));

TEST(InterleavedSchedule, BubbleShrinksWithChunks) {
  EXPECT_LT(workload::interleaved_bubble_fraction(4, 8, 2),
            workload::ideal_bubble_fraction(4, 8));
  EXPECT_LT(workload::interleaved_bubble_fraction(4, 8, 4),
            workload::interleaved_bubble_fraction(4, 8, 2));
}

TEST(InterleavedSchedule, ToStringFormat) {
  auto s = workload::interleaved_schedule(0, 2, 2, 1);
  EXPECT_FALSE(workload::to_string(s).empty());
  EXPECT_NE(workload::to_string(s).find("F0.0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace diff
// ---------------------------------------------------------------------------

trace::TraceEvent diff_kernel(const char* name, std::int64_t dur) {
  trace::TraceEvent e;
  e.name = name;
  e.cat = trace::EventCategory::Kernel;
  e.dur_ns = dur;
  e.tid = 7;
  e.stream = 7;
  return e;
}

TEST(TraceDiff, AggregateByName) {
  trace::RankTrace t;
  t.events.push_back(diff_kernel("gemm", 100));
  t.events.push_back(diff_kernel("gemm", 200));
  t.events.push_back(diff_kernel("ln", 50));
  auto stats = analysis::aggregate_by_name(t);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "gemm");  // sorted by total desc
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[0].total_ns, 300);
  EXPECT_EQ(stats[0].mean_ns(), 150);
}

TEST(TraceDiff, RanksByAbsoluteDelta) {
  trace::RankTrace before, after;
  before.events.push_back(diff_kernel("gemm", 1000));
  before.events.push_back(diff_kernel("ln", 100));
  after.events.push_back(diff_kernel("gemm", 1500));  // +500
  after.events.push_back(diff_kernel("ln", 90));      // -10
  after.events.push_back(diff_kernel("new_kernel", 50));
  auto diff = analysis::diff_traces(before, after);
  ASSERT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff[0].name, "gemm");
  EXPECT_EQ(diff[0].delta_total_ns(), 500);
  EXPECT_NEAR(diff[0].mean_ratio(), 1.5, 1e-9);
  // Appearing kernel: before side absent.
  bool found_new = false;
  for (const auto& d : diff) {
    if (d.name == "new_kernel") {
      EXPECT_EQ(d.before.count, 0u);
      EXPECT_EQ(d.after.total_ns, 50);
      found_new = true;
    }
  }
  EXPECT_TRUE(found_new);
  EXPECT_FALSE(analysis::to_string(diff).empty());
}

TEST(TraceDiff, TopKLimits) {
  trace::RankTrace before, after;
  for (int i = 0; i < 30; ++i) {
    before.events.push_back(diff_kernel(("k" + std::to_string(i)).c_str(),
                                        100));
    after.events.push_back(diff_kernel(("k" + std::to_string(i)).c_str(),
                                       100 + i));
  }
  auto diff = analysis::diff_traces(before, after, {.top_k = 5});
  EXPECT_EQ(diff.size(), 5u);
  EXPECT_EQ(diff[0].delta_total_ns(), 29);
}

TEST(TraceDiff, GpuOnlyFiltersCpuEvents) {
  trace::RankTrace before, after;
  trace::TraceEvent cpu;
  cpu.name = "aten::op";
  cpu.cat = trace::EventCategory::CpuOp;
  cpu.dur_ns = 1'000'000;
  before.events.push_back(cpu);
  after.events.push_back(cpu);
  EXPECT_TRUE(analysis::diff_traces(before, after).empty());
  auto with_cpu =
      analysis::diff_traces(before, after, {.gpu_only = false});
  EXPECT_EQ(with_cpu.size(), 1u);
}

// ---------------------------------------------------------------------------
// Operator fusion
// ---------------------------------------------------------------------------

TEST(Fusion, FusesAdjacentElementwiseRuns) {
  // Runs stay inside one block instance, so the fused graph stays acyclic
  // (fusing across blocks put cycles into every one of these configs).
  for (const auto& [tp, pp, dp] : {std::tuple{1, 1, 1}, std::tuple{2, 1, 2},
                                   std::tuple{2, 2, 2}}) {
    SCOPED_TRACE(std::to_string(tp) + "x" + std::to_string(pp) + "x" +
                 std::to_string(dp));
    cluster::GroundTruthEngine engine(tiny_model(), tiny_config(tp, pp, dp));
    auto run = engine.run_profiled(5);
    core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
    core::FusionResult fused = core::fuse_elementwise(graph);
    EXPECT_GT(fused.fused_groups, 0u);
    EXPECT_GT(fused.kernels_eliminated, 0u);
    EXPECT_EQ(fused.graph.size(), graph.size() - fused.kernels_eliminated);
    core::TaskId hint = core::kInvalidTask;
    EXPECT_TRUE(fused.graph.is_acyclic(&hint)) << "cycle at " << hint;
  }
}

TEST(Fusion, FusedReplayIsFasterButBounded) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
  auto run = engine.run_profiled(5);
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  const std::int64_t base = core::replay(graph).makespan_ns;
  core::FusionResult fused = core::fuse_elementwise(graph);
  core::SimResult r = core::replay(fused.graph);
  ASSERT_TRUE(r.complete());
  EXPECT_LE(r.makespan_ns, base);
  // Fusion saves launch overheads only; it cannot halve the iteration.
  EXPECT_GT(r.makespan_ns, base / 2);
}

TEST(Fusion, NeverFusesGemmOrCollectives) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
  auto run = engine.run_profiled(5);
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::FusionResult fused = core::fuse_elementwise(graph);
  std::size_t gemms_before = 0, gemms_after = 0, comms_before = 0,
              comms_after = 0;
  for (const core::Task& t : graph.tasks()) {
    gemms_before += t.event.gemm.valid();
    comms_before += t.is_collective_kernel();
  }
  for (const core::Task& t : fused.graph.tasks()) {
    gemms_after += t.event.gemm.valid();
    comms_after += t.is_collective_kernel();
  }
  EXPECT_EQ(gemms_before, gemms_after);
  EXPECT_EQ(comms_before, comms_after);
}

TEST(Fusion, MaxRunLengthCapsGroups) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 1, 2));
  auto run = engine.run_profiled(5);
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::FusionOptions opts;
  opts.max_run_length = 1;  // nothing may merge
  core::FusionResult fused = core::fuse_elementwise(graph, opts);
  EXPECT_EQ(fused.kernels_eliminated, 0u);
  EXPECT_EQ(fused.graph.size(), graph.size());
}

TEST(Fusion, SavedTimeMatchesAccounting) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 1, 2));
  auto run = engine.run_profiled(5);
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::FusionResult fused = core::fuse_elementwise(graph);
  auto total_duration_ns = [](const core::ExecutionGraph& g) {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      total += g.meta().duration_ns(static_cast<core::TaskId>(i));
    }
    return total;
  };
  EXPECT_EQ(fused.saved_ns,
            total_duration_ns(graph) - total_duration_ns(fused.graph));
}


// ---------------------------------------------------------------------------
// ASCII timeline
// ---------------------------------------------------------------------------

TEST(Timeline, RendersLanesAndAxis) {
  trace::RankTrace r;
  r.events.push_back(diff_kernel("gemm", 1'000'000));
  trace::TraceEvent comm = diff_kernel("nccl", 500'000);
  comm.tid = 13;
  comm.stream = 13;
  comm.ts_ns = 500'000;
  comm.collective.op = "allreduce";
  comm.collective.group = "tp";
  r.events.push_back(comm);
  const std::string art =
      analysis::render_timeline(r, {.width = 20});
  EXPECT_NE(art.find("stream 7"), std::string::npos);
  EXPECT_NE(art.find("stream 13"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);   // busy compute
  EXPECT_NE(art.find('C'), std::string::npos);   // busy comm lane
  EXPECT_NE(art.find("0 ms"), std::string::npos);
}

TEST(Timeline, EmptyTrace) {
  trace::RankTrace r;
  EXPECT_EQ(analysis::render_timeline(r), "(empty trace)\n");
}

TEST(Timeline, CpuLanesOptional) {
  trace::RankTrace r;
  trace::TraceEvent cpu;
  cpu.name = "op";
  cpu.cat = trace::EventCategory::CpuOp;
  cpu.dur_ns = 1000;
  cpu.tid = 100;
  r.events.push_back(cpu);
  r.events.push_back(diff_kernel("gemm", 1000));
  EXPECT_NE(analysis::render_timeline(r).find("thread 100"),
            std::string::npos);
  EXPECT_EQ(analysis::render_timeline(r, {.include_cpu = false})
                .find("thread"),
            std::string::npos);
}

TEST(Timeline, RealWorkloadRenders) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
  auto run = engine.run_profiled(3);
  const std::string art =
      analysis::render_timeline(run.trace.ranks[0], {.width = 80});
  EXPECT_GT(std::count(art.begin(), art.end(), '\n'), 5);  // several lanes
}

}  // namespace
}  // namespace lumos
