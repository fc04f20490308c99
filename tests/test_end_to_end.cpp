// End-to-end integration tests: ground truth -> Kineto trace -> parse ->
// replay, plus baseline and prediction flows on a tiny model.
#include <gtest/gtest.h>

#include "analysis/breakdown.h"
#include "analysis/metrics.h"
#include "baseline/dpro.h"
#include "cluster/ground_truth.h"
#include "core/graph_manipulator.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "test_util.h"
#include "trace/validate.h"

namespace lumos {
namespace {

using testutil::tiny_config;
using testutil::tiny_model;

/// The coupled multi-rank prediction a manipulated job runs.
core::SimResult predict(const workload::BuiltJob& job) {
  core::SimOptions options;
  options.couple_collectives = true;
  return core::Simulator(job.graph, options).run();
}

cluster::GroundTruthRun run_tiny(std::int32_t tp = 2, std::int32_t pp = 2,
                                 std::int32_t dp = 2,
                                 std::uint64_t seed = 7) {
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(tp, pp, dp));
  return engine.run_profiled(seed);
}

TEST(EndToEnd, GroundTruthCompletesAndEmitsValidTrace) {
  cluster::GroundTruthRun run = run_tiny();
  EXPECT_TRUE(run.result.complete());
  EXPECT_GT(run.iteration_ns, 0);
  EXPECT_EQ(run.trace.ranks.size(), 4u);  // tp*pp = 4 explicit ranks
  const auto violations = trace::validate(run.trace);
  for (const auto& v : violations) ADD_FAILURE() << v.message;
}

TEST(EndToEnd, ReplayReproducesProfiledIterationClosely) {
  cluster::GroundTruthRun run = run_tiny();
  core::TraceParser parser;
  core::ExecutionGraph graph = parser.parse(run.trace);
  core::Simulator sim(graph);
  core::SimResult replay = sim.run();
  EXPECT_TRUE(replay.complete());
  const double err = analysis::percent_error(
      static_cast<double>(replay.makespan_ns),
      static_cast<double>(run.iteration_ns));
  EXPECT_LT(err, 3.0) << "replay " << replay.makespan_ns << " vs profiled "
                      << run.iteration_ns;
}

TEST(EndToEnd, ReplayMatchesActualWithinPaperBands) {
  // Profile with seed A (+ profiling overhead), measure with seed B: the
  // replay of the profiled trace must track the actual run within the
  // paper's error band (avg 3.3%, mostly under 5%).
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config());
  auto profiled = engine.run_profiled(1);
  auto actual = engine.run_actual(2);
  core::TraceParser parser;
  core::ExecutionGraph graph = parser.parse(profiled.trace);
  core::SimResult replay = core::Simulator(graph).run();
  ASSERT_TRUE(replay.complete());
  const double err = analysis::percent_error(
      static_cast<double>(replay.makespan_ns),
      static_cast<double>(actual.iteration_ns));
  EXPECT_LT(err, 8.0);
}

TEST(EndToEnd, DproUnderestimatesIterationTime) {
  cluster::GroundTruthRun run = run_tiny();
  core::TraceParser parser;
  core::ExecutionGraph graph = parser.parse(run.trace);
  core::SimResult lumos_replay = core::Simulator(graph).run();
  core::SimResult dpro_replay = baseline::replay_dpro(graph);
  ASSERT_TRUE(dpro_replay.complete());
  // Without inter-stream dependencies, overlap is overestimated and the
  // iteration time underestimated (paper §4.2.2).
  EXPECT_LT(dpro_replay.makespan_ns, lumos_replay.makespan_ns);
}

TEST(EndToEnd, BreakdownComponentsSumToIteration) {
  cluster::GroundTruthRun run = run_tiny();
  analysis::Breakdown b = analysis::compute_breakdown(run.trace);
  EXPECT_NEAR(static_cast<double>(b.total_ns()),
              static_cast<double>(run.trace.iteration_ns()),
              static_cast<double>(run.trace.iteration_ns()) * 0.01);
  EXPECT_GT(b.exposed_compute_ns, 0);
  EXPECT_GT(b.exposed_comm_ns, 0);
  EXPECT_GE(b.overlapped_ns, 0);
  EXPECT_GE(b.other_ns, 0);
}

TEST(EndToEnd, PredictionDpScalingCompletes) {
  cluster::GroundTruthRun base = run_tiny(2, 2, 2);
  core::TraceParser parser;
  core::ExecutionGraph graph = parser.parse(base.trace);
  cost::KernelPerfModel km;
  core::GraphManipulator manip(graph, tiny_model(), tiny_config(2, 2, 2), km);
  workload::BuiltJob predicted =
      manip.with_spec(tiny_model(), tiny_config(2, 2, 8));
  core::SimResult result = predict(predicted);
  EXPECT_TRUE(result.complete());
  EXPECT_GT(result.makespan_ns, 0);
}

TEST(EndToEnd, PredictionPpScalingTracksActual) {
  cluster::GroundTruthRun base = run_tiny(2, 2, 2);
  core::TraceParser parser;
  core::ExecutionGraph graph = parser.parse(base.trace);
  cost::KernelPerfModel km;
  core::GraphManipulator manip(graph, tiny_model(), tiny_config(2, 2, 2), km);

  workload::BuiltJob predicted =
      manip.with_spec(tiny_model(), tiny_config(2, 4, 2));
  core::SimResult result = predict(predicted);
  ASSERT_TRUE(result.complete());

  cluster::GroundTruthEngine target(tiny_model(), tiny_config(2, 4, 2));
  auto actual = target.run_actual(11);
  const double err = analysis::percent_error(
      static_cast<double>(result.makespan_ns),
      static_cast<double>(actual.iteration_ns));
  EXPECT_LT(err, 15.0) << "predicted " << result.makespan_ns << " vs actual "
                       << actual.iteration_ns;
}

}  // namespace
}  // namespace lumos
