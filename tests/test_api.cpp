// lumos::api facade tests: Scenario round-trip, Session lazy caching,
// Status/Result semantics, and reachability of every structured error code
// through public API calls only.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "api/api.h"
#include "test_util.h"
#include "trace/chrome_trace.h"

namespace lumos::api {
namespace {

using testutil::tiny_model;

// A fast synthetic scenario: GPT-tiny on one GPU.
Scenario tiny_scenario() {
  return Scenario::synthetic()
      .with_model("tiny")
      .with_parallelism("1x1x1")
      .with_seed(3)
      .with_actual_seed(4);
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

TEST(Scenario, ModelRoundTripByName) {
  Scenario s = Scenario::synthetic().with_model("44b");
  Result<workload::ModelSpec> model = s.resolved_model();
  ASSERT_TRUE(model.is_ok());
  EXPECT_EQ(*model, workload::ModelSpec::gpt3_44b());
}

TEST(Scenario, ModelRoundTripBySpec) {
  Scenario s = Scenario::synthetic().with_model(tiny_model());
  Result<workload::ModelSpec> model = s.resolved_model();
  ASSERT_TRUE(model.is_ok());
  EXPECT_EQ(*model, tiny_model());
}

TEST(Scenario, ParallelismRoundTripByLabel) {
  Scenario s =
      Scenario::synthetic().with_parallelism("2x4x8").with_microbatches(12);
  Result<workload::ParallelConfig> config = s.resolved_parallelism();
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config->tp, 2);
  EXPECT_EQ(config->pp, 4);
  EXPECT_EQ(config->dp, 8);
  EXPECT_EQ(config->num_microbatches, 12);
  EXPECT_EQ(config->label(), "2x4x8");
}

TEST(Scenario, FluentSettersAccumulate) {
  Scenario s = Scenario::synthetic()
                   .with_seed(7)
                   .with_actual_seed(9)
                   .with_scaled_parallelism(4, 8)
                   .with_num_layers(16)
                   .with_fusion()
                   .without_dependencies(core::DepType::InterStream);
  EXPECT_EQ(s.seed(), 7u);
  EXPECT_EQ(s.actual_seed(), 9u);
  ASSERT_TRUE(s.new_pp().has_value());
  EXPECT_EQ(*s.new_pp(), 4);
  ASSERT_TRUE(s.new_dp().has_value());
  EXPECT_EQ(*s.new_dp(), 8);
  ASSERT_TRUE(s.new_layers().has_value());
  EXPECT_EQ(*s.new_layers(), 16);
  EXPECT_TRUE(s.fusion().has_value());
  ASSERT_EQ(s.dropped_dependencies().size(), 1u);
  EXPECT_EQ(s.dropped_dependencies()[0], core::DepType::InterStream);
  EXPECT_TRUE(s.has_manipulations());
  EXPECT_NE(s.describe().find("whatif"), std::string::npos);
}

TEST(Scenario, DescribeMentionsModelAndParallelism) {
  const std::string text =
      tiny_scenario().describe();
  EXPECT_NE(text.find("GPT-tiny"), std::string::npos);
  EXPECT_NE(text.find("1x1x1"), std::string::npos);
  EXPECT_FALSE(Scenario::synthetic().has_manipulations());
}

TEST(Scenario, KnownModelNamesAllResolve) {
  for (const std::string& name : known_model_names()) {
    EXPECT_TRUE(model_by_name(name).is_ok()) << name;
  }
}

// ---------------------------------------------------------------------------
// Result<T> semantics
// ---------------------------------------------------------------------------

TEST(ResultType, MoveOnlyPayloadMovesOut) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.status().is_ok());
  std::unique_ptr<int> payload = std::move(r).value();
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(*payload, 7);
}

TEST(ResultType, ErrorCarriesCodeAndMessage) {
  Result<std::string> r(parse_error("bad token"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
  EXPECT_EQ(r.status().message(), "bad token");
  EXPECT_EQ(r.status().to_string(), "parse_error: bad token");
  EXPECT_EQ(r.value_or("fallback"), "fallback");
}

TEST(ResultType, ValueOrMovesForMoveOnlyTypes) {
  Result<std::unique_ptr<int>> err(io_error("gone"));
  EXPECT_EQ(std::move(err).value_or(nullptr), nullptr);
  Result<std::unique_ptr<int>> ok(std::make_unique<int>(3));
  std::unique_ptr<int> got = std::move(ok).value_or(nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 3);
}

TEST(ResultType, SessionIsMovable) {
  Result<Session> created = Session::create(tiny_scenario());
  ASSERT_TRUE(created.is_ok());
  Session session = std::move(created).value();
  Session moved = std::move(session);
  EXPECT_TRUE(moved.replay().is_ok());
}

TEST(StatusType, CodeNamesAreStable) {
  EXPECT_EQ(to_string(ErrorCode::kOk), "ok");
  EXPECT_EQ(to_string(ErrorCode::kDeadlock), "deadlock");
  EXPECT_EQ(to_string(ErrorCode::kCyclicGraph), "cyclic_graph");
  EXPECT_EQ(Status::ok().to_string(), "ok");
}

// ---------------------------------------------------------------------------
// Session: pipeline and caching
// ---------------------------------------------------------------------------

TEST(Session, ReplayMatchesLowLevelPipeline) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<const core::SimResult*> replay = session->replay();
  ASSERT_TRUE(replay.is_ok());
  EXPECT_GT((*replay)->makespan_ns, 0);
  EXPECT_TRUE((*replay)->complete());
  // The facade's breakdown must cover the replayed span.
  Result<analysis::Breakdown> breakdown = session->breakdown();
  ASSERT_TRUE(breakdown.is_ok());
  EXPECT_GT(breakdown->total_ns(), 0);
}

/// Session::breakdown() reads the graph's columns; it must equal the
/// breakdown of the replayed trace it no longer builds.
void expect_breakdown_matches_replayed_trace(Session& session) {
  Result<analysis::Breakdown> breakdown = session.breakdown();
  ASSERT_TRUE(breakdown.is_ok()) << breakdown.status().to_string();
  Result<const trace::ClusterTrace*> replayed = session.replayed_trace();
  ASSERT_TRUE(replayed.is_ok());
  const analysis::Breakdown from_trace =
      analysis::compute_breakdown(**replayed);
  EXPECT_GT(breakdown->total_ns(), 0);
  EXPECT_EQ(breakdown->exposed_compute_ns, from_trace.exposed_compute_ns);
  EXPECT_EQ(breakdown->overlapped_ns, from_trace.overlapped_ns);
  EXPECT_EQ(breakdown->exposed_comm_ns, from_trace.exposed_comm_ns);
  EXPECT_EQ(breakdown->other_ns, from_trace.other_ns);
}

TEST(Session, BreakdownEqualsTheReplayedTraceBreakdown) {
  Result<Session> synthetic = Session::create(
      tiny_scenario().with_parallelism("2x2x2"));
  ASSERT_TRUE(synthetic.is_ok());
  expect_breakdown_matches_replayed_trace(*synthetic);

  // A trace-directory session over the same job's rank files.
  const std::string prefix = ::testing::TempDir() + "lumos_api_breakdown";
  Result<std::vector<std::string>> files =
      synthetic->write_trace_files(prefix);
  ASSERT_TRUE(files.is_ok());
  ASSERT_EQ(files->size(), 4u);
  Result<Session> loaded =
      Session::create(Scenario::from_trace(prefix, files->size()));
  ASSERT_TRUE(loaded.is_ok());
  expect_breakdown_matches_replayed_trace(*loaded);
}

TEST(Session, SecondReplayReusesTraceGraphAndResult) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());

  Result<const core::SimResult*> first = session->replay();
  ASSERT_TRUE(first.is_ok());
  const Session::CacheStats after_first = session->cache_stats();
  EXPECT_EQ(after_first.trace_loads, 1u);
  EXPECT_EQ(after_first.graph_builds, 1u);
  EXPECT_EQ(after_first.simulations, 1u);

  Result<const core::SimResult*> second = session->replay();
  ASSERT_TRUE(second.is_ok());
  // Same cached object, nothing re-ran.
  EXPECT_EQ(*first, *second);
  const Session::CacheStats after_second = session->cache_stats();
  EXPECT_EQ(after_second.trace_loads, 1u);
  EXPECT_EQ(after_second.graph_builds, 1u);
  EXPECT_EQ(after_second.simulations, 1u);

  // graph() and trace() also reuse the caches.
  Result<const core::ExecutionGraph*> g1 = session->graph();
  Result<const core::ExecutionGraph*> g2 = session->graph();
  ASSERT_TRUE(g1.is_ok());
  EXPECT_EQ(*g1, *g2);
  EXPECT_EQ(session->cache_stats().graph_builds, 1u);
}

TEST(Session, DproAndActualAreIndependentlyCached) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->replay_dpro().is_ok());
  ASSERT_TRUE(session->replay_dpro().is_ok());
  EXPECT_EQ(session->cache_stats().simulations, 1u);
  ASSERT_TRUE(session->actual_iteration_ns().is_ok());
  ASSERT_TRUE(session->actual_iteration_ns().is_ok());
  EXPECT_EQ(session->cache_stats().actual_runs, 1u);
}

TEST(Session, PredictParallelismChangesWorldSize) {
  Result<Session> session = Session::create(
      Scenario::synthetic()
          .with_model("tiny")
          .with_parallelism("1x2x1")
          .with_seed(5));
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> predicted =
      session->predict(whatif().with_data_parallelism(2));
  ASSERT_TRUE(predicted.is_ok()) << predicted.status().to_string();
  EXPECT_EQ(predicted->config.dp, 2);
  EXPECT_EQ(predicted->config.world_size(), 4);
  EXPECT_GT(predicted->sim.makespan_ns, 0);
  // The breakdown is computed at prediction time from the schedule + meta
  // columns; per-rank components sum to the iteration window, so the
  // average can trail the makespan only by component-wise truncation.
  EXPECT_GT(predicted->breakdown.total_ns(), 0);
  EXPECT_LE(predicted->breakdown.total_ns(), predicted->sim.makespan_ns);
  EXPECT_GE(predicted->breakdown.total_ns(), predicted->sim.makespan_ns - 4);
}

TEST(Session, PredictFusionEliminatesKernels) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> fused = session->predict(whatif().with_fusion());
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  EXPECT_GT(fused->kernels_eliminated, 0u);
  EXPECT_GT(fused->fusion_saved_ns, 0);
  Result<const core::SimResult*> baseline = session->replay();
  ASSERT_TRUE(baseline.is_ok());
  EXPECT_LT(fused->sim.makespan_ns, (*baseline)->makespan_ns);
}

TEST(Session, HooksRegistryDrivesPrediction) {
  class DoubleSpeedHooks : public core::SimulatorHooks {
   public:
    std::int64_t task_duration_ns(const core::Task& t) override {
      return t.event.dur_ns / 2;
    }
    std::int64_t collective_duration_ns(const core::Task& t, int) override {
      return t.event.dur_ns / 2;
    }
  };
  ASSERT_TRUE(Session::register_hooks("test_double_speed", [] {
                return std::make_unique<DoubleSpeedHooks>();
              }).is_ok());
  bool listed = false;
  for (const std::string& name : Session::registered_hooks()) {
    if (name == "test_double_speed") listed = true;
  }
  EXPECT_TRUE(listed);

  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<const core::SimResult*> baseline = session->replay();
  ASSERT_TRUE(baseline.is_ok());
  Result<Prediction> faster =
      session->predict(whatif().with_hooks("test_double_speed"));
  ASSERT_TRUE(faster.is_ok()) << faster.status().to_string();
  EXPECT_LT(faster->sim.makespan_ns, (*baseline)->makespan_ns);
}

TEST(Session, CostModelRegistryIsSelectable) {
  ASSERT_TRUE(Session::register_cost_model(
                  "test_default", [](const cost::HardwareSpec& hw) {
                    return cost::KernelPerfModel(hw);
                  })
                  .is_ok());
  Result<Session> session = Session::create(
      Scenario::synthetic()
          .with_model("tiny")
          .with_parallelism("1x2x1")
          .with_seed(5));
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> predicted = session->predict(
      whatif().with_pipeline_parallelism(4).with_cost_model("test_default"));
  EXPECT_TRUE(predicted.is_ok()) << predicted.status().to_string();
}

TEST(Session, TraceFileRoundTrip) {
  const std::string prefix =
      ::testing::TempDir() + "lumos_api_roundtrip";
  Result<Session> collector = Session::create(tiny_scenario());
  ASSERT_TRUE(collector.is_ok());
  Result<std::vector<std::string>> files =
      collector->write_trace_files(prefix);
  ASSERT_TRUE(files.is_ok());
  EXPECT_EQ(files->size(), 1u);

  Result<Session> loaded =
      Session::create(Scenario::from_trace(prefix, files->size()));
  ASSERT_TRUE(loaded.is_ok());
  Result<const core::SimResult*> replay = loaded->replay();
  ASSERT_TRUE(replay.is_ok());
  // Same trace, same graph, same replay as the collecting session.
  EXPECT_EQ((*replay)->makespan_ns, (*collector->replay())->makespan_ns);
  Result<std::vector<trace::Violation>> violations = loaded->validate();
  ASSERT_TRUE(violations.is_ok());
  EXPECT_TRUE(violations->empty());
}

TEST(Session, AnalysisSurfaceWorks) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<std::vector<std::int32_t>> ranks = session->ranks();
  ASSERT_TRUE(ranks.is_ok());
  ASSERT_EQ(ranks->size(), 1u);
  EXPECT_TRUE(session->stats(ranks->front()).is_ok());
  EXPECT_TRUE(session->timeline(ranks->front()).is_ok());
  EXPECT_TRUE(session->sm_utilization(ranks->front()).is_ok());
  Result<analysis::CriticalPathSummary> cp = session->critical_path();
  ASSERT_TRUE(cp.is_ok());
  EXPECT_FALSE(cp->path.empty());
  Result<std::string> json = session->chrome_trace_json(ranks->front());
  ASSERT_TRUE(json.is_ok());
  EXPECT_NE(json->find("traceEvents"), std::string::npos);

  Result<Session> other = Session::create(tiny_scenario().with_seed(11));
  ASSERT_TRUE(other.is_ok());
  Result<std::vector<analysis::DiffEntry>> diff = session->diff(*other);
  ASSERT_TRUE(diff.is_ok());
  EXPECT_FALSE(diff->empty());
}

TEST(Session, ChromeTraceJsonMatchesReplayedTraceForEveryRank) {
  // chrome_trace_json builds only the requested rank; its bytes equal the
  // serialization of that rank of the full replayed trace.
  // The seed-123 tiny fixture (TP 2 x PP 2 ranks) and a 4-stage pipeline.
  for (const auto& [parallelism, ranks] :
       {std::pair{"2x2x2", 4u}, std::pair{"1x4x2", 4u}}) {
    Result<Session> session = Session::create(Scenario::synthetic()
                                                  .with_model(tiny_model())
                                                  .with_parallelism(parallelism)
                                                  .with_seed(123));
    ASSERT_TRUE(session.is_ok()) << parallelism;
    Result<const trace::ClusterTrace*> replayed = session->replayed_trace();
    ASSERT_TRUE(replayed.is_ok());
    ASSERT_EQ((*replayed)->ranks.size(), ranks);
    for (const trace::RankTrace& rank : (*replayed)->ranks) {
      for (const int indent : {-1, 1, 2}) {
        Result<std::string> json =
            session->chrome_trace_json(rank.rank, indent);
        ASSERT_TRUE(json.is_ok()) << json.status().to_string();
        EXPECT_EQ(*json, trace::to_json_string(rank, indent))
            << parallelism << " rank " << rank.rank << " indent " << indent;
      }
    }
    Result<std::string> absent = session->chrome_trace_json(1000);
    EXPECT_EQ(absent.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(absent.status().message(),
              "rank 1000 not present in the replayed trace");
  }
}

// ---------------------------------------------------------------------------
// Error codes: every structured code is reachable through the facade.
// ---------------------------------------------------------------------------

TEST(ErrorCodes, UnknownModel) {
  EXPECT_EQ(model_by_name("gpt5").status().code(), ErrorCode::kUnknownModel);
  Result<Session> session = Session::create(
      Scenario::synthetic().with_model("gpt5").with_parallelism("1x1x1"));
  EXPECT_EQ(session.status().code(), ErrorCode::kUnknownModel);
}

TEST(ErrorCodes, InvalidArgument) {
  EXPECT_EQ(parse_parallelism("garbage").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(parse_parallelism("0x1x1").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(parse_parallelism("2x2x4x8").status().code(),
            ErrorCode::kInvalidArgument);
  // Unknown registry names and bad ranks are invalid arguments too.
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session->timeline(999).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(session->predict(whatif().with_hooks("no_such_hooks"))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(session
                ->predict(whatif().with_data_parallelism(2).with_cost_model(
                    "no_such_cost_model"))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // A cost model on a what-if that never re-costs kernels is rejected
  // rather than silently ignored.
  ASSERT_TRUE(Session::register_cost_model(
                  "test_unused", [](const cost::HardwareSpec& hw) {
                    return cost::KernelPerfModel(hw);
                  })
                  .is_ok());
  EXPECT_EQ(session->predict(whatif().with_fusion().with_cost_model(
                                 "test_unused"))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(ErrorCodes, ValidationError) {
  // GPT-tiny has 8 layers; pp=3 does not divide them.
  Result<Session> session = Session::create(
      Scenario::synthetic().with_model("tiny").with_parallelism("1x3x1"));
  EXPECT_EQ(session.status().code(), ErrorCode::kValidationError);
  // The same rule applies to manipulated architectures at predict time.
  Result<Session> ok = Session::create(
      Scenario::synthetic().with_model("tiny").with_parallelism("1x2x1"));
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok->predict(whatif().with_num_layers(7)).status().code(),
            ErrorCode::kValidationError);
}

TEST(ErrorCodes, HiddenSizeMustSplitIntoTheHeads) {
  // GPT-tiny has 8 heads; d_model 1020 would truncate head_dim to 127 and
  // silently model 1016 hidden units.
  Result<Session> session = Session::create(
      Scenario::synthetic().with_model("tiny").with_parallelism("1x2x1"));
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> uneven =
      session->predict(whatif().with_hidden_size(1020, 4096));
  EXPECT_EQ(uneven.status().code(), ErrorCode::kValidationError);
  const std::string message = uneven.status().message();
  EXPECT_NE(message.find("d_model (1020)"), std::string::npos) << message;
  EXPECT_NE(message.find("num_heads (8)"), std::string::npos) << message;
  EXPECT_TRUE(session->predict(whatif().with_hidden_size(1024, 4096)).is_ok());
}

TEST(ErrorCodes, WhatIfRejectsBaselineFields) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  // Baseline fields on an explicit what-if would be silently ignored, so
  // they are rejected instead of returning misleading baseline numbers.
  EXPECT_EQ(session
                ->predict(Scenario::synthetic()
                              .with_model("44b")
                              .with_parallelism("4x4x2"))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(session->predict(whatif().with_microbatches(8)).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(ErrorCodes, Unsupported) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session->predict(whatif().with_tensor_parallelism(2))
                .status()
                .code(),
            ErrorCode::kUnsupported);
}

TEST(ErrorCodes, IoError) {
  // Broken trace sources fail eagerly: create() runs rank-file discovery
  // (no parsing), so the missing files surface as a structured Status with
  // the offending prefix in the message — not from the first prediction.
  const std::string prefix = ::testing::TempDir() + "lumos_api_no_such";
  Result<Session> session = Session::create(Scenario::from_trace(prefix, 2));
  EXPECT_EQ(session.status().code(), ErrorCode::kIoError);
  EXPECT_NE(session.status().message().find("lumos_api_no_such"),
            std::string::npos);
  // A missing *directory* is an I/O error too.
  EXPECT_EQ(Session::create(
                Scenario::from_trace(prefix + "/no/such/dir/trace", 2))
                .status()
                .code(),
            ErrorCode::kIoError);
  // And an empty prefix is rejected eagerly.
  EXPECT_EQ(Session::create(Scenario::from_trace("")).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(ErrorCodes, ParseError) {
  const std::string prefix = ::testing::TempDir() + "lumos_api_corrupt";
  std::ofstream(prefix + "_rank0.json") << "this is not json {";
  Result<Session> session = Session::create(Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session->graph().status().code(), ErrorCode::kParseError);
}

TEST(ErrorCodes, CyclicGraph) {
  testutil::GraphAuthor author;
  core::ExecutionGraph& graph = author.graph;
  trace::TraceEvent e;
  e.name = "op";
  e.cat = trace::EventCategory::CpuOp;
  e.dur_ns = 10;
  core::Task a;
  a.event = e;
  core::Task b;
  b.event = e;
  const core::TaskId ta = author.add(a);
  const core::TaskId tb = author.add(b);
  graph.add_edge(ta, tb, core::DepType::IntraThread);
  graph.add_edge(tb, ta, core::DepType::IntraThread);
  Result<core::SimResult> result = replay_graph(graph);
  EXPECT_EQ(result.status().code(), ErrorCode::kCyclicGraph);
}

TEST(ErrorCodes, DroppedTasksMaskMustCoverEveryTask) {
  // The simulator reads the mask at every task id, so a short mask would
  // read past its end; the facade rejects it with both sizes.
  testutil::GraphAuthor author;
  core::ExecutionGraph& graph = author.graph;
  trace::TraceEvent e;
  e.name = "op";
  e.cat = trace::EventCategory::CpuOp;
  e.dur_ns = 10;
  core::Task a;
  a.event = e;
  core::Task b;
  b.event = e;
  const core::TaskId ta = author.add(a);
  const core::TaskId tb = author.add(b);
  graph.add_edge(ta, tb, core::DepType::IntraThread);

  const std::vector<std::uint8_t> short_mask = {0};
  core::SimOptions options;
  options.dropped_tasks = &short_mask;
  Result<core::SimResult> result = replay_graph(graph, options);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("1 entries"), std::string::npos)
      << result.status().to_string();
  EXPECT_NE(result.status().message().find("2 tasks"), std::string::npos)
      << result.status().to_string();

  const std::vector<std::uint8_t> full_mask = {0, 1};
  options.dropped_tasks = &full_mask;
  Result<core::SimResult> dropped = replay_graph(graph, options);
  ASSERT_TRUE(dropped.is_ok()) << dropped.status().to_string();
  EXPECT_EQ(dropped->executed, 1u);
  EXPECT_EQ(dropped->stuck_tasks, std::vector<core::TaskId>{tb});
}

TEST(ErrorCodes, BaselineProgramMustMatchItsGraph) {
  // BaselineArtifacts is a plain struct: a caller can pair a graph with a
  // program compiled from another one. Replaying it would write a schedule
  // sized for the foreign program, so both entry points reject it and name
  // both sizes.
  Result<Session> small = Session::create(tiny_scenario());
  Result<Session> large =
      Session::create(tiny_scenario().with_parallelism("1x2x2"));
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  Result<BaselineArtifacts> base = large->share_baseline();
  Result<BaselineArtifacts> foreign = small->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  ASSERT_TRUE(foreign.is_ok()) << foreign.status().to_string();
  ASSERT_NE(base->program, nullptr);
  ASSERT_NE(foreign->program, nullptr);
  const std::string graph_tasks = std::to_string(base->graph->size());
  const std::string program_tasks =
      std::to_string(foreign->program->task_count());
  ASSERT_NE(graph_tasks, program_tasks);
  base->program = foreign->program;

  const auto expect_both_sizes = [&](const Status& status) {
    EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_NE(status.message().find(graph_tasks + " tasks"),
              std::string::npos)
        << status.to_string();
    EXPECT_NE(status.message().find(program_tasks + " tasks"),
              std::string::npos)
        << status.to_string();
  };
  expect_both_sizes(predict_on(*base, whatif()).status());
  expect_both_sizes(
      replay_faulted(*base, faults::FaultSpec().slow_rank(0, 2.0)).status());
}

TEST(ErrorCodes, Deadlock) {
  // Two kernels of one rendezvous group on one stream: the first parks
  // waiting for the second, which the FIFO edge keeps behind the first.
  trace::RankTrace rank;
  rank.rank = 0;
  for (int i = 0; i < 2; ++i) {
    trace::TraceEvent k;
    k.name = "ncclDevKernel_AllReduce";
    k.cat = trace::EventCategory::Kernel;
    k.ts_ns = 10 * i;
    k.dur_ns = 10;
    k.tid = 7;
    k.stream = 7;
    k.collective.op = "allreduce";
    k.collective.group = "dp_0";
    k.collective.bytes = 1024;
    k.collective.group_size = 2;
    k.collective.instance = 0;
    rank.events.push_back(k);
  }
  trace::ClusterTrace cluster;
  cluster.ranks.push_back(rank);
  const std::string prefix = ::testing::TempDir() + "lumos_api_deadlock";
  ASSERT_EQ(trace::write_cluster_trace_files(cluster, prefix).size(), 1u);

  Result<Session> session = Session::create(Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->graph().is_ok());
  EXPECT_EQ(session->replay().status().code(), ErrorCode::kDeadlock);
}

TEST(ErrorCodes, FailedPrecondition) {
  // A scenario without a model cannot resolve one...
  EXPECT_EQ(Scenario::synthetic().resolved_model().status().code(),
            ErrorCode::kFailedPrecondition);
  // ...a trace-backed session has no "actual" cluster to measure...
  const std::string prefix = ::testing::TempDir() + "lumos_api_precond";
  Result<Session> collector = Session::create(tiny_scenario());
  ASSERT_TRUE(collector.is_ok());
  ASSERT_TRUE(collector->write_trace_files(prefix).is_ok());
  Result<Session> loaded = Session::create(Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded->actual_iteration_ns().status().code(),
            ErrorCode::kFailedPrecondition);
  // ...and cannot rebuild graphs without a baseline (model, config).
  EXPECT_EQ(loaded->predict(whatif().with_data_parallelism(4))
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

TEST(ErrorCodes, Internal) {
  ASSERT_TRUE(Session::register_hooks("test_null_factory", [] {
                return std::unique_ptr<core::SimulatorHooks>();
              }).is_ok());
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session->predict(whatif().with_hooks("test_null_factory"))
                .status()
                .code(),
            ErrorCode::kInternal);
}

TEST(ErrorCodes, RegistryRejectsBadRegistrations) {
  EXPECT_EQ(Session::register_hooks("", [] {
              return std::unique_ptr<core::SimulatorHooks>();
            }).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Session::register_hooks("x", nullptr).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Session::register_cost_model("", nullptr).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace lumos::api
