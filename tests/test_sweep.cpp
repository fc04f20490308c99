// api::Sweep tests: sequential-vs-parallel bit-identity over a 16-scenario
// grid, each grid row against the interpreter on its rebuilt graph,
// structure sharing (every row that replays another row's program equals a
// rebuild of its own; an invalid row fails alone, even as a leader; the
// claim schedule keeps at most a pool of structures open), strict
// parallelism-label validation, per-variant failure isolation (a
// deadlocking variant must not poison siblings), ranking, and concurrent
// registry access from sweep workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/structure_sharing.h"
#include "core/graph_manipulator.h"
#include "trace/chrome_trace.h"

namespace lumos::api {
namespace {

// A fast synthetic baseline: GPT-tiny on 1x2x2 (multi-rank, so parallelism
// manipulation and collective coupling are both exercised).
Scenario tiny_base() {
  return Scenario::synthetic()
      .with_model("tiny")
      .with_parallelism("1x2x2")
      .with_seed(3)
      .with_actual_seed(4);
}

// The 16-point grid the bit-identity tests sweep: PP x DP at the base TP.
std::vector<std::string> grid16() {
  std::vector<std::string> labels;
  for (int pp : {1, 2, 4, 8}) {
    for (int dp : {1, 2, 4, 8}) {
      labels.push_back("1x" + std::to_string(pp) + "x" + std::to_string(dp));
    }
  }
  return labels;
}

void expect_reports_bit_identical(const SweepReport& a,
                                  const SweepReport& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.ranking, b.ranking);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    SCOPED_TRACE("row " + a.rows[i].label);
    EXPECT_EQ(a.rows[i].label, b.rows[i].label);
    EXPECT_EQ(a.rows[i].status, b.rows[i].status);
    ASSERT_EQ(a.rows[i].ok(), b.rows[i].ok());
    if (!a.rows[i].ok()) continue;
    const core::SimResult& sa = a.rows[i].prediction->sim;
    const core::SimResult& sb = b.rows[i].prediction->sim;
    EXPECT_EQ(sa.makespan_ns, sb.makespan_ns);
    EXPECT_EQ(sa.executed, sb.executed);
    EXPECT_EQ(sa.start_ns, sb.start_ns);  // bit-identity, task by task
    EXPECT_EQ(sa.end_ns, sb.end_ns);
    EXPECT_EQ(sa.stuck_tasks, sb.stuck_tasks);
    EXPECT_EQ(a.rows[i].prediction->config.label(),
              b.rows[i].prediction->config.label());
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: the acceptance contract of the engine
// ---------------------------------------------------------------------------

TEST(Sweep, SequentialAndParallelGridRunsAreBitIdentical) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  ASSERT_TRUE(sweep->add_parallelism_grid(grid16()).is_ok());
  ASSERT_EQ(sweep->size(), 16u);

  Result<SweepReport> sequential = sweep->run(1);
  ASSERT_TRUE(sequential.is_ok()) << sequential.status().to_string();
  Result<SweepReport> parallel = sweep->run(8);
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();

  EXPECT_EQ(sequential->succeeded(), 16u);
  expect_reports_bit_identical(*sequential, *parallel);
}

TEST(Sweep, GridRowsRunCompiledAndMatchTheInterpreter) {
  // Each rebuilt row compiles the graph it runs, so both worker counts run
  // the same engine; the reference is the coupled interpreter on that
  // graph, rebuilt here as predict_on rebuilds it.
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const cost::KernelPerfModel kernel_model(base->scenario.hardware());
  const core::GraphManipulator manipulator(*base->graph, *base->model,
                                           *base->config, kernel_model,
                                           base->scenario.build_options());
  Result<Sweep> sweep = Sweep::over(*session);
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  ASSERT_TRUE(sweep->add_parallelism_grid(grid16()).is_ok());
  Result<SweepReport> sequential = sweep->run(1);
  ASSERT_TRUE(sequential.is_ok()) << sequential.status().to_string();
  Result<SweepReport> parallel = sweep->run(8);
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  EXPECT_EQ(sequential->compiled_replays, 16u);
  EXPECT_EQ(parallel->compiled_replays, 16u);

  const std::vector<std::string> labels = grid16();
  core::SimOptions options;
  options.couple_collectives = true;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    Result<workload::ParallelConfig> config = parse_parallelism(labels[i]);
    ASSERT_TRUE(config.is_ok());
    workload::ParallelConfig target = *base->config;
    target.pp = config->pp;
    target.dp = config->dp;
    const core::ExecutionGraph graph =
        manipulator.with_spec(*base->model, target).graph;
    const core::SimResult reference = core::Simulator(graph, options).run();
    ASSERT_TRUE(reference.complete());
    for (const SweepReport* report : {&*sequential, &*parallel}) {
      ASSERT_TRUE(report->rows[i].ok())
          << report->rows[i].status.to_string();
      const Prediction& row = *report->rows[i].prediction;
      EXPECT_TRUE(row.used_compiled_replay);
      EXPECT_EQ(row.sim.makespan_ns, reference.makespan_ns);
      EXPECT_EQ(row.sim.executed, reference.executed);
      EXPECT_EQ(row.sim.start_ns, reference.start_ns);
      EXPECT_EQ(row.sim.end_ns, reference.end_ns);
      EXPECT_EQ(row.sim.stuck_tasks, reference.stuck_tasks);
    }
  }
}

TEST(Sweep, MatchesSessionPredictLoop) {
  // The sweep must agree bit-for-bit with the pre-Sweep idiom: one Session,
  // one predict() per variant, sequentially.
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok());
  Result<Sweep> sweep = Sweep::over(*session);
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(sweep->add_parallelism_grid(grid16()).is_ok());
  Result<SweepReport> report = sweep->run(4);
  ASSERT_TRUE(report.is_ok());

  const std::vector<std::string> labels = grid16();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    Result<workload::ParallelConfig> config = parse_parallelism(labels[i]);
    ASSERT_TRUE(config.is_ok());
    Result<Prediction> loop = session->predict(
        whatif().with_scaled_parallelism(config->pp, config->dp));
    ASSERT_TRUE(loop.is_ok()) << loop.status().to_string();
    ASSERT_TRUE(report->rows[i].ok())
        << report->rows[i].status.to_string();
    const core::SimResult& sweep_sim = report->rows[i].prediction->sim;
    EXPECT_EQ(sweep_sim.makespan_ns, loop->sim.makespan_ns);
    EXPECT_EQ(sweep_sim.start_ns, loop->sim.start_ns);
    EXPECT_EQ(sweep_sim.end_ns, loop->sim.end_ns);
  }
}

// ---------------------------------------------------------------------------
// Structure sharing: rebuilt rows that key to one structure share its graph
// and program, and each must still equal a rebuild of its own.
// ---------------------------------------------------------------------------

/// One rebuilt row: the what-if and the (model, config) it targets.
struct RebuiltRow {
  std::string label;
  Scenario whatif;
  workload::ModelSpec model;
  workload::ParallelConfig config;
};

/// What a row must equal: the coupled interpreter on with_spec(target).
struct Reference {
  core::SimResult sim;
  analysis::Breakdown breakdown;
};

Reference rebuild_reference(const BaselineArtifacts& base,
                            const RebuiltRow& row) {
  const cost::KernelPerfModel kernel_model(base.scenario.hardware());
  const core::GraphManipulator manipulator(*base.graph, *base.model,
                                           *base.config, kernel_model,
                                           base.scenario.build_options());
  const core::ExecutionGraph graph =
      manipulator.with_spec(row.model, row.config).graph;
  core::SimOptions options;
  options.couple_collectives = true;
  Reference out{core::Simulator(graph, options).run(), {}};
  out.breakdown = analysis::compute_breakdown(graph, out.sim);
  return out;
}

void expect_row_matches(const SweepRow& row, const RebuiltRow& target,
                        const Reference& reference) {
  SCOPED_TRACE(row.label);
  ASSERT_TRUE(row.ok()) << row.status.to_string();
  const Prediction& p = *row.prediction;
  EXPECT_TRUE(p.used_compiled_replay);
  EXPECT_EQ(p.sim.start_ns, reference.sim.start_ns);
  EXPECT_EQ(p.sim.end_ns, reference.sim.end_ns);
  EXPECT_EQ(p.sim.makespan_ns, reference.sim.makespan_ns);
  EXPECT_EQ(p.sim.executed, reference.sim.executed);
  EXPECT_EQ(p.sim.stuck_tasks, reference.sim.stuck_tasks);
  EXPECT_EQ(p.breakdown.exposed_compute_ns,
            reference.breakdown.exposed_compute_ns);
  EXPECT_EQ(p.breakdown.overlapped_ns, reference.breakdown.overlapped_ns);
  EXPECT_EQ(p.breakdown.exposed_comm_ns, reference.breakdown.exposed_comm_ns);
  EXPECT_EQ(p.breakdown.other_ns, reference.breakdown.other_ns);
  EXPECT_EQ(p.model, target.model);
  EXPECT_EQ(p.config.label(), target.config.label());
  EXPECT_EQ(p.config.microbatches(), target.config.microbatches());
  EXPECT_EQ(p.config.microbatch_size, target.config.microbatch_size);
}

/// The fig7-style grid plus hidden-size and layer-count rows over the tiny
/// baseline: several structures, most with more than one row.
std::vector<RebuiltRow> mixed_rows(const BaselineArtifacts& base) {
  std::vector<RebuiltRow> rows;
  const auto add = [&](std::string label, Scenario whatif,
                       workload::ModelSpec model, std::int32_t pp,
                       std::int32_t dp) {
    workload::ParallelConfig config = *base.config;
    config.pp = pp;
    config.dp = dp;
    rows.push_back({std::move(label), std::move(whatif), std::move(model),
                    config});
  };
  const workload::ModelSpec tiny = *base.model;
  for (const std::int32_t pp : {1, 2, 4, 8}) {
    for (const std::int32_t dp : {1, 2, 4, 8}) {
      add("1x" + std::to_string(pp) + "x" + std::to_string(dp),
          whatif().with_scaled_parallelism(pp, dp), tiny, pp, dp);
    }
  }
  const std::int32_t pp = base.config->pp;
  const std::int32_t dp = base.config->dp;
  add("wide", whatif().with_hidden_size(2048, 8192),
      core::GraphManipulator::resized_model(tiny, 2048, 8192), pp, dp);
  add("narrow", whatif().with_hidden_size(512, 2048),
      core::GraphManipulator::resized_model(tiny, 512, 2048), pp, dp);
  add("wide_dp8",
      whatif().with_hidden_size(2048, 8192).with_data_parallelism(8),
      core::GraphManipulator::resized_model(tiny, 2048, 8192), pp, 8);
  workload::ModelSpec deep = tiny;
  deep.num_layers = 16;
  add("deep", whatif().with_num_layers(16), deep, pp, dp);
  add("deep_dp4", whatif().with_num_layers(16).with_data_parallelism(4), deep,
      pp, 4);
  add("deep_4x4", whatif().with_num_layers(16).with_scaled_parallelism(4, 4),
      deep, 4, 4);
  return rows;
}

TEST(Sweep, StructureSharedRowsMatchTheirOwnRebuilds) {
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const std::vector<RebuiltRow> rows = mixed_rows(*base);
  Result<Sweep> sweep = Sweep::over(*session);
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  for (const RebuiltRow& row : rows) sweep->add(row.label, row.whatif);
  // 2 workers take the structures in waves: fewer workers than structures.
  std::vector<SweepReport> reports;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Result<SweepReport> report = sweep->run(workers);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report->compiled_replays, rows.size());
    reports.push_back(*std::move(report));
  }
  std::set<workload::StructureKey> structures;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    structures.insert(
        shared_rebuild_target(*base, rows[i].whatif).value().key);
    const Reference reference = rebuild_reference(*base, rows[i]);
    ASSERT_TRUE(reference.sim.complete()) << rows[i].label;
    for (const SweepReport& report : reports) {
      expect_row_matches(report.rows[i], rows[i], reference);
    }
  }
  EXPECT_GT(structures.size(), 2u);
}

TEST(Sweep, ScheduleKeepsAtMostAPoolOfStructuresOpen) {
  // Rows keyed to 7 structures (by layer count), submitted interleaved
  // with rows that run alone (nullopt).
  const auto layers = [](std::int32_t n) {
    workload::StructureKey key;
    key.num_layers = n;
    return std::optional<workload::StructureKey>(key);
  };
  const std::optional<workload::StructureKey> alone;
  const std::vector<std::optional<workload::StructureKey>> keys = {
      layers(1), layers(2), alone,     layers(1), layers(3), layers(4),
      layers(2), layers(5), alone,     layers(6), layers(3), layers(7),
      layers(1), layers(6), layers(7), layers(4), layers(4)};
  const std::size_t key_count = 7;

  for (std::size_t workers = 1; workers <= 8; ++workers) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const SweepSchedule schedule = schedule_sweep(keys, workers);
    ASSERT_EQ(schedule.structure_of.size(), keys.size());
    std::vector<std::size_t> rows(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) rows[i] = i;
    if (workers == 1) {
      EXPECT_EQ(schedule.order, rows);
    } else {
      EXPECT_EQ(schedule.leaders.size(), key_count);  // one per key
    }
    ASSERT_EQ(std::multiset<std::size_t>(schedule.order.begin(),
                                         schedule.order.end()),
              std::multiset<std::size_t>(rows.begin(), rows.end()));

    // A structure's rows are key-mates, and its leader is the first of
    // them in submission order.
    std::vector<std::size_t> unclaimed(schedule.leaders.size(), 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(schedule.structure_of[i].has_value(), keys[i].has_value());
      if (!keys[i]) continue;
      const std::size_t s = *schedule.structure_of[i];
      ASSERT_LT(s, schedule.leaders.size());
      EXPECT_EQ(keys[schedule.leaders[s]], keys[i]);
      EXPECT_LE(schedule.leaders[s], i);
      ++unclaimed[s];
    }
    // Claimed in order, a leader comes before its followers, and the
    // opened structures with a row still to claim never outnumber the
    // workers.
    std::vector<bool> opened(schedule.leaders.size(), false);
    for (const std::size_t i : schedule.order) {
      if (!schedule.structure_of[i]) continue;
      const std::size_t s = *schedule.structure_of[i];
      EXPECT_EQ(opened[s], schedule.leaders[s] != i);
      opened[s] = true;
      --unclaimed[s];
      std::size_t open = 0;
      for (std::size_t t = 0; t < opened.size(); ++t) {
        if (opened[t] && unclaimed[t] > 0) ++open;
      }
      EXPECT_LE(open, workers);
    }
    // Several workers start as many builds side by side.
    if (workers > 1) {
      for (std::size_t k = 0; k < std::min(workers, key_count); ++k) {
        EXPECT_EQ(schedule.order[k], schedule.leaders[k]);
      }
    }
  }
}

TEST(Sweep, InvalidRowInASharedStructureFailsAlone) {
  // d_model 1020 does not split into GPT-tiny's 8 heads. The row keys to
  // the baseline's structure, so it shares a group with the DP and width
  // rows: as a follower, and as the leader whose build fails.
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const workload::ParallelConfig& config = *base->config;
  const workload::ModelSpec& tiny = *base->model;
  const Scenario invalid = whatif().with_hidden_size(1020, 4096);
  workload::ParallelConfig dp4 = config;
  dp4.dp = 4;
  const std::vector<RebuiltRow> valid = {
      {"dp4", whatif().with_data_parallelism(4), tiny, dp4},
      {"wide", whatif().with_hidden_size(2048, 8192),
       core::GraphManipulator::resized_model(tiny, 2048, 8192), config},
  };
  for (const bool invalid_leads : {true, false}) {
    SCOPED_TRACE(invalid_leads ? "invalid leader" : "invalid follower");
    Result<Sweep> sweep = Sweep::over(*session);
    ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
    if (invalid_leads) sweep->add("invalid", invalid);
    for (const RebuiltRow& row : valid) sweep->add(row.label, row.whatif);
    if (!invalid_leads) sweep->add("invalid", invalid);
    const std::size_t bad = invalid_leads ? 0 : valid.size();
    for (const std::size_t workers : {1u, 8u}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      Result<SweepReport> report = sweep->run(workers);
      ASSERT_TRUE(report.is_ok()) << report.status().to_string();
      EXPECT_EQ(report->rows[bad].status.code(),
                ErrorCode::kValidationError);
      EXPECT_EQ(report->succeeded(), valid.size());
      for (std::size_t i = 0; i < valid.size(); ++i) {
        const std::size_t at = invalid_leads ? i + 1 : i;
        expect_row_matches(report->rows[at], valid[i],
                           rebuild_reference(*base, valid[i]));
      }
    }
  }
}

TEST(Sweep, OnlyPlainRebuildsShareAStructure) {
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  for (const Scenario& shares :
       {whatif().with_data_parallelism(4),
        whatif().with_scaled_parallelism(4, 2), whatif().with_num_layers(16),
        whatif().with_hidden_size(2048, 8192),
        whatif().with_architecture(*base->model)}) {
    EXPECT_TRUE(shared_rebuild_target(*base, shares).has_value());
  }
  // Faults and hooks see rank labels, which differ between key-mates; the
  // rest change the graph or its costing beyond the builder's column.
  const faults::FaultSpec slow = faults::FaultSpec().slow_rank(0, 1.5);
  for (const Scenario& alone :
       {whatif(), whatif().with_fusion(),
        whatif().with_data_parallelism(4).with_faults(slow),
        whatif().with_data_parallelism(4).with_hooks("sweep_half_speed"),
        whatif().with_data_parallelism(4).with_tensor_parallelism(2),
        whatif().with_data_parallelism(4).with_fusion(),
        whatif().with_data_parallelism(4).without_dependencies(
            core::DepType::InterStream),
        whatif().with_data_parallelism(4).with_cost_model("sweep_model"),
        whatif().with_data_parallelism(4).with_microbatches(8)}) {
    EXPECT_FALSE(shared_rebuild_target(*base, alone).has_value())
        << alone.describe();
  }
}

TEST(Sweep, SharedReplayRefusesAColumnItsProgramDoesNotAccept) {
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const std::optional<RebuildTarget> target =
      shared_rebuild_target(*base, whatif().with_data_parallelism(4));
  ASSERT_TRUE(target.has_value());
  const SharedRebuilds rebuilds(*base);
  SharedStructure structure;
  Result<Prediction> built = rebuilds.build(*target, structure);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  ASSERT_NE(structure.program, nullptr);
  Result<std::vector<std::int64_t>> column = rebuilds.cost(*target);
  ASSERT_TRUE(column.is_ok()) << column.status().to_string();

  // The row's own costing column replays exactly what its build ran.
  const std::optional<Prediction> costed =
      rebuilds.replay(*target, structure, *column);
  ASSERT_TRUE(costed.has_value());
  EXPECT_TRUE(costed->used_compiled_replay);
  EXPECT_EQ(costed->sim.start_ns, built->sim.start_ns);
  EXPECT_EQ(costed->sim.end_ns, built->sim.end_ns);

  // A column the program does not accept is refused, and the row rebuilds
  // instead: one entry short, a zero entry, a negative entry.
  const std::vector<std::int64_t> shorter(column->begin(), column->end() - 1);
  EXPECT_FALSE(rebuilds.replay(*target, structure, shorter).has_value());
  std::vector<std::int64_t> zero = *column;
  zero[zero.size() / 2] = 0;
  EXPECT_FALSE(rebuilds.replay(*target, structure, zero).has_value());
  std::vector<std::int64_t> negative = *column;
  negative.front() = -1;
  EXPECT_FALSE(rebuilds.replay(*target, structure, negative).has_value());
  // So is a structure without a program.
  EXPECT_FALSE(rebuilds.replay(*target, {structure.graph, nullptr}, *column)
                   .has_value());
}

TEST(Sweep, RepeatedParallelRunsAreStable) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(sweep->add_parallelism_grid({1, 2, 4}, {1, 2}).is_ok());
  Result<SweepReport> first = sweep->run(6);
  Result<SweepReport> second = sweep->run(6);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  expect_reports_bit_identical(*first, *second);
}

// ---------------------------------------------------------------------------
// Label validation (strict parse_parallelism)
// ---------------------------------------------------------------------------

TEST(Sweep, MalformedGridLabelsAreRejectedWithTheOffendingLabel) {
  const char* kMalformed[] = {
      "",       "4x",        "4x4",     "axbxc",        "0x1x1",
      "1x0x1",  "1x1x0",     "-1x2x4",  "2x-2x4",       " 2x2x4",
      "2x2x4 ", "2x2x2trailing", "2x2x4x8", "+1x2x4",  "2x 2x4",
      "99999999999x1x1",
  };
  for (const char* label : kMalformed) {
    SCOPED_TRACE(std::string("label '") + label + "'");
    Result<workload::ParallelConfig> parsed = parse_parallelism(label);
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
    if (*label != '\0') {
      // The offending label is named in the message.
      EXPECT_NE(parsed.status().message().find(label), std::string::npos)
          << parsed.status().message();
    }

    Result<Sweep> sweep = Sweep::create(tiny_base());
    ASSERT_TRUE(sweep.is_ok());
    Status grid = sweep->add_parallelism_grid({"1x1x1", label});
    EXPECT_EQ(grid.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(sweep->size(), 0u);  // nothing half-added
  }
}

TEST(Sweep, IntegerGridOverloadValidatesLikeTheLabelOverload) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  EXPECT_EQ(sweep->add_parallelism_grid({-1, 2}, {4}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sweep->add_parallelism_grid({2}, {0}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sweep->size(), 0u);  // nothing half-added
  EXPECT_TRUE(sweep->add_parallelism_grid({1, 2}, {1, 2}).is_ok());
  EXPECT_EQ(sweep->size(), 4u);
}

TEST(Sweep, WellFormedLabelsStillParse) {
  Result<workload::ParallelConfig> config = parse_parallelism("2x4x8");
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config->tp, 2);
  EXPECT_EQ(config->pp, 4);
  EXPECT_EQ(config->dp, 8);
}

// ---------------------------------------------------------------------------
// Failure isolation
// ---------------------------------------------------------------------------

TEST(Sweep, DeadlockedVariantDoesNotPoisonSiblings) {
  // A trace whose coupled replay deadlocks: two kernels of one rendezvous
  // group on one stream — the first parks waiting for the second, which the
  // stream-FIFO edge keeps behind the first.
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
  const std::string prefix = ::testing::TempDir() + "lumos_sweep_deadlock";
  ASSERT_EQ(trace::write_cluster_trace_files(cluster, prefix).size(), 1u);

  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(sweep->add_parallelism_grid({"1x1x1", "1x2x2"}).is_ok());
  sweep->add_scenario("deadlocked", Scenario::from_trace(prefix, 1));
  sweep->add("fused", whatif().with_fusion());

  Result<SweepReport> report = sweep->run(4);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_EQ(report->rows.size(), 4u);

  EXPECT_EQ(report->rows[2].label, "deadlocked");
  EXPECT_EQ(report->rows[2].status.code(), ErrorCode::kDeadlock);
  EXPECT_FALSE(report->rows[2].ok());

  // Siblings are untouched — before and after the poisoned row.
  EXPECT_TRUE(report->rows[0].ok()) << report->rows[0].status.to_string();
  EXPECT_TRUE(report->rows[1].ok()) << report->rows[1].status.to_string();
  EXPECT_TRUE(report->rows[3].ok()) << report->rows[3].status.to_string();
  EXPECT_EQ(report->succeeded(), 3u);
  EXPECT_EQ(report->failed(), 1u);
}

TEST(Sweep, PerRowErrorsAreStructured) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  // TP manipulation: recorded, rejected per-row as unsupported.
  ASSERT_TRUE(sweep->add_parallelism_grid({"2x2x2", "1x2x1"}).is_ok());
  // Baseline fields on a what-if variant: invalid per-row.
  sweep->add("has_baseline", Scenario::synthetic().with_model("tiny"));
  // Unknown hooks registry name: invalid per-row.
  sweep->add("no_such_hooks", whatif().with_hooks("sweep_no_such_hooks"));

  Result<SweepReport> report = sweep->run(4);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->rows[0].status.code(), ErrorCode::kUnsupported);
  EXPECT_TRUE(report->rows[1].ok());
  EXPECT_EQ(report->rows[2].status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(report->rows[3].status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(report->succeeded(), 1u);
}

TEST(Sweep, EmptySweepIsAFailedPrecondition) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  EXPECT_EQ(sweep->run().status().code(), ErrorCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Report semantics
// ---------------------------------------------------------------------------

TEST(Sweep, RankingIsFastestFirstAndCoversOnlySuccesses) {
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(
      sweep->add_parallelism_grid({"1x2x4", "1x1x1", "1x4x2"}).is_ok());
  sweep->add("tp_change", whatif().with_tensor_parallelism(4));
  Result<SweepReport> report = sweep->run(2);
  ASSERT_TRUE(report.is_ok());

  ASSERT_EQ(report->succeeded(), 3u);
  for (std::size_t i = 1; i < report->ranking.size(); ++i) {
    EXPECT_LE(
        report->rows[report->ranking[i - 1]].prediction->sim.makespan_ns,
        report->rows[report->ranking[i]].prediction->sim.makespan_ns);
  }
  ASSERT_NE(report->best(), nullptr);
  EXPECT_EQ(report->best(),
            &report->rows[report->ranking.front()]);
  const std::string table = report->to_string();
  EXPECT_NE(table.find("tp_change"), std::string::npos);
  EXPECT_NE(table.find("unsupported"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency: registries and hooks under parallel workers
// ---------------------------------------------------------------------------

TEST(Sweep, WorkersResolveRegistryHooksConcurrently) {
  class HalfSpeedHooks : public core::SimulatorHooks {
   public:
    std::int64_t task_duration_ns(const core::Task& t) override {
      return t.event.dur_ns * 2;
    }
    std::int64_t collective_duration_ns(const core::Task& t, int) override {
      return t.event.dur_ns * 2;
    }
  };
  ASSERT_TRUE(Session::register_hooks("sweep_half_speed", [] {
                return std::make_unique<HalfSpeedHooks>();
              }).is_ok());

  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  // Every variant resolves the same registry name from its own worker; the
  // factory builds a fresh instance per variant, so no sharing occurs.
  for (int i = 0; i < 12; ++i) {
    sweep->add("hooked_" + std::to_string(i),
               whatif().with_hooks("sweep_half_speed"));
  }
  Result<SweepReport> parallel = sweep->run(8);
  ASSERT_TRUE(parallel.is_ok());
  EXPECT_EQ(parallel->succeeded(), 12u);

  // All rows simulated the identical variant — identical results.
  const std::int64_t makespan =
      parallel->rows[0].prediction->sim.makespan_ns;
  for (const SweepRow& row : parallel->rows) {
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row.prediction->sim.makespan_ns, makespan);
  }

  // And slower than the un-hooked baseline replay, proving the hooks ran.
  Result<Session> baseline = Session::create(tiny_base());
  ASSERT_TRUE(baseline.is_ok());
  EXPECT_GT(makespan, (*baseline->replay())->makespan_ns);
}

TEST(Sweep, ConcurrentSimulationOverOneSharedGraphIsSafe) {
  // The core contract Sweep builds on: a frozen ExecutionGraph may back any
  // number of concurrent simulations, including racing first touches of its
  // lazily built adjacency index. without_edges() returns a graph with a
  // cold cache, so every thread below races the lazy build.
  Result<Session> session = Session::create(tiny_base());
  ASSERT_TRUE(session.is_ok());
  Result<const core::ExecutionGraph*> parsed = session->graph();
  ASSERT_TRUE(parsed.is_ok());
  const core::ExecutionGraph cold =
      (*parsed)->without_edges(core::DepType::CrossRank);

  std::vector<core::SimResult> results(8);
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back([&cold, &results, i] {
        Result<core::SimResult> r = replay_graph(cold);
        if (r.is_ok()) results[i] = *std::move(r);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const core::SimResult& r : results) {
    EXPECT_EQ(r.makespan_ns, results.front().makespan_ns);
    EXPECT_EQ(r.start_ns, results.front().start_ns);
  }
}

TEST(Sweep, OnResultStreamsEveryRowOnceUnderTheLock) {
  // The streaming callback fires once per variant, from worker threads but
  // serialized (documented lock discipline) — a plain vector mutated inside
  // the callback must end up consistent, and the streamed rows must carry
  // the same outcomes as the gathered report.
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  ASSERT_TRUE(sweep->add_parallelism_grid({1, 2}, {1, 2}).is_ok());
  sweep->add("bad-standalone",
             Scenario::synthetic().with_model("no-such-model"));

  std::vector<std::string> streamed_labels;
  std::vector<bool> streamed_ok;
  sweep->on_result([&](const SweepRow& row) {
    // No external synchronization here on purpose: the Sweep serializes.
    streamed_labels.push_back(row.label);
    streamed_ok.push_back(row.ok());
  });
  Result<SweepReport> report = sweep->run(4);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  ASSERT_EQ(streamed_labels.size(), report->rows.size());
  // Completion order is nondeterministic; compare as multisets against the
  // gathered (submission-ordered) rows.
  std::multiset<std::string> streamed(streamed_labels.begin(),
                                      streamed_labels.end());
  std::multiset<std::string> gathered;
  for (const SweepRow& row : report->rows) gathered.insert(row.label);
  EXPECT_EQ(streamed, gathered);
  for (std::size_t i = 0; i < streamed_labels.size(); ++i) {
    const bool expect_ok = streamed_labels[i] != "bad-standalone";
    EXPECT_EQ(streamed_ok[i], expect_ok) << streamed_labels[i];
  }
}

TEST(Sweep, OnResultThrowingCallbackIsContained) {
  // A throwing callback must not escape a worker thread (std::terminate)
  // or the no-throw run() API; rows stay complete and correct.
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(sweep->add_parallelism_grid({1, 2}, {1, 2}).is_ok());
  int calls = 0;
  sweep->on_result([&](const SweepRow&) {
    ++calls;
    throw std::runtime_error("callback bug");
  });
  Result<SweepReport> report = sweep->run(2);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(report->succeeded(), 4u);
}

TEST(Sweep, OnResultSequentialRunStreamsInSubmissionOrder) {
  // With one worker, completion order IS submission order — the streaming
  // callback becomes a deterministic progress feed.
  Result<Sweep> sweep = Sweep::create(tiny_base());
  ASSERT_TRUE(sweep.is_ok());
  ASSERT_TRUE(sweep->add_parallelism_grid({"1x1x1", "1x2x1", "1x2x2"})
                  .is_ok());
  std::vector<std::string> labels;
  sweep->on_result(
      [&](const SweepRow& row) { labels.push_back(row.label); });
  ASSERT_TRUE(sweep->run(1).is_ok());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"1x1x1", "1x2x1", "1x2x2"}));
}

TEST(Sweep, SharedBaselineOutlivesTheSession) {
  // BaselineArtifacts alias the session's caches via shared_ptr, so the
  // sweep stays valid after the session it was built over is gone.
  std::optional<Sweep> sweep;
  {
    Result<Session> session = Session::create(tiny_base());
    ASSERT_TRUE(session.is_ok());
    Result<Sweep> built = Sweep::over(*session);
    ASSERT_TRUE(built.is_ok());
    sweep.emplace(std::move(built).value());
  }  // session destroyed here
  ASSERT_TRUE(sweep->add_parallelism_grid({1, 2}, {1, 2}).is_ok());
  Result<SweepReport> report = sweep->run(4);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->succeeded(), 4u);
}

}  // namespace
}  // namespace lumos::api
