// Deterministic fault injection (src/faults/): the contract under test is
// that a FaultSpec + seed is a *reproducible experiment* — the same spec
// produces bit-identical SimResults no matter how many sweep workers
// evaluate it or whether the compiled replay program or the interpreter
// executes it — plus the spec algebra (scaled / components / fingerprint),
// lowering errors, the facade wiring (plan caching, hooks exclusivity,
// deadline-free severity grids) and the rank-dropout path, which must
// surface the crashed rank's transitive dependents as an exact ascending
// stuck-task set. Golden makespan constants pin the seed-123 fixture at
// fixed severities. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/sweep.h"
#include "core/execution_graph.h"
#include "core/replay_program.h"
#include "core/simulator.h"
#include "core/task_meta.h"
#include "faults/fault_plan.h"
#include "faults/fault_spec.h"
#include "test_util.h"

namespace lumos::faults {
namespace {

using api::BaselineArtifacts;
using api::Prediction;
using api::Scenario;
using api::Session;
using api::Sweep;
using api::whatif;

Scenario tiny_scenario() {
  return Scenario::synthetic()
      .with_model(testutil::tiny_model())
      .with_parallelism(testutil::tiny_config())
      .with_seed(123);
}

/// The one representative duration-only composition used across the suite:
/// one straggler, cluster-wide link degradation, lognormal jitter.
FaultSpec straggler_spec() {
  return FaultSpec()
      .slow_rank(0, 2.0)
      .degrade_links(1.5)
      .with_jitter(0.1)
      .with_seed(123);
}

void expect_same_sim(const core::SimResult& a, const core::SimResult& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.stuck_tasks, b.stuck_tasks);
}

// ---------------------------------------------------------------------------
// FaultSpec algebra
// ---------------------------------------------------------------------------

TEST(FaultSpec, EmptinessAndValidation) {
  EXPECT_TRUE(FaultSpec().empty());
  EXPECT_FALSE(straggler_spec().empty());
  EXPECT_TRUE(straggler_spec().validate().empty());

  EXPECT_NE(FaultSpec().slow_rank(0, 0.0).validate(), "");
  EXPECT_NE(FaultSpec().slow_rank(0, -2.0).validate(), "");
  EXPECT_NE(FaultSpec().degrade_links(0.0).validate(), "");
  EXPECT_NE(FaultSpec().degrade_link("dp_0", -1.0).validate(), "");
  EXPECT_NE(FaultSpec().with_jitter(-0.1).validate(), "");
  EXPECT_NE(FaultSpec().with_contention(-0.5).validate(), "");
  // Rejection messages carry the offending fault, like parse_parallelism.
  EXPECT_NE(FaultSpec().slow_rank(3, -1.0).validate().find("slow_rank(3)"),
            std::string::npos);
}

TEST(FaultSpec, ScaledInterpolatesTowardIdentity) {
  const FaultSpec spec = straggler_spec().with_contention(0.4);
  const FaultSpec off = spec.scaled(0.0);
  EXPECT_EQ(off.rank_slowdowns()[0].multiplier, 1.0);
  EXPECT_EQ(off.link_degradations()[0].multiplier, 1.0);
  EXPECT_EQ(off.jitter_sigma(), 0.0);
  EXPECT_EQ(off.contention_penalty(), 0.0);

  const FaultSpec half = spec.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.rank_slowdowns()[0].multiplier, 1.5);
  EXPECT_DOUBLE_EQ(half.link_degradations()[0].multiplier, 1.25);
  EXPECT_DOUBLE_EQ(half.jitter_sigma(), 0.05);
  EXPECT_DOUBLE_EQ(half.contention_penalty(), 0.2);

  // scaled(1) is the spec itself; severities above 1 extrapolate; dropped
  // ranks are binary and unaffected by severity.
  EXPECT_EQ(spec.scaled(1.0).fingerprint(), spec.fingerprint());
  EXPECT_DOUBLE_EQ(spec.scaled(2.0).rank_slowdowns()[0].multiplier, 3.0);
  EXPECT_EQ(FaultSpec().drop_rank(2).scaled(0.0).dropped_ranks().size(), 1u);
}

TEST(FaultSpec, ComponentsSplitWithSeedPropagation) {
  const auto components =
      straggler_spec().with_contention(0.1).drop_rank(3).components();
  ASSERT_EQ(components.size(), 5u);
  EXPECT_EQ(components[0].first, "slow_rank(0)");
  EXPECT_EQ(components[1].first, "degrade_links");
  EXPECT_EQ(components[2].first, "jitter");
  EXPECT_EQ(components[3].first, "contention");
  EXPECT_EQ(components[4].first, "drop_rank(3)");
  for (const auto& [label, component] : components) {
    EXPECT_EQ(component.seed(), 123u) << label;
    EXPECT_EQ(component.components().size(), 1u) << label;
  }
  EXPECT_TRUE(FaultSpec().components().empty());
}

TEST(FaultSpec, FingerprintIsAFunctionOfTheFullSpec) {
  EXPECT_EQ(straggler_spec().fingerprint(), straggler_spec().fingerprint());
  EXPECT_NE(straggler_spec().fingerprint(),
            straggler_spec().with_seed(124).fingerprint());
  EXPECT_NE(straggler_spec().fingerprint(),
            straggler_spec().scaled(0.5).fingerprint());
  EXPECT_NE(FaultSpec().slow_rank(0, 2.0).fingerprint(),
            FaultSpec().slow_rank(1, 2.0).fingerprint());
}

// ---------------------------------------------------------------------------
// FaultPlan lowering
// ---------------------------------------------------------------------------

class FaultPlanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Session> session = Session::create(tiny_scenario());
    ASSERT_TRUE(session.is_ok()) << session.status().to_string();
    Result<BaselineArtifacts> base = session->share_baseline();
    ASSERT_TRUE(base.is_ok());
    base_ = std::move(base).value();
  }

  const core::ExecutionGraph& graph() const { return *base_.graph; }

  BaselineArtifacts base_;
};

TEST_F(FaultPlanFixture, SlowRankPerturbsExactlyThatRanksColumn) {
  const FaultPlan plan =
      FaultPlan::lower(graph(), FaultSpec().slow_rank(0, 2.0));
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(plan.compiled_eligible());
  const core::TaskMetaTable& meta = graph().meta();
  const core::LaneTable& lanes = meta.lanes();
  ASSERT_EQ(plan.durations().size(), meta.size());
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto id = static_cast<core::TaskId>(i);
    const std::int64_t profiled = std::max<std::int64_t>(
        meta.duration_ns(id), 1);
    const std::int64_t faulted = plan.durations()[i];
    if (lanes.rank_value(lanes.rank_index(meta.lane(id))) == 0) {
      EXPECT_EQ(faulted, std::max<std::int64_t>(2 * meta.duration_ns(id), 1))
          << "task " << i;
    } else {
      EXPECT_EQ(faulted, profiled) << "task " << i;
    }
  }
}

TEST_F(FaultPlanFixture, JitterColumnIsAPureFunctionOfSeedAndTaskId) {
  const FaultSpec spec = FaultSpec().with_jitter(0.1).with_seed(7);
  const FaultPlan a = FaultPlan::lower(graph(), spec);
  const FaultPlan b = FaultPlan::lower(graph(), spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(std::equal(a.durations().begin(), a.durations().end(),
                         b.durations().begin(), b.durations().end()));
  const FaultPlan other =
      FaultPlan::lower(graph(), FaultSpec().with_jitter(0.1).with_seed(8));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(std::equal(a.durations().begin(), a.durations().end(),
                          other.durations().begin(),
                          other.durations().end()));
}

TEST_F(FaultPlanFixture, UnknownRankOrGroupFailsTheLowering) {
  const FaultPlan bad_rank =
      FaultPlan::lower(graph(), FaultSpec().slow_rank(99, 2.0));
  EXPECT_FALSE(bad_rank.ok());
  EXPECT_NE(bad_rank.error().find("rank 99"), std::string::npos);

  const FaultPlan bad_drop =
      FaultPlan::lower(graph(), FaultSpec().drop_rank(42));
  EXPECT_FALSE(bad_drop.ok());

  const FaultPlan bad_group =
      FaultPlan::lower(graph(), FaultSpec().degrade_link("no_such", 2.0));
  EXPECT_FALSE(bad_group.ok());
  EXPECT_NE(bad_group.error().find("no_such"), std::string::npos);

  const FaultPlan invalid =
      FaultPlan::lower(graph(), FaultSpec().with_jitter(-1.0));
  EXPECT_FALSE(invalid.ok());
}

TEST_F(FaultPlanFixture, DropoutAndContentionDisqualifyTheCompiledPath) {
  const FaultPlan dropped =
      FaultPlan::lower(graph(), FaultSpec().drop_rank(1));
  ASSERT_TRUE(dropped.ok()) << dropped.error();
  EXPECT_TRUE(dropped.has_dropout());
  EXPECT_FALSE(dropped.compiled_eligible());
  ASSERT_NE(dropped.dropped(), nullptr);

  const FaultPlan contended =
      FaultPlan::lower(graph(), FaultSpec().with_contention(0.2));
  ASSERT_TRUE(contended.ok());
  EXPECT_TRUE(contended.has_contention());
  EXPECT_FALSE(contended.compiled_eligible());
  EXPECT_EQ(contended.dropped(), nullptr);

  EXPECT_TRUE(FaultPlan::lower(graph(), straggler_spec())
                  .compiled_eligible());
}

// ---------------------------------------------------------------------------
// Determinism gate: compiled vs interpreter, and across worker counts
// ---------------------------------------------------------------------------

TEST_F(FaultPlanFixture, CompiledAndInterpreterPathsAreBitIdentical) {
  const FaultPlan plan = FaultPlan::lower(graph(), straggler_spec());
  ASSERT_TRUE(plan.ok()) << plan.error();

  core::ReplayCompiler::Result compiled =
      core::ReplayCompiler::compile(graph());
  ASSERT_TRUE(compiled) << core::to_string(compiled.status);
  const core::SimResult fast = compiled.program->run(plan.durations());

  core::SimOptions options;
  options.couple_collectives = true;
  ColumnHooks hooks = plan.make_hooks();
  options.hooks = &hooks;
  const core::SimResult reference =
      core::Simulator(graph(), options).run();
  ASSERT_TRUE(reference.complete());
  expect_same_sim(fast, reference);
  EXPECT_GT(fast.makespan_ns, 9696976) << "faults must stretch the seed-123 "
                                          "baseline makespan";
}

TEST(FaultFacade, CompiledPathIsBitIdenticalAndReportsThePath) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> fast =
      session->predict(whatif().with_faults(straggler_spec()));
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_TRUE(fast->used_compiled_replay);

  const core::ExecutionGraph& graph = **session->graph();
  const FaultPlan plan = FaultPlan::lower(graph, straggler_spec());
  ASSERT_TRUE(plan.ok()) << plan.error();
  core::SimOptions options;
  options.couple_collectives = true;
  ColumnHooks hooks = plan.make_hooks();
  options.hooks = &hooks;
  expect_same_sim(fast->sim, core::Simulator(graph, options).run());
}

TEST(FaultFacade, SeverityGridIsBitIdenticalAcrossWorkerCounts) {
  Result<Sweep> sweep = Sweep::create(tiny_scenario());
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  const std::vector<double> severities = {0.25, 0.5, 1.0};

  Result<api::FaultReport> one =
      sweep->run_fault_grid(straggler_spec(), severities, 1);
  Result<api::FaultReport> four =
      sweep->run_fault_grid(straggler_spec(), severities, 4);
  Result<api::FaultReport> any =
      sweep->run_fault_grid(straggler_spec(), severities, 0);
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  ASSERT_TRUE(four.is_ok()) << four.status().to_string();
  ASSERT_TRUE(any.is_ok()) << any.status().to_string();

  for (const api::FaultReport* other : {&*four, &*any}) {
    EXPECT_EQ(one->baseline_makespan_ns, other->baseline_makespan_ns);
    EXPECT_EQ(one->ranking, other->ranking);
    ASSERT_EQ(one->rows.size(), other->rows.size());
    for (std::size_t i = 0; i < one->rows.size(); ++i) {
      EXPECT_EQ(one->rows[i].label, other->rows[i].label);
      EXPECT_EQ(one->rows[i].severity, other->rows[i].severity);
      EXPECT_EQ(one->rows[i].makespan_ns, other->rows[i].makespan_ns)
          << one->rows[i].label << "@" << one->rows[i].severity;
    }
  }
  // 3 severities x (composition + 3 attribution components).
  EXPECT_EQ(one->rows.size(), 12u);
  EXPECT_EQ(one->baseline_makespan_ns, 9696976);
}

// ---------------------------------------------------------------------------
// Golden constants: seed-123 fixture at fixed severities
// ---------------------------------------------------------------------------

TEST(FaultGolden, Seed123MakespansArePinnedAtFixedSeverities) {
  // These constants pin the whole chain — splitmix64 streams, the
  // Irwin-Hall lognormal, multiplier composition, llround clamping, and
  // the replay itself. A change to any of them is a format break for
  // cached fault plans and must show up here, not in production sweeps.
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  const FaultSpec spec = straggler_spec();
  const struct {
    double severity;
    std::int64_t makespan_ns;
  } golden[] = {
      {0.0, 9696976},   // identity: severity 0 is the fault-free baseline
      {0.5, 13042402},
      {1.0, 17417760},
  };
  for (const auto& [severity, makespan_ns] : golden) {
    Result<Prediction> p =
        session->predict(whatif().with_faults(spec.scaled(severity)));
    ASSERT_TRUE(p.is_ok()) << p.status().to_string();
    EXPECT_EQ(p->sim.makespan_ns, makespan_ns) << "severity " << severity;
  }
}

// ---------------------------------------------------------------------------
// Rank dropout: the stuck-task / deadlock reporting path
// ---------------------------------------------------------------------------

TEST_F(FaultPlanFixture, RankDropoutReportsExactAscendingStuckTasks) {
  Result<core::SimResult> r =
      api::replay_faulted(base_, FaultSpec().drop_rank(1));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_FALSE(r->complete());
  EXPECT_FALSE(r->stuck_tasks.empty());
  EXPECT_TRUE(std::is_sorted(r->stuck_tasks.begin(), r->stuck_tasks.end()));
  EXPECT_TRUE(std::adjacent_find(r->stuck_tasks.begin(),
                                 r->stuck_tasks.end()) ==
              r->stuck_tasks.end());
  // Exactness: every task is either executed or stuck, and every task on
  // the dropped rank is stuck (none of them may run).
  EXPECT_EQ(r->executed + r->stuck_tasks.size(), graph().meta().size());
  const core::TaskMetaTable& meta = graph().meta();
  const core::LaneTable& lanes = meta.lanes();
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto id = static_cast<core::TaskId>(i);
    if (lanes.rank_value(lanes.rank_index(meta.lane(id))) == 1) {
      EXPECT_TRUE(std::binary_search(r->stuck_tasks.begin(),
                                     r->stuck_tasks.end(), id))
          << "task " << i << " on the dropped rank executed";
    }
  }
  // Determinism: the stuck set is part of the contract too.
  Result<core::SimResult> again =
      api::replay_faulted(base_, FaultSpec().drop_rank(1));
  ASSERT_TRUE(again.is_ok());
  expect_same_sim(*r, *again);
}

TEST(FaultFacade, DropoutThroughPredictIsAStructuredDeadlock) {
  // Session::predict treats an incomplete schedule as an error (unlike
  // replay_faulted's deadlock-as-data); a dropout spec lands as kDeadlock.
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> p =
      session->predict(whatif().with_faults(FaultSpec().drop_rank(0)));
  EXPECT_EQ(p.status().code(), ErrorCode::kDeadlock);
}

// ---------------------------------------------------------------------------
// Facade wiring: contention path, plan caching, composition rules
// ---------------------------------------------------------------------------

TEST(FaultFacade, ContentionRunsOnTheInterpreterAndStretchesCollectives) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> baseline = session->predict();
  Result<Prediction> contended = session->predict(
      whatif().with_faults(FaultSpec().with_contention(0.5)));
  ASSERT_TRUE(baseline.is_ok());
  ASSERT_TRUE(contended.is_ok()) << contended.status().to_string();
  EXPECT_FALSE(contended->used_compiled_replay)
      << "contention needs the interpreter's concurrency signal";
  EXPECT_GE(contended->sim.makespan_ns, baseline->sim.makespan_ns);
}

TEST(FaultFacade, FaultsAndHooksAreMutuallyExclusive) {
  ASSERT_TRUE(Session::register_hooks("faults_test_hooks", [] {
                return std::make_unique<core::SimulatorHooks>();
              }).is_ok());
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> p = session->predict(whatif()
                                              .with_faults(straggler_spec())
                                              .with_hooks("faults_test_hooks"));
  EXPECT_EQ(p.status().code(), ErrorCode::kInvalidArgument);
}

TEST(FaultFacade, SessionCachesPlansBySpecFingerprint) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  const FaultSpec spec = straggler_spec();
  ASSERT_TRUE(session->predict(whatif().with_faults(spec)).is_ok());
  ASSERT_TRUE(session->predict(whatif().with_faults(spec)).is_ok());
  EXPECT_EQ(session->cache_stats().fault_plans, 1u)
      << "identical specs must share one lowered plan";
  ASSERT_TRUE(
      session->predict(whatif().with_faults(spec.scaled(0.5))).is_ok());
  EXPECT_EQ(session->cache_stats().fault_plans, 2u);
}

TEST(FaultFacade, GridValidationIsEagerAndStructured) {
  Result<Sweep> sweep = Sweep::create(tiny_scenario());
  ASSERT_TRUE(sweep.is_ok());
  EXPECT_EQ(sweep->run_fault_grid(FaultSpec(), {1.0}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sweep->run_fault_grid(straggler_spec(), {}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sweep->run_fault_grid(straggler_spec(), {-1.0}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sweep->run_fault_grid(FaultSpec().with_jitter(-1.0), {1.0})
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // Unknown rank fails the whole grid eagerly, not per cell.
  EXPECT_EQ(
      sweep->run_fault_grid(FaultSpec().slow_rank(99, 2.0), {1.0})
          .status()
          .code(),
      ErrorCode::kInvalidArgument);
}

TEST(FaultFacade, ScenarioDescribesItsFaults) {
  const Scenario s = whatif().with_faults(straggler_spec());
  EXPECT_TRUE(s.has_manipulations());
  EXPECT_NE(s.describe().find("slow_rank(0,x2)"), std::string::npos);
  EXPECT_NE(s.describe().find("seed=123"), std::string::npos);
}

}  // namespace
}  // namespace lumos::faults
