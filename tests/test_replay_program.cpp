// Compiled replay (core/replay_program.{h,cpp}): the contract under test is
// bit-identity with the pinned interpreter — SimResult::start_ns / end_ns /
// makespan_ns / executed / stuck_tasks equal, element by element, on every
// fixture the compiler accepts — plus correct fallback (null program + a
// specific status) on everything it must refuse: unordered lanes,
// non-positive durations, deadlock cycles. Fixture zoo: hand-built sync /
// rendezvous graphs (test_simulator's shapes), 25 seeded random graphs,
// the seed-123 ground-truth cluster trace (golden executed/makespan
// constants), a 20-rank synthetic ingest-style trace, fused graphs, and
// caller-supplied duration columns checked against a hooked interpreter.
// Concurrent replay of one shared program runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/sweep.h"
#include "cluster/ground_truth.h"
#include "core/execution_graph.h"
#include "core/fusion.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "faults/fault_plan.h"
#include "faults/fault_spec.h"
#include "io/fnv.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "trace/chrome_trace.h"

namespace lumos::core {
namespace {

void expect_identical(const SimResult& compiled, const SimResult& reference) {
  EXPECT_EQ(compiled.start_ns, reference.start_ns);
  EXPECT_EQ(compiled.end_ns, reference.end_ns);
  EXPECT_EQ(compiled.makespan_ns, reference.makespan_ns);
  EXPECT_EQ(compiled.executed, reference.executed);
  EXPECT_EQ(compiled.stuck_tasks, reference.stuck_tasks);
}

/// Compiles `graph` (expecting success) and checks run() against the
/// coupled interpreter.
void expect_compiles_identical(const ExecutionGraph& graph) {
  ReplayCompiler::Result compiled = ReplayCompiler::compile(graph);
  ASSERT_TRUE(compiled) << "compile fell back: "
                        << to_string(compiled.status);
  SimOptions sim_opts;
  sim_opts.couple_collectives = true;
  const SimResult reference = Simulator(graph, sim_opts).run();
  ASSERT_TRUE(reference.complete());
  expect_identical(compiled.program->run(), reference);
}

/// Same fluent graph builder as test_simulator.cpp: hand-built shapes with
/// full control over lanes, syncs and collectives.
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
};

// ---------------------------------------------------------------------------
// Hand-built shapes: chains, syncs, rendezvous
// ---------------------------------------------------------------------------

TEST(ReplayProgram, ChainBitIdentical) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId b = f.cpu(0, 1, 20);
  TaskId c = f.cpu(0, 1, 30);
  f.graph.add_edge(a, b, DepType::IntraThread);
  f.graph.add_edge(b, c, DepType::IntraThread);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, StreamSynchronizeBitIdentical) {
  GraphFixture f;
  TaskId launch = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k = f.kernel(0, 7, 100);
  TaskId sync = f.runtime(0, 1, 5, "cudaStreamSynchronize", 7);
  TaskId after = f.cpu(0, 1, 1);
  f.graph.add_edge(launch, k, DepType::CpuToGpu);
  f.graph.add_edge(launch, sync, DepType::IntraThread);
  f.graph.add_edge(sync, after, DepType::IntraThread);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, SyncIgnoresLaterKernelsBitIdentical) {
  GraphFixture f;
  TaskId sync = f.runtime(0, 1, 5, "cudaStreamSynchronize", 7);
  TaskId launch = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k = f.kernel(0, 7, 1000);  // launched AFTER the sync (higher id)
  f.graph.add_edge(sync, launch, DepType::IntraThread);
  f.graph.add_edge(launch, k, DepType::CpuToGpu);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, DeviceSynchronizeBitIdentical) {
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
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, EventSynchronizeBitIdentical) {
  GraphFixture f;
  TaskId l1 = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k1 = f.kernel(0, 7, 100);
  TaskId record = f.runtime(0, 1, 2, "cudaEventRecord", 7, /*event=*/1);
  TaskId l2 = f.runtime(0, 1, 5, "cudaLaunchKernel", 7);
  TaskId k2 = f.kernel(0, 7, 1000);
  TaskId esync = f.runtime(0, 2, 3, "cudaEventSynchronize", -1, /*event=*/1);
  f.graph.add_edge(l1, k1, DepType::CpuToGpu);
  f.graph.add_edge(l1, record, DepType::IntraThread);
  f.graph.add_edge(record, l2, DepType::IntraThread);
  f.graph.add_edge(l2, k2, DepType::CpuToGpu);
  f.graph.add_edge(k1, k2, DepType::IntraStream);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, CoupledRendezvousBitIdentical) {
  GraphFixture f;
  TaskId pre0 = f.kernel(0, 7, 100);
  TaskId c0 = f.collective(0, 13, 50, "tp_0", 0);
  TaskId pre1 = f.kernel(1, 7, 400);
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);
  f.graph.add_edge(pre0, c0, DepType::InterStream);
  f.graph.add_edge(pre1, c1, DepType::InterStream);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, CoupledP2pStartsAtRendezvousBitIdentical) {
  GraphFixture f;
  TaskId pre0 = f.kernel(0, 21, 100);
  TaskId send = f.collective(0, 21, 30, "pp_fwd_s0to1", 0, "send");
  TaskId pre1 = f.kernel(1, 22, 400);
  TaskId recv = f.collective(1, 22, 30, "pp_fwd_s0to1", 0, "recv");
  f.graph.add_edge(pre0, send, DepType::IntraStream);
  f.graph.add_edge(pre1, recv, DepType::IntraStream);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, LastArrivalDurationBitIdentical) {
  GraphFixture f;
  TaskId pre0 = f.kernel(0, 7, 100);
  TaskId c0 = f.collective(0, 13, 999, "tp_0", 0);  // wait-inflated profile
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);   // last arrival: pure
  TaskId pre1 = f.kernel(1, 7, 400);
  f.graph.add_edge(pre0, c0, DepType::InterStream);
  f.graph.add_edge(pre1, c1, DepType::InterStream);
  expect_compiles_identical(f.graph);
}

TEST(ReplayProgram, EmptyGraphCompiles) {
  ExecutionGraph g;
  ReplayCompiler::Result compiled = ReplayCompiler::compile(g);
  ASSERT_TRUE(compiled);
  expect_identical(compiled.program->run(), Simulator(g).run());
}

// ---------------------------------------------------------------------------
// Fallbacks: everything the proof does not cover must refuse to compile
// ---------------------------------------------------------------------------

TEST(ReplayCompiler, UnorderedLaneFallsBack) {
  GraphFixture f;
  f.cpu(0, 1, 10);
  f.cpu(0, 1, 10);  // same thread, no edge: order is queue-arbitrated
  ReplayCompiler::Result r = ReplayCompiler::compile(f.graph);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, ReplayCompileStatus::kUnorderedLane);
}

TEST(ReplayCompiler, NonPositiveDurationFallsBack) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId b = f.cpu(0, 1, 0);  // zero-duration: tie-break proof breaks
  f.graph.add_edge(a, b, DepType::IntraThread);
  ReplayCompiler::Result r = ReplayCompiler::compile(f.graph);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, ReplayCompileStatus::kNonPositiveDuration);
}

TEST(ReplayCompiler, DeadlockCycleFallsBack) {
  // test_simulator's IncompleteCollectiveGroupDeadlocksDetectably fixture:
  // the interpreter reports stuck tasks, so the compiler must refuse and
  // leave it to the interpreter.
  GraphFixture f;
  TaskId gate = f.cpu(0, 1, 10);
  TaskId c0 = f.collective(0, 13, 50, "tp_0", 0);
  TaskId c1 = f.collective(1, 13, 50, "tp_0", 0);
  f.graph.add_edge(gate, c0, DepType::InterStream);
  TaskId blocker = f.cpu(1, 1, 10);
  f.graph.add_edge(c1, blocker, DepType::GpuToCpu);
  f.graph.add_edge(blocker, c1, DepType::InterThread);
  ReplayCompiler::Result r = ReplayCompiler::compile(f.graph);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, ReplayCompileStatus::kCyclic);
  EXPECT_STREQ(to_string(r.status), "cyclic");
}

TEST(ReplayCompiler, PlainFixedCycleFallsBack) {
  GraphFixture f;
  TaskId a = f.cpu(0, 1, 10);
  TaskId b = f.cpu(0, 2, 10);
  f.graph.add_edge(a, b, DepType::InterThread);
  f.graph.add_edge(b, a, DepType::InterThread);
  ReplayCompiler::Result r = ReplayCompiler::compile(f.graph);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.status, ReplayCompileStatus::kCyclic);
}

// ---------------------------------------------------------------------------
// Random graphs: testutil::RandomGraph, the generator test_simulator_property
// and test_analysis also use
// ---------------------------------------------------------------------------

using testutil::RandomGraph;

class ReplayProgramProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplayProgramProperty, CoupledBitIdentical) {
  RandomGraph random(GetParam());
  ASSERT_TRUE(random.graph().is_acyclic());
  expect_compiles_identical(random.graph());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayProgramProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// Caller-supplied duration columns (duration-only what-ifs)
// ---------------------------------------------------------------------------

TEST(ReplayProgram, AlternateDurationsMatchHookedInterpreter) {
  // run(span) must equal the interpreter evaluating the same substituted
  // column. The interpreter route for "replace every duration" is hooks,
  // which also covers the collective transfer (last arrival's duration).
  struct ColumnHooks : SimulatorHooks {
    const std::vector<std::int64_t>* column = nullptr;
    std::int64_t task_duration_ns(const Task& t) override {
      return (*column)[static_cast<std::size_t>(t.id)];
    }
    std::int64_t collective_duration_ns(const Task& t, int) override {
      return (*column)[static_cast<std::size_t>(t.id)];
    }
  };
  RandomGraph random(/*seed=*/7);
  ExecutionGraph& g = random.graph();
  std::vector<std::int64_t> column(g.size());
  for (std::size_t i = 0; i < column.size(); ++i) {
    column[i] = 1 + static_cast<std::int64_t>((i * 37) % 211);
  }
  ReplayCompiler::Result compiled = ReplayCompiler::compile(g);
  ASSERT_TRUE(compiled) << to_string(compiled.status);
  ColumnHooks hooks;
  hooks.column = &column;
  SimOptions opts;
  opts.couple_collectives = true;
  opts.hooks = &hooks;
  const SimResult reference = Simulator(g, opts).run();
  ASSERT_TRUE(reference.complete());
  expect_identical(compiled.program->run(column), reference);
}

TEST(ReplayProgram, AcceptsOnlyOnePositiveEntryPerTask) {
  // run(span) is exact only for a full, positive column; accepts() is the
  // check the facade applies before every run(span). No duration provider
  // produces a non-positive entry today (the GPT-3 15B costing floor is
  // 1,500 ns, even at d_model 48), so the refused columns are hand-made.
  GraphFixture f;
  const TaskId a = f.cpu(0, 1, 10);
  const TaskId b = f.cpu(0, 1, 20);
  f.graph.add_edge(a, b, DepType::IntraThread);
  ReplayCompiler::Result compiled = ReplayCompiler::compile(f.graph);
  ASSERT_TRUE(compiled) << to_string(compiled.status);
  const ReplayProgram& program = *compiled.program;
  EXPECT_TRUE(program.accepts(std::vector<std::int64_t>{10, 20}));
  EXPECT_TRUE(program.accepts(std::vector<std::int64_t>{1, 1}));
  EXPECT_FALSE(program.accepts(std::vector<std::int64_t>{10}));  // short
  EXPECT_FALSE(program.accepts(std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_FALSE(program.accepts(std::vector<std::int64_t>{10, 0}));   // zero
  EXPECT_FALSE(program.accepts(std::vector<std::int64_t>{-5, 20}));  // negative
}

// ---------------------------------------------------------------------------
// Fused graphs
// ---------------------------------------------------------------------------

TEST(ReplayProgram, FusedGraphBitIdentical) {
  // Fusion rewrites the graph (eliminated kernels become zero-duration
  // placeholders or drop out); whatever shape it produces, the compiled
  // verdict must agree with the interpreter: either compile + bit-identity
  // or an explicit fallback status.
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  ExecutionGraph graph = TraceParser().parse(run.trace);
  FusionResult fused = fuse_elementwise(graph);
  ASSERT_GT(fused.fused_groups, 0u);
  ReplayCompiler::Result compiled = ReplayCompiler::compile(fused.graph);
  const SimResult reference = replay(fused.graph);
  if (compiled) {
    expect_identical(compiled.program->run(), reference);
  } else {
    EXPECT_NE(compiled.status, ReplayCompileStatus::kCompiled);
  }
}

// ---------------------------------------------------------------------------
// Realistic traces: seed-123 ground truth and a 20-rank ingest-style trace
// ---------------------------------------------------------------------------

TEST(ReplayProgram, Seed123GroundTruthBitIdentical) {
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  ExecutionGraph graph = TraceParser().parse(run.trace);
  ReplayCompiler::Result compiled = ReplayCompiler::compile(graph);
  ASSERT_TRUE(compiled) << to_string(compiled.status);
  const SimResult reference = replay(graph);
  // The golden constants the ingest suite pins for this fixture.
  EXPECT_EQ(reference.executed, 6544u);
  EXPECT_EQ(reference.makespan_ns, 9696976);
  expect_identical(compiled.program->run(), reference);
}

/// FNV-1a over a program's fields, one by one. Hashing fields rather than
/// raw records keeps the digest independent of the records' layout.
std::uint64_t program_digest(const ReplayProgram& program) {
  io::Fnv1a h;
  for (const ReplayProgram::Instr& ins : program.instructions()) {
    h.update_pod(static_cast<std::uint8_t>(ins.op));
    h.update_pod(ins.lane);
    h.update_pod(ins.id);
    h.update_pod(ins.first);
    h.update_pod(ins.count);
  }
  for (const TaskId t : program.operands()) h.update_pod(t);
  for (const ReplayProgram::Member& m : program.members()) {
    h.update_pod(m.task);
    h.update_pod(m.lane);
    h.update_pod(static_cast<std::uint8_t>(m.p2p));
  }
  return h.digest();
}

TEST(ReplayProgram, Seed123CompileOutputIsPinned) {
  // Snapshots store compiled programs and load them without recompiling,
  // so what compile() emits for a graph is part of the snapshot format.
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  const ExecutionGraph graph = TraceParser().parse(run.trace);
  ReplayCompiler::Result compiled = ReplayCompiler::compile(graph);
  ASSERT_TRUE(compiled) << to_string(compiled.status);
  const ReplayProgram& program = *compiled.program;
  EXPECT_EQ(program.instructions().size(), 6697u);
  EXPECT_EQ(program.operands().size(), 9014u);
  EXPECT_EQ(program.members().size(), 304u);
  EXPECT_EQ(program_digest(program), 0xf8390cc23249bf9eULL)
      << "ReplayCompiler output changed. Snapshots store compiled programs, "
         "so this change must bump snapshot::kFormatVersion (then re-pin "
         "this digest).";
}

TEST(ReplayProgram, TwentyRankClusterTraceBitIdentical) {
  // The test_ingest 20-rank synthetic shape: per-rank runtime/kernel
  // streams, rank-unique CPU ops, and 4-way coupled collective groups
  // spanning every 4th rank.
  trace::ClusterTrace cluster;
  constexpr std::size_t kRanks = 20;
  for (std::size_t r = 0; r < kRanks; ++r) {
    trace::RankTrace& rank = cluster.add_rank(static_cast<std::int32_t>(r));
    std::int64_t ts = 1000;
    for (std::size_t i = 0; i < 40; ++i) {
      trace::TraceEvent launch;
      launch.name = "cudaLaunchKernel";
      launch.cat = trace::EventCategory::CudaRuntime;
      launch.ts_ns = ts;
      launch.dur_ns = 5;
      launch.pid = static_cast<std::int32_t>(r);
      launch.tid = 1;
      launch.stream = 7;
      rank.events.push_back(launch);
      trace::TraceEvent kernel;
      kernel.name = "dev_kernel";
      kernel.cat = trace::EventCategory::Kernel;
      kernel.ts_ns = ts + 10;
      kernel.dur_ns = 50;
      kernel.pid = static_cast<std::int32_t>(r);
      kernel.tid = 7;
      kernel.stream = 7;
      rank.events.push_back(kernel);
      if (i % 4 == r % 4) {
        trace::TraceEvent coll;
        coll.name = "ncclDevKernel_AllReduce";
        coll.cat = trace::EventCategory::Kernel;
        coll.ts_ns = ts + 40;
        coll.dur_ns = 30;
        coll.pid = static_cast<std::int32_t>(r);
        coll.tid = 9;
        coll.stream = 9;
        coll.collective.op = "allreduce";
        coll.collective.group = "dp_" + std::to_string(r % 4);
        coll.collective.bytes = 1 << 16;
        coll.collective.group_size = 5;
        coll.collective.instance = static_cast<std::int64_t>(i);
        rank.events.push_back(coll);
      }
      ts += 100;
    }
  }
  ExecutionGraph graph = TraceParser().parse(cluster);
  expect_compiles_identical(graph);
}

// ---------------------------------------------------------------------------
// Concurrency: one shared immutable program, many replaying threads
// ---------------------------------------------------------------------------

TEST(ReplayProgram, ConcurrentReplayOfSharedProgram) {
  RandomGraph random(/*seed=*/11);
  ReplayCompiler::Result compiled = ReplayCompiler::compile(random.graph());
  ASSERT_TRUE(compiled) << to_string(compiled.status);
  std::shared_ptr<const ReplayProgram> program = compiled.program;
  SimOptions opts;
  opts.couple_collectives = true;
  const SimResult reference = Simulator(random.graph(), opts).run();

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 8;
  std::vector<std::vector<SimResult>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        results[static_cast<std::size_t>(t)].push_back(program->run());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& per_thread : results) {
    ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kRunsPerThread));
    for (const SimResult& r : per_thread) expect_identical(r, reference);
  }
}

}  // namespace
}  // namespace lumos::core

// ---------------------------------------------------------------------------
// Facade wiring: Prediction's used_compiled_replay provenance flag,
// SweepReport::compiled_replays, and serve::Engine's once-per-entry compile.
// The contract is the same as at the core layer — every facade replay is
// bit-identical to the coupled interpreter run on the same graph — plus
// correct provenance: a hook-free prediction whose graph compiles reports
// the compiled path, whether it reuses the baseline's program or compiles
// the graph a rebuild / fusion / dropped dependency produced; hooks, fault
// contention or dropout, and a graph that does not compile report the
// interpreter.
// ---------------------------------------------------------------------------

namespace lumos {
namespace {

using api::BaselineArtifacts;
using api::Prediction;
using api::Scenario;
using api::Session;
using api::Sweep;
using api::whatif;

void expect_same_sim(const core::SimResult& a, const core::SimResult& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.stuck_tasks, b.stuck_tasks);
}

Scenario tiny_scenario() {
  return Scenario::synthetic()
      .with_model(testutil::tiny_model())
      .with_parallelism(testutil::tiny_config())
      .with_seed(123);
}

/// The coupled interpreter run every facade replay must reproduce.
core::SimResult interpreted(const core::ExecutionGraph& graph) {
  core::SimOptions options;
  options.couple_collectives = true;
  return core::Simulator(graph, options).run();
}

TEST(FacadeCompiledReplay, SessionReplayBitIdenticalToInterpreter) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<const core::SimResult*> fast = session->replay();
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  Result<const core::ExecutionGraph*> graph = session->graph();
  ASSERT_TRUE(graph.is_ok());
  expect_same_sim(**fast, interpreted(**graph));
}

TEST(FacadeCompiledReplay, NoOpPredictReportsCompiledPath) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> fast = session->predict();
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  EXPECT_TRUE(fast->used_compiled_replay);
  expect_same_sim(fast->sim, interpreted(**session->graph()));
}

TEST(FacadeCompiledReplay, HooksForceInterpreterFallback) {
  // An identity hook must not change results, but its presence must force
  // the interpreter: the compiled program has no per-pick callback points.
  class IdentityHooks : public core::SimulatorHooks {
   public:
    std::int64_t task_duration_ns(const core::Task& t) override {
      return t.event.dur_ns;
    }
  };
  ASSERT_TRUE(Session::register_hooks("replay_identity_hooks", [] {
                return std::make_unique<IdentityHooks>();
              }).is_ok());
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<Prediction> compiled = session->predict();
  Result<Prediction> hooked =
      session->predict(whatif().with_hooks("replay_identity_hooks"));
  ASSERT_TRUE(compiled.is_ok());
  ASSERT_TRUE(hooked.is_ok()) << hooked.status().to_string();
  EXPECT_TRUE(compiled->used_compiled_replay);
  EXPECT_FALSE(hooked->used_compiled_replay);
  expect_same_sim(compiled->sim, hooked->sim);
}

/// The graph a what-if with data-parallel degree `dp` runs: `base.graph`
/// rebuilt by the manipulator with the inputs predict_on gives it.
core::ExecutionGraph rebuilt_with_dp(const BaselineArtifacts& base,
                                     std::int32_t dp) {
  const cost::KernelPerfModel kernel_model(base.scenario.hardware());
  const core::GraphManipulator manipulator(*base.graph, *base.model,
                                           *base.config, kernel_model,
                                           base.scenario.build_options());
  workload::ParallelConfig target = *base.config;
  target.dp = dp;
  return manipulator.with_spec(*base.model, target).graph;
}

TEST(FacadeCompiledReplay, StructureChangingWhatIfsCompileTheGraphTheyRun) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const core::ExecutionGraph& graph = *base->graph;

  // Fused and rebuilt what-ifs compile the graph they run and replay it
  // compiled, bit-identical to the interpreter on that graph.
  Result<Prediction> fused = session->predict(whatif().with_fusion());
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  EXPECT_TRUE(fused->used_compiled_replay);
  expect_same_sim(fused->sim,
                  interpreted(core::fuse_elementwise(graph, {}).graph));
  Result<Prediction> rebuilt =
      session->predict(whatif().with_data_parallelism(2));
  ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
  EXPECT_TRUE(rebuilt->used_compiled_replay);
  expect_same_sim(rebuilt->sim, interpreted(rebuilt_with_dp(*base, 2)));

  // Without intra-stream edges the compiler cannot order a stream's
  // kernels, so that what-if falls back to the interpreter.
  const core::ExecutionGraph unordered =
      graph.without_edges(core::DepType::IntraStream);
  ASSERT_EQ(core::ReplayCompiler::compile(unordered).status,
            core::ReplayCompileStatus::kUnorderedLane);
  Result<Prediction> dropped = session->predict(
      whatif().without_dependencies(core::DepType::IntraStream));
  ASSERT_TRUE(dropped.is_ok()) << dropped.status().to_string();
  EXPECT_FALSE(dropped->used_compiled_replay);
  expect_same_sim(dropped->sim, interpreted(unordered));
}

TEST(FacadeCompiledReplay, RebuiltWhatIfWithDurationOnlyFaultsRunsCompiled) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  const std::int32_t dp = 2 * base->config->dp;
  const core::ExecutionGraph rebuilt = rebuilt_with_dp(*base, dp);
  // The interpreter with the plan's column hooks, the plan lowered against
  // the rebuilt graph as predict_on lowers it.
  const auto faulted_reference = [&rebuilt](const faults::FaultSpec& spec) {
    const faults::FaultPlan plan = faults::FaultPlan::lower(rebuilt, spec);
    EXPECT_TRUE(plan.ok()) << plan.error();
    core::SimOptions options;
    options.couple_collectives = true;
    faults::ColumnHooks hooks = plan.make_hooks();
    options.hooks = &hooks;
    return core::Simulator(rebuilt, options).run();
  };

  const faults::FaultSpec slow = faults::FaultSpec().slow_rank(0, 1.5);
  const core::SimResult slow_reference = faulted_reference(slow);
  EXPECT_GT(slow_reference.makespan_ns, interpreted(rebuilt).makespan_ns);
  Result<Prediction> compiled = session->predict(
      whatif().with_data_parallelism(dp).with_faults(slow));
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  EXPECT_TRUE(compiled->used_compiled_replay);
  expect_same_sim(compiled->sim, slow_reference);

  // Contention reads the interpreter's rendezvous concurrency signal, so a
  // rebuilt what-if that carries it stays on the interpreter.
  const faults::FaultSpec contended =
      faults::FaultSpec().slow_rank(0, 1.5).with_contention(0.1);
  Result<Prediction> interpreted_faults = session->predict(
      whatif().with_data_parallelism(dp).with_faults(contended));
  ASSERT_TRUE(interpreted_faults.is_ok())
      << interpreted_faults.status().to_string();
  EXPECT_FALSE(interpreted_faults->used_compiled_replay);
  expect_same_sim(interpreted_faults->sim, faulted_reference(contended));
}

TEST(FacadeCompiledReplay, SweepCountsCompiledReplays) {
  Result<Sweep> sweep = Sweep::create(tiny_scenario());
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  sweep->add("noop_a", whatif());
  sweep->add("noop_b", whatif());
  sweep->add("fused", whatif().with_fusion());
  Result<api::SweepReport> sequential = sweep->run(1);
  Result<api::SweepReport> parallel = sweep->run(3);
  ASSERT_TRUE(sequential.is_ok());
  ASSERT_TRUE(parallel.is_ok());
  // The two no-op variants reuse the baseline's one-time compile; the fused
  // variant compiles the graph it runs.
  EXPECT_EQ(sequential->compiled_replays, 3u);
  EXPECT_EQ(parallel->compiled_replays, 3u);
  ASSERT_EQ(sequential->rows.size(), parallel->rows.size());
  for (std::size_t i = 0; i < sequential->rows.size(); ++i) {
    ASSERT_TRUE(sequential->rows[i].ok());
    expect_same_sim(sequential->rows[i].prediction->sim,
                    parallel->rows[i].prediction->sim);
  }
}

TEST(FacadeCompiledReplay, SnapshotOfABaselineWithoutAProgramStoresOne) {
  // Caller-built artifacts may come without their program: the save
  // compiles it, so the engine's miss finds it in the image and the loaded
  // baseline replays compiled without an attach_replay_program call.
  const std::string path = ::testing::TempDir() + "replay_compiled.snap";
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  base->program = nullptr;
  ASSERT_TRUE(api::save_baseline_snapshot(*base, path).is_ok());

  serve::Request request;
  request.method = serve::Method::kPredict;
  request.baseline = path;

  serve::Engine engine;
  Result<serve::Engine::Outcome> first = engine.predict(request);
  Result<serve::Engine::Outcome> second = engine.predict(request);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(first->prediction.used_compiled_replay);
  EXPECT_TRUE(second->prediction.used_compiled_replay);
  EXPECT_TRUE(second->baseline_was_cached);

  Result<BaselineArtifacts> loaded = api::load_baseline_snapshot(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_NE(loaded->program, nullptr);
  expect_same_sim(first->prediction.sim, interpreted(*loaded->graph));
}

/// Writes testutil::zero_duration_kernel_trace: a structure-preserving,
/// hook-free what-if over its graph still has to run on the interpreter.
std::string write_uncompilable_trace() {
  const std::string prefix = ::testing::TempDir() + "replay_uncompilable";
  EXPECT_EQ(trace::write_cluster_trace_files(
                testutil::zero_duration_kernel_trace(), prefix)
                .size(),
            1u);
  return prefix;
}

TEST(FacadeCompiledReplay, BaselineThatDoesNotCompileRunsTheInterpreter) {
  Result<Session> session =
      Session::create(Scenario::from_trace(write_uncompilable_trace(), 1));
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  ASSERT_EQ(core::ReplayCompiler::compile(*base->graph).status,
            core::ReplayCompileStatus::kNonPositiveDuration);
  api::attach_replay_program(*base);
  EXPECT_EQ(base->program, nullptr);

  const core::SimResult reference = interpreted(*base->graph);
  ASSERT_TRUE(reference.complete());
  Result<Prediction> predicted = session->predict();
  ASSERT_TRUE(predicted.is_ok()) << predicted.status().to_string();
  EXPECT_FALSE(predicted->used_compiled_replay);
  expect_same_sim(predicted->sim, reference);

  Result<Sweep> sweep = Sweep::over(*session);
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  sweep->add("noop", whatif());
  Result<api::SweepReport> report = sweep->run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_TRUE(report->rows[0].ok());
  EXPECT_EQ(report->compiled_replays, 0u);
  expect_same_sim(report->rows[0].prediction->sim, reference);

  // A duration-only plan would ride a compiled program; without one it
  // runs on the interpreter through the plan's column hooks.
  const faults::FaultSpec spec = faults::FaultSpec().slow_rank(0, 3.0);
  const faults::FaultPlan plan = faults::FaultPlan::lower(*base->graph, spec);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_TRUE(plan.compiled_eligible());
  core::SimOptions options;
  options.couple_collectives = true;
  faults::ColumnHooks hooks = plan.make_hooks();
  options.hooks = &hooks;
  const core::SimResult faulted_reference =
      core::Simulator(*base->graph, options).run();
  EXPECT_GT(faulted_reference.makespan_ns, reference.makespan_ns);
  Result<core::SimResult> faulted = api::replay_faulted(*base, spec);
  ASSERT_TRUE(faulted.is_ok()) << faulted.status().to_string();
  expect_same_sim(*faulted, faulted_reference);
  Result<Prediction> faulted_prediction =
      session->predict(whatif().with_faults(spec));
  ASSERT_TRUE(faulted_prediction.is_ok())
      << faulted_prediction.status().to_string();
  EXPECT_FALSE(faulted_prediction->used_compiled_replay);
  expect_same_sim(faulted_prediction->sim, faulted_reference);
}

}  // namespace
}  // namespace lumos
