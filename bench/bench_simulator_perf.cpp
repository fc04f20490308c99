// Simulator/toolkit performance microbenchmarks (google-benchmark).
//
// Paper §4: "Depending on the complexity of the original traces, the entire
// process can range from a few seconds to several minutes." These benches
// measure the throughput of each pipeline stage — graph construction from
// traces, Algorithm-1 replay, JSON encode/decode, file-level trace ingest,
// the interval-union kernel — in tasks (or bytes) per second.
//
// Besides the console output, the binary writes a BENCH_io.json trajectory
// artifact (path override: LUMOS_BENCH_IO_OUT) covering the graph
// producers (BM_GraphBuild, BM_TraceParse, BM_Rebuild and its costing
// half BM_RebuildCosting, BM_MetaBuild), the I/O fast-path
// benches (BM_Write*, BM_ParseFile, BM_MergeIntervals, BM_Parse, the
// snapshot A/B: BM_Snapshot* (save, load, and load plus the compile a
// serve miss paid before images stored their program), BM_IngestBaseline,
// plus the replay A/B:
// BM_Replay*, BM_ReplayCompiled, BM_CompileProgram, and on rebuilt graphs
// BM_ReplayRebuilt vs BM_CompileReplayRebuilt, and BM_Breakdown over a
// compiled schedule, and the replayed-trace emit: BM_EmitRank (one rank to
// JSON) and BM_ToTrace (every rank)), so CI runs leave a machine-readable
// record future PRs can diff against.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/interval_merge.h"
#include "cluster/ground_truth.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "costmodel/kernel_model.h"
#include "faults/fault_plan.h"
#include "json/json.h"
#include "snapshot/snapshot.h"
#include "trace/chrome_trace.h"
#include "trace/json_writer.h"
#include "workload/analytical_provider.h"
#include "workload/graph_builder.h"

namespace {

using namespace lumos;

workload::ModelSpec bench_model() {
  workload::ModelSpec m;
  m.name = "bench";
  m.num_layers = 16;
  m.d_model = 2048;
  m.d_ff = 8192;
  m.num_heads = 16;
  m.head_dim = 128;
  m.vocab_size = 16384;
  m.seq_len = 1024;
  return m;
}

workload::ParallelConfig bench_config(std::int32_t microbatches) {
  workload::ParallelConfig c;
  c.tp = 2;
  c.pp = 2;
  c.dp = 2;
  c.num_microbatches = microbatches;
  return c;
}

const cluster::GroundTruthRun& cached_run(std::int32_t microbatches) {
  static std::map<std::int32_t, cluster::GroundTruthRun> cache;
  auto it = cache.find(microbatches);
  if (it == cache.end()) {
    cluster::GroundTruthEngine engine(bench_model(),
                                      bench_config(microbatches));
    it = cache.emplace(microbatches, engine.run_profiled(1)).first;
  }
  return it->second;
}

void BM_GraphBuild(benchmark::State& state) {
  const auto microbatches = static_cast<std::int32_t>(state.range(0));
  cost::KernelPerfModel model;
  workload::AnalyticalProvider provider(model);
  std::size_t tasks = 0;
  for (auto _ : state) {
    workload::IterationGraphBuilder builder(bench_model(),
                                            bench_config(microbatches),
                                            provider);
    auto job = builder.build();
    tasks = job.graph.size();
    benchmark::DoNotOptimize(job);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_GraphBuild)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_TraceParse(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::TraceParser parser;
  std::size_t tasks = 0;
  for (auto _ : state) {
    core::ExecutionGraph g = parser.parse(run.trace);
    tasks = g.size();
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_TraceParse)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// What-if rebuild: GraphManipulator::with_spec, the stage every rebuilt
// what-if pays (Session::predict, each Sweep grid row) — template lookups,
// column emission, meta classification and adjacency.
// ---------------------------------------------------------------------------

workload::ParallelConfig config_15b(std::int32_t pp, std::int32_t dp) {
  workload::ParallelConfig c;
  c.tp = 2;
  c.pp = pp;
  c.dp = dp;
  return c;
}

/// The GPT-3 15B 2x2x4 profiled baseline (~36k tasks) the rebuilds start from.
const core::ExecutionGraph& rebuild_baseline() {
  static const core::ExecutionGraph graph = [] {
    cluster::GroundTruthEngine engine(workload::ModelSpec::gpt3_15b(),
                                      config_15b(2, 4));
    return core::TraceParser().parse(engine.run_profiled(7).trace);
  }();
  return graph;
}

// Args = target (PP, DP): 2x4x8 (~73k tasks) and 2x16x32 (~311k tasks).
void BM_Rebuild(benchmark::State& state) {
  const workload::ModelSpec model = workload::ModelSpec::gpt3_15b();
  const cost::KernelPerfModel kernel_model;
  const core::GraphManipulator manipulator(rebuild_baseline(), model,
                                           config_15b(2, 4), kernel_model);
  const workload::ParallelConfig target =
      config_15b(static_cast<std::int32_t>(state.range(0)),
                 static_cast<std::int32_t>(state.range(1)));
  std::size_t tasks = 0;
  for (auto _ : state) {
    workload::BuiltJob job = manipulator.with_spec(model, target);
    tasks = job.graph.size();
    benchmark::DoNotOptimize(job);
  }
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Rebuild)->Args({4, 8})->Args({16, 32})
    ->Unit(benchmark::kMillisecond);

// The costing half of a rebuild, GraphManipulator::durations: what a Sweep
// row pays when another row of its structure already built and compiled
// the graph. Same targets as BM_Rebuild; perf-smoke gates the /16/32 ratio.
void BM_RebuildCosting(benchmark::State& state) {
  const workload::ModelSpec model = workload::ModelSpec::gpt3_15b();
  const cost::KernelPerfModel kernel_model;
  const core::GraphManipulator manipulator(rebuild_baseline(), model,
                                           config_15b(2, 4), kernel_model);
  const workload::ParallelConfig target =
      config_15b(static_cast<std::int32_t>(state.range(0)),
                 static_cast<std::int32_t>(state.range(1)));
  std::size_t tasks = 0;
  for (auto _ : state) {
    std::vector<std::int64_t> column = manipulator.durations(model, target);
    tasks = column.size();
    benchmark::DoNotOptimize(column);
  }
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RebuildCosting)->Args({4, 8})->Args({16, 32})
    ->Unit(benchmark::kMillisecond);

/// The rebuilt 15B graph for target (PP, DP), rebuilt once per target from
/// rebuild_baseline() exactly as a Sweep grid row rebuilds it.
const core::ExecutionGraph& rebuilt_graph(std::int32_t pp, std::int32_t dp) {
  static std::map<std::pair<std::int32_t, std::int32_t>, core::ExecutionGraph>
      cache;
  auto it = cache.find({pp, dp});
  if (it == cache.end()) {
    const workload::ModelSpec model = workload::ModelSpec::gpt3_15b();
    const cost::KernelPerfModel kernel_model;
    const core::GraphManipulator manipulator(rebuild_baseline(), model,
                                             config_15b(2, 4), kernel_model);
    it = cache.emplace(std::make_pair(pp, dp),
                       manipulator.with_spec(model, config_15b(pp, dp)).graph)
             .first;
  }
  return it->second;
}

// Replaying a rebuilt what-if on the coupled interpreter. Paired with
// BM_CompileReplayRebuilt on the same graphs: a rebuilt row takes the
// compiled engine only because compile plus one compiled run beats this.
// Args = target (PP, DP): 2x2x4 (~36k tasks), 2x4x8 (~73k), 2x16x32 (~311k).
void BM_ReplayRebuilt(benchmark::State& state) {
  const core::ExecutionGraph& graph =
      rebuilt_graph(static_cast<std::int32_t>(state.range(0)),
                    static_cast<std::int32_t>(state.range(1)));
  core::SimOptions options;
  options.couple_collectives = true;
  for (auto _ : state) {
    core::SimResult r = core::Simulator(graph, options).run();
    benchmark::DoNotOptimize(r);
  }
  state.counters["tasks"] = static_cast<double>(graph.size());
  state.counters["tasks_per_s"] =
      benchmark::Counter(static_cast<double>(graph.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ReplayRebuilt)->Args({2, 4})->Args({4, 8})->Args({16, 32})
    ->Unit(benchmark::kMillisecond);

// What a rebuilt what-if pays on the compiled engine: one
// ReplayCompiler::compile of the graph it runs, then one compiled run.
void BM_CompileReplayRebuilt(benchmark::State& state) {
  const core::ExecutionGraph& graph =
      rebuilt_graph(static_cast<std::int32_t>(state.range(0)),
                    static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    core::ReplayCompiler::Result compiled =
        core::ReplayCompiler::compile(graph);
    if (!compiled) {
      state.SkipWithError(core::to_string(compiled.status));
      return;
    }
    core::SimResult r = compiled.program->run();
    benchmark::DoNotOptimize(r);
  }
  state.counters["tasks"] = static_cast<double>(graph.size());
  state.counters["tasks_per_s"] =
      benchmark::Counter(static_cast<double>(graph.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CompileReplayRebuilt)->Args({2, 4})->Args({4, 8})
    ->Args({16, 32})->Unit(benchmark::kMillisecond);

void BM_Replay(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  for (auto _ : state) {
    core::SimResult r = core::replay(graph);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
// Arg = microbatch count; 64 is the "large synthetic graph" (~200k tasks)
// the CI perf-smoke job tracks events/sec on.
BENCHMARK(BM_Replay)->Arg(2)->Arg(8)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The compiled fast path over the same graphs: one ReplayCompiler::compile
// up front (amortized across a baseline's lifetime, measured separately by
// BM_CompileProgram), then each iteration is the flat dispatch loop. The
// ISSUE-9 acceptance gate compares this against BM_Replay tasks/s at the
// same Arg.
void BM_ReplayCompiled(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::ReplayCompiler::Result compiled = core::ReplayCompiler::compile(graph);
  if (!compiled) {
    state.SkipWithError(core::to_string(compiled.status));
    return;
  }
  for (auto _ : state) {
    core::SimResult r = compiled.program->run();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_ReplayCompiled)->Arg(2)->Arg(8)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The breakdown every prediction computes after its replay, over the
// schedule BM_ReplayCompiled produces at the same Arg. perf-smoke gates its
// cpu time against BM_ReplayCompiled/64's as a same-process ratio.
void BM_Breakdown(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::ReplayCompiler::Result compiled = core::ReplayCompiler::compile(graph);
  if (!compiled) {
    state.SkipWithError(core::to_string(compiled.status));
    return;
  }
  const core::SimResult sim = compiled.program->run();
  for (auto _ : state) {
    analysis::Breakdown b = analysis::compute_breakdown(graph, sim);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_Breakdown)->Arg(64)->Unit(benchmark::kMillisecond);

// The one-time lowering cost (topo order, lane-order proofs, rendezvous
// grouping, instruction emission) — what a Session/serve cache entry pays
// once so that every replay after is BM_ReplayCompiled-shaped.
void BM_CompileProgram(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  for (auto _ : state) {
    core::ReplayCompiler::Result compiled =
        core::ReplayCompiler::compile(graph);
    if (!compiled) {
      state.SkipWithError(core::to_string(compiled.status));
      return;
    }
    benchmark::DoNotOptimize(compiled.program);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_CompileProgram)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// Faulted replay on the compiled fast path: a representative duration-only
// FaultSpec (one straggler rank, cluster-wide link degradation, lognormal
// jitter) lowered once into a perturbed column, then every iteration is
// ReplayProgram::run(span) over that column. Tracked next to
// BM_ReplayCompiled in BENCH_io.json: the two must stay within noise of
// each other — injecting faults is a different column, not a different
// code path.
void BM_FaultedReplay(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  core::ReplayCompiler::Result compiled = core::ReplayCompiler::compile(graph);
  if (!compiled) {
    state.SkipWithError(core::to_string(compiled.status));
    return;
  }
  const faults::FaultSpec spec = faults::FaultSpec()
                                     .slow_rank(0, 1.5)
                                     .degrade_links(1.2)
                                     .with_jitter(0.05)
                                     .with_seed(123);
  const faults::FaultPlan plan = faults::FaultPlan::lower(graph, spec);
  if (!plan.ok()) {
    state.SkipWithError(plan.error().c_str());
    return;
  }
  for (auto _ : state) {
    core::SimResult r = compiled.program->run(plan.durations());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_FaultedReplay)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// Cost of the build-time classification pass (TaskMetaTable::build over a
// graph's column payload): lane assignment, rendezvous-group
// materialization, sync-target resolution. This is what parse/build pays
// once so that every replay above touches only flat columns.
void BM_MetaBuild(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  core::ExecutionGraph graph = core::TraceParser().parse(run.trace);
  const auto columns =
      std::make_shared<const core::ColumnTaskSource>(graph.meta().columns());
  for (auto _ : state) {
    core::TaskMetaTable meta = core::TaskMetaTable::build(columns);
    benchmark::DoNotOptimize(meta);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(graph.size()) *
                          state.iterations());
  state.counters["tasks"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_MetaBuild)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_CoupledGroundTruth(benchmark::State& state) {
  cluster::GroundTruthEngine engine(
      bench_model(), bench_config(static_cast<std::int32_t>(state.range(0))));
  for (auto _ : state) {
    auto run = engine.run_actual(7);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_CoupledGroundTruth)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// JSON -> columnar EventTable ingest throughput (the SAX zero-copy parse
// path). This is what a front end pays per profiled rank file before any
// graph work happens; the CI perf-smoke job tracks events/sec here next to
// BM_Replay so parse regressions are as visible as replay regressions.
void BM_Parse(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  const std::string json = trace::to_json_string(run.trace.ranks[0]);
  std::size_t events = 0;
  for (auto _ : state) {
    trace::RankTrace back = trace::rank_trace_from_json_string(json);
    events = back.events.size();
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
  state.counters["events"] = static_cast<double>(events);
  state.counters["bytes"] = static_cast<double>(json.size());
}
BENCHMARK(BM_Parse)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ChromeTraceEncode(benchmark::State& state) {
  const auto& run = cached_run(4);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string json = trace::to_json_string(run.trace.ranks[0]);
    bytes = json.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_ChromeTraceEncode)->Unit(benchmark::kMillisecond);

void BM_ChromeTraceDecode(benchmark::State& state) {
  const auto& run = cached_run(4);
  const std::string json = trace::to_json_string(run.trace.ranks[0]);
  for (auto _ : state) {
    trace::RankTrace back = trace::rank_trace_from_json_string(json);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(json.size()) *
                          state.iterations());
}
BENCHMARK(BM_ChromeTraceDecode)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Zero-copy I/O fast path (PR 5). Arg = microbatch count of the rank
// fixture; 8 is the ~1.4MB rank file the acceptance numbers quote.
// ---------------------------------------------------------------------------

// Streaming writer through the public to_json_string entry point — a fresh
// JsonWriter (buffer + memo) per call.
void BM_Write(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string json = trace::to_json_string(run.trace.ranks[0]);
    bytes = json.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.counters["events"] =
      static_cast<double>(run.trace.ranks[0].events.size());
}
BENCHMARK(BM_Write)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// Steady-state writer reuse — the Session::write_trace_files shape: one
// JsonWriter whose output buffer and escaped-string memo persist across
// ranks.
void BM_WriteReuse(benchmark::State& state) {
  const auto& run = cached_run(static_cast<std::int32_t>(state.range(0)));
  trace::JsonWriter writer;
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string_view json = writer.write(run.trace.ranks[0]);
    bytes = json.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_WriteReuse)->Arg(8)->Unit(benchmark::kMillisecond);

/// One rank fixture file per microbatch count, written once into the temp
/// dir (file-level ingest benches read it repeatedly).
const std::string& fixture_file(std::int32_t microbatches) {
  static std::map<std::int32_t, std::string> cache;
  auto it = cache.find(microbatches);
  if (it == cache.end()) {
    const auto& run = cached_run(microbatches);
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("lumos_bench_rank0_mb" + std::to_string(microbatches) + ".json"))
            .string();
    std::ofstream out(path, std::ios::binary);
    out << trace::to_json_string(run.trace.ranks[0]);
    it = cache.emplace(microbatches, std::move(path)).first;
  }
  return it->second;
}

// File-level ingest: the mmap zero-copy path (madvise SEQUENTIAL) straight
// into the SAX parser, no intermediate owning buffer.
void BM_ParseFile(benchmark::State& state) {
  const std::string& path = fixture_file(8);
  const auto bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
  std::size_t events = 0;
  for (auto _ : state) {
    trace::RankTrace back = trace::rank_trace_from_json_file(path);
    events = back.events.size();
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(bytes * state.iterations());
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_ParseFile)->Unit(benchmark::kMillisecond);

/// The 16-rank cluster fixture for the parallel-ingest bench: the bench
/// model on a 2x8x2 deployment. The builder materializes one data-parallel
/// replica (tp*pp ranks), so tp*pp = 16 real rank files are written once as
/// <prefix>_rank<k>.json.
struct ClusterFixture {
  std::string prefix;
  std::size_t ranks = 0;
  std::size_t events = 0;
  std::int64_t bytes = 0;
};

/// The seed-123 ground-truth run of the bench model on 2x8x2 (16 ranks,
/// microbatch-4): the cluster-ingest and emit fixtures' input.
const cluster::GroundTruthRun& cluster16_run() {
  static const cluster::GroundTruthRun run = [] {
    workload::ParallelConfig config;
    config.tp = 2;
    config.pp = 8;
    config.dp = 2;
    config.num_microbatches = 4;
    cluster::GroundTruthEngine engine(bench_model(), config);
    return engine.run_profiled(123);
  }();
  return run;
}

const ClusterFixture& cluster_fixture() {
  static const ClusterFixture fixture = [] {
    ClusterFixture f;
    const cluster::GroundTruthRun& run = cluster16_run();
    f.prefix =
        (std::filesystem::temp_directory_path() / "lumos_bench_cluster16")
            .string();
    f.ranks = trace::write_cluster_trace_files(run.trace, f.prefix).size();
    f.events = run.trace.total_events();
    for (const trace::RankTrace& rank : run.trace.ranks) {
      f.bytes += static_cast<std::int64_t>(std::filesystem::file_size(
          f.prefix + "_rank" + std::to_string(rank.rank) + ".json"));
    }
    return f;
  }();
  return fixture;
}

// Cluster-scale parallel ingest (discovery + fan-out parse + deterministic
// pool merge). Arg = ingest_workers: 1 is the serial reference, 4 the
// acceptance-gate point (≥2x over serial on this ≥16-rank fixture), 0 lets
// resolve_workers pick one worker per hardware thread. Any worker count
// produces a bit-identical ClusterTrace (tests/test_ingest.cpp pins that);
// the counters track ranks/s and events/s next to the per-file BM_Parse.
void BM_ParseCluster(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const ClusterFixture& f = cluster_fixture();
  for (auto _ : state) {
    trace::ClusterTrace cluster = trace::read_cluster_trace(
        f.prefix, f.ranks, {.ingest_workers = workers});
    benchmark::DoNotOptimize(cluster);
  }
  state.SetBytesProcessed(f.bytes * state.iterations());
  state.counters["ranks"] = benchmark::Counter(
      static_cast<double>(f.ranks),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(f.events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(workers == 0 ? "auto"
                              : std::to_string(workers) + "-worker");
}
// UseRealTime: the main thread sleeps while the pool parses, so CPU-time
// rates would be nonsense for the multi-worker points.
BENCHMARK(BM_ParseCluster)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// The 16-rank cluster trace parsed and replayed: the graph and schedule
/// a trace-directory Session emits its Chrome trace from.
struct EmitFixture {
  core::ExecutionGraph graph;
  core::SimResult result;
};

const EmitFixture& emit_fixture() {
  static const EmitFixture fixture = [] {
    EmitFixture f{core::TraceParser().parse(cluster16_run().trace), {}};
    f.result = core::replay(f.graph);
    return f;
  }();
  return fixture;
}

// One rank of the replayed trace as Chrome-trace JSON, the way
// Session::chrome_trace_json builds it: SimResult::emit_rank gathers rank
// 0's rows (one pass over the rank column, a sort, one column gather),
// then the streaming writer prints them.
void BM_EmitRank(benchmark::State& state) {
  const EmitFixture& f = emit_fixture();
  std::size_t bytes = 0;
  std::size_t events = 0;
  for (auto _ : state) {
    trace::RankTrace rank{0, trace::EventTable{}};
    f.result.emit_rank(f.graph, rank);
    std::string json = trace::to_json_string(rank);
    bytes = json.size();
    events = rank.events.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_EmitRank)->Unit(benchmark::kMillisecond);

// The whole replayed trace: SimResult::to_trace over all 16 ranks, what
// chrome_trace_json ran before it built one rank.
void BM_ToTrace(benchmark::State& state) {
  const EmitFixture& f = emit_fixture();
  for (auto _ : state) {
    trace::ClusterTrace replayed = f.result.to_trace(f.graph);
    benchmark::DoNotOptimize(replayed);
  }
  state.counters["tasks"] = static_cast<double>(f.graph.size());
}
BENCHMARK(BM_ToTrace)->Unit(benchmark::kMillisecond);

/// Deterministic interval workload: `lanes` interleaved streams of mostly
/// back-to-back kernels with occasional gaps and overlaps — the shape the
/// analyses feed the kernel.
std::vector<analysis::Interval> interval_workload(std::size_t n) {
  std::mt19937_64 rng(20260726);
  std::vector<analysis::Interval> out;
  out.reserve(n);
  constexpr std::size_t kLanes = 8;
  std::array<std::int64_t, kLanes> cursor{};
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    cursor[lane] = static_cast<std::int64_t>(rng() % 1'000'000);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = rng() % kLanes;
    const auto dur = static_cast<std::int64_t>(1 + rng() % 50'000);
    const auto gap = static_cast<std::int64_t>(rng() % 8'000);
    out.emplace_back(cursor[lane], cursor[lane] + dur);
    cursor[lane] += dur + gap - 4'000;  // negative gaps → genuine overlaps
  }
  return out;
}

// The sort-then-sweep union the trace-based breakdown and SM utilization
// run: std::sort on the pairs + the in-place merge sweep.
void BM_MergeIntervals(benchmark::State& state) {
  const auto master = interval_workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<analysis::Interval> v = master;
    const std::int64_t u = analysis::merge_intervals(v);
    benchmark::DoNotOptimize(u);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(master.size()) *
                          state.iterations());
}
BENCHMARK(BM_MergeIntervals)->Arg(1 << 12)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Baseline snapshots (PR 6): binary mmap-able image of the finalized
// baseline vs. the JSON ingest pipeline it replaces. The acceptance gate
// compares BM_SnapshotLoad against BM_IngestBaseline (≥20x on the seed-123
// cluster fixture below); both land in BENCH_io.json.
// ---------------------------------------------------------------------------

/// The seed-123 cluster run the snapshot acceptance numbers quote: 8 ranks
/// (2x2x2), microbatch-8 — a ~19k-event cluster trace.
const cluster::GroundTruthRun& snapshot_run() {
  static const cluster::GroundTruthRun run = [] {
    cluster::GroundTruthEngine engine(bench_model(), bench_config(8));
    return engine.run_profiled(123);
  }();
  return run;
}

/// The finalized baseline bundle (parsed graph with built meta + program;
/// images store no trace) snapshot benches serialize, plus the on-disk
/// snapshot written once.
struct SnapshotFixture {
  snapshot::Bundle bundle;
  std::string snapshot_path;   ///< written once at fixture build
  std::string trace_prefix;    ///< rank JSON files, the ingest-path input
  std::size_t ranks = 0;
  std::size_t events = 0;
};

const SnapshotFixture& snapshot_fixture() {
  static const SnapshotFixture fixture = [] {
    SnapshotFixture f;
    const trace::ClusterTrace& cluster = snapshot_run().trace;
    auto graph = std::make_shared<core::ExecutionGraph>(
        core::TraceParser().parse(cluster));
    graph->meta();  // finalize: the snapshot stores the built meta columns
    // Saved baselines carry their compiled program (Session::save_snapshot).
    f.bundle.program = core::ReplayCompiler::compile(*graph).program;
    f.bundle.meta_json = "{}";
    f.bundle.graph = std::move(graph);

    const auto tmp = std::filesystem::temp_directory_path();
    f.snapshot_path = (tmp / "lumos_bench_baseline.snap").string();
    snapshot::write(f.snapshot_path, f.bundle);
    f.trace_prefix = (tmp / "lumos_bench_snapcmp").string();
    f.ranks = trace::write_cluster_trace_files(cluster, f.trace_prefix).size();
    f.events = cluster.total_events();
    return f;
  }();
  return fixture;
}

void BM_SnapshotSave(benchmark::State& state) {
  const SnapshotFixture& f = snapshot_fixture();
  const std::string path =
      (std::filesystem::temp_directory_path() / "lumos_bench_save.snap")
          .string();
  for (auto _ : state) {
    snapshot::write(path, f.bundle);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(std::filesystem::file_size(path)) *
      state.iterations());
  state.counters["tasks"] = static_cast<double>(f.bundle.graph->size());
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

// Snapshot → ready-to-predict baseline. Everything heavy is a borrowed
// column view into the mapping; the dominant costs are the payload-checksum
// sweep, the id checks, pool re-interning and the re-derived meta indexes.
void BM_SnapshotLoad(benchmark::State& state) {
  const SnapshotFixture& f = snapshot_fixture();
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(f.snapshot_path));
  for (auto _ : state) {
    snapshot::Bundle bundle = snapshot::load(f.snapshot_path);
    benchmark::DoNotOptimize(bundle);
  }
  state.SetBytesProcessed(bytes * state.iterations());
  state.counters["tasks"] = static_cast<double>(f.bundle.graph->size());
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

// What a serve miss cost before snapshots stored the compiled program: the
// BM_SnapshotLoad load, then ReplayCompiler::compile. A miss now is the
// load alone.
void BM_SnapshotLoadCompile(benchmark::State& state) {
  const SnapshotFixture& f = snapshot_fixture();
  for (auto _ : state) {
    snapshot::Bundle bundle = snapshot::load(f.snapshot_path);
    bundle.program = core::ReplayCompiler::compile(*bundle.graph).program;
    benchmark::DoNotOptimize(bundle);
  }
  state.counters["tasks"] = static_cast<double>(f.bundle.graph->size());
}
BENCHMARK(BM_SnapshotLoadCompile)->Unit(benchmark::kMillisecond);

// The pipeline BM_SnapshotLoad replaces: per-rank JSON parse into the
// EventTable, graph construction, cycle check, meta/lane classification —
// the Session::share_baseline work for a trace-file scenario.
void BM_IngestBaseline(benchmark::State& state) {
  const SnapshotFixture& f = snapshot_fixture();
  std::int64_t bytes = 0;
  for (const trace::RankTrace& rank : snapshot_run().trace.ranks) {
    bytes += static_cast<std::int64_t>(std::filesystem::file_size(
        f.trace_prefix + "_rank" + std::to_string(rank.rank) + ".json"));
  }
  for (auto _ : state) {
    trace::ClusterTrace cluster =
        trace::read_cluster_trace(f.trace_prefix, f.ranks);
    core::ExecutionGraph graph = core::TraceParser().parse(cluster);
    if (!graph.is_acyclic()) state.SkipWithError("cyclic fixture graph");
    graph.meta();  // snapshot loads arrive with meta built; pay it here too
    benchmark::DoNotOptimize(graph);
    benchmark::DoNotOptimize(cluster);
  }
  state.SetBytesProcessed(bytes * state.iterations());
  state.counters["events"] = static_cast<double>(f.events);
}
BENCHMARK(BM_IngestBaseline)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_io.json trajectory artifact
// ---------------------------------------------------------------------------

/// Captures the I/O fast-path runs alongside normal console reporting and
/// writes them as a JSON trajectory at exit — the artifact the perf-smoke
/// CI job uploads so writer/ingest/kernel throughput is tracked across PRs.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      if (name.rfind("BM_GraphBuild", 0) != 0 &&
          name.rfind("BM_TraceParse", 0) != 0 &&
          name.rfind("BM_Rebuild", 0) != 0 &&
          name.rfind("BM_MetaBuild", 0) != 0 &&
          name.rfind("BM_Write", 0) != 0 &&
          name.rfind("BM_ParseFile", 0) != 0 &&
          name.rfind("BM_MergeIntervals", 0) != 0 &&
          name.rfind("BM_Parse", 0) != 0 &&
          name.rfind("BM_Snapshot", 0) != 0 &&
          name.rfind("BM_IngestBaseline", 0) != 0 &&
          name.rfind("BM_Replay", 0) != 0 &&  // interpreter + compiled
          name.rfind("BM_CompileReplayRebuilt", 0) != 0 &&
          name.rfind("BM_FaultedReplay", 0) != 0 &&
          name.rfind("BM_CompileProgram", 0) != 0 &&
          name.rfind("BM_Breakdown", 0) != 0 &&
          name.rfind("BM_EmitRank", 0) != 0 &&
          name.rfind("BM_ToTrace", 0) != 0) {
        continue;
      }
      json::Object entry;
      entry["name"] = name;
      entry["iterations"] = static_cast<std::int64_t>(run.iterations);
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      entry["real_time_ns"] = run.real_accumulated_time / iters * 1e9;
      entry["cpu_time_ns"] = run.cpu_accumulated_time / iters * 1e9;
      if (!run.report_label.empty()) entry["label"] = run.report_label;
      json::Object counters;
      for (const auto& [key, counter] : run.counters) {
        counters[key] = counter.value;  // finalized (rates already divided)
      }
      if (!counters.empty()) entry["counters"] = std::move(counters);
      runs_.push_back(json::Value(std::move(entry)));
    }
  }

  /// Writes the trajectory; no-op when none of the tracked benches ran
  /// (e.g. a --benchmark_filter selecting only BM_Replay).
  void write_trajectory() const {
    if (runs_.empty()) return;
    const char* env = std::getenv("LUMOS_BENCH_IO_OUT");
    const std::string path = env != nullptr ? env : "BENCH_io.json";
    json::Object root;
    root["schema"] = 1;
    root["benchmarks"] = runs_;
    std::ofstream out(path, std::ios::binary);
    out << json::write(json::Value(std::move(root)), {.indent = 1}) << "\n";
  }

 private:
  json::Array runs_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_trajectory();
  benchmark::Shutdown();
  return 0;
}
