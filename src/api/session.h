// lumos::api::Session: the single programmatic entry point to Lumos.
//
// A Session owns the collect → parse → build-graph → simulate → analyze
// pipeline for one Scenario, lazily and with caching: the trace is collected
// (or loaded) once, the execution graph is parsed once, and each simulation
// (Lumos replay, dPRO baseline, what-if prediction) runs once — every front
// end (CLI, examples, benches, future services) shares this one
// implementation instead of re-wiring the pipeline by hand.
//
//   auto session = Session::create(
//       Scenario::synthetic().with_model("15b").with_parallelism("2x2x4"));
//   if (!session.is_ok()) { ... session.status() ... }
//   auto replayed = session->replay();              // Result<SimResult*>
//   auto predicted = session->predict(
//       api::whatif().with_data_parallelism(8));    // Result<Prediction>
//
// No method throws; every fallible path returns Status/Result with a
// structured ErrorCode (see api/status.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/critical_path.h"
#include "analysis/sm_utilization.h"
#include "analysis/timeline.h"
#include "analysis/trace_diff.h"
#include "api/scenario.h"
#include "api/status.h"
#include "cluster/ground_truth.h"
#include "core/execution_graph.h"
#include "core/replay_program.h"
#include "core/simulator.h"
#include "costmodel/kernel_model.h"
#include "faults/fault_plan.h"
#include "trace/event.h"
#include "trace/validate.h"

namespace lumos::api {

/// Outcome of a what-if prediction: the simulation plus the manipulated
/// (model, config) pair that produced it. For manipulations that do not
/// rebuild the graph (fusion, ablation, hooks), model/config echo the
/// session's baseline.
///
/// Predictions are deliberately compact — per-task schedule times plus an
/// aggregate breakdown, no materialized event trace. A Sweep holds one per
/// variant, so grid memory scales with task *counts*, not with event
/// payloads (names, annotations). To inspect a variant's full predicted
/// trace, re-run that single variant through `predict_on` against the
/// shared baseline and call `SimResult::to_trace` on the graph you
/// simulated — the simulator is a pure function, so the re-run is
/// bit-identical.
struct Prediction {
  core::SimResult sim;
  workload::ModelSpec model;
  workload::ParallelConfig config;
  /// Execution-time breakdown of the predicted schedule (paper §4.2.2),
  /// computed from the simulated intervals and the graph's meta columns at
  /// prediction time — no event materialization.
  analysis::Breakdown breakdown;
  /// Fusion statistics, non-zero only when the what-if requested fusion.
  std::size_t kernels_eliminated = 0;
  std::int64_t fusion_saved_ns = 0;
  /// True when this prediction ran on a compiled ReplayProgram instead of
  /// the interpreter: the baseline's program for a structure-preserving
  /// what-if, one compiled for this prediction from the graph a rebuild,
  /// fusion or dropped dependency produced, or (Sweep rows sharing a
  /// structure) the structure's program with the row's own duration
  /// column. Hooks, fault contention or dropout, and a graph the compiler
  /// refuses run the interpreter. Either path is bit-identical; the flag
  /// exists so callers (and SweepReport's compiled_replays counter) can
  /// prove the fast path engaged.
  bool used_compiled_replay = false;

  double makespan_ms() const {
    return static_cast<double>(sim.makespan_ns) / 1e6;
  }
};

/// Immutable snapshot of a session's baseline — everything a what-if
/// prediction reads: the scenario (hardware, build/parser options), the
/// resolved (model, config) pair when known and the parsed execution
/// graph. The profiled trace is not part of it (no prediction reads the
/// trace; Session::trace() has it). The graph is shared, never copied;
/// once handed out it is frozen, so any number of threads may predict over
/// one BaselineArtifacts concurrently (api::Sweep does exactly that).
struct BaselineArtifacts {
  Scenario scenario;
  std::optional<workload::ModelSpec> model;
  std::optional<workload::ParallelConfig> config;
  std::shared_ptr<const core::ExecutionGraph> graph;
  /// The graph lowered by core::ReplayCompiler, when the graph compiles;
  /// null otherwise (structure-preserving predictions then use the
  /// interpreter). Must come from `graph`: predict_on and replay_faulted
  /// return kFailedPrecondition when its task count differs. Shares the
  /// artifacts' lifetime, is self-contained (a compiled program keeps
  /// nothing of the graph alive; a loaded one borrows the snapshot mapping
  /// the graph also pins) and immutable, so concurrent predictions replay
  /// it freely. Snapshots store it; load_baseline_snapshot returns it.
  std::shared_ptr<const core::ReplayProgram> program;
};

/// Compiles `base.graph` into `base.program` (idempotent) when the graph
/// is supported; a fallback (cycle, unordered lane, non-positive duration)
/// leaves `program` null and the interpreter in charge. A loaded snapshot
/// needs no call: save_baseline_snapshot stores the program (compiling it
/// when `base` has none), so there a null program means the graph does not
/// compile (Session::share_baseline compiles its own graph once).
void attach_replay_program(BaselineArtifacts& base);

/// What-if prediction over a shared immutable baseline: the core of
/// Session::predict and of every api::Sweep worker, so the manipulation →
/// simulate → materialize pipeline exists exactly once.
///
/// Thread-safe: reads `base` and `whatif` only, resolves registry hooks /
/// cost models under the registry locks, and instantiates registry hooks
/// freshly per call. A hooks *instance* attached via with_hooks(shared_ptr)
/// is invoked as-is — share one across concurrent predictions only if it is
/// itself thread-safe.
Result<Prediction> predict_on(const BaselineArtifacts& base,
                              const Scenario& whatif);

/// predict_on with a pre-lowered fault plan: `plan` must be the result of
/// FaultPlan::lower(*base.graph, *whatif.faults()) — Session passes its
/// per-fingerprint cache entry here so sweep grids do not re-lower the
/// spec per variant. nullptr lowers on the spot (what the 2-arg overload
/// does). The plan applies only to structure-preserving what-ifs; when the
/// what-if rebuilds the graph, the spec is re-lowered against the rebuilt
/// graph and `plan` is ignored.
Result<Prediction> predict_on(const BaselineArtifacts& base,
                              const Scenario& whatif,
                              const faults::FaultPlan* plan);

class Session {
 public:
  using HooksFactory =
      std::function<std::unique_ptr<core::SimulatorHooks>()>;
  using CostModelFactory =
      std::function<cost::KernelPerfModel(const cost::HardwareSpec&)>;

  /// Validates the scenario (model resolution, parallelism parsing,
  /// model/config consistency for synthetic sources) and returns a Session.
  /// No simulation work happens here.
  static Result<Session> create(Scenario scenario);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Scenario& scenario() const { return scenario_; }

  // -- pipeline accessors (lazy, cached; returned pointers stay valid until
  //    the Session is moved or destroyed) ------------------------------------
  /// The profiled baseline trace (collected from the synthetic cluster or
  /// loaded from disk).
  Result<const trace::ClusterTrace*> trace();
  /// The execution graph parsed from the baseline trace.
  Result<const core::ExecutionGraph*> graph();
  /// Hands out the baseline as an immutable, shareable handle (collecting
  /// the trace and parsing the graph first if needed). The handle aliases
  /// the session's graph and program — no copies — and stays valid after
  /// the Session is destroyed. This is the hand-off point to api::Sweep.
  Result<BaselineArtifacts> share_baseline();
  /// Serializes the finalized baseline (parsed graph + its compiled
  /// program + scenario metadata) as a versioned binary snapshot at `path`
  /// (snapshot/snapshot.h). load_baseline_snapshot() brings it back by
  /// mmap — no JSON, no re-parse, no re-finalize, no re-compile. The
  /// profiled trace is not stored. kIoError on filesystem failure.
  Status save_snapshot(const std::string& path);
  /// Lumos replay of the graph (Algorithm 1 with collective coupling and
  /// this scenario's hooks, if any). kDeadlock when the simulation sticks.
  Result<const core::SimResult*> replay();
  /// dPRO-baseline replay (inter-stream dependencies dropped).
  Result<const core::SimResult*> replay_dpro();
  /// The replayed trace materialized from replay(): every rank, built once
  /// (SimResult::to_trace) and cached for the Session's lifetime.
  /// chrome_trace_json does not use or fill it.
  Result<const trace::ClusterTrace*> replayed_trace();
  /// The dPRO-replayed trace.
  Result<const trace::ClusterTrace*> dpro_trace();

  /// Wall-clock iteration time of the profiled baseline run.
  Result<std::int64_t> profiled_iteration_ns();
  /// The measured ("actual") iteration at the scenario's actual seed.
  /// kFailedPrecondition for trace-file sessions (nothing to measure).
  Result<std::int64_t> actual_iteration_ns();
  Result<const trace::ClusterTrace*> actual_trace();

  // -- what-if prediction (paper §3.4) --------------------------------------
  /// Applies this session's own scenario manipulations.
  Result<Prediction> predict();
  /// Applies `whatif`'s manipulations against this session's baseline:
  /// parallelism / architecture changes rebuild the graph through the
  /// template provider; fusion / dependency ablation transform the parsed
  /// graph; hooks / cost-model names are resolved through the registries.
  /// The what-if must carry manipulations only — baseline fields
  /// (with_model / with_parallelism / with_microbatches) belong to the
  /// session's own scenario and are rejected with kInvalidArgument rather
  /// than silently ignored. kUnsupported for tensor-parallelism changes,
  /// kDeadlock when the predicted schedule sticks.
  Result<Prediction> predict(const Scenario& whatif);

  // -- analysis -------------------------------------------------------------
  /// Breakdown of the Lumos replay (averaged across ranks), read from the
  /// graph's columns and the schedule; no replayed trace is built.
  Result<analysis::Breakdown> breakdown();
  /// Breakdown of the actual run's trace (synthetic sessions only).
  Result<analysis::Breakdown> breakdown_actual();
  /// Critical path of the Lumos replay.
  Result<analysis::CriticalPathSummary> critical_path();
  /// Kernel-time diff of this session's baseline trace vs. another's.
  Result<std::vector<analysis::DiffEntry>> diff(
      Session& other, const analysis::DiffOptions& options = {});
  /// ASCII timeline of one rank of the baseline trace. kInvalidArgument
  /// when the rank does not exist.
  Result<std::string> timeline(std::int32_t rank,
                               const analysis::TimelineOptions& options = {});
  /// Structural validation of the baseline trace (empty = clean).
  Result<std::vector<trace::Violation>> validate();
  /// Event statistics of one rank of the baseline trace.
  Result<trace::TraceStats> stats(std::int32_t rank);
  /// SM-utilization timeline of one rank of the baseline trace.
  Result<std::vector<double>> sm_utilization(
      std::int32_t rank, std::int64_t bucket_ns = 1'000'000);
  /// Rank ids present in the baseline trace, ascending.
  Result<std::vector<std::int32_t>> ranks();

  // -- trace I/O ------------------------------------------------------------
  /// Writes the baseline trace as <prefix>_rank<k>.json; returns the full
  /// paths written (rank order). One streaming writer buffer and one
  /// filename buffer are reused across ranks — no per-rank string
  /// rebuilding.
  Result<std::vector<std::string>> write_trace_files(const std::string& prefix);
  /// Chrome-trace JSON of one rank of the *replayed* trace (for
  /// chrome://tracing / Perfetto), byte-identical to
  /// trace::to_json_string(replayed_trace()->ranks[k], indent). Only that
  /// rank's rows are gathered (SimResult::emit_rank) and nothing is cached,
  /// so a call costs one rank, not the whole trace. kInvalidArgument when
  /// no task runs on `rank`.
  Result<std::string> chrome_trace_json(std::int32_t rank, int indent = -1);

  // -- pluggable registries -------------------------------------------------
  // The registries are process-wide and fully thread-safe: registrations
  // and lookups synchronize on one lumos::SharedMutex per registry (lookups
  // take it shared, so concurrent Sweep workers resolving hooks/cost models
  // do not serialize each other; the factory maps are GUARDED_BY that
  // mutex and checked by -Wthread-safety). Factories may be invoked
  // concurrently
  // from prediction threads and must be safe to call concurrently; each
  // invocation must return an independent product.
  /// Registers a SimulatorHooks factory under `name`, for use via
  /// Scenario::with_hooks(name). Re-registering a name replaces it.
  static Status register_hooks(const std::string& name, HooksFactory factory);
  /// Registers a cost-model factory under `name`, for use via
  /// Scenario::with_cost_model(name).
  static Status register_cost_model(const std::string& name,
                                    CostModelFactory factory);
  static std::vector<std::string> registered_hooks();
  static std::vector<std::string> registered_cost_models();

  // -- cache introspection (tests, debugging) -------------------------------
  struct CacheStats {
    std::size_t trace_loads = 0;   ///< engine runs / disk loads of the baseline
    std::size_t graph_builds = 0;  ///< trace parses
    std::size_t simulations = 0;   ///< simulator invocations (all kinds)
    std::size_t actual_runs = 0;   ///< ground-truth "actual" executions
    std::size_t fault_plans = 0;   ///< fault-plan lowerings (cache misses)
  };
  const CacheStats& cache_stats() const { return stats_; }

 private:
  explicit Session(Scenario scenario) : scenario_(std::move(scenario)) {}

  Result<Prediction> predict_internal(const Scenario& whatif);
  Status ensure_trace();
  Status ensure_graph();
  /// Compiles graph_ into program_ once (no-op after a prior attempt, also
  /// one that fell back).
  void ensure_program();
  Status ensure_replay();
  Status ensure_dpro();
  Status ensure_actual();

  Scenario scenario_;
  // Resolved at create() when the scenario specifies them.
  std::optional<workload::ModelSpec> model_;
  std::optional<workload::ParallelConfig> config_;

  // Lazy caches. Trace and graph live behind shared_ptr<const ...> so
  // share_baseline() can alias them without copying; they are never mutated
  // after publication.
  std::shared_ptr<const trace::ClusterTrace> trace_;
  std::int64_t profiled_iteration_ns_ = -1;  ///< synthetic sources only
  std::shared_ptr<const core::ExecutionGraph> graph_;
  /// Compiled once per graph by ensure_program(); null when the graph fell
  /// back to the interpreter.
  std::shared_ptr<const core::ReplayProgram> program_;
  bool program_attempted_ = false;
  std::optional<core::SimResult> replay_;
  std::optional<core::SimResult> dpro_;
  std::optional<trace::ClusterTrace> replayed_trace_;
  std::optional<trace::ClusterTrace> dpro_trace_;
  std::optional<cluster::GroundTruthRun> actual_run_;
  /// Fault plans lowered against the baseline graph, keyed by
  /// FaultSpec::fingerprint() — repeated predictions with the same spec
  /// (severity-grid reruns) reuse the lowered column.
  std::map<std::uint64_t, std::shared_ptr<const faults::FaultPlan>>
      fault_plans_;

  CacheStats stats_;
};

/// Session-free form of Session::save_snapshot, for baselines already
/// shared out of a session (or loaded from another snapshot). Stores
/// `base.program`, or compiles `base.graph` when that is null, so the image
/// lacks a program only when its graph does not compile.
Status save_baseline_snapshot(const BaselineArtifacts& base,
                              const std::string& path);

/// Loads a snapshot written by save_snapshot() back into an immutable
/// baseline ready for predict_on / api::Sweep. The graph columns and the
/// stored program (null when the saved graph did not compile) are
/// zero-copy views of the file mapping; the returned artifacts pin the
/// mapping alive (shared_ptr aliasing), so they may outlive any loader
/// state and the file may even be unlinked while they live — see the
/// lifetime rule in snapshot/snapshot.h.
///
/// Errors: kIoError (missing/unreadable file), kParseError (bad magic,
/// truncation, checksum, structure mismatch or an out-of-range id),
/// kUnsupported (format version from a different build).
Result<BaselineArtifacts> load_baseline_snapshot(const std::string& path);

/// Reads just the snapshot header and returns its payload checksum, which
/// covers the scenario metadata, graph, program and pools and which
/// load_baseline_snapshot verifies — the cheap cache-key probe the serving
/// layer uses. Same error mapping as load_baseline_snapshot.
Result<std::uint64_t> peek_snapshot_content_hash(const std::string& path);

/// Replays a caller-built execution graph through the facade's error
/// handling: kCyclicGraph when the fixed-dependency graph is not a DAG,
/// kInvalidArgument when `options.dropped_tasks` is not one entry per task.
/// The interpreter runs with the caller's options as given.
/// Deadlocks are *not* an error here — the returned SimResult carries
/// stuck_tasks so ablation studies can inspect partial schedules; use
/// Session::replay()/predict() for deadlock-as-error semantics.
Result<core::SimResult> replay_graph(const core::ExecutionGraph& graph,
                                     const core::SimOptions& options = {});

/// Replays `base` under `spec` with deadlock-as-data semantics: a spec that
/// drops ranks deadlocks *by design*, and the returned SimResult carries the
/// exact ascending stuck-task set for inspection (Session::predict /
/// predict_on instead map an incomplete schedule to kDeadlock). Plans
/// without dropout or contention ride the compiled program when `base` has
/// one, exactly as in predict_on; kInvalidArgument when the spec fails
/// validation or names a rank / group the graph does not have.
Result<core::SimResult> replay_faulted(const BaselineArtifacts& base,
                                       const faults::FaultSpec& spec);

}  // namespace lumos::api
