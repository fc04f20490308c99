#include "api/session.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "api/structure_sharing.h"
#include "baseline/dpro.h"
#include "core/fusion.h"
#include "core/graph_manipulator.h"
#include "core/trace_parser.h"
#include "json/json.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"
#include "trace/chrome_trace.h"
#include "trace/ingest.h"

namespace lumos::api {

namespace {

// Process-wide registries. Writers (register_*) take the mutex exclusive;
// readers (lookups from predictions, possibly many Sweep workers at once)
// take it shared and copy the factory out before invoking it, so a factory
// call never runs under the lock.
struct HooksRegistry {
  SharedMutex mutex;
  std::map<std::string, Session::HooksFactory> factories
      LUMOS_GUARDED_BY(mutex);
};

struct CostModelRegistry {
  SharedMutex mutex;
  std::map<std::string, Session::CostModelFactory> factories
      LUMOS_GUARDED_BY(mutex);
};

HooksRegistry& hooks_registry() {
  static HooksRegistry* registry =
      new HooksRegistry();  // lumos-lint: allow(H004) leaked singleton

  return *registry;
}

CostModelRegistry& cost_model_registry() {
  static CostModelRegistry* registry =
      new CostModelRegistry();  // lumos-lint: allow(H004) leaked singleton

  return *registry;
}

const trace::RankTrace* find_rank(const trace::ClusterTrace& trace,
                                  std::int32_t rank) {
  for (const trace::RankTrace& r : trace.ranks) {
    if (r.rank == rank) return &r;
  }
  return nullptr;
}

/// Structured mapping of discovery failures (the offending path is already
/// in what()): a missing directory or an empty match set is an I/O problem;
/// a rank-count mismatch means the caller's num_ranks contract is wrong.
Status status_from_ingest_error(const trace::IngestError& e) {
  if (e.kind() == trace::IngestErrorKind::kRankCountMismatch) {
    return invalid_argument_error(e.what());
  }
  return io_error(e.what());
}

/// How a what-if treats the baseline graph. `rebuilds`: a parallelism or
/// architecture change re-derives it from templates. `preserves_structure`:
/// no rebuild, fusion or dropped dependency, so the baseline's tasks and
/// edges run as-is and both a fault plan lowered against the baseline and
/// the baseline's compiled program stay valid for it.
struct GraphEffect {
  bool rebuilds = false;
  bool preserves_structure = false;
};

GraphEffect graph_effect(const Scenario& whatif) {
  GraphEffect effect;
  effect.rebuilds = whatif.new_dp() || whatif.new_pp() ||
                    whatif.new_architecture() || whatif.new_layers() ||
                    whatif.new_hidden();
  effect.preserves_structure = !effect.rebuilds && !whatif.fusion() &&
                               whatif.dropped_dependencies().empty();
  return effect;
}

/// The hooks `scenario` asks for: its shared instance as-is, a fresh
/// product of the registry factory it names (so concurrent predictions
/// never share one), or null when it asks for none.
Result<std::shared_ptr<core::SimulatorHooks>> resolve_hooks(
    const Scenario& scenario) {
  if (scenario.hooks() != nullptr || scenario.hooks_name().empty()) {
    return scenario.hooks();
  }
  Session::HooksFactory factory;
  {
    HooksRegistry& registry = hooks_registry();
    ReaderLock lock(registry.mutex);
    auto it = registry.factories.find(scenario.hooks_name());
    if (it == registry.factories.end()) {
      return invalid_argument_error("no simulator hooks registered as '" +
                                    scenario.hooks_name() + "'");
    }
    factory = it->second;
  }
  std::shared_ptr<core::SimulatorHooks> product = factory();
  if (product == nullptr) {
    return internal_error("hooks factory '" + scenario.hooks_name() +
                          "' returned nullptr");
  }
  return product;
}

/// The one compile site: `graph` lowered for coupled replay, or null when
/// the compiler refuses it (cycle, unordered lane, non-positive duration)
/// and the interpreter stays in charge.
std::shared_ptr<const core::ReplayProgram> compile_program(
    const core::ExecutionGraph& graph) {
  return core::ReplayCompiler::compile(graph).program;
}

/// Whether the compiled engine may stand in for the interpreter: no hook is
/// in play and the fault plan (if any) only rewrites durations. Contention
/// and dropout need the interpreter's rendezvous and stuck-task logic.
bool compiled_engine_applies(const core::SimulatorHooks* hooks,
                             const faults::FaultPlan* plan) {
  return hooks == nullptr && (plan == nullptr || plan->compiled_eligible());
}

/// Caller-held artifacts must carry a graph, and a program (if any) of the
/// same task count: ReplayProgram::run only asserts its column size, and a
/// fault plan's column is lowered against the graph.
Status check_baseline(const BaselineArtifacts& base) {
  if (base.graph == nullptr) {
    return failed_precondition_error(
        "baseline artifacts carry no execution graph; obtain them from "
        "Session::share_baseline()");
  }
  if (base.program != nullptr &&
      base.program->task_count() != base.graph->size()) {
    return failed_precondition_error(
        "baseline program was compiled from a graph of " +
        std::to_string(base.program->task_count()) +
        " tasks, but the baseline graph has " +
        std::to_string(base.graph->size()) + " tasks");
  }
  return Status::ok();
}

struct Replayed {
  core::SimResult sim;
  bool compiled = false;
};

/// The one engine choice behind every facade replay. The compiled
/// `program` runs when it exists, compiled_engine_applies, and the column
/// it would read — the plan's, the caller's `durations`, or its baked one —
/// passes ReplayProgram::accepts; callers pass a program only for the graph
/// it was compiled from (or, with `durations`, for a graph of the same
/// structure). Everything else — hooks, contention, dropout, a graph that
/// did not compile — runs the coupled interpreter, the pinned reference.
/// Both engines are bit-identical where both apply (test_replay_program).
/// A caller column describes another graph than `graph`, so the
/// interpreter cannot stand in for it: nullopt, and the caller rebuilds.
std::optional<Replayed> run_replay(
    const core::ExecutionGraph& graph, const core::ReplayProgram* program,
    core::SimulatorHooks* hooks, const faults::FaultPlan* plan,
    std::span<const std::int64_t> durations = {}) {
  const std::span<const std::int64_t> column =
      plan != nullptr ? plan->durations() : durations;
  if (program != nullptr && compiled_engine_applies(hooks, plan) &&
      (column.empty() || program->accepts(column))) {
    return Replayed{column.empty() ? program->run() : program->run(column),
                    true};
  }
  if (!durations.empty()) return std::nullopt;
  core::SimOptions options;
  options.couple_collectives = true;
  options.hooks = hooks;
  faults::ColumnHooks fault_hooks({}, 0.0);
  if (plan != nullptr) {
    fault_hooks = plan->make_hooks();
    options.hooks = &fault_hooks;
    options.dropped_tasks = plan->dropped();
  }
  return Replayed{core::Simulator(graph, options).run(), false};
}

/// Completes `out` from a replay of `graph`: kDeadlock when the schedule
/// stuck, else the breakdown, derived from the schedule + meta columns.
/// The full predicted trace is never materialized here (Sweep rows would
/// otherwise each hold a copy of every event).
Status finish_prediction(const core::ExecutionGraph& graph, Replayed ran,
                         Prediction& out) {
  out.sim = std::move(ran.sim);
  out.used_compiled_replay = ran.compiled;
  if (!out.sim.complete()) {
    return deadlock_error("prediction stuck with " +
                          std::to_string(out.sim.stuck_tasks.size()) +
                          " unfinished tasks");
  }
  out.breakdown = analysis::compute_breakdown(graph, out.sim);
  return Status::ok();
}

/// Runs one GraphManipulator call, reporting its exceptions the way every
/// rebuild does: a target that does not validate is kValidationError,
/// anything else kInternal.
template <typename Call>
auto manipulate(Call&& call) -> Result<decltype(call())> {
  try {
    return call();
  } catch (const std::invalid_argument& e) {
    return validation_error(e.what());
  } catch (const std::exception& e) {
    return internal_error(std::string("graph manipulation: ") + e.what());
  }
}

/// The (model, config) a rebuilding what-if targets; `base` knows both.
std::pair<workload::ModelSpec, workload::ParallelConfig> rebuild_target(
    const BaselineArtifacts& base, const Scenario& whatif) {
  workload::ModelSpec model = *base.model;
  if (whatif.new_architecture()) model = *whatif.new_architecture();
  if (whatif.new_layers()) model.num_layers = *whatif.new_layers();
  if (whatif.new_hidden()) {
    model = core::GraphManipulator::resized_model(
        model, whatif.new_hidden()->first, whatif.new_hidden()->second);
  }
  workload::ParallelConfig config = *base.config;
  if (whatif.new_pp()) config.pp = *whatif.new_pp();
  if (whatif.new_dp()) config.dp = *whatif.new_dp();
  return {std::move(model), config};
}

}  // namespace

Result<Session> Session::create(Scenario scenario) {
  Session session(std::move(scenario));
  const Scenario& s = session.scenario_;
  if (s.source() == Scenario::Source::kSynthetic) {
    // Synthetic sources need a complete, consistent (model, config) pair up
    // front; surface bad names/labels/combinations before any work runs.
    if (Status status = s.validate(); !status.is_ok()) return status;
    session.model_ = *s.resolved_model();
    session.config_ = *s.resolved_parallelism();
  } else {
    if (s.trace_prefix().empty()) {
      return invalid_argument_error("trace scenario has an empty prefix");
    }
    // Fail fast on broken trace sources: discovery (one directory scan, no
    // file is opened or parsed) runs here so a missing directory, an empty
    // match set or a num_ranks mismatch surfaces from create() as a
    // structured Status with the offending path — not later, from the
    // first prediction. The trace bytes themselves still load lazily.
    try {
      trace::discover_rank_files(s.trace_prefix(), s.num_ranks());
    } catch (const trace::IngestError& e) {
      return status_from_ingest_error(e);
    }
    // Model/config are optional for trace sessions (only needed for graph
    // manipulation), but if specified they must resolve.
    Result<workload::ModelSpec> model = s.resolved_model();
    if (model.is_ok()) {
      session.model_ = *model;
    } else if (model.status().code() != ErrorCode::kFailedPrecondition) {
      return model.status();
    }
    Result<workload::ParallelConfig> config = s.resolved_parallelism();
    if (config.is_ok()) {
      session.config_ = *config;
    } else if (config.status().code() != ErrorCode::kFailedPrecondition) {
      return config.status();
    }
  }
  return session;
}

Status Session::ensure_trace() {
  if (trace_) return Status::ok();
  ++stats_.trace_loads;
  if (scenario_.source() == Scenario::Source::kSynthetic) {
    try {
      cluster::GroundTruthEngine engine(*model_, *config_,
                                        scenario_.hardware());
      cluster::GroundTruthRun run = engine.run_profiled(scenario_.seed());
      profiled_iteration_ns_ = run.iteration_ns;
      trace_ = std::make_shared<const trace::ClusterTrace>(
          std::move(run.trace));
    } catch (const std::exception& e) {
      return internal_error(std::string("ground-truth engine: ") + e.what());
    }
  } else {
    try {
      trace_ = std::make_shared<const trace::ClusterTrace>(
          trace::read_cluster_trace(scenario_.trace_prefix(),
                                    scenario_.num_ranks(),
                                    scenario_.io_options()));
    } catch (const json::ParseError& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const json::TypeError& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const std::out_of_range& e) {
      return parse_error(std::string("trace JSON: ") + e.what());
    } catch (const trace::IngestError& e) {
      // Discovery re-runs at load time (files can vanish between create()
      // and the first prediction); same structured mapping as create().
      return status_from_ingest_error(e);
    } catch (const std::exception& e) {
      return io_error(e.what());
    }
  }
  return Status::ok();
}

Result<const trace::ClusterTrace*> Session::trace() {
  if (Status status = ensure_trace(); !status.is_ok()) return status;
  return trace_.get();
}

Status Session::ensure_graph() {
  if (graph_) return Status::ok();
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  ++stats_.graph_builds;
  core::ExecutionGraph parsed;
  try {
    parsed = core::TraceParser(scenario_.parser_options()).parse(**traces);
  } catch (const std::exception& e) {
    return parse_error(std::string("trace parse: ") + e.what());
  }
  core::TaskId cycle_hint = core::kInvalidTask;
  if (!parsed.is_acyclic(&cycle_hint)) {
    return cyclic_graph_error("parsed graph has a dependency cycle through "
                              "task " +
                              std::to_string(cycle_hint));
  }
  graph_ = std::make_shared<const core::ExecutionGraph>(std::move(parsed));
  return Status::ok();
}

Result<const core::ExecutionGraph*> Session::graph() {
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  return graph_.get();
}

void Session::ensure_program() {
  if (program_attempted_ || !graph_) return;
  program_attempted_ = true;
  // A fallback is not an error: program_ stays null and every replay /
  // prediction keeps using the interpreter.
  program_ = compile_program(*graph_);
}

Result<BaselineArtifacts> Session::share_baseline() {
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  ensure_program();
  BaselineArtifacts out;
  out.scenario = scenario_;
  out.model = model_;
  out.config = config_;
  out.graph = graph_;
  out.program = program_;
  return out;
}

void attach_replay_program(BaselineArtifacts& base) {
  if (base.program == nullptr && base.graph != nullptr) {
    base.program = compile_program(*base.graph);
  }
}

Status Session::ensure_replay() {
  if (replay_) return Status::ok();
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  Result<std::shared_ptr<core::SimulatorHooks>> hooks =
      resolve_hooks(scenario_);
  if (!hooks.is_ok()) return hooks.status();
  ensure_program();
  ++stats_.simulations;
  core::SimResult result =
      run_replay(*graph_, program_.get(), hooks->get(), nullptr)->sim;
  if (!result.complete()) {
    return deadlock_error("replay stuck with " +
                          std::to_string(result.stuck_tasks.size()) +
                          " unfinished tasks");
  }
  replay_ = std::move(result);
  return Status::ok();
}

Result<const core::SimResult*> Session::replay() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return &*replay_;
}

Status Session::ensure_dpro() {
  if (dpro_) return Status::ok();
  if (Status status = ensure_graph(); !status.is_ok()) return status;
  ++stats_.simulations;
  core::SimResult result = baseline::replay_dpro(*graph_);
  if (!result.complete()) {
    return deadlock_error("dPRO replay stuck with " +
                          std::to_string(result.stuck_tasks.size()) +
                          " unfinished tasks");
  }
  dpro_ = std::move(result);
  return Status::ok();
}

Result<const core::SimResult*> Session::replay_dpro() {
  if (Status status = ensure_dpro(); !status.is_ok()) return status;
  return &*dpro_;
}

Result<const trace::ClusterTrace*> Session::replayed_trace() {
  if (replayed_trace_) return &*replayed_trace_;
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  replayed_trace_ = replay_->to_trace(*graph_);
  return &*replayed_trace_;
}

Result<const trace::ClusterTrace*> Session::dpro_trace() {
  if (dpro_trace_) return &*dpro_trace_;
  if (Status status = ensure_dpro(); !status.is_ok()) return status;
  dpro_trace_ = dpro_->to_trace(*graph_);
  return &*dpro_trace_;
}

Result<std::int64_t> Session::profiled_iteration_ns() {
  if (Status status = ensure_trace(); !status.is_ok()) return status;
  if (scenario_.source() == Scenario::Source::kSynthetic) {
    return profiled_iteration_ns_;
  }
  return trace_->iteration_ns();
}

Status Session::ensure_actual() {
  if (actual_run_) return Status::ok();
  if (scenario_.source() != Scenario::Source::kSynthetic) {
    return failed_precondition_error(
        "actual (measured) runs are only available for synthetic scenarios; "
        "this session replays on-disk traces");
  }
  ++stats_.actual_runs;
  try {
    cluster::GroundTruthEngine engine(*model_, *config_,
                                      scenario_.hardware());
    actual_run_ = engine.run_actual(scenario_.actual_seed());
  } catch (const std::exception& e) {
    return internal_error(std::string("ground-truth engine: ") + e.what());
  }
  return Status::ok();
}

Result<std::int64_t> Session::actual_iteration_ns() {
  if (Status status = ensure_actual(); !status.is_ok()) return status;
  return actual_run_->iteration_ns;
}

Result<const trace::ClusterTrace*> Session::actual_trace() {
  if (Status status = ensure_actual(); !status.is_ok()) return status;
  return &actual_run_->trace;
}

Result<Prediction> Session::predict() { return predict_internal(scenario_); }

Result<Prediction> Session::predict(const Scenario& whatif) {
  // A what-if carries manipulations only. Baseline fields on it would be
  // silently ignored (the session already owns the baseline), so a caller
  // writing predict(Scenario::synthetic().with_model("44b")) would get
  // baseline numbers believing they predicted 44b — reject instead.
  if (carries_baseline_fields(whatif)) {
    return invalid_argument_error(
        "what-if scenarios carry only manipulations; the baseline model/"
        "parallelism come from the session — use with_architecture / "
        "with_scaled_parallelism / with_data_parallelism instead");
  }
  return predict_internal(whatif);
}

Result<Prediction> Session::predict_internal(const Scenario& whatif) {
  Result<BaselineArtifacts> base = share_baseline();
  if (!base.is_ok()) return base.status();
  // Structure-preserving faulted what-ifs lower the spec against the
  // baseline graph; cache the plan by spec fingerprint so severity-grid
  // reruns of one spec pay the lowering once. Rebuilding what-ifs are
  // excluded: their plan depends on the rebuilt graph, which predict_on
  // lowers on the spot.
  const faults::FaultPlan* plan = nullptr;
  if (whatif.faults() != nullptr && graph_effect(whatif).preserves_structure) {
    const std::uint64_t key = whatif.faults()->fingerprint();
    auto it = fault_plans_.find(key);
    if (it == fault_plans_.end()) {
      auto lowered = std::make_shared<const faults::FaultPlan>(
          faults::FaultPlan::lower(*base->graph, *whatif.faults()));
      it = fault_plans_.emplace(key, std::move(lowered)).first;
      ++stats_.fault_plans;
    }
    plan = it->second.get();
  }
  Result<Prediction> out = predict_on(*base, whatif, plan);
  // Count only what-ifs whose simulation actually ran: every validation /
  // manipulation failure returns before the simulator, while a deadlock is
  // a completed (stuck) simulator invocation.
  if (out.is_ok() || out.status().code() == ErrorCode::kDeadlock) {
    ++stats_.simulations;
  }
  return out;
}

Result<Prediction> predict_on(const BaselineArtifacts& base,
                              const Scenario& whatif) {
  return predict_on(base, whatif, nullptr);
}

Result<Prediction> predict_on(const BaselineArtifacts& base,
                              const Scenario& whatif,
                              const faults::FaultPlan* plan) {
  if (Status status = check_baseline(base); !status.is_ok()) return status;
  if (whatif.new_tp()) {
    return unsupported_error(
        "tensor-parallelism manipulation is not supported (paper §3.4); "
        "re-profile with the desired TP degree instead");
  }
  // Faults and user hooks both own the duration decision; composing them
  // (whose multiplier applies first? does the hook see the perturbed or
  // the profiled duration?) has no single right answer, so the combination
  // is rejected rather than silently ordered.
  if (whatif.faults() != nullptr &&
      (whatif.hooks() != nullptr || !whatif.hooks_name().empty())) {
    return invalid_argument_error(
        "with_faults cannot be combined with custom simulator hooks; "
        "pick one duration-override mechanism per what-if");
  }
  Result<std::shared_ptr<core::SimulatorHooks>> hooks = resolve_hooks(whatif);
  if (!hooks.is_ok()) return hooks.status();
  const GraphEffect effect = graph_effect(whatif);

  // Resolve the cost model up front: an unknown registry name is an error,
  // and so is naming one on a what-if that never re-costs kernels — silently
  // computing baseline numbers would let the caller believe it was applied.
  cost::KernelPerfModel kernel_model(base.scenario.hardware());
  if (!whatif.cost_model_name().empty()) {
    Session::CostModelFactory factory;
    {
      CostModelRegistry& registry = cost_model_registry();
      ReaderLock lock(registry.mutex);
      auto it = registry.factories.find(whatif.cost_model_name());
      if (it == registry.factories.end()) {
        return invalid_argument_error("no cost model registered as '" +
                                      whatif.cost_model_name() + "'");
      }
      factory = it->second;
    }
    if (!effect.rebuilds) {
      return invalid_argument_error(
          "cost model '" + whatif.cost_model_name() +
          "' has no effect: kernels are only re-costed when the what-if "
          "rebuilds the graph (parallelism or architecture change)");
    }
    kernel_model = factory(base.scenario.hardware());
  }

  // Pick the graph to simulate without copying the baseline unless a
  // manipulation actually produces a new one.
  Prediction out;
  core::ExecutionGraph owned;
  const core::ExecutionGraph* to_run = base.graph.get();
  if (effect.rebuilds) {
    if (!base.model || !base.config) {
      return failed_precondition_error(
          "graph manipulation needs the baseline model and parallelism; "
          "specify them with with_model / with_parallelism");
    }
    const auto [target_model, target_config] = rebuild_target(base, whatif);
    Result<workload::BuiltJob> job = manipulate([&] {
      return core::GraphManipulator(*base.graph, *base.model, *base.config,
                                    kernel_model, base.scenario.build_options())
          .with_spec(target_model, target_config);
    });
    if (!job.is_ok()) return job.status();
    owned = std::move(job->graph);
    to_run = &owned;
    out.model = std::move(job->model);
    out.config = job->config;
  } else {
    if (base.model) out.model = *base.model;
    if (base.config) out.config = *base.config;
  }

  if (whatif.fusion()) {
    core::FusionResult fused =
        core::fuse_elementwise(*to_run, *whatif.fusion());
    owned = std::move(fused.graph);
    to_run = &owned;
    out.kernels_eliminated = fused.kernels_eliminated;
    out.fusion_saved_ns = fused.saved_ns;
  }
  for (core::DepType type : whatif.dropped_dependencies()) {
    owned = to_run->without_edges(type);
    to_run = &owned;
  }

  // Lower the fault spec against whatever graph is about to run. A caller
  // plan (Session's fingerprint cache) is valid only for the baseline graph,
  // so it is used exactly when the what-if preserved the structure.
  faults::FaultPlan owned_plan;
  const faults::FaultPlan* fault_plan = nullptr;
  if (whatif.faults() != nullptr) {
    if (plan != nullptr && effect.preserves_structure) {
      fault_plan = plan;
    } else {
      owned_plan = faults::FaultPlan::lower(*to_run, *whatif.faults());
      fault_plan = &owned_plan;
    }
    if (!fault_plan->ok()) {
      return invalid_argument_error("fault spec: " + fault_plan->error());
    }
  }

  // The baseline's program describes the baseline graph only. A what-if
  // that changed the structure compiles the graph it runs instead, for this
  // prediction only, when the compiled engine would run it.
  std::shared_ptr<const core::ReplayProgram> program = base.program;
  if (!effect.preserves_structure) {
    program = compiled_engine_applies(hooks->get(), fault_plan)
                  ? compile_program(*to_run)
                  : nullptr;
  }
  Status finished = finish_prediction(
      *to_run, *run_replay(*to_run, program.get(), hooks->get(), fault_plan),
      out);
  if (!finished.is_ok()) return finished;
  return out;
}

bool carries_baseline_fields(const Scenario& whatif) {
  return whatif.has_model() || whatif.has_parallelism() ||
         whatif.has_microbatches();
}

std::optional<RebuildTarget> shared_rebuild_target(
    const BaselineArtifacts& base, const Scenario& whatif) {
  if (!check_baseline(base).is_ok() || !base.model || !base.config) {
    return std::nullopt;
  }
  const bool plain = !carries_baseline_fields(whatif) && !whatif.new_tp() &&
                     whatif.hooks() == nullptr && whatif.hooks_name().empty() &&
                     whatif.faults() == nullptr && !whatif.fusion() &&
                     whatif.dropped_dependencies().empty() &&
                     whatif.cost_model_name().empty();
  if (!plain || !graph_effect(whatif).rebuilds) return std::nullopt;
  auto [model, config] = rebuild_target(base, whatif);
  const workload::StructureKey key =
      workload::structure_key(model, config, base.scenario.build_options());
  return RebuildTarget{std::move(model), config, key};
}

SharedRebuilds::SharedRebuilds(const BaselineArtifacts& base)
    : kernel_model_(base.scenario.hardware()),
      manipulator_(*base.graph, *base.model, *base.config, kernel_model_,
                   base.scenario.build_options()) {}

Result<Prediction> SharedRebuilds::build(const RebuildTarget& target,
                                         SharedStructure& structure) const {
  Result<workload::BuiltJob> job = manipulate(
      [&] { return manipulator_.with_spec(target.model, target.config); });
  if (!job.is_ok()) return job.status();
  auto graph =
      std::make_shared<const core::ExecutionGraph>(std::move(job->graph));
  Prediction out;
  out.model = std::move(job->model);
  out.config = job->config;
  structure = {graph, compile_program(*graph)};
  Status finished = finish_prediction(
      *graph, *run_replay(*graph, structure.program.get(), nullptr, nullptr),
      out);
  if (!finished.is_ok()) return finished;
  return out;
}

Result<std::vector<std::int64_t>> SharedRebuilds::cost(
    const RebuildTarget& target) const {
  return manipulate(
      [&] { return manipulator_.durations(target.model, target.config); });
}

std::optional<Prediction> SharedRebuilds::replay(
    const RebuildTarget& target, const SharedStructure& structure,
    std::span<const std::int64_t> durations) const {
  if (structure.graph == nullptr || durations.empty()) return std::nullopt;
  std::optional<Replayed> ran = run_replay(
      *structure.graph, structure.program.get(), nullptr, nullptr, durations);
  if (!ran) return std::nullopt;
  Prediction out;
  out.model = target.model;
  out.config = target.config;
  if (!finish_prediction(*structure.graph, *std::move(ran), out).is_ok()) {
    return std::nullopt;
  }
  return out;
}

Result<analysis::Breakdown> Session::breakdown() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return analysis::compute_breakdown(*graph_, *replay_);
}

Result<analysis::Breakdown> Session::breakdown_actual() {
  Result<const trace::ClusterTrace*> actual = actual_trace();
  if (!actual.is_ok()) return actual.status();
  return analysis::compute_breakdown(**actual);
}

Result<analysis::CriticalPathSummary> Session::critical_path() {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  return analysis::critical_path(*graph_, *replay_);
}

Result<std::vector<analysis::DiffEntry>> Session::diff(
    Session& other, const analysis::DiffOptions& options) {
  Result<const trace::ClusterTrace*> before = trace();
  if (!before.is_ok()) return before.status();
  Result<const trace::ClusterTrace*> after = other.trace();
  if (!after.is_ok()) return after.status();
  return analysis::diff_traces(**before, **after, options);
}

Result<std::string> Session::timeline(
    std::int32_t rank, const analysis::TimelineOptions& options) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return analysis::render_timeline(*rank_trace, options);
}

Result<std::vector<trace::Violation>> Session::validate() {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  return trace::validate(**traces);
}

Result<trace::TraceStats> Session::stats(std::int32_t rank) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return trace::compute_stats(*rank_trace);
}

Result<std::vector<double>> Session::sm_utilization(std::int32_t rank,
                                                    std::int64_t bucket_ns) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  const trace::RankTrace* rank_trace = find_rank(**traces, rank);
  if (rank_trace == nullptr) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the trace");
  }
  return analysis::sm_utilization(*rank_trace, bucket_ns);
}

Result<std::vector<std::int32_t>> Session::ranks() {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  std::vector<std::int32_t> out;
  out.reserve((*traces)->ranks.size());
  for (const trace::RankTrace& r : (*traces)->ranks) out.push_back(r.rank);
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::string>> Session::write_trace_files(
    const std::string& prefix) {
  Result<const trace::ClusterTrace*> traces = trace();
  if (!traces.is_ok()) return traces.status();
  try {
    return trace::write_cluster_trace_files(**traces, prefix);
  } catch (const std::exception& e) {
    return io_error(e.what());
  }
}

Result<std::string> Session::chrome_trace_json(std::int32_t rank,
                                               int indent) {
  if (Status status = ensure_replay(); !status.is_ok()) return status;
  // Only this rank's rows are gathered; replayed_trace() stays unbuilt.
  trace::RankTrace rank_trace{rank, trace::EventTable{}};
  replay_->emit_rank(*graph_, rank_trace);
  if (rank_trace.events.empty()) {
    return invalid_argument_error("rank " + std::to_string(rank) +
                                  " not present in the replayed trace");
  }
  try {
    return trace::to_json_string(rank_trace, indent);
  } catch (const std::exception& e) {
    return internal_error(std::string("trace serialization: ") + e.what());
  }
}

Status Session::register_hooks(const std::string& name,
                               HooksFactory factory) {
  if (name.empty()) {
    return invalid_argument_error("hooks registry name must be non-empty");
  }
  if (!factory) {
    return invalid_argument_error("hooks factory must be callable");
  }
  HooksRegistry& registry = hooks_registry();
  WriterLock lock(registry.mutex);
  registry.factories[name] = std::move(factory);
  return Status::ok();
}

Status Session::register_cost_model(const std::string& name,
                                    CostModelFactory factory) {
  if (name.empty()) {
    return invalid_argument_error(
        "cost-model registry name must be non-empty");
  }
  if (!factory) {
    return invalid_argument_error("cost-model factory must be callable");
  }
  CostModelRegistry& registry = cost_model_registry();
  WriterLock lock(registry.mutex);
  registry.factories[name] = std::move(factory);
  return Status::ok();
}

std::vector<std::string> Session::registered_hooks() {
  HooksRegistry& registry = hooks_registry();
  ReaderLock lock(registry.mutex);
  std::vector<std::string> out;
  out.reserve(registry.factories.size());
  for (const auto& [name, factory] : registry.factories) {
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> Session::registered_cost_models() {
  CostModelRegistry& registry = cost_model_registry();
  ReaderLock lock(registry.mutex);
  std::vector<std::string> out;
  out.reserve(registry.factories.size());
  for (const auto& [name, factory] : registry.factories) {
    out.push_back(name);
  }
  return out;
}

Result<core::SimResult> replay_graph(const core::ExecutionGraph& graph,
                                     const core::SimOptions& options) {
  core::TaskId cycle_hint = core::kInvalidTask;
  if (!graph.is_acyclic(&cycle_hint)) {
    return cyclic_graph_error("graph has a dependency cycle through task " +
                              std::to_string(cycle_hint));
  }
  // The simulator indexes the mask by task id; a mismatched caller mask
  // would read out of bounds.
  if (options.dropped_tasks != nullptr &&
      options.dropped_tasks->size() != graph.size()) {
    return invalid_argument_error(
        "dropped_tasks mask has " +
        std::to_string(options.dropped_tasks->size()) +
        " entries but the graph has " + std::to_string(graph.size()) +
        " tasks");
  }
  return core::Simulator(graph, options).run();
}

Result<core::SimResult> replay_faulted(const BaselineArtifacts& base,
                                       const faults::FaultSpec& spec) {
  if (Status status = check_baseline(base); !status.is_ok()) return status;
  const faults::FaultPlan plan = faults::FaultPlan::lower(*base.graph, spec);
  if (!plan.ok()) {
    return invalid_argument_error("fault spec: " + plan.error());
  }
  // Deadlock-as-data: a dropout spec deadlocks by design, and the stuck-
  // task set *is* the result.
  return run_replay(*base.graph, base.program.get(), nullptr, &plan)->sim;
}

}  // namespace lumos::api
