// lumos::api::Sweep: the batched, concurrent multi-scenario engine.
//
// The paper's core promise is cheap what-if exploration — predicting many
// parallelism/architecture variants from one profiled trace. A Session
// evaluates one Scenario at a time; a Sweep evaluates N of them: the base
// artifacts (parsed ExecutionGraph, its compiled program, resolved
// model/config) are built exactly once into an immutable BaselineArtifacts, the
// variants fan out across a worker pool, and the per-scenario results
// gather into one ranked SweepReport.
//
// Rebuilt variants share work by structure (workload::StructureKey): the
// first row of each structure rebuilds and compiles its graph once, and
// every other row of that structure — a DP or hidden-size change of it —
// runs only a costing pass and replays the shared program with its own
// duration column. One GraphManipulator serves all of them. Workers take
// the structures in waves of the pool size, so the graphs alive at once
// grow with the pool; run(1) keeps submission order and shares only
// between key-mates with no other structure's row between them. Every
// other variant (faults, hooks, fusion, dropped dependencies, a cost
// model, standalone scenarios) runs its own pipeline through predict_on.
//
//   auto sweep = Sweep::create(
//       Scenario::synthetic().with_model("15b").with_parallelism("2x2x4"));
//   sweep->add_parallelism_grid({"2x2x8", "2x4x4", "2x4x8", "2x8x8"});
//   sweep->add("fused", api::whatif().with_fusion());
//   auto report = sweep->run();           // parallel across cores
//   std::puts(report->to_string().c_str());
//
// Guarantees:
//  - Determinism: run(1) and run(K) produce bit-identical rows — the
//    simulator is a pure function of (graph, variant) and rows are keyed by
//    submission index, never by completion order.
//  - Isolation: a variant that fails (malformed manipulation, deadlocked
//    schedule, unknown registry name) records its Status in its own row and
//    never poisons sibling variants; run() itself stays OK.
//  - Thread safety: workers read the shared baseline const-only (the graph's
//    lazy adjacency index is double-checked-locked) and resolve registry
//    hooks/cost models under shared locks. Hooks *instances* attached with
//    with_hooks(shared_ptr) are the caller's concurrency responsibility;
//    registry-name hooks are instantiated fresh per variant.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/session.h"

namespace lumos::api {

struct SweepOptions {
  /// Worker threads for run(). 0 = one per hardware thread, capped at the
  /// number of variants. 1 = the sequential reference loop.
  std::size_t workers = 0;
};

/// Outcome of one variant: the submitted scenario plus either a Prediction
/// or the Status that stopped it. Rows keep submission order.
struct SweepRow {
  std::string label;
  Scenario scenario;
  /// True for add_scenario() items, which run their own full pipeline
  /// instead of manipulating the shared baseline.
  bool standalone = false;

  Status status;                         ///< OK when `prediction` is set
  std::optional<Prediction> prediction;  ///< simulation + manipulated spec

  bool ok() const { return status.is_ok() && prediction.has_value(); }
  /// Predicted iteration time; negative when the variant failed.
  double makespan_ms() const {
    return prediction ? prediction->makespan_ms() : -1.0;
  }
};

/// Gathered results of one Sweep::run, in submission order, with a ranking
/// of the successful rows (fastest predicted iteration first; ties keep
/// submission order).
struct SweepReport {
  std::vector<SweepRow> rows;
  std::vector<std::size_t> ranking;  ///< indices into rows, best first
  /// Rows that ran compiled (Prediction::used_compiled_replay) instead of
  /// on the interpreter: structure-preserving variants on the baseline's
  /// one-time compile, rebuilt variants on their structure's program (with
  /// their own duration column), fused variants on their own graph's.
  std::size_t compiled_replays = 0;

  std::size_t succeeded() const { return ranking.size(); }
  std::size_t failed() const { return rows.size() - ranking.size(); }
  /// The fastest successful row; nullptr when every variant failed.
  const SweepRow* best() const {
    return ranking.empty() ? nullptr : &rows[ranking.front()];
  }
  /// Human-readable ranked table (failures listed last with their status).
  std::string to_string() const;
};

/// Outcome of one (fault composition, severity) cell of a fault grid.
struct FaultImpactRow {
  std::string label;      ///< "all" or one FaultSpec component label
  double severity = 1.0;  ///< the FaultSpec::scaled argument
  Status status;          ///< OK when the faulted prediction completed
  std::int64_t makespan_ns = 0;
  /// Makespan degradation vs the fault-free baseline, in percent.
  double degradation_pct = 0.0;
  bool used_compiled_replay = false;

  bool ok() const { return status.is_ok(); }
};

/// Ranked makespan-degradation report of Sweep::run_fault_grid: the
/// fault-free baseline, every (composition, severity) cell, and a ranking
/// of the successful cells, worst degradation first — so the report reads
/// as "which fault hurts this workload most, and how fast does it grow
/// with severity".
struct FaultReport {
  std::int64_t baseline_makespan_ns = 0;
  std::vector<FaultImpactRow> rows;
  std::vector<std::size_t> ranking;  ///< indices into rows, worst first

  /// Human-readable ranked degradation table.
  std::string to_string() const;
};

class Sweep {
 public:
  /// Validates `base` exactly like Session::create, then collects the trace
  /// and parses the execution graph once, eagerly — create() returns only
  /// when the shared baseline is ready for concurrent use.
  static Result<Sweep> create(Scenario base, SweepOptions options = {});
  /// Builds a Sweep over an existing session's baseline (shares the
  /// session's cached graph; collects and parses the trace first if
  /// needed).
  static Result<Sweep> over(Session& session, SweepOptions options = {});

  Sweep(Sweep&&) = default;
  Sweep& operator=(Sweep&&) = default;
  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  /// The shared immutable baseline every what-if variant reads.
  const BaselineArtifacts& baseline() const { return base_; }

  /// Adds one what-if variant (manipulations only, like Session::predict's
  /// argument; baseline fields on it fail the row with kInvalidArgument).
  Sweep& add(std::string label, Scenario whatif);
  /// Adds a standalone scenario that runs its own collect → parse →
  /// simulate pipeline in the pool — for suite-style sweeps mixing
  /// what-ifs with independently profiled configurations.
  Sweep& add_scenario(std::string label, Scenario scenario);
  /// Adds one variant per "TPxPPxDP" label via parallelism manipulation
  /// against the baseline. Malformed labels are rejected here, eagerly,
  /// with the offending label in the message; a label whose TP differs
  /// from the baseline's is added but will fail its row with kUnsupported
  /// (the paper does not support TP manipulation). When the baseline has
  /// no known parallelism (a trace session without with_parallelism), the
  /// TP comparison is impossible and such rows instead fail with
  /// kFailedPrecondition from the rebuild itself.
  Status add_parallelism_grid(const std::vector<std::string>& labels);
  /// Cartesian grid helper: one variant per (pp, dp) at the baseline TP,
  /// labeled "TPxPPxDP". Same eager validation as the label overload
  /// (kInvalidArgument on any degree < 1, nothing half-added).
  Status add_parallelism_grid(const std::vector<std::int32_t>& pps,
                              const std::vector<std::int32_t>& dps);

  std::size_t size() const { return items_.size(); }

  /// Streaming results: `callback` is invoked once per variant as soon as
  /// its row completes, before run() returns the gathered report.
  ///
  /// Lock discipline: callbacks run on whichever worker thread finished the
  /// variant, but strictly one at a time — the Sweep serializes them under
  /// an internal mutex, so the callback itself needs no synchronization for
  /// its own state. Invocation order is completion order (use
  /// SweepReport's rows for submission order; they are unaffected). The
  /// row reference is valid only for the duration of the call. The
  /// callback must not call back into this Sweep (run/add/on_result) —
  /// that would deadlock on the serialization mutex or race the pool.
  /// An exception thrown by the callback is contained (swallowed): the
  /// row it was handed is already final, and run() stays no-throw.
  Sweep& on_result(std::function<void(const SweepRow&)> callback);

  /// Runs every variant and gathers the report. Per-variant failures are
  /// recorded in their rows; run() itself fails only for structural misuse
  /// (kFailedPrecondition when no variants were added). A structure's
  /// rebuilt graph and program live only inside this call, released when
  /// its last row finishes.
  Result<SweepReport> run() { return run(options_.workers); }
  /// Same, with an explicit worker count (1 = sequential reference).
  Result<SweepReport> run(std::size_t workers);

  /// Severity grid for one fault composition: evaluates the fault-free
  /// baseline plus spec.scaled(s) for every severity in `severities` —
  /// and, when the spec composes more than one fault model, each component
  /// alone at each severity (per-fault slowdown attribution) — over this
  /// sweep's shared baseline on `workers` threads (0 = auto, 1 =
  /// sequential; bit-identical rows either way, the FaultSpec jitter PRNG
  /// is keyed on task identity, not execution order). Does not touch this
  /// sweep's added variants. kInvalidArgument for an invalid spec, an
  /// empty/non-finite/negative severity list, or a spec the baseline graph
  /// cannot lower (unknown rank or group); a deadlocked cell (rank
  /// dropout) records kDeadlock in its own row.
  Result<FaultReport> run_fault_grid(const faults::FaultSpec& spec,
                                     const std::vector<double>& severities,
                                     std::size_t workers = 0) const;

 private:
  struct Item {
    std::string label;
    Scenario scenario;
    bool standalone = false;
  };

  Sweep(BaselineArtifacts base, SweepOptions options)
      : base_(std::move(base)), options_(options) {}

  SweepRow run_item(const Item& item) const;

  BaselineArtifacts base_;
  SweepOptions options_;
  std::vector<Item> items_;
  /// Invoked per completed row, serialized under a run()-local mutex.
  std::function<void(const SweepRow&)> on_result_;
};

}  // namespace lumos::api
