// Structure sharing behind api::Sweep's rebuilt rows. Internal to the
// facade (session.cpp, sweep.cpp) and its tests; api.h does not export it.
//
// A DP or hidden-size change rebuilds a graph with the same structure as
// its base (workload::StructureKey): only durations differ. So a Sweep
// builds and compiles each distinct structure once, and every other row of
// that structure costs its own duration column and replays the shared
// program with it — bit-identical to predict_on's rebuild of that row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/scenario.h"
#include "api/session.h"
#include "api/status.h"
#include "core/execution_graph.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "costmodel/kernel_model.h"
#include "workload/graph_builder.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"

namespace lumos::api {

/// True when `whatif` sets a baseline field (model, parallelism or
/// microbatches). A what-if carries manipulations only; Session::predict
/// and Sweep reject one with baseline fields rather than ignore them.
bool carries_baseline_fields(const Scenario& whatif);

/// A rebuilding what-if's target (model, config) and the structure it
/// groups under.
struct RebuildTarget {
  workload::ModelSpec model;
  workload::ParallelConfig config;
  workload::StructureKey key;
};

/// The target of `whatif` over `base` when its prediction may come from a
/// shared structure: a parallelism or architecture rebuild of a baseline
/// with known model and config, with no TP change, hooks, faults, fusion,
/// dropped dependency, cost model or baseline field. Fault specs and hooks
/// address global rank labels, which differ between key-mates (stage s > 0
/// is rank s·dp·tp + …), so those what-ifs never share. nullopt means the
/// what-if runs through predict_on.
std::optional<RebuildTarget> shared_rebuild_target(
    const BaselineArtifacts& base, const Scenario& whatif);

/// One rebuilt structure: the graph its first row built and the program
/// compiled from it (null when the compiler refused the graph).
struct SharedStructure {
  std::shared_ptr<const core::ExecutionGraph> graph;
  std::shared_ptr<const core::ReplayProgram> program;
};

/// Rebuilt what-ifs over one baseline through one GraphManipulator, so the
/// template extraction is paid once. Thread-safe: every const member may
/// run concurrently.
class SharedRebuilds {
 public:
  /// `base` must carry a graph, model and config (shared_rebuild_target
  /// returns a target only for such a baseline). Throws what the template
  /// extraction throws.
  explicit SharedRebuilds(const BaselineArtifacts& base);
  SharedRebuilds(const SharedRebuilds&) = delete;
  SharedRebuilds& operator=(const SharedRebuilds&) = delete;

  /// A structure's first row: rebuilds, compiles and replays `target`
  /// exactly as predict_on does. Once the rebuild succeeds, `structure`
  /// holds its graph and program for the key-mates.
  Result<Prediction> build(const RebuildTarget& target,
                           SharedStructure& structure) const;
  /// A key-mate's costing pass: its duration column, with the rebuild's
  /// errors (kValidationError for a target that does not validate).
  Result<std::vector<std::int64_t>> cost(const RebuildTarget& target) const;
  /// A key-mate's prediction: `structure`'s program replayed with
  /// `durations`, the breakdown taken on the shared graph. nullopt when
  /// the structure has no program or the column fails
  /// ReplayProgram::accepts; the row then runs predict_on.
  std::optional<Prediction> replay(
      const RebuildTarget& target, const SharedStructure& structure,
      std::span<const std::int64_t> durations) const;

 private:
  cost::KernelPerfModel kernel_model_;
  core::GraphManipulator manipulator_;  ///< reads kernel_model_
};

/// Which rows of a Sweep::run share a structure, and the order its workers
/// claim them.
struct SweepSchedule {
  /// Per row, the structure it shares; nullopt for a row that runs alone.
  std::vector<std::optional<std::size_t>> structure_of;
  /// Per structure, its leader: the first of its rows in submission order.
  std::vector<std::size_t> leaders;
  /// Row indices in claim order.
  std::vector<std::size_t> order;
};

/// Schedules rows whose `keys` are set (the others run alone) on
/// `workers`. One worker keeps submission order, so only key-mates with
/// no other structure's row between them share one, and one structure is
/// open at a time. Several share
/// one structure per key and take the structures in waves of `workers`, in
/// the order their leaders were submitted: a wave's leaders first, so its
/// builds run side by side, then its followers and (in the first wave) the
/// rows that run alone, in submission order. Either way the claimed
/// structures that still have an unclaimed row never number more than
/// `workers`, so the graphs alive at once grow with the pool, not with the
/// sweep. A leader is claimed before its followers and never waits, so no
/// pool size can deadlock.
SweepSchedule schedule_sweep(
    const std::vector<std::optional<workload::StructureKey>>& keys,
    std::size_t workers);

}  // namespace lumos::api
