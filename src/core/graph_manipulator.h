// GraphManipulator: generates new execution graphs from an existing
// profiled one (paper §3.4) to predict performance for configurations that
// were never run.
//
// Supported manipulations, matching the paper's evaluation:
//   - data parallelism changes (Fig. 7a): only communication durations are
//     updated ("only the communication needs adjustment... as the local
//     computation for each worker remains unchanged");
//   - pipeline parallelism changes (Fig. 7b/7c): layers and their tasks are
//     re-partitioned into new stages, the 1F1B schedule is rebuilt, and
//     communication tasks are re-inserted at stage boundaries (Fig. 4);
//   - model architecture changes (Fig. 8): layer count (tasks duplicated
//     from the trace and re-linked following the original dependency
//     pattern) and hidden / feedforward sizes (GEMM, attention and
//     communication kernels re-costed);
//   - tensor parallelism changes are rejected, as in the paper ("We
//     currently do not support modifications to tensor parallelism").
// All of them are one entry point, with_spec(model, config).
//
// Implementation: manipulation = rebuilding the iteration graph with the
// same generator that expresses the original dependency pattern, driven by
// a TemplateProvider that sources every duration from the profiled trace
// (cost-model ratio scaling only where shapes changed). durations() is the
// costing half alone: a DP or hidden-size change keeps the structure
// (workload::structure_key), so its column can replay a key-mate's graph.
// Predictions run the rebuilt graph in the coupled multi-rank simulator
// (or its compiled program), which re-derives rendezvous waits under the
// new schedule.
//
// Thread safety: every const member may run concurrently — one manipulator
// can serve rebuilds on many threads (the template lookups are const and
// the fallback counter is atomic).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/execution_graph.h"
#include "core/template_provider.h"
#include "costmodel/kernel_model.h"
#include "workload/graph_builder.h"

namespace lumos::core {

class GraphManipulator {
 public:
  GraphManipulator(const ExecutionGraph& profiled,
                   workload::ModelSpec base_model,
                   workload::ParallelConfig base_config,
                   const cost::KernelPerfModel& kernel_model,
                   workload::BuildOptions build_options = {});

  /// Rebuilds with an arbitrary (model, config) pair — any composition of
  /// the Fig. 7 parallelism and Fig. 8 architecture changes. TP must match
  /// the base config (tensor-parallelism manipulation is unsupported);
  /// throws std::invalid_argument otherwise, or when the pair does not
  /// validate.
  workload::BuiltJob with_spec(const workload::ModelSpec& model,
                               workload::ParallelConfig config) const;

  /// Costing only: the duration column with_spec(model, config) would
  /// carry, from the same emission and template lookups without building a
  /// graph. Throws exactly when with_spec throws. Any graph whose
  /// workload::structure_key matches replays with this column as if it
  /// were with_spec's own graph.
  std::vector<std::int64_t> durations(const workload::ModelSpec& model,
                                      workload::ParallelConfig config) const;

  /// The model derived from `base` by resizing the hidden/feedforward
  /// dimensions (head_dim tracks d_model at fixed head count) — the single
  /// place this derivation rule lives.
  static workload::ModelSpec resized_model(workload::ModelSpec base,
                                           std::int64_t d_model,
                                           std::int64_t d_ff);

  const TemplateProvider& templates() const { return *provider_; }

 private:
  /// The builder for (model, config); throws on a TP change.
  workload::IterationGraphBuilder builder(
      const workload::ModelSpec& model,
      const workload::ParallelConfig& config) const;

  workload::ModelSpec base_model_;
  workload::ParallelConfig base_config_;
  const cost::KernelPerfModel& kernel_model_;
  workload::BuildOptions build_options_;
  // Const lookups (atomic fallback counter): with_spec / durations may run on
  // any number of threads against one manipulator.
  std::unique_ptr<const TemplateProvider> provider_;
};

}  // namespace lumos::core
