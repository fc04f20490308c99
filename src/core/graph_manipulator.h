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
//
// Implementation: manipulation = rebuilding the iteration graph with the
// same generator that expresses the original dependency pattern, driven by
// a TemplateProvider that sources every duration from the profiled trace
// (cost-model ratio scaling only where shapes changed). Predictions run in
// the coupled multi-rank simulator, which re-derives rendezvous waits under
// the new schedule.
//
// Thread safety: every const member may run concurrently — one manipulator
// can serve rebuilds on many threads (the template lookups are const and
// the fallback counter is atomic).
#pragma once

#include <cstdint>
#include <memory>

#include "core/execution_graph.h"
#include "core/simulator.h"
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
                   workload::BuildOptions build_options = {},
                   TemplateOptions template_options = {});

  /// Fig. 7a: new data-parallel degree; everything but DP communication is
  /// sourced unchanged from the trace.
  workload::BuiltJob with_data_parallelism(std::int32_t new_dp) const;

  /// Fig. 7b: new pipeline-parallel degree (layers re-staged, schedule
  /// rebuilt, p2p re-inserted).
  workload::BuiltJob with_pipeline_parallelism(std::int32_t new_pp) const;

  /// Fig. 7c: simultaneous PP and DP change.
  workload::BuiltJob with_parallelism(std::int32_t new_pp,
                                      std::int32_t new_dp) const;

  /// Fig. 8: arbitrary architecture change (layer count, hidden size,
  /// feedforward size). Throws std::invalid_argument if the new model is
  /// incompatible with the base parallelism.
  workload::BuiltJob with_model(const workload::ModelSpec& new_model) const;

  /// Convenience wrappers for the Table 2 variants.
  workload::BuiltJob with_num_layers(std::int32_t new_layers) const;
  workload::BuiltJob with_hidden_size(std::int64_t d_model,
                                      std::int64_t d_ff) const;

  /// The model derived from `base` by resizing the hidden/feedforward
  /// dimensions (head_dim tracks d_model at fixed head count) — the single
  /// place this derivation rule lives.
  static workload::ModelSpec resized_model(workload::ModelSpec base,
                                           std::int64_t d_model,
                                           std::int64_t d_ff);

  /// Rejected, as in the paper.
  workload::BuiltJob with_tensor_parallelism(std::int32_t new_tp) const;

  /// General form: rebuild with an arbitrary (model, config) pair — the
  /// composition of an architecture and a parallelism change. TP must match
  /// the base config (tensor-parallelism manipulation is unsupported).
  workload::BuiltJob with_spec(const workload::ModelSpec& model,
                               workload::ParallelConfig config) const;

  /// Runs the coupled multi-rank prediction simulation for a manipulated
  /// job and returns the result (paper: "predicting performance through
  /// simulation").
  static SimResult predict(const workload::BuiltJob& job);

  const TemplateProvider& templates() const { return *provider_; }

 private:
  workload::BuiltJob rebuild(const workload::ModelSpec& model,
                             workload::ParallelConfig config) const;

  workload::ModelSpec base_model_;
  workload::ParallelConfig base_config_;
  const cost::KernelPerfModel& kernel_model_;
  workload::BuildOptions build_options_;
  // Const lookups (atomic fallback counter): with_spec / rebuild may run on
  // any number of threads against one manipulator.
  std::unique_ptr<const TemplateProvider> provider_;
};

}  // namespace lumos::core
