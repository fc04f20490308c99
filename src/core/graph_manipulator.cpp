#include "core/graph_manipulator.h"

#include <stdexcept>

namespace lumos::core {

GraphManipulator::GraphManipulator(const ExecutionGraph& profiled,
                                   workload::ModelSpec base_model,
                                   workload::ParallelConfig base_config,
                                   const cost::KernelPerfModel& kernel_model,
                                   workload::BuildOptions build_options)
    : base_model_(std::move(base_model)),
      base_config_(base_config),
      kernel_model_(kernel_model),
      build_options_(build_options),
      provider_(std::make_unique<TemplateProvider>(
          profiled, base_model_, base_config_, kernel_model)) {}

workload::IterationGraphBuilder GraphManipulator::builder(
    const workload::ModelSpec& model,
    const workload::ParallelConfig& config) const {
  if (config.tp != base_config_.tp) {
    // Matching the paper (§3.4): "We currently do not support modifications
    // to tensor parallelism, as it is typically fixed in practice."
    throw std::invalid_argument(
        "GraphManipulator: tensor-parallelism manipulation is not supported "
        "(see paper §3.4); re-profile with the desired TP degree instead");
  }
  return workload::IterationGraphBuilder(model, config, *provider_,
                                         build_options_);
}

workload::BuiltJob GraphManipulator::with_spec(
    const workload::ModelSpec& model, workload::ParallelConfig config) const {
  return builder(model, config).build();
}

std::vector<std::int64_t> GraphManipulator::durations(
    const workload::ModelSpec& model, workload::ParallelConfig config) const {
  return builder(model, config).durations();
}

workload::ModelSpec GraphManipulator::resized_model(workload::ModelSpec base,
                                                    std::int64_t d_model,
                                                    std::int64_t d_ff) {
  base.d_model = d_model;
  base.d_ff = d_ff;
  base.head_dim = d_model / base.num_heads;
  return base;
}

}  // namespace lumos::core
