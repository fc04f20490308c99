// Operator-fusion what-if transform.
//
// Paper §3.4 motivates graph manipulation with optimizations that are
// painful to prototype in the framework, naming operator fusion
// explicitly. This transform answers "what if adjacent memory-bound
// kernels were fused?" directly on the execution graph: runs of
// consecutive elementwise kernels on one CUDA stream, within one
// (block, layer, phase, microbatch) instance, are merged into one kernel
// whose duration is the sum minus 2.5 µs of saved per-kernel overhead;
// the replayed graph then quantifies the end-to-end benefit before anyone
// writes a fused kernel. Runs never cross a block instance: fusion across
// module boundaries is rarely legal, and merging kernels that other
// streams' work interleaves with would put a cycle into the graph.
#pragma once

#include <cstdint>

#include "core/execution_graph.h"

namespace lumos::core {

struct FusionOptions {
  /// Maximum kernels merged into one (compiler limits); 0 = unlimited.
  std::int32_t max_run_length = 0;
};

struct FusionResult {
  ExecutionGraph graph;
  std::size_t kernels_eliminated = 0;
  std::size_t fused_groups = 0;
  std::int64_t saved_ns = 0;  ///< total overhead removed (sum over kernels)
};

/// Returns a new graph with eligible elementwise-kernel runs fused.
/// Eligible kernels: GPU, category Kernel, memory-bound (bytes_moved > 0),
/// neither GEMM nor collective. Each run's head survives as `fused_<name>`
/// with the run's duration; all edges touching an eliminated kernel are
/// re-targeted to its head. The graph's rows are copied into fresh pools.
FusionResult fuse_elementwise(const ExecutionGraph& graph,
                              const FusionOptions& options = {});

}  // namespace lumos::core
