// IterationGraphBuilder: constructs the multi-rank execution graph of one
// training iteration of a Megatron-style 3D-parallel GPT model.
//
// The builder materializes one data-parallel replica explicitly (tp*pp
// ranks, using the real global rank numbering so node placement is
// faithful); data-parallel collectives carry their full group size for
// costing. Each rank gets:
//   - a main CPU thread (forward passes, pipeline p2p, optimizer) and an
//     autograd CPU thread (backward passes, DP-bucket reducer hooks),
//   - a compute stream, a tensor-parallel NCCL stream, a data-parallel NCCL
//     stream, and separate pipeline send / recv streams,
//   - cudaEventRecord / cudaStreamWaitEvent pairs expressing every
//     compute<->communication ordering, exactly the inter-stream artifacts
//     Lumos's dependency inference must recover from traces (paper §3.3.2).
//
// Durations come from a DurationProvider: analytical cost model for
// ground-truth graphs, profiled-trace templates for manipulated graphs.
// The same builder therefore implements both the synthetic cluster and the
// paper's graph-manipulation procedure (§3.4). Tasks are emitted as column
// rows (core/task_columns.h) over one fresh TracePools per build; no Task
// struct is created.
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_graph.h"
#include "workload/duration_provider.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"
#include "workload/schedule.h"

namespace lumos::workload {

/// Well-known lanes, shared by builder, tests and analysis.
namespace lanes {
constexpr std::int32_t kMainThread = 100;
constexpr std::int32_t kAutogradThread = 101;
constexpr std::int64_t kComputeStream = 7;
constexpr std::int64_t kTpStream = 13;
constexpr std::int64_t kDpStream = 17;
constexpr std::int64_t kPpSendStream = 21;
constexpr std::int64_t kPpRecvStream = 22;
}  // namespace lanes

struct BuildOptions {
  SchedulePolicy policy = SchedulePolicy::OneFOneB;
  /// Transformer layers per data-parallel gradient bucket (Megatron DDP
  /// buckets gradients and all-reduces them as backward produces them).
  std::int32_t bucket_layers = 6;
  /// Which data-parallel replica to materialize.
  std::int32_t dp_rank = 0;
  bool include_optimizer = true;
};

/// Everything emission's control flow reads: two builds with equal keys
/// emit the same tasks, edges, lanes, program order and collective
/// instances. They differ only in per-task costing fields (durations,
/// payload bytes, group sizes) and in global rank labels, a bijection that
/// keeps rank order. Everything outside the key is *costing*: dp, d_model,
/// d_ff, num_heads, head_dim, seq_len, vocab_size, microbatch_size,
/// gpus_per_node and the hardware behind the duration provider. A program
/// compiled from one build therefore replays any key-mate exactly, given
/// the key-mate's duration column.
struct StructureKey {
  std::int32_t num_layers = 0;
  std::int32_t tp = 0;
  std::int32_t pp = 0;
  std::int32_t microbatches = 0;
  SchedulePolicy policy = SchedulePolicy::OneFOneB;
  std::int32_t bucket_layers = 0;
  std::int32_t dp_rank = 0;
  bool include_optimizer = true;

  auto operator<=>(const StructureKey&) const = default;
};

StructureKey structure_key(const ModelSpec& model, const ParallelConfig& config,
                           const BuildOptions& options);

/// A built job: the graph plus the configuration that produced it.
struct BuiltJob {
  core::ExecutionGraph graph;
  ModelSpec model;
  ParallelConfig config;
  BuildOptions options;
};

class IterationGraphBuilder {
 public:
  IterationGraphBuilder(ModelSpec model, ParallelConfig config,
                        const DurationProvider& provider,
                        BuildOptions options = {});

  /// Builds the iteration graph. Throws std::invalid_argument if the
  /// config does not validate against the model.
  BuiltJob build();

  /// Costing-only pass: the duration column build() would produce, in task
  /// id order, from the same emission with no graph — no interning, rows,
  /// edges or finalize(). Throws exactly when build() throws.
  std::vector<std::int64_t> durations();

 private:
  ModelSpec model_;
  ParallelConfig config_;
  const DurationProvider& provider_;
  BuildOptions options_;
};

}  // namespace lumos::workload
