// DurationProvider: the pluggable duration oracle consumed by the iteration
// graph builder.
//
// The same builder constructs (a) ground-truth graphs, where durations come
// from the analytical kernel cost model, and (b) manipulated graphs, where
// durations come from per-kernel templates extracted from a profiled trace,
// with cost-model *ratio scaling* applied only to kernels whose shape
// changed (paper §4.3: "only a few key kernels, such as GEMM and
// communication-related ones, exhibit significant runtime changes").
#pragma once

#include <cstdint>
#include <string_view>

#include "costmodel/collective.h"
#include "trace/event.h"

namespace lumos::workload {

// Descriptors carry views: the builder passes string literals and strings
// it owns for the whole build, and providers never keep them past a call.

/// Semantic description of a CPU task the builder is about to emit.
struct CpuOpDesc {
  std::string_view name;   ///< e.g. "aten::linear", "cudaLaunchKernel"
  std::string_view block;  ///< "layer", "embed", "head", "opt", "dp", ...
  std::string_view phase;  ///< "forward" | "backward" | "optimizer"
  std::int32_t layer = -1;
  std::int32_t ordinal = 0;  ///< position within its (block, layer, phase)
};

/// Collective metadata of a kernel the builder is about to emit — the view
/// counterpart of trace::CollectiveInfo, with the same fields and order.
struct CollectiveDesc {
  std::string_view op;     ///< "allreduce", "send", "recv", ...
  std::string_view group;  ///< communicator name
  std::int64_t bytes = 0;
  std::int32_t group_size = 0;
  std::int64_t instance = -1;

  bool valid() const { return !op.empty(); }
};

/// Semantic description of a GPU kernel the builder is about to emit.
/// Exactly one of {gemm, collective, attention, elementwise_bytes} is
/// meaningful, discriminated in that order.
struct KernelDesc {
  std::string_view name;
  std::string_view block;
  std::string_view phase;
  std::int32_t layer = -1;
  std::int32_t ordinal = 0;

  trace::GemmShape gemm;           ///< valid() for matmul kernels
  CollectiveDesc collective;       ///< valid() for comm kernels
  cost::CommPlacement placement;   ///< placement for comm kernels

  // Attention dimensions (attn_seq > 0 marks an attention kernel).
  std::int64_t attn_batch = 0;
  std::int64_t attn_heads = 0;
  std::int64_t attn_seq = 0;
  std::int64_t attn_head_dim = 0;

  std::int64_t elementwise_bytes = 0;  ///< >0 for memory-bound kernels

  bool is_attention() const { return attn_seq > 0; }
};

/// Lookups are const: one provider may serve concurrent builds (a shared
/// GraphManipulator rebuilding on several threads), so implementations
/// must be safe to call from any number of threads at once.
class DurationProvider {
 public:
  virtual ~DurationProvider() = default;
  virtual std::int64_t cpu_ns(const CpuOpDesc& desc) const = 0;
  virtual std::int64_t kernel_ns(const KernelDesc& desc) const = 0;
};

}  // namespace lumos::workload
