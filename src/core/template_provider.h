// TemplateProvider: a DurationProvider backed by a profiled execution
// graph — the duration oracle behind graph manipulation (paper §3.4, §4.3).
//
// Extraction groups profiled tasks by semantic key
//   (block, phase, name, ordinal-within-block-instance)
// aggregated across ranks, layers and micro-batches. Lookup rules:
//   - CPU ops and unchanged kernels: mean profiled duration ("we duplicate
//     the layers and corresponding tasks from the existing trace").
//   - GEMM kernels whose shape changed: mean duration scaled by the cost
//     model ratio cost(new shape)/cost(profiled shape) — trace-calibrated
//     analytical scaling, the paper's "update execution times using the
//     in-house performance model".
//   - Attention kernels: same ratio scaling using the base model's
//     attention dimensions.
//   - Collective kernels: *minimum* profiled duration (profiled collective
//     durations include peer-wait skew; the minimum approximates pure
//     transfer, and the coupled simulator re-derives waits), scaled by the
//     collective-model ratio when bytes / group size / placement changed.
//   - Memory-bound kernels: scaled by bytes_moved ratio (input dims are
//     visible in real traces) — can be disabled to exactly match the
//     paper's "GEMM and communication only" policy.
//   - Keys absent from the profile (e.g. pipeline send/recv when the base
//     run had pp=1): analytical cost model fallback.
//
// Extraction reads the profiled graph's meta and event columns. Lookups
// are const and allocation-free — one hashed probe keyed by views of the
// caller's strings, compared against the provider's own interned copies —
// so one provider can serve concurrent rebuilds.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "core/execution_graph.h"
#include "costmodel/kernel_model.h"
#include "workload/analytical_provider.h"
#include "workload/duration_provider.h"
#include "workload/parallelism.h"

namespace lumos::core {

class TemplateProvider : public workload::DurationProvider {
 public:
  /// `profiled` is a parsed (or built) graph of the base configuration;
  /// `base_model`/`base_config` describe the run that produced it.
  TemplateProvider(const ExecutionGraph& profiled,
                   workload::ModelSpec base_model,
                   workload::ParallelConfig base_config,
                   const cost::KernelPerfModel& kernel_model);

  std::int64_t cpu_ns(const workload::CpuOpDesc& desc) const override;
  std::int64_t kernel_ns(const workload::KernelDesc& desc) const override;

  /// Number of distinct template keys extracted (for tests/diagnostics).
  std::size_t num_cpu_keys() const { return cpu_stats_.size(); }
  std::size_t num_kernel_keys() const { return kernel_stats_.size(); }
  /// Count of lookups that fell back to the analytical model, summed over
  /// every build this provider served (concurrent ones included).
  std::size_t fallback_count() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// (block, phase, name, ordinal-within-block-instance). Stored keys view
  /// strings interned in keys_; lookup keys view the caller's descriptor.
  struct Key {
    std::string_view block;
    std::string_view phase;
    std::string_view name;
    std::int32_t ordinal;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  struct Stats {
    std::int64_t total_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t count = 0;
    // The first occurrence's cost-relevant shape: what a changed shape's
    // ratio scaling divides by.
    bool collective = false;
    std::int64_t coll_bytes = 0;
    std::int32_t coll_group_size = 0;
    /// Old-topology placement, from the communicator's name prefix.
    cost::CommPlacement coll_placement;
    trace::GemmShape gemm;
    std::int64_t bytes_moved = 0;

    std::int64_t mean_ns() const { return count > 0 ? total_ns / count : 0; }
  };
  using Table = std::unordered_map<Key, Stats, KeyHash>;

  void extract(const ExecutionGraph& profiled);
  /// The template of a key, or nullptr when the profile never saw it.
  static const Stats* find(const Table& table, const Key& key);
  /// Old-topology placement for a collective, inferred from its group-name
  /// prefix ("tp_", "dp_", "pp_", "mp_").
  cost::CommPlacement base_placement(std::string_view group) const;

  workload::ModelSpec base_model_;
  workload::ParallelConfig base_config_;
  const cost::KernelPerfModel& kernel_model_;
  workload::AnalyticalProvider fallback_;  ///< for keys absent in the profile

  trace::StringPool keys_;  ///< owns the text every stored Key views
  Table cpu_stats_;
  Table kernel_stats_;
  mutable std::atomic<std::size_t> fallbacks_{0};
};

}  // namespace lumos::core
