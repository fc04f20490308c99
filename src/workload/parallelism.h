// 3D-parallel deployment configuration and rank placement.
//
// Rank layout follows Megatron's default order (tensor fastest, then data,
// then pipeline):  global_rank = pp_rank*(dp*tp) + dp_rank*tp + tp_rank.
// With tp <= gpus_per_node this keeps tensor-parallel groups inside a node
// (NVLink) while data/pipeline groups cross nodes (RoCE) — the placement the
// paper's cluster uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/collective.h"
#include "workload/model_spec.h"

namespace lumos::workload {

struct ParallelConfig {
  std::int32_t tp = 1;  ///< tensor parallel degree
  std::int32_t pp = 1;  ///< pipeline parallel degree
  std::int32_t dp = 1;  ///< data parallel degree
  std::int32_t microbatch_size = 1;   ///< sequences per micro-batch
  std::int32_t num_microbatches = 0;  ///< 0 -> default 2*pp
  std::int32_t gpus_per_node = 8;

  std::int32_t world_size() const { return tp * pp * dp; }
  std::int32_t microbatches() const {
    return num_microbatches > 0 ? num_microbatches : 2 * pp;
  }

  /// "TPxPPxDP" label used in the paper's figures, e.g. "2x2x4".
  std::string label() const;

  /// Validates the config against a model (layers divisible by pp, heads
  /// and d_ff divisible by tp, d_model divisible by heads, ...). Returns an
  /// error message or "".
  std::string validate(const ModelSpec& model) const;
};

/// Coordinates of one rank in the 3D grid.
struct RankCoord {
  std::int32_t tp_rank = 0;
  std::int32_t dp_rank = 0;
  std::int32_t pp_rank = 0;

  bool operator==(const RankCoord&) const = default;
};

/// Maps between global ranks and grid coordinates, and computes communicator
/// placements on the physical topology.
class Placement {
 public:
  Placement(const ParallelConfig& config) : config_(config) {}

  std::int32_t global_rank(const RankCoord& coord) const;
  RankCoord coord(std::int32_t global_rank) const;
  std::int32_t node_of(std::int32_t global_rank) const;

  /// Ranks of the tensor-parallel group containing `rank`.
  std::vector<std::int32_t> tp_group(std::int32_t rank) const;
  /// Ranks of the data-parallel group containing `rank`.
  std::vector<std::int32_t> dp_group(std::int32_t rank) const;
  /// Ranks of the pipeline group containing `rank` (stage order).
  std::vector<std::int32_t> pp_group(std::int32_t rank) const;

  /// Placement (size + nodes spanned) for the communicators of `rank`.
  cost::CommPlacement tp_placement(std::int32_t rank) const;
  cost::CommPlacement dp_placement(std::int32_t rank) const;
  /// Point-to-point link between adjacent pipeline stages.
  cost::CommPlacement pp_placement(std::int32_t rank) const;

  const ParallelConfig& config() const { return config_; }

 private:
  cost::CommPlacement placement_of(
      const std::vector<std::int32_t>& ranks) const;

  ParallelConfig config_;
};

}  // namespace lumos::workload
