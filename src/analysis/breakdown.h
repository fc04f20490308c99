// Execution-time breakdown (paper §4.2.2, Figures 1, 5, 7, 8):
//   exposed compute — computation not overlapping communication,
//   overlapped     — computation and communication running concurrently,
//   exposed comm   — communication not overlapping computation,
//   other          — everything else (primarily idle: pipeline bubbles,
//                    CPU stalls, synchronization).
//
// Classification is interval arithmetic over GPU kernel activity: with
// C = union of compute-kernel intervals and M = union of comm-kernel
// intervals on a rank,
//   overlapped = |C ∩ M|,  exposed compute = |C| - overlapped,
//   exposed comm = |M| - overlapped,  other = span - |C ∪ M|.
#pragma once

#include <cstdint>
#include <string>

#include "core/execution_graph.h"
#include "core/simulator.h"
#include "trace/event.h"

namespace lumos::analysis {

struct Breakdown {
  std::int64_t exposed_compute_ns = 0;
  std::int64_t overlapped_ns = 0;
  std::int64_t exposed_comm_ns = 0;
  std::int64_t other_ns = 0;

  std::int64_t total_ns() const {
    return exposed_compute_ns + overlapped_ns + exposed_comm_ns + other_ns;
  }

  Breakdown& operator+=(const Breakdown& o);
  /// Component-wise division (for averaging across ranks).
  Breakdown operator/(std::int64_t divisor) const;

  /// One-line human-readable summary in milliseconds.
  std::string to_string() const;
};

/// Breakdown of one rank over [begin, end); pass begin==end==0 to use the
/// rank's own span.
Breakdown compute_breakdown(const trace::RankTrace& rank,
                            std::int64_t begin_ns = 0,
                            std::int64_t end_ns = 0);

/// Average per-rank breakdown over a whole job — the aggregate the paper's
/// figures report (each rank's components sum to the iteration span).
Breakdown compute_breakdown(const trace::ClusterTrace& trace);

/// Same aggregate, computed directly from a simulated schedule: device
/// activity and comm/compute classification come from the graph's columnar
/// meta table and the intervals from the SimResult — no per-event trace
/// materialization. Each rank's GPU lanes are walked in launch order
/// (TaskMetaTable::gpu_tasks), and their sorted runs are merged rather
/// than sorted (analysis::merge_runs). A graph with device activity off
/// its GPU lanes (only hand-built graphs) takes the reference path.
/// Bit-identical to `compute_breakdown(result.to_trace(graph))`.
Breakdown compute_breakdown(const core::ExecutionGraph& graph,
                            const core::SimResult& result);

}  // namespace lumos::analysis
