// Shared interval-merge kernel.
//
// Every time-occupancy question in Lumos — GPU busy time (trace stats),
// SM utilization buckets, compute/comm overlap breakdowns — reduces to
// "sort [begin, end) intervals and sweep them into a disjoint union". This
// header is the single definition, fed from the contiguous ts/dur columns
// the columnar trace layer (trace::EventTable) exposes.
//
// merge_intervals() is one sort-then-sweep (std::sort on the pairs, then
// an in-place merge); the trace-based breakdown and SM utilization run it.
// A simulated schedule already holds each lane's intervals in order, so
// the schedule-based breakdown (run on every prediction) unions those runs
// with merge_runs() instead of sorting; merge_runs() must match
// merge_intervals() bit-for-bit (tests/test_analysis.cpp drives both over
// adversarial inputs).
//
// Convention: intervals are half-open [begin, end). Touching intervals
// ([a,b) and [b,c)) merge; an input interval *overlaps* when its begin is
// strictly inside the running union.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lumos::analysis {

/// Half-open [begin, end) interval. (Kept as a pair so the merged output
/// plugs straight into the existing breakdown set algebra.)
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorts `intervals` ascending and merges overlapping/touching entries in
/// place. Returns the union length in ns.
std::int64_t merge_intervals(std::vector<Interval>& intervals);

/// Unions intervals that arrive as runs sorted by begin: each GPU lane's
/// device intervals in launch order. `intervals` holds the runs end to
/// end, run r ending before run_ends[r] (ascending, the last one
/// intervals.size()). A run found out of order is sorted on its own. Writes
/// the sorted, disjoint union to `out` (cleared first, its capacity reused)
/// and returns its length: the union and length merge_intervals gives the
/// concatenated runs.
std::int64_t merge_runs(std::span<Interval> intervals,
                        std::span<const std::size_t> run_ends,
                        std::vector<Interval>& out);

/// Gathers the device-activity intervals of a columnar event selection:
/// entries of the parallel ts/dur columns named by `select`, clamped to
/// [clamp_begin, clamp_end) when clamp_end > clamp_begin, empty results
/// dropped. The output is ready for merge_intervals().
std::vector<Interval> gather_intervals(std::span<const std::int64_t> ts,
                                       std::span<const std::int64_t> dur,
                                       std::span<const std::uint32_t> select,
                                       std::int64_t clamp_begin = 0,
                                       std::int64_t clamp_end = 0);

}  // namespace lumos::analysis
