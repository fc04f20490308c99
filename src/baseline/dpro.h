// dPRO-style baseline replayer (Hu et al., MLSys 2022).
//
// dPRO builds a global dataflow graph from instrumented traces but — as the
// paper's evaluation shows (Fig. 1, Fig. 5) — it does not model the
// event-based inter-stream synchronization modern LLM stacks use to order
// computation against communication. Its replay therefore lets kernels on
// different CUDA streams free-run, "leading to overly optimistic
// predictions of parallel execution" (paper §4.2.2): overlap is
// overestimated and total iteration time underestimated, increasingly so as
// the communication share grows.
//
// This baseline reproduces that failure mode from the same mechanism: it
// replays the *same* parsed graph minus its comm->compute InterStream edges.
#pragma once

#include "core/execution_graph.h"
#include "core/simulator.h"

namespace lumos::baseline {

/// Returns the dPRO view of a Lumos execution graph (inter-stream
/// dependencies dropped).
core::ExecutionGraph dpro_graph(const core::ExecutionGraph& graph);

/// Replays a graph the way dPRO would. Equivalent to
/// `Simulator(dpro_graph(g)).run()`.
core::SimResult replay_dpro(const core::ExecutionGraph& graph);

}  // namespace lumos::baseline
