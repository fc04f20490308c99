#include "core/replay_program.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

#include "core/execution_graph.h"

namespace lumos::core {

const char* to_string(ReplayCompileStatus status) {
  switch (status) {
    case ReplayCompileStatus::kCompiled:
      return "compiled";
    case ReplayCompileStatus::kCyclic:
      return "cyclic";
    case ReplayCompileStatus::kUnorderedLane:
      return "unordered-lane";
    case ReplayCompileStatus::kNonPositiveDuration:
      return "non-positive-duration";
  }
  return "unknown";
}

SimResult ReplayProgram::run() const { return run(durations_); }

bool ReplayProgram::accepts(std::span<const std::int64_t> durations) const {
  return durations.size() == task_count_ &&
         std::all_of(durations.begin(), durations.end(),
                     [](std::int64_t d) { return d > 0; });
}

SimResult ReplayProgram::run(std::span<const std::int64_t> durations) const {
  assert(durations.size() == task_count_);
  SimResult result;
  const std::size_t n = task_count_;
  result.start_ns.assign(n, 0);
  result.end_ns.assign(n, 0);
  result.executed = n;
  if (n == 0) return result;

  // The whole run state: one cursor per lane. Everything else the
  // interpreter maintains (ready times, dependency counters, the priority
  // queue, parked sets) was folded into the instruction order at compile
  // time.
  std::vector<std::int64_t> lane_free(lane_count_, 0);
  std::int64_t* const start = result.start_ns.data();
  std::int64_t* const end = result.end_ns.data();
  const std::int64_t* const dur = durations.data();
  std::int64_t* const free_at = lane_free.data();
  const TaskId* const ops = operands_.data();
  const Member* const mems = members_.data();

  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case Op::kRun: {
        // start = max(effective predecessors' end, lane cursor). Proven at
        // compile time: every earlier occupant of this lane has already
        // executed, so the cursor is exact, and end > start (positive
        // durations) keeps the cursor monotone without a max.
        const auto idx = static_cast<std::size_t>(ins.id);
        std::int64_t at = free_at[static_cast<std::size_t>(ins.lane)];
        const TaskId* const first = ops + ins.first;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t e = end[static_cast<std::size_t>(first[i])];
          at = e > at ? e : at;
        }
        start[idx] = at;
        const std::int64_t fin = at + dur[idx];
        end[idx] = fin;
        free_at[static_cast<std::size_t>(ins.lane)] = fin;
        break;
      }
      case Op::kArrive: {
        // Collective member: record the arrival (scratch in start_ns, made
        // final at the rendezvous) without occupying the lane — real NCCL
        // kernels spin on-stream while waiting for peers.
        const auto idx = static_cast<std::size_t>(ins.id);
        std::int64_t at = free_at[static_cast<std::size_t>(ins.lane)];
        const TaskId* const first = ops + ins.first;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t e = end[static_cast<std::size_t>(first[i])];
          at = e > at ? e : at;
        }
        start[idx] = at;
        break;
      }
      case Op::kRendezvous: {
        // Members are pre-sorted by (profiled ts, id) — the interpreter's
        // park order among equal arrivals — so the strictly-greater max
        // scan picks the same last arrival and the same transfer duration.
        const Member* const member = mems + ins.first;
        std::int64_t rendezvous = 0;
        std::uint32_t last = 0;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const std::int64_t at =
              start[static_cast<std::size_t>(member[i].task)];
          if (at > rendezvous) {
            rendezvous = at;
            last = i;
          }
        }
        const std::int64_t transfer =
            dur[static_cast<std::size_t>(member[last].task)];
        const std::int64_t group_end = rendezvous + transfer;
        const bool rendezvous_start = member[last].p2p != 0;
        for (std::uint32_t i = 0; i < ins.count; ++i) {
          const auto idx = static_cast<std::size_t>(member[i].task);
          if (rendezvous_start) start[idx] = rendezvous;
          end[idx] = group_end;
          std::int64_t& lf = free_at[static_cast<std::size_t>(member[i].lane)];
          lf = group_end > lf ? group_end : lf;
        }
        break;
      }
    }
  }

  std::int64_t lo = start[0];
  std::int64_t hi = end[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = start[i] < lo ? start[i] : lo;
    hi = end[i] > hi ? end[i] : hi;
  }
  result.makespan_ns = hi - lo;
  return result;
}

namespace {

/// Compile-time scaffolding: the ordering graph over task nodes
/// [0, n) plus rendezvous-group nodes [n, n + groups), in CSR form.
struct OrderingGraph {
  std::vector<std::int32_t> offsets;  ///< size node_count + 1
  std::vector<std::int32_t> heads;
  std::span<const std::int32_t> out(std::int32_t node) const {
    const auto i = static_cast<std::size_t>(node);
    return {heads.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
};

/// Node budget for each lane-order path proof. Every parser/builder lane
/// carries direct intra-lane chain edges (found in O(out-degree)), so the
/// budget only bounds pathological hand-built graphs, which fall back to
/// the interpreter.
constexpr std::size_t kLaneCheckBudget = 4096;

/// Breadth-first reachability `from => to`, pruned to topological positions
/// <= pos[to] (every ordering edge goes forward in topo position, so the
/// pruning is exact, not a heuristic). Visiting more than kLaneCheckBudget
/// nodes reports "not proven". Parser/builder lanes carry direct intra-lane
/// chain edges, so in practice this terminates within one or two
/// expansions.
class ReachChecker {
 public:
  ReachChecker(const OrderingGraph& graph,
               const std::vector<std::int32_t>& pos, std::size_t nodes)
      : graph_(graph), pos_(pos), stamp_(nodes, 0) {}

  bool proven(std::int32_t from, std::int32_t to) {
    ++epoch_;
    frontier_.clear();
    frontier_.push_back(from);
    stamp_[static_cast<std::size_t>(from)] = epoch_;
    const std::int32_t limit = pos_[static_cast<std::size_t>(to)];
    std::size_t visited = 1;
    for (std::size_t head = 0; head < frontier_.size(); ++head) {
      for (const std::int32_t next : graph_.out(frontier_[head])) {
        if (next == to) return true;
        const auto i = static_cast<std::size_t>(next);
        if (pos_[i] > limit || stamp_[i] == epoch_) continue;
        if (++visited > kLaneCheckBudget) return false;
        stamp_[i] = epoch_;
        frontier_.push_back(next);
      }
    }
    return false;
  }

 private:
  const OrderingGraph& graph_;
  const std::vector<std::int32_t>& pos_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> frontier_;
};

/// Invokes `emit(blocker)` for every statically resolved runtime
/// dependency of `t` — the exact task Simulator's runtime_blocker() probe
/// would defer on / lift to. The blocker identity is a pure function of
/// the meta table (launch order and lane membership), never of durations.
template <typename Emit>
void for_each_sync_blocker(const TaskMetaTable& meta, TaskId t, Emit&& emit) {
  const auto last_prior = [&meta](LaneId lane, TaskId before) -> TaskId {
    const std::span<const TaskId> list = meta.gpu_tasks(lane);
    const auto pos = std::lower_bound(list.begin(), list.end(), before);
    if (pos == list.begin()) return kInvalidTask;
    return *std::prev(pos);
  };
  switch (meta.cuda_api(t)) {
    case trace::CudaApi::StreamSynchronize:
    case trace::CudaApi::EventSynchronize: {
      const LaneId lane = meta.sync_lane(t);
      if (lane == kInvalidLane) return;
      const TaskId blocker = last_prior(lane, meta.sync_before(t));
      if (blocker != kInvalidTask) emit(blocker);
      return;
    }
    case trace::CudaApi::DeviceSynchronize: {
      const std::int32_t rank =
          meta.lanes().rank_index(meta.lane(t));
      for (const LaneId lane : meta.lanes().gpu_lanes(rank)) {
        const TaskId blocker = last_prior(lane, t);
        if (blocker != kInvalidTask) emit(blocker);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace

ReplayCompiler::Result ReplayCompiler::compile(const ExecutionGraph& graph) {
  const auto fallback = [](ReplayCompileStatus status) {
    return Result{nullptr, status};
  };

  const TaskMetaTable& meta = graph.meta();
  const std::size_t n = graph.size();
  auto program = std::make_shared<ReplayProgram>();
  program->task_count_ = n;
  program->lane_count_ = meta.lanes().size();
  if (n == 0) {
    return Result{std::move(program), ReplayCompileStatus::kCompiled};
  }

  // Positivity gate. The (ts, id) rendezvous tie-break and the monotone
  // lane cursor are exact only when every duration is strictly positive
  // (a zero-duration task can insert equal-key heap entries mid-pop and
  // reorder the interpreter's equal-arrival parking).
  for (std::size_t i = 0; i < n; ++i) {
    if (meta.duration_ns(static_cast<TaskId>(i)) <= 0) {
      return fallback(ReplayCompileStatus::kNonPositiveDuration);
    }
  }

  // Rendezvous-group nodes. group_node[t] is the ordering-graph node
  // representing "t's whole group has completed"; out-edges of a member are
  // re-sourced from it because every member ends at the group end. The
  // meta table derives group_index from the member lists, so each member
  // is parked in exactly its own group.
  const std::size_t group_count = meta.rendezvous_group_count();
  const std::size_t node_count = n + group_count;
  std::vector<std::int32_t> group_node(n, -1);
  std::size_t member_count = 0;
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const std::span<const TaskId> members = meta.rendezvous_group(gi).members;
    // An empty group never completes: the cyclic fallback's domain.
    if (members.empty()) {
      return fallback(ReplayCompileStatus::kCyclic);
    }
    member_count += members.size();
    for (const TaskId m : members) {
      group_node[static_cast<std::size_t>(m)] =
          static_cast<std::int32_t>(n + gi);
    }
  }
  const auto source_node = [&group_node](TaskId t) {
    const std::int32_t g = group_node[static_cast<std::size_t>(t)];
    return g >= 0 ? g : static_cast<std::int32_t>(t);
  };

  // Ordering edges: fixed edges and sync edges re-sourced through group
  // nodes, plus member -> group arrival edges. Two passes over the same
  // sources build the CSR: the first counts out-edges (and in-degrees), the
  // second fills each node's list in source order.
  const auto for_each_order_edge = [&](auto&& visit) {
    for (const Edge& e : graph.edges()) {
      visit(source_node(e.src), static_cast<std::int32_t>(e.dst));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<TaskId>(i);
      for_each_sync_blocker(meta, t, [&](TaskId blocker) {
        visit(source_node(blocker), static_cast<std::int32_t>(t));
      });
      if (group_node[i] >= 0) {
        visit(static_cast<std::int32_t>(t), group_node[i]);
      }
    }
  };
  OrderingGraph order;
  order.offsets.assign(node_count + 1, 0);
  std::vector<std::int32_t> in_degree(node_count, 0);
  for_each_order_edge([&](std::int32_t src, std::int32_t dst) {
    ++order.offsets[static_cast<std::size_t>(src) + 1];
    ++in_degree[static_cast<std::size_t>(dst)];
  });
  for (std::size_t i = 1; i <= node_count; ++i) {
    order.offsets[i] += order.offsets[i - 1];
  }
  order.heads.resize(static_cast<std::size_t>(order.offsets[node_count]));
  // Fill with offsets[src] as the write cursor, which leaves offsets[i] at
  // the start of node i + 1; shifting by one slot restores the starts.
  for_each_order_edge([&](std::int32_t src, std::int32_t dst) {
    order.heads[static_cast<std::size_t>(
        order.offsets[static_cast<std::size_t>(src)]++)] = dst;
  });
  for (std::size_t i = node_count; i > 0; --i) {
    order.offsets[i] = order.offsets[i - 1];
  }
  order.offsets[0] = 0;

  // Kahn topological sort, min-node-id heap for a canonical instruction
  // stream (any topo order evaluates the recurrence identically; the
  // canonical one makes compiles deterministic byte-for-byte).
  std::vector<std::int32_t> topo;
  topo.reserve(node_count);
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      std::greater<>>
      ready;
  for (std::size_t i = 0; i < node_count; ++i) {
    if (in_degree[i] == 0) ready.push(static_cast<std::int32_t>(i));
  }
  while (!ready.empty()) {
    const std::int32_t node = ready.top();
    ready.pop();
    topo.push_back(node);
    for (const std::int32_t next : order.out(node)) {
      if (--in_degree[static_cast<std::size_t>(next)] == 0) ready.push(next);
    }
  }
  if (topo.size() != node_count) {
    // A cycle through fixed, sync or rendezvous constraints: the
    // interpreter deadlocks here and must stay in charge of stuck-task
    // reporting.
    return fallback(ReplayCompileStatus::kCyclic);
  }
  std::vector<std::int32_t> pos(node_count, 0);
  for (std::size_t i = 0; i < node_count; ++i) {
    pos[static_cast<std::size_t>(topo[i])] = static_cast<std::int32_t>(i);
  }

  // Emission: one instruction per node in topo order, with the lane-order
  // proof folded in. Per lane, candidate order = topo position, so each
  // task must be reachable from its lane's previous occupant in topo order;
  // a dependency path for every such pair makes the order duration-
  // invariant (and therefore the interpreter's order). Operands are the
  // *original* effective predecessor ids (fixed + sync): a predecessor that
  // is a collective member has its end written by its rendezvous
  // instruction, which the re-sourced ordering edge places earlier.
  ReachChecker checker(order, pos, node_count);
  std::vector<TaskId> lane_last(program->lane_count_, kInvalidTask);
  std::vector<ReplayProgram::Instr> instrs;
  std::vector<TaskId> operands;
  std::vector<ReplayProgram::Member> members;
  instrs.reserve(node_count);
  operands.reserve(graph.edges().size() + n / 4);
  members.reserve(member_count);
  program->collective_count_ = group_count;
  for (const std::int32_t node : topo) {
    ReplayProgram::Instr ins;
    if (node < static_cast<std::int32_t>(n)) {
      const auto t = static_cast<TaskId>(node);
      TaskId& prev = lane_last[static_cast<std::size_t>(meta.lane(t))];
      if (prev != kInvalidTask &&
          !checker.proven(static_cast<std::int32_t>(prev), node)) {
        return fallback(ReplayCompileStatus::kUnorderedLane);
      }
      prev = t;
      ins.op = group_node[static_cast<std::size_t>(t)] >= 0
                   ? ReplayProgram::Op::kArrive
                   : ReplayProgram::Op::kRun;
      ins.lane = meta.lane(t);
      ins.id = t;
      ins.first = static_cast<std::uint32_t>(operands.size());
      for (const TaskId pred : graph.predecessors(t)) {
        operands.push_back(pred);
      }
      for_each_sync_blocker(meta, t, [&](TaskId blocker) {
        operands.push_back(blocker);
      });
      ins.count = static_cast<std::uint32_t>(operands.size()) - ins.first;
    } else {
      const auto gi = static_cast<std::size_t>(node) - n;
      ins.op = ReplayProgram::Op::kRendezvous;
      ins.id = static_cast<std::int32_t>(gi);
      ins.first = static_cast<std::uint32_t>(members.size());
      for (const TaskId m : meta.rendezvous_group(gi).members) {
        ReplayProgram::Member member;
        member.task = m;
        member.lane = meta.lane(m);
        member.p2p = meta.is_p2p(m) ? 1 : 0;
        members.push_back(member);
      }
      std::sort(members.begin() + ins.first, members.end(),
                [&meta](const ReplayProgram::Member& a,
                        const ReplayProgram::Member& b) {
                  const std::int64_t ta = meta.ts_ns(a.task);
                  const std::int64_t tb = meta.ts_ns(b.task);
                  return ta != tb ? ta < tb : a.task < b.task;
                });
      ins.count = static_cast<std::uint32_t>(members.size()) - ins.first;
    }
    instrs.push_back(ins);
  }

  std::vector<std::int64_t> durations(n);
  for (std::size_t i = 0; i < n; ++i) {
    durations[i] = meta.duration_ns(static_cast<TaskId>(i));
  }
  program->instrs_ = std::move(instrs);
  program->operands_ = std::move(operands);
  program->members_ = std::move(members);
  program->durations_ = std::move(durations);
  return Result{std::move(program), ReplayCompileStatus::kCompiled};
}

}  // namespace lumos::core
