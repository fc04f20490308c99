// Property-based simulator tests: random task graphs, seeded and swept via
// parameterized gtest, checked against Algorithm-1 invariants that must
// hold for every valid execution:
//   1. every task starts at or after each fixed predecessor's end;
//   2. tasks on one processor never overlap;
//   3. kernels on one stream execute in launch (id) order;
//   4. blocking CUDA APIs start only after all prior device work on their
//      target stream finished;
//   5. the simulation is deterministic;
//   6. makespan equals the longest (start+dur) minus earliest start;
//   7. coupled collective members finish together.
#include <gtest/gtest.h>

#include <random>

#include "core/execution_graph.h"
#include "core/simulator.h"
#include "test_util.h"

namespace lumos::core {
namespace {

/// Random graph generator: layered DAG over a few ranks, threads and
/// streams, with launches, kernels, syncs and coupled collectives.
class RandomGraph {
 public:
  explicit RandomGraph(std::uint64_t seed) : rng_(seed) {
    const int ranks = pick(1, 3);
    for (int r = 0; r < ranks; ++r) build_rank(r);
    add_cross_thread_edges();
  }

  ExecutionGraph& graph() { return author_.graph; }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  TaskId add_cpu(std::int32_t rank, std::int32_t tid, std::string name,
                 trace::EventCategory cat, std::int64_t stream = -1) {
    Task t;
    t.processor = {rank, false, tid};
    t.event.name = std::move(name);
    t.event.cat = cat;
    t.event.dur_ns = pick(1, 50);
    t.event.ts_ns = seq_++;
    t.event.stream = stream;
    TaskId id = author_.add(t);
    auto key = std::make_pair(rank, tid);
    if (auto it = last_cpu_.find(key); it != last_cpu_.end()) {
      author_.graph.add_edge(it->second, id, DepType::IntraThread);
    }
    last_cpu_[key] = id;
    return id;
  }

  TaskId add_kernel(std::int32_t rank, std::int64_t stream,
                    bool collective, const std::string& group,
                    std::int64_t instance) {
    add_cpu(rank, pick(0, 1), "cudaLaunchKernel",
            trace::EventCategory::CudaRuntime, stream);
    Task t;
    t.processor = {rank, true, stream};
    t.event.name = collective ? "nccl" : "kernel";
    t.event.cat = trace::EventCategory::Kernel;
    t.event.dur_ns = pick(10, 300);
    t.event.ts_ns = seq_++;
    t.event.stream = stream;
    if (collective) {
      t.event.collective.op = pick(0, 1) ? "allreduce" : "recv";
      t.event.collective.group = group;
      t.event.collective.instance = instance;
      t.event.collective.group_size = 2;
    }
    TaskId id = author_.add(t);
    auto key = std::make_pair(rank, stream);
    if (auto it = last_kernel_.find(key); it != last_kernel_.end()) {
      author_.graph.add_edge(it->second, id, DepType::IntraStream);
    }
    // CPU->GPU edge from the launch we just appended (id - 1).
    author_.graph.add_edge(id - 1, id, DepType::CpuToGpu);
    last_kernel_[key] = id;
    return id;
  }

  void build_rank(std::int32_t rank) {
    const int ops = pick(20, 60);
    for (int i = 0; i < ops; ++i) {
      switch (pick(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          add_cpu(rank, pick(0, 1), "aten::op",
                  trace::EventCategory::CpuOp);
          break;
        case 4:
        case 5:
        case 6:
          add_kernel(rank, pick(0, 1) ? 7 : 13, false, "", -1);
          break;
        case 7: {  // inter-stream edge between latest kernels
          auto a = last_kernel_.find({rank, 7});
          auto b = last_kernel_.find({rank, 13});
          if (a != last_kernel_.end() && b != last_kernel_.end() &&
              a->second != b->second) {
            TaskId src = std::min(a->second, b->second);
            TaskId dst = std::max(a->second, b->second);
            author_.graph.add_edge(src, dst, DepType::InterStream);
          }
          break;
        }
        case 8:
          add_cpu(rank, pick(0, 1), "cudaStreamSynchronize",
                  trace::EventCategory::CudaRuntime, pick(0, 1) ? 7 : 13);
          break;
        case 9:
          // Coupled collective spanning rank 0 and this rank (aligned
          // instances ensure group completeness).
          if (rank > 0) {
            const std::int64_t inst = collective_instance_++;
            const std::string group = "g" + std::to_string(rank);
            add_kernel(0, 13, true, group, inst);
            add_kernel(rank, 13, true, group, inst);
          }
          break;
      }
    }
  }

  void add_cross_thread_edges() {
    // A few random forward (id-ordered) inter-thread edges; forward edges
    // cannot create cycles.
    const auto n = static_cast<TaskId>(author_.graph.size());
    for (int i = 0; i < 5 && n > 2; ++i) {
      TaskId a = pick(0, n - 2);
      TaskId b = pick(a + 1, n - 1);
      if (!author_.graph.meta().is_gpu(a) &&
          !author_.graph.meta().is_gpu(b)) {
        author_.graph.add_edge(a, b, DepType::InterThread);
      }
    }
  }

  testutil::GraphAuthor author_;
  std::mt19937_64 rng_;
  std::int64_t seq_ = 0;
  std::int64_t collective_instance_ = 0;
  std::map<std::pair<std::int32_t, std::int32_t>, TaskId> last_cpu_;
  std::map<std::pair<std::int32_t, std::int64_t>, TaskId> last_kernel_;
};

class SimulatorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    random_ = std::make_unique<RandomGraph>(GetParam());
    ASSERT_TRUE(random_->graph().is_acyclic());
    SimOptions options;
    options.couple_collectives = true;
    result_ = Simulator(random_->graph(), options).run();
    ASSERT_TRUE(result_.complete());
  }

  ExecutionGraph& graph() { return random_->graph(); }
  std::unique_ptr<RandomGraph> random_;
  SimResult result_;
};

TEST_P(SimulatorProperty, StartsRespectFixedDependencies) {
  for (const Edge& e : graph().edges()) {
    EXPECT_GE(result_.start_ns[static_cast<std::size_t>(e.dst)],
              result_.end_ns[static_cast<std::size_t>(e.src)])
        << "edge " << e.src << "->" << e.dst << " ("
        << to_string(e.type) << ") violated";
  }
}

TEST_P(SimulatorProperty, ProcessorsNeverOverlap) {
  std::map<Processor, std::vector<TaskId>> per_proc;
  for (const Task& t : graph().tasks()) per_proc[t.processor].push_back(t.id);
  for (auto& [proc, ids] : per_proc) {
    std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
      return result_.start_ns[static_cast<std::size_t>(a)] <
             result_.start_ns[static_cast<std::size_t>(b)];
    });
    for (std::size_t i = 1; i < ids.size(); ++i) {
      EXPECT_GE(result_.start_ns[static_cast<std::size_t>(ids[i])],
                result_.end_ns[static_cast<std::size_t>(ids[i - 1])]);
    }
  }
}

TEST_P(SimulatorProperty, StreamsExecuteInLaunchOrder) {
  std::map<std::pair<std::int32_t, std::int64_t>, TaskId> prev;
  for (const Task& t : graph().tasks()) {
    if (!t.is_gpu()) continue;
    auto key = std::make_pair(t.processor.rank, t.processor.lane);
    if (auto it = prev.find(key); it != prev.end()) {
      EXPECT_GE(result_.start_ns[static_cast<std::size_t>(t.id)],
                result_.end_ns[static_cast<std::size_t>(it->second)]);
    }
    prev[key] = t.id;
  }
}

TEST_P(SimulatorProperty, BlockingSyncsWaitForPriorStreamWork) {
  for (const Task& t : graph().tasks()) {
    if (t.cuda_api() != trace::CudaApi::StreamSynchronize) continue;
    for (const Task& k : graph().tasks()) {
      if (k.is_gpu() && k.processor.rank == t.processor.rank &&
          k.processor.lane == t.event.stream && k.id < t.id) {
        EXPECT_GE(result_.start_ns[static_cast<std::size_t>(t.id)],
                  result_.end_ns[static_cast<std::size_t>(k.id)])
            << "sync " << t.id << " ran before kernel " << k.id;
      }
    }
  }
}

TEST_P(SimulatorProperty, DeterministicReplay) {
  SimOptions options;
  options.couple_collectives = true;
  SimResult again = Simulator(graph(), options).run();
  EXPECT_EQ(result_.start_ns, again.start_ns);
  EXPECT_EQ(result_.end_ns, again.end_ns);
}

TEST_P(SimulatorProperty, MakespanMatchesExtremes) {
  std::int64_t lo = result_.start_ns.empty() ? 0 : result_.start_ns[0];
  std::int64_t hi = 0;
  for (std::size_t i = 0; i < result_.start_ns.size(); ++i) {
    lo = std::min(lo, result_.start_ns[i]);
    hi = std::max(hi, result_.end_ns[i]);
  }
  EXPECT_EQ(result_.makespan_ns, hi - lo);
}

TEST_P(SimulatorProperty, CoupledCollectivesFinishTogether) {
  std::map<std::pair<std::string, std::int64_t>, std::vector<TaskId>> groups;
  for (const Task& t : graph().tasks()) {
    if (t.is_collective_kernel() && t.event.collective.instance >= 0) {
      groups[{t.event.collective.group, t.event.collective.instance}]
          .push_back(t.id);
    }
  }
  for (const auto& [key, members] : groups) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(result_.end_ns[static_cast<std::size_t>(members[i])],
                result_.end_ns[static_cast<std::size_t>(members[0])])
          << key.first << "#" << key.second;
    }
  }
}

TEST_P(SimulatorProperty, MakespanAtLeastCriticalChain) {
  // The makespan can never beat the heaviest single processor's total work.
  std::map<Processor, std::int64_t> work;
  for (const Task& t : graph().tasks()) {
    work[t.processor] +=
        result_.end_ns[static_cast<std::size_t>(t.id)] -
        result_.start_ns[static_cast<std::size_t>(t.id)];
  }
  std::int64_t heaviest = 0;
  for (const auto& [proc, w] : work) heaviest = std::max(heaviest, w);
  EXPECT_GE(result_.makespan_ns, heaviest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace lumos::core
