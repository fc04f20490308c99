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

#include <map>

#include "core/execution_graph.h"
#include "core/simulator.h"
#include "test_util.h"

namespace lumos::core {
namespace {

using testutil::RandomGraph;

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
