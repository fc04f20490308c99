// GraphManipulator & TemplateProvider tests (paper §3.4 / §4.3): generating
// new execution graphs from profiled ones and predicting their performance,
// the costing-only pass (durations) and the structure key that lets one
// rebuilt graph's program replay its key-mates' columns.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/metrics.h"
#include "baseline/dpro.h"
#include "cluster/ground_truth.h"
#include "core/fusion.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "core/template_provider.h"
#include "core/trace_parser.h"
#include "io/fnv.h"
#include "test_util.h"

namespace lumos::core {
namespace {

using testutil::tiny_config;
using testutil::tiny_model;

/// The coupled multi-rank prediction a manipulated job runs (paper:
/// "predicting performance through simulation").
SimResult predict(const ExecutionGraph& graph) {
  SimOptions options;
  options.couple_collectives = true;
  return Simulator(graph, options).run();
}

/// The tiny model with `layers` layers.
workload::ModelSpec tiny_with_layers(std::int32_t layers) {
  workload::ModelSpec m = tiny_model();
  m.num_layers = layers;
  return m;
}

class ManipulatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
    run_ = std::make_unique<cluster::GroundTruthRun>(engine.run_profiled(21));
    parsed_ = TraceParser().parse(run_->trace);
    manip_ = std::make_unique<GraphManipulator>(
        parsed_, tiny_model(), tiny_config(2, 2, 2), kernel_model_);
  }

  double actual_ms(std::int32_t tp, std::int32_t pp, std::int32_t dp,
                   workload::ModelSpec model = tiny_model()) const {
    cluster::GroundTruthEngine engine(model, tiny_config(tp, pp, dp));
    return static_cast<double>(engine.run_actual(99).iteration_ns) / 1e6;
  }

  cost::KernelPerfModel kernel_model_;
  std::unique_ptr<cluster::GroundTruthRun> run_;
  ExecutionGraph parsed_;
  std::unique_ptr<GraphManipulator> manip_;
};

TEST_F(ManipulatorFixture, TemplateExtractionCoversProfiledKeys) {
  const TemplateProvider& t = manip_->templates();
  EXPECT_GT(t.num_cpu_keys(), 20u);
  EXPECT_GT(t.num_kernel_keys(), 20u);
}

TEST_F(ManipulatorFixture, IdentityRebuildReproducesIterationTime) {
  // Rebuilding the *same* configuration from templates and predicting must
  // land very close to the profiled iteration (the durations are the
  // profiled ones; only jitter averaging differs).
  workload::BuiltJob same =
      manip_->with_spec(tiny_model(), tiny_config(2, 2, 2));
  SimResult predicted = predict(same.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns),
      static_cast<double>(run_->iteration_ns));
  EXPECT_LT(err, 5.0);
}

TEST_F(ManipulatorFixture, IdentityRebuildPreservesStructure) {
  workload::BuiltJob same =
      manip_->with_spec(tiny_model(), tiny_config(2, 2, 2));
  EXPECT_EQ(same.graph.size(), run_->job.graph.size());
  EXPECT_EQ(same.graph.edges().size(), run_->job.graph.edges().size());
}

TEST_F(ManipulatorFixture, DataParallelismChangeKeepsLocalWork) {
  workload::BuiltJob scaled =
      manip_->with_spec(tiny_model(), tiny_config(2, 2, 8));
  // Same explicit rank count (one replica materialized), same task count.
  EXPECT_EQ(scaled.graph.size(), run_->job.graph.size());
  EXPECT_EQ(scaled.config.dp, 8);
  // Only DP communication durations may change.
  ASSERT_EQ(scaled.graph.size(), run_->job.graph.size());
  for (std::size_t i = 0; i < scaled.graph.size(); ++i) {
    const Task& a = run_->job.graph.tasks()[i];
    const Task& b = scaled.graph.tasks()[i];
    ASSERT_EQ(a.event.name, b.event.name);
    if (a.is_collective_kernel() &&
        a.event.collective.group.rfind("dp_", 0) == 0) {
      EXPECT_EQ(b.event.collective.group_size, 8);
    }
  }
}

TEST_F(ManipulatorFixture, LargerDpGroupSlowsDpCollectives) {
  workload::BuiltJob scaled =
      manip_->with_spec(tiny_model(), tiny_config(2, 2, 16));
  std::int64_t base_dp = 0, scaled_dp = 0;
  for (const Task& t : run_->job.graph.tasks()) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      base_dp += t.event.dur_ns;
    }
  }
  for (const Task& t : scaled.graph.tasks()) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      scaled_dp += t.event.dur_ns;
    }
  }
  EXPECT_GT(scaled_dp, base_dp);
}

TEST_F(ManipulatorFixture, PpChangeRestagesLayers) {
  workload::BuiltJob scaled =
      manip_->with_spec(tiny_model(), tiny_config(2, 4, 2));
  EXPECT_EQ(scaled.config.pp, 4);
  EXPECT_EQ(scaled.graph.ranks().size(), 8u);  // tp*pp = 2*4
  // Every stage now owns 2 of the 8 layers.
  workload::Placement placement(scaled.config);
  std::map<std::int32_t, std::set<std::int32_t>> layers_per_stage;
  for (const Task& t : scaled.graph.tasks()) {
    if (t.event.layer >= 0 && t.event.block == "layer") {
      layers_per_stage[placement.coord(t.processor.rank).pp_rank].insert(
          t.event.layer);
    }
  }
  ASSERT_EQ(layers_per_stage.size(), 4u);
  for (const auto& [stage, layers] : layers_per_stage) {
    EXPECT_EQ(layers.size(), 2u) << "stage " << stage;
  }
}

TEST_F(ManipulatorFixture, PpChangePredictionTracksActual) {
  workload::BuiltJob scaled =
      manip_->with_spec(tiny_model(), tiny_config(2, 4, 2));
  SimResult predicted = predict(scaled.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6, actual_ms(2, 4, 2));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, CombinedScalingPredictionCompletes) {
  workload::BuiltJob scaled =
      manip_->with_spec(tiny_model(), tiny_config(2, 4, 8));
  SimResult predicted = predict(scaled.graph);
  EXPECT_TRUE(predicted.complete());
}

TEST_F(ManipulatorFixture, MoreLayersDuplicateTasks) {
  workload::BuiltJob deeper =
      manip_->with_spec(tiny_with_layers(16), tiny_config());
  EXPECT_GT(deeper.graph.size(), run_->job.graph.size());
  std::set<std::int32_t> layers;
  for (const Task& t : deeper.graph.tasks()) {
    if (t.event.layer >= 0 && t.event.block == "layer") {
      layers.insert(t.event.layer);
    }
  }
  EXPECT_EQ(layers.size(), 16u);
}

TEST_F(ManipulatorFixture, MoreLayersPredictionTracksActual) {
  workload::ModelSpec deeper_model = tiny_model();
  deeper_model.num_layers = 16;
  workload::BuiltJob deeper = manip_->with_spec(deeper_model, tiny_config());
  SimResult predicted = predict(deeper.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6,
      actual_ms(2, 2, 2, deeper_model));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, HiddenSizeChangeRescalesGemms) {
  workload::BuiltJob wider = manip_->with_spec(
      GraphManipulator::resized_model(tiny_model(), 2048, 8192), tiny_config());
  // QKV GEMMs must get ~4x slower (flops scale with d^2 in the
  // compute-bound regime); verify they grew substantially.
  auto mean_gemm = [](const ExecutionGraph& g) {
    double total = 0;
    int n = 0;
    for (const Task& t : g.tasks()) {
      if (t.event.name == "sm90_xmma_gemm_bf16_qkv") {
        total += static_cast<double>(t.event.dur_ns);
        ++n;
      }
    }
    return total / n;
  };
  EXPECT_GT(mean_gemm(wider.graph), 2.0 * mean_gemm(run_->job.graph));
}

TEST_F(ManipulatorFixture, HiddenSizePredictionTracksActual) {
  workload::ModelSpec wider_model = tiny_model();
  wider_model.d_model = 2048;
  wider_model.d_ff = 8192;
  wider_model.head_dim = 2048 / wider_model.num_heads;
  workload::BuiltJob wider = manip_->with_spec(
      GraphManipulator::resized_model(tiny_model(), 2048, 8192), tiny_config());
  SimResult predicted = predict(wider.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6,
      actual_ms(2, 2, 2, wider_model));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, TensorParallelismIsRejected) {
  EXPECT_THROW(manip_->with_spec(tiny_model(), tiny_config(4, 2, 2)),
               std::invalid_argument);
}

TEST_F(ManipulatorFixture, InvalidArchitectureIsRejected) {
  workload::ModelSpec bad = tiny_model();
  bad.num_layers = 9;  // not divisible by pp=2
  EXPECT_THROW(manip_->with_spec(bad, tiny_config()), std::invalid_argument);
}

TEST_F(ManipulatorFixture, FallbackUsedOnlyForUnseenKeys) {
  // Rebuilding the same config must not need the analytical fallback.
  manip_->with_spec(tiny_model(), tiny_config(2, 2, 2));
  EXPECT_EQ(manip_->templates().fallback_count(), 0u);
}

TEST(TemplateProviderStandalone, FallsBackForUnseenKeys) {
  // A pp=1 profile has no pipeline p2p templates; scaling to pp=2 must
  // fall back to the analytical model for send/recv rather than fail.
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 1, 2));
  auto run = engine.run_profiled(5);
  ExecutionGraph parsed = TraceParser().parse(run.trace);
  cost::KernelPerfModel km;
  GraphManipulator manip(parsed, tiny_model(), tiny_config(2, 1, 2), km);
  workload::BuiltJob scaled =
      manip.with_spec(tiny_model(), tiny_config(2, 2, 2));
  EXPECT_GT(manip.templates().fallback_count(), 0u);
  SimResult predicted = predict(scaled.graph);
  EXPECT_TRUE(predicted.complete());
}

TEST(TemplateProviderStandalone, CommTemplatesUseMinimumDuration) {
  // Build a graph with two occurrences of the same collective key with
  // different (wait-inflated) durations; the template must use the min.
  testutil::GraphAuthor author;
  for (std::int64_t dur : {500, 900}) {
    Task t;
    t.processor = {0, true, 13};
    t.event.cat = trace::EventCategory::Kernel;
    t.event.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
    t.event.block = "layer";
    t.event.phase = "forward";
    t.event.layer = 0;
    t.event.microbatch = dur == 500 ? 0 : 1;
    t.event.dur_ns = dur;
    t.event.collective = {"allreduce", "tp_pp0_dp0", 1024, 2, 0};
    author.add(t);
  }
  cost::KernelPerfModel km;
  TemplateProvider provider(author.graph, tiny_model(), tiny_config(2, 1, 1),
                            km);
  workload::KernelDesc desc;
  desc.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
  desc.block = "layer";
  desc.phase = "forward";
  desc.ordinal = 0;
  desc.collective = {"allreduce", "tp_pp0_dp0", 1024, 2, 0};
  desc.placement = {.group_size = 2, .nodes_spanned = 1};
  EXPECT_EQ(provider.kernel_ns(desc), 500);
}

// ---------------------------------------------------------------------------
// Bit-identity pins across the fig7 grid: builder, parser, fusion and dPRO
// output, hashed field by field (strings, never pool ids), must not move.
// ---------------------------------------------------------------------------

/// The tiny model deepened to 16 layers, so every PP in {2,4,8,16} divides it.
workload::ModelSpec pin_model() {
  workload::ModelSpec m = tiny_model();
  m.num_layers = 16;
  return m;
}

void hash_string(io::Fnv1a& h, std::string_view s) {
  h.update_pod(static_cast<std::uint64_t>(s.size()));
  h.update(s);
}

/// FNV-1a over every materialized Task field, the edge list, and the meta
/// columns (string columns hashed by their text, not by pool id).
std::uint64_t graph_fingerprint(const ExecutionGraph& g) {
  io::Fnv1a h;
  h.update_pod(static_cast<std::uint64_t>(g.size()));
  for (const Task& t : g.tasks()) {
    const trace::TraceEvent& e = t.event;
    h.update_pod(t.id);
    h.update_pod(t.processor.rank);
    h.update_pod(t.processor.gpu);
    h.update_pod(t.processor.lane);
    hash_string(h, e.name);
    h.update_pod(static_cast<std::uint8_t>(e.cat));
    h.update_pod(e.ts_ns);
    h.update_pod(e.dur_ns);
    h.update_pod(e.pid);
    h.update_pod(e.tid);
    h.update_pod(e.correlation);
    h.update_pod(e.stream);
    h.update_pod(e.cuda_event);
    h.update_pod(e.layer);
    h.update_pod(e.microbatch);
    hash_string(h, e.phase);
    hash_string(h, e.block);
    hash_string(h, e.collective.op);
    hash_string(h, e.collective.group);
    h.update_pod(e.collective.bytes);
    h.update_pod(e.collective.group_size);
    h.update_pod(e.collective.instance);
    h.update_pod(e.gemm.m);
    h.update_pod(e.gemm.n);
    h.update_pod(e.gemm.k);
    h.update_pod(e.bytes_moved);
  }
  h.update_pod(static_cast<std::uint64_t>(g.edges().size()));
  for (const Edge& e : g.edges()) {
    h.update_pod(e.src);
    h.update_pod(e.dst);
    h.update_pod(static_cast<std::uint8_t>(e.type));
  }
  const TaskMetaTable& meta = g.meta();
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    h.update_pod(static_cast<std::uint8_t>(meta.category(id)));
    h.update_pod(static_cast<std::uint8_t>(meta.cuda_api(id)));
    h.update_pod(meta.lane(id));
    h.update_pod(meta.duration_ns(id));
    h.update_pod(meta.ts_ns(id));
    hash_string(h, meta.name_view(id));
    const bool coll = meta.collective_op(id).valid();
    h.update_pod(coll);
    if (coll) {
      hash_string(h, meta.op_view(meta.collective_op(id)));
      hash_string(h, meta.group_view(meta.collective_group(id)));
    }
    h.update_pod(meta.collective_instance(id));
    h.update_pod(meta.is_gpu(id));
    h.update_pod(meta.is_collective_kernel(id));
    h.update_pod(meta.is_coupled_collective(id));
    h.update_pod(meta.is_p2p(id));
    h.update_pod(meta.group_index(id));
    h.update_pod(meta.sync_lane(id));
    h.update_pod(meta.sync_before(id));
  }
  const LaneTable& lanes = meta.lanes();
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const Processor& p = lanes.processor(static_cast<LaneId>(l));
    h.update_pod(p.rank);
    h.update_pod(p.gpu);
    h.update_pod(p.lane);
    h.update_pod(lanes.rank_index(static_cast<LaneId>(l)));
  }
  for (std::size_t g = 0; g < meta.rendezvous_group_count(); ++g) {
    const RendezvousGroup group = meta.rendezvous_group(g);
    hash_string(h, meta.group_view(group.group));
    h.update_pod(group.instance);
    for (const TaskId m : group.members) h.update_pod(m);
  }
  return h.digest();
}

class GridPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster::GroundTruthEngine engine(pin_model(), tiny_config(2, 2, 4));
    run_ = new cluster::GroundTruthRun(engine.run_profiled(/*seed=*/123));
  }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
  }
  static cluster::GroundTruthRun* run_;
};

cluster::GroundTruthRun* GridPins::run_ = nullptr;

// Golden values computed on the Task-emitting builder and parser that the
// columnar ones replaced; any drift is a behaviour change, not a refactor.
TEST_F(GridPins, GroundTruthGraphIsBitIdentical) {
  EXPECT_EQ(graph_fingerprint(run_->job.graph), 18353139907829316502ULL);
}

TEST_F(GridPins, ParsedGraphIsBitIdentical) {
  EXPECT_EQ(graph_fingerprint(TraceParser().parse(run_->trace)),
            9897605588546984452ULL);
}

// Golden values computed on the Task-copying fusion and dPRO derivations
// that the column ones replaced.
TEST_F(GridPins, FusedGraphIsBitIdentical) {
  const FusionResult fused =
      fuse_elementwise(TraceParser().parse(run_->trace));
  EXPECT_EQ(fused.kernels_eliminated, 140u);
  EXPECT_EQ(graph_fingerprint(fused.graph), 10974436870803681141ULL);
}

TEST_F(GridPins, DproGraphIsBitIdenticalAndSharesTheMetaTable) {
  const ExecutionGraph parsed = TraceParser().parse(run_->trace);
  const ExecutionGraph dpro = baseline::dpro_graph(parsed);
  EXPECT_EQ(graph_fingerprint(dpro), 5070533245387179454ULL);
  EXPECT_EQ(&dpro.meta(), &parsed.meta());
}

TEST_F(GridPins, AllSixteenRebuildsAreBitIdentical) {
  const ExecutionGraph parsed = TraceParser().parse(run_->trace);
  cost::KernelPerfModel km;
  const GraphManipulator manip(parsed, pin_model(), tiny_config(2, 2, 4), km);
  io::Fnv1a grid;
  for (const std::int32_t pp : {2, 4, 8, 16}) {
    for (const std::int32_t dp : {4, 8, 16, 32}) {
      const workload::BuiltJob job =
          manip.with_spec(pin_model(), tiny_config(2, pp, dp));
      const std::uint64_t h = graph_fingerprint(job.graph);
      grid.update_pod(h);
    }
  }
  EXPECT_EQ(grid.digest(), 12908117677440723024ULL);
}

// ---------------------------------------------------------------------------
// Structure and costing: GraphManipulator::durations and
// workload::structure_key.
// ---------------------------------------------------------------------------

/// A graph's duration column in task-id order.
std::vector<std::int64_t> duration_column(const ExecutionGraph& g) {
  std::vector<std::int64_t> column(g.size());
  for (std::size_t i = 0; i < column.size(); ++i) {
    column[i] = g.meta().duration_ns(static_cast<TaskId>(i));
  }
  return column;
}

TEST_F(GridPins, CostingPassEqualsTheRebuiltDurationColumn) {
  const ExecutionGraph parsed = TraceParser().parse(run_->trace);
  cost::KernelPerfModel km;
  const GraphManipulator manip(parsed, pin_model(), tiny_config(2, 2, 4), km);
  std::vector<std::pair<workload::ModelSpec, workload::ParallelConfig>> targets;
  for (const std::int32_t pp : {2, 4, 8, 16}) {
    for (const std::int32_t dp : {4, 8, 16, 32}) {
      targets.emplace_back(pin_model(), tiny_config(2, pp, dp));
    }
  }
  // The Fig. 8 hidden-size variants.
  for (const auto& [d_model, d_ff] :
       {std::pair<std::int64_t, std::int64_t>{6144, 24576}, {4096, 16384}}) {
    targets.emplace_back(
        GraphManipulator::resized_model(pin_model(), d_model, d_ff),
        tiny_config(2, 2, 4));
  }
  for (const auto& [model, config] : targets) {
    SCOPED_TRACE(config.label() + " d_model " + std::to_string(model.d_model));
    EXPECT_EQ(manip.durations(model, config),
              duration_column(manip.with_spec(model, config).graph));
  }
}

/// One change to one field of a (model, config, options) triple.
struct Perturbation {
  const char* field;
  std::function<void(workload::ModelSpec&, workload::ParallelConfig&,
                     workload::BuildOptions&)>
      apply;
};

/// One change per costing field. Each keeps the pin model valid at TP 2.
std::vector<Perturbation> costing_perturbations() {
  return {
      {"dp", [](auto&, auto& c, auto&) { c.dp *= 2; }},
      {"d_model", [](auto& m, auto&, auto&) { m.d_model *= 2; }},
      {"d_ff", [](auto& m, auto&, auto&) { m.d_ff += 512; }},
      {"num_heads", [](auto& m, auto&, auto&) { m.num_heads *= 2; }},
      {"head_dim", [](auto& m, auto&, auto&) { m.head_dim /= 2; }},
      {"seq_len", [](auto& m, auto&, auto&) { m.seq_len *= 2; }},
      {"vocab_size", [](auto& m, auto&, auto&) { m.vocab_size += 2; }},
      {"microbatch_size", [](auto&, auto& c, auto&) { ++c.microbatch_size; }},
      {"gpus_per_node", [](auto&, auto& c, auto&) { c.gpus_per_node /= 2; }},
  };
}

/// One change per structure-key field.
std::vector<Perturbation> key_perturbations() {
  return {
      {"num_layers", [](auto& m, auto& c, auto&) { m.num_layers += c.pp; }},
      {"tp", [](auto&, auto& c, auto&) { c.tp *= 2; }},
      // Pin the microbatch count, so only pp itself moves.
      {"pp",
       [](auto&, auto& c, auto&) {
         c.num_microbatches = c.microbatches();
         c.pp *= 2;
       }},
      {"microbatches",
       [](auto&, auto& c, auto&) {
         c.num_microbatches = c.microbatches() + 1;
       }},
      {"policy",
       [](auto&, auto&, auto& o) {
         o.policy = workload::SchedulePolicy::GPipe;
       }},
      {"bucket_layers", [](auto&, auto&, auto& o) { ++o.bucket_layers; }},
      {"dp_rank", [](auto&, auto&, auto& o) { ++o.dp_rank; }},
      {"include_optimizer",
       [](auto&, auto&, auto& o) {
         o.include_optimizer = !o.include_optimizer;
       }},
  };
}

TEST(StructureKey, CostingFieldsKeepTheKeyAndKeyFieldsMoveIt) {
  const std::vector<workload::ModelSpec> zoo = {
      workload::ModelSpec::gpt3_15b(), workload::ModelSpec::gpt3_44b(),
      workload::ModelSpec::gpt3_117b(), workload::ModelSpec::gpt3_175b(),
      workload::ModelSpec::gpt3_v1(),  workload::ModelSpec::gpt3_v2(),
      workload::ModelSpec::gpt3_v3(),  workload::ModelSpec::gpt3_v4(),
      tiny_model(),                    pin_model()};
  for (const workload::ModelSpec& model : zoo) {
    for (const std::int32_t pp : {2, 4, 8, 16}) {
      for (const std::int32_t dp : {4, 8, 16, 32}) {
        const workload::ParallelConfig config = tiny_config(2, pp, dp);
        SCOPED_TRACE(model.name + " " + config.label());
        const workload::StructureKey key =
            workload::structure_key(model, config, {});
        const auto perturbed_key = [&](const Perturbation& p) {
          workload::ModelSpec m = model;
          workload::ParallelConfig c = config;
          workload::BuildOptions o;
          p.apply(m, c, o);
          return workload::structure_key(m, c, o);
        };
        for (const Perturbation& p : costing_perturbations()) {
          EXPECT_EQ(perturbed_key(p), key) << p.field;
        }
        for (const Perturbation& p : key_perturbations()) {
          EXPECT_NE(perturbed_key(p), key) << p.field;
        }
      }
    }
  }
}

void expect_same_breakdown(const analysis::Breakdown& a,
                           const analysis::Breakdown& b) {
  EXPECT_EQ(a.exposed_compute_ns, b.exposed_compute_ns);
  EXPECT_EQ(a.overlapped_ns, b.overlapped_ns);
  EXPECT_EQ(a.exposed_comm_ns, b.exposed_comm_ns);
  EXPECT_EQ(a.other_ns, b.other_ns);
}

TEST_F(GridPins, KeyMateProgramReplaysAPerturbedColumnExactly) {
  // A costing-only change keeps the structure, so the program compiled from
  // a key-mate's graph, run with the changed target's costing column, must
  // equal the coupled interpreter on that target's own rebuilt graph.
  const ExecutionGraph parsed = TraceParser().parse(run_->trace);
  const cost::KernelPerfModel km;
  const GraphManipulator manip(parsed, pin_model(), tiny_config(2, 2, 4), km);
  cost::HardwareSpec slow_nic;
  slow_nic.nic_bandwidth /= 2;
  const cost::KernelPerfModel slow_km(slow_nic);
  const GraphManipulator slow_manip(parsed, pin_model(), tiny_config(2, 2, 4),
                                    slow_km);
  for (const workload::ParallelConfig& config :
       {tiny_config(2, 2, 4), tiny_config(2, 4, 8)}) {
    const ExecutionGraph mate = manip.with_spec(pin_model(), config).graph;
    const std::shared_ptr<const ReplayProgram> program =
        ReplayCompiler::compile(mate).program;
    ASSERT_NE(program, nullptr);
    const auto expect_replays = [&](const GraphManipulator& m,
                                    const workload::ModelSpec& model,
                                    const workload::ParallelConfig& c,
                                    const char* field) {
      SCOPED_TRACE(config.label() + " perturbed " + field);
      ASSERT_EQ(workload::structure_key(model, c, {}),
                workload::structure_key(pin_model(), config, {}));
      const std::vector<std::int64_t> column = m.durations(model, c);
      ASSERT_TRUE(program->accepts(column));
      const SimResult shared = program->run(column);
      const ExecutionGraph own = m.with_spec(model, c).graph;
      const SimResult reference = predict(own);
      ASSERT_TRUE(reference.complete());
      EXPECT_EQ(shared.start_ns, reference.start_ns);
      EXPECT_EQ(shared.end_ns, reference.end_ns);
      EXPECT_EQ(shared.makespan_ns, reference.makespan_ns);
      EXPECT_EQ(shared.executed, reference.executed);
      EXPECT_EQ(shared.stuck_tasks, reference.stuck_tasks);
      expect_same_breakdown(analysis::compute_breakdown(mate, shared),
                            analysis::compute_breakdown(own, reference));
    };
    for (const Perturbation& p : costing_perturbations()) {
      workload::ModelSpec model = pin_model();
      workload::ParallelConfig c = config;
      workload::BuildOptions o;
      p.apply(model, c, o);
      expect_replays(manip, model, c, p.field);
    }
    expect_replays(slow_manip, pin_model(), config, "hardware");
  }
}

TEST(SharedManipulator, ConcurrentRebuildsMatchTheSerialOne) {
  // PP=1 -> PP=2 needs pipeline send/recv templates the profile never saw,
  // so every rebuild bumps the fallback counter — from four threads at once
  // against one const manipulator (the shape a Sweep worker pool shares).
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 1, 2));
  const cluster::GroundTruthRun run = engine.run_profiled(5);
  const ExecutionGraph parsed = TraceParser().parse(run.trace);
  cost::KernelPerfModel km;
  const GraphManipulator serial(parsed, tiny_model(), tiny_config(2, 1, 2), km);
  const std::uint64_t expected =
      graph_fingerprint(
          serial.with_spec(tiny_model(), tiny_config(2, 2, 2)).graph);
  const std::size_t serial_fallbacks = serial.templates().fallback_count();
  ASSERT_GT(serial_fallbacks, 0u);

  const GraphManipulator shared(parsed, tiny_model(), tiny_config(2, 1, 2), km);
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> hashes(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&shared, &hashes, i] {
      hashes[static_cast<std::size_t>(i)] =
          graph_fingerprint(
              shared.with_spec(tiny_model(), tiny_config(2, 2, 2)).graph);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t h : hashes) EXPECT_EQ(h, expected);
  EXPECT_EQ(shared.templates().fallback_count(), kThreads * serial_fallbacks);
}

}  // namespace
}  // namespace lumos::core
