// Binary baseline snapshots: round-trip bit-identity against the JSON
// path, corruption / version / truncation error mapping, the load-side
// bounds checks on resealed crafted images, the stored compiled program,
// the payload-checksum cache key, the content-hash test oracle's golden,
// and the mmap lifetime rule (artifacts outlive the file).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "faults/fault_spec.h"
#include "io/fnv.h"
#include "serve/engine.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "trace/chrome_trace.h"
#include "trace_content_hash_oracle.h"

namespace lumos::api {
namespace {

Scenario tiny_scenario() {
  return Scenario::synthetic()
      .with_model(testutil::tiny_model())
      .with_parallelism(testutil::tiny_config())
      .with_seed(123);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Digest of a SimResult's full schedule, so "bit-identical" is one
/// comparison instead of a field-by-field walk.
std::uint64_t sim_digest(const core::SimResult& sim) {
  io::Fnv1a h;
  h.update_pod(sim.makespan_ns);
  h.update_pod(static_cast<std::uint64_t>(sim.executed));
  for (std::int64_t t : sim.start_ns) h.update_pod(t);
  for (std::int64_t t : sim.end_ns) h.update_pod(t);
  for (core::TaskId t : sim.stuck_tasks) h.update_pod(t);
  return h.digest();
}

/// The coupled interpreter run every facade replay reproduces.
core::SimResult coupled_replay(const core::ExecutionGraph& graph) {
  core::SimOptions options;
  options.couple_collectives = true;
  return core::Simulator(graph, options).run();
}

/// A session's baseline and the same baseline saved and loaded back.
struct SavedBaseline {
  BaselineArtifacts built;
  BaselineArtifacts loaded;
};

SavedBaseline save_and_load(const Scenario& scenario,
                            const std::string& path) {
  Result<Session> session = Session::create(scenario);
  EXPECT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> built = session->share_baseline();
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  EXPECT_TRUE(session->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path);
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  return {std::move(built).value(), std::move(loaded).value()};
}

// ---------------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripReplayIsBitIdenticalToTheJsonPath) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok());

  const std::string path = temp_path("lumos_snap_roundtrip.bin");
  ASSERT_TRUE(session->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();

  // The graph rows are content-identical (text, times and order may not
  // change), processors included.
  const core::ColumnTaskSource& built_rows = base->graph->meta().columns();
  const core::ColumnTaskSource& loaded_rows = loaded->graph->meta().columns();
  EXPECT_EQ(testutil::content_hash(built_rows.events()),
            testutil::content_hash(loaded_rows.events()));
  EXPECT_TRUE(std::ranges::equal(built_rows.rank_column(),
                                 loaded_rows.rank_column()));
  EXPECT_TRUE(std::ranges::equal(built_rows.gpu_column(),
                                 loaded_rows.gpu_column()));
  EXPECT_TRUE(std::ranges::equal(built_rows.lane_column(),
                                 loaded_rows.lane_column()));

  // Replaying the loaded graph is bit-identical to replaying the original:
  // same schedule, same makespan, same materialized trace.
  Result<core::SimResult> sim_a = replay_graph(*base->graph);
  Result<core::SimResult> sim_b = replay_graph(*loaded->graph);
  ASSERT_TRUE(sim_a.is_ok());
  ASSERT_TRUE(sim_b.is_ok());
  EXPECT_EQ(sim_digest(*sim_a), sim_digest(*sim_b));
  EXPECT_GT(sim_a->makespan_ns, 0);
  EXPECT_EQ(testutil::content_hash(sim_a->to_trace(*base->graph)),
            testutil::content_hash(sim_b->to_trace(*loaded->graph)));
}

TEST(Snapshot, PredictionOverLoadedBaselineMatchesTheOriginal) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok());
  const std::string path = temp_path("lumos_snap_predict.bin");
  ASSERT_TRUE(session->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();

  const Scenario change = whatif().with_fusion();
  Result<Prediction> a = predict_on(*base, change);
  Result<Prediction> b = predict_on(*loaded, change);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  EXPECT_EQ(a->sim.makespan_ns, b->sim.makespan_ns);
  EXPECT_EQ(a->kernels_eliminated, b->kernels_eliminated);
  EXPECT_EQ(sim_digest(a->sim), sim_digest(b->sim));
}

TEST(Snapshot, ScenarioMetadataSurvivesTheRoundTrip) {
  const std::string path = temp_path("lumos_snap_meta.bin");
  const BaselineArtifacts loaded = save_and_load(tiny_scenario(), path).loaded;
  ASSERT_TRUE(loaded.model.has_value());
  EXPECT_EQ(*loaded.model, testutil::tiny_model());
  ASSERT_TRUE(loaded.config.has_value());
  EXPECT_EQ(loaded.config->pp, 2);
  EXPECT_EQ(loaded.config->dp, 2);
  EXPECT_EQ(loaded.scenario.seed(), 123u);
  EXPECT_EQ(loaded.scenario.source(), Scenario::Source::kSynthetic);
  EXPECT_DOUBLE_EQ(loaded.scenario.hardware().peak_flops_bf16,
                   cost::HardwareSpec::h100_cluster().peak_flops_bf16);
}

TEST(Snapshot, BuildAndParserFlagsSurviveTheRoundTrip) {
  // The metadata stores these flags as JSON bools; a rebuilt what-if over
  // the loaded baseline reads them back from there.
  workload::BuildOptions build;
  build.include_optimizer = false;
  core::ParserOptions parser;
  parser.infer_interthread = false;
  parser.infer_interstream = false;
  Scenario scenario = tiny_scenario();
  scenario.with_build_options(build).with_parser_options(parser);
  const BaselineArtifacts loaded =
      save_and_load(scenario, temp_path("lumos_snap_flags.bin")).loaded;
  EXPECT_FALSE(loaded.scenario.build_options().include_optimizer);
  EXPECT_FALSE(loaded.scenario.parser_options().infer_interthread);
  EXPECT_FALSE(loaded.scenario.parser_options().infer_interstream);
}

TEST(Snapshot, LoadedPoolsKeepTheBuiltIds) {
  const SavedBaseline b =
      save_and_load(tiny_scenario(), temp_path("lumos_snap_pools.bin"));
  // The image stores the graph's own pools and re-interns them in id
  // order, so every id column resolves to the text it had when built.
  const core::TaskMetaTable& built = b.built.graph->meta();
  const core::TaskMetaTable& loaded = b.loaded.graph->meta();
  ASSERT_NE(loaded.pools(), nullptr);
  EXPECT_EQ(loaded.pools(), loaded.columns().events().pools());
  const auto same_pool = [](const trace::StringPool& x,
                            const trace::StringPool& y) {
    if (x.size() != y.size()) return false;
    for (std::uint32_t id = 0; id < x.size(); ++id) {
      if (x.view(id) != y.view(id)) return false;
    }
    return true;
  };
  EXPECT_GT(built.names().size(), 0u);
  EXPECT_TRUE(same_pool(built.names(), loaded.names()));
  EXPECT_TRUE(same_pool(built.ops(), loaded.ops()));
  EXPECT_TRUE(same_pool(built.groups(), loaded.groups()));
}

TEST(Snapshot, LazyTasksMaterializeIdenticalToTheOriginal) {
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok());
  const std::string path = temp_path("lumos_snap_lazy.bin");
  ASSERT_TRUE(session->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path);
  ASSERT_TRUE(loaded.is_ok());

  // size() answers without materializing; tasks() then rebuilds the
  // authoring vector on demand, field-for-field equal to the original.
  ASSERT_EQ(loaded->graph->size(), base->graph->size());
  const std::vector<core::Task>& original = base->graph->tasks();
  const std::vector<core::Task>& rebuilt = loaded->graph->tasks();
  ASSERT_EQ(original.size(), rebuilt.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].id, rebuilt[i].id);
    EXPECT_EQ(original[i].processor, rebuilt[i].processor);
    EXPECT_EQ(original[i].event.name, rebuilt[i].event.name);
    EXPECT_EQ(original[i].event.ts_ns, rebuilt[i].event.ts_ns);
    EXPECT_EQ(original[i].event.dur_ns, rebuilt[i].event.dur_ns);
    EXPECT_EQ(original[i].event.collective.group,
              rebuilt[i].event.collective.group);
  }
  EXPECT_TRUE(
      std::ranges::equal(base->graph->edges(), loaded->graph->edges()));

  // The rendezvous groups the loader borrows: same ids, instances and
  // members, in the same order.
  const core::TaskMetaTable& built = base->graph->meta();
  const core::TaskMetaTable& mapped = loaded->graph->meta();
  ASSERT_GT(built.rendezvous_group_count(), 0u);
  ASSERT_EQ(built.rendezvous_group_count(), mapped.rendezvous_group_count());
  for (std::size_t g = 0; g < built.rendezvous_group_count(); ++g) {
    const core::RendezvousGroup a = built.rendezvous_group(g);
    const core::RendezvousGroup b = mapped.rendezvous_group(g);
    EXPECT_EQ(a.group.index, b.group.index);
    EXPECT_EQ(a.instance, b.instance);
    EXPECT_TRUE(std::ranges::equal(a.members, b.members));
  }
}

// ---------------------------------------------------------------------------
// Indexes the loader re-derives instead of reading them from the file
// ---------------------------------------------------------------------------

/// The GPT-3 15B 2x2x4 baseline (~36k tasks, 16 ranks).
Scenario gpt3_15b_scenario() {
  return Scenario::synthetic()
      .with_model("15b")
      .with_parallelism("2x2x4")
      .with_seed(7);
}

/// Every index TaskMetaTable derives, gathered through the accessors.
struct DerivedIndexes {
  std::vector<core::Processor> lanes;         ///< lane order
  std::vector<core::LaneId> lookup;           ///< id_of(lane's processor)
  std::vector<std::int32_t> rank_index;       ///< per lane
  std::vector<std::int32_t> rank_values;      ///< per dense rank
  std::vector<std::vector<core::LaneId>> gpu_lanes;  ///< per dense rank
  std::vector<std::vector<core::TaskId>> gpu_tasks;  ///< per lane
  std::vector<std::int32_t> group_index;      ///< per task
  std::vector<bool> coupled;                  ///< per task
};

DerivedIndexes derived_indexes(const core::TaskMetaTable& meta) {
  DerivedIndexes d;
  const core::LaneTable& lanes = meta.lanes();
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const auto lane = static_cast<core::LaneId>(l);
    d.lanes.push_back(lanes.processor(lane));
    d.lookup.push_back(lanes.id_of(lanes.processor(lane)));
    d.rank_index.push_back(lanes.rank_index(lane));
    const auto tasks = meta.gpu_tasks(lane);
    d.gpu_tasks.emplace_back(tasks.begin(), tasks.end());
  }
  for (std::size_t r = 0; r < lanes.rank_count(); ++r) {
    const auto rank = static_cast<std::int32_t>(r);
    d.rank_values.push_back(lanes.rank_value(rank));
    const auto gpu = lanes.gpu_lanes(rank);
    d.gpu_lanes.emplace_back(gpu.begin(), gpu.end());
  }
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto id = static_cast<core::TaskId>(i);
    d.group_index.push_back(meta.group_index(id));
    d.coupled.push_back(meta.is_coupled_collective(id));
  }
  return d;
}

TEST(Snapshot, LoadedIndexesEqualTheBuiltOnes) {
  for (const Scenario& scenario : {tiny_scenario(), gpt3_15b_scenario()}) {
    const SavedBaseline b =
        save_and_load(scenario, temp_path("lumos_snap_indexes.bin"));
    ASSERT_NE(b.loaded.graph, nullptr);
    const DerivedIndexes built = derived_indexes(b.built.graph->meta());
    const DerivedIndexes loaded = derived_indexes(b.loaded.graph->meta());
    ASSERT_GT(built.lanes.size(), 0u);
    EXPECT_EQ(built.lanes, loaded.lanes);
    EXPECT_EQ(built.lookup, loaded.lookup);
    EXPECT_EQ(built.rank_index, loaded.rank_index);
    EXPECT_EQ(built.rank_values, loaded.rank_values);
    EXPECT_EQ(built.gpu_lanes, loaded.gpu_lanes);
    EXPECT_EQ(built.gpu_tasks, loaded.gpu_tasks);
    EXPECT_EQ(built.group_index, loaded.group_index);
    EXPECT_EQ(built.coupled, loaded.coupled);
  }
}

/// Doubles every non-collective duration: a hooked what-if, which only the
/// interpreter runs.
class SlowerTasksHooks final : public core::SimulatorHooks {
 public:
  std::int64_t task_duration_ns(const core::Task& task) override {
    return 2 * task.event.dur_ns;
  }
};

TEST(Snapshot, InterpreterOverALoadedBaselineMatchesTheBuiltOne) {
  // Hooks and contention run the interpreter, which indexes its per-group
  // and per-rank state with the indexes the loader re-derived.
  ASSERT_TRUE(Session::register_hooks("snapshot_slower_tasks", [] {
                return std::make_unique<SlowerTasksHooks>();
              }).is_ok());
  const Scenario hooked = whatif().with_hooks("snapshot_slower_tasks");
  const faults::FaultSpec contention = faults::FaultSpec().with_contention(0.5);
  for (const Scenario& scenario : {tiny_scenario(), gpt3_15b_scenario()}) {
    const SavedBaseline b =
        save_and_load(scenario, temp_path("lumos_snap_interpreter.bin"));
    ASSERT_NE(b.loaded.graph, nullptr);
    Result<Prediction> built = predict_on(b.built, hooked);
    Result<Prediction> loaded = predict_on(b.loaded, hooked);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_FALSE(loaded->used_compiled_replay);
    EXPECT_EQ(sim_digest(built->sim), sim_digest(loaded->sim));

    Result<core::SimResult> built_faulted = replay_faulted(b.built, contention);
    Result<core::SimResult> loaded_faulted =
        replay_faulted(b.loaded, contention);
    ASSERT_TRUE(built_faulted.is_ok()) << built_faulted.status().to_string();
    ASSERT_TRUE(loaded_faulted.is_ok()) << loaded_faulted.status().to_string();
    EXPECT_TRUE(loaded_faulted->complete());
    EXPECT_EQ(sim_digest(*built_faulted), sim_digest(*loaded_faulted));
  }
}

// ---------------------------------------------------------------------------
// The mmap lifetime rule
// ---------------------------------------------------------------------------

TEST(Snapshot, BaselineOutlivesTheFileAndTheLoader) {
  const std::string path = temp_path("lumos_snap_unlink.bin");
  BaselineArtifacts loaded = save_and_load(tiny_scenario(), path).loaded;
  // Unlink the file while the artifacts live: the mapping is pinned by
  // shared_ptr keepalives inside every borrowed column, so reads and even
  // a full replay still work.
  ASSERT_EQ(::unlink(path.c_str()), 0);
  const trace::EventTable& rows = loaded.graph->meta().columns().events();
  EXPECT_GT(rows.size(), 0u);
  EXPECT_GT(rows.end_ns(), rows.begin_ns());
  Result<core::SimResult> sim = replay_graph(*loaded.graph);
  ASSERT_TRUE(sim.is_ok());
  EXPECT_GT(sim->makespan_ns, 0);
  // The stored program borrows the mapping too.
  ASSERT_NE(loaded.program, nullptr);
  EXPECT_EQ(sim_digest(loaded.program->run()),
            sim_digest(coupled_replay(*loaded.graph)));
}

// ---------------------------------------------------------------------------
// The cache key: the payload checksum
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The image's section ids, in table order. The table follows the 32-byte
/// header: {u32 id, u32 reserved, u64 offset, u64 length} per section, the
/// count at byte 12.
std::vector<std::uint32_t> section_ids(const std::string& bytes) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::vector<std::uint32_t> ids(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::memcpy(&ids[i], bytes.data() + 32 + i * 24, sizeof(ids[i]));
  }
  return ids;
}

TEST(Snapshot, PeekedContentHashIsThePayloadChecksum) {
  const std::string path = temp_path("lumos_snap_peek.bin");
  save_and_load(tiny_scenario(), path);
  const std::string bytes = read_file(path);
  const std::size_t payload = 32 + section_ids(bytes).size() * 24;
  Result<std::uint64_t> peeked = peek_snapshot_content_hash(path);
  ASSERT_TRUE(peeked.is_ok());
  EXPECT_EQ(*peeked, io::fnv1a_words(bytes.data() + payload,
                                     bytes.size() - payload));
}

TEST(Snapshot, TwoSessionsSaveByteIdenticalImages) {
  // The cache key is a checksum of the bytes, so equal content shares a
  // key only because write() is deterministic.
  for (const Scenario& scenario : {tiny_scenario(), gpt3_15b_scenario()}) {
    const std::string a = temp_path("lumos_snap_same_a.bin");
    const std::string b = temp_path("lumos_snap_same_b.bin");
    for (const std::string& path : {a, b}) {
      Result<Session> session = Session::create(scenario);
      ASSERT_TRUE(session.is_ok()) << session.status().to_string();
      ASSERT_TRUE(session->save_snapshot(path).is_ok());
    }
    const std::string bytes = read_file(a);
    ASSERT_GT(bytes.size(), 256u);
    EXPECT_TRUE(bytes == read_file(b));
    EXPECT_EQ(*peek_snapshot_content_hash(a), *peek_snapshot_content_hash(b));
  }
}

TEST(Snapshot, V4ImageHasNoTraceSection) {
  // Meta, pools, graph and program; id 3 held v3's copy of every event.
  const std::string path = temp_path("lumos_snap_sections.bin");
  save_and_load(tiny_scenario(), path);
  const std::string bytes = read_file(path);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, 4u);
  EXPECT_EQ(snapshot::kFormatVersion, 4u);
  EXPECT_EQ(section_ids(bytes), (std::vector<std::uint32_t>{1, 2, 4, 5}));
}

TEST(Snapshot, GoldenPayloadChecksumIsPinned) {
  // Golden: pins the bytes write() emits for one scenario, so a change to
  // them fails here until kFormatVersion moves (and this value with it).
  const std::string path = temp_path("lumos_snap_golden.bin");
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  ASSERT_TRUE(session->save_snapshot(path).is_ok());
  Result<std::uint64_t> key = peek_snapshot_content_hash(path);
  ASSERT_TRUE(key.is_ok()) << key.status().to_string();
  EXPECT_EQ(snapshot::kFormatVersion, 4u);
  EXPECT_EQ(*key, 0x0ad7945ec4604447ULL);
}

// ---------------------------------------------------------------------------
// The content-hash test oracle
// ---------------------------------------------------------------------------

TEST(Snapshot, ContentHashIsAFunctionOfContentNotOfPoolIds) {
  // Two traces with the same events but different intern orders (and so
  // different pool ids) hash identically.
  trace::TraceEvent a;
  a.name = "alpha";
  a.cat = trace::EventCategory::Kernel;
  a.ts_ns = 10;
  a.dur_ns = 5;
  a.tid = 7;
  trace::TraceEvent b = a;
  b.name = "beta";
  b.ts_ns = 20;

  trace::ClusterTrace first;
  {
    trace::RankTrace& r = first.add_rank(0);
    trace::EventTable warm(first.shared_pools());
    warm.push_back(b);  // interns "beta" first: ids diverge from `second`
    r.events.push_back(a);
    r.events.push_back(b);
  }
  trace::ClusterTrace second;
  {
    trace::RankTrace& r = second.add_rank(0);
    r.events.push_back(a);
    r.events.push_back(b);
  }
  EXPECT_EQ(testutil::content_hash(first), testutil::content_hash(second));

  // And the hash is order-sensitive: swapped events differ.
  trace::ClusterTrace swapped;
  {
    trace::RankTrace& r = swapped.add_rank(0);
    r.events.push_back(b);
    r.events.push_back(a);
  }
  EXPECT_NE(testutil::content_hash(second), testutil::content_hash(swapped));
}

TEST(Snapshot, GoldenContentHashIsPinned) {
  // Golden: pins the digest algorithm itself, so the tests that compare
  // traces through it keep comparing what they compared before.
  trace::TraceEvent e;
  e.name = "ncclDevKernel_AllReduce";
  e.cat = trace::EventCategory::Kernel;
  e.ts_ns = 100;
  e.dur_ns = 50;
  e.pid = 1;
  e.tid = 7;
  e.stream = 7;
  e.collective.op = "allreduce";
  e.collective.group = "dp_0";
  e.collective.bytes = 4096;
  e.collective.group_size = 2;
  e.collective.instance = 0;
  trace::ClusterTrace cluster;
  cluster.add_rank(0).events.push_back(e);
  EXPECT_EQ(testutil::content_hash(cluster), 0x71c8b0cb70c13c13ULL);
}

// ---------------------------------------------------------------------------
// Corruption, truncation, versioning
// ---------------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("lumos_snap_corrupt.bin");
    Result<Session> session = Session::create(tiny_scenario());
    ASSERT_TRUE(session.is_ok());
    ASSERT_TRUE(session->save_snapshot(path_).is_ok());
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 256u);
  }

  void rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, MissingFileIsAnIoError) {
  Result<BaselineArtifacts> r =
      load_baseline_snapshot(temp_path("lumos_snap_does_not_exist.bin"));
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(peek_snapshot_content_hash(temp_path("lumos_snap_nope.bin"))
                .status()
                .code(),
            ErrorCode::kIoError);
}

TEST_F(SnapshotCorruption, BadMagicIsAParseError) {
  std::string bad = bytes_;
  bad[0] = 'X';
  rewrite(bad);
  EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(peek_snapshot_content_hash(path_).status().code(),
            ErrorCode::kParseError);
}

TEST_F(SnapshotCorruption, WrongVersionIsUnsupported) {
  // v2 stored the meta table's row copies and indexes, v3 a trace section
  // and a 40-byte header; v4 reads none of them.
  for (const char version : {'\x02', '\x03', '\x7F'}) {
    std::string bad = bytes_;
    bad[8] = version;  // version u32 follows the magic
    rewrite(bad);
    EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
              ErrorCode::kUnsupported);
    EXPECT_EQ(peek_snapshot_content_hash(path_).status().code(),
              ErrorCode::kUnsupported);
  }
}

TEST_F(SnapshotCorruption, TruncationIsAParseError) {
  rewrite(bytes_.substr(0, bytes_.size() / 2));
  EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
            ErrorCode::kParseError);
  // Truncated inside the header: still structured, still a parse error.
  rewrite(bytes_.substr(0, 16));
  EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
            ErrorCode::kParseError);
}

TEST_F(SnapshotCorruption, PayloadBitFlipIsAParseError) {
  std::string bad = bytes_;
  bad[bytes_.size() - 9] ^= 0x40;  // deep in the payload
  rewrite(bad);
  EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
            ErrorCode::kParseError);
}

TEST_F(SnapshotCorruption, EmptyFileIsAParseError) {
  rewrite("");
  EXPECT_EQ(load_baseline_snapshot(path_).status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(peek_snapshot_content_hash(path_).status().code(),
            ErrorCode::kParseError);
}

// Crafted images: a payload rewrite with the checksum recomputed passes the
// integrity check, so the loader's semantic bounds checks must catch it.
// Image layout: a 32-byte header (section count at byte 12, payload
// checksum at byte 16), a table of 24-byte section entries {u32 id,
// u32 reserved, u64 offset, u64 length}, then sections of length-prefixed,
// 8-aligned columns.
class CraftedSnapshot : public SnapshotCorruption {
 protected:
  template <class T>
  T read_at(std::size_t pos) const {
    T v;
    std::memcpy(&v, bytes_.data() + pos, sizeof(T));
    return v;
  }
  template <class T>
  void write_at(std::string& bytes, std::size_t pos, T v) const {
    std::memcpy(bytes.data() + pos, &v, sizeof(T));
  }
  static std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

  /// {offset, length} of section `id`.
  std::pair<std::size_t, std::size_t> section(std::uint32_t id) const {
    const auto count = read_at<std::uint32_t>(12);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t entry = 32 + i * 24;
      if (read_at<std::uint32_t>(entry) == id) {
        return {read_at<std::uint64_t>(entry + 8),
                read_at<std::uint64_t>(entry + 16)};
      }
    }
    ADD_FAILURE() << "no section " << id;
    return {0, 0};
  }
  std::pair<std::size_t, std::size_t> graph_section() const {
    return section(4);
  }

  /// Position just past the length-prefixed array of `elem`-byte values
  /// starting at `pos`.
  std::size_t skip_array(std::size_t pos, std::size_t elem) const {
    return pos + 8 + align8(read_at<std::uint64_t>(pos) * elem);
  }

  /// Element sizes of the task event table's 25 columns (cat, api, ts,
  /// dur, ...: trace::EventTable's order) and of the meta table's stored
  /// columns (flags, lane, coll_op, coll_group, coll_instance, sync_lane,
  /// sync_before).
  static constexpr std::size_t kEventBytes[] = {
      1, 1, 8, 8, 4, 4, 8, 8, 8, 4, 4, 8, 4, 4, 4, 4, 4, 4, 4, 8, 4, 8,
      8, 8, 8};
  static constexpr std::size_t kMetaBytes[] = {1, 4, 4, 4, 8, 4, 4};

  /// Position of the first value of the graph's task event column `index`.
  /// The graph section opens with edge src/dst/type and task rank/gpu/lane,
  /// then the task event table (a row count and 25 columns).
  std::size_t event_column(std::size_t index) const {
    std::size_t pos = graph_section().first;
    for (const std::size_t elem : {4, 4, 1, 4, 1, 8}) {
      pos = skip_array(pos, elem);
    }
    pos += 8;
    for (std::size_t i = 0; i < index; ++i) {
      pos = skip_array(pos, kEventBytes[i]);
    }
    return pos + 8;
  }

  /// Position of the first value of stored meta column `index`. The meta
  /// row count follows the event table, so event_column past the last
  /// event column is the first meta length prefix.
  std::size_t meta_column(std::size_t index) const {
    std::size_t pos = event_column(std::size(kEventBytes));
    for (std::size_t i = 0; i < index; ++i) {
      pos = skip_array(pos, kMetaBytes[i]);
    }
    return pos + 8;
  }

  /// Position of the first rendezvous group id: the lane rank / gpu / lane
  /// columns follow the meta columns, then the u32 group id column.
  std::size_t group_id_column() const {
    std::size_t pos = meta_column(std::size(kMetaBytes)) - 8;
    for (const std::size_t elem : {4, 1, 8}) pos = skip_array(pos, elem);
    return pos + 8;
  }

  /// Writes `value` over the first entry of the 32-bit column at `column`,
  /// reseals the image and expects the load to fail naming `what`.
  template <class T>
  void expect_first_entry_rejected(std::size_t column, T value,
                                   const std::string& what) {
    ASSERT_GT(read_at<std::uint64_t>(column - 8), 0u);
    std::string bad = bytes_;
    write_at<T>(bad, column, value);
    reseal_and_write(bad);
    expect_rejected(what);
  }

  /// The program section (id 5): [u64 n][n x 20-byte Instr],
  /// [u64 n][n x i32 operand] and [u64 n][n x 12-byte Member]. Positions of
  /// each array's first value. Instr is {u8 op, 3 reserved, i32 lane,
  /// i32 id, u32 first, u32 count}; Member is {i32 task, i32 lane, u8 p2p,
  /// 3 reserved}.
  struct ProgramLayout {
    std::size_t instrs = 0;
    std::size_t operands = 0;
    std::size_t members = 0;
  };
  ProgramLayout program_layout() const {
    ProgramLayout l;
    const std::size_t instr_array = section(5).first;
    const std::size_t operand_array = skip_array(instr_array, 20);
    const std::size_t member_array = skip_array(operand_array, 4);
    l.instrs = instr_array + 8;
    l.operands = operand_array + 8;
    l.members = member_array + 8;
    return l;
  }

  /// The saved baseline, rebuilt in memory: its graph and compiled program
  /// are what the image stores.
  BaselineArtifacts baseline() const {
    Result<Session> session = Session::create(tiny_scenario());
    EXPECT_TRUE(session.is_ok());
    Result<BaselineArtifacts> base = session->share_baseline();
    EXPECT_TRUE(base.is_ok());
    EXPECT_NE(base->program, nullptr);
    return std::move(base).value();
  }

  /// Index of the first instruction with opcode `op` (0 run, 1 arrive,
  /// 2 rendezvous).
  static std::size_t first_instr(const core::ReplayProgram& program,
                                 core::ReplayProgram::Op op) {
    const auto instrs = program.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (instrs[i].op == op) return i;
    }
    ADD_FAILURE() << "no instruction with op " << static_cast<int>(op);
    return 0;
  }

  /// Recomputes the payload checksum the way the writer does, so only the
  /// loader's semantic checks stand between the image and the consumers.
  void reseal_and_write(std::string bytes) {
    const std::size_t payload = 32 + read_at<std::uint32_t>(12) * 24;
    write_at(bytes, 16,
             io::fnv1a_words(bytes.data() + payload, bytes.size() - payload));
    rewrite(bytes);
  }

  void expect_rejected(const std::string& what,
                       const std::string& section = "graph section") {
    const Status status = load_baseline_snapshot(path_).status();
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.to_string();
    EXPECT_NE(status.message().find(section), std::string::npos)
        << status.to_string();
    EXPECT_NE(status.message().find(what), std::string::npos)
        << status.to_string();
  }
};

TEST_F(CraftedSnapshot, UntouchedResealIsAccepted) {
  reseal_and_write(bytes_);
  EXPECT_TRUE(load_baseline_snapshot(path_).is_ok());
}

TEST_F(CraftedSnapshot, EdgeEndpointOutOfRangeIsRejected) {
  // The graph section opens with the edge src column: [u64 n][i32 x n].
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, graph_section().first + 8, 0x7FFFFFF0);
  reseal_and_write(bad);
  expect_rejected("edge endpoint out of range");
}

TEST_F(CraftedSnapshot, EdgeTypeOutOfRangeIsRejected) {
  // Edge src, edge dst, then the u8 edge type column.
  std::size_t pos = graph_section().first;
  for (const std::size_t elem : {4, 4}) pos = skip_array(pos, elem);
  ASSERT_GT(read_at<std::uint64_t>(pos), 0u);
  std::string bad = bytes_;
  write_at<std::uint8_t>(bad, pos + 8,
                         static_cast<std::uint8_t>(core::kDepTypeCount));
  reseal_and_write(bad);
  expect_rejected("edge type out of range");
}

TEST_F(CraftedSnapshot, RendezvousMemberOutOfRangeIsRejected) {
  // The member id column closes the graph section; its length is the
  // baseline graph's total rendezvous membership.
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  Result<BaselineArtifacts> base = session->share_baseline();
  ASSERT_TRUE(base.is_ok());
  std::size_t members = 0;
  const core::TaskMetaTable& meta = base->graph->meta();
  for (std::size_t g = 0; g < meta.rendezvous_group_count(); ++g) {
    members += meta.rendezvous_group(g).members.size();
  }
  ASSERT_GT(members, 0u);
  const auto [offset, length] = graph_section();
  const std::size_t column = offset + length - align8(members * 4);
  ASSERT_EQ(read_at<std::uint64_t>(column - 8), members);
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, column, 0x7FFFFFF0);
  reseal_and_write(bad);
  expect_rejected("rendezvous member id out of range");
}

TEST_F(CraftedSnapshot, RendezvousMemberListedTwiceIsRejected) {
  // The loader derives each task's group index from the member lists, so a
  // task may appear in one rendezvous slot only.
  const BaselineArtifacts base = baseline();
  std::size_t members = 0;
  const core::TaskMetaTable& meta = base.graph->meta();
  for (std::size_t g = 0; g < meta.rendezvous_group_count(); ++g) {
    members += meta.rendezvous_group(g).members.size();
  }
  ASSERT_GT(members, 1u);
  const auto [offset, length] = graph_section();
  const std::size_t column = offset + length - align8(members * 4);
  ASSERT_EQ(read_at<std::uint64_t>(column - 8), members);
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, column + 4, read_at<std::int32_t>(column));
  reseal_and_write(bad);
  expect_rejected("rendezvous member listed twice");
}

TEST_F(CraftedSnapshot, ShortEventColumnIsRejected) {
  // Graph section: edge src/dst/type, task rank/gpu/lane, then the task
  // event table — a u64 row count followed by its u8 category column.
  std::size_t pos = graph_section().first;
  for (const std::size_t elem : {4, 4, 1, 4, 1, 8}) pos = skip_array(pos, elem);
  const std::size_t category = pos + 8;
  const auto rows = read_at<std::uint64_t>(category);
  ASSERT_EQ(rows, read_at<std::uint64_t>(pos));
  // Change the length without moving the 8-aligned end, so the rest of
  // the section still parses and only the length check can object.
  const std::uint64_t forged = rows % 8 != 1 ? rows - 1 : rows + 1;
  ASSERT_EQ(align8(forged), align8(rows));
  std::string bad = bytes_;
  write_at<std::uint64_t>(bad, category, forged);
  reseal_and_write(bad);
  expect_rejected("event column length mismatch");
}

TEST_F(CraftedSnapshot, MetaLaneIdOutOfRangeIsRejected) {
  const BaselineArtifacts base = baseline();
  const std::size_t lane = meta_column(1);
  ASSERT_EQ(read_at<std::uint64_t>(lane - 8), base.graph->size());
  std::string bad = bytes_;
  write_at<std::int32_t>(
      bad, lane, static_cast<std::int32_t>(base.graph->meta().lanes().size()));
  reseal_and_write(bad);
  expect_rejected("meta lane id out of range");
}

TEST_F(CraftedSnapshot, MetaSyncLaneOutOfRangeIsRejected) {
  // kInvalidLane (-1) means "unresolved" and is legal; any other negative
  // id is not.
  const std::size_t sync_lane = meta_column(5);
  ASSERT_EQ(read_at<std::uint64_t>(sync_lane - 8), baseline().graph->size());
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, sync_lane, -2);
  reseal_and_write(bad);
  expect_rejected("meta lane id out of range");
}

// String pool ids: every id column of the rows, the meta table and the
// rendezvous groups must be kInvalidIndex or below its pool's size.

TEST_F(CraftedSnapshot, RowNameIdOutOfRangeIsRejected) {
  const auto names =
      static_cast<std::uint32_t>(baseline().graph->meta().names().size());
  expect_first_entry_rejected(event_column(12), names,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, RowCollectiveOpIdOutOfRangeIsRejected) {
  const auto ops =
      static_cast<std::uint32_t>(baseline().graph->meta().ops().size());
  expect_first_entry_rejected(event_column(17), ops,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, RowCollectiveGroupIdOutOfRangeIsRejected) {
  const auto groups =
      static_cast<std::uint32_t>(baseline().graph->meta().groups().size());
  expect_first_entry_rejected(event_column(18), groups,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, MetaCollectiveOpIdOutOfRangeIsRejected) {
  const auto ops =
      static_cast<std::uint32_t>(baseline().graph->meta().ops().size());
  expect_first_entry_rejected(meta_column(2), ops,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, MetaCollectiveGroupIdOutOfRangeIsRejected) {
  // kInvalidIndex - 1: the largest id that is neither valid nor invalid.
  expect_first_entry_rejected(meta_column(3), 0xFFFFFFFEu,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, RendezvousGroupIdOutOfRangeIsRejected) {
  const auto groups =
      static_cast<std::uint32_t>(baseline().graph->meta().groups().size());
  expect_first_entry_rejected(group_id_column(), groups,
                              "string pool id out of range");
}

TEST_F(CraftedSnapshot, GroupMemberOffsetsOutOfRangeIsRejected) {
  // Group ids, group instances, then the u64 member offsets: the first
  // group's member range may not end past the member column.
  std::size_t offsets = group_id_column() - 8;
  for (const std::size_t elem : {4, 8}) offsets = skip_array(offsets, elem);
  ASSERT_GT(read_at<std::uint64_t>(offsets), 1u);
  std::string bad = bytes_;
  write_at<std::uint64_t>(bad, offsets + 16, std::uint64_t{1} << 40);
  reseal_and_write(bad);
  expect_rejected("group member offsets out of range");
}

TEST_F(CraftedSnapshot, PoolCountOverflowIsRejected) {
  // The pools section opens with the names pool: [u64 count][u64 n][n x
  // u64 offsets]. A count of 2^64-1 over an empty offset table must not
  // pass as count + 1 == 0.
  const std::size_t pools = section(2).first;
  std::string bad = bytes_;
  write_at<std::uint64_t>(bad, pools, ~std::uint64_t{0});
  write_at<std::uint64_t>(bad, pools + 8, 0);
  reseal_and_write(bad);
  expect_rejected("pool offset table size", "snapshot: ");
}

TEST_F(CraftedSnapshot, MetadataIntegerOutOfRangeIsRejected) {
  // The metadata JSON reads d_model as an integer. 9e99, as long as the
  // 1024 it replaces so no offset moves, lies past int64.
  std::string bad = bytes_;
  const std::size_t at = bad.find(R"("d_model":1024)");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 14, R"("d_model":9e99)");
  reseal_and_write(bad);
  expect_rejected("int64", "snapshot metadata");
}

TEST_F(CraftedSnapshot, MetadataInt32FieldOutOfRangeIsRejected) {
  // tp is a 32-bit field: 2^32+1 must not narrow to 1. The config's
  // `"tp":2,"pp":2,"dp":2,` becomes tp alone plus padding, so no offset
  // moves (pp and dp fall back to their defaults).
  std::string bad = bytes_;
  const std::string from = R"("tp":2,"pp":2,"dp":2,)";
  const std::string to = R"("tp":4294967297,     )";
  ASSERT_EQ(from.size(), to.size());
  const std::size_t at = bad.find(from);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, from.size(), to);
  reseal_and_write(bad);
  expect_rejected("int32", "snapshot metadata");
}

// Enum bytes: each row's category and CUDA API byte names an enumerator.

TEST_F(CraftedSnapshot, EventCategoryOutOfRangeIsRejected) {
  expect_first_entry_rejected(
      event_column(0),
      static_cast<std::uint8_t>(
          static_cast<int>(trace::EventCategory::UserAnnotation) + 1),
      "cat column value out of range");
}

TEST_F(CraftedSnapshot, EventCudaApiOutOfRangeIsRejected) {
  expect_first_entry_rejected(
      event_column(1),
      static_cast<std::uint8_t>(
          static_cast<int>(trace::CudaApi::EventSynchronize) + 1),
      "api column value out of range");
}

// Side-table indices: each row's collective / GEMM index is -1 or below
// its side-table's length.

TEST_F(CraftedSnapshot, CollectiveSideTableIndexOutOfRangeIsRejected) {
  expect_first_entry_rejected<std::int32_t>(
      event_column(15), -2, "collective side-table index out of range");
}

TEST_F(CraftedSnapshot, GemmSideTableIndexOutOfRangeIsRejected) {
  const auto gemms =
      static_cast<std::int32_t>(read_at<std::uint64_t>(event_column(22) - 8));
  expect_first_entry_rejected(event_column(16), gemms,
                              "gemm side-table index out of range");
}

TEST_F(CraftedSnapshot, MetaAndProgramReadTheRowDurations) {
  // The image stores each task's duration once, in the graph's row dur
  // column: the meta table and the loaded program both read it there.
  const std::size_t dur = event_column(3);
  const auto profiled = read_at<std::int64_t>(dur);
  std::string edited = bytes_;
  write_at<std::int64_t>(edited, dur, profiled + 777);
  reseal_and_write(edited);
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path_);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const core::TaskMetaTable& meta = loaded->graph->meta();
  EXPECT_EQ(meta.columns().events().dur_ns(0), profiled + 777);
  EXPECT_EQ(meta.duration_ns(0), profiled + 777);
  ASSERT_NE(loaded->program, nullptr);
  const core::SimResult baked = loaded->program->run();
  EXPECT_EQ(baked.end_ns[0] - baked.start_ns[0], profiled + 777);
  EXPECT_EQ(sim_digest(baked),
            sim_digest(loaded->program->run(
                meta.columns().events().dur_column())));
}

// ---------------------------------------------------------------------------
// The program section: a saved baseline carries its compiled program
// ---------------------------------------------------------------------------

/// Whether two programs hold the same records (Instr and Member have no
/// padding, so equal bytes are equal records).
void expect_same_program(const core::ReplayProgram& a,
                         const core::ReplayProgram& b) {
  const auto same_bytes = [](auto x, auto y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  EXPECT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.collective_count(), b.collective_count());
  EXPECT_TRUE(same_bytes(a.instructions(), b.instructions()));
  EXPECT_TRUE(same_bytes(a.operands(), b.operands()));
  EXPECT_TRUE(same_bytes(a.members(), b.members()));
}

TEST(SnapshotProgram, LoadedBaselineCarriesItsCompiledProgram) {
  const std::string path = temp_path("lumos_snap_program.bin");
  const BaselineArtifacts loaded = save_and_load(tiny_scenario(), path).loaded;
  // Present straight from the load, before any attach_replay_program.
  ASSERT_NE(loaded.program, nullptr);
  core::ReplayCompiler::Result compiled =
      core::ReplayCompiler::compile(*loaded.graph);
  ASSERT_TRUE(compiled) << core::to_string(compiled.status);
  expect_same_program(*loaded.program, *compiled.program);
  EXPECT_GT(loaded.program->collective_count(), 0u);

  // The facade runs the stored program, bit-identical to the coupled
  // interpreter.
  Result<Prediction> predicted = predict_on(loaded, whatif());
  ASSERT_TRUE(predicted.is_ok()) << predicted.status().to_string();
  EXPECT_TRUE(predicted->used_compiled_replay);
  EXPECT_EQ(sim_digest(predicted->sim),
            sim_digest(coupled_replay(*loaded.graph)));
}

TEST(SnapshotProgram, BaselineThatDoesNotCompileSavesAnEmptySection) {
  const std::string prefix = temp_path("lumos_snap_uncompilable");
  ASSERT_EQ(trace::write_cluster_trace_files(
                testutil::zero_duration_kernel_trace(), prefix)
                .size(),
            1u);
  Result<Session> session = Session::create(Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  const std::string path = temp_path("lumos_snap_uncompilable.bin");
  ASSERT_TRUE(session->save_snapshot(path).is_ok());

  // Section 5 is present and empty.
  const std::string bytes = read_file(path);
  const std::vector<std::uint32_t> ids = section_ids(bytes);
  bool found = false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint64_t length = 1;
    std::memcpy(&length, bytes.data() + 32 + i * 24 + 16, sizeof(length));
    if (ids[i] == 5) {
      found = true;
      EXPECT_EQ(length, 0u);
    }
  }
  EXPECT_TRUE(found);

  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->program, nullptr);
  Result<Prediction> predicted = predict_on(*loaded, whatif());
  ASSERT_TRUE(predicted.is_ok()) << predicted.status().to_string();
  EXPECT_FALSE(predicted->used_compiled_replay);
}

// Each load-side check of the program section, on a resealed image.

TEST_F(CraftedSnapshot, EngineMissRunsTheStoredProgram) {
  // A stored program that differs from compile(graph) and still passes
  // every check: no run or arrival waits on another lane. The engine's
  // schedule follows it, so a miss ran the stored program, not a compile.
  const BaselineArtifacts base = baseline();
  const auto instrs = base.program->instructions();
  std::string crafted = bytes_;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].op != core::ReplayProgram::Op::kRendezvous) {
      write_at<std::uint32_t>(crafted, program_layout().instrs + i * 20 + 16,
                              0u);  // count
    }
  }
  reseal_and_write(crafted);
  Result<BaselineArtifacts> loaded = load_baseline_snapshot(path_);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_NE(loaded->program, nullptr);
  const std::uint64_t stored = sim_digest(loaded->program->run());
  ASSERT_NE(stored, sim_digest(coupled_replay(*base.graph)));

  serve::Request request;
  request.method = serve::Method::kPredict;
  request.baseline = path_;
  serve::Engine engine;
  Result<serve::Engine::Outcome> miss = engine.predict(request);
  ASSERT_TRUE(miss.is_ok()) << miss.status().to_string();
  EXPECT_FALSE(miss->baseline_was_cached);
  EXPECT_TRUE(miss->prediction.used_compiled_replay);
  EXPECT_EQ(sim_digest(miss->prediction.sim), stored);
}

TEST_F(CraftedSnapshot, ProgramRepeatedInstructionIsRejected) {
  // Two run instructions for one task leave another task without one.
  const BaselineArtifacts base = baseline();
  const auto instrs = base.program->instructions();
  const std::size_t first = first_instr(*base.program,
                                        core::ReplayProgram::Op::kRun);
  std::size_t second = first + 1;
  while (instrs[second].op != core::ReplayProgram::Op::kRun) ++second;
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, program_layout().instrs + second * 20 + 8,
                         instrs[first].id);
  reseal_and_write(bad);
  expect_rejected("repeated instruction", "program section");
}

TEST_F(CraftedSnapshot, ProgramUnknownOpIsRejected) {
  std::string bad = bytes_;
  write_at<std::uint8_t>(bad, program_layout().instrs, 7);
  reseal_and_write(bad);
  expect_rejected("unknown op", "program section");
}

TEST_F(CraftedSnapshot, ProgramTaskIdOutOfRangeIsRejected) {
  const BaselineArtifacts base = baseline();
  const std::size_t i = first_instr(*base.program,
                                    core::ReplayProgram::Op::kRun);
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, program_layout().instrs + i * 20 + 8,
                         static_cast<std::int32_t>(base.graph->size()));
  reseal_and_write(bad);
  expect_rejected("task id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramGroupIdOutOfRangeIsRejected) {
  const BaselineArtifacts base = baseline();
  const std::size_t i = first_instr(*base.program,
                                    core::ReplayProgram::Op::kRendezvous);
  std::string bad = bytes_;
  write_at<std::int32_t>(
      bad, program_layout().instrs + i * 20 + 8,
      static_cast<std::int32_t>(base.program->collective_count()));
  reseal_and_write(bad);
  expect_rejected("group id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramLaneIdOutOfRangeIsRejected) {
  const BaselineArtifacts base = baseline();
  const std::size_t i = first_instr(*base.program,
                                    core::ReplayProgram::Op::kArrive);
  std::string bad = bytes_;
  write_at<std::int32_t>(
      bad, program_layout().instrs + i * 20 + 4,
      static_cast<std::int32_t>(base.graph->meta().lanes().size()));
  reseal_and_write(bad);
  expect_rejected("lane id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramOperandRangeOutOfBoundsIsRejected) {
  const BaselineArtifacts base = baseline();
  const std::size_t i = first_instr(*base.program,
                                    core::ReplayProgram::Op::kRun);
  std::string bad = bytes_;
  write_at<std::uint32_t>(bad, program_layout().instrs + i * 20 + 16,
                          0xFFFFFFFFu);  // count
  reseal_and_write(bad);
  expect_rejected("operand or member range out of bounds", "program section");
}

TEST_F(CraftedSnapshot, ProgramEmptyRendezvousIsRejected) {
  // run() reads the last arrival's member, so a group needs one.
  const BaselineArtifacts base = baseline();
  const std::size_t i = first_instr(*base.program,
                                    core::ReplayProgram::Op::kRendezvous);
  std::string bad = bytes_;
  write_at<std::uint32_t>(bad, program_layout().instrs + i * 20 + 16, 0u);
  reseal_and_write(bad);
  expect_rejected("empty rendezvous group", "program section");
}

TEST_F(CraftedSnapshot, ProgramOperandTaskIdOutOfRangeIsRejected) {
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, program_layout().operands, -3);
  reseal_and_write(bad);
  expect_rejected("operand task id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramMemberTaskIdOutOfRangeIsRejected) {
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, program_layout().members, 0x7FFFFFF0);
  reseal_and_write(bad);
  expect_rejected("member task id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramMemberLaneIdOutOfRangeIsRejected) {
  std::string bad = bytes_;
  write_at<std::int32_t>(bad, program_layout().members + 4, -1);
  reseal_and_write(bad);
  expect_rejected("member lane id out of range", "program section");
}

TEST_F(CraftedSnapshot, ProgramMemberP2pFlagMustBeZeroOrOne) {
  std::string bad = bytes_;
  write_at<std::uint8_t>(bad, program_layout().members + 8, 2);
  reseal_and_write(bad);
  expect_rejected("member p2p flag not 0/1", "program section");
}

TEST_F(CraftedSnapshot, ProgramOverNonPositiveDurationsIsRejected) {
  // The program borrows the graph's row dur column, which the graph section
  // does not check: a zero there breaks the positivity compile() proved.
  const std::size_t dur = event_column(3);
  ASSERT_EQ(read_at<std::uint64_t>(dur - 8), baseline().graph->size());
  std::string bad = bytes_;
  write_at<std::int64_t>(bad, dur, 0);
  reseal_and_write(bad);
  expect_rejected("durations are not all positive", "program section");
}

// ---------------------------------------------------------------------------
// Crash-safe save: temp file + fsync + atomic rename
// ---------------------------------------------------------------------------

TEST(SnapshotAtomicSave, KillMidWriteNeverTearsTheTargetImage) {
  // Saves land in a private directory so the litter scan below is exact.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "lumos_snap_atomic";
  std::filesystem::create_directory(dir);
  const std::string path = (dir / "baseline.snap").string();

  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  ASSERT_TRUE(session->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> first = load_baseline_snapshot(path);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::uint64_t good_key = *peek_snapshot_content_hash(path);

  // A successful save leaves exactly the image — no ".tmp." staging litter.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "baseline.snap");
  }

  // Kill-mid-write, simulated the way a crash actually manifests: the
  // staging temp exists and is truncated mid-image. The write sequence is
  // temp → fsync → rename, so the target name still holds the previous
  // complete image.
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 256u);
  const std::string torn_tmp = path + ".tmp.12345";
  {
    std::ofstream out(torn_tmp, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  Result<BaselineArtifacts> survived = load_baseline_snapshot(path);
  ASSERT_TRUE(survived.is_ok()) << survived.status().to_string();
  EXPECT_EQ(*peek_snapshot_content_hash(path), good_key);
  EXPECT_EQ(survived->graph->size(), first->graph->size());
  // The torn temp itself is structurally invalid — exactly what load would
  // have reported had the old non-atomic writer been killed mid-write.
  EXPECT_EQ(load_baseline_snapshot(torn_tmp).status().code(),
            ErrorCode::kParseError);
  std::filesystem::remove(torn_tmp);

  // Overwriting a live image goes through the same dance: a re-save over
  // the existing path succeeds and loads identically (same bytes, so the
  // same key).
  Result<Session> again = Session::create(tiny_scenario());
  ASSERT_TRUE(again.is_ok());
  ASSERT_TRUE(again->save_snapshot(path).is_ok());
  Result<BaselineArtifacts> second = load_baseline_snapshot(path);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(*peek_snapshot_content_hash(path), good_key);
  EXPECT_EQ(sim_digest(second->program->run()),
            sim_digest(first->program->run()));
}

TEST(SnapshotAtomicSave, UnwritableTempPathIsAnIoError) {
  // The temp file lands in the target's directory; a missing directory
  // fails the save with a structured kIoError before any rename.
  Result<Session> session = Session::create(tiny_scenario());
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session
                ->save_snapshot(temp_path("lumos_no_such_dir/baseline.snap"))
                .code(),
            ErrorCode::kIoError);
}

}  // namespace
}  // namespace lumos::api
