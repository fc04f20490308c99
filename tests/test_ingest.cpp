// Cluster-scale parallel ingest (trace/ingest.{h,cpp} + io/parallel_for).
//
// The contract under test: read_cluster_trace with ANY worker count — 1
// (serial), N, more workers than files, 0 (auto) — produces a bit-identical
// ClusterTrace, because workers parse into private pools and a
// deterministic merge re-interns them in sorted-rank order. Identity is
// pinned three ways: the content_hash test oracle, golden FNV byte-identity
// of the re-serialized JSON (ParsePathGolden style), and SimResult equality
// after graph finalize + replay. The whole suite runs under the
// thread-sanitizer CI job, so the fan-out is raced for real.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "cluster/ground_truth.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "io/parallel_for.h"
#include "json/json.h"
#include "trace/chrome_trace.h"
#include "trace/ingest.h"
#include "test_util.h"
#include "trace_content_hash_oracle.h"

namespace {

using namespace lumos;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A fresh temp directory per fixture name, so discovery tests see exactly
/// the files the test wrote.
std::string fixture_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "lumos_ingest_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

trace::TraceEvent make_event(std::string name, trace::EventCategory cat,
                             std::int64_t ts, std::int64_t dur,
                             std::int32_t tid) {
  trace::TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = tid;
  return e;
}

/// The ≥16-rank synthetic fixture: 20 ranks (two-digit ranks force the
/// numeric-vs-lexicographic discovery distinction), each with a string set
/// that *diverges across ranks in content and first-intern order* — shared
/// names arrive at different positions per rank, and every rank adds
/// rank-unique names, collective groups and gemm shapes. This is the
/// adversarial input for the pool merge: a naive "workers intern into the
/// shared pool in completion order" scheme would assign different ids on
/// every run.
constexpr std::size_t kSyntheticRanks = 20;

std::string write_synthetic_fixture(const std::string& name) {
  const std::string prefix = fixture_dir(name) + "/trace";
  trace::ClusterTrace cluster;
  for (std::size_t r = 0; r < kSyntheticRanks; ++r) {
    trace::RankTrace& rank =
        cluster.add_rank(static_cast<std::int32_t>(r));
    std::int64_t ts = 1000;
    for (std::size_t i = 0; i < 40; ++i) {
      // Shared names, but each rank first meets them in a rotated order.
      const std::size_t which = (i + r) % 4;
      const char* shared[] = {"cudaLaunchKernel", "aten::mm",
                              "void gemm_kernel<float>(float*)",
                              "aten::layer_norm"};
      trace::TraceEvent e = make_event(
          shared[which],
          which == 0 ? trace::EventCategory::CudaRuntime
                     : trace::EventCategory::Kernel,
          ts, 50, which == 0 ? 1 : 7);
      e.pid = static_cast<std::int32_t>(r);
      e.correlation = static_cast<std::int64_t>(i);
      if (which != 0) e.stream = 7;
      e.phase = (i % 2 != 0) ? "forward" : "backward";
      e.block = (i % 3 == 0) ? "layer" : "";
      e.layer = static_cast<std::int32_t>(i % 4);
      rank.events.push_back(e);
      // A rank-unique operator name ("escape\"needed" exercises the JSON
      // escaping path through the round trip).
      trace::TraceEvent unique = make_event(
          "rank" + std::to_string(r) + "_op\"" + std::to_string(i % 5),
          trace::EventCategory::CpuOp, ts + 10, 20, 1);
      unique.pid = static_cast<std::int32_t>(r);
      rank.events.push_back(unique);
      // Collectives: op order and group names also diverge per rank.
      if (i % 4 == r % 4) {
        trace::TraceEvent coll = make_event(
            "ncclDevKernel_AllReduce", trace::EventCategory::Kernel,
            ts + 40, 30, 9);
        coll.pid = static_cast<std::int32_t>(r);
        coll.stream = 9;
        coll.collective.op = (r % 2 != 0) ? "allreduce" : "allgather";
        coll.collective.group = "dp_" + std::to_string(r % 4);
        coll.collective.bytes = 1 << 16;
        coll.collective.group_size = 4;
        coll.collective.instance = static_cast<std::int64_t>(i);
        rank.events.push_back(coll);
      }
      if (i % 7 == 0) {
        trace::TraceEvent gemm = make_event(
            "aten::mm", trace::EventCategory::CpuOp, ts + 60, 15, 1);
        gemm.pid = static_cast<std::int32_t>(r);
        gemm.gemm = {static_cast<std::int64_t>(64 + r),
                     static_cast<std::int64_t>(128 + i), 256};
        rank.events.push_back(gemm);
      }
      ts += 100;
    }
  }
  EXPECT_EQ(trace::write_cluster_trace_files(cluster, prefix).size(),
            kSyntheticRanks);
  return prefix;
}

trace::IoOptions workers(std::size_t n) {
  return {.ingest_workers = n};
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

TEST(DiscoverRankFiles, NumericOrderAndDecoySkipping) {
  const std::string dir = fixture_dir("discover");
  const std::string prefix = dir + "/t";
  // Ranks whose lexicographic filename order (0,1,10,11,...,2,...) differs
  // from numeric order, plus decoys that must not match.
  for (int r : {0, 1, 2, 3, 10, 11, 21}) {
    std::ofstream(prefix + "_rank" + std::to_string(r) + ".json") << "{}";
  }
  std::ofstream(prefix + "_rankX.json") << "{}";      // non-numeric rank
  std::ofstream(prefix + "_rank5.txt") << "{}";       // wrong extension
  std::ofstream(dir + "/u_rank5.json") << "{}";       // wrong stem
  std::ofstream(prefix + "_rank.json") << "{}";       // empty rank segment

  const std::vector<trace::RankFile> files =
      trace::discover_rank_files(prefix);
  ASSERT_EQ(files.size(), 7u);
  const std::int64_t expected[] = {0, 1, 2, 3, 10, 11, 21};
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(files[i].rank, expected[i]) << i;
    EXPECT_EQ(files[i].bytes, 2u) << i;  // batched stat: "{}"
  }
}

TEST(DiscoverRankFiles, StructuredErrors) {
  const std::string dir = fixture_dir("discover_err");
  // Missing directory.
  try {
    trace::discover_rank_files(dir + "/no/such/dir/trace");
    FAIL() << "expected IngestError";
  } catch (const trace::IngestError& e) {
    EXPECT_EQ(e.kind(), trace::IngestErrorKind::kMissingDirectory);
    EXPECT_NE(std::string(e.what()).find("no/such/dir"), std::string::npos);
  }
  // Directory exists, nothing matches.
  try {
    trace::discover_rank_files(dir + "/trace");
    FAIL() << "expected IngestError";
  } catch (const trace::IngestError& e) {
    EXPECT_EQ(e.kind(), trace::IngestErrorKind::kNoMatchingFiles);
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos);
  }
  // Count mismatch.
  std::ofstream(dir + "/trace_rank0.json") << "{}";
  try {
    trace::discover_rank_files(dir + "/trace", 3);
    FAIL() << "expected IngestError";
  } catch (const trace::IngestError& e) {
    EXPECT_EQ(e.kind(), trace::IngestErrorKind::kRankCountMismatch);
    EXPECT_EQ(e.path(), dir + "/trace");
  }
  // Back-compat: IngestError is-a std::runtime_error, so pre-existing
  // catch sites keep working.
  EXPECT_THROW(trace::discover_rank_files(dir + "/trace", 3),
               std::runtime_error);
}

TEST(SessionCreate, MapsIngestErrorsToStructuredStatus) {
  const std::string dir = fixture_dir("session_err");
  std::ofstream(dir + "/trace_rank0.json") << "{}";
  std::ofstream(dir + "/trace_rank1.json") << "{}";
  // Rank-count mismatch -> kInvalidArgument, eagerly at create(), with the
  // offending prefix in the message.
  Result<api::Session> mismatch =
      api::Session::create(api::Scenario::from_trace(dir + "/trace", 3));
  EXPECT_EQ(mismatch.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find(dir + "/trace"),
            std::string::npos);
  // Missing directory -> kIoError.
  Result<api::Session> missing = api::Session::create(
      api::Scenario::from_trace(dir + "/gone/trace", 2));
  EXPECT_EQ(missing.status().code(), ErrorCode::kIoError);
  // No matching files -> kIoError.
  Result<api::Session> none =
      api::Session::create(api::Scenario::from_trace(dir + "/other", 0));
  EXPECT_EQ(none.status().code(), ErrorCode::kIoError);
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial bit-identity on the synthetic ≥16-rank fixture
// ---------------------------------------------------------------------------

class ParallelIngest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prefix_ = new std::string(write_synthetic_fixture("synthetic"));
    serial_ = new trace::ClusterTrace(
        trace::read_cluster_trace(*prefix_, kSyntheticRanks, workers(1)));
  }
  static void TearDownTestSuite() {
    delete serial_;
    serial_ = nullptr;
    delete prefix_;
    prefix_ = nullptr;
  }

  static void expect_bit_identical(const trace::ClusterTrace& parallel) {
    const trace::ClusterTrace& serial = *serial_;
    EXPECT_EQ(testutil::content_hash(parallel),
              testutil::content_hash(serial));
    ASSERT_EQ(parallel.ranks.size(), serial.ranks.size());
    // Pool-merge id stability: not just equal text — equal *ids*. The
    // deterministic merge must reproduce the serial first-intern order
    // exactly, so every pooled id column matches element for element.
    ASSERT_NE(parallel.shared_pools(), nullptr);
    EXPECT_EQ(parallel.shared_pools()->names.size(),
              serial.shared_pools()->names.size());
    EXPECT_EQ(parallel.shared_pools()->ops.size(),
              serial.shared_pools()->ops.size());
    EXPECT_EQ(parallel.shared_pools()->groups.size(),
              serial.shared_pools()->groups.size());
    for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
      const trace::RankTrace& a = parallel.ranks[r];
      const trace::RankTrace& b = serial.ranks[r];
      EXPECT_EQ(a.rank, b.rank) << r;
      // "One pool per trace" holds on the parallel path too.
      EXPECT_EQ(a.events.pools(), parallel.shared_pools()) << r;
      ASSERT_EQ(a.events.size(), b.events.size()) << r;
      for (std::size_t i = 0; i < a.events.size(); ++i) {
        ASSERT_EQ(a.events.name_id(i), b.events.name_id(i))
            << "rank " << r << " event " << i;
        ASSERT_EQ(a.events.phase_id(i), b.events.phase_id(i));
        ASSERT_EQ(a.events.block_id(i), b.events.block_id(i));
        ASSERT_EQ(a.events.collective_op(i), b.events.collective_op(i));
        ASSERT_EQ(a.events.collective_group(i), b.events.collective_group(i));
      }
      // Golden-FNV style byte identity of the re-serialized rank.
      EXPECT_EQ(fnv1a(trace::to_json_string(a)),
                fnv1a(trace::to_json_string(b)))
          << r;
    }
  }

  static std::string* prefix_;
  static trace::ClusterTrace* serial_;
};

std::string* ParallelIngest::prefix_ = nullptr;
trace::ClusterTrace* ParallelIngest::serial_ = nullptr;

TEST_F(ParallelIngest, FourWorkersBitIdentical) {
  expect_bit_identical(
      trace::read_cluster_trace(*prefix_, kSyntheticRanks, workers(4)));
}

TEST_F(ParallelIngest, OddWorkerCountBitIdentical) {
  expect_bit_identical(
      trace::read_cluster_trace(*prefix_, kSyntheticRanks, workers(7)));
}

TEST_F(ParallelIngest, MoreWorkersThanFilesBitIdentical) {
  expect_bit_identical(
      trace::read_cluster_trace(*prefix_, kSyntheticRanks, workers(64)));
}

TEST_F(ParallelIngest, AutoWorkersBitIdentical) {
  expect_bit_identical(
      trace::read_cluster_trace(*prefix_, kSyntheticRanks, workers(0)));
}

TEST_F(ParallelIngest, NumericRankOrderWithoutPostSort) {
  // Two-digit ranks: the lexicographic file order (0,1,10,...,19,2,...)
  // must not leak into the trace. Discovery hands workers numeric order.
  const trace::ClusterTrace& serial = *serial_;
  ASSERT_EQ(serial.ranks.size(), kSyntheticRanks);
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_EQ(serial.ranks[r].rank, static_cast<std::int32_t>(r));
  }
}

// ---------------------------------------------------------------------------
// Seed-123 ground-truth fixture: golden FNV + SimResult equality
// ---------------------------------------------------------------------------

TEST(ParallelIngestGolden, Seed123FixtureAcrossWorkerCounts) {
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const cluster::GroundTruthRun run = engine.run_profiled(/*seed=*/123);
  ASSERT_EQ(run.trace.ranks.size(), 4u);
  const std::string prefix = fixture_dir("seed123") + "/trace";
  ASSERT_EQ(trace::write_cluster_trace_files(run.trace, prefix).size(), 4u);

  const trace::ClusterTrace serial =
      trace::read_cluster_trace(prefix, 4, workers(1));
  const trace::ClusterTrace parallel =
      trace::read_cluster_trace(prefix, 4, workers(4));

  // Disk round trip is byte-stable on this fixture (engine traces are
  // (ts, tid)-sorted), so the read-back re-serializes to the same golden
  // FNV the ParsePathGolden suite pins for the in-memory trace.
  EXPECT_EQ(fnv1a(trace::to_json_string(serial.ranks[0])),
            11453389673110840838ULL);
  EXPECT_EQ(fnv1a(trace::to_json_string(parallel.ranks[0])),
            11453389673110840838ULL);
  EXPECT_EQ(testutil::content_hash(parallel),
            testutil::content_hash(serial));
  EXPECT_EQ(testutil::content_hash(parallel),
            testutil::content_hash(run.trace));

  // SimResult equality after finalize + replay, with the golden constants
  // the string-round-trip path (test_data_layer ParsePathGolden) pins.
  core::ExecutionGraph gs = core::TraceParser().parse(serial);
  core::ExecutionGraph gp = core::TraceParser().parse(parallel);
  const core::SimResult rs = core::replay(gs);
  const core::SimResult rp = core::replay(gp);
  EXPECT_EQ(rs.executed, 6544u);
  EXPECT_EQ(rs.makespan_ns, 9696976);
  EXPECT_EQ(rp.executed, rs.executed);
  EXPECT_EQ(rp.makespan_ns, rs.makespan_ns);
}

// ---------------------------------------------------------------------------
// The merge primitives
// ---------------------------------------------------------------------------

TEST(StringPoolMerge, FirstInternOrderRemap) {
  trace::StringPool dst;
  dst.intern("a");
  dst.intern("b");
  trace::StringPool src;
  src.intern("b");
  src.intern("c");
  src.intern("a");
  const std::vector<std::uint32_t> remap = dst.merge_from(src);
  ASSERT_EQ(remap.size(), 3u);
  EXPECT_EQ(remap[0], 1u);  // "b" already interned
  EXPECT_EQ(remap[1], 2u);  // "c" appended in src order
  EXPECT_EQ(remap[2], 0u);  // "a" already interned
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.view(2), "c");
}

TEST(StringPoolMerge, EmptySourceIsNoOp) {
  trace::StringPool dst;
  dst.intern("a");
  EXPECT_TRUE(dst.merge_from(trace::StringPool{}).empty());
  EXPECT_EQ(dst.size(), 1u);
}

TEST(EventTableMerge, RebindPoolsRemapsAllPooledColumns) {
  // Private table with its own pools, a collective and empty annotations.
  trace::EventTable table;
  trace::TraceEvent e =
      make_event("krn", trace::EventCategory::Kernel, 10, 5, 7);
  e.phase = "forward";
  e.collective.op = "allreduce";
  e.collective.group = "dp_0";
  e.collective.group_size = 2;
  table.push_back(e);
  table.push_back(make_event("other", trace::EventCategory::CpuOp, 20, 5, 1));

  // Shared pools that already interned different strings, so every remap is
  // a non-identity permutation.
  auto shared = std::make_shared<trace::TracePools>();
  shared->names.intern("zzz");
  shared->ops.intern("send");
  shared->groups.intern("tp_0");
  const std::vector<std::uint32_t> name_map =
      shared->names.merge_from(table.pools()->names);
  const std::vector<std::uint32_t> op_map =
      shared->ops.merge_from(table.pools()->ops);
  const std::vector<std::uint32_t> group_map =
      shared->groups.merge_from(table.pools()->groups);
  table.rebind_pools(shared, name_map, op_map, group_map);

  EXPECT_EQ(table.pools(), shared);
  EXPECT_EQ(table.name(0), "krn");
  EXPECT_EQ(table.phase(0), "forward");
  EXPECT_EQ(table.block(0), "");  // invalid id preserved
  EXPECT_EQ(table.collective_op_view(0), "allreduce");
  EXPECT_EQ(table.collective_group_view(0), "dp_0");
  EXPECT_EQ(table.name(1), "other");
  EXPECT_FALSE(table.collective_op(1).valid());
  // Ids now live in the shared pool's space (offset by its pre-existing
  // entries).
  EXPECT_EQ(table.name_id(0).index, 1u);
  EXPECT_EQ(table.collective_op(0).index, 1u);
  EXPECT_EQ(table.collective_group(0).index, 1u);
}

// ---------------------------------------------------------------------------
// io::parallel_for
// ---------------------------------------------------------------------------

TEST(ParallelFor, ResolveWorkers) {
  EXPECT_EQ(io::resolve_workers(4, 100), 4u);
  EXPECT_EQ(io::resolve_workers(8, 3), 3u);   // never more threads than work
  EXPECT_EQ(io::resolve_workers(5, 0), 1u);   // floor of 1
  EXPECT_GE(io::resolve_workers(0, 64), 1u);  // auto = hardware_concurrency
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  io::parallel_for(kN, 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, RethrowsLowestIndexError) {
  // Two failing indices; the lowest one must win deterministically, with
  // its original exception type preserved.
  for (int attempt = 0; attempt < 8; ++attempt) {
    try {
      io::parallel_for(16, 4, [](std::size_t i) {
        if (i == 11 || i == 3) {
          throw std::invalid_argument(std::to_string(i));
        }
      });
      FAIL() << "expected exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
}

TEST(ParallelIngestErrors, TooDeepRankFileIsAParseError) {
  // A rank file nested past json::kMaxDepth is rejected by the grammar
  // instead of recursing until the stack runs out.
  const std::string prefix = fixture_dir("too_deep") + "/trace";
  std::ofstream(prefix + "_rank0.json")
      << R"({"traceEvents":[{"args":)" << std::string(100'000, '[');
  Result<api::Session> session =
      api::Session::create(api::Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  const Status status = session->trace().status();
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("nesting deeper than"), std::string::npos)
      << status.to_string();
}

TEST(ParallelIngestErrors, OutOfRangeTimestampIsAParseError) {
  // "ts" becomes integer nanoseconds: a value past int64 is rejected
  // instead of cast (undefined behaviour).
  const std::string prefix = fixture_dir("ts_out_of_range") + "/trace";
  std::ofstream(prefix + "_rank0.json")
      << R"({"traceEvents":[{"name":"op","ph":"X","ts":1e300,"dur":1}]})";
  Result<api::Session> session =
      api::Session::create(api::Scenario::from_trace(prefix, 1));
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  const Status status = session->trace().status();
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("int64"), std::string::npos)
      << status.to_string();
}

TEST(ParallelIngestErrors, CorruptFileFailsLikeSerial) {
  // A corrupt rank file must surface the same exception type from the
  // parallel path as from the serial one (Session maps it to kParseError).
  const std::string prefix = fixture_dir("corrupt") + "/trace";
  trace::ClusterTrace good;
  for (std::int32_t r = 0; r < 4; ++r) {
    good.add_rank(r).events.push_back(
        make_event("op", trace::EventCategory::CpuOp, r, 10, 1));
  }
  ASSERT_EQ(trace::write_cluster_trace_files(good, prefix).size(), 4u);
  std::ofstream(prefix + "_rank2.json") << "this is not json {";
  EXPECT_THROW(trace::read_cluster_trace(prefix, 4, workers(1)),
               json::ParseError);
  EXPECT_THROW(trace::read_cluster_trace(prefix, 4, workers(4)),
               json::ParseError);
}

}  // namespace
