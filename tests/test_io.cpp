// Tests for the zero-copy trace I/O fast path (PR 5): io::MappedFile mmap
// ingest, the streaming trace::JsonWriter vs the DOM reference writer
// (byte-identity in every indent mode), the file-level parse entry points,
// write_cluster_trace_files path reporting, and concurrent emission (the
// thread-sanitizer job runs this binary).
#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "io/column.h"
#include "io/mapped_file.h"
#include "json/json.h"
#include "trace/chrome_trace.h"
#include "trace/json_writer.h"
#include "test_util.h"
#include "trace_dom_oracle.h"

namespace lumos {
namespace {

using trace::ClusterTrace;
using trace::EventCategory;
using trace::RankTrace;
using trace::TraceEvent;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// io::MappedFile
// ---------------------------------------------------------------------------

TEST(MappedFile, MappingSeesTheFileBytes) {
  const std::string path = temp_path("mapped_file_roundtrip.bin");
  std::string payload = "hello";
  payload.push_back('\0');  // embedded NUL must survive the mapping
  payload += "world\n\x01\xff binary bytes";
  write_file(path, payload);

  const io::MappedFile mapped = io::MappedFile::open(path);
  EXPECT_EQ(mapped.view(), std::string_view(payload));
  EXPECT_EQ(mapped.size(), payload.size());
}

TEST(MappedFile, EmptyFileYieldsEmptyView) {
  const std::string path = temp_path("mapped_file_empty.bin");
  write_file(path, "");
  const io::MappedFile file = io::MappedFile::open(path);
  EXPECT_EQ(file.view(), std::string_view{});
  EXPECT_EQ(file.size(), 0u);
}

TEST(MappedFile, MissingFileThrows) {
  EXPECT_THROW(io::MappedFile::open(temp_path("does_not_exist.bin")),
               std::runtime_error);
}

TEST(MappedFile, MoveTransfersTheMapping) {
  const std::string path = temp_path("mapped_file_move.bin");
  write_file(path, "payload");
  io::MappedFile a = io::MappedFile::open(path);
  io::MappedFile b = std::move(a);
  EXPECT_EQ(b.view(), "payload");
  io::MappedFile c;
  c = std::move(b);
  EXPECT_EQ(c.view(), "payload");
}

TEST(Column, MovedFromColumnIsEmptyWhetherItOwnedOrBorrowed) {
  // A moved-from borrow must not keep viewing bytes whose keepalive left
  // with the move.
  auto bytes = std::make_shared<std::vector<std::int32_t>>(
      std::vector<std::int32_t>{1, 2, 3});
  auto borrowed =
      io::Column<std::int32_t>::borrow(bytes->data(), bytes->size(), bytes);
  io::Column<std::int32_t> taken = std::move(borrowed);
  EXPECT_TRUE(borrowed.empty());
  EXPECT_FALSE(borrowed.borrowed());
  EXPECT_TRUE(taken.borrowed());
  EXPECT_EQ(taken.size(), 3u);

  io::Column<std::int32_t> owned(std::vector<std::int32_t>{4, 5});
  taken = std::move(owned);
  EXPECT_TRUE(owned.empty());
  EXPECT_FALSE(taken.borrowed());
  EXPECT_EQ(taken.size(), 2u);
}

// ---------------------------------------------------------------------------
// Streaming writer == DOM writer, byte for byte
// ---------------------------------------------------------------------------

/// A rank trace exercising every serialized field shape: all categories,
/// present/absent args, collective and gemm side-tables, names that need
/// JSON escaping, zero durations, negative and sub-microsecond timestamps.
RankTrace adversarial_rank_trace() {
  RankTrace r;
  r.rank = 7;

  TraceEvent plain;
  plain.name = "aten::linear";
  plain.cat = EventCategory::CpuOp;
  plain.ts_ns = 1'234'567;  // 1234.567µs: the %.17g (non-integral) path
  plain.dur_ns = 1'000;     // 1.0µs: the integer fast path
  plain.tid = 100;
  r.events.push_back(plain);

  TraceEvent escaped;
  escaped.name = "weird \"name\" with \\ and \ttabs\nand ctrl \x01";
  escaped.cat = EventCategory::UserAnnotation;
  escaped.ts_ns = -1'500;  // negative µs
  escaped.dur_ns = 0;      // zero duration
  escaped.tid = 100;
  escaped.phase = "phase/with\"quote";
  escaped.block = "layer";
  r.events.push_back(escaped);

  TraceEvent launch;
  launch.name = "cudaLaunchKernel";
  launch.cat = EventCategory::CudaRuntime;
  launch.ts_ns = 2'000'001;
  launch.dur_ns = 999;
  launch.tid = 100;
  launch.correlation = 42;
  launch.stream = 13;
  r.events.push_back(launch);

  TraceEvent kernel;
  kernel.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
  kernel.cat = EventCategory::Kernel;
  kernel.ts_ns = 2'100'000;
  kernel.dur_ns = 350'250;
  kernel.tid = 13;
  kernel.pid = 7;
  kernel.correlation = 42;
  kernel.stream = 13;
  kernel.layer = 5;
  kernel.microbatch = 2;
  kernel.phase = "backward";
  kernel.collective = {"allreduce", "tp_0", 1 << 20, 8, 3};
  kernel.bytes_moved = 4096;
  r.events.push_back(kernel);

  TraceEvent gemm;
  gemm.name = "sm90_gemm_bf16";
  gemm.cat = EventCategory::Kernel;
  gemm.ts_ns = 3'000'000;
  gemm.dur_ns = 123'456'789;  // 123456.789µs
  gemm.tid = 14;
  gemm.correlation = 43;
  gemm.stream = 14;
  gemm.gemm = {512, 1024, 2048};
  r.events.push_back(gemm);

  TraceEvent memcpy_ev;
  memcpy_ev.name = "Memcpy DtoH";
  memcpy_ev.cat = EventCategory::Memcpy;
  memcpy_ev.ts_ns = 4'000'000;
  memcpy_ev.dur_ns = 1;  // 0.001µs
  memcpy_ev.tid = 13;
  memcpy_ev.correlation = 44;
  memcpy_ev.stream = 13;
  memcpy_ev.cuda_event = 99;
  r.events.push_back(memcpy_ev);

  r.sort_by_time();
  return r;
}

TEST(JsonWriterGolden, StreamEqualsDomInEveryIndentMode) {
  const RankTrace r = adversarial_rank_trace();
  for (const int indent : {-1, 0, 1, 2, 4}) {
    SCOPED_TRACE("indent=" + std::to_string(indent));
    const std::string dom =
        json::write(testutil::trace_to_json(r), {.indent = indent});
    const std::string stream = trace::to_json_string(r, indent);
    EXPECT_EQ(stream, dom);
  }
}

TEST(JsonWriterGolden, EmptyAndMetadataOnlyTraces) {
  RankTrace empty;
  empty.rank = 3;
  for (const int indent : {-1, 2}) {
    EXPECT_EQ(trace::to_json_string(empty, indent),
              json::write(testutil::trace_to_json(empty), {.indent = indent}));
  }
}

TEST(JsonWriterGolden, ReusedWriterMatchesFreshAcrossRanks) {
  // One writer across ranks sharing pools (write_cluster_trace_files):
  // memo reuse must not change bytes; switching to a trace with different
  // pools must reset the memo.
  ClusterTrace cluster;
  for (std::int32_t rank : {0, 1}) {
    RankTrace& rt = cluster.add_rank(rank);
    TraceEvent e;
    e.name = "op_shared_name";
    e.cat = EventCategory::CpuOp;
    e.ts_ns = 10 + rank;
    e.dur_ns = 5;
    e.tid = 1;
    rt.events.push_back(e);
  }
  const RankTrace other = adversarial_rank_trace();  // separate pools

  trace::JsonWriter writer;
  for (const RankTrace& rt : cluster.ranks) {
    EXPECT_EQ(writer.write(rt), trace::to_json_string(rt));
  }
  EXPECT_EQ(writer.write(other), trace::to_json_string(other));
  EXPECT_EQ(writer.write(cluster.ranks[0]),
            trace::to_json_string(cluster.ranks[0]));
}

TEST(JsonWriterGolden, WriterOutlivesEarlierTracesPools) {
  // The escaped-string memo is keyed on the trace's TracePools instance. A
  // writer that outlives a trace must not serve that trace's memo entries
  // to a *new* TracePools that happens to reuse the freed allocation's
  // address (the writer pins the keyed pools via shared_ptr). Same-size
  // pool allocations in a loop make address reuse overwhelmingly likely,
  // so this fails if the memo is keyed on a raw pointer.
  trace::JsonWriter writer;
  for (int i = 0; i < 16; ++i) {
    RankTrace r;
    r.rank = i;
    TraceEvent e;
    e.name = "generation_" + std::to_string(i);
    e.cat = EventCategory::CpuOp;
    e.ts_ns = 10 * i;
    e.dur_ns = 5;
    e.tid = 1;
    r.events.push_back(e);
    ASSERT_EQ(writer.write(r), trace::to_json_string(r)) << "generation " << i;
  }  // r (and its pools) destroyed each iteration while `writer` lives on
}

TEST(JsonWriterGolden, ToCharsGeneral17MatchesPrintfG17) {
  // The writer's non-integral double path relies on to_chars(general, 17)
  // matching the DOM writer's snprintf("%.17g") byte for byte; pin that
  // equivalence over the µs values trace serialization produces.
  std::mt19937_64 rng(123);
  char tc[64];
  char pf[64];
  const auto check = [&](double d) {
    char* end =
        std::to_chars(tc, tc + sizeof(tc), d, std::chars_format::general, 17)
            .ptr;
    std::snprintf(pf, sizeof(pf), "%.17g", d);
    ASSERT_EQ(std::string(tc, end), std::string(pf)) << "d=" << d;
  };
  for (int i = 0; i < 200'000; ++i) {
    const auto ns = static_cast<std::int64_t>(rng() % 20'000'000'000'000ULL) -
                    1'000'000;
    check(static_cast<double>(ns) / 1000.0);
  }
  for (const double d : {0.0, -0.0, 0.001, -0.001, 1e15, 1e15 + 0.5,
                         123456789.0625, 1e-7, 5e20, -5e20, 1.5e-5}) {
    check(d);
  }
}

// ---------------------------------------------------------------------------
// File-level ingest: mapped files parse to the original bytes
// ---------------------------------------------------------------------------

ClusterTrace small_cluster() {
  ClusterTrace t;
  for (std::int32_t rank : {0, 1, 5}) {  // non-contiguous global ranks
    RankTrace& rt = t.add_rank(rank);
    TraceEvent e;
    e.name = "op" + std::to_string(rank);
    e.cat = EventCategory::CpuOp;
    e.ts_ns = 100 * rank;
    e.dur_ns = 10;
    e.tid = 1;
    e.pid = rank;
    rt.events.push_back(e);
    TraceEvent k;
    k.name = "kernel";
    k.cat = EventCategory::Kernel;
    k.ts_ns = 100 * rank + 20;
    k.dur_ns = 7;
    k.tid = 3;
    k.correlation = rank;
    k.stream = 3;
    rt.events.push_back(k);
  }
  return t;
}

TEST(FileIngest, ClusterFilesRoundTripToTheOriginalBytes) {
  const std::string prefix = temp_path("io_identity");
  const ClusterTrace original = small_cluster();
  ASSERT_EQ(trace::write_cluster_trace_files(original, prefix).size(), 3u);

  const ClusterTrace via_mmap = trace::read_cluster_trace(prefix, 3);
  ASSERT_EQ(via_mmap.ranks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(via_mmap.ranks[i].rank, original.ranks[i].rank);
    EXPECT_EQ(trace::to_json_string(via_mmap.ranks[i]),
              trace::to_json_string(original.ranks[i]));
  }
}

TEST(FileIngest, RankFileParsesSameAsString) {
  const RankTrace r = adversarial_rank_trace();
  const std::string json = trace::to_json_string(r);
  const std::string path = temp_path("io_rank_file.json");
  write_file(path, json);

  const RankTrace from_string = trace::rank_trace_from_json_string(json);
  const RankTrace from_mmap = trace::rank_trace_from_json_file(path);
  EXPECT_EQ(trace::to_json_string(from_mmap),
            trace::to_json_string(from_string));
}

TEST(FileIngest, FileLevelErrorsStayDiagnosable) {
  EXPECT_THROW(trace::rank_trace_from_json_file(temp_path("io_missing.json")),
               std::runtime_error);
  const std::string bad = temp_path("io_bad.json");
  write_file(bad, "{\"traceEvents\": [");
  EXPECT_THROW(trace::rank_trace_from_json_file(bad), json::ParseError);
  const std::string no_events = temp_path("io_noevents.json");
  write_file(no_events, "{\"schemaVersion\": 1}");
  EXPECT_THROW(trace::rank_trace_from_json_file(no_events), std::out_of_range);
}

// ---------------------------------------------------------------------------
// write_cluster_trace_files / Session::write_trace_files
// ---------------------------------------------------------------------------

TEST(WriteTraceFiles, ReturnsPathsInRankOrder) {
  const std::string prefix = temp_path("io_paths");
  const std::vector<std::string> paths =
      trace::write_cluster_trace_files(small_cluster(), prefix);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], prefix + "_rank0.json");
  EXPECT_EQ(paths[1], prefix + "_rank1.json");
  EXPECT_EQ(paths[2], prefix + "_rank5.json");
  for (const std::string& p : paths) {
    EXPECT_TRUE(std::filesystem::exists(p)) << p;
  }
}

TEST(WriteTraceFiles, SessionReportsWrittenPaths) {
  Result<api::Session> session = api::Session::create(
      api::Scenario::synthetic()
          .with_model(testutil::tiny_model())
          .with_parallelism(testutil::tiny_config(1, 2, 1)));
  ASSERT_TRUE(session.is_ok());
  const std::string prefix = temp_path("io_session_paths");
  Result<std::vector<std::string>> paths = session->write_trace_files(prefix);
  ASSERT_TRUE(paths.is_ok()) << paths.status().to_string();
  ASSERT_EQ(paths->size(), 2u);
  EXPECT_EQ((*paths)[0], prefix + "_rank0.json");
  EXPECT_EQ((*paths)[1], prefix + "_rank1.json");
  // Rewriting the same prefix reports the same number of files.
  Result<std::vector<std::string>> again = session->write_trace_files(prefix);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->size(), paths->size());
  // Written files parse back through the mmap path.
  const ClusterTrace back = trace::read_cluster_trace(prefix, 2);
  EXPECT_EQ(back.ranks.size(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency (thread-sanitizer job): concurrent emitters over one frozen
// trace — the sweep-workers-calling-chrome_trace_json shape.
// ---------------------------------------------------------------------------

TEST(ConcurrentEmit, ParallelToJsonStringOverSharedFrozenTrace) {
  const RankTrace r = adversarial_rank_trace();  // frozen from here on
  const std::string expected = trace::to_json_string(r);
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each call builds its own JsonWriter; the shared state is the
        // frozen EventTable + TracePools, read-only by contract.
        if (trace::to_json_string(r, round % 2 == 0 ? -1 : 1).empty()) {
          ++mismatches[t];
        }
        if (round % 2 == 0 && trace::to_json_string(r) != expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace lumos
