// Unit tests for the trace schema, the columnar EventTable, Chrome-trace
// JSON round-trip (DOM and SAX paths), and structural validation
// (lumos::trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/ground_truth.h"
#include "core/trace_parser.h"
#include "io/fnv.h"
#include "test_util.h"
#include "trace/chrome_trace.h"
#include "trace/event.h"
#include "trace/validate.h"
#include "trace_dom_oracle.h"

namespace lumos::trace {
namespace {

TraceEvent make_event(std::string name, EventCategory cat, std::int64_t ts,
                      std::int64_t dur, std::int32_t tid) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.tid = tid;
  if (e.is_gpu()) e.stream = tid;
  return e;
}

TEST(EventCategory, StringRoundTrip) {
  for (EventCategory cat :
       {EventCategory::CpuOp, EventCategory::CudaRuntime,
        EventCategory::Kernel, EventCategory::Memcpy, EventCategory::Memset,
        EventCategory::UserAnnotation}) {
    auto parsed = category_from_string(to_string(cat));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, cat);
  }
  EXPECT_FALSE(category_from_string("bogus").has_value());
}

TEST(CudaApi, NameClassification) {
  EXPECT_EQ(cuda_api_from_name("cudaLaunchKernel"), CudaApi::LaunchKernel);
  EXPECT_EQ(cuda_api_from_name("cudaLaunchKernelExC"), CudaApi::LaunchKernel);
  EXPECT_EQ(cuda_api_from_name("cudaMemcpyAsync"), CudaApi::MemcpyAsync);
  EXPECT_EQ(cuda_api_from_name("cudaMemsetAsync"), CudaApi::MemsetAsync);
  EXPECT_EQ(cuda_api_from_name("cudaEventRecord"), CudaApi::EventRecord);
  EXPECT_EQ(cuda_api_from_name("cudaStreamWaitEvent"),
            CudaApi::StreamWaitEvent);
  EXPECT_EQ(cuda_api_from_name("cudaStreamSynchronize"),
            CudaApi::StreamSynchronize);
  EXPECT_EQ(cuda_api_from_name("cudaDeviceSynchronize"),
            CudaApi::DeviceSynchronize);
  EXPECT_EQ(cuda_api_from_name("cudaEventSynchronize"),
            CudaApi::EventSynchronize);
  EXPECT_EQ(cuda_api_from_name("aten::linear"), CudaApi::None);
}

TEST(CudaApi, LaunchAndBlockPredicates) {
  EXPECT_TRUE(launches_device_work(CudaApi::LaunchKernel));
  EXPECT_TRUE(launches_device_work(CudaApi::MemcpyAsync));
  EXPECT_TRUE(launches_device_work(CudaApi::MemsetAsync));
  EXPECT_FALSE(launches_device_work(CudaApi::EventRecord));
  EXPECT_TRUE(blocks_cpu(CudaApi::StreamSynchronize));
  EXPECT_TRUE(blocks_cpu(CudaApi::DeviceSynchronize));
  EXPECT_TRUE(blocks_cpu(CudaApi::EventSynchronize));
  EXPECT_FALSE(blocks_cpu(CudaApi::StreamWaitEvent));
  EXPECT_FALSE(blocks_cpu(CudaApi::LaunchKernel));
}

TEST(TraceEvent, GpuCpuClassification) {
  EXPECT_TRUE(make_event("k", EventCategory::Kernel, 0, 1, 7).is_gpu());
  EXPECT_TRUE(make_event("m", EventCategory::Memcpy, 0, 1, 7).is_gpu());
  EXPECT_TRUE(make_event("m", EventCategory::Memset, 0, 1, 7).is_gpu());
  EXPECT_TRUE(make_event("op", EventCategory::CpuOp, 0, 1, 1).is_cpu());
  EXPECT_TRUE(make_event("rt", EventCategory::CudaRuntime, 0, 1, 1).is_cpu());
}

TEST(TraceEvent, OverlapSemantics) {
  TraceEvent a = make_event("a", EventCategory::Kernel, 0, 10, 7);
  TraceEvent b = make_event("b", EventCategory::Kernel, 5, 10, 7);
  TraceEvent c = make_event("c", EventCategory::Kernel, 10, 5, 7);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));  // half-open intervals: [0,10) vs [10,15)
  EXPECT_FALSE(c.overlaps(a));
}

TEST(CollectiveInfo, Validity) {
  CollectiveInfo c;
  EXPECT_FALSE(c.valid());
  c.op = "allreduce";
  EXPECT_TRUE(c.valid());
}

TEST(GemmShape, FlopsAndValidity) {
  GemmShape g{128, 256, 512};
  EXPECT_TRUE(g.valid());
  EXPECT_DOUBLE_EQ(g.flops(), 2.0 * 128 * 256 * 512);
  EXPECT_FALSE((GemmShape{0, 1, 1}).valid());
}

TEST(RankTrace, SpanAndSorting) {
  RankTrace r;
  r.events.push_back(make_event("b", EventCategory::CpuOp, 100, 50, 1));
  r.events.push_back(make_event("a", EventCategory::CpuOp, 20, 30, 1));
  EXPECT_EQ(r.begin_ns(), 20);
  EXPECT_EQ(r.end_ns(), 150);
  EXPECT_EQ(r.span_ns(), 130);
  r.sort_by_time();
  EXPECT_EQ(r.events.front().name, "a");
}

TEST(RankTrace, ThreadAndStreamEnumeration) {
  RankTrace r;
  r.events.push_back(make_event("op", EventCategory::CpuOp, 0, 1, 101));
  r.events.push_back(make_event("op", EventCategory::CpuOp, 0, 1, 100));
  r.events.push_back(make_event("k", EventCategory::Kernel, 0, 1, 7));
  r.events.push_back(make_event("k", EventCategory::Kernel, 0, 1, 13));
  EXPECT_EQ(r.cpu_threads(), (std::vector<std::int32_t>{100, 101}));
  EXPECT_EQ(r.gpu_streams(), (std::vector<std::int64_t>{7, 13}));
}

TEST(ClusterTrace, IterationSpansRanks) {
  ClusterTrace t;
  t.ranks.resize(2);
  t.ranks[0].rank = 0;
  t.ranks[0].events.push_back(make_event("a", EventCategory::CpuOp, 10, 10, 1));
  t.ranks[1].rank = 1;
  t.ranks[1].events.push_back(make_event("b", EventCategory::CpuOp, 50, 25, 1));
  EXPECT_EQ(t.iteration_ns(), 65);
  EXPECT_EQ(t.total_events(), 2u);
}

TEST(ChromeTrace, EventRoundTripPreservesAllFields) {
  RankTrace r;
  r.rank = 3;
  TraceEvent e = make_event("ncclDevKernel_AllReduce_Sum_bf16_RING",
                            EventCategory::Kernel, 123456, 789000, 13);
  e.pid = 3;
  e.correlation = 42;
  e.stream = 13;
  e.layer = 5;
  e.microbatch = 2;
  e.phase = "backward";
  e.block = "layer";
  e.collective = {"allreduce", "tp_pp0_dp0", 1 << 20, 2, 7};
  e.gemm = {64, 128, 256};
  e.bytes_moved = 4096;
  r.events.push_back(e);
  RankTrace back = rank_trace_from_json_string(to_json_string(r));
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.rank, 3);
  EXPECT_EQ(back.events[0], e);
}

TEST(ChromeTrace, CudaEventFieldSurvives) {
  RankTrace r;
  TraceEvent e = make_event("cudaEventRecord", EventCategory::CudaRuntime,
                            10'000, 1'500, 100);
  e.stream = 7;
  e.cuda_event = 99;
  r.events.push_back(e);
  RankTrace back = rank_trace_from_json_string(to_json_string(r));
  EXPECT_EQ(back.events[0].cuda_event, 99);
  EXPECT_EQ(back.events[0].stream, 7);
}

TEST(ChromeTrace, SkipsUnknownCategoriesAndNonCompleteEvents) {
  const std::string doc = R"({
    "traceEvents": [
      {"ph":"X","cat":"cpu_op","name":"aten::linear","pid":0,"tid":1,
       "ts":1.0,"dur":2.0},
      {"ph":"X","cat":"python_function","name":"skip_me","pid":0,"tid":1,
       "ts":1.0,"dur":2.0},
      {"ph":"i","cat":"cpu_op","name":"instant","pid":0,"tid":1,"ts":3.0},
      {"ph":"M","name":"process_name","pid":0}
    ]})";
  RankTrace back = rank_trace_from_json_string(doc);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].name, "aten::linear");
}

TEST(ChromeTrace, MicrosecondToNanosecondConversion) {
  const std::string doc = R"({
    "traceEvents": [
      {"ph":"X","cat":"kernel","name":"k","pid":0,"tid":7,
       "ts":1.5,"dur":2.25,"args":{"correlation":1,"stream":7}}
    ]})";
  RankTrace back = rank_trace_from_json_string(doc);
  EXPECT_EQ(back.events[0].ts_ns, 1500);
  EXPECT_EQ(back.events[0].dur_ns, 2250);
}

TEST(ChromeTrace, FileRoundTrip) {
  ClusterTrace t;
  t.ranks.resize(2);
  for (std::int32_t r = 0; r < 2; ++r) {
    t.ranks[r].rank = r;
    TraceEvent e = make_event("op", EventCategory::CpuOp, 100 * r, 10, 1);
    e.pid = r;
    t.ranks[r].events.push_back(e);
  }
  const std::string prefix = ::testing::TempDir() + "/lumos_trace_test";
  EXPECT_EQ(write_cluster_trace_files(t, prefix).size(), 2u);
  ClusterTrace back = read_cluster_trace(prefix, 2);
  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_EQ(back.ranks[1].events[0].ts_ns, 100);
}

TEST(ChromeTrace, FileRoundTripWithNonContiguousGlobalRanks) {
  // Megatron global ranks of one DP replica are not contiguous (e.g. the
  // second stage of a tp=2/dp=2 job starts at rank 4).
  ClusterTrace t;
  for (std::int32_t r : {0, 1, 4, 5}) {
    RankTrace rank;
    rank.rank = r;
    TraceEvent e = make_event("op", EventCategory::CpuOp, r, 10, 1);
    e.pid = r;
    rank.events.push_back(e);
    t.ranks.push_back(std::move(rank));
  }
  const std::string prefix = ::testing::TempDir() + "/lumos_trace_sparse";
  EXPECT_EQ(write_cluster_trace_files(t, prefix).size(), 4u);
  ClusterTrace back = read_cluster_trace(prefix);  // count discovered
  ASSERT_EQ(back.ranks.size(), 4u);
  EXPECT_EQ(back.ranks[2].rank, 4);  // sorted by rank id
  EXPECT_THROW(read_cluster_trace(prefix, 3), std::runtime_error);
  EXPECT_THROW(read_cluster_trace(prefix + "_missing"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

RankTrace minimal_valid_trace() {
  RankTrace r;
  TraceEvent launch = make_event("cudaLaunchKernel",
                                 EventCategory::CudaRuntime, 0, 5, 100);
  launch.correlation = 1;
  launch.stream = 7;
  TraceEvent kernel = make_event("gemm", EventCategory::Kernel, 10, 20, 7);
  kernel.correlation = 1;
  r.events.push_back(launch);
  r.events.push_back(kernel);
  return r;
}

TEST(Validate, AcceptsMinimalTrace) {
  EXPECT_TRUE(validate(minimal_valid_trace()).empty());
}

TEST(Validate, FlagsNegativeDuration) {
  RankTrace r = minimal_valid_trace();
  r.events.set_dur_ns(0, -1);
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, FlagsKernelWithoutStream) {
  RankTrace r = minimal_valid_trace();
  r.events.set_stream(1, -1);
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, FlagsOrphanDeviceCorrelation) {
  RankTrace r = minimal_valid_trace();
  r.events.set_correlation(1, 999);  // no matching launch
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, FlagsDuplicateLaunchCorrelation) {
  RankTrace r = minimal_valid_trace();
  TraceEvent dup = r.events[0];
  dup.ts_ns = 6;
  r.events.push_back(dup);
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, FlagsOverlappingKernelsOnOneStream) {
  RankTrace r = minimal_valid_trace();
  TraceEvent k2 = r.events[1];
  k2.ts_ns = 15;  // overlaps [10,30)
  k2.correlation = 2;
  TraceEvent l2 = r.events[0];
  l2.ts_ns = 6;
  l2.correlation = 2;
  r.events.push_back(l2);
  r.events.push_back(k2);
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, FlagsWaitOnUnrecordedEvent) {
  RankTrace r = minimal_valid_trace();
  TraceEvent wait = make_event("cudaStreamWaitEvent",
                               EventCategory::CudaRuntime, 6, 1, 100);
  wait.stream = 13;
  wait.cuda_event = 5;  // never recorded
  r.events.push_back(wait);
  EXPECT_FALSE(validate(r).empty());
}

TEST(Validate, AcceptsRecordThenWait) {
  RankTrace r = minimal_valid_trace();
  TraceEvent rec = make_event("cudaEventRecord", EventCategory::CudaRuntime,
                              5, 1, 100);
  rec.stream = 7;
  rec.cuda_event = 5;
  TraceEvent wait = make_event("cudaStreamWaitEvent",
                               EventCategory::CudaRuntime, 6, 1, 100);
  wait.stream = 13;
  wait.cuda_event = 5;
  r.events.push_back(rec);
  r.events.push_back(wait);
  EXPECT_TRUE(validate(r).empty());
}

TEST(Validate, ClusterPrefixesRank) {
  ClusterTrace t;
  t.ranks.push_back(minimal_valid_trace());
  t.ranks[0].rank = 9;
  t.ranks[0].events.set_dur_ns(0, -5);
  auto v = validate(t);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].message.find("rank 9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventTable (columnar trace layer)
// ---------------------------------------------------------------------------

TraceEvent full_event() {
  TraceEvent e = make_event("ncclDevKernel_AllReduce_Sum_bf16_RING",
                            EventCategory::Kernel, 1000, 500, 13);
  e.pid = 2;
  e.correlation = 17;
  e.stream = 13;
  e.cuda_event = 3;
  e.layer = 4;
  e.microbatch = 1;
  e.phase = "backward";
  e.block = "layer";
  e.collective = {"allreduce", "tp_0", 1 << 20, 4, 9};
  e.gemm = {32, 64, 128};
  e.bytes_moved = 2048;
  return e;
}

TEST(EventTable, MaterializedViewEqualsIngestedEvent) {
  EventTable t;
  const TraceEvent e = full_event();
  t.push_back(e);
  t.push_back(make_event("plain", EventCategory::CpuOp, 0, 10, 1));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.materialize(0), e);
  EXPECT_EQ(t[0], e);
  // Column accessors agree with the view.
  EXPECT_EQ(t.name(0), e.name);
  EXPECT_EQ(t.ts_ns(0), e.ts_ns);
  EXPECT_EQ(t.end_ns(0), e.end_ns());
  EXPECT_EQ(t.collective_op_view(0), "allreduce");
  EXPECT_EQ(t.collective_group_view(0), "tp_0");
  EXPECT_EQ(t.collective_instance(0), 9);
  EXPECT_EQ(t.gemm(0), (GemmShape{32, 64, 128}));
  EXPECT_TRUE(t.is_gpu(0));
  EXPECT_FALSE(t.has_collective(1));
  EXPECT_FALSE(t.has_gemm(1));
}

TEST(EventTable, PoolsDeduplicateRepeatedStrings) {
  EventTable t;
  for (int i = 0; i < 100; ++i) {
    TraceEvent e = make_event("cudaLaunchKernel", EventCategory::CudaRuntime,
                              i, 1, 1);
    e.phase = "forward";
    t.push_back(e);
  }
  EXPECT_EQ(t.size(), 100u);
  // One name + one phase annotation, stored once each.
  EXPECT_EQ(t.names().size(), 2u);
  EXPECT_EQ(t.name_id(0), t.name_id(99));
  // The CudaApi column was classified once at ingest.
  EXPECT_EQ(t.cuda_api(0), CudaApi::LaunchKernel);
}

TEST(EventTable, SortPermutesSideTablesConsistently) {
  EventTable t;
  TraceEvent late = full_event();
  late.ts_ns = 100;
  TraceEvent early = make_event("first", EventCategory::CpuOp, 5, 1, 1);
  t.push_back(late);
  t.push_back(early);
  t.sort_by_time();
  EXPECT_EQ(t.name(0), "first");
  EXPECT_FALSE(t.has_collective(0));
  EXPECT_EQ(t.collective_group_view(1), "tp_0");
  EXPECT_EQ(t.gemm(1), (GemmShape{32, 64, 128}));
}

/// Every row of `t`, materialized.
std::vector<TraceEvent> events_of(const EventTable& t) {
  return {t.begin(), t.end()};
}

/// The pooled-string ids of every row, in push_back()'s interning order.
std::vector<std::uint32_t> pooled_ids(const EventTable& t) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    out.insert(out.end(), {t.name_id(i).index, t.phase_id(i).index,
                           t.block_id(i).index, t.collective_op(i).index,
                           t.collective_group(i).index});
  }
  return out;
}

EventTable gather_source() {
  EventTable t;
  t.push_back(make_event("zeta", EventCategory::CpuOp, 30, 5, 1));
  t.push_back(full_event());
  TraceEvent other = full_event();
  other.name = "alpha";
  other.collective = {"allgather", "dp_1", 4096, 2, 3};
  other.gemm = {};
  t.push_back(other);
  t.push_back(make_event("cudaStreamSynchronize", EventCategory::CudaRuntime,
                         10, 7, 2));
  return t;
}

TEST(EventTable, AppendRowsWithSharedPoolsCopiesIds) {
  const EventTable src = gather_source();
  EventTable dst(src.pools());
  const std::vector<std::uint32_t> order = {2, 0, 3, 1};
  dst.append_rows(src, order);
  ASSERT_EQ(dst.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(dst[k], src[order[k]]) << k;
    EXPECT_EQ(dst.name_id(k), src.name_id(order[k]));
    EXPECT_EQ(dst.cuda_api(k), src.cuda_api(order[k]));
  }
  EXPECT_EQ(dst.cuda_api(2), CudaApi::StreamSynchronize);
  // The collective and GEMM side tables follow their rows.
  EXPECT_EQ(dst.collective_op_view(0), "allgather");
  EXPECT_EQ(dst.collective_instance(0), 3);
  EXPECT_FALSE(dst.has_gemm(0));
  EXPECT_FALSE(dst.has_collective(1));
  EXPECT_EQ(dst.collective_group_view(3), "tp_0");
  EXPECT_EQ(dst.gemm(3), (GemmShape{32, 64, 128}));
}

TEST(EventTable, AppendRowsAcrossPoolsInternsInFirstAppearanceOrder) {
  // Into fresh pools, the ids are those a push_back of each materialized
  // row in gather order assigns.
  const EventTable src = gather_source();
  const std::vector<std::uint32_t> order = {3, 2, 0, 1};
  EventTable gathered;
  gathered.append_rows(src, order);
  EventTable pushed;
  for (const std::uint32_t i : order) pushed.push_back(src[i]);
  EXPECT_EQ(events_of(gathered), events_of(pushed));
  EXPECT_EQ(pooled_ids(gathered), pooled_ids(pushed));
  EXPECT_EQ(gathered.names().size(), pushed.names().size());
  // A remap that interned another order first fixes the ids to that order.
  EventTable fixed;
  RowRemap remap(*src.pools(), *fixed.pools());
  const std::vector<std::uint32_t> ascending = {0, 1, 2, 3};
  remap.intern_rows(src, ascending);
  fixed.append_rows(src, order, &remap);
  EventTable reference;
  for (const std::uint32_t i : ascending) reference.push_back(src[i]);
  EXPECT_EQ(events_of(fixed), events_of(pushed));
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(fixed.name_id(k), reference.name_id(order[k])) << k;
    EXPECT_EQ(fixed.phase_id(k), reference.phase_id(order[k])) << k;
    EXPECT_EQ(fixed.collective_group(k), reference.collective_group(order[k]));
  }
}

TEST(EventTable, AppendRowsWithEmptyOrderAppendsNothing) {
  const EventTable src = gather_source();
  EventTable dst;
  dst.push_back(make_event("kept", EventCategory::CpuOp, 1, 1, 1));
  dst.append_rows(src, {});
  ASSERT_EQ(dst.size(), 1u);
  EXPECT_EQ(dst.name(0), "kept");
  EXPECT_EQ(dst.names().size(), 1u);
  dst.append_rows(src, std::vector<std::uint32_t>{1});
  EXPECT_EQ(dst[1], src[1]);
}

TEST(EventTable, SortByTimeEqualsAReferenceStableSort) {
  const auto reference = [](std::vector<TraceEvent> events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                       return a.tid < b.tid;
                     });
    return events;
  };
  std::vector<TraceEvent> sorted;
  for (std::int64_t ts = 0; ts < 6; ++ts) {
    sorted.push_back(make_event("op" + std::to_string(ts),
                                EventCategory::CpuOp, ts * 10, 3, 1));
  }
  std::vector<TraceEvent> reversed(sorted.rbegin(), sorted.rend());
  // Equal ts: tid breaks the tie, and equal (ts, tid) keeps input order.
  std::vector<TraceEvent> ties = {
      make_event("t3", EventCategory::CpuOp, 5, 1, 3),
      make_event("t1a", EventCategory::CpuOp, 5, 1, 1),
      make_event("early", EventCategory::CpuOp, 2, 1, 9),
      make_event("t1b", EventCategory::CpuOp, 5, 2, 1),
      full_event(),
      make_event("t2", EventCategory::Kernel, 5, 1, 2)};
  for (const std::vector<TraceEvent>& input : {sorted, reversed, ties}) {
    EventTable t;
    for (const TraceEvent& e : input) t.push_back(e);
    t.sort_by_time();
    EXPECT_EQ(events_of(t), reference(input));
  }
}

TEST(EventTable, IteratorMaterializesEvents) {
  RankTrace r;
  r.events.push_back(make_event("a", EventCategory::CpuOp, 0, 1, 1));
  r.events.push_back(make_event("b", EventCategory::CpuOp, 1, 1, 1));
  std::vector<std::string> names;
  for (const TraceEvent& e : r.events) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(EventTable, SaxAndDomPathsProduceIdenticalJson) {
  RankTrace r;
  r.rank = 7;
  r.events.push_back(full_event());
  TraceEvent cpu = make_event("aten::linear", EventCategory::CpuOp, 10, 5, 1);
  cpu.phase = "forward";
  r.events.push_back(cpu);
  r.sort_by_time();  // parsing sorts, so serialize from canonical order
  const std::string json = to_json_string(r);

  // SAX (string) path: golden bit-identity through a full round-trip.
  RankTrace via_sax = rank_trace_from_json_string(json);
  EXPECT_EQ(to_json_string(via_sax), json);

  // DOM (Value) path produces the same document and the same events.
  RankTrace via_dom = testutil::rank_trace_from_json(json::parse(json));
  EXPECT_EQ(to_json_string(via_dom), json);
  ASSERT_EQ(via_sax.events.size(), via_dom.events.size());
  for (std::size_t i = 0; i < via_sax.events.size(); ++i) {
    EXPECT_EQ(via_sax.events[i], via_dom.events[i]);
  }
}

TEST(EventTable, SaxPathHandlesEscapedStringsAndUnknownKeys) {
  const std::string doc = R"({
    "irrelevant": {"nested": [1, {"deep": true}]},
    "traceEvents": [
      {"ph":"X","cat":"cpu_op","name":"quote\"and\\slashA","pid":0,
       "tid":1,"ts":1.0,"dur":2.0,"args":{"unknown_key":[{"x":1}]}}
    ],
    "distributedInfo": {"rank": 5}})";
  RankTrace back = rank_trace_from_json_string(doc);
  EXPECT_EQ(back.rank, 5);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].name, "quote\"and\\slashA");
}

TEST(EventTable, ClusterRanksShareOnePool) {
  // One pool per trace: file reads and simulator materialization intern the
  // names of every rank into a single TracePools.
  ClusterTrace t;
  for (std::int32_t r : {0, 1}) {
    RankTrace& rank = t.add_rank(r);
    TraceEvent e = make_event("shared_op", EventCategory::CpuOp, r, 10, 1);
    e.pid = r;
    rank.events.push_back(e);
  }
  ASSERT_EQ(t.ranks.size(), 2u);
  EXPECT_EQ(t.ranks[0].events.pools(), t.ranks[1].events.pools());
  EXPECT_EQ(t.ranks[0].events.name_id(0), t.ranks[1].events.name_id(0));
  EXPECT_EQ(t.ranks[0].events.names().size(), 1u);

  const std::string prefix = ::testing::TempDir() + "/lumos_shared_pool";
  EXPECT_EQ(write_cluster_trace_files(t, prefix).size(), 2u);
  ClusterTrace back = read_cluster_trace(prefix, 2);
  EXPECT_EQ(back.ranks[0].events.pools(), back.ranks[1].events.pools());
}

TEST(EventTable, ParserSharesTracePoolsWithGraph) {
  // TraceParser::parse seeds ExecutionGraph::finalize() with the trace's
  // pools: strings are interned exactly once per trace, and the graph's
  // TaskMetaTable resolves task names to the very ids the JSON reader
  // assigned.
  RankTrace r = minimal_valid_trace();
  RankTrace parsed = rank_trace_from_json_string(to_json_string(r));
  core::ExecutionGraph graph = core::TraceParser().parse(parsed);
  ASSERT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph.meta().pools(), parsed.events.pools());
  // Task 0 is the launch: its meta name id matches the trace pool's id.
  EXPECT_EQ(graph.meta().name(0).index,
            parsed.events.names().find("cudaLaunchKernel"));
  EXPECT_EQ(graph.meta().name_view(0), "cudaLaunchKernel");
}

TEST(Validate, OverlapCheckFlagsOverlapsAndNestedZeroDurationEvents) {
  // Disjoint lanes produce no violations.
  RankTrace clean = minimal_valid_trace();
  EXPECT_TRUE(validate(clean).empty());

  // Overlapping kernels on one stream are flagged with the offending pair.
  RankTrace r = minimal_valid_trace();
  TraceEvent l2 = r.events[0];
  l2.ts_ns = 6;
  l2.correlation = 2;
  TraceEvent k2 = r.events[1];
  k2.ts_ns = 25;  // overlaps [10,30) on stream 7
  k2.dur_ns = 10;
  k2.correlation = 2;
  r.events.push_back(l2);
  r.events.push_back(k2);
  auto violations = validate(r);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].message.find("stream 7"), std::string::npos);
  EXPECT_NE(violations[0].message.find("starts at 25"), std::string::npos);

  // A zero-duration event inside a kernel adds no busy time, but it still
  // starts before the kernel ends.
  RankTrace z = minimal_valid_trace();
  TraceEvent zk = z.events[1];
  zk.ts_ns = 15;
  zk.dur_ns = 0;
  zk.correlation = 3;
  TraceEvent zl = z.events[0];
  zl.ts_ns = 6;
  zl.correlation = 3;
  z.events.push_back(zl);
  z.events.push_back(zk);
  EXPECT_FALSE(validate(z).empty());
}

TEST(Validate, PinsFullViolationListOnPerturbedMultiRankTrace) {
  // The whole violation list (messages, event indices and order) of a
  // realistic 4-rank trace, clean and perturbed: any rewrite of the overlap
  // check must reproduce it exactly.
  cluster::GroundTruthEngine engine(testutil::tiny_model(),
                                    testutil::tiny_config());
  const ClusterTrace clean = engine.run_profiled(/*seed=*/123).trace;
  ASSERT_EQ(clean.total_events(), 6548u);
  ASSERT_EQ(clean.ranks.size(), 4u);
  EXPECT_TRUE(validate(clean).empty());

  // Shift some kernels into their predecessor, collapse others to zero
  // duration just inside it, and nudge some CPU ops back by 1 ns.
  ClusterTrace perturbed = clean;
  for (RankTrace& rank : perturbed.ranks) {
    EventTable& t = rank.events;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t.is_gpu(i) && i % 37 == 0) {
        t.set_ts_ns(i, t.ts_ns(i) - (t.dur_ns(i) / 2 + 1));
      } else if (t.is_gpu(i) && i % 53 == 0) {
        t.set_ts_ns(i, t.ts_ns(i) - 1);
        t.set_dur_ns(i, 0);
      } else if (t.is_cpu(i) && i % 101 == 0) {
        t.set_ts_ns(i, t.ts_ns(i) - 1);
      }
    }
  }
  const std::vector<Violation> violations = validate(perturbed);
  ASSERT_EQ(violations.size(), 60u);
  std::size_t stream = 0;
  std::size_t thread = 0;
  std::string listing;
  for (const Violation& v : violations) {
    if (v.message.find(": stream ") != std::string::npos) ++stream;
    if (v.message.find(": thread ") != std::string::npos) ++thread;
    listing += v.message + "#" + std::to_string(v.event_index) + "\n";
  }
  EXPECT_EQ(stream, 31u);
  EXPECT_EQ(thread, 29u);
  EXPECT_EQ(io::fnv1a(listing), 7591994068097958094ULL);
}

TEST(TraceStats, CountsAndBusyTime) {
  RankTrace r = minimal_valid_trace();
  TraceEvent comm = make_event("nccl", EventCategory::Kernel, 25, 10, 13);
  comm.correlation = 2;
  comm.collective.op = "allreduce";
  TraceEvent l2 = r.events[0];
  l2.ts_ns = 6;
  l2.correlation = 2;
  l2.stream = 13;
  r.events.push_back(l2);
  r.events.push_back(comm);
  TraceStats s = compute_stats(r);
  EXPECT_EQ(s.num_events, 4u);
  EXPECT_EQ(s.events_per_category[EventCategory::Kernel], 2u);
  EXPECT_EQ(s.total_kernel_ns, 30);
  EXPECT_EQ(s.total_comm_kernel_ns, 10);
  EXPECT_EQ(s.busy_gpu_ns, 25);  // [10,30) + [25,35) -> [10,35)
  EXPECT_EQ(s.num_cpu_threads, 1u);
  EXPECT_EQ(s.num_gpu_streams, 2u);
}

}  // namespace
}  // namespace lumos::trace
