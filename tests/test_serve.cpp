// The serving layer: NDJSON protocol round-trips, the content-addressed
// baseline cache (hit/miss/eviction counters), single-flight coalescing,
// per-request failure isolation, and the Unix-domain-socket server.
// The concurrency tests here run under the thread-sanitizer CI job.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "json/json.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_util.h"
#include "trace/chrome_trace.h"

namespace lumos::serve {
namespace {

using api::Scenario;
using api::Session;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Scenario tiny_scenario(std::uint64_t seed = 123) {
  return Scenario::synthetic()
      .with_model(testutil::tiny_model())
      .with_parallelism(testutil::tiny_config())
      .with_seed(seed);
}

/// Saves `scenario`'s baseline as a snapshot and returns its path.
std::string save_snapshot(const std::string& name, const Scenario& scenario) {
  const std::string path = temp_path(name);
  Result<Session> session = Session::create(scenario);
  EXPECT_TRUE(session.is_ok()) << session.status().to_string();
  EXPECT_TRUE(session->save_snapshot(path).is_ok());
  return path;
}

/// Writes a tiny synthetic baseline snapshot and returns its path. Distinct
/// seeds produce distinct images, so distinct cache keys.
std::string make_snapshot(const std::string& name, std::uint64_t seed = 123) {
  return save_snapshot(name, tiny_scenario(seed));
}

/// A trace whose coupled replay deadlocks (two kernels of one rendezvous
/// group stuck behind each other on one stream), snapshotted — the
/// "poisoned" baseline for isolation tests. With `cpu_op_first`, one
/// ordinary CPU op runs ahead of the stuck kernels, so a duration hook is
/// called before the simulation deadlocks.
std::string make_poisoned_snapshot(const std::string& name,
                                   bool cpu_op_first = false) {
  trace::RankTrace rank;
  rank.rank = 0;
  if (cpu_op_first) {
    trace::TraceEvent op;
    op.name = "aten::op";
    op.cat = trace::EventCategory::CpuOp;
    op.ts_ns = 0;
    op.dur_ns = 5;
    op.tid = 1;
    rank.events.push_back(op);
  }
  for (int i = 0; i < 2; ++i) {
    trace::TraceEvent k;
    k.name = "ncclDevKernel_AllReduce";
    k.cat = trace::EventCategory::Kernel;
    k.ts_ns = 10 * i;
    k.dur_ns = 10;
    k.tid = 7;
    k.stream = 7;
    k.collective.op = "allreduce";
    k.collective.group = "dp_0";
    k.collective.bytes = 1024;
    k.collective.group_size = 2;
    k.collective.instance = 0;
    rank.events.push_back(k);
  }
  trace::ClusterTrace cluster;
  cluster.ranks.push_back(rank);
  const std::string prefix = temp_path(name + "_trace");
  EXPECT_EQ(trace::write_cluster_trace_files(cluster, prefix).size(), 1u);

  const std::string path = temp_path(name + ".snap");
  Result<Session> session =
      Session::create(Scenario::from_trace(prefix, 1));
  EXPECT_TRUE(session.is_ok()) << session.status().to_string();
  EXPECT_TRUE(session->save_snapshot(path).is_ok());
  return path;
}

Request predict_request(const std::string& baseline, std::int64_t id = 1) {
  Request r;
  r.method = Method::kPredict;
  r.id = id;
  r.baseline = baseline;
  return r;
}

/// Connects a raw client to `socket_path`; -1 on failure.
int connect_raw(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `cond` for up to ~5s; the tests only wait on conditions another
/// thread is actively driving toward true.
template <typename Cond>
bool eventually(Cond cond) {
  for (int i = 0; i < 5000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, PredictRequestRoundTrips) {
  Request r = predict_request("/tmp/base.snap", 42);
  r.whatif.dp = 8;
  r.whatif.pp = 2;
  r.whatif.num_layers = 12;
  r.whatif.fusion = true;
  r.whatif.cost_model = "h800";

  Request decoded;
  ASSERT_TRUE(decode_request(encode(r), decoded).is_ok());
  EXPECT_EQ(decoded.method, Method::kPredict);
  EXPECT_EQ(decoded.id, 42);
  EXPECT_EQ(decoded.baseline, "/tmp/base.snap");
  EXPECT_EQ(decoded.whatif.dp, 8);
  EXPECT_EQ(decoded.whatif.pp, 2);
  EXPECT_EQ(decoded.whatif.num_layers, 12);
  EXPECT_TRUE(decoded.whatif.fusion);
  EXPECT_EQ(decoded.whatif.cost_model, "h800");
  EXPECT_EQ(decoded.whatif.fingerprint(), r.whatif.fingerprint());

  Request other = r;
  other.whatif.dp = 4;
  EXPECT_NE(other.whatif.fingerprint(), r.whatif.fingerprint());
}

TEST(ServeProtocol, ControlRequestsRoundTrip) {
  for (Method m : {Method::kStats, Method::kPing, Method::kShutdown}) {
    Request r;
    r.method = m;
    r.id = 7;
    Request decoded;
    ASSERT_TRUE(decode_request(encode(r), decoded).is_ok());
    EXPECT_EQ(decoded.method, m);
    EXPECT_EQ(decoded.id, 7);
  }
}

TEST(ServeProtocol, MalformedRequestsAreRejected) {
  Request out;
  EXPECT_EQ(decode_request("{oops", out).code(), ErrorCode::kParseError);
  EXPECT_EQ(decode_request("[1,2]", out).code(), ErrorCode::kParseError);
  EXPECT_EQ(decode_request(R"({"method":"fly","id":3})", out).code(),
            ErrorCode::kParseError);
  EXPECT_EQ(out.id, 3) << "errors still echo the client id";
  EXPECT_EQ(decode_request(R"({"method":"predict","id":4})", out).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ServeProtocol, TooDeepRequestDecodesToAnError) {
  // A million nested arrays on one line: the grammar stops at
  // json::kMaxDepth instead of recursing off the end of the stack.
  Request out;
  const Status status = decode_request(std::string(1'000'000, '['), out);
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_NE(status.message().find("nesting deeper than"), std::string::npos)
      << status.to_string();
}

TEST(ServeProtocol, OutOfRangeIntegerDecodesToAnError) {
  // The id is read as an integer: a number past int64 is a parse error
  // instead of an undefined double-to-integer cast.
  Request out;
  const Status status =
      decode_request(R"({"method":"ping","id":1e300})", out);
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("int64"), std::string::npos)
      << status.to_string();
}

TEST(ServeProtocol, Int32FieldOutOfRangeDecodesToAnError) {
  // The what-if knobs are 32-bit: a value inside int64 but outside int32
  // is a parse error, not a wrapped setup (dp 2^32+2 would read as dp 2).
  Request out;
  const Status status = decode_request(
      R"({"method":"predict","baseline":"b.snap",)"
      R"("whatif":{"dp":4294967298,"tp":-4294967295}})",
      out);
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("int32"), std::string::npos)
      << status.to_string();
  const Status tp = decode_request(
      R"({"method":"predict","baseline":"b.snap","whatif":{"tp":-4294967295}})",
      out);
  EXPECT_EQ(tp.code(), ErrorCode::kParseError) << tp.to_string();
  ASSERT_TRUE(decode_request(
                  R"({"method":"predict","baseline":"b.snap",)"
                  R"("whatif":{"dp":2147483647,"tp":-2147483648}})",
                  out)
                  .is_ok());
  EXPECT_EQ(out.whatif.dp, 2147483647);
  EXPECT_EQ(out.whatif.tp, -2147483647 - 1);
}

TEST(ServeProtocol, ErrorRepliesCarryTheStatusCodeAcrossTheWire) {
  const std::string line =
      error_reply(9, deadlock_error("simulation stuck at t=10"));
  Reply reply;
  ASSERT_TRUE(decode_reply(line, reply).is_ok());
  EXPECT_EQ(reply.id, 9);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code(), ErrorCode::kDeadlock);
  EXPECT_NE(reply.error.message().find("stuck"), std::string::npos);

  Reply pong;
  ASSERT_TRUE(decode_reply(pong_reply(2), pong).is_ok());
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, 2);
}

// ---------------------------------------------------------------------------
// Engine: cache behavior
// ---------------------------------------------------------------------------

TEST(ServeEngine, SecondRequestIsACacheHit) {
  const std::string snap = make_snapshot("serve_hit.snap");
  Engine engine;
  Result<Engine::Outcome> first = engine.predict(predict_request(snap));
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first->baseline_was_cached);
  EXPECT_GT(first->prediction.sim.makespan_ns, 0);

  Result<Engine::Outcome> second = engine.predict(predict_request(snap));
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->baseline_was_cached);
  EXPECT_EQ(first->content_hash, second->content_hash);
  EXPECT_EQ(first->prediction.sim.makespan_ns,
            second->prediction.sim.makespan_ns);

  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.cached_baselines, 1u);
  EXPECT_GT(stats.cached_bytes, 0u);
}

TEST(ServeEngine, CacheIsContentAddressedNotPathAddressed) {
  // The same baseline content under two paths shares one cache entry.
  const std::string a = make_snapshot("serve_addr_a.snap", 7);
  const std::string b = make_snapshot("serve_addr_b.snap", 7);
  ASSERT_NE(a, b);
  Engine engine;
  ASSERT_TRUE(engine.predict(predict_request(a)).is_ok());
  Result<Engine::Outcome> second = engine.predict(predict_request(b));
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->baseline_was_cached);
  EXPECT_EQ(engine.stats().cached_baselines, 1u);
}

TEST(ServeEngine, SnapshotsOfOneTraceWithOtherOptionsGetTheirOwnKeys) {
  // One profiled trace (the synthetic seed fixes it) saved three ways: the
  // default options, inter-stream inference off in the parser (a different
  // graph), and no optimizer step in what-if rebuilds (the same graph,
  // different rebuilt predictions). A key of the trace alone would answer
  // the second and third from the first one's cache entry.
  core::ParserOptions no_interstream;
  no_interstream.infer_interstream = false;
  workload::BuildOptions no_optimizer;
  no_optimizer.include_optimizer = false;
  Scenario parser_variant = tiny_scenario();
  parser_variant.with_parser_options(no_interstream);
  Scenario build_variant = tiny_scenario();
  build_variant.with_build_options(no_optimizer);
  const std::string snaps[] = {
      save_snapshot("serve_opts_default.snap", tiny_scenario()),
      save_snapshot("serve_opts_parser.snap", parser_variant),
      save_snapshot("serve_opts_build.snap", build_variant)};

  Engine engine;
  std::set<std::uint64_t> keys;
  // makespans[w][k]: what-if w (no-op, dp=4) over snapshot k.
  std::vector<std::int64_t> makespans[2];
  for (const std::string& snap : snaps) {
    Result<api::BaselineArtifacts> loaded = api::load_baseline_snapshot(snap);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    for (const std::int32_t dp : {0, 4}) {
      Request request = predict_request(snap);
      request.whatif.dp = dp;  // dp=4 rebuilds, which reads build options
      Result<api::Prediction> want =
          api::predict_on(*loaded, request.whatif.to_scenario());
      ASSERT_TRUE(want.is_ok()) << want.status().to_string();
      Result<Engine::Outcome> got = engine.predict(request);
      ASSERT_TRUE(got.is_ok()) << got.status().to_string();
      EXPECT_EQ(got->baseline_was_cached, dp != 0) << snap;
      EXPECT_EQ(got->prediction.sim.start_ns, want->sim.start_ns) << snap;
      EXPECT_EQ(got->prediction.sim.makespan_ns, want->sim.makespan_ns)
          << snap;
      keys.insert(got->content_hash);
      makespans[dp != 0].push_back(want->sim.makespan_ns);
    }
  }
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(engine.stats().misses, 3u);
  // The options change what is predicted, so aliasing would be visible.
  EXPECT_NE(makespans[0][0], makespans[0][1]) << "parser options";
  EXPECT_NE(makespans[1][0], makespans[1][2]) << "build options";
}

TEST(ServeEngine, LruEvictionUnderBytePressure) {
  const std::string a = make_snapshot("serve_lru_a.snap", 1);
  const std::string b = make_snapshot("serve_lru_b.snap", 2);

  // Capacity = exactly one baseline (both are the same shape, so the same
  // estimate): inserting the second must evict the first.
  Result<api::BaselineArtifacts> probe = api::load_baseline_snapshot(a);
  ASSERT_TRUE(probe.is_ok());
  Engine::Options options;
  options.cache_capacity_bytes = Engine::approx_bytes(*probe);
  Engine engine(options);

  ASSERT_TRUE(engine.predict(predict_request(a)).is_ok());
  EXPECT_EQ(engine.stats().cached_baselines, 1u);

  ASSERT_TRUE(engine.predict(predict_request(b)).is_ok());
  Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_baselines, 1u);
  EXPECT_LE(stats.cached_bytes, options.cache_capacity_bytes);

  // `a` was evicted: using it again is a miss (and evicts `b` in turn).
  Result<Engine::Outcome> again = engine.predict(predict_request(a));
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again->baseline_was_cached);
  stats = engine.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);

  // With only the cache holding `a`, evicting it frees it (its mapping,
  // pools and program) before the evicting predict returns.
  std::weak_ptr<const api::BaselineArtifacts> evicted = *engine.baseline(a);
  ASSERT_FALSE(evicted.expired());
  ASSERT_TRUE(engine.predict(predict_request(b)).is_ok());
  EXPECT_EQ(engine.stats().evictions, 3u);
  EXPECT_TRUE(evicted.expired());

  // clear() frees what it drops the same way.
  std::weak_ptr<const api::BaselineArtifacts> cleared = *engine.baseline(b);
  ASSERT_FALSE(cleared.expired());
  engine.clear();
  EXPECT_TRUE(cleared.expired());
}

TEST(ServeEngine, MissingSnapshotIsAnIsolatedFailure) {
  Engine engine;
  Result<Engine::Outcome> bad =
      engine.predict(predict_request(temp_path("serve_nope.snap")));
  EXPECT_EQ(bad.status().code(), ErrorCode::kIoError);

  const std::string good = make_snapshot("serve_after_bad.snap");
  Result<Engine::Outcome> ok = engine.predict(predict_request(good));
  EXPECT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(engine.stats().requests, 2u);
}

// ---------------------------------------------------------------------------
// Engine: concurrency (exercised under TSan in CI)
// ---------------------------------------------------------------------------

TEST(ServeEngine, ConcurrentRequestsShareOneCachedBaseline) {
  const std::string snap = make_snapshot("serve_conc.snap");
  Engine engine;
  // Warm the cache so every worker hits the same immutable entry.
  ASSERT_TRUE(engine.predict(predict_request(snap)).is_ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<std::int64_t> fused_makespan{-1};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Request r = predict_request(snap, i);
      if (i % 2 == 0) r.whatif.fusion = true;  // two distinct flights
      Result<Engine::Outcome> outcome = engine.predict(r);
      if (!outcome.is_ok()) {
        ++failures;
        return;
      }
      if (i % 2 == 0) {
        // All fusion requests agree with each other (pure function).
        std::int64_t expected = -1;
        fused_makespan.compare_exchange_strong(
            expected, outcome->prediction.sim.makespan_ns);
        if (fused_makespan.load() != outcome->prediction.sim.makespan_ns) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.requests, 1u + kThreads);
  EXPECT_EQ(stats.misses, 1u) << "baseline ingested exactly once";
}

/// Gate the single-flight test's leader holds open inside the simulator:
/// hooks resolved through the registry block on their first task until the
/// test releases them, pinning the leader in flight deterministically.
struct FlightGate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void reset() {
    std::lock_guard<std::mutex> lock(m);
    open = false;
    entered = 0;
  }
  void enter_and_wait() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
};

FlightGate& flight_gate() {
  static FlightGate gate;
  return gate;
}

class GatedHooks : public core::SimulatorHooks {
 public:
  std::int64_t task_duration_ns(const core::Task& task) override {
    if (!entered_) {
      entered_ = true;
      flight_gate().enter_and_wait();
    }
    return task.event.dur_ns;
  }

 private:
  bool entered_ = false;
};

/// Sends three identical gated requests for `snapshot` at once: the
/// leader parks on the flight gate inside the simulator, the other two
/// join its flight (the coalesced counter moves under the flight lock, so
/// the wait is exact), then the gate opens. Outcomes are in arrival order.
std::vector<Result<Engine::Outcome>> gated_flight(Engine& engine,
                                                  const std::string& snapshot) {
  EXPECT_TRUE(Session::register_hooks("serve_test_gate", [] {
                return std::make_unique<GatedHooks>();
              }).is_ok());
  flight_gate().reset();
  Request request = predict_request(snapshot);
  request.whatif.hooks = "serve_test_gate";

  std::vector<Result<Engine::Outcome>> outcomes;
  outcomes.reserve(3);
  for (int i = 0; i < 3; ++i) {
    outcomes.emplace_back(internal_error("not run"));
  }
  std::thread leader([&] { outcomes[0] = engine.predict(request); });
  EXPECT_TRUE(eventually([&] { return flight_gate().entered.load() == 1; }));
  std::thread f1([&] { outcomes[1] = engine.predict(request); });
  std::thread f2([&] { outcomes[2] = engine.predict(request); });
  EXPECT_TRUE(eventually([&] { return engine.stats().coalesced == 2; }));

  flight_gate().release();
  leader.join();
  f1.join();
  f2.join();
  return outcomes;
}

TEST(ServeEngine, IdenticalInFlightRequestsCoalesce) {
  const std::string snap = make_snapshot("serve_flight.snap");
  Engine engine;
  const std::vector<Result<Engine::Outcome>> outcomes =
      gated_flight(engine, snap);

  // Every follower holds the leader's whole prediction: schedule and
  // breakdown, not only the makespan.
  const api::Prediction& led = outcomes[0]->prediction;
  for (const Result<Engine::Outcome>& outcome : outcomes) {
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    const api::Prediction& p = outcome->prediction;
    EXPECT_EQ(p.sim.makespan_ns, led.sim.makespan_ns);
    EXPECT_EQ(p.sim.start_ns, led.sim.start_ns);
    EXPECT_EQ(p.sim.end_ns, led.sim.end_ns);
    EXPECT_EQ(p.breakdown.exposed_compute_ns, led.breakdown.exposed_compute_ns);
    EXPECT_EQ(p.breakdown.overlapped_ns, led.breakdown.overlapped_ns);
    EXPECT_EQ(p.breakdown.exposed_comm_ns, led.breakdown.exposed_comm_ns);
    EXPECT_EQ(p.breakdown.other_ns, led.breakdown.other_ns);
  }
  EXPECT_FALSE(led.sim.start_ns.empty());
  EXPECT_FALSE(outcomes[0]->coalesced);
  EXPECT_TRUE(outcomes[1]->coalesced);
  EXPECT_TRUE(outcomes[2]->coalesced);
  // The gate ran once: the followers joined the leader's simulation instead
  // of spawning their own.
  EXPECT_EQ(flight_gate().entered.load(), 1);

  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeEngine, FailedLeaderHandsItsStatusToEveryFollower) {
  // The gate parks the leader on the CPU op, before the deadlock.
  const std::string poisoned =
      make_poisoned_snapshot("serve_gated_poison", /*cpu_op_first=*/true);
  Engine engine;
  const std::vector<Result<Engine::Outcome>> outcomes =
      gated_flight(engine, poisoned);

  for (const Result<Engine::Outcome>& outcome : outcomes) {
    EXPECT_EQ(outcome.status().code(), ErrorCode::kDeadlock)
        << outcome.status().to_string();
  }
  EXPECT_EQ(flight_gate().entered.load(), 1);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.coalesced, 2u);
}

TEST(ServeEngine, PoisonedRequestDoesNotWedgeTheEngine) {
  const std::string poisoned = make_poisoned_snapshot("serve_poison");
  const std::string good = make_snapshot("serve_poison_good.snap");
  Engine engine;

  // Concurrently: one deadlocked baseline, several good requests.
  std::vector<std::thread> threads;
  std::atomic<int> good_ok{0};
  Result<Engine::Outcome> bad = internal_error("not run");
  threads.emplace_back(
      [&] { bad = engine.predict(predict_request(poisoned)); });
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      if (engine.predict(predict_request(good)).is_ok()) ++good_ok;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad.status().code(), ErrorCode::kDeadlock)
      << bad.status().to_string();
  EXPECT_EQ(good_ok.load(), 3);

  // The engine is not poisoned: the same good baseline still predicts, and
  // a retry of the poisoned one fails the same structured way.
  EXPECT_TRUE(engine.predict(predict_request(good)).is_ok());
  EXPECT_EQ(engine.predict(predict_request(poisoned)).status().code(),
            ErrorCode::kDeadlock);
}

// ---------------------------------------------------------------------------
// Server: the socket front end
// ---------------------------------------------------------------------------

TEST(ServeServer, AnswersOverTheSocketAndCachesAcrossConnections) {
  const std::string snap = make_snapshot("serve_sock.snap");
  ServerOptions options;
  options.socket_path = temp_path("lumos_serve_test.sock");
  options.workers = 2;
  Result<std::unique_ptr<Server>> server = Server::start(options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  // ping
  Result<std::string> line =
      request_over_socket(options.socket_path, encode(Request{
                              Method::kPing, 1, "", {}}));
  ASSERT_TRUE(line.is_ok()) << line.status().to_string();
  Reply reply;
  ASSERT_TRUE(decode_reply(*line, reply).is_ok());
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.id, 1);

  // Two predicts on separate connections: the second is a cache hit. Each
  // reply carries the breakdown the engine computes for the same snapshot.
  Engine reference;
  const Result<Engine::Outcome> expected =
      reference.predict(predict_request(snap));
  ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
  const analysis::Breakdown& want = expected->prediction.breakdown;
  EXPECT_GT(want.exposed_compute_ns, 0);
  for (int i = 0; i < 2; ++i) {
    line = request_over_socket(options.socket_path,
                               encode(predict_request(snap, 10 + i)));
    ASSERT_TRUE(line.is_ok()) << line.status().to_string();
    ASSERT_TRUE(decode_reply(*line, reply).is_ok());
    ASSERT_TRUE(reply.ok) << reply.error.to_string();
    EXPECT_EQ(reply.id, 10 + i);
    EXPECT_GT(reply.body.get_int("makespan_ns", 0), 0);
    const json::Value* breakdown = reply.body.as_object().find("breakdown");
    ASSERT_NE(breakdown, nullptr);
    EXPECT_EQ(breakdown->get_int("exposed_compute_ns", -1),
              want.exposed_compute_ns);
    EXPECT_EQ(breakdown->get_int("overlapped_ns", -1), want.overlapped_ns);
    EXPECT_EQ(breakdown->get_int("exposed_comm_ns", -1),
              want.exposed_comm_ns);
    EXPECT_EQ(breakdown->get_int("other_ns", -1), want.other_ns);
  }
  const Engine::Stats stats = (*server)->engine().stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A malformed line gets a structured reply, not a dropped connection.
  line = request_over_socket(options.socket_path, "{oops");
  ASSERT_TRUE(line.is_ok());
  ASSERT_TRUE(decode_reply(*line, reply).is_ok());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code(), ErrorCode::kParseError);

  // stats over the wire
  line = request_over_socket(options.socket_path,
                             encode(Request{Method::kStats, 5, "", {}}));
  ASSERT_TRUE(line.is_ok());
  ASSERT_TRUE(decode_reply(*line, reply).is_ok());
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.body.get_int("requests", -1), 2);
  EXPECT_EQ(reply.body.get_int("hits", -1), 1);

  // shutdown request stops the server; wait() returns.
  line = request_over_socket(options.socket_path,
                             encode(Request{Method::kShutdown, 6, "", {}}));
  ASSERT_TRUE(line.is_ok());
  ASSERT_TRUE(decode_reply(*line, reply).is_ok());
  EXPECT_TRUE(reply.ok);
  (*server)->wait();
  (*server)->shutdown();

  // The socket file is gone and new connections fail cleanly.
  EXPECT_EQ(request_over_socket(options.socket_path, "{}").status().code(),
            ErrorCode::kIoError);
}

TEST(ServeServer, ConcurrentSocketClientsAllGetAnswers) {
  const std::string snap = make_snapshot("serve_sock_conc.snap");
  ServerOptions options;
  options.socket_path = temp_path("lumos_serve_conc.sock");
  options.workers = 4;
  Result<std::unique_ptr<Server>> server = Server::start(options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Result<std::string> line = request_over_socket(
          options.socket_path, encode(predict_request(snap, i)));
      if (!line.is_ok()) return;
      Reply reply;
      if (decode_reply(*line, reply).is_ok() && reply.ok &&
          reply.body.get_int("id", -1) == i) {
        ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ((*server)->engine().stats().misses, 1u)
      << "one ingest across all connections";
  (*server)->shutdown();
}

TEST(ServeServer, SlowLorisClientGetsDeadlineExceededAndIsCounted) {
  const std::string snap = make_snapshot("serve_timeout.snap");
  ServerOptions options;
  options.socket_path = temp_path("lumos_serve_timeout.sock");
  options.workers = 2;
  options.request_timeout_ms = 100;
  Result<std::unique_ptr<Server>> server = Server::start(options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  // A raw client that drips half a request and then stalls — without the
  // deadline this connection would pin its worker in recv() forever.
  const int fd = connect_raw(options.socket_path);
  ASSERT_GE(fd, 0);
  const char partial[] = "{\"method\":\"ping\",";  // no terminating newline
  ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));

  // The server must come back with a structured kDeadlineExceeded reply on
  // its own initiative once the 100ms read deadline expires.
  std::string line;
  char chunk[512];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    line.append(chunk, static_cast<std::size_t>(n));
    if (line.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  ASSERT_FALSE(line.empty()) << "no deadline reply before EOF";
  Reply reply;
  ASSERT_TRUE(decode_reply(line.substr(0, line.find('\n')), reply).is_ok());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ((*server)->timeouts(), 1u);

  // The worker is free again: a well-behaved request on a new connection
  // still succeeds, and the stats reply reports the timeout count.
  Result<std::string> ok_line = request_over_socket(
      options.socket_path, encode(predict_request(snap, 42)));
  ASSERT_TRUE(ok_line.is_ok()) << ok_line.status().to_string();
  ASSERT_TRUE(decode_reply(*ok_line, reply).is_ok());
  EXPECT_TRUE(reply.ok) << reply.error.to_string();

  ok_line = request_over_socket(options.socket_path,
                                encode(Request{Method::kStats, 7, "", {}}));
  ASSERT_TRUE(ok_line.is_ok());
  ASSERT_TRUE(decode_reply(*ok_line, reply).is_ok());
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.body.get_int("timeouts", -1), 1);
  (*server)->shutdown();
}

TEST(ServeServer, OverlongLineGetsAnErrorAndTheConnectionCloses) {
  ServerOptions options;
  options.socket_path = temp_path("lumos_serve_overlong.sock");
  options.workers = 1;
  Result<std::unique_ptr<Server>> server = Server::start(options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  // One byte past the cap and no newline. The server reads every byte
  // before the buffer passes the cap, so it closes a drained connection.
  const int fd = connect_raw(options.socket_path);
  ASSERT_GE(fd, 0);
  timeval deadline{};
  deadline.tv_sec = 10;  // a server without the cap fails, not hangs
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline,
                         sizeof(deadline)),
            0);
  const std::string line(kMaxRequestLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  char chunk[512];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(n, 0) << "the server closes the connection";
  ASSERT_EQ(received.find('\n'), received.size() - 1) << received;
  Reply reply;
  ASSERT_TRUE(decode_reply(received.substr(0, received.size() - 1), reply)
                  .is_ok());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(reply.error.message().find("request line longer than"),
            std::string::npos)
      << reply.error.to_string();

  // The worker is free for the next connection.
  Result<std::string> pong = request_over_socket(
      options.socket_path, encode(Request{Method::kPing, 3, "", {}}));
  ASSERT_TRUE(pong.is_ok()) << pong.status().to_string();
  ASSERT_TRUE(decode_reply(*pong, reply).is_ok());
  EXPECT_TRUE(reply.ok);
  (*server)->shutdown();
}

TEST(ServeServer, StartFailsCleanlyOnAnUnbindablePath) {
  ServerOptions options;
  options.socket_path = temp_path("no_such_dir/lumos.sock");
  EXPECT_EQ(Server::start(options).status().code(), ErrorCode::kIoError);
  options.socket_path.clear();
  EXPECT_EQ(Server::start(options).status().code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace lumos::serve
