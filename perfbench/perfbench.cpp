// perfbench: the end-to-end benchmark of Lumos's three user paths.
//
//   perfbench setup --workload W --seed N --dir D
//   perfbench run   --workload W --seed N --dir D --seconds S --trace 0|1
//                   [--spans FILE]
//
// `setup` generates workload W's fixture from seed N into directory D: the
// profiled traces, snapshots and reference answers every later op is
// checked against. It prints {"setup_s": ...} as its last line.
//
// `run` loads that fixture and runs W as a closed loop for S seconds: each
// client waits for its reply before sending the next request. With
// --trace 0 the ops go through the public api::Session / api::Sweep /
// serve::Engine surface, untouched. With --trace 1 the process measures
// the same ops twice: once untraced, and once decomposed into calls to each
// layer's public functions, each wrapped in an in-memory span written out
// to FILE at the end. The last line of stdout is one JSON object of raw
// measurements; run.py turns it into the benchmark's metrics.
//
// All timings are host time (std::chrono::steady_clock). Simulated
// iteration times appear only in the prediction error and the output
// checks. README.md records why each workload exists.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/breakdown.h"
#include "api/api.h"
#include "core/graph_manipulator.h"
#include "core/replay_program.h"
#include "core/trace_parser.h"
#include "faults/fault_plan.h"
#include "serve/engine.h"
#include "trace/chrome_trace.h"
#include "trace/ingest.h"

namespace {

using namespace lumos;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Setup, references and argument errors end the process: without them no
/// op can be checked.
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// Inside a timed op an error is a failed op: it throws, and the loop
/// counts it against the attempts.
template <class T>
T check(Result<T> result, const char* what) {
  if (!result.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().to_string());
  }
  return std::move(result).value();
}

void check(const Status& status, const char* what) {
  if (!status.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.to_string());
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// JSON output (numbers, number arrays, nested objects).
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& array(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += json_number(v[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Spans: the traced run's in-memory recorder. One ThreadLog per thread per
// op; nothing is formatted or written while an op is being timed.
// ---------------------------------------------------------------------------

class ThreadLog {
 public:
  struct Span {
    const char* layer = "";
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::int32_t parent = -1;  ///< enclosing span on this thread
    double items = 0.0;        ///< tasks, events or files handled
    double bytes = 0.0;
  };

  void start(Clock::time_point origin) {
    origin_ = origin;
    begin_ms_ = now();
  }
  void finish() { end_ms_ = now(); }

  std::size_t open(const char* layer) {
    Span span;
    span.layer = layer;
    span.start_ms = now();
    span.parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id, double items = 0.0, double bytes = 0.0) {
    if (stack_.empty() || stack_.back() != id) die("span closed out of order");
    stack_.pop_back();
    Span& span = spans_[id];
    span.end_ms = now();
    span.items = items;
    span.bytes = bytes;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double begin_ms() const { return begin_ms_; }
  double end_ms() const { return end_ms_; }

 private:
  double now() const { return ms_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  double begin_ms_ = 0.0;
  double end_ms_ = 0.0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Every span of one traced op: the calling thread plus any pool helpers.
struct OpTrace {
  Clock::time_point origin = Clock::now();
  ThreadLog main;
  std::vector<ThreadLog> helpers;
  double wall_ms = 0.0;
};

/// Writes every traced op — its wall time, and per thread the thread's
/// lifetime and spans — as JSON; run.py derives the per-layer numbers.
void write_spans(const std::string& path, const std::vector<OpTrace>& ops) {
  std::ofstream out(path);
  if (!out) die("cannot write " + path);
  auto thread_json = [&](const ThreadLog& log) {
    out << "{\"begin_ms\":" << json_number(log.begin_ms())
        << ",\"end_ms\":" << json_number(log.end_ms()) << ",\"spans\":[";
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const ThreadLog::Span& s = spans[i];
      out << (i > 0 ? "," : "") << "[\"" << s.layer << "\","
          << json_number(s.start_ms) << "," << json_number(s.end_ms) << ","
          << s.parent << "," << json_number(s.items) << ","
          << json_number(s.bytes) << "]";
    }
    out << "]}";
  };
  out << "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out << (i > 0 ? ",\n" : "") << "{\"wall_ms\":"
        << json_number(ops[i].wall_ms) << ",\"threads\":[";
    thread_json(ops[i].main);
    for (const ThreadLog& helper : ops[i].helpers) {
      out << ",";
      thread_json(helper);
    }
    out << "]}";
  }
  out << "]\n";
  out.close();
  if (!out) die("short write of " + path);
}

/// Runs fn(i, log) for every i in [0, n) on `workers` threads, the caller's
/// thread included (as api::Sweep does). With `op` set, each helper thread
/// records into its own log and the caller's wait for the helpers is the
/// span "api.pool_wait" — the pool's waiting time, not any layer's work.
void parallel_for(std::size_t n, std::size_t workers,
                  const std::function<void(std::size_t, ThreadLog*)>& fn,
                  OpTrace* op) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  const std::size_t helpers = std::min(workers, n) > 1
                                  ? std::min(workers, n) - 1
                                  : 0;
  std::vector<ThreadLog> logs(helpers);
  auto drain = [&](ThreadLog* log) {
    try {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i, log);
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (error.empty()) error = e.what();
      next.store(n);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      threads.emplace_back([&, h] {
        ThreadLog* log = op != nullptr ? &logs[h] : nullptr;
        if (log != nullptr) log->start(op->origin);
        drain(log);
        if (log != nullptr) log->finish();
      });
    }
  } catch (const std::system_error&) {
    // Fewer helpers; the caller's thread still drains every item.
  }
  ThreadLog* main_log = op != nullptr ? &op->main : nullptr;
  drain(main_log);
  const std::size_t wait =
      main_log != nullptr ? main_log->open("api.pool_wait") : 0;
  for (std::thread& t : threads) t.join();
  if (main_log != nullptr) main_log->close(wait);
  if (op != nullptr) {
    for (std::size_t h = 0; h < threads.size(); ++h) {
      op->helpers.push_back(std::move(logs[h]));
    }
  }
  if (!error.empty()) throw std::runtime_error(error);
}

// ---------------------------------------------------------------------------
// Reference answers: simulator outputs written by setup, compared bit for
// bit by every op.
// ---------------------------------------------------------------------------

bool same_schedule(const core::SimResult& a, const core::SimResult& b) {
  return a.makespan_ns == b.makespan_ns && a.executed == b.executed &&
         a.start_ns == b.start_ns && a.end_ns == b.end_ns &&
         a.stuck_tasks == b.stuck_tasks;
}

/// One prediction as a reference stores it: status code plus schedule.
struct SimRecord {
  std::int32_t code = 0;
  core::SimResult sim;

  bool matches(std::int32_t other_code, const core::SimResult& other) const {
    return code == other_code && same_schedule(sim, other);
  }
};

class RecordWriter {
 public:
  explicit RecordWriter(const std::string& path)
      : out_(path, std::ios::binary) {
    if (!out_) die("cannot write " + path);
  }
  template <class T>
  void pod(const T& v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    pod<std::uint64_t>(v.size());
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
  void record(const SimRecord& r) {
    pod(r.code);
    pod(r.sim.makespan_ns);
    pod<std::uint64_t>(r.sim.executed);
    vec(r.sim.start_ns);
    vec(r.sim.end_ns);
    vec(r.sim.stuck_tasks);
  }
  void close() {
    out_.close();
    if (!out_) die("short write of a reference file");
  }

 private:
  std::ofstream out_;
};

class RecordReader {
 public:
  explicit RecordReader(const std::string& path)
      : in_(path, std::ios::binary) {
    if (!in_) die("cannot read " + path);
  }
  template <class T>
  T pod() {
    T v{};
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in_) die("truncated reference file");
    return v;
  }
  template <class T>
  std::vector<T> vec() {
    const auto n = pod<std::uint64_t>();
    if (n > (1ull << 28)) die("corrupt reference file");
    std::vector<T> v(n);
    in_.read(reinterpret_cast<char*>(v.data()),
             static_cast<std::streamsize>(n * sizeof(T)));
    if (!in_) die("truncated reference file");
    return v;
  }
  SimRecord record() {
    SimRecord r;
    r.code = pod<std::int32_t>();
    r.sim.makespan_ns = pod<std::int64_t>();
    r.sim.executed = static_cast<std::size_t>(pod<std::uint64_t>());
    r.sim.start_ns = vec<std::int64_t>();
    r.sim.end_ns = vec<std::int64_t>();
    r.sim.stuck_tasks = vec<core::TaskId>();
    return r;
  }

 private:
  std::ifstream in_;
};

std::int32_t code_of(const Status& status) {
  return static_cast<std::int32_t>(status.code());
}

// ---------------------------------------------------------------------------
// Shared scenario vocabulary.
// ---------------------------------------------------------------------------

constexpr const char* kModel = "15b";

/// The measured ("actual") run is a different execution from the profiled
/// one, as on a real cluster; its seed derives from the profiled seed.
std::uint64_t actual_seed(std::uint64_t seed) { return seed + 1001; }

/// prediction_error_pct is evaluated at this fixed profiled seed (actual
/// seed 2002, as in the figure benches), not at the workload seed: each
/// seed draws its own run-to-run drift, which would make the fidelity
/// figure vary with the seed instead of with the model.
constexpr std::uint64_t kEvalSeed = 1001;

api::Scenario synthetic(const std::string& config, std::uint64_t seed) {
  return api::Scenario::synthetic()
      .with_model(kModel)
      .with_parallelism(config)
      .with_seed(seed)
      .with_actual_seed(actual_seed(seed));
}

std::string config_label(std::int32_t tp, std::int32_t pp, std::int32_t dp) {
  return std::to_string(tp) + "x" + std::to_string(pp) + "x" +
         std::to_string(dp);
}

/// Ground-truth measured iteration times of `configs` at kEvalSeed,
/// collected in parallel (independent sessions).
std::vector<double> actual_iteration_ns(
    const std::vector<std::string>& configs) {
  std::vector<double> out(configs.size(), 0.0);
  parallel_for(
      configs.size(), hardware_threads(),
      [&](std::size_t i, ThreadLog*) {
        api::Session session =
            check(api::Session::create(synthetic(configs[i], kEvalSeed)),
                  "actual");
        out[i] = static_cast<double>(
            check(session.actual_iteration_ns(), "actual run"));
      },
      nullptr);
  return out;
}

/// Mean |predicted - actual| / actual, in percent (simulated time).
double mean_error_pct(const std::vector<double>& predicted,
                      const std::vector<double>& actual) {
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    sum += std::abs(predicted[i] - actual[i]) / actual[i];
  }
  return 100.0 * sum / static_cast<double>(predicted.size());
}

/// The duration hook serve_replay requests name: every non-collective task
/// runs 25% longer. Its presence forces the interpreter.
class SlowComputeHooks final : public core::SimulatorHooks {
 public:
  std::int64_t task_duration_ns(const core::Task& task) override {
    return task.event.dur_ns + task.event.dur_ns / 4;
  }
};
constexpr const char* kSlowComputeHooks = "perfbench.slow_compute";

core::SimResult interpret(const core::ExecutionGraph& graph,
                          core::SimulatorHooks* hooks = nullptr) {
  core::SimOptions options;
  options.couple_collectives = true;
  options.hooks = hooks;
  return core::Simulator(graph, options).run();
}

/// Parse exactly as Session does: the parser, then the cycle check.
core::ExecutionGraph parse_graph(const trace::ClusterTrace& trace) {
  core::ExecutionGraph graph = core::TraceParser().parse(trace);
  if (!graph.is_acyclic()) throw std::runtime_error("parsed graph is cyclic");
  return graph;
}

// ---------------------------------------------------------------------------
// Timed closed loops.
// ---------------------------------------------------------------------------

struct Loop {
  std::vector<double> latencies_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t predictions = 0;
  double wall_s = 0.0;

  void merge(const Loop& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    predictions += other.predictions;
  }
};

/// One client running `op` back to back until `seconds` have passed. `op`
/// returns the number of successful predictions it produced, or throws;
/// a throw or a wrong output is a failure. Latency covers `op` only.
Loop closed_loop(double seconds,
                 const std::function<std::size_t(double* op_ms)>& op) {
  Loop loop;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    ++loop.attempted;
    double op_ms = 0.0;
    try {
      const std::size_t predictions = op(&op_ms);
      if (predictions == 0) {
        ++loop.failed;
      } else {
        loop.predictions += predictions;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op failed: %s\n", e.what());
      ++loop.failed;
    }
    loop.latencies_ms.push_back(op_ms);
  }
  loop.wall_s = ms_between(begin, Clock::now()) / 1000.0;
  return loop;
}

/// `clients` concurrent closed loops, merged; op(client, op_ms) must be
/// safe to call from several threads at once.
Loop clients_loop(
    std::size_t clients, double seconds,
    const std::function<std::size_t(std::size_t client, double* op_ms)>& op) {
  std::vector<Loop> loops(clients);
  const Clock::time_point begin = Clock::now();
  parallel_for(
      clients, clients,
      [&](std::size_t c, ThreadLog*) {
        loops[c] = closed_loop(
            seconds, [&](double* op_ms) { return op(c, op_ms); });
      },
      nullptr);
  Loop merged;
  for (const Loop& l : loops) merged.merge(l);
  merged.wall_s = ms_between(begin, Clock::now()) / 1000.0;
  return merged;
}

constexpr double kWarmupSeconds = 2.0;

/// Untimed ops for kWarmupSeconds (at least one), so that lazy set-up,
/// allocator arenas and the page cache settle before anything is timed.
void warm_up(const std::function<void()>& op) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  do {
    op();
  } while (Clock::now() < end);
}

/// Times `body` into *op_ms even when it throws.
template <class F>
auto timed(double* op_ms, F&& body) {
  const Clock::time_point t0 = Clock::now();
  struct Stop {
    Clock::time_point t0;
    double* out;
    ~Stop() { *out = ms_between(t0, Clock::now()); }
  } stop{t0, op_ms};
  return body();
}

/// The fields every run reports, traced or not.
JsonObject loop_json(const Loop& loop) {
  JsonObject out;
  out.num("attempted", static_cast<double>(loop.attempted))
      .num("failed", static_cast<double>(loop.failed))
      .num("predictions", static_cast<double>(loop.predictions))
      .num("wall_s", loop.wall_s)
      .array("latencies_ms", loop.latencies_ms);
  return out;
}

// ---------------------------------------------------------------------------
// Workload trace_ingest: nproc clients, each op a directory of 16 real rank
// files -> Session -> graph -> replay -> DP x2 prediction -> rank 0's
// replayed Chrome trace.
// ---------------------------------------------------------------------------

namespace ingest {

constexpr const char* kConfig = "2x8x2";
constexpr const char* kWhatIfConfig = "2x8x4";
constexpr std::size_t kRanks = 16;  // TP2 x PP8: one DP replica's ranks
constexpr std::int32_t kWhatIfDp = 4;
constexpr std::int32_t kEmitRank = 0;

std::string prefix(const std::string& dir) { return dir + "/gpt3_15b"; }

void setup(const std::string& dir, std::uint64_t seed) {
  api::Session session =
      check(api::Session::create(synthetic(kConfig, seed)), "session");
  const std::vector<std::string> files =
      check(session.write_trace_files(prefix(dir)), "write rank files");
  if (files.size() != kRanks) die("expected 16 rank files");
}

struct Output {
  core::SimResult replay;
  core::SimResult predicted;
  std::string chrome_json;

  bool operator==(const Output& o) const {
    return same_schedule(replay, o.replay) &&
           same_schedule(predicted, o.predicted) &&
           chrome_json == o.chrome_json;
  }
};

Output run_op(const std::string& pfx) {
  api::Session session = check(
      api::Session::create(api::Scenario::from_trace(pfx, kRanks)
                               .with_model(kModel)
                               .with_parallelism(kConfig)),
      "session");
  check(session.graph(), "graph");
  Output out;
  out.replay = *check(session.replay(), "replay");
  out.predicted =
      check(session.predict(api::whatif().with_data_parallelism(kWhatIfDp)),
            "predict")
          .sim;
  out.chrome_json = check(session.chrome_trace_json(kEmitRank), "emit");
  return out;
}

Output run_op_traced(const std::string& pfx, OpTrace& op) {
  ThreadLog& log = op.main;
  std::size_t span = log.open("trace.discover");
  const std::vector<trace::RankFile> files =
      trace::discover_rank_files(pfx, kRanks);
  double bytes = 0.0;
  for (const trace::RankFile& f : files) bytes += static_cast<double>(f.bytes);
  log.close(span, static_cast<double>(files.size()));

  span = log.open("trace.ingest");
  auto cluster = std::make_unique<const trace::ClusterTrace>(
      trace::read_cluster_trace(pfx, kRanks, trace::IoOptions{}));
  log.close(span, static_cast<double>(cluster->total_events()), bytes);

  span = log.open("core.parse");
  auto graph_owner =
      std::make_unique<const core::ExecutionGraph>(parse_graph(*cluster));
  const core::ExecutionGraph& graph = *graph_owner;
  log.close(span, static_cast<double>(graph.size()));

  span = log.open("core.compile");
  core::ReplayCompiler::Result compiled = core::ReplayCompiler::compile(graph);
  log.close(span, static_cast<double>(graph.size()));

  Output out;
  span = log.open(compiled ? "core.replay_compiled" : "core.replay_interp");
  out.replay = compiled ? compiled.program->run() : interpret(graph);
  log.close(span, static_cast<double>(graph.size()));

  const workload::ModelSpec model = check(api::model_by_name(kModel), "model");
  const workload::ParallelConfig config =
      check(api::parse_parallelism(kConfig), "config");
  workload::ParallelConfig target = config;
  target.dp = kWhatIfDp;
  const cost::KernelPerfModel kernel_model;
  span = log.open("workload.manipulator_init");
  auto manipulator = std::make_unique<const core::GraphManipulator>(
      graph, model, config, kernel_model);
  log.close(span);
  span = log.open("workload.rebuild");
  auto job = std::make_unique<const workload::BuiltJob>(
      manipulator->with_spec(model, target));
  log.close(span, static_cast<double>(job->graph.size()));
  span = log.open("core.replay_interp");
  out.predicted = interpret(job->graph);
  log.close(span, static_cast<double>(job->graph.size()));
  span = log.open("analysis.breakdown");
  analysis::compute_breakdown(job->graph, out.predicted);
  log.close(span);

  span = log.open("trace.emit");
  auto replayed = std::make_unique<const trace::ClusterTrace>(
      out.replay.to_trace(graph));
  const trace::RankTrace* rank = nullptr;
  for (const trace::RankTrace& r : replayed->ranks) {
    if (r.rank == kEmitRank) rank = &r;
  }
  if (rank == nullptr) throw std::runtime_error("rank 0 missing");
  out.chrome_json = trace::to_json_string(*rank);
  log.close(span, static_cast<double>(rank->events.size()),
            static_cast<double>(out.chrome_json.size()));

  span = log.open("release");
  replayed.reset();
  job.reset();
  manipulator.reset();
  compiled = {};
  graph_owner.reset();
  cluster.reset();
  log.close(span);
  return out;
}

/// The ingest-worker ladder: read_cluster_trace at 1..4 workers, `reps`
/// rounds, median per count.
JsonObject worker_ladder(const std::string& pfx, int reps) {
  constexpr std::size_t kMaxWorkers = 4;
  std::vector<std::vector<double>> ms(kMaxWorkers);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t w = 1; w <= kMaxWorkers; ++w) {
      trace::IoOptions io;
      io.ingest_workers = w;
      const Clock::time_point t0 = Clock::now();
      const trace::ClusterTrace cluster =
          trace::read_cluster_trace(pfx, kRanks, io);
      ms[w - 1].push_back(ms_between(t0, Clock::now()));
      if (cluster.ranks.size() != kRanks) die("ladder ingest lost ranks");
    }
  }
  JsonObject out;
  for (std::size_t w = 1; w <= kMaxWorkers; ++w) {
    out.array("trace.ingest_ms.w" + std::to_string(w), ms[w - 1]);
  }
  return out;
}

/// The op's replay and DP x2 prediction against their measured runs.
double prediction_error_pct() {
  api::Session session =
      check(api::Session::create(synthetic(kConfig, kEvalSeed)), "session");
  const double replay =
      static_cast<double>(check(session.replay(), "replay")->makespan_ns);
  const double predicted = static_cast<double>(
      check(session.predict(api::whatif().with_data_parallelism(kWhatIfDp)),
            "predict")
          .sim.makespan_ns);
  return mean_error_pct({replay, predicted},
                        actual_iteration_ns({kConfig, kWhatIfConfig}));
}

std::string run(const std::string& dir, std::uint64_t /*seed: in the files*/,
                double seconds, bool traced, std::vector<OpTrace>* ops) {
  const std::string pfx = prefix(dir);
  // The first (untimed warm-up) op's outputs are every later op's reference.
  const Output reference = run_op(pfx);
  auto untraced = [&](double* op_ms) -> std::size_t {
    return timed(op_ms, [&] { return run_op(pfx); }) == reference ? 1 : 0;
  };
  if (!traced) {
    // nproc clients, not one. One client's op runs mostly on one thread,
    // and on a shared 4-vCPU VM each vCPU flips between two speeds ~1.6x
    // apart every few seconds: one client's run medians spread 0.23-0.32
    // (IQR / median over ten seeds), nproc clients' 0.08.
    const std::size_t clients = hardware_threads();
    auto client = [&](std::size_t, double* op_ms) { return untraced(op_ms); };
    clients_loop(clients, kWarmupSeconds, client);
    Loop loop = clients_loop(clients, seconds, client);
    JsonObject out = loop_json(loop);
    out.num("peak_rss_mb", peak_rss_mb())
        .num("prediction_error_pct", prediction_error_pct());
    return out.str();
  }
  // One client on both sides, so the overhead compares like with like.
  warm_up([&] { run_op(pfx); });
  Loop plain = closed_loop(seconds / 2, untraced);
  Loop traced_loop = closed_loop(seconds / 2, [&](double* op_ms) {
    ops->emplace_back();
    OpTrace& op = ops->back();
    op.main.start(op.origin);
    const Output out = timed(op_ms, [&] { return run_op_traced(pfx, op); });
    op.main.finish();
    op.wall_ms = *op_ms;
    return out == reference ? std::size_t{1} : std::size_t{0};
  });
  JsonObject extra = worker_ladder(pfx, 3);
  extra.num("nproc", static_cast<double>(hardware_threads()));
  JsonObject out = loop_json(plain);
  out.array("traced_ms", traced_loop.latencies_ms)
      .num("traced_attempted", static_cast<double>(traced_loop.attempted))
      .num("traced_failed", static_cast<double>(traced_loop.failed))
      .raw("extra", extra.str());
  return out.str();
}

}  // namespace ingest

// ---------------------------------------------------------------------------
// Workload whatif_sweep: synthetic 15B 2x2x4 -> Sweep::create -> the fig7
// 16-point PPxDP grid -> a fault-severity grid, on nproc workers.
// ---------------------------------------------------------------------------

namespace sweep {

constexpr const char* kConfig = "2x2x4";
const std::vector<std::int32_t> kPPs = {2, 4, 8, 16};
const std::vector<std::int32_t> kDPs = {4, 8, 16, 32};
const std::vector<double> kSeverities = {0.5, 1.0, 1.5};

faults::FaultSpec fault_spec(std::uint64_t seed) {
  return faults::FaultSpec()
      .slow_rank(0, 1.5)
      .degrade_links(1.3)
      .with_jitter(0.05)
      .with_contention(0.1)
      .with_seed(seed);
}

std::string ref_path(const std::string& dir) { return dir + "/sweep.ref"; }

/// Fault-grid cells in run_fault_grid's order: baseline, then per
/// severity the composition followed by each component.
std::vector<faults::FaultSpec> fault_cells(std::uint64_t seed) {
  const faults::FaultSpec spec = fault_spec(seed);
  std::vector<faults::FaultSpec> cells;
  for (const double s : kSeverities) {
    cells.push_back(spec.scaled(s));
    for (const auto& [label, component] : spec.components()) {
      cells.push_back(component.scaled(s));
    }
  }
  return cells;
}

struct Output {
  std::vector<SimRecord> grid;             ///< grid rows, submission order
  std::int64_t fault_baseline_ns = 0;
  std::vector<std::int32_t> fault_codes;   ///< fault cells
  std::vector<std::int64_t> fault_makespans;

  std::size_t predictions() const {
    std::size_t n = 0;
    for (const SimRecord& r : grid) n += r.code == 0 ? 1 : 0;
    for (const std::int32_t c : fault_codes) n += c == 0 ? 1 : 0;
    return n;
  }
};

Output run_op(std::uint64_t seed, std::size_t workers) {
  api::Sweep sweep =
      check(api::Sweep::create(synthetic(kConfig, seed)), "sweep");
  check(sweep.add_parallelism_grid(kPPs, kDPs), "grid");
  api::SweepReport report = check(sweep.run(workers), "sweep run");
  const api::FaultReport faults = check(
      sweep.run_fault_grid(fault_spec(seed), kSeverities, workers),
      "fault grid");
  Output out;
  for (api::SweepRow& row : report.rows) {
    SimRecord record;
    record.code = code_of(row.status);
    if (row.prediction) record.sim = std::move(row.prediction->sim);
    out.grid.push_back(std::move(record));
  }
  out.fault_baseline_ns = faults.baseline_makespan_ns;
  for (const api::FaultImpactRow& row : faults.rows) {
    out.fault_codes.push_back(code_of(row.status));
    out.fault_makespans.push_back(row.makespan_ns);
  }
  return out;
}

Output run_op_traced(std::uint64_t seed, std::size_t workers, OpTrace& op) {
  ThreadLog& log = op.main;
  api::Session session =
      check(api::Session::create(synthetic(kConfig, seed)), "session");
  std::size_t span = log.open("cluster.collect");
  const trace::ClusterTrace* cluster = check(session.trace(), "collect");
  log.close(span, static_cast<double>(cluster->total_events()));
  span = log.open("core.parse");
  const core::ExecutionGraph graph = parse_graph(*cluster);
  log.close(span, static_cast<double>(graph.size()));
  span = log.open("core.compile");
  const core::ReplayCompiler::Result compiled =
      core::ReplayCompiler::compile(graph);
  log.close(span, static_cast<double>(graph.size()));

  const workload::ModelSpec model = check(api::model_by_name(kModel), "model");
  const workload::ParallelConfig config =
      check(api::parse_parallelism(kConfig), "config");
  const double tasks = static_cast<double>(graph.size());

  Output out;
  out.grid.resize(kPPs.size() * kDPs.size());
  parallel_for(
      out.grid.size(), workers,
      [&](std::size_t i, ThreadLog* l) {
        workload::ParallelConfig target = config;
        target.pp = kPPs[i / kDPs.size()];
        target.dp = kDPs[i % kDPs.size()];
        const cost::KernelPerfModel kernel_model;
        std::size_t s = l->open("workload.manipulator_init");
        const core::GraphManipulator manipulator(graph, model, config,
                                                 kernel_model);
        l->close(s);
        s = l->open("workload.rebuild");
        auto job = std::make_unique<const workload::BuiltJob>(
            manipulator.with_spec(model, target));
        const double rebuilt = static_cast<double>(job->graph.size());
        l->close(s, rebuilt);
        s = l->open("core.replay_interp");
        SimRecord& row = out.grid[i];
        row.sim = interpret(job->graph);
        l->close(s, rebuilt);
        if (!row.sim.complete()) {
          row.code = static_cast<std::int32_t>(ErrorCode::kDeadlock);
        } else {
          s = l->open("analysis.breakdown");
          analysis::compute_breakdown(job->graph, row.sim);
          l->close(s);
        }
        s = l->open("release");
        job.reset();
        l->close(s);
      },
      &op);

  const faults::FaultSpec spec = fault_spec(seed);
  span = log.open("faults.lower");  // run_fault_grid's eager probe
  if (!faults::FaultPlan::lower(graph, spec).ok()) {
    throw std::runtime_error("fault spec does not lower");
  }
  log.close(span, tasks);

  // Cell 0 is the fault-free baseline row.
  const std::vector<faults::FaultSpec> cells = fault_cells(seed);
  std::vector<core::SimResult> sims(cells.size() + 1);
  parallel_for(
      sims.size(), workers,
      [&](std::size_t i, ThreadLog* l) {
        faults::FaultPlan plan;
        if (i > 0) {
          const std::size_t s = l->open("faults.lower");
          plan = faults::FaultPlan::lower(graph, cells[i - 1]);
          l->close(s, tasks);
          if (!plan.ok()) throw std::runtime_error(plan.error());
        }
        const bool compiled_ok =
            compiled && (i == 0 || plan.compiled_eligible());
        std::size_t s = l->open(compiled_ok ? "core.replay_compiled"
                                            : "core.replay_interp");
        if (compiled_ok) {
          sims[i] = i == 0 ? compiled.program->run()
                           : compiled.program->run(plan.durations());
        } else {
          core::SimOptions options;
          options.couple_collectives = true;
          faults::ColumnHooks hooks = plan.make_hooks();
          if (i > 0) {
            options.hooks = &hooks;
            options.dropped_tasks = plan.dropped();
          }
          sims[i] = core::Simulator(graph, options).run();
        }
        l->close(s, tasks);
        s = l->open("analysis.breakdown");
        analysis::compute_breakdown(graph, sims[i]);
        l->close(s);
      },
      &op);
  out.fault_baseline_ns = sims[0].makespan_ns;
  for (std::size_t i = 1; i < sims.size(); ++i) {
    const bool done = sims[i].complete();
    out.fault_codes.push_back(
        done ? 0 : static_cast<std::int32_t>(ErrorCode::kDeadlock));
    out.fault_makespans.push_back(done ? sims[i].makespan_ns : 0);
  }
  return out;
}

void setup(const std::string& dir, std::uint64_t seed) {
  // The sequential reference: run(1) of the same sweep the ops run.
  const Output reference = run_op(seed, 1);
  RecordWriter writer(ref_path(dir));
  writer.pod<std::uint64_t>(reference.grid.size());
  for (const SimRecord& row : reference.grid) writer.record(row);
  writer.pod(reference.fault_baseline_ns);
  writer.vec(reference.fault_codes);
  writer.vec(reference.fault_makespans);
  writer.close();
}

Output load_reference(const std::string& dir) {
  RecordReader reader(ref_path(dir));
  Output out;
  const auto rows = reader.pod<std::uint64_t>();
  for (std::uint64_t i = 0; i < rows; ++i) out.grid.push_back(reader.record());
  out.fault_baseline_ns = reader.pod<std::int64_t>();
  out.fault_codes = reader.vec<std::int32_t>();
  out.fault_makespans = reader.vec<std::int64_t>();
  return out;
}

/// Parallel rows must equal the sequential reference bit for bit.
std::size_t check_output(const Output& reference, const Output& out) {
  if (out.grid.size() != reference.grid.size() ||
      out.fault_baseline_ns != reference.fault_baseline_ns ||
      out.fault_codes != reference.fault_codes ||
      out.fault_makespans != reference.fault_makespans) {
    return 0;
  }
  for (std::size_t i = 0; i < out.grid.size(); ++i) {
    if (!reference.grid[i].matches(out.grid[i].code, out.grid[i].sim)) {
      return 0;
    }
  }
  return out.predictions();
}

/// The 16 grid predictions against their measured runs.
double prediction_error_pct() {
  const Output grid = run_op(kEvalSeed, hardware_threads());
  std::vector<std::string> configs;
  std::vector<double> predicted;
  for (std::size_t i = 0; i < grid.grid.size(); ++i) {
    configs.push_back(
        config_label(2, kPPs[i / kDPs.size()], kDPs[i % kDPs.size()]));
    predicted.push_back(static_cast<double>(grid.grid[i].sim.makespan_ns));
  }
  return mean_error_pct(predicted, actual_iteration_ns(configs));
}

/// api.sweep_speedup: one grid's wall time at 1 worker over `workers`.
double sweep_speedup(std::uint64_t seed, std::size_t workers) {
  api::Sweep sweep =
      check(api::Sweep::create(synthetic(kConfig, seed)), "sweep");
  check(sweep.add_parallelism_grid(kPPs, kDPs), "grid");
  Clock::time_point t0 = Clock::now();
  check(sweep.run(1), "sequential grid");
  const double sequential = ms_between(t0, Clock::now());
  t0 = Clock::now();
  check(sweep.run(workers), "parallel grid");
  return sequential / ms_between(t0, Clock::now());
}

std::string run(const std::string& dir, std::uint64_t seed, double seconds,
                bool traced, std::vector<OpTrace>* ops) {
  const Output reference = load_reference(dir);
  const std::size_t workers = hardware_threads();
  auto untraced = [&](double* op_ms) {
    return check_output(
        reference, timed(op_ms, [&] { return run_op(seed, workers); }));
  };
  warm_up([&] { run_op(seed, workers); });
  if (!traced) {
    Loop loop = closed_loop(seconds, untraced);
    JsonObject out = loop_json(loop);
    out.num("peak_rss_mb", peak_rss_mb())
        .num("prediction_error_pct", prediction_error_pct());
    return out.str();
  }
  Loop plain = closed_loop(seconds / 2, untraced);
  Loop traced_loop = closed_loop(seconds / 2, [&](double* op_ms) {
    ops->emplace_back();
    OpTrace& op = ops->back();
    op.main.start(op.origin);
    Output out =
        timed(op_ms, [&] { return run_op_traced(seed, workers, op); });
    op.main.finish();
    op.wall_ms = *op_ms;
    return check_output(reference, out);
  });
  JsonObject extra;
  extra.num("api.sweep_speedup", sweep_speedup(seed, workers));
  JsonObject out = loop_json(plain);
  out.array("traced_ms", traced_loop.latencies_ms)
      .num("traced_attempted", static_cast<double>(traced_loop.attempted))
      .num("traced_failed", static_cast<double>(traced_loop.failed))
      .raw("extra", extra.str());
  return out.str();
}

}  // namespace sweep

// ---------------------------------------------------------------------------
// Workload serve_replay: nproc clients -> serve::Engine::predict over three
// snapshots whose cache budget holds two.
// ---------------------------------------------------------------------------

namespace serving {

const std::vector<std::string> kConfigs = {"2x2x4", "2x8x2", "4x4x2"};
/// Percent of no-op requests per baseline: skewed, so the LRU keeps the
/// popular pair and the third baseline's requests miss, load and evict.
const std::vector<std::uint64_t> kWeights = {55, 30, 15};
/// Percent of requests that name the duration hook. They all go to the
/// first baseline: a hooked request on a freshly reloaded 16-rank baseline
/// first materializes its tasks, and a few dozen such requests per run
/// would set the tail percentile on their own, differently in every run.
constexpr std::uint64_t kHookPercent = 10;
constexpr std::size_t kSequenceLength = 1 << 16;

std::string snapshot_path(const std::string& dir, std::size_t k) {
  return dir + "/base" + std::to_string(k) + ".snap";
}
std::string ref_path(const std::string& dir) { return dir + "/serve.ref"; }

serve::Request request(const std::string& dir, std::size_t k, bool hook) {
  serve::Request r;
  r.baseline = snapshot_path(dir, k);
  if (hook) r.whatif.hooks = kSlowComputeHooks;
  return r;
}

/// The request stream: (baseline, hook?) pairs drawn from the seed.
struct Draw {
  std::size_t base = 0;
  bool hook = false;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Draw> request_sequence(std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<Draw> out(kSequenceLength);
  for (Draw& d : out) {
    d.hook = splitmix64(state) % 100 < kHookPercent;
    std::uint64_t pick = splitmix64(state) % 100;
    d.base = 0;
    while (!d.hook && pick >= kWeights[d.base]) {
      pick -= kWeights[d.base++];
    }
  }
  return out;
}

void setup(const std::string& dir, std::uint64_t seed) {
  for (std::size_t k = 0; k < kConfigs.size(); ++k) {
    api::Session session =
        check(api::Session::create(synthetic(kConfigs[k], seed)), "session");
    check(session.save_snapshot(snapshot_path(dir, k)), "save snapshot");
  }
  // References: predict_on over a freshly loaded baseline, per distinct
  // (baseline, what-if).
  RecordWriter writer(ref_path(dir));
  for (std::size_t k = 0; k < kConfigs.size(); ++k) {
    api::BaselineArtifacts base =
        check(api::load_baseline_snapshot(snapshot_path(dir, k)), "load");
    api::attach_replay_program(base);
    for (const bool hook : {false, true}) {
      if (hook && k != 0) break;  // hooked requests name baseline 0 only
      const api::Prediction p = check(
          api::predict_on(base, request(dir, k, hook).whatif.to_scenario()),
          "reference prediction");
      writer.record({0, p.sim});
    }
  }
  writer.close();
}

/// reference[k][hook]; only baseline 0 has a hooked entry.
using Reference = std::vector<std::vector<SimRecord>>;

Reference load_reference(const std::string& dir) {
  RecordReader reader(ref_path(dir));
  Reference ref(kConfigs.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    ref[k].push_back(reader.record());
    if (k == 0) ref[k].push_back(reader.record());
  }
  return ref;
}

/// A cache budget that holds any two baselines but not all three.
std::size_t cache_budget(const std::string& dir) {
  std::vector<std::size_t> bytes;
  for (std::size_t k = 0; k < kConfigs.size(); ++k) {
    const api::BaselineArtifacts base =
        check(api::load_baseline_snapshot(snapshot_path(dir, k)), "load");
    bytes.push_back(serve::Engine::approx_bytes(base));
  }
  std::size_t total = 0;
  for (const std::size_t b : bytes) total += b;
  return total - *std::min_element(bytes.begin(), bytes.end()) / 2;
}

/// The benchmark-side replica of the engine's baseline cache for the
/// traced decomposition: same key (content hash), same byte estimate, same
/// budget and LRU order, so one client sees the same hits and misses.
class TracedCache {
 public:
  explicit TracedCache(std::size_t budget) : budget_(budget) {}

  std::shared_ptr<const api::BaselineArtifacts> find(std::uint64_t hash) {
    for (Entry& e : entries_) {
      if (e.hash == hash) {
        e.last_use = ++tick_;
        return e.base;
      }
    }
    return nullptr;
  }
  void insert(std::uint64_t hash,
              std::shared_ptr<const api::BaselineArtifacts> base) {
    entries_.push_back({hash, serve::Engine::approx_bytes(*base),
                        ++tick_, std::move(base)});
    std::size_t used = 0;
    for (const Entry& e : entries_) used += e.bytes;
    while (used > budget_ && entries_.size() > 1) {
      auto lru = std::min_element(entries_.begin(), entries_.end() - 1,
                                  [](const Entry& a, const Entry& b) {
                                    return a.last_use < b.last_use;
                                  });
      used -= lru->bytes;
      entries_.erase(lru);
    }
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
    std::shared_ptr<const api::BaselineArtifacts> base;
  };
  std::size_t budget_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;
};

/// One request decomposed into the layer calls Engine::predict makes:
/// header peek, cache lookup (load + compile on a miss), replay, breakdown.
core::SimResult predict_traced(const std::string& path, bool hook,
                               TracedCache& cache, ThreadLog& log) {
  std::size_t span = log.open("snapshot.peek");
  const std::uint64_t hash =
      check(api::peek_snapshot_content_hash(path), "peek");
  log.close(span);
  std::shared_ptr<const api::BaselineArtifacts> base = cache.find(hash);
  if (base == nullptr) {
    span = log.open("snapshot.load");
    api::BaselineArtifacts loaded =
        check(api::load_baseline_snapshot(path), "load");
    const double tasks = static_cast<double>(loaded.graph->size());
    log.close(span, tasks);
    span = log.open("core.compile");
    core::ReplayCompiler::Result compiled =
        core::ReplayCompiler::compile(*loaded.graph);
    if (compiled) loaded.program = std::move(compiled.program);
    log.close(span, tasks);
    span = log.open("serve.evict");  // insert, freeing evicted baselines
    base = std::make_shared<const api::BaselineArtifacts>(std::move(loaded));
    cache.insert(hash, base);
    log.close(span);
  }
  const core::ExecutionGraph& graph = *base->graph;
  const double tasks = static_cast<double>(graph.size());
  core::SimResult sim;
  if (hook || base->program == nullptr) {
    SlowComputeHooks hooks;
    span = log.open("core.replay_interp");
    sim = interpret(graph, hook ? &hooks : nullptr);
  } else {
    span = log.open("core.replay_compiled");
    sim = base->program->run();
  }
  log.close(span, tasks);
  span = log.open("analysis.breakdown");
  analysis::compute_breakdown(graph, sim);
  log.close(span);
  return sim;
}

struct Fixture {
  Reference reference;
  std::vector<Draw> sequence;
  std::vector<std::vector<serve::Request>> requests;  ///< [k][hook]
  std::size_t budget = 0;

  bool correct(const Draw& d, const api::Prediction& p) const {
    return reference[d.base][d.hook].matches(0, p.sim);
  }
};

/// `clients` closed-loop clients sharing one engine, each taking the next
/// request of the seeded sequence.
Loop engine_loop(const Fixture& fx, serve::Engine& engine,
                 std::size_t clients, double seconds,
                 std::vector<double>* hit_ms = nullptr) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> hits(clients);
  Loop merged = clients_loop(
      clients, seconds, [&](std::size_t c, double* op_ms) -> std::size_t {
        const Draw& d = fx.sequence[next.fetch_add(1) % fx.sequence.size()];
        const Result<serve::Engine::Outcome> out = timed(op_ms, [&] {
          return engine.predict(fx.requests[d.base][d.hook]);
        });
        if (!out.is_ok() || !fx.correct(d, out->prediction)) return 0;
        if (!d.hook && out->baseline_was_cached && !out->coalesced) {
          hits[c].push_back(*op_ms);
        }
        return 1;
      });
  if (hit_ms != nullptr) {
    for (const auto& h : hits) {
      hit_ms->insert(hit_ms->end(), h.begin(), h.end());
    }
  }
  return merged;
}

/// Each baseline's no-op prediction (its replay) against its measured run.
double prediction_error_pct() {
  std::vector<double> predicted;
  for (const std::string& config : kConfigs) {
    api::Session session =
        check(api::Session::create(synthetic(config, kEvalSeed)), "session");
    predicted.push_back(
        static_cast<double>(check(session.replay(), "replay")->makespan_ns));
  }
  return mean_error_pct(predicted, actual_iteration_ns(kConfigs));
}

std::string run(const std::string& dir, std::uint64_t seed, double seconds,
                bool traced, std::vector<OpTrace>* ops) {
  Fixture fx;
  fx.reference = load_reference(dir);
  fx.sequence = request_sequence(seed);
  fx.budget = cache_budget(dir);
  for (std::size_t k = 0; k < kConfigs.size(); ++k) {
    fx.requests.push_back({request(dir, k, false), request(dir, k, true)});
  }
  const std::size_t clients = hardware_threads();
  serve::Engine::Options options;
  options.cache_capacity_bytes = fx.budget;

  if (!traced) {
    serve::Engine engine(options);
    engine_loop(fx, engine, clients, kWarmupSeconds);
    Loop loop = engine_loop(fx, engine, clients, seconds);
    JsonObject out = loop_json(loop);
    out.num("peak_rss_mb", peak_rss_mb())
        .num("prediction_error_pct", prediction_error_pct());
    return out.str();
  }

  // (a) nproc clients: the engine's cache and coalescing counters.
  serve::Engine shared(options);
  engine_loop(fx, shared, clients, kWarmupSeconds);
  Loop loaded = engine_loop(fx, shared, clients, seconds / 3);
  const serve::Engine::Stats stats = shared.stats();
  // (b) one client on a fresh engine: the untraced per-request baseline
  // for the overhead, and the latency of cache hits.
  serve::Engine single(options);
  std::vector<double> hit_ms;
  Loop plain = engine_loop(fx, single, 1, seconds / 3, &hit_ms);
  // (c) one client, the same request sequence, decomposed and traced.
  TracedCache cache(fx.budget);
  std::size_t next = 0;
  Loop traced_loop = closed_loop(seconds / 3, [&](double* op_ms) {
    const Draw& d = fx.sequence[next++ % fx.sequence.size()];
    ops->emplace_back();
    OpTrace& op = ops->back();
    op.main.start(op.origin);
    const core::SimResult sim = timed(op_ms, [&] {
      return predict_traced(snapshot_path(dir, d.base), d.hook, cache,
                            op.main);
    });
    op.main.finish();
    op.wall_ms = *op_ms;
    return fx.reference[d.base][d.hook].matches(0, sim) ? 1 : 0;
  });

  JsonObject extra;
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  extra.array("serve.predict_hit_ms", hit_ms)
      .num("serve.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0)
      .num("serve.coalesced_ratio",
           stats.requests > 0 ? static_cast<double>(stats.coalesced) /
                                    static_cast<double>(stats.requests)
                              : 0.0)
      .num("serve.evictions", static_cast<double>(stats.evictions))
      .num("serve.requests", static_cast<double>(stats.requests));
  plain.attempted += loaded.attempted;
  plain.failed += loaded.failed;
  JsonObject out = loop_json(plain);
  out.array("traced_ms", traced_loop.latencies_ms)
      .num("traced_attempted", static_cast<double>(traced_loop.attempted))
      .num("traced_failed", static_cast<double>(traced_loop.failed))
      .raw("extra", extra.str());
  return out.str();
}

}  // namespace serving

// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  std::string spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) die("usage: perfbench setup|run --workload W --seed N ...");
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      die("unknown argument " + key);
    }
  }
  if (args.dir.empty()) die("--dir is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (Status status = api::Session::register_hooks(
          kSlowComputeHooks,
          [] { return std::make_unique<SlowComputeHooks>(); });
      !status.is_ok()) {
    die(status.to_string());
  }

  using SetupFn = void (*)(const std::string&, std::uint64_t);
  using RunFn = std::string (*)(const std::string&, std::uint64_t, double,
                                bool, std::vector<OpTrace>*);
  SetupFn setup = nullptr;
  RunFn run = nullptr;
  if (args.workload == "trace_ingest") {
    setup = ingest::setup;
    run = ingest::run;
  } else if (args.workload == "whatif_sweep") {
    setup = sweep::setup;
    run = sweep::run;
  } else if (args.workload == "serve_replay") {
    setup = serving::setup;
    run = serving::run;
  } else {
    die("unknown workload '" + args.workload + "'");
  }

  try {
    if (args.mode == "setup") {
      const Clock::time_point t0 = Clock::now();
      setup(args.dir, args.seed);
      const double setup_s = ms_between(t0, Clock::now()) / 1000.0;
      std::printf("%s\n", JsonObject().num("setup_s", setup_s).str().c_str());
      return 0;
    }
    if (args.mode == "run") {
      if (args.trace && args.spans.empty()) die("--trace 1 needs --spans");
      std::vector<OpTrace> ops;
      const std::string result =
          run(args.dir, args.seed, args.seconds, args.trace, &ops);
      if (args.trace) write_spans(args.spans, ops);
      std::printf("%s\n", result.c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode '" + args.mode + "'");
}
