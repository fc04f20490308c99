// lumos_cli: command-line front end for working with on-disk Kineto traces.
//
//   lumos_cli collect <prefix> <model> TPxPPxDP [seed]
//       run the synthetic cluster and write <prefix>_rank<k>.json traces
//   lumos_cli info <prefix> <num_ranks>
//       per-rank event statistics and structural validation
//   lumos_cli replay <prefix> <num_ranks>
//       build the execution graph and replay it (iteration + breakdown)
//   lumos_cli diff <prefixA> <prefixB> <num_ranks>
//       top kernel-time deltas between two trace sets
//   lumos_cli show <prefix> <rank>
//       ASCII timeline of one rank's threads and streams
//   lumos_cli sweep <model> TPxPPxDP <label,label,...> [workers] [seed]
//       profile the base config once, predict every TPxPPxDP variant of the
//       comma-separated grid concurrently, print the ranked report
//   lumos_cli faults <model> TPxPPxDP <fault,fault,...> [severities]
//                    [workers] [seed]
//       profile the base config once, then run the deterministic fault-
//       injection severity grid (faults::FaultSpec x api::Sweep) and print
//       the ranked makespan-degradation report. Fault syntax:
//         slow_rank=R:M     every task on rank R runs M times slower
//         degrade_link=G:M  collectives on group G (e.g. dp_0) M times slower
//         degrade_links=M   every collective M times slower
//         jitter=SIGMA      seeded lognormal per-task jitter
//         contention=P      concurrent-collective penalty (interpreter path)
//         drop_rank=R       rank R crashes; stuck tasks are reported
//       severities default to 0.25,0.5,1 (FaultSpec::scaled axis)
//   lumos_cli snapshot <out.snap> <model> TPxPPxDP [seed]
//       profile + parse once, save the baseline as a binary snapshot
//       (mmap-able; the lumos_serve cache key is printed)
//   lumos_cli serve <socket> [workers] [cache_mb]
//       run the resident prediction service on a Unix domain socket
//   lumos_cli request <socket> predict <baseline.snap> [dp=N] [pp=N]
//                     [tp=N] [layers=N] [d_model=N] [d_ff=N] [fusion]
//   lumos_cli request <socket> <stats|ping|shutdown>
//       one NDJSON request against a running lumos_serve
//
// Global flags:
//   --ingest-workers=N
//               parse cluster rank files across N threads (0 = one per
//               hardware thread, the default; any N is bit-identical)
//
// Models: 15b | 44b | 117b | 175b | v1..v4 | tiny
//
// The CLI is argument parsing plus lumos::api calls — the pipeline itself
// (collect → parse → simulate → analyze) lives behind api::Session, and the
// concurrent grid search behind api::Sweep.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "serve/server.h"

namespace {

using namespace lumos;

/// Cluster-ingest worker count, set by the global --ingest-workers=N flag.
/// 0 (the default) = one worker per hardware thread.
std::size_t g_ingest_workers = 0;

/// A from_trace scenario with the CLI's ingest flags applied.
api::Scenario trace_scenario(const char* prefix, std::size_t num_ranks = 0) {
  return api::Scenario::from_trace(prefix, num_ranks)
      .with_ingest_workers(g_ingest_workers);
}

/// Prints a non-OK status and converts it to a process exit code.
int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

int cmd_collect(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: lumos_cli collect <prefix> <model> TPxPPxDP "
                 "[seed]\n");
    return 2;
  }
  const std::string prefix = argv[1];
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  api::Scenario scenario = api::Scenario::synthetic()
                               .with_model(argv[2])
                               .with_parallelism(argv[3])
                               .with_seed(seed);
  Result<api::Session> session = api::Session::create(scenario);
  if (!session.is_ok()) return fail(session.status());
  Result<std::vector<std::string>> files = session->write_trace_files(prefix);
  if (!files.is_ok()) return fail(files.status());
  const trace::ClusterTrace& trace = **session->trace();
  std::printf("wrote %zu rank traces (%zu events) to %s_rank<k>.json; "
              "profiled iteration %.1f ms\n",
              files->size(), trace.total_events(), prefix.c_str(),
              static_cast<double>(*session->profiled_iteration_ns()) / 1e6);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: lumos_cli info <prefix> <num_ranks>\n");
    return 2;
  }
  Result<api::Session> session = api::Session::create(
      trace_scenario(argv[1], std::strtoul(argv[2], nullptr, 10)));
  if (!session.is_ok()) return fail(session.status());
  Result<std::vector<std::int32_t>> ranks = session->ranks();
  if (!ranks.is_ok()) return fail(ranks.status());
  for (std::int32_t rank : *ranks) {
    Result<trace::TraceStats> s = session->stats(rank);
    if (!s.is_ok()) return fail(s.status());
    std::printf("rank %d: %zu events, %zu threads, %zu streams, span %.1f "
                "ms, gpu busy %.1f ms (comm %.1f ms)\n",
                rank, s->num_events, s->num_cpu_threads, s->num_gpu_streams,
                static_cast<double>(s->span_ns) / 1e6,
                static_cast<double>(s->busy_gpu_ns) / 1e6,
                static_cast<double>(s->total_comm_kernel_ns) / 1e6);
  }
  Result<std::vector<trace::Violation>> violations = session->validate();
  if (!violations.is_ok()) return fail(violations.status());
  if (violations->empty()) {
    std::printf("validation: OK\n");
  } else {
    std::printf("validation: %zu violations, first: %s\n", violations->size(),
                violations->front().message.c_str());
  }
  return violations->empty() ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: lumos_cli replay <prefix> <num_ranks>\n");
    return 2;
  }
  Result<api::Session> session = api::Session::create(
      trace_scenario(argv[1], std::strtoul(argv[2], nullptr, 10)));
  if (!session.is_ok()) return fail(session.status());
  Result<const core::ExecutionGraph*> graph = session->graph();
  if (!graph.is_ok()) return fail(graph.status());
  std::printf("graph: %zu tasks, %zu edges\n", (*graph)->size(),
              (*graph)->edges().size());
  Result<const core::SimResult*> result = session->replay();
  if (!result.is_ok()) {
    if (result.status().code() == ErrorCode::kDeadlock) {
      std::printf("replay DEADLOCKED (%s)\n",
                  result.status().message().c_str());
      return 1;
    }
    return fail(result.status());
  }
  std::printf("replayed iteration: %.1f ms\n",
              static_cast<double>((*result)->makespan_ns) / 1e6);
  Result<analysis::Breakdown> b = session->breakdown();
  if (!b.is_ok()) return fail(b.status());
  std::printf("breakdown: %s\n", b->to_string().c_str());
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: lumos_cli diff <prefixA> <prefixB> <num_ranks>\n");
    return 2;
  }
  const std::size_t ranks = std::strtoul(argv[3], nullptr, 10);
  Result<api::Session> a = api::Session::create(trace_scenario(argv[1], ranks));
  if (!a.is_ok()) return fail(a.status());
  Result<api::Session> b = api::Session::create(trace_scenario(argv[2], ranks));
  if (!b.is_ok()) return fail(b.status());
  Result<std::vector<analysis::DiffEntry>> diff =
      a->diff(*b, {.gpu_only = true, .top_k = 15});
  if (!diff.is_ok()) return fail(diff.status());
  std::printf("top kernel-time deltas (%s -> %s):\n%s", argv[1], argv[2],
              analysis::to_string(*diff).c_str());
  return 0;
}

int cmd_show(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: lumos_cli show <prefix> <rank>\n");
    return 2;
  }
  Result<api::Session> session = api::Session::create(trace_scenario(argv[1]));
  if (!session.is_ok()) return fail(session.status());
  const auto rank =
      static_cast<std::int32_t>(std::strtol(argv[2], nullptr, 10));
  Result<std::string> timeline = session->timeline(rank);
  if (!timeline.is_ok()) {
    if (timeline.status().code() == ErrorCode::kInvalidArgument) {
      std::fprintf(stderr, "rank %d not found\n", rank);
      return 1;
    }
    return fail(timeline.status());
  }
  std::printf("rank %d timeline ('.'/'-'/'='/'#' compute occupancy, "
              "'c'/'C' communication):\n%s",
              rank, timeline->c_str());
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: lumos_cli sweep <model> TPxPPxDP "
                 "<label,label,...> [workers] [seed]\n");
    return 2;
  }
  const std::size_t workers =
      argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 0;
  const std::uint64_t seed =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

  std::vector<std::string> labels;
  const std::string grid = argv[3];
  for (std::size_t begin = 0; begin <= grid.size();) {
    std::size_t comma = grid.find(',', begin);
    if (comma == std::string::npos) comma = grid.size();
    if (comma > begin) labels.push_back(grid.substr(begin, comma - begin));
    begin = comma + 1;
  }
  if (labels.empty()) {
    std::fprintf(stderr, "sweep: empty variant grid\n");
    return 2;
  }

  Result<api::Sweep> sweep =
      api::Sweep::create(api::Scenario::synthetic()
                             .with_model(argv[1])
                             .with_parallelism(argv[2])
                             .with_seed(seed),
                         {.workers = workers});
  if (!sweep.is_ok()) return fail(sweep.status());
  if (Status status = sweep->add_parallelism_grid(labels); !status.is_ok()) {
    return fail(status);
  }
  Result<api::SweepReport> report = sweep->run();
  if (!report.is_ok()) return fail(report.status());

  std::printf("base %s %s: %zu variants\n%s", argv[1], argv[2],
              report->rows.size(), report->to_string().c_str());
  if (const api::SweepRow* best = report->best()) {
    std::printf("best: %s (%.2f ms predicted iteration)\n",
                best->label.c_str(), best->makespan_ms());
  }
  return report->failed() == 0 ? 0 : 1;
}

/// Splits a comma-separated list, skipping empty segments.
std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  for (std::size_t begin = 0; begin <= list.size();) {
    std::size_t comma = list.find(',', begin);
    if (comma == std::string::npos) comma = list.size();
    if (comma > begin) out.push_back(list.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

/// Parses one "name=args" fault token into `spec`; false (with a message on
/// stderr) on syntax it does not recognize. Semantic validation (multiplier
/// ranges, unknown ranks/groups) is FaultSpec/FaultPlan's job.
bool parse_fault_token(const std::string& token, faults::FaultSpec& spec) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    std::fprintf(stderr, "faults: '%s' is not name=value\n", token.c_str());
    return false;
  }
  const std::string name = token.substr(0, eq);
  const std::string args = token.substr(eq + 1);
  const std::size_t colon = args.find(':');
  if (name == "slow_rank" || name == "degrade_link") {
    if (colon == std::string::npos) {
      std::fprintf(stderr, "faults: %s wants %s=%s:<multiplier>\n",
                   name.c_str(), name.c_str(),
                   name == "slow_rank" ? "<rank>" : "<group>");
      return false;
    }
    const std::string key = args.substr(0, colon);
    const double multiplier = std::strtod(args.c_str() + colon + 1, nullptr);
    if (name == "slow_rank") {
      spec.slow_rank(static_cast<std::int32_t>(
                         std::strtol(key.c_str(), nullptr, 10)),
                     multiplier);
    } else {
      spec.degrade_link(key, multiplier);
    }
    return true;
  }
  if (name == "degrade_links") {
    spec.degrade_links(std::strtod(args.c_str(), nullptr));
    return true;
  }
  if (name == "jitter") {
    spec.with_jitter(std::strtod(args.c_str(), nullptr));
    return true;
  }
  if (name == "contention") {
    spec.with_contention(std::strtod(args.c_str(), nullptr));
    return true;
  }
  if (name == "drop_rank") {
    spec.drop_rank(
        static_cast<std::int32_t>(std::strtol(args.c_str(), nullptr, 10)));
    return true;
  }
  std::fprintf(stderr,
               "faults: unknown fault '%s' (slow_rank, degrade_link, "
               "degrade_links, jitter, contention, drop_rank)\n",
               name.c_str());
  return false;
}

int cmd_faults(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: lumos_cli faults <model> TPxPPxDP "
                 "<fault,fault,...> [severities] [workers] [seed]\n"
                 "  faults: slow_rank=R:M degrade_link=G:M degrade_links=M "
                 "jitter=SIGMA contention=P drop_rank=R\n"
                 "  severities: comma-separated, default 0.25,0.5,1\n");
    return 2;
  }
  const std::string severities_arg = argc > 4 ? argv[4] : "0.25,0.5,1";
  const std::size_t workers =
      argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 0;
  const std::uint64_t seed =
      argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 1;

  faults::FaultSpec spec;
  spec.with_seed(seed);
  for (const std::string& token : split_commas(argv[3])) {
    if (!parse_fault_token(token, spec)) return 2;
  }
  std::vector<double> severities;
  for (const std::string& s : split_commas(severities_arg)) {
    severities.push_back(std::strtod(s.c_str(), nullptr));
  }

  Result<api::Sweep> sweep =
      api::Sweep::create(api::Scenario::synthetic()
                             .with_model(argv[1])
                             .with_parallelism(argv[2])
                             .with_seed(seed),
                         {.workers = workers});
  if (!sweep.is_ok()) return fail(sweep.status());
  Result<api::FaultReport> report =
      sweep->run_fault_grid(spec, severities, workers);
  if (!report.is_ok()) return fail(report.status());
  std::printf("base %s %s · faults: %s\n%s", argv[1], argv[2],
              spec.describe().c_str(), report->to_string().c_str());
  return 0;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: lumos_cli snapshot <out.snap> <model> TPxPPxDP "
                 "[seed]\n");
    return 2;
  }
  const std::string path = argv[1];
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  Result<api::Session> session =
      api::Session::create(api::Scenario::synthetic()
                               .with_model(argv[2])
                               .with_parallelism(argv[3])
                               .with_seed(seed));
  if (!session.is_ok()) return fail(session.status());
  if (Status status = session->save_snapshot(path); !status.is_ok()) {
    return fail(status);
  }
  // The image holds the graph (no trace); its payload checksum is the
  // key lumos_serve caches it under.
  Result<std::uint64_t> hash = api::peek_snapshot_content_hash(path);
  if (!hash.is_ok()) return fail(hash.status());
  const core::ExecutionGraph& graph = **session->graph();
  std::printf("wrote %s (%zu tasks, %zu ranks), cache key %016llx\n",
              path.c_str(), graph.size(), graph.meta().lanes().rank_count(),
              static_cast<unsigned long long>(*hash));
  return 0;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lumos_cli serve <socket> [workers] [cache_mb]\n");
    return 2;
  }
  serve::ServerOptions options;
  options.socket_path = argv[1];
  if (argc > 2) options.workers = std::strtoul(argv[2], nullptr, 10);
  if (argc > 3) {
    options.engine.cache_capacity_bytes =
        std::strtoull(argv[3], nullptr, 10) << 20;
  }
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::start(options);
  if (!server.is_ok()) return fail(server.status());
  std::printf("serving on %s (%zu workers); send "
              "{\"method\":\"shutdown\"} to stop\n",
              (*server)->socket_path().c_str(), options.workers);
  std::fflush(stdout);
  (*server)->wait();
  return 0;
}

int cmd_request(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: lumos_cli request <socket> predict <baseline.snap> "
                 "[dp=N] [pp=N] [tp=N] [layers=N] [d_model=N] [d_ff=N] "
                 "[fusion]\n"
                 "       lumos_cli request <socket> <stats|ping|shutdown>\n");
    return 2;
  }
  const std::string socket_path = argv[1];
  const std::string method = argv[2];
  serve::Request request;
  request.id = 1;
  if (method == "stats") {
    request.method = serve::Method::kStats;
  } else if (method == "ping") {
    request.method = serve::Method::kPing;
  } else if (method == "shutdown") {
    request.method = serve::Method::kShutdown;
  } else if (method == "predict") {
    if (argc < 4) {
      std::fprintf(stderr, "request predict: missing <baseline.snap>\n");
      return 2;
    }
    request.method = serve::Method::kPredict;
    request.baseline = argv[3];
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&arg] {
        const std::size_t eq = arg.find('=');
        return eq == std::string::npos
                   ? std::int64_t{0}
                   : std::strtoll(arg.c_str() + eq + 1, nullptr, 10);
      }();
      if (arg == "fusion") {
        request.whatif.fusion = true;
      } else if (arg.rfind("dp=", 0) == 0) {
        request.whatif.dp = static_cast<std::int32_t>(value);
      } else if (arg.rfind("pp=", 0) == 0) {
        request.whatif.pp = static_cast<std::int32_t>(value);
      } else if (arg.rfind("tp=", 0) == 0) {
        request.whatif.tp = static_cast<std::int32_t>(value);
      } else if (arg.rfind("layers=", 0) == 0) {
        request.whatif.num_layers = static_cast<std::int32_t>(value);
      } else if (arg.rfind("d_model=", 0) == 0) {
        request.whatif.d_model = value;
      } else if (arg.rfind("d_ff=", 0) == 0) {
        request.whatif.d_ff = value;
      } else {
        std::fprintf(stderr, "request predict: unknown arg '%s'\n",
                     arg.c_str());
        return 2;
      }
    }
  } else {
    std::fprintf(stderr, "request: unknown method '%s'\n", method.c_str());
    return 2;
  }

  Result<std::string> reply_line =
      serve::request_over_socket(socket_path, serve::encode(request));
  if (!reply_line.is_ok()) return fail(reply_line.status());
  serve::Reply reply;
  if (Status status = serve::decode_reply(*reply_line, reply);
      !status.is_ok()) {
    return fail(status);
  }
  if (!reply.ok) return fail(reply.error);
  if (request.method == serve::Method::kPredict) {
    const json::Value* cached = reply.body.as_object().find("baseline_cached");
    const json::Value* coalesced = reply.body.as_object().find("coalesced");
    std::printf("predicted iteration: %.2f ms (%lld tasks, baseline %s%s)\n",
                reply.body.get_double("makespan_ms", 0.0),
                static_cast<long long>(reply.body.get_int("executed", 0)),
                cached != nullptr && cached->is_bool() && cached->as_bool()
                    ? "cached"
                    : "loaded",
                coalesced != nullptr && coalesced->is_bool() &&
                        coalesced->as_bool()
                    ? ", coalesced"
                    : "");
    if (const json::Value* b = reply.body.as_object().find("breakdown");
        b != nullptr && b->is_object()) {
      const analysis::Breakdown breakdown{b->get_int("exposed_compute_ns", 0),
                                          b->get_int("overlapped_ns", 0),
                                          b->get_int("exposed_comm_ns", 0),
                                          b->get_int("other_ns", 0)};
      std::printf("breakdown: %s\n", breakdown.to_string().c_str());
    }
  }
  std::printf("%s\n", reply_line->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global flags (position-independent) before command dispatch.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr std::string_view kIngestWorkers = "--ingest-workers=";
    if (arg.rfind(kIngestWorkers, 0) == 0) {
      g_ingest_workers =
          std::strtoul(arg.c_str() + kIngestWorkers.size(), nullptr, 10);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lumos_cli [--ingest-workers=N] "
                 "<collect|info|replay|diff|show|sweep|faults|snapshot|"
                 "serve|request> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "collect") return cmd_collect(argc - 1, argv + 1);
  if (cmd == "info") return cmd_info(argc - 1, argv + 1);
  if (cmd == "replay") return cmd_replay(argc - 1, argv + 1);
  if (cmd == "diff") return cmd_diff(argc - 1, argv + 1);
  if (cmd == "show") return cmd_show(argc - 1, argv + 1);
  if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
  if (cmd == "faults") return cmd_faults(argc - 1, argv + 1);
  if (cmd == "snapshot") return cmd_snapshot(argc - 1, argv + 1);
  if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
  if (cmd == "request") return cmd_request(argc - 1, argv + 1);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
