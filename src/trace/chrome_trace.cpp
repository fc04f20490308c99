#include "trace/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "io/mapped_file.h"
#include "json/json.h"
#include "json/sax.h"
#include "trace/json_writer.h"

namespace lumos::trace {

namespace {

/// The "no traceEvents array" error of the SAX ingest path.
/// std::out_of_range keeps the historical missing-key exception type
/// callers already handle.
struct MissingTraceEventsError : std::out_of_range {
  MissingTraceEventsError()
      : std::out_of_range("chrome_trace: missing key 'traceEvents'") {}
};

constexpr double kNsPerUs = 1000.0;

/// SAX handler that assembles a RankTrace straight from the token stream:
/// event fields land in EventTable columns, strings are interned into the
/// trace pools the moment their (input-backed, zero-copy) view arrives —
/// no DOM, no per-event owning strings, ever.
class KinetoSaxHandler final : public json::SaxHandler {
 public:
  explicit KinetoSaxHandler(RankTrace& out) : out_(out) {}

  bool saw_trace_events() const { return saw_trace_events_; }

  void key(std::string_view k) override {
    switch (scope()) {
      case Scope::Root: root_key_ = root_key_from(k); break;
      case Scope::DistInfo: dist_rank_key_ = (k == "rank"); break;
      case Scope::Event: event_key_ = event_key_from(k); break;
      case Scope::Args: args_key_ = args_key_from(k); break;
      default: break;
    }
  }

  void begin_object() override {
    switch (scope()) {
      case Scope::Document:
        push(Scope::Root);
        return;
      case Scope::Root:
        if (root_key_ == RootKey::DistributedInfo) {
          push(Scope::DistInfo);
        } else {
          skip(1);
        }
        return;
      case Scope::Events:
        staged_ = EventTable::Row{};
        keep_ = true;
        have_cat_ = false;
        push(Scope::Event);
        return;
      case Scope::Event:
        if (event_key_ == EventKey::Args) {
          push(Scope::Args);
        } else {
          skip(1);
        }
        return;
      case Scope::Skip:
        skip(1);
        return;
      default:
        skip(1);
        return;
    }
  }

  void end_object() override {
    if (scope() == Scope::Skip) {
      skip(-1);
      return;
    }
    if (scope() == Scope::Event && keep_ && have_cat_) {
      out_.events.push_row(staged_);
    }
    pop();
  }

  void begin_array() override {
    if (scope() == Scope::Root && root_key_ == RootKey::TraceEvents) {
      saw_trace_events_ = true;
      push(Scope::Events);
      return;
    }
    if (scope() == Scope::Document) {
      throw json::TypeError("json::Value: expected object, got array");
    }
    skip(1);
  }

  void end_array() override {
    if (scope() == Scope::Skip) {
      skip(-1);
      return;
    }
    pop();
  }

  void string_value(std::string_view s) override {
    switch (scope()) {
      case Scope::Event:
        switch (event_key_) {
          case EventKey::Ph: keep_ = (s == "X"); break;
          case EventKey::Cat:
            if (auto cat = category_from_string(s)) {
              staged_.cat = static_cast<std::uint8_t>(*cat);
              have_cat_ = true;
            } else {
              have_cat_ = false;
            }
            break;
          case EventKey::Name:
            staged_.name = intern_name(s);
            break;
          default: break;
        }
        break;
      case Scope::Args:
        switch (args_key_) {
          case ArgsKey::Phase: staged_.phase = intern_name(s); break;
          case ArgsKey::Block: staged_.block = intern_name(s); break;
          case ArgsKey::Collective:
            staged_.has_collective = true;
            staged_.coll_op = s.empty()
                                  ? OpId::kInvalidIndex
                                  : out_.events.pools()->ops.intern(s);
            break;
          case ArgsKey::CommGroup:
            staged_.has_collective = true;
            staged_.coll_group = s.empty()
                                     ? GroupId::kInvalidIndex
                                     : out_.events.pools()->groups.intern(s);
            break;
          default: break;
        }
        break;
      default:
        break;
    }
  }

  void int_value(std::int64_t i) override { number(static_cast<double>(i), i); }

  void double_value(double d) override { number(d, std::nullopt); }

 private:
  enum class Scope : std::uint8_t {
    Document,  ///< before the root object
    Root,
    DistInfo,
    Events,  ///< inside the traceEvents array
    Event,   ///< inside one event object
    Args,
    Skip,  ///< inside an unrecognized container (depth-counted)
  };
  enum class RootKey : std::uint8_t { Other, TraceEvents, DistributedInfo };
  enum class EventKey : std::uint8_t {
    Other, Ph, Cat, Name, Pid, Tid, Ts, Dur, Args,
  };
  enum class ArgsKey : std::uint8_t {
    Other, Correlation, Stream, CudaEvent, Layer, Microbatch, Phase, Block,
    Collective, CommGroup, CommBytes, CommGroupSize, CommInstance,
    GemmM, GemmN, GemmK, BytesMoved,
  };

  static RootKey root_key_from(std::string_view k) {
    if (k == "traceEvents") return RootKey::TraceEvents;
    if (k == "distributedInfo") return RootKey::DistributedInfo;
    return RootKey::Other;
  }

  static EventKey event_key_from(std::string_view k) {
    if (k == "ph") return EventKey::Ph;
    if (k == "cat") return EventKey::Cat;
    if (k == "name") return EventKey::Name;
    if (k == "pid") return EventKey::Pid;
    if (k == "tid") return EventKey::Tid;
    if (k == "ts") return EventKey::Ts;
    if (k == "dur") return EventKey::Dur;
    if (k == "args") return EventKey::Args;
    return EventKey::Other;
  }

  static ArgsKey args_key_from(std::string_view k) {
    if (k == "correlation") return ArgsKey::Correlation;
    if (k == "stream") return ArgsKey::Stream;
    if (k == "cuda_event") return ArgsKey::CudaEvent;
    if (k == "layer") return ArgsKey::Layer;
    if (k == "microbatch") return ArgsKey::Microbatch;
    if (k == "phase") return ArgsKey::Phase;
    if (k == "block") return ArgsKey::Block;
    if (k == "collective") return ArgsKey::Collective;
    if (k == "comm_group") return ArgsKey::CommGroup;
    if (k == "comm_bytes") return ArgsKey::CommBytes;
    if (k == "comm_group_size") return ArgsKey::CommGroupSize;
    if (k == "comm_instance") return ArgsKey::CommInstance;
    if (k == "gemm_m") return ArgsKey::GemmM;
    if (k == "gemm_n") return ArgsKey::GemmN;
    if (k == "gemm_k") return ArgsKey::GemmK;
    if (k == "bytes_moved") return ArgsKey::BytesMoved;
    return ArgsKey::Other;
  }

  std::uint32_t intern_name(std::string_view s) {
    return s.empty() ? NameId::kInvalidIndex
                     : out_.events.pools()->names.intern(s);
  }

  /// Numeric field dispatch, mirroring get_double()/get_int() of the DOM
  /// path exactly: `d` carries the value double-widened; a key read as an
  /// integer takes `exact` (an integer literal's value) or converts `d`
  /// through json::to_int64, which rejects a value outside the int64 range.
  void number(double d, std::optional<std::int64_t> exact) {
    const auto i = [&] { return exact ? *exact : json::to_int64(d); };
    switch (scope()) {
      case Scope::DistInfo:
        if (dist_rank_key_) out_.rank = static_cast<std::int32_t>(i());
        break;
      case Scope::Event:
        switch (event_key_) {
          case EventKey::Pid:
            staged_.pid = static_cast<std::int32_t>(i());
            break;
          case EventKey::Tid:
            staged_.tid = static_cast<std::int32_t>(i());
            break;
          case EventKey::Ts:
            staged_.ts_ns = json::to_int64(d * kNsPerUs + 0.5);
            break;
          case EventKey::Dur:
            staged_.dur_ns = json::to_int64(d * kNsPerUs + 0.5);
            break;
          default: break;
        }
        break;
      case Scope::Args:
        switch (args_key_) {
          case ArgsKey::Correlation: staged_.correlation = i(); break;
          case ArgsKey::Stream: staged_.stream = i(); break;
          case ArgsKey::CudaEvent: staged_.cuda_event = i(); break;
          case ArgsKey::Layer:
            staged_.layer = static_cast<std::int32_t>(i());
            break;
          case ArgsKey::Microbatch:
            staged_.microbatch = static_cast<std::int32_t>(i());
            break;
          case ArgsKey::CommBytes:
            staged_.has_collective = true;
            staged_.coll_bytes = i();
            break;
          case ArgsKey::CommGroupSize:
            staged_.has_collective = true;
            staged_.coll_group_size = static_cast<std::int32_t>(i());
            break;
          case ArgsKey::CommInstance:
            staged_.has_collective = true;
            staged_.coll_instance = i();
            break;
          case ArgsKey::GemmM:
            staged_.has_gemm = true;
            staged_.gemm_m = i();
            break;
          case ArgsKey::GemmN:
            staged_.has_gemm = true;
            staged_.gemm_n = i();
            break;
          case ArgsKey::GemmK:
            staged_.has_gemm = true;
            staged_.gemm_k = i();
            break;
          case ArgsKey::BytesMoved: staged_.bytes_moved = i(); break;
          default: break;
        }
        break;
      default:
        break;
    }
  }

  Scope scope() const { return stack_.empty() ? Scope::Document : stack_.back(); }
  void push(Scope s) { stack_.push_back(s); }
  void pop() { stack_.pop_back(); }
  void skip(int delta) {
    if (delta > 0) {
      if (scope() != Scope::Skip) {
        stack_.push_back(Scope::Skip);
        skip_depth_ = 1;
      } else {
        ++skip_depth_;
      }
    } else {
      if (--skip_depth_ == 0) stack_.pop_back();
    }
  }

  RankTrace& out_;
  std::vector<Scope> stack_;
  int skip_depth_ = 0;

  RootKey root_key_ = RootKey::Other;
  bool dist_rank_key_ = false;
  EventKey event_key_ = EventKey::Other;
  ArgsKey args_key_ = ArgsKey::Other;

  EventTable::Row staged_;
  bool keep_ = true;
  bool have_cat_ = false;
  bool saw_trace_events_ = false;
};

}  // namespace

std::string to_json_string(const RankTrace& trace, int indent) {
  JsonWriter writer(indent);
  writer.write(trace);
  return std::move(writer).take();
}

namespace {

/// Fallback bytes-per-serialized-event density, used only when the sampled
/// prefix below contains no events (tiny or metadata-only documents).
/// Measured on this writer's compact output for the synthetic ground-truth
/// traces: 352469 bytes / 1595 events ≈ 221; real Kineto files with larger
/// args payloads run wider, which only means a smaller (safe) reserve.
constexpr std::size_t kFallbackBytesPerEvent = 200;

/// How much of the document the density sample reads. 64KB holds a few
/// hundred events — plenty to learn the file's annotation density — and
/// scans in ~80µs, so the estimate stays ~1% of the parse it sizes.
constexpr std::size_t kDensitySampleBytes = 64 * 1024;

/// Estimates the event count of a Kineto document for EventTable::reserve.
/// Replaces the old fixed `size / 200` guess (which drifted with
/// annotation density): count the `"ph"` members — one per event object —
/// in a bounded prefix sample, then extrapolate that measured density to
/// the full document. Scanning the whole file instead would cost ~25% of
/// the parse itself on large traces, for a reserve that only needs to be
/// approximately right.
std::size_t estimate_event_count(std::string_view text) {
  static constexpr std::string_view kNeedle = "\"ph\"";
  const std::string_view sample = text.substr(0, kDensitySampleBytes);
  std::size_t sampled_events = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  for (std::size_t pos = sample.find(kNeedle); pos != std::string_view::npos;
       pos = sample.find(kNeedle, pos + kNeedle.size())) {
    if (sampled_events == 0) first = pos;
    ++sampled_events;
    last = pos;
  }
  if (text.size() <= sample.size()) return sampled_events;
  // One hit gives no inter-event span to measure (last/1 would collapse to
  // the header offset and explode the reserve on wide-event files) — the
  // fixed density is the safer guess for <2 hits.
  if (sampled_events < 2) return text.size() / kFallbackBytesPerEvent;
  // Density over the sampled inter-event span (first to last hit, so the
  // document header and a sample boundary mid-event do not dilute it).
  const std::size_t density =
      std::max<std::size_t>(1, (last - first) / (sampled_events - 1));
  return text.size() / density;
}

/// The hot ingest path: SAX-parse straight into the columnar EventTable —
/// no DOM tree, and event names/annotations go from the input buffer (a
/// caller-owned string or an io::MappedFile mapping) into the string pool
/// without an intermediate owning copy.
}  // namespace

void parse_rank_trace_json(std::string_view text, RankTrace& trace) {
  trace.events.reserve(estimate_event_count(text));
  KinetoSaxHandler handler(trace);
  json::sax_parse(text, handler);
  if (!handler.saw_trace_events()) throw MissingTraceEventsError();
  trace.sort_by_time();
}

RankTrace rank_trace_from_json_string(std::string_view text) {
  RankTrace trace;
  parse_rank_trace_json(text, trace);
  return trace;
}

RankTrace rank_trace_from_json_file(const std::string& path) {
  // The mapping stays alive for the whole parse; every view the scanner
  // hands out is interned (copied) into the trace pools before it returns,
  // so nothing references the mapping afterwards.
  const io::MappedFile file = io::MappedFile::open(path);
  RankTrace trace;
  parse_rank_trace_json(file.view(), trace);
  return trace;
}

std::vector<std::string> write_cluster_trace_files(const ClusterTrace& trace,
                                                   const std::string& prefix) {
  std::vector<std::string> paths;
  paths.reserve(trace.ranks.size());
  // One streaming writer serves every rank: its output buffer (and its
  // per-pool escaped-name memo — ranks of one cluster share TracePools) is
  // allocated once and reused, as is the filename buffer.
  JsonWriter writer;
  std::string path;
  for (const RankTrace& rank : trace.ranks) {
    path.assign(prefix);
    path += "_rank";
    path += std::to_string(rank.rank);
    path += ".json";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      throw std::runtime_error("chrome_trace: cannot open " + path);
    }
    const std::string_view json = writer.write(rank);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!out) {
      throw std::runtime_error("chrome_trace: write failed on " + path);
    }
    paths.push_back(path);
  }
  return paths;
}

// read_cluster_trace lives in trace/ingest.cpp: discovery (numeric-rank
// ordered), the worker-pool fan-out and the deterministic pool merge.

}  // namespace lumos::trace
