// EventTable: the columnar (structure-of-arrays) trace layer.
//
// A Kineto trace is hundreds of thousands of events whose names, phases and
// communicator groups repeat endlessly. The AoS representation this
// replaces (std::vector<TraceEvent>) paid a heap std::string per name per
// event and dragged ~200-byte structs through every analysis loop.
// EventTable stores one column per field, interns every string into a
// TracePools shared by all ranks of a trace ("one pool per trace"), and
// keeps the sparse CollectiveInfo / GemmShape payloads in dense side-tables
// keyed by event index — so parsing allocates each distinct string once and
// the analysis kernels (sm_utilization, breakdown, validate) sweep
// contiguous ts/dur columns.
//
// TraceEvent remains the materialized per-event *view* for authoring and
// report boundaries: push_back() ingests one, materialize()/operator[]
// reconstructs one. operator[] returns a const value on purpose — code that
// used to mutate events in place must use the explicit set_*() column
// mutators (assigning through a temporary would silently no-op).
//
// Thread safety: building (push_back / push_row / append_rows / set_* /
// sort_by_time) is single-threaded, like every other build phase in Lumos. A table that
// is no longer mutated is safe to read from any number of threads; note
// that tables sharing one TracePools must all be frozen before concurrent
// reads start, since interning into any of them mutates the shared pools.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "io/column.h"
#include "trace/event.h"
#include "trace/string_pool.h"

namespace lumos::snapshot {
struct Access;  // raw column access for the binary snapshot reader/writer
}

namespace lumos::trace {

class RowRemap;

class EventTable {
 public:
  /// Creates an empty table with its own fresh TracePools.
  EventTable();
  /// Creates an empty table interning into `pools` (shared across the ranks
  /// of one ClusterTrace and, via TraceParser, with the ExecutionGraph).
  explicit EventTable(std::shared_ptr<TracePools> pools);
  /// Convenience for tests / hand-built traces: `t.events = {e1, e2};`.
  EventTable(std::initializer_list<TraceEvent> events);

  // Copies share the (append-only) pools and deep-copy the columns; moves
  // transfer everything. Cheap enough for the authoring paths that copy
  // traces; the hot paths never copy tables.
  EventTable(const EventTable&) = default;
  EventTable& operator=(const EventTable&) = default;
  EventTable(EventTable&&) = default;
  EventTable& operator=(EventTable&&) = default;

  std::size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }
  void reserve(std::size_t n);

  // -- hot-path column access (no strings, no per-event structs) ------------
  std::span<const std::int64_t> ts_column() const { return ts_; }
  std::span<const std::int64_t> dur_column() const { return dur_; }
  std::span<const std::uint8_t> category_column() const { return cat_; }
  std::span<const std::uint8_t> cuda_api_column() const { return api_; }
  std::span<const std::uint32_t> name_column() const { return name_; }

  EventCategory category(std::size_t i) const {
    return static_cast<EventCategory>(cat_[i]);
  }
  /// CUDA runtime API, pre-parsed once at ingest (CudaApi::None for
  /// non-runtime events) — consumers never call cuda_api_from_name per event.
  CudaApi cuda_api(std::size_t i) const {
    return static_cast<CudaApi>(api_[i]);
  }
  bool is_gpu(std::size_t i) const {
    const auto c = static_cast<EventCategory>(cat_[i]);
    return c == EventCategory::Kernel || c == EventCategory::Memcpy ||
           c == EventCategory::Memset;
  }
  bool is_cpu(std::size_t i) const { return !is_gpu(i); }

  std::int64_t ts_ns(std::size_t i) const { return ts_[i]; }
  std::int64_t dur_ns(std::size_t i) const { return dur_[i]; }
  std::int64_t end_ns(std::size_t i) const { return ts_[i] + dur_[i]; }
  std::int32_t pid(std::size_t i) const { return pid_[i]; }
  std::int32_t tid(std::size_t i) const { return tid_[i]; }
  std::int64_t correlation(std::size_t i) const { return correlation_[i]; }
  std::int64_t stream(std::size_t i) const { return stream_[i]; }
  std::int64_t cuda_event(std::size_t i) const { return cuda_event_[i]; }
  std::int32_t layer(std::size_t i) const { return layer_[i]; }
  std::int32_t microbatch(std::size_t i) const { return microbatch_[i]; }
  std::int64_t bytes_moved(std::size_t i) const { return bytes_moved_[i]; }

  NameId name_id(std::size_t i) const { return {name_[i]}; }
  /// Pooled annotation ids (invalid id encodes the empty string; a valid id
  /// always names non-empty text). The streaming JSON writer keys its
  /// escaped-string memo on these.
  NameId phase_id(std::size_t i) const { return {phase_[i]}; }
  NameId block_id(std::size_t i) const { return {block_[i]}; }
  std::string_view name(std::size_t i) const { return view(name_[i]); }
  std::string_view phase(std::size_t i) const { return view(phase_[i]); }
  std::string_view block(std::size_t i) const { return view(block_[i]); }

  /// True when the event carries any collective metadata (dense side-table
  /// row present). Note CollectiveInfo::valid() additionally requires a
  /// non-empty op: test `collective_op(i).valid()` for that.
  bool has_collective(std::size_t i) const { return coll_idx_[i] >= 0; }
  OpId collective_op(std::size_t i) const {
    const std::int32_t r = coll_idx_[i];
    return {r < 0 ? OpId::kInvalidIndex : coll_.op[static_cast<std::size_t>(r)]};
  }
  GroupId collective_group(std::size_t i) const {
    const std::int32_t r = coll_idx_[i];
    return {r < 0 ? GroupId::kInvalidIndex
                  : coll_.group[static_cast<std::size_t>(r)]};
  }
  std::string_view collective_op_view(std::size_t i) const {
    const OpId id = collective_op(i);
    return id.valid() ? pools_->ops.view(id.index) : std::string_view{};
  }
  std::string_view collective_group_view(std::size_t i) const {
    const GroupId id = collective_group(i);
    return id.valid() ? pools_->groups.view(id.index) : std::string_view{};
  }
  std::int64_t collective_bytes(std::size_t i) const {
    const std::int32_t r = coll_idx_[i];
    return r < 0 ? 0 : coll_.bytes[static_cast<std::size_t>(r)];
  }
  std::int32_t collective_group_size(std::size_t i) const {
    const std::int32_t r = coll_idx_[i];
    return r < 0 ? 0 : coll_.group_size[static_cast<std::size_t>(r)];
  }
  std::int64_t collective_instance(std::size_t i) const {
    const std::int32_t r = coll_idx_[i];
    return r < 0 ? -1 : coll_.instance[static_cast<std::size_t>(r)];
  }
  /// Collective kernel in the TraceEvent::is_gpu() && collective.valid()
  /// sense — the comm-vs-compute split the analyses use.
  bool is_comm_kernel(std::size_t i) const {
    return is_gpu(i) && collective_op(i).valid();
  }

  bool has_gemm(std::size_t i) const { return gemm_idx_[i] >= 0; }
  GemmShape gemm(std::size_t i) const {
    const std::int32_t r = gemm_idx_[i];
    if (r < 0) return {};
    const auto u = static_cast<std::size_t>(r);
    return {gemm_.m[u], gemm_.n[u], gemm_.k[u]};
  }

  // -- building -------------------------------------------------------------
  /// Ingests one materialized event: strings are interned (deduplicated)
  /// into the pools, sparse payloads land in the side-tables.
  void push_back(const TraceEvent& e);

  /// Zero-copy staging row for the SAX JSON reader and the graph producers:
  /// string fields are already interned (kInvalidIndex encodes the empty
  /// string), sparse payloads are flagged. Everything else mirrors
  /// TraceEvent defaults.
  struct Row {
    std::uint8_t cat = 0;
    /// Pre-classified CUDA API. None on a CudaRuntime row means "classify
    /// from the name at push_row", which is what the JSON reader relies on.
    CudaApi api = CudaApi::None;
    std::int64_t ts_ns = 0, dur_ns = 0;
    std::int32_t pid = 0, tid = 0;
    std::int64_t correlation = -1, stream = -1, cuda_event = -1;
    std::int32_t layer = -1, microbatch = -1;
    std::int64_t bytes_moved = 0;
    std::uint32_t name = NameId::kInvalidIndex;
    std::uint32_t phase = NameId::kInvalidIndex;
    std::uint32_t block = NameId::kInvalidIndex;
    bool has_collective = false;
    std::uint32_t coll_op = OpId::kInvalidIndex;
    std::uint32_t coll_group = GroupId::kInvalidIndex;
    std::int64_t coll_bytes = 0;
    std::int32_t coll_group_size = 0;
    std::int64_t coll_instance = -1;
    bool has_gemm = false;
    std::int64_t gemm_m = 0, gemm_n = 0, gemm_k = 0;
  };
  void push_row(const Row& row);

  /// Gathers event `i` back into a staging row (ids of this table's pools).
  Row row(std::size_t i) const;

  /// Appends rows order[k] of `src` (another table), side tables included:
  /// one gather per column, the batch form of push_row(src.row(order[k])).
  /// Pooled ids are copied when `src` shares this table's pools; otherwise
  /// they are interned here row by row in push_back()'s order (name, phase,
  /// block, op, group), so the ids come out as a RowRemap would assign them.
  /// A caller-supplied `remap` (src's pools to this table's) translates
  /// them instead: one that ran intern_rows() over another order first has
  /// fixed the ids' first-appearance order.
  void append_rows(const EventTable& src, std::span<const std::uint32_t> order,
                   RowRemap* remap = nullptr);

  // -- explicit column mutation (no mutable event views exist) --------------
  void set_ts_ns(std::size_t i, std::int64_t v) { ts_[i] = v; }
  void set_dur_ns(std::size_t i, std::int64_t v) { dur_[i] = v; }
  void set_pid(std::size_t i, std::int32_t v) { pid_[i] = v; }
  void set_stream(std::size_t i, std::int64_t v) { stream_[i] = v; }
  void set_correlation(std::size_t i, std::int64_t v) { correlation_[i] = v; }

  /// Stable sort of all columns by (ts, tid) — the canonical trace order.
  /// Rows already in that order (every trace this repo writes) cost one
  /// compare pass and are not moved.
  void sort_by_time();

  /// Re-homes this table onto `pools`, rewriting every pooled id column
  /// through the remap tables (result of StringPool::merge_from: name_map
  /// covers names/phases/blocks — one pool holds all three domains —
  /// op_map/group_map the collective side-table). Invalid ids (the empty
  /// string encoding) are preserved; identity maps skip the column sweep.
  /// This is the merge step of parallel cluster ingest: a worker parses
  /// into a private pools, then the (single-threaded) merge re-interns and
  /// rebinds so the table joins the cluster's shared "one pool per trace"
  /// world. Precondition: each map covers every valid id in its column.
  void rebind_pools(std::shared_ptr<TracePools> pools,
                    std::span<const std::uint32_t> name_map,
                    std::span<const std::uint32_t> op_map,
                    std::span<const std::uint32_t> group_map);

  // -- materialized view (authoring / report boundaries only) ---------------
  TraceEvent materialize(std::size_t i) const;
  /// Const value: reads work everywhere a TraceEvent is expected; writes
  /// through the temporary are a compile error (use set_*).
  const TraceEvent operator[](std::size_t i) const { return materialize(i); }
  const TraceEvent front() const { return materialize(0); }
  const TraceEvent back() const { return materialize(size() - 1); }

  /// Input iterator materializing events on the fly, so existing
  /// `for (const TraceEvent& e : rank.events)` loops keep working on cold
  /// paths (hot paths read columns instead).
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TraceEvent;

    const_iterator(const EventTable* table, std::size_t i)
        : table_(table), i_(i) {}
    TraceEvent operator*() const { return table_->materialize(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const EventTable* table_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  // -- aggregates over columns ----------------------------------------------
  std::int64_t begin_ns() const;  ///< min ts; 0 when empty
  std::int64_t end_ns() const;    ///< max ts+dur; 0 when empty

  // -- pools ----------------------------------------------------------------
  const std::shared_ptr<TracePools>& pools() const { return pools_; }
  const StringPool& names() const { return pools_->names; }

 private:
  // The snapshot layer serializes/reconstructs tables column-by-column
  // (snapshot/snapshot.cpp); nothing else touches raw columns.
  friend struct lumos::snapshot::Access;

  std::string_view view(std::uint32_t id) const {
    return id == NameId::kInvalidIndex ? std::string_view{}
                                       : pools_->names.view(id);
  }
  std::uint32_t intern_or_invalid(StringPool& pool, std::string_view s) {
    return s.empty() ? NameId::kInvalidIndex : pool.intern(s);
  }

  std::shared_ptr<TracePools> pools_;

  // Structure-of-arrays columns, one entry per event. io::Column: owned
  // vectors on the build path, zero-copy views pinned to the mapping on the
  // snapshot-load path (mutation detaches, so builders never notice).
  io::Column<std::uint8_t> cat_;
  io::Column<std::uint8_t> api_;
  io::Column<std::int64_t> ts_;
  io::Column<std::int64_t> dur_;
  io::Column<std::int32_t> pid_;
  io::Column<std::int32_t> tid_;
  io::Column<std::int64_t> correlation_;
  io::Column<std::int64_t> stream_;
  io::Column<std::int64_t> cuda_event_;
  io::Column<std::int32_t> layer_;
  io::Column<std::int32_t> microbatch_;
  io::Column<std::int64_t> bytes_moved_;
  io::Column<std::uint32_t> name_;
  io::Column<std::uint32_t> phase_;
  io::Column<std::uint32_t> block_;

  // Sparse payloads: per-event index into a dense side-table (-1 = none).
  io::Column<std::int32_t> coll_idx_;
  io::Column<std::int32_t> gemm_idx_;
  struct CollectiveColumns {
    io::Column<std::uint32_t> op;
    io::Column<std::uint32_t> group;
    io::Column<std::int64_t> bytes;
    io::Column<std::int32_t> group_size;
    io::Column<std::int64_t> instance;
  } coll_;
  struct GemmColumns {
    io::Column<std::int64_t> m, n, k;
  } gemm_;
};

/// Re-homes staging rows from one TracePools onto another: each source
/// string id is interned into the destination on first sight and memoized,
/// in the order push_back() interns a materialized event (name, phase,
/// block, op, group) — so destination ids come out exactly as
/// push_back(materialize(i)) would assign them, without owning strings.
/// EventTable::append_rows gathers pooled id columns through one.
class RowRemap {
 public:
  RowRemap(const TracePools& from, TracePools& to);
  EventTable::Row operator()(EventTable::Row row);

  /// Interns the strings of rows `rows` of `t` (a table over the source
  /// pools) in push_back()'s order, row by row, so later lookups of those
  /// ids are memo hits and the destination ids follow this order.
  void intern_rows(const EventTable& t, std::span<const std::uint32_t> rows);

 private:
  friend class EventTable;  // append_rows gathers through the memos

  struct Domain {
    const StringPool* from;
    StringPool* to;
    std::vector<std::uint32_t> memo;  ///< source id -> destination id
    std::uint32_t map(std::uint32_t id);
  };
  Domain names_, ops_, groups_;
};

/// All events captured on one rank for one (or more) iterations.
struct RankTrace {
  std::int32_t rank = 0;
  EventTable events;

  /// Sorts events by (ts, tid) — the canonical order used by the parser.
  void sort_by_time() { events.sort_by_time(); }

  /// Earliest start / latest end over all events; 0/0 when empty.
  std::int64_t begin_ns() const { return events.begin_ns(); }
  std::int64_t end_ns() const { return events.end_ns(); }
  std::int64_t span_ns() const { return end_ns() - begin_ns(); }

  /// Distinct CPU thread ids (host events) in ascending order.
  std::vector<std::int32_t> cpu_threads() const;
  /// Distinct CUDA stream ids (device events) in ascending order.
  std::vector<std::int64_t> gpu_streams() const;
};

/// Traces from every simulated rank of a job, plus job-level metadata.
struct ClusterTrace {
  std::vector<RankTrace> ranks;

  /// Appends a rank whose EventTable shares one TracePools across the whole
  /// cluster (creating the pools on first use) — the "one pool per trace"
  /// rule every producer (chrome_trace reader, SimResult::to_trace, the
  /// ground-truth engine) follows.
  RankTrace& add_rank(std::int32_t rank);

  /// The pools shared by ranks created via add_rank(); null for
  /// hand-assembled traces whose ranks own separate pools.
  const std::shared_ptr<TracePools>& shared_pools() const { return pools_; }

  /// Wall-clock iteration time: max end - min begin over all ranks.
  std::int64_t iteration_ns() const;

  std::size_t total_events() const;

 private:
  std::shared_ptr<TracePools> pools_;
};

}  // namespace lumos::trace
