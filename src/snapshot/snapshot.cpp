#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "io/column.h"
#include "io/fnv.h"
#include "io/mapped_file.h"
#include "support/thread_annotations.h"
#include "trace/event_table.h"

namespace lumos::snapshot {

// The format stores raw little-endian column bytes; a big-endian build
// would need byte-swapping fixup that nothing in this codebase targets.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian build");

namespace {

constexpr char kMagic[8] = {'L', 'U', 'M', 'O', 'S', 'N', 'A', 'P'};

/// Id 3 held v3's per-rank trace columns and stays unused.
enum SectionId : std::uint32_t {
  kSectionMeta = 1,   ///< opaque api-layer JSON
  kSectionPools = 2,  ///< the graph's string pools (names / ops / groups)
  kSectionGraph = 4,  ///< edges, task payloads, meta columns, lanes, groups
  kSectionProgram = 5,  ///< the compiled ReplayProgram, or empty
};
/// Every section of an image, in the order write() emits them.
constexpr SectionId kSections[] = {kSectionMeta, kSectionPools, kSectionGraph,
                                   kSectionProgram};

#pragma pack(push, 1)
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t payload_checksum;  ///< io::fnv1a_words over the payload bytes
  std::uint64_t file_size;         ///< total file length (truncation check)
};
struct SectionEntry {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;  ///< from file start, 8-byte aligned
  std::uint64_t length;
};
#pragma pack(pop)
static_assert(sizeof(Header) == 32, "header layout is part of the format");
static_assert(sizeof(SectionEntry) == 24,
              "section entry layout is part of the format");

[[noreturn]] void fail_corrupt(const std::string& what) {
  throw Error(ErrorKind::kCorrupt, "snapshot: " + what);
}

std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

/// Append-only serialization buffer. Every scalar is widened to 8 bytes
/// and every array is padded to an 8-byte boundary, so all offsets stay
/// 8-aligned and the reader can view columns in place without fixup.
class Buffer {
 public:
  /// Starts with `prefix` zero bytes (room for the header and table).
  explicit Buffer(std::size_t prefix) : bytes_(prefix, '\0') {}

  std::size_t size() const { return bytes_.size(); }
  std::string& bytes() { return bytes_; }

  template <class T>
  void put(T v) {
    static_assert(std::is_scalar_v<T>, "serialize scalars only (no padding)");
    if constexpr (std::is_floating_point_v<T>) {
      const double wide = static_cast<double>(v);
      append(&wide, sizeof(wide));
    } else if constexpr (std::is_signed_v<T>) {
      const std::int64_t wide = static_cast<std::int64_t>(v);
      append(&wide, sizeof(wide));
    } else {
      const std::uint64_t wide = static_cast<std::uint64_t>(v);
      append(&wide, sizeof(wide));
    }
  }

  template <class T>
  void put_array(const T* data, std::size_t n) {
    static_assert(std::is_scalar_v<T> ||
                      std::has_unique_object_representations_v<T>,
                  "serialize scalar columns or padding-free records only — "
                  "struct padding would make the payload checksum "
                  "nondeterministic");
    put(static_cast<std::uint64_t>(n));
    append(data, n * sizeof(T));
    pad();
  }

  template <class T>
  void put_array(const std::vector<T>& v) {
    put_array(v.data(), v.size());
  }

  void put_bytes(std::string_view s) {
    put(static_cast<std::uint64_t>(s.size()));
    append(s.data(), s.size());
    pad();
  }

 private:
  void append(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }
  void pad() { bytes_.resize(align8(bytes_.size()), '\0'); }

  std::string bytes_;
};

/// Bounds-checked reading cursor over one section of the mapping. Columns
/// come back as io::Column borrows pinned to `keepalive` (the MappedFile).
class Cursor {
 public:
  Cursor(std::string_view data, std::shared_ptr<const void> keepalive)
      : data_(data), keepalive_(std::move(keepalive)) {}

  template <class T>
  T get() {
    static_assert(std::is_scalar_v<T>);
    if constexpr (std::is_floating_point_v<T>) {
      double wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    } else if constexpr (std::is_signed_v<T>) {
      std::int64_t wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    } else {
      std::uint64_t wide;
      std::memcpy(&wide, take(sizeof(wide)), sizeof(wide));
      return static_cast<T>(wide);
    }
  }

  template <class T>
  std::span<const T> get_span() {
    const auto n = get<std::uint64_t>();
    if (n > data_.size() / sizeof(T)) fail_corrupt("column length overflow");
    const char* p = take(static_cast<std::size_t>(n) * sizeof(T));
    pad();
    return {reinterpret_cast<const T*>(p), static_cast<std::size_t>(n)};
  }

  /// Zero-copy column view into the mapping.
  template <class T>
  io::Column<T> get_column() {
    const std::span<const T> s = get_span<T>();
    if (s.empty()) return {};
    return io::Column<T>::borrow(s.data(), s.size(), keepalive_);
  }

  std::string_view get_bytes() {
    const auto n = get<std::uint64_t>();
    if (n > data_.size()) fail_corrupt("blob length overflow");
    const char* p = take(static_cast<std::size_t>(n));
    pad();
    return {p, static_cast<std::size_t>(n)};
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  const char* take(std::size_t n) {
    if (n > data_.size() - pos_) fail_corrupt("truncated section");
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  void pad() {
    const std::size_t aligned = align8(pos_);
    if (aligned > data_.size()) fail_corrupt("truncated section");
    pos_ = aligned;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::shared_ptr<const void> keepalive_;
};

void write_pool(Buffer& buf, const trace::StringPool& pool) {
  std::vector<std::uint64_t> offsets(pool.size() + 1, 0);
  std::string blob;
  for (std::size_t id = 0; id < pool.size(); ++id) {
    blob += pool.view(static_cast<std::uint32_t>(id));
    offsets[id + 1] = blob.size();
  }
  buf.put(static_cast<std::uint64_t>(pool.size()));
  buf.put_array(offsets);
  buf.put_bytes(blob);
}

void read_pool(Cursor& cur, trace::StringPool& pool) {
  const auto count = cur.get<std::uint64_t>();
  const std::span<const std::uint64_t> offsets = cur.get_span<std::uint64_t>();
  const std::string_view blob = cur.get_bytes();
  // offsets.size() - 1 cannot wrap: count + 1 would, for a count of 2^64-1.
  if (offsets.empty() || offsets.size() - 1 != count) {
    fail_corrupt("pool offset table size");
  }
  for (std::uint64_t id = 0; id < count; ++id) {
    const std::uint64_t lo = offsets[id], hi = offsets[id + 1];
    if (lo > hi || hi > blob.size()) fail_corrupt("pool offsets out of range");
    // Re-interning in serialized id order reproduces the serialized ids
    // exactly (first-intern-order determinism), so every id column in the
    // payload resolves without translation.
    const std::uint32_t got = pool.intern(
        blob.substr(static_cast<std::size_t>(lo),
                    static_cast<std::size_t>(hi - lo)));
    if (got != id) fail_corrupt("pool contains duplicate strings");
  }
}

}  // namespace

/// The one friend of the columnar tables: serializes and reconstructs them
/// column by column. The visit_* functions define the on-disk column order
/// — writer and reader share them, so the two can never disagree.
struct Access {
  /// The pool a string-id column indexes (kNone: not an id column). The
  /// reader checks each id column against its pool.
  enum class Domain : std::uint8_t { kNone, kName, kOp, kGroup };

  template <class Table, class F>
  static void visit_event_columns(Table& t, F&& f) {
    f(t.cat_, Domain::kNone);
    f(t.api_, Domain::kNone);
    f(t.ts_, Domain::kNone);
    f(t.dur_, Domain::kNone);
    f(t.pid_, Domain::kNone);
    f(t.tid_, Domain::kNone);
    f(t.correlation_, Domain::kNone);
    f(t.stream_, Domain::kNone);
    f(t.cuda_event_, Domain::kNone);
    f(t.layer_, Domain::kNone);
    f(t.microbatch_, Domain::kNone);
    f(t.bytes_moved_, Domain::kNone);
    f(t.name_, Domain::kName);
    f(t.phase_, Domain::kName);
    f(t.block_, Domain::kName);
    f(t.coll_idx_, Domain::kNone);
    f(t.gemm_idx_, Domain::kNone);
    f(t.coll_.op, Domain::kOp);
    f(t.coll_.group, Domain::kGroup);
    f(t.coll_.bytes, Domain::kNone);
    f(t.coll_.group_size, Domain::kNone);
    f(t.coll_.instance, Domain::kNone);
    f(t.gemm_.m, Domain::kNone);
    f(t.gemm_.n, Domain::kNone);
    f(t.gemm_.k, Domain::kNone);
  }

  /// The graph's edges: src, dst, type.
  template <class Graph, class F>
  static void visit_edge_columns(Graph& g, F&& f) {
    f(g.edge_src_, Domain::kNone);
    f(g.edge_dst_, Domain::kNone);
    f(g.edge_type_, Domain::kNone);
  }

  /// The meta table's stored columns: per task, then the lanes, then the
  /// rendezvous CSR. What it reads in place (the rows' event columns) and
  /// what it derives (TaskMetaTable::index) are not written.
  template <class Table, class F>
  static void visit_meta_columns(Table& t, F&& f) {
    f(t.flags_, Domain::kNone);
    f(t.lane_, Domain::kNone);
    f(t.coll_op_, Domain::kOp);
    f(t.coll_group_, Domain::kGroup);
    f(t.coll_instance_, Domain::kNone);
    f(t.sync_lane_, Domain::kNone);
    f(t.sync_before_, Domain::kNone);
    f(t.lanes_.rank_, Domain::kNone);
    f(t.lanes_.gpu_, Domain::kNone);
    f(t.lanes_.lane_, Domain::kNone);
    f(t.group_id_, Domain::kGroup);
    f(t.group_instance_, Domain::kNone);
    f(t.member_offsets_, Domain::kNone);
    f(t.members_, Domain::kNone);
  }

  /// Rejects an event table whose per-event columns disagree with `rows`
  /// or whose side-table columns disagree with each other.
  static void check_event_lengths(const trace::EventTable& t,
                                  std::size_t rows);
  /// Rejects a collective or GEMM side-table index outside
  /// [-1, side-table length): the event accessors read through them.
  static void check_side_table_indices(const trace::EventTable& t);
  /// Category and CUDA-API bytes against their enums' last values.
  static void check_event_enums(const trace::EventTable& t);
  /// Rejects edge columns of unequal length, an edge type outside DepType
  /// or an endpoint outside [0, tasks): the CSR adjacency build indexes
  /// with them.
  static void check_edges(const core::ExecutionGraph& g, std::size_t tasks);
  /// Rejects a meta per-task column not `rows` long, lane columns of
  /// unequal length, or group columns that disagree on the group count.
  static void check_meta_lengths(const core::TaskMetaTable& t,
                                 std::size_t rows);
  /// Rejects a meta lane id (or a resolved sync lane) outside the lane
  /// table: the compiler, ReplayProgram::run and the simulator index
  /// per-lane arrays with them.
  static void check_meta_lanes(const core::TaskMetaTable& t);
  /// Rejects a rendezvous member outside [0, tasks) or a group whose
  /// member range is reversed or past the member column.
  static void check_groups(const core::TaskMetaTable& t, std::size_t tasks);

  /// The program section: the instruction, operand and member records.
  /// Writes nothing (an empty section) unless `p` is sized for `meta`, the
  /// only program read_program() can install.
  static void write_program(Buffer& buf, const core::ReplayProgram& p,
                            const core::TaskMetaTable& meta);
  /// Maps a non-empty program section over `meta`'s graph, bounds-checked
  /// so that run() stays in range on any image; durations are borrowed
  /// from the graph's row `dur` column.
  static std::shared_ptr<const core::ReplayProgram> read_program(
      Cursor& cur, const core::TaskMetaTable& meta);

  /// Installs the rows and derives the indexes (TaskMetaTable::index)
  /// over the checked stored columns.
  static void index_meta(core::TaskMetaTable& t,
                         std::shared_ptr<const core::ColumnTaskSource> rows) {
    t.columns_ = std::move(rows);
    if (!t.index()) {
      fail_corrupt("graph section: rendezvous member listed twice");
    }
  }
  /// Replaces a fresh graph's (empty) rows.
  static void install_columns(core::ExecutionGraph& g,
                              std::shared_ptr<core::ColumnTaskSource> c) {
    g.columns_ = std::move(c);
  }
  /// Analysis escape: the loader owns `g` exclusively — it is a fresh
  /// graph still being assembled, unpublished to any other thread — so the
  /// meta cache is written without its mutex.
  static void install_meta(core::ExecutionGraph& g,
                           std::shared_ptr<const core::TaskMetaTable> meta)
      LUMOS_NO_THREAD_SAFETY_ANALYSIS {
    g.meta_ = std::move(meta);
    g.meta_valid_.store(true, std::memory_order_relaxed);
  }
};

namespace {

/// Fails unless every column holds exactly `rows` entries — a short column
/// would otherwise be read out of bounds by its first consumer.
template <class... Columns>
void expect_rows(std::size_t rows, const std::string& what,
                 const Columns&... columns) {
  if (((columns.size() != rows) || ...)) {
    fail_corrupt(what + " column length mismatch");
  }
}

}  // namespace

void Access::check_event_lengths(const trace::EventTable& t,
                                 std::size_t rows) {
  expect_rows(rows, "graph section: event", t.cat_, t.api_, t.ts_, t.dur_,
              t.pid_, t.tid_, t.correlation_, t.stream_, t.cuda_event_,
              t.layer_, t.microbatch_, t.bytes_moved_, t.name_, t.phase_,
              t.block_, t.coll_idx_, t.gemm_idx_);
  expect_rows(t.coll_.op.size(), "graph section: collective side-table",
              t.coll_.group, t.coll_.bytes, t.coll_.group_size,
              t.coll_.instance);
  expect_rows(t.gemm_.m.size(), "graph section: gemm side-table", t.gemm_.n,
              t.gemm_.k);
}

void Access::check_meta_lengths(const core::TaskMetaTable& t,
                                std::size_t rows) {
  expect_rows(rows, "graph section: meta", t.flags_, t.lane_, t.coll_op_,
              t.coll_group_, t.coll_instance_, t.sync_lane_, t.sync_before_);
  expect_rows(t.lanes_.rank_.size(), "graph section: lane", t.lanes_.gpu_,
              t.lanes_.lane_);
  if (t.group_instance_.size() != t.group_id_.size() ||
      t.member_offsets_.size() != t.group_id_.size() + 1) {
    fail_corrupt("graph section: group column length mismatch");
  }
}

namespace {

/// Whether `id` indexes an array of `bound` entries.
bool in_range(std::int64_t id, std::size_t bound) {
  return id >= 0 && static_cast<std::uint64_t>(id) < bound;
}

/// Whether every 32-bit id in `ids` is -1 (a pool's kInvalidIndex, or "no
/// side-table row") or below `bound`. As unsigned, id + 1 wraps -1 to 0 and
/// takes every other id to id + 1, so one max-reduction decides.
template <class Ids>
bool ids_in_range(const Ids& ids, std::size_t bound) {
  std::uint32_t top = 0;
  for (const auto id : ids) {
    top = std::max(top, static_cast<std::uint32_t>(id) + 1u);
  }
  return top <= bound;
}

}  // namespace

void Access::check_edges(const core::ExecutionGraph& g, std::size_t tasks) {
  expect_rows(g.edge_src_.size(), "graph section: edge", g.edge_dst_,
              g.edge_type_);
  for (const core::Edge& e : g.edges()) {
    if (static_cast<std::size_t>(e.type) >= core::kDepTypeCount) {
      fail_corrupt("graph section: edge type out of range");
    }
    if (!in_range(e.src, tasks) || !in_range(e.dst, tasks)) {
      fail_corrupt("graph section: edge endpoint out of range");
    }
  }
}

void Access::check_side_table_indices(const trace::EventTable& t) {
  if (!ids_in_range(t.coll_idx_, t.coll_.op.size())) {
    fail_corrupt("graph section: collective side-table index out of range");
  }
  if (!ids_in_range(t.gemm_idx_, t.gemm_.m.size())) {
    fail_corrupt("graph section: gemm side-table index out of range");
  }
}

void Access::check_event_enums(const trace::EventTable& t) {
  const auto max_byte = [](std::span<const std::uint8_t> column) {
    std::uint8_t top = 0;
    for (const std::uint8_t b : column) top = std::max(top, b);
    return top;
  };
  if (max_byte(t.cat_) >
      static_cast<std::uint8_t>(trace::EventCategory::UserAnnotation)) {
    fail_corrupt("graph section: event cat column value out of range");
  }
  if (max_byte(t.api_) >
      static_cast<std::uint8_t>(trace::CudaApi::EventSynchronize)) {
    fail_corrupt("graph section: event api column value out of range");
  }
}

void Access::check_meta_lanes(const core::TaskMetaTable& t) {
  const std::size_t lanes = t.lanes_.size();
  for (const core::LaneId lane : t.lane_) {
    if (!in_range(lane, lanes)) {
      fail_corrupt("graph section: meta lane id out of range");
    }
  }
  for (const core::LaneId lane : t.sync_lane_) {
    if (lane != core::kInvalidLane && !in_range(lane, lanes)) {
      fail_corrupt("graph section: meta lane id out of range");
    }
  }
}

void Access::check_groups(const core::TaskMetaTable& t, std::size_t tasks) {
  for (const core::TaskId m : t.members_) {
    if (!in_range(m, tasks)) {
      fail_corrupt("graph section: rendezvous member id out of range");
    }
  }
  const std::span<const std::uint64_t> offsets = t.member_offsets_;
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1] || offsets[i + 1] > t.members_.size()) {
      fail_corrupt("graph section: group member offsets out of range");
    }
  }
}

void Access::write_program(Buffer& buf, const core::ReplayProgram& p,
                           const core::TaskMetaTable& meta) {
  if (p.task_count_ != meta.size() ||
      p.lane_count_ != meta.lanes().size() ||
      p.collective_count_ != meta.rendezvous_group_count()) {
    return;
  }
  buf.put_array(p.instrs_.data(), p.instrs_.size());
  buf.put_array(p.operands_.data(), p.operands_.size());
  buf.put_array(p.members_.data(), p.members_.size());
}

std::shared_ptr<const core::ReplayProgram> Access::read_program(
    Cursor& cur, const core::TaskMetaTable& meta) {
  using Program = core::ReplayProgram;
  const std::size_t tasks = meta.size();
  const std::size_t lanes = meta.lanes().size();
  const std::size_t groups = meta.rendezvous_group_count();
  auto program = std::make_shared<Program>();
  program->task_count_ = tasks;
  program->lane_count_ = lanes;
  program->collective_count_ = groups;
  program->instrs_ = cur.get_column<Program::Instr>();
  program->operands_ = cur.get_column<core::TaskId>();
  program->members_ = cur.get_column<Program::Member>();
  program->durations_ = meta.columns().events().dur_;

  // One instruction per task and per group: with the count equal to
  // tasks + groups, a slot seen twice is the only way to miss one.
  const std::span<const Program::Instr> instrs = program->instrs_;
  if (instrs.size() != tasks + groups) {
    fail_corrupt("program section: instruction count does not match the "
                 "graph");
  }
  std::vector<bool> seen(instrs.size(), false);
  for (const Program::Instr& ins : instrs) {
    std::size_t slot = 0;
    std::size_t limit = 0;
    switch (ins.op) {
      case Program::Op::kRun:
      case Program::Op::kArrive:
        if (!in_range(ins.id, tasks)) {
          fail_corrupt("program section: task id out of range");
        }
        if (!in_range(ins.lane, lanes)) {
          fail_corrupt("program section: lane id out of range");
        }
        slot = static_cast<std::size_t>(ins.id);
        limit = program->operands_.size();
        break;
      case Program::Op::kRendezvous:
        if (!in_range(ins.id, groups)) {
          fail_corrupt("program section: group id out of range");
        }
        if (ins.count == 0) {
          fail_corrupt("program section: empty rendezvous group");
        }
        slot = tasks + static_cast<std::size_t>(ins.id);
        limit = program->members_.size();
        break;
      default:
        fail_corrupt("program section: unknown op");
    }
    if (std::uint64_t{ins.first} + ins.count > limit) {
      fail_corrupt("program section: operand or member range out of bounds");
    }
    if (seen[slot]) fail_corrupt("program section: repeated instruction");
    seen[slot] = true;
  }
  for (const core::TaskId t : program->operands_) {
    if (!in_range(t, tasks)) {
      fail_corrupt("program section: operand task id out of range");
    }
  }
  for (const Program::Member& m : program->members_) {
    if (!in_range(m.task, tasks)) {
      fail_corrupt("program section: member task id out of range");
    }
    if (!in_range(m.lane, lanes)) {
      fail_corrupt("program section: member lane id out of range");
    }
    if (m.p2p > 1) fail_corrupt("program section: member p2p flag not 0/1");
  }
  if (!program->accepts(program->durations_)) {
    fail_corrupt("program section: durations are not all positive");
  }
  return program;
}

namespace {

/// The pool a string-id column of domain `d` indexes.
const trace::StringPool& domain_pool(const trace::TracePools& pools,
                                     Access::Domain d) {
  switch (d) {
    case Access::Domain::kOp: return pools.ops;
    case Access::Domain::kGroup: return pools.groups;
    default: return pools.names;
  }
}

/// Writes each column as stored: the image carries the graph's own pools,
/// so string ids need no translation.
struct ColumnWriter {
  Buffer& buf;

  template <class T>
  void operator()(const io::Column<T>& col, Access::Domain) const {
    buf.put_array(col.data(), col.size());
  }
};

/// Borrows each column from the mapping and rejects a string id outside
/// its pool: views resolve ids through StringPool::view unchecked.
struct ColumnReader {
  Cursor& cur;
  const trace::TracePools& pools;

  template <class T>
  void operator()(io::Column<T>& col, Access::Domain d) const {
    col = cur.get_column<T>();
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      if (d != Access::Domain::kNone &&
          !ids_in_range(col, domain_pool(pools, d).size())) {
        fail_corrupt("graph section: string pool id out of range");
      }
    }
  }
};

void write_event_table(Buffer& buf, const trace::EventTable& t) {
  buf.put(static_cast<std::uint64_t>(t.size()));
  Access::visit_event_columns(t, ColumnWriter{buf});
}

trace::EventTable read_event_table(Cursor& cur,
                                   std::shared_ptr<trace::TracePools> pools) {
  const auto size = cur.get<std::uint64_t>();
  trace::EventTable t(std::move(pools));
  Access::visit_event_columns(t, ColumnReader{cur, *t.pools()});
  Access::check_event_lengths(t, static_cast<std::size_t>(size));
  Access::check_side_table_indices(t);
  Access::check_event_enums(t);
  return t;
}

void write_graph(Buffer& buf, const core::ExecutionGraph& graph) {
  Access::visit_edge_columns(graph, ColumnWriter{buf});

  // Task payloads: the graph's column payload — processors as scalar
  // columns + the event rows.
  const core::TaskMetaTable& meta = graph.meta();
  const core::ColumnTaskSource& cols = meta.columns();
  buf.put_array(cols.rank_column().data(), cols.count());
  buf.put_array(cols.gpu_column().data(), cols.count());
  buf.put_array(cols.lane_column().data(), cols.count());
  write_event_table(buf, cols.events());

  // The finalized meta table's stored columns, lanes and rendezvous groups
  // included; the loader re-derives the rest.
  buf.put(static_cast<std::uint64_t>(meta.size()));
  Access::visit_meta_columns(meta, ColumnWriter{buf});
}

std::shared_ptr<const core::ExecutionGraph> read_graph(
    Cursor& cur, std::shared_ptr<trace::TracePools> pools) {
  auto graph = std::make_shared<core::ExecutionGraph>();
  Access::visit_edge_columns(*graph, ColumnReader{cur, *pools});

  io::Column<std::int32_t> rank = cur.get_column<std::int32_t>();
  io::Column<std::uint8_t> gpu = cur.get_column<std::uint8_t>();
  io::Column<std::int64_t> lane = cur.get_column<std::int64_t>();
  trace::EventTable events = read_event_table(cur, pools);
  const std::size_t tasks = events.size();
  if (rank.size() != tasks || gpu.size() != tasks || lane.size() != tasks) {
    fail_corrupt("graph section: task column length mismatch");
  }
  Access::check_edges(*graph, tasks);
  auto columns = std::make_shared<core::ColumnTaskSource>(
      std::move(events), std::move(rank), std::move(gpu), std::move(lane));
  Access::install_columns(*graph, columns);

  core::TaskMetaTable meta;
  const auto meta_size = cur.get<std::uint64_t>();
  if (meta_size != tasks) {
    fail_corrupt("graph section: meta row count does not match task count");
  }
  Access::visit_meta_columns(meta, ColumnReader{cur, *pools});
  Access::check_meta_lengths(meta, tasks);
  Access::check_meta_lanes(meta);
  Access::check_groups(meta, tasks);
  // Lane and member ids are in range now, so every derived index is too.
  Access::index_meta(meta, std::move(columns));

  Access::install_meta(
      *graph, std::make_shared<const core::TaskMetaTable>(std::move(meta)));
  return graph;
}

}  // namespace

void write(const std::string& path, const Bundle& bundle) {
  // One image, sections in id order. Header and table fill the zeroed
  // prefix once the payload is complete.
  constexpr std::size_t kSectionCount = std::size(kSections);
  const std::size_t payload_start =
      sizeof(Header) + kSectionCount * sizeof(SectionEntry);
  Buffer image(payload_start);
  SectionEntry table[kSectionCount];
  std::size_t sections = 0;
  const auto section = [&](std::uint32_t id, auto&& emit) {
    const std::size_t offset = image.size();
    emit();
    table[sections++] = {id, 0, offset, image.size() - offset};
  };
  const core::TaskMetaTable& meta = bundle.graph->meta();
  section(kSectionMeta, [&] { image.put_bytes(bundle.meta_json); });
  section(kSectionPools, [&] {
    write_pool(image, meta.names());
    write_pool(image, meta.ops());
    write_pool(image, meta.groups());
  });
  section(kSectionGraph, [&] { write_graph(image, *bundle.graph); });
  section(kSectionProgram, [&] {
    if (bundle.program != nullptr) {
      Access::write_program(image, *bundle.program, meta);
    }
  });

  std::string& file_bytes = image.bytes();
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = kSectionCount;
  header.payload_checksum = io::fnv1a_words(
      file_bytes.data() + payload_start, file_bytes.size() - payload_start);
  header.file_size = file_bytes.size();
  std::memcpy(file_bytes.data(), &header, sizeof(header));
  std::memcpy(file_bytes.data() + sizeof(header), table, sizeof(table));

  // Crash safety: the image lands under a temporary name in the target
  // directory (same filesystem, so the final step can be rename(2)), is
  // fsync'd, then atomically renamed over `path`. A process killed at any
  // point leaves either the previous snapshot or a stray .tmp — never a
  // torn LUMOSNAP image under the target name. The temp name embeds the
  // pid so two writers racing on one path cannot interleave into one temp
  // file; the loser's rename still wins or loses atomically.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error(ErrorKind::kIo, "snapshot: cannot open '" + tmp_path +
                                    "' for writing: " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < file_bytes.size()) {
    const ssize_t n = ::write(fd, file_bytes.data() + written,
                              file_bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: without it the rename can be durable while the
  // data is not, which is exactly the torn-image window the temp file is
  // supposed to close.
  const bool synced = written == file_bytes.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    ::unlink(tmp_path.c_str());
    throw Error(ErrorKind::kIo, "snapshot: short write to '" + tmp_path + "'");
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_path.c_str());
    throw Error(ErrorKind::kIo, "snapshot: cannot rename '" + tmp_path +
                                    "' to '" + path +
                                    "': " + std::strerror(err));
  }
}

namespace {

Header checked_header(std::string_view view, const std::string& path) {
  if (view.size() < sizeof(Header)) {
    fail_corrupt("'" + path + "' is too short for a snapshot header");
  }
  Header header;
  std::memcpy(&header, view.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    fail_corrupt("'" + path + "' is not a lumos snapshot (bad magic)");
  }
  if (header.version != kFormatVersion) {
    throw Error(ErrorKind::kVersion,
                "snapshot: '" + path + "' has format version " +
                    std::to_string(header.version) + ", this build reads " +
                    std::to_string(kFormatVersion));
  }
  return header;
}

}  // namespace

Bundle load(const std::string& path) {
  std::shared_ptr<io::MappedFile> file;
  try {
    file = std::make_shared<io::MappedFile>(io::MappedFile::open(path));
  } catch (const std::exception& e) {
    throw Error(ErrorKind::kIo, std::string("snapshot: ") + e.what());
  }
  const std::string_view view = file->view();
  const Header header = checked_header(view, path);
  if (header.file_size != view.size()) {
    fail_corrupt("'" + path + "' is truncated (header says " +
                 std::to_string(header.file_size) + " bytes, file has " +
                 std::to_string(view.size()) + ")");
  }
  const std::size_t table_bytes =
      static_cast<std::size_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_count > 64 ||
      sizeof(Header) + table_bytes > view.size()) {
    fail_corrupt("section table out of range");
  }
  const std::size_t payload_start = sizeof(Header) + table_bytes;
  if (io::fnv1a_words(view.data() + payload_start,
                      view.size() - payload_start) !=
      header.payload_checksum) {
    fail_corrupt("'" + path + "' payload checksum mismatch");
  }

  std::string_view section_views[kSectionProgram + 1];  // by SectionId
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, view.data() + sizeof(Header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.offset % 8 != 0 || entry.offset < payload_start ||
        entry.offset > view.size() ||
        entry.length > view.size() - entry.offset) {
      fail_corrupt("section bounds out of range");
    }
    if (entry.id < std::size(section_views)) {
      section_views[entry.id] =
          view.substr(static_cast<std::size_t>(entry.offset),
                      static_cast<std::size_t>(entry.length));
    }
  }
  for (const SectionId id : kSections) {
    if (section_views[id].data() == nullptr) {
      fail_corrupt("missing section " + std::to_string(id));
    }
  }

  Bundle bundle;
  {
    Cursor cur(section_views[kSectionMeta], file);
    bundle.meta_json = std::string(cur.get_bytes());
  }

  auto pools = std::make_shared<trace::TracePools>();
  {
    Cursor cur(section_views[kSectionPools], file);
    read_pool(cur, pools->names);
    read_pool(cur, pools->ops);
    read_pool(cur, pools->groups);
  }

  {
    Cursor cur(section_views[kSectionGraph], file);
    bundle.graph = read_graph(cur, pools);
  }

  if (!section_views[kSectionProgram].empty()) {
    Cursor cur(section_views[kSectionProgram], file);
    bundle.program = Access::read_program(cur, bundle.graph->meta());
  }
  return bundle;
}

std::uint64_t peek_content_hash(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorKind::kIo, "snapshot: cannot open '" + path +
                                    "': " + std::strerror(errno));
  }
  char bytes[sizeof(Header)];
  const std::size_t got = std::fread(bytes, 1, sizeof(bytes), f);
  std::fclose(f);
  const Header header =
      checked_header(std::string_view(bytes, got), path);
  return header.payload_checksum;
}

}  // namespace lumos::snapshot
