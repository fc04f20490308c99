// Versioned, mmap-able binary snapshots of a finalized baseline.
//
// A snapshot is the flat, load-ready image of everything a prediction
// reads: the parsed ExecutionGraph (edge columns, task rows, and the stored
// columns of its TaskMetaTable: flags, lanes, collective ids, sync targets,
// the lane columns and the rendezvous CSR), the graph's string pools, its
// compiled core::ReplayProgram, plus an opaque api-layer metadata JSON
// (scenario, model, config). The graph rows are the image's only event
// table: the profiled trace the graph was parsed from is not stored, since
// no prediction reads it. Every array is stored in the element types and
// order the in-memory structure holds it, so write() emits each column as
// it is and loading is io::MappedFile + offset fixup: every column — edges,
// lanes and rendezvous groups included — comes back as an io::Column
// borrow straight into the mapping. No JSON, no re-parse, no
// re-classification, no re-compile, no per-element copy. Only the string
// pools are rebuilt owning, and the meta table's indexes are re-derived
// (below).
//
// Layout (format v4, little-endian, every section 8-byte aligned):
//
//   Header   { magic "LUMOSNAP", version, section count, payload FNV,
//              file size }                                   (32 bytes)
//   Sections [ {id, offset, length} ... ]
//   Payload  meta-JSON (1) | pools (2) | graph columns (4) | program (5)
//
// write() emits the sections in id order; the loader finds each through
// the table and rebuilds the pools first. Id 3 (the v3 trace section) is
// retired. The graph section stores what TaskMetaTable
// classifies, not what it reads in place (category, CUDA API, duration, ts
// and name are the rows' event columns) nor what it derives (the lane
// lookup / rank / GPU-lane indexes, the GPU tasks per lane and the group
// index). The program section holds the instruction records, the operand
// ids and the rendezvous member records as length-prefixed arrays. It
// stores no counts (the graph's meta table has them) and no durations: the
// loaded program borrows the graph's row `dur` column. A bundle without a
// program writes an empty section and loads with `program == nullptr`; the
// api layer compiles before it saves, so there a null program means the
// graph does not compile.
//
// The header pins one digest, `payload_checksum`: io::fnv1a_words over the
// payload bytes, verified on every load (truncation and bit-flips surface
// as Error{kCorrupt} instead of garbage predictions). It covers the meta
// JSON (scenario, build and parser options), the graph, the program and
// the pools — everything a prediction reads — so it is also the serving
// layer's cache key, readable via peek_content_hash() without touching the
// payload. write() is deterministic, so equal content shares one key.
//
// What load re-derives, checks and trusts. The checksum guards integrity,
// not authenticity, so the loader
//   - checks every stored id a consumer indexes with: edge endpoints and
//     types, string pool ids (every id column of the rows, the meta table
//     and the rendezvous groups is invalid or below its pool's size), the
//     rows' collective / GEMM side-table indices, the rows' category and
//     CUDA-API bytes (each an enumerator), meta lane ids (and
//     resolved sync lanes), rendezvous member ids and member offsets, and
//     in the program section one instruction per task and per group, ops,
//     task / group / lane ids, CSR ranges, operand and member ids, and
//     positive durations;
//   - re-derives every index after those checks (TaskMetaTable::index, the
//     code build() runs), so the lane table, the GPU-task CSR and the group
//     index are in range by construction, and a task listed in two
//     rendezvous slots is rejected;
//   - trusts the classification itself (flags, which collective a task
//     belongs to, sync targets: re-classifying would rebuild the hash maps
//     build() uses) and the compiler's lane-order proof (re-proving it
//     would cost a compile).
// ReplayProgram::run is memory-safe on any image. A crafted image with a
// recomputed checksum can already steer a prediction through its graph
// columns; a stored program adds no new class of silent error, only
// staleness across builds. Hence the version rule: any change to the bytes
// write() emits — including ReplayCompiler's output for a graph — bumps
// kFormatVersion, and load() rejects every other version.
//
// Lifetime rule (the mmap footgun): every borrowed column aliases the
// mapping and pins it via shared_ptr keepalive, so tables, the graph, the
// program and the whole Bundle may outlive the load call and the file may
// even be unlinked afterwards — but the bytes are shared with the page
// cache, so *overwriting* a live snapshot file in place is undefined.
// write() obeys this itself: it lands under a temp name and rename(2)s into
// place, which replaces the directory entry and never scribbles on mapped
// pages.
//
// Error handling: this is a core-layer component (no api:: dependency);
// failures throw snapshot::Error with a structured kind that
// api::load_baseline_snapshot maps onto lumos::Status codes.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/execution_graph.h"
#include "core/replay_program.h"

namespace lumos::snapshot {

/// On-disk format version written by this build; load() rejects others
/// with Error{kVersion}.
inline constexpr std::uint32_t kFormatVersion = 4;

enum class ErrorKind : std::uint8_t {
  kIo,       ///< file missing / unreadable / unwritable
  kCorrupt,  ///< bad magic, truncation, checksum or structure mismatch
  kVersion,  ///< well-formed header of an unsupported format version
};

class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// What a snapshot stores: the frozen graph, its compiled program and the
/// api layer's opaque metadata. On load, graph and program alias the
/// mapping (see the lifetime rule above) and the graph's tasks()
/// materialize lazily — simulation reads meta() only and never pays for
/// them.
struct Bundle {
  std::string meta_json;
  std::shared_ptr<const core::ExecutionGraph> graph;
  /// ReplayCompiler::compile(*graph).program, or null. write() stores it
  /// only when it is sized for `graph` (anything else writes an empty
  /// section); load() returns it checked, or null.
  std::shared_ptr<const core::ReplayProgram> program;
};

/// Serializes `bundle` to `path` crash-safely: the bytes are written to a
/// pid-suffixed ".tmp." file in the target directory, fsync'd, then
/// atomically renamed over `path` — a killed process leaves either the
/// previous image or a stray temp file, never a torn snapshot, and a
/// concurrently mmap'ed old image is never rewritten in place. The graph
/// must be finalized (meta built); its rows and meta table share one pool
/// set, which the image stores as is. Throws Error{kIo} on filesystem
/// failure (the temp file is unlinked on the error paths).
void write(const std::string& path, const Bundle& bundle);

/// Maps `path` and reconstructs the bundle zero-copy. Verifies magic,
/// version, structure, the payload checksum and the bounds listed above,
/// and re-derives the meta table's indexes. Throws Error.
Bundle load(const std::string& path);

/// Reads just the 32-byte header and returns its payload checksum — the
/// cheap cache-key probe the serving layer uses before deciding to map the
/// payload (load() verifies the same checksum). Throws Error.
std::uint64_t peek_content_hash(const std::string& path);

}  // namespace lumos::snapshot
