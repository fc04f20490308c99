// StringPool: deterministic string interning for the hot-path data layer.
//
// Event names, collective op names and communicator group names repeat
// thousands of times across a trace ("cudaLaunchKernel", "tp_0", ...), yet
// every Task used to drag its own heap std::string copies through the
// simulator and the analyses. The pool deduplicates them once, at parse /
// build time, into dense 32-bit handles: the simulate/analyze hot paths
// compare and hash plain integers, and the original text is recovered only
// at report boundaries via view().
//
// Determinism: ids are assigned in first-intern order, so two identical
// build sequences produce identical id assignments — a property the
// golden-result tests (tests/test_data_layer.cpp) pin down and that
// api::Sweep's bit-identity guarantee inherits.
//
// Thread safety: intern() mutates and must be called from one thread (the
// graph build phase); once the owning ExecutionGraph is frozen, view()/
// size() are safe from any number of threads (ExecutionGraph publishes the
// pool together with its TaskMetaTable under the meta lock).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lumos::trace {

/// Typed handle into one StringPool. The tag keeps ids of different pools
/// (event names vs. communicator groups) from mixing silently.
template <class Tag>
struct StringHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  std::uint32_t index = kInvalidIndex;

  bool valid() const { return index != kInvalidIndex; }
  bool operator==(const StringHandle&) const = default;
  auto operator<=>(const StringHandle&) const = default;
};

/// Handle for interned event names.
using NameId = StringHandle<struct NameIdTag>;
/// Handle for interned collective op names ("allreduce", "send", ...).
using OpId = StringHandle<struct OpIdTag>;
/// Handle for interned communicator group names ("tp_0", "dp_1", ...).
using GroupId = StringHandle<struct GroupIdTag>;

class StringPool {
 public:
  StringPool() = default;
  // by_id_ points into index_'s nodes; a memberwise copy would alias the
  // source pool's keys (dangling once it dies). Moves keep the node-based
  // map's pointers stable, so they stay defaulted; copies are forbidden.
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;
  StringPool(StringPool&&) = default;
  StringPool& operator=(StringPool&&) = default;

  /// Returns the id of `s`, interning it on first sight. Ids are dense,
  /// starting at 0, in first-intern order.
  std::uint32_t intern(std::string_view s);

  /// The interned text of `id`. Precondition: id < size().
  std::string_view view(std::uint32_t id) const { return *by_id_[id]; }

  /// Id of `s` if already interned; StringHandle<>::kInvalidIndex otherwise.
  std::uint32_t find(std::string_view s) const;

  /// Interns every string of `src` into this pool, in `src`'s id order
  /// (ascending 0..src.size()-1), and returns the remap table: result[i] is
  /// this pool's id for src string i. Because ids are first-intern-order on
  /// both sides, merging private per-worker pools into a shared pool in a
  /// fixed sequence reproduces exactly the ids a serial build interleaving
  /// the same strings would have assigned — the property the parallel
  /// cluster-ingest merge (trace/ingest.cpp) is built on.
  std::vector<std::uint32_t> merge_from(const StringPool& src);

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

 private:
  /// Transparent hashing so intern()/find() hits (the overwhelming case —
  /// names repeat thousands of times per trace) never allocate a key copy.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Node-based map keeps key storage stable; by_id_ points into it.
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
      index_;
  std::vector<const std::string*> by_id_;
};

/// The three string domains of one trace (or one finalized graph): event
/// names (which also hold phase/block annotations), collective op names,
/// and communicator group names.
///
/// Ownership rule ("one pool per trace"): every trace::EventTable of one
/// ClusterTrace shares a single TracePools instance via shared_ptr, so a
/// string that repeats across ranks is stored exactly once; TraceParser
/// hands the same instance to ExecutionGraph::finalize(), so the graph's
/// TaskMetaTable re-uses the trace's ids instead of re-interning. After the
/// build/parse phase the pools are read-only and safe to share across
/// threads (api::Sweep workers read the baseline graph concurrently).
struct TracePools {
  StringPool names;
  StringPool ops;
  StringPool groups;
};

}  // namespace lumos::trace
