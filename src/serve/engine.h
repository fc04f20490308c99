// serve::Engine: the socket-free core of lumos_serve. Holds a
// content-addressed LRU cache of immutable baselines (loaded from binary
// snapshots, see snapshot/snapshot.h) and answers what-if predictions over
// them with single-flight coalescing.
//
//   - Cache key = the snapshot's payload checksum, probed with a 32-byte
//     header read. It covers everything a prediction reads (scenario
//     metadata with its build and parser options, graph, program, pools)
//     and load verifies it, so two snapshots of one trace saved with
//     different options get different keys, two paths to byte-identical
//     images share one cache entry, and a re-saved baseline with different
//     content misses even at the same path.
//   - Entries are shared_ptr<const BaselineArtifacts>: eviction only drops
//     the cache reference, in-flight predictions keep their baseline (and
//     its mmap) alive. The cache's references are dropped after the
//     engine lock is released, so unmapping an evicted image never runs
//     under it.
//   - Single-flight: concurrent identical (baseline content, what-if
//     fingerprint) predictions run once; followers wait and share the
//     leader's result. Concurrent loads of one snapshot also coalesce.
//   - Publication: an outcome is never copied under the engine lock. A
//     follower joins under the lock and is counted on its flight. The
//     leader erases the flight under the lock (no request joins after
//     that, so the count is final) and releases it. With followers and a
//     successful prediction it copies its outcome once into a
//     shared_ptr<const Outcome> outside the lock, then retakes the lock
//     to publish the pointer with its Status; a failed leader publishes
//     the Status alone. Each follower reads both under the lock and
//     copies the immutable outcome after releasing it. A leader without
//     followers publishes nothing and returns its own outcome uncopied.
//
// Thread-safe; every public method may be called from any thread. A
// request that fails (deadlocked variant, bad snapshot, unknown model)
// returns its own Status and poisons nothing — the cache and other
// in-flight requests are untouched.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "serve/protocol.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace lumos::serve {

class Engine {
 public:
  struct Options {
    /// Byte budget for cached baselines (estimated via approx_bytes). The
    /// most recently inserted entry is always kept, even when it alone
    /// exceeds the budget — a cache of one beats a cache of none.
    std::size_t cache_capacity_bytes = 256ull << 20;
  };

  /// Monotonic counters; all mutated under one lock, so a reader sees a
  /// consistent snapshot. `requests` counts predict() calls only.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;        ///< baseline served from cache
    std::uint64_t misses = 0;      ///< baseline loaded from disk
    std::uint64_t evictions = 0;   ///< cache entries dropped under pressure
    std::uint64_t coalesced = 0;   ///< predictions that joined a flight
    std::size_t cached_baselines = 0;
    std::size_t cached_bytes = 0;
  };

  /// One answered prediction plus its cache provenance.
  struct Outcome {
    api::Prediction prediction;
    std::uint64_t content_hash = 0;  ///< the snapshot's payload checksum
    bool baseline_was_cached = false;  ///< hit (false for the loading miss)
    bool coalesced = false;            ///< joined another request's flight
  };

  Engine();  ///< default Options
  explicit Engine(Options options);

  /// The cached-or-loaded baseline for the snapshot at `path`. Never
  /// copies: the returned pointer aliases the cache entry (or the freshly
  /// loaded artifacts) and stays valid across eviction.
  Result<std::shared_ptr<const api::BaselineArtifacts>> baseline(
      const std::string& path) LUMOS_EXCLUDES(mu_);

  /// Answers one predict request: peek the snapshot's payload checksum,
  /// fetch the baseline (cache → single-flight load → disk), then run
  /// api::predict_on under predict-level single-flight.
  Result<Outcome> predict(const Request& request) LUMOS_EXCLUDES(mu_);

  Stats stats() const LUMOS_EXCLUDES(mu_);

  /// Drops every cache entry (in-flight users keep theirs alive).
  void clear() LUMOS_EXCLUDES(mu_);

  /// Cache-accounting estimate of a baseline's resident size, from the
  /// graph alone: its rows, meta table and edges, and the program's
  /// records. An estimate — capacity tuning, not an allocator audit.
  static std::size_t approx_bytes(const api::BaselineArtifacts& base);

 private:
  struct CacheEntry {
    std::shared_ptr<const api::BaselineArtifacts> base;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru;  ///< position in lru_ (front=MRU)
  };
  struct LoadFlight {
    bool done = false;
    Status status = Status::ok();
    std::shared_ptr<const api::BaselineArtifacts> base;
  };
  struct PredictFlight {
    bool done = false;
    /// Requests that joined; final once the leader erases the flight.
    std::size_t followers = 0;
    Status status = Status::ok();
    /// The leader's outcome, published only when followers joined and the
    /// prediction succeeded; immutable once published.
    std::shared_ptr<const Outcome> outcome;
  };

  /// baseline() plus whether it was a cache hit (for Outcome provenance).
  /// Takes mu_ itself (and drops it around the disk load).
  Result<std::shared_ptr<const api::BaselineArtifacts>> baseline_internal(
      const std::string& path, std::uint64_t content_hash, bool& was_cached)
      LUMOS_EXCLUDES(mu_);
  /// Inserts under mu_ and evicts LRU-first down to capacity. Victims move
  /// into `evicted`, for the caller to drop once it has released mu_.
  void insert_locked(
      std::uint64_t hash, std::shared_ptr<const api::BaselineArtifacts> base,
      std::vector<std::shared_ptr<const api::BaselineArtifacts>>& evicted)
      LUMOS_REQUIRES(mu_);

  Options options_;

  mutable Mutex mu_;
  CondVar cv_;  ///< flight completion, both kinds
  std::unordered_map<std::uint64_t, CacheEntry> cache_ LUMOS_GUARDED_BY(mu_);
  /// front = most recently used
  std::list<std::uint64_t> lru_ LUMOS_GUARDED_BY(mu_);
  /// Flight bookkeeping maps are guarded; the Flight structs they point at
  /// are too (done/followers/status/base/outcome are only touched under
  /// mu_ — the leader drops the lock for the load/predict, buffers into
  /// locals, and re-locks to publish). A published outcome is const and
  /// copied by its readers after they release mu_.
  std::unordered_map<std::uint64_t, std::shared_ptr<LoadFlight>> load_flights_
      LUMOS_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<PredictFlight>>
      predict_flights_ LUMOS_GUARDED_BY(mu_);
  Stats stats_ LUMOS_GUARDED_BY(mu_);
};

}  // namespace lumos::serve
