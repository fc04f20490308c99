// Content-addressed trace identity, the test oracle for "same trace".
//
// content_hash() folds every semantic field of a trace — timestamps,
// durations, thread/stream placement, event names, collective metadata —
// into one 64-bit FNV-1a digest. Pooled string ids are resolved to the
// *text* they intern before hashing, so the digest is a function of trace
// content alone: two traces with identical events hash identically no
// matter how their StringPools happened to assign ids (per-rank pools vs.
// one shared pool, different intern order). The digest is order-sensitive
// over events and ranks — the canonical (ts, tid)-sorted order the parser
// establishes — because event order *is* semantic for replay.
//
// The tests compare traces with it (parallel vs. serial ingest, replayed
// schedules); test_snapshot pins its golden. Nothing in the library keys
// on it: the serve cache keys on the snapshot payload checksum.
#pragma once

#include <cstdint>
#include <vector>

#include "io/fnv.h"
#include "trace/event_table.h"

namespace lumos::testutil {

namespace content_hash_detail {

/// Per-id text digests of one pool, computed once per table instead of
/// re-hashing "cudaLaunchKernel" a hundred thousand times. The invalid id
/// encodes the empty string, whose digest is the FNV offset basis.
inline std::vector<std::uint64_t> pool_hashes(const trace::StringPool& pool) {
  std::vector<std::uint64_t> hashes(pool.size());
  for (std::size_t id = 0; id < pool.size(); ++id) {
    hashes[id] = io::fnv1a(pool.view(static_cast<std::uint32_t>(id)));
  }
  return hashes;
}

inline std::uint64_t resolve(const std::vector<std::uint64_t>& hashes,
                             std::uint32_t id) {
  return id == trace::NameId::kInvalidIndex ? io::kFnvOffsetBasis
                                            : hashes[id];
}

}  // namespace content_hash_detail

/// Digest of one rank's events (order-sensitive), seeded with `seed` so
/// rank digests chain. Strings are hashed by text, not by pool id.
inline std::uint64_t content_hash(const trace::EventTable& events,
                                  std::uint64_t seed = 0) {
  using content_hash_detail::pool_hashes;
  using content_hash_detail::resolve;
  const trace::TracePools& pools = *events.pools();
  const std::vector<std::uint64_t> names = pool_hashes(pools.names);
  const std::vector<std::uint64_t> ops = pool_hashes(pools.ops);
  const std::vector<std::uint64_t> groups = pool_hashes(pools.groups);

  io::Fnv1a h;
  h.update_pod(seed);
  h.update_pod(static_cast<std::uint64_t>(events.size()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    h.update_pod(static_cast<std::uint8_t>(events.category(i)));
    h.update_pod(events.ts_ns(i));
    h.update_pod(events.dur_ns(i));
    h.update_pod(events.pid(i));
    h.update_pod(events.tid(i));
    h.update_pod(events.correlation(i));
    h.update_pod(events.stream(i));
    h.update_pod(events.cuda_event(i));
    h.update_pod(events.layer(i));
    h.update_pod(events.microbatch(i));
    h.update_pod(events.bytes_moved(i));
    h.update_pod(resolve(names, events.name_id(i).index));
    h.update_pod(resolve(names, events.phase_id(i).index));
    h.update_pod(resolve(names, events.block_id(i).index));
    h.update_pod(events.has_collective(i));
    if (events.has_collective(i)) {
      h.update_pod(resolve(ops, events.collective_op(i).index));
      h.update_pod(resolve(groups, events.collective_group(i).index));
      h.update_pod(events.collective_bytes(i));
      h.update_pod(events.collective_group_size(i));
      h.update_pod(events.collective_instance(i));
    }
    h.update_pod(events.has_gemm(i));
    if (events.has_gemm(i)) {
      const trace::GemmShape g = events.gemm(i);
      h.update_pod(g.m);
      h.update_pod(g.n);
      h.update_pod(g.k);
    }
  }
  return h.digest();
}

/// Digest of a whole cluster trace: rank ids + per-rank event digests,
/// chained in rank order.
inline std::uint64_t content_hash(const trace::ClusterTrace& trace) {
  std::uint64_t digest = io::kFnvOffsetBasis;
  for (const trace::RankTrace& rank : trace.ranks) {
    io::Fnv1a h;
    h.update_pod(digest);
    h.update_pod(rank.rank);
    digest = content_hash(rank.events, h.digest());
  }
  return digest;
}

}  // namespace lumos::testutil
