#include "serve/engine.h"

#include <utility>
#include <vector>

#include "core/task.h"

namespace lumos::serve {

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options) : options_(options) {}

std::size_t Engine::approx_bytes(const api::BaselineArtifacts& base) {
  // Per task: the row's event and processor columns (~20, mostly 8-byte)
  // land near 100 bytes, the meta table's stored and derived columns near
  // 40; strings ride the pools and the sparse side-tables are amortized
  // into the row constant. The program adds its records.
  std::size_t bytes = 4096;  // scenario + pools + bookkeeping floor
  if (base.graph) {
    bytes += base.graph->size() * (100 + 40);
    bytes += base.graph->edges().size() * sizeof(core::Edge);
  }
  if (base.program) {
    bytes += base.program->instructions().size_bytes() +
             base.program->operands().size_bytes() +
             base.program->members().size_bytes();
  }
  return bytes;
}

void Engine::insert_locked(
    std::uint64_t hash, std::shared_ptr<const api::BaselineArtifacts> base,
    std::vector<std::shared_ptr<const api::BaselineArtifacts>>& evicted) {
  const std::size_t bytes = approx_bytes(*base);
  lru_.push_front(hash);
  cache_[hash] = CacheEntry{std::move(base), bytes, lru_.begin()};
  stats_.cached_baselines = cache_.size();
  stats_.cached_bytes += bytes;
  // Evict LRU-first until under budget; the entry just inserted (front of
  // lru_) is exempt so one oversized baseline still serves.
  while (stats_.cached_bytes > options_.cache_capacity_bytes &&
         lru_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    stats_.cached_bytes -= it->second.bytes;
    evicted.push_back(std::move(it->second.base));
    cache_.erase(it);
    stats_.cached_baselines = cache_.size();
    ++stats_.evictions;
  }
}

Result<std::shared_ptr<const api::BaselineArtifacts>>
Engine::baseline_internal(const std::string& path,
                          std::uint64_t content_hash, bool& was_cached) {
  // Declared before the lock, so destroyed after it is released: the last
  // reference to an evicted baseline unmaps its image and frees its pools,
  // which must not hold up every other request's entry into mu_.
  std::vector<std::shared_ptr<const api::BaselineArtifacts>> evicted;
  MutexLock lock(mu_);
  if (auto it = cache_.find(content_hash); it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch: move to MRU
    ++stats_.hits;
    was_cached = true;
    return it->second.base;
  }

  if (auto fit = load_flights_.find(content_hash);
      fit != load_flights_.end()) {
    // Someone is already loading this snapshot: wait for their result
    // instead of mapping the file a second time.
    std::shared_ptr<LoadFlight> flight = fit->second;
    while (!flight->done) cv_.wait(mu_);
    was_cached = false;
    if (!flight->status.is_ok()) return flight->status;
    return flight->base;
  }

  ++stats_.misses;
  auto flight = std::make_shared<LoadFlight>();
  load_flights_[content_hash] = flight;
  lock.unlock();

  // The snapshot carries the baseline's compiled program: a miss loads it
  // and compiles nothing.
  Result<api::BaselineArtifacts> loaded = api::load_baseline_snapshot(path);

  lock.lock();
  load_flights_.erase(content_hash);
  if (loaded.is_ok()) {
    flight->base = std::make_shared<const api::BaselineArtifacts>(
        std::move(loaded).value());
    insert_locked(content_hash, flight->base, evicted);
  } else {
    flight->status = loaded.status();
  }
  flight->done = true;
  cv_.notify_all();
  was_cached = false;
  if (!flight->status.is_ok()) return flight->status;
  return flight->base;
}

Result<std::shared_ptr<const api::BaselineArtifacts>> Engine::baseline(
    const std::string& path) {
  Result<std::uint64_t> hash = api::peek_snapshot_content_hash(path);
  if (!hash.is_ok()) return hash.status();
  bool was_cached = false;
  return baseline_internal(path, *hash, was_cached);
}

Result<Engine::Outcome> Engine::predict(const Request& request) {
  Result<std::uint64_t> hash = api::peek_snapshot_content_hash(
      request.baseline);
  {
    MutexLock lock(mu_);
    ++stats_.requests;
  }
  if (!hash.is_ok()) return hash.status();

  const std::string key =
      std::to_string(*hash) + "|" + request.whatif.fingerprint();

  MutexLock lock(mu_);
  if (auto it = predict_flights_.find(key); it != predict_flights_.end()) {
    // Identical request already in flight: join it. The join and the
    // coalesced counter move under the same lock, so tests can assert
    // exact counts and the leader sees every follower once it retires the
    // flight.
    std::shared_ptr<PredictFlight> flight = it->second;
    ++flight->followers;
    ++stats_.coalesced;
    while (!flight->done) cv_.wait(mu_);
    const Status status = flight->status;
    const std::shared_ptr<const Outcome> published = flight->outcome;
    lock.unlock();
    if (!status.is_ok()) return status;
    // The published outcome is immutable: copy it outside the lock.
    Outcome outcome = *published;
    outcome.coalesced = true;
    return outcome;
  }
  auto flight = std::make_shared<PredictFlight>();
  predict_flights_[key] = flight;
  lock.unlock();

  // Leader path. Any failure (missing snapshot, deadlocked variant, ...)
  // is published to followers and returned; nothing is cached for it.
  Outcome outcome;
  outcome.content_hash = *hash;
  Status status = Status::ok();
  Result<std::shared_ptr<const api::BaselineArtifacts>> base =
      baseline_internal(request.baseline, *hash,
                        outcome.baseline_was_cached);
  if (!base.is_ok()) {
    status = base.status();
  } else {
    Result<api::Prediction> prediction =
        api::predict_on(**base, request.whatif.to_scenario());
    if (prediction.is_ok()) {
      outcome.prediction = std::move(prediction).value();
    } else {
      status = prediction.status();
    }
  }

  // Retire the flight. No request can join once it has left the map, so
  // the follower count read here is final.
  lock.lock();
  predict_flights_.erase(key);
  const bool followed = flight->followers > 0;
  lock.unlock();
  if (followed) {
    // The one copy the followers share, made outside the lock; a failed
    // prediction publishes only its status.
    std::shared_ptr<const Outcome> published;
    if (status.is_ok()) published = std::make_shared<const Outcome>(outcome);
    lock.lock();
    flight->status = status;
    flight->outcome = std::move(published);
    flight->done = true;
    cv_.notify_all();
    lock.unlock();
  }
  if (!status.is_ok()) return status;
  return outcome;
}

Engine::Stats Engine::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void Engine::clear() {
  // Swapped out under the lock, destroyed after it (see baseline_internal).
  std::unordered_map<std::uint64_t, CacheEntry> dropped;
  MutexLock lock(mu_);
  dropped.swap(cache_);
  lru_.clear();
  stats_.cached_baselines = 0;
  stats_.cached_bytes = 0;
}

}  // namespace lumos::serve
