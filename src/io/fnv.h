// io::Fnv1a: the one FNV-1a implementation shared by every fingerprinting
// consumer — the ground-truth engine's deterministic duration jitter, the
// fault-spec fingerprint, and the snapshot payload checksum
// (snapshot/snapshot.h) that keys the serve-layer baseline cache.
//
// Two variants with distinct, pinned domains:
//   - Fnv1a / fnv1a(): the canonical byte-at-a-time FNV-1a. Golden tests
//     pin its digests (cache keys must be stable across releases), so the
//     constants and the byte order are frozen.
//   - fnv1a_words(): a 4-lane word-striped FNV-1a for bulk checksums.
//     Byte-serial FNV chains one multiply per byte (~1 GB/s), which would
//     dominate snapshot load; striping four independent FNV streams across
//     8-byte words breaks the multiply dependency chain (~4x8 bytes in
//     flight) and combines the lane digests with plain FNV-1a at the end.
//     Deterministic, but a *different* function from fnv1a() — never mix
//     the two domains. Little-endian word loads are asserted where the
//     snapshot format already requires them.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace lumos::io {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental byte-wise FNV-1a.
class Fnv1a {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= kFnvPrime;
    }
  }
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Hashes the value representation of a trivially copyable scalar.
  /// Restricted to scalars on purpose: struct padding bytes are
  /// indeterminate and would make the digest non-deterministic.
  template <class T>
  void update_pod(const T& value) {
    static_assert(std::is_scalar_v<T>,
                  "hash scalars field by field, never padded structs");
    update(&value, sizeof(T));
  }

  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// One-shot byte-wise FNV-1a of a string.
inline std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.update(s);
  return h.digest();
}

/// Bulk checksum: four independent FNV-1a streams striped across 8-byte
/// words, tail bytes and the total length folded in byte-wise, lane digests
/// combined with byte-wise FNV-1a. ~4x faster than fnv1a() on large blobs;
/// a distinct function from it (do not compare digests across the two).
inline std::uint64_t fnv1a_words(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {kFnvOffsetBasis, kFnvOffsetBasis, kFnvOffsetBasis,
                           kFnvOffsetBasis};
  const std::size_t words = size / 8;
  std::size_t w = 0;
  // Unstriped remainder handled by the rotating lane index below.
  for (; w + 4 <= words; w += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint64_t v;
      std::memcpy(&v, bytes + (w + j) * 8, 8);
      lane[j] = (lane[j] ^ v) * kFnvPrime;
    }
  }
  for (; w < words; ++w) {
    std::uint64_t v;
    std::memcpy(&v, bytes + w * 8, 8);
    lane[w % 4] = (lane[w % 4] ^ v) * kFnvPrime;
  }
  Fnv1a combined;
  for (std::uint64_t l : lane) combined.update_pod(l);
  combined.update(bytes + words * 8, size - words * 8);
  const auto total = static_cast<std::uint64_t>(size);
  combined.update_pod(total);
  return combined.digest();
}

}  // namespace lumos::io
