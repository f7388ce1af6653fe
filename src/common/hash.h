#ifndef LAKEKIT_COMMON_HASH_H_
#define LAKEKIT_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace lakekit {

/// 64-bit FNV-1a hash of `data`. Stable across platforms and runs; used for
/// MinHash, LSH bucketing, and deterministic embeddings.
uint64_t Fnv1a64(std::string_view data);

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Useful to derive
/// independent hash families: Mix64(seed ^ base_hash). Inline: MinHash and
/// the embeddings call it once per (value, hash function).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes (order dependent). Not injective: distinct
/// pairs can combine to one value (`HashCombine(1, 70) == HashCombine(2, 3)`),
/// so use it to group or probe, where a collision costs an extra candidate
/// or comparison, never as a key that must name one pair.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_HASH_H_
