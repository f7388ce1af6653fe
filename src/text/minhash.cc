#include "text/minhash.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"

namespace lakekit::text {

size_t CountEqual(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  // d | -d has its top bit set exactly when d != 0, so no 64-bit vector
  // compare is needed (SSE2 has none). Fixed-size blocks let -O2's cost
  // model vectorize without a scalar epilogue, and are too long for -O3 to
  // unroll and vectorize across blocks instead.
  constexpr size_t kBlock = 32;
  const auto differs = [](uint64_t x, uint64_t y) {
    const uint64_t d = x ^ y;
    return (d | (0 - d)) >> 63;
  };
  const size_t n = std::min(a.size(), b.size());
  size_t differing = 0;
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const uint64_t* x = a.data() + i;
    const uint64_t* y = b.data() + i;
    for (size_t j = 0; j < kBlock; ++j) differing += differs(x[j], y[j]);
  }
  for (; i < n; ++i) differing += differs(a[i], b[i]);
  return n - differing;
}

double MinHashSignature::EstimateJaccard(const MinHashSignature& other) const {
  if (values_.empty() || values_.size() != other.values_.size()) return 0.0;
  return static_cast<double>(CountEqual(values_, other.values_)) /
         static_cast<double>(values_.size());
}

MinHasher::MinHasher(size_t num_hashes, uint64_t seed)
    : num_hashes_(num_hashes) {
  mixers_.reserve(num_hashes_);
  uint64_t s = seed;
  for (size_t i = 0; i < num_hashes_; ++i) {
    s += 0x9e3779b97f4a7c15ULL;
    mixers_.push_back(Mix64(s));
  }
}

MinHashSignature MinHasher::Compute(
    const std::vector<std::string>& elements) const {
  std::vector<uint64_t> hashes;
  hashes.reserve(elements.size());
  for (const std::string& e : elements) hashes.push_back(Fnv1a64(e));
  return ComputeFromHashes(hashes);
}

MinHashSignature MinHasher::ComputeFromHashes(
    const std::vector<uint64_t>& hashes) const {
  std::vector<uint64_t> sig(num_hashes_,
                            std::numeric_limits<uint64_t>::max());
  for (uint64_t h : hashes) {
    for (size_t i = 0; i < num_hashes_; ++i) {
      uint64_t v = Mix64(h ^ mixers_[i]);
      if (v < sig[i]) sig[i] = v;
    }
  }
  return MinHashSignature(std::move(sig));
}

}  // namespace lakekit::text
