#ifndef LAKEKIT_TEXT_MINHASH_H_
#define LAKEKIT_TEXT_MINHASH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lakekit::text {

/// Positions at which two hash arrays agree, over the shorter one's length:
/// the count behind every signature compare. Branch-free, and vectorized by
/// gcc at -O2 and -O3 on baseline x86-64.
size_t CountEqual(std::span<const uint64_t> a, std::span<const uint64_t> b);

/// A MinHash signature: `k` independent minimum hash values of a set.
///
/// MinHash is the core sketch behind Aurum's column signatures (survey
/// Sec. 6.2.1): the fraction of agreeing positions between two signatures is
/// an unbiased estimator of the Jaccard similarity of the underlying sets.
class MinHashSignature {
 public:
  MinHashSignature() = default;
  explicit MinHashSignature(std::vector<uint64_t> values)
      : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  uint64_t value(size_t i) const { return values_[i]; }
  const std::vector<uint64_t>& values() const { return values_; }

  /// Estimated Jaccard similarity = fraction of matching positions.
  /// Requires equal sizes.
  double EstimateJaccard(const MinHashSignature& other) const;

 private:
  std::vector<uint64_t> values_;
};

/// Computes MinHash signatures using `num_hashes` hash functions derived from
/// `seed` via SplitMix64 (one pass per element, cheap XOR-mix families).
class MinHasher {
 public:
  explicit MinHasher(size_t num_hashes = 128, uint64_t seed = 7);

  size_t num_hashes() const { return num_hashes_; }

  /// Signature of a set of string elements. Duplicate elements are harmless
  /// (min is idempotent). An empty set yields an all-max signature.
  MinHashSignature Compute(const std::vector<std::string>& elements) const;

  /// Signature from precomputed element hashes (e.g. Value::Hash()).
  MinHashSignature ComputeFromHashes(const std::vector<uint64_t>& hashes) const;

 private:
  size_t num_hashes_;
  std::vector<uint64_t> mixers_;
};

}  // namespace lakekit::text

#endif  // LAKEKIT_TEXT_MINHASH_H_
