#include "text/dictionary.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"

namespace lakekit::text {

namespace {

uint32_t Tag(uint64_t hash) {
  return static_cast<uint32_t>(Mix64(hash) >> 32);
}

}  // namespace

size_t StringDictionary::Probe(std::string_view s, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if (static_cast<uint32_t>(slot >> 32) == tag &&
        (*this)[static_cast<uint32_t>(slot) - 1] == s) {
      return i;
    }
  }
}

void StringDictionary::Reserve(size_t n) {
  // Load factor at most 1/2, so probes stay short and always find a hole.
  size_t slots = slots_.empty() ? 16 : slots_.size();
  while (2 * (size() + n) > slots) slots *= 2;
  if (slots != slots_.size()) Rehash(slots);
}

std::vector<uint32_t> StringDictionary::InternAll(
    const StringDictionary& other, const std::vector<uint64_t>& hashes) {
  constexpr size_t kAhead = 8;
  Reserve(other.size());
  const size_t mask = slots_.size() - 1;
  std::vector<uint32_t> ids(other.size());
  for (uint32_t i = 0; i < ids.size(); ++i) {
    if (i + kAhead < ids.size()) {
      __builtin_prefetch(&slots_[Tag(hashes[i + kAhead]) & mask]);
    }
    ids[i] = Intern(other[i], hashes[i]);
  }
  return ids;
}

uint32_t StringDictionary::Intern(std::string_view s, uint64_t hash) {
  if (2 * (size() + 1) > slots_.size()) Reserve(1);
  const uint32_t tag = Tag(hash);
  uint64_t& slot = slots_[Probe(s, tag)];
  if (slot != 0) return static_cast<uint32_t>(slot) - 1;
  const auto id = static_cast<uint32_t>(size());
  slot = static_cast<uint64_t>(tag) << 32 | (id + 1);
  arena_.append(s);
  offsets_.push_back(arena_.size());
  return id;
}

std::optional<uint32_t> StringDictionary::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const uint64_t slot = slots_[Probe(s, Tag(Fnv1a64(s)))];
  if (slot == 0) return std::nullopt;
  return static_cast<uint32_t>(slot) - 1;
}

void StringDictionary::Rehash(size_t slots) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = static_cast<uint32_t>(slot >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint32_t StringCounter::Add(std::string_view s) {
  const uint64_t hash = Fnv1a64(s);
  const uint32_t id = dictionary_.Intern(s, hash);
  if (id == counts_.size()) {
    hashes_.push_back(hash);
    counts_.push_back(0);
  }
  ++counts_[id];
  return id;
}

std::vector<uint32_t> StringCounter::TopK(size_t k) const {
  std::vector<uint32_t> ids(size());
  std::iota(ids.begin(), ids.end(), 0);
  auto before = [this](uint32_t a, uint32_t b) {
    return counts_[a] != counts_[b] ? counts_[a] > counts_[b]
                                    : dictionary_[a] < dictionary_[b];
  };
  const auto top = ids.begin() + static_cast<ptrdiff_t>(std::min(k, size()));
  std::partial_sort(ids.begin(), top, ids.end(), before);
  ids.erase(top, ids.end());
  return ids;
}

}  // namespace lakekit::text
