#ifndef LAKEKIT_TEXT_DICTIONARY_H_
#define LAKEKIT_TEXT_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lakekit::text {

/// Interns strings: each distinct string gets a dense `uint32_t` id, in the
/// order it was first interned, and its bytes are stored once in one arena
/// addressed by offsets. Lookups probe an
/// open-addressing table of (hash tag, id) slots over the arena, keyed by
/// the string's `Fnv1a64` — the hash MinHash takes of each value — so a
/// caller that already computed it passes it in rather than hashing twice.
/// This is JOSIE's global token space (Zhu et al., SIGMOD 2019): once
/// values are ids, set overlap is integer work.
class StringDictionary {
 public:
  /// The id of `s`, interning it first when new. `hash` must be
  /// `Fnv1a64(s)`.
  uint32_t Intern(std::string_view s, uint64_t hash);

  /// Interns the strings of `other` in its id order (`hashes[i]` is
  /// `Fnv1a64(other[i])`) and returns their ids here, as `Intern` on each
  /// would. Each probe's slot is fetched a few strings ahead, since the
  /// probes are independent cache misses.
  std::vector<uint32_t> InternAll(const StringDictionary& other,
                                  const std::vector<uint64_t>& hashes);

  /// Sizes the table so that `n` more strings intern without growing it.
  void Reserve(size_t n);

  /// The id of `s`, if interned.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// The string of `id`; the view is valid until the next `Intern`.
  std::string_view operator[](uint32_t id) const {
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }
  size_t size() const { return offsets_.size() - 1; }
  /// Every interned string, concatenated in id order.
  std::string_view bytes() const { return arena_; }

 private:
  /// Slot index of `s`: where it sits, or the empty slot it would take.
  size_t Probe(std::string_view s, uint32_t tag) const;
  void Rehash(size_t slots);

  std::string arena_;
  std::vector<uint64_t> offsets_{0};
  /// 0 = empty, else (tag << 32) | (id + 1); the tag is the high half of
  /// the mixed hash and its low bits pick the home slot.
  std::vector<uint64_t> slots_;
};

/// Counts strings: each distinct string is interned once in a
/// `StringDictionary` (ids in first-seen order) and stored with its
/// `Fnv1a64` hash and its count. Column profiles, content keywords and
/// column sketches all count through it.
class StringCounter {
 public:
  /// Counts one occurrence of `s` and returns its id; the id is new when
  /// its count is 1.
  uint32_t Add(std::string_view s);

  /// Ids of the `k` most frequent strings: count descending, then bytes
  /// ascending, found by partial sort.
  std::vector<uint32_t> TopK(size_t k) const;

  std::string_view operator[](uint32_t id) const { return dictionary_[id]; }
  size_t count(uint32_t id) const { return counts_[id]; }
  size_t size() const { return counts_.size(); }
  /// The distinct strings, and their `Fnv1a64` hashes, by id.
  const StringDictionary& dictionary() const { return dictionary_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

 private:
  StringDictionary dictionary_;
  std::vector<uint64_t> hashes_;
  std::vector<size_t> counts_;
};

}  // namespace lakekit::text

#endif  // LAKEKIT_TEXT_DICTIONARY_H_
