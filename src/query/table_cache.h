#ifndef LAKEKIT_QUERY_TABLE_CACHE_H_
#define LAKEKIT_QUERY_TABLE_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/lru_cache.h"
#include "common/memory_budget.h"
#include "query/zone_map.h"
#include "table/table.h"

namespace lakekit::query {

/// A decoded table plus the zone map built from it at admission time.
/// Immutable once cached: readers share it by pinned reference, never copy.
struct CachedTable {
  table::Table table;
  ZoneMap zones;
};

struct TableCacheOptions {
  /// Total byte budget across shards (charge = decoded cells + string
  /// payloads + zone-map footprint).
  size_t capacity_bytes = 64u << 20;
  /// 0 = pick from hardware concurrency (see common/lru_cache.h).
  size_t shards = 0;
  /// When set, the cache's bytes are a child reservation of this process
  /// budget (DESIGN.md §10): admissions reserve against it, evictions
  /// credit it back, so the cache and in-flight queries trade off inside
  /// one process-level number. `capacity_bytes` stays the LRU's job alone:
  /// the reservation has no cap of its own, which would refuse admissions
  /// before the LRU could evict. An admission the budget refuses is
  /// *declined* — the table simply is not cached — never an error: caching
  /// is an optimization, overload protection is not. Must outlive the
  /// cache. nullptr: the cache only enforces its own `capacity_bytes`.
  MemoryBudget* process_budget = nullptr;
};

/// Process-wide cache of decoded tables keyed by (dataset, generation)
/// (DESIGN.md §9). The generation comes from the owning store
/// (`TableSource::Generation`): any write to a dataset bumps it, so a cached
/// entry for an old generation simply stops being looked up and ages out —
/// there is no explicit invalidation path to race with.
///
/// Zone maps are built once here, at admission, so every subsequent scan of
/// the cached table gets morsel pruning for free.
class TableCache {
 public:
  /// A pinned, shareable reference to a cached table (empty on miss). The
  /// underlying bytes cannot be evicted while any Entry is alive.
  using Entry = LruCache<std::string, CachedTable>::Handle;

  explicit TableCache(const TableCacheOptions& options = {})
      : account_(options.process_budget),
        cache_(options.capacity_bytes, options.shards) {
    if (account_.attached()) {
      // Evictions run under a shard lock; the credit is two relaxed
      // atomics, well within what that lock can hold.
      cache_.set_eviction_listener(
          [this](size_t charge) { account_.Release(charge); });
    }
  }

  /// Looks up the decoded table for `dataset` at `generation`.
  Entry Find(std::string_view dataset, uint64_t generation) {
    return cache_.Lookup(Key(dataset, generation));
  }

  /// Admits a freshly decoded table, building its zone map, and returns a
  /// pinned entry. If another loader won the race for the same key, its
  /// entry is returned and `*t` is discarded (the copies are equivalent:
  /// both were decoded from the same generation). If the process budget
  /// declines the admission, an empty Entry is returned and `*t` is left
  /// untouched — the caller keeps its decoded table and the query proceeds
  /// uncached.
  Entry Put(std::string_view dataset, uint64_t generation, table::Table* t);

  /// By-value convenience for callers that do not need the declined table
  /// back (tests, warm-up paths): on decline the table is dropped.
  Entry Put(std::string_view dataset, uint64_t generation, table::Table t) {
    return Put(dataset, generation, &t);
  }

  LruCacheStats stats() const { return cache_.stats(); }

  /// The cache's child reservation (detached unless `process_budget` was
  /// set). Exposed for tests asserting the budget hierarchy balances.
  const BudgetAccount& account() const { return account_; }

 private:
  /// '\x1f' (unit separator) cannot appear in a formatted integer, so the
  /// composed key is unambiguous even for dataset names containing digits.
  static std::string Key(std::string_view dataset, uint64_t generation) {
    std::string key;
    key.reserve(dataset.size() + 21);
    key.append(dataset);
    key.push_back('\x1f');
    key.append(std::to_string(generation));
    return key;
  }

  BudgetAccount account_;
  LruCache<std::string, CachedTable> cache_;
};

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_TABLE_CACHE_H_
