#ifndef LAKEKIT_COMMON_MEMORY_BUDGET_H_
#define LAKEKIT_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace lakekit {

/// Hierarchical memory accounting for the query tier (DESIGN.md §10).
///
/// One `MemoryBudget` caps the whole process; each concurrent consumer — a
/// federated query, the shared TableCache — holds a `BudgetAccount` child
/// whose reservations debit both its own cap and the parent. `TryReserve`
/// *fails* (kResourceExhausted) instead of allocating, so a query that
/// would blow the budget dies cleanly while the process — and every other
/// query — keeps running. The root is a compare-exchange loop, so accounted
/// bytes can never exceed the capacity, not even transiently under
/// concurrent reservers; `peak_used()` records the high-water mark the
/// overload chaos suite asserts against.
///
/// Hot paths never touch these atomics per row: an operator reserves what
/// a morsel or the whole operator needs in a few calls on a
/// `ScopedReservation`, which returns it when the scope ends.
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` or fails with kResourceExhausted, leaving the
  /// accounting untouched. Never over-admits: the CAS loop re-checks the
  /// capacity against every concurrent reservation.
  Status TryReserve(size_t bytes);

  /// Returns `bytes` previously reserved. Releasing more than is held is a
  /// bug; the counter saturates at zero rather than wrapping.
  void Release(size_t bytes);

  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// High-water mark of `used()` since construction.
  [[nodiscard]] size_t peak_used() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Reservations refused for lack of budget (either cap) since
  /// construction.
  [[nodiscard]] uint64_t exhausted_count() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  friend class BudgetAccount;
  void RecordExhausted() {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t capacity_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> exhausted_{0};
};

/// A child reservation against a `MemoryBudget`: one per query (created at
/// the engine front door) or per subsystem (the TableCache's slice). Has
/// its own cap — a query cannot starve the process even when it is alone —
/// and forwards every reservation to the parent, so query pressure and
/// cache pressure trade off in the one process-level number.
///
/// A default-constructed account is *detached*: every TryReserve succeeds
/// and costs two relaxed atomic ops, so unbudgeted configurations pay
/// almost nothing. Thread-safe; destruction returns anything still held to
/// the parent (the per-query release path — operators only release their
/// own transient state eagerly).
class BudgetAccount {
 public:
  /// Detached: unlimited, never fails.
  BudgetAccount() = default;

  /// Child of `parent` capped at `cap_bytes` (0: the parent's capacity).
  /// `parent` may be nullptr, which means detached.
  BudgetAccount(MemoryBudget* parent, size_t cap_bytes = 0)
      : parent_(parent),
        cap_(parent == nullptr ? 0
                               : (cap_bytes == 0 ? parent->capacity()
                                                 : cap_bytes)) {}

  BudgetAccount(const BudgetAccount&) = delete;
  BudgetAccount& operator=(const BudgetAccount&) = delete;

  ~BudgetAccount() {
    if (parent_ != nullptr) {
      parent_->Release(used_.load(std::memory_order_relaxed));
    }
  }

  /// Reserves against this account's cap, then the parent. On either
  /// refusal nothing is held and kResourceExhausted is returned.
  Status TryReserve(size_t bytes);

  void Release(size_t bytes);

  [[nodiscard]] bool attached() const { return parent_ != nullptr; }
  [[nodiscard]] size_t cap() const { return cap_; }
  [[nodiscard]] size_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MemoryBudget* parent() const { return parent_; }

 private:
  MemoryBudget* parent_ = nullptr;
  size_t cap_ = 0;
  std::atomic<size_t> used_{0};
};

/// Scoped budget holder: reservations accumulate here, and the destructor
/// returns the lot to the account, so state is accounted only while it is
/// live. The query operators hold one for state that lives as long as the
/// operator (hash tables, partials, match lists, sort keys, outputs) and
/// Aggregate one per morsel for its scratch. A null or detached account
/// makes every Reserve a free no-op.
class ScopedReservation {
 public:
  explicit ScopedReservation(BudgetAccount* account)
      : account_(account != nullptr && account->attached() ? account
                                                           : nullptr) {}
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ~ScopedReservation() {
    if (account_ != nullptr) {
      account_->Release(total_.load(std::memory_order_relaxed));
    }
  }

  /// Reserves `bytes` on the account, or fails with kResourceExhausted
  /// holding nothing more. Thread-safe: morsel tasks call it concurrently.
  Status Reserve(size_t bytes) {
    if (account_ == nullptr) return Status::OK();
    LAKEKIT_RETURN_IF_ERROR(account_->TryReserve(bytes));
    total_.fetch_add(bytes, std::memory_order_relaxed);
    return Status::OK();
  }

 private:
  BudgetAccount* account_;
  std::atomic<size_t> total_{0};
};

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_MEMORY_BUDGET_H_
