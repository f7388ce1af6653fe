// Tests for hierarchical memory accounting (common/memory_budget.h):
// root reserve/release semantics, the never-over-capacity CAS invariant
// under concurrent reservers, child-account caps and settlement, and the
// scoped holder the operators reserve through.

#include "common/memory_budget.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lakekit {
namespace {

TEST(MemoryBudgetTest, ReserveReleaseRoundTrip) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.capacity(), 1000u);
  EXPECT_EQ(budget.used(), 0u);
  LAKEKIT_CHECK_OK(budget.TryReserve(400));
  EXPECT_EQ(budget.used(), 400u);
  LAKEKIT_CHECK_OK(budget.TryReserve(600));
  EXPECT_EQ(budget.used(), 1000u);
  budget.Release(1000);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak_used(), 1000u);
  EXPECT_EQ(budget.exhausted_count(), 0u);
}

TEST(MemoryBudgetTest, RefusesPastCapacityWithoutSideEffects) {
  MemoryBudget budget(100);
  LAKEKIT_CHECK_OK(budget.TryReserve(60));
  const Status s = budget.TryReserve(41);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // A refusal holds nothing: accounting is exactly as before the call.
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_EQ(budget.exhausted_count(), 1u);
  // The freed headroom is immediately reservable again.
  LAKEKIT_CHECK_OK(budget.TryReserve(40));
  EXPECT_EQ(budget.used(), 100u);
}

TEST(MemoryBudgetTest, OversizedSingleRequestRefused) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(101).IsResourceExhausted());
  // size_t-overflow bait: capacity - bytes must not wrap.
  EXPECT_TRUE(
      budget.TryReserve(static_cast<size_t>(-1)).IsResourceExhausted());
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetTest, ZeroByteReserveAlwaysSucceeds) {
  MemoryBudget budget(0);
  LAKEKIT_CHECK_OK(budget.TryReserve(0));
  EXPECT_TRUE(budget.TryReserve(1).IsResourceExhausted());
}

TEST(MemoryBudgetTest, ReleaseSaturatesAtZero) {
  MemoryBudget budget(100);
  LAKEKIT_CHECK_OK(budget.TryReserve(10));
  budget.Release(50);  // over-release is a bug, but must not wrap
  EXPECT_EQ(budget.used(), 0u);
  LAKEKIT_CHECK_OK(budget.TryReserve(100));
}

// The core overload invariant: however many threads hammer TryReserve,
// accounted bytes never exceed capacity — checked via peak_used() after a
// storm of reserve/release cycles that would trivially break a
// check-then-add implementation.
TEST(MemoryBudgetTest, ConcurrentReserversNeverExceedCapacity) {
  constexpr size_t kCapacity = 1 << 20;
  constexpr size_t kChunk = 200 * 1024;  // 5 fit, 6 do not
  MemoryBudget budget(kCapacity);
  std::atomic<uint64_t> granted{0};
  std::atomic<uint64_t> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (budget.TryReserve(kChunk).ok()) {
          granted.fetch_add(1);
          budget.Release(kChunk);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_LE(budget.peak_used(), kCapacity);
  EXPECT_GT(granted.load(), 0u);
  EXPECT_EQ(budget.exhausted_count(), refused.load());
}

TEST(BudgetAccountTest, DetachedAccountIsUnlimited) {
  BudgetAccount account;
  EXPECT_FALSE(account.attached());
  LAKEKIT_CHECK_OK(account.TryReserve(static_cast<size_t>(-1)));
  account.Release(123);  // no-op, no crash
}

TEST(BudgetAccountTest, ChildForwardsToParentAndSettlesOnDestruction) {
  MemoryBudget budget(1000);
  {
    BudgetAccount account(&budget);
    EXPECT_TRUE(account.attached());
    EXPECT_EQ(account.cap(), 1000u);  // 0 => parent capacity
    LAKEKIT_CHECK_OK(account.TryReserve(700));
    EXPECT_EQ(account.used(), 700u);
    EXPECT_EQ(budget.used(), 700u);
    account.Release(200);
    EXPECT_EQ(budget.used(), 500u);
    // 500 still held here: the destructor must return it.
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(BudgetAccountTest, OwnCapRefusesBeforeParent) {
  MemoryBudget budget(1000);
  BudgetAccount account(&budget, /*cap_bytes=*/100);
  LAKEKIT_CHECK_OK(account.TryReserve(100));
  const Status s = account.TryReserve(1);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // The local refusal never reached the parent, and held nothing locally.
  EXPECT_EQ(account.used(), 100u);
  EXPECT_EQ(budget.used(), 100u);
}

TEST(BudgetAccountTest, ParentRefusalRollsBackLocalReservation) {
  MemoryBudget budget(100);
  BudgetAccount greedy(&budget, /*cap_bytes=*/1000);
  LAKEKIT_CHECK_OK(greedy.TryReserve(80));
  // Fits greedy's own cap but not the parent: both levels must end
  // unchanged.
  EXPECT_TRUE(greedy.TryReserve(30).IsResourceExhausted());
  EXPECT_EQ(greedy.used(), 80u);
  EXPECT_EQ(budget.used(), 80u);
}

TEST(BudgetAccountTest, SiblingsContendForOneParent) {
  MemoryBudget budget(100);
  BudgetAccount a(&budget);
  BudgetAccount b(&budget);
  LAKEKIT_CHECK_OK(a.TryReserve(70));
  EXPECT_TRUE(b.TryReserve(40).IsResourceExhausted());
  LAKEKIT_CHECK_OK(b.TryReserve(30));
  a.Release(70);
  LAKEKIT_CHECK_OK(b.TryReserve(40));
  EXPECT_EQ(budget.used(), 70u);
}

TEST(ScopedReservationTest, ReleasesEverythingAtDestruction) {
  MemoryBudget budget(1000);
  BudgetAccount account(&budget);
  {
    ScopedReservation scope(&account);
    LAKEKIT_CHECK_OK(scope.Reserve(300));
    LAKEKIT_CHECK_OK(scope.Reserve(200));
    EXPECT_EQ(account.used(), 500u);
    EXPECT_EQ(budget.used(), 500u);
  }
  EXPECT_EQ(account.used(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ScopedReservationTest, RefusedReserveHoldsNothingMore) {
  MemoryBudget budget(100);
  BudgetAccount account(&budget);
  {
    ScopedReservation scope(&account);
    LAKEKIT_CHECK_OK(scope.Reserve(60));
    EXPECT_TRUE(scope.Reserve(41).IsResourceExhausted());
    EXPECT_EQ(account.used(), 60u);
    LAKEKIT_CHECK_OK(scope.Reserve(40));
    EXPECT_EQ(account.used(), 100u);
  }
  // The destructor returns exactly what was granted, not the refusal.
  EXPECT_EQ(account.used(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ScopedReservationTest, ConcurrentReservesSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kReserves = 1000;
  MemoryBudget budget(1u << 30);
  BudgetAccount account(&budget);
  {
    ScopedReservation scope(&account);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&scope, t] {
        for (int i = 0; i < kReserves; ++i) {
          LAKEKIT_CHECK_OK(scope.Reserve(static_cast<size_t>(t + 1)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    // 1 + 2 + ... + kThreads bytes, kReserves times each.
    const size_t expected = kReserves * kThreads * (kThreads + 1) / 2;
    EXPECT_EQ(account.used(), expected);
    EXPECT_EQ(budget.used(), expected);
  }
  EXPECT_EQ(account.used(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ScopedReservationTest, NullAndDetachedAccountsAreFree) {
  ScopedReservation null_scope(nullptr);
  LAKEKIT_CHECK_OK(null_scope.Reserve(static_cast<size_t>(-1)));
  BudgetAccount detached;
  ScopedReservation detached_scope(&detached);
  LAKEKIT_CHECK_OK(detached_scope.Reserve(static_cast<size_t>(-1)));
  EXPECT_EQ(detached.used(), 0u);
}

}  // namespace
}  // namespace lakekit
