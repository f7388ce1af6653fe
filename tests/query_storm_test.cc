// Overload chaos suite (DESIGN.md §10): concurrent query storms against a
// small MemoryBudget and a bounded AdmissionController, in the style of
// query_chaos_test.cc. The invariants, swept across schedules:
//   - accounted bytes never exceed the process budget (peak_used <= cap);
//   - shed queries fail fast with retriable kUnavailable, over-budget
//     queries with permanent kResourceExhausted — nothing else leaks out;
//   - queued entries honor their own deadline (virtual time, no sleeping);
//   - admission stats balance: admitted == completed + failed, and
//     submitted == admitted + shed + expired + cancelled;
//   - every account settles: budget.used() returns to the cache's share.
// The suite passes under TSan (CI's tsan job runs it with the `chaos`
// label); no deadlock = the storm joins within the test timeout.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/memory_budget.h"
#include "query/admission.h"
#include "query/federation.h"
#include "query/source.h"
#include "table/table.h"

namespace lakekit::query {
namespace {

using std::chrono::milliseconds;
using table::Table;

/// Number of storm schedules to sweep; CI cranks it via
/// LAKEKIT_CHAOS_SCHEDULES. Each schedule spawns a real thread pack, so the
/// storm runs a fraction of the virtual-time chaos suite's count.
int NumStorms() {
  constexpr int kDefault = 40;
  const char* env = std::getenv("LAKEKIT_CHAOS_SCHEDULES");
  const int n = env != nullptr ? std::atoi(env) : kDefault;
  return std::max(6, (n > 0 ? n : kDefault) / 4);
}

/// Spins (with real sleeps) until `cond` holds; fails the test on timeout.
void WaitUntil(const std::function<bool()>& cond) {
  for (int i = 0; i < 10000; ++i) {
    if (cond()) return;
    std::this_thread::sleep_for(milliseconds(1));
  }
  FAIL() << "condition not reached within timeout";
}

/// An in-memory source: read-only after setup, so concurrent queries are
/// safe by construction.
class MapSource : public TableSource {
 public:
  void Add(const std::string& name, Table t) {
    tables_.emplace(name, std::move(t));
  }

  Result<Table> ReadAsTable(std::string_view name) override {
    auto it = tables_.find(std::string(name));
    if (it == tables_.end()) {
      return Status::NotFound("no dataset '" + std::string(name) + "'");
    }
    return it->second;
  }

 private:
  std::map<std::string, Table> tables_;
};

/// A dataset big enough that its decoded bytes dominate every budget in
/// this suite, so caps derived from EstimateTableBytes behave predictably.
Table BigTable(const std::string& name, size_t rows) {
  std::string csv = "id,grp,val,tag\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i % 17) + "," +
           std::to_string(static_cast<double>(i) * 0.5) + ",t" +
           std::to_string(i % 7) + "\n";
  }
  return *Table::FromCsv(name, csv);
}

constexpr const char* kLightSql = "SELECT id FROM big WHERE id < 100";
constexpr const char* kAggSql =
    "SELECT grp, COUNT(*) AS n, AVG(val) AS mean FROM big "
    "WHERE id < 400 GROUP BY grp";
// Scans both datasets: the second scan's decoded-table charge is what blows
// a per-query cap of 1.5x one table.
constexpr const char* kHeavySql =
    "SELECT tag, grp_r FROM big JOIN big2 ON big.id = big2.id "
    "WHERE val >= 0";

struct StormRig {
  explicit StormRig(size_t rows = 1500) {
    source.Add("big", BigTable("big", rows));
    source.Add("big2", BigTable("big2", rows));
    table_bytes = table::EstimateTableBytes(
        *source.ReadAsTable("big"));
  }

  /// Builds the engine once budget/admission sizing is chosen.
  void Start(size_t budget_capacity, size_t per_query_cap,
             size_t max_concurrent, size_t max_queue_depth) {
    budget = std::make_unique<MemoryBudget>(budget_capacity);
    AdmissionOptions aopts;
    aopts.max_concurrent = max_concurrent;
    aopts.max_queue_depth = max_queue_depth;
    admission = std::make_unique<AdmissionController>(aopts);
    FederatedEngineOptions eopts;
    eopts.retry.max_attempts = 1;  // overload statuses must not be retried
    eopts.memory_budget = budget.get();
    eopts.query_reservation_bytes = per_query_cap;
    eopts.admission = admission.get();
    engine = std::make_unique<FederatedEngine>(&source, eopts);
  }

  MapSource source;
  size_t table_bytes = 0;
  std::unique_ptr<MemoryBudget> budget;
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<FederatedEngine> engine;
};

// ------------------------------------------------------- deterministic edges

TEST(QueryStormTest, OverBudgetQueryFailsPermanentlyAndSettles) {
  StormRig rig;
  // The per-query cap admits one decoded table but not two: the heavy
  // two-source join must exhaust, the light single-source probe must not.
  rig.Start(/*budget_capacity=*/rig.table_bytes * 8,
            /*per_query_cap=*/rig.table_bytes + rig.table_bytes / 2,
            /*max_concurrent=*/4, /*max_queue_depth=*/4);

  auto heavy = rig.engine->Query(kHeavySql, QueryOptions{});
  ASSERT_FALSE(heavy.ok());
  EXPECT_TRUE(heavy.status().IsResourceExhausted())
      << heavy.status().ToString();
  // Over-budget mid-query is permanent — a retry against the same budget
  // re-exhausts it. Shedding (kUnavailable) is the transient one.
  EXPECT_FALSE(IsTransientError(heavy.status()));
  // The failed query's account settled everything on the way out.
  EXPECT_EQ(rig.budget->used(), 0u);
  EXPECT_GT(rig.budget->exhausted_count(), 0u);

  auto light = rig.engine->Query(kLightSql, QueryOptions{});
  LAKEKIT_CHECK_OK(light.status());
  EXPECT_EQ(light->num_rows(), 100u);
  EXPECT_EQ(rig.budget->used(), 0u);

  const AdmissionStats astats = rig.admission->stats();
  EXPECT_EQ(astats.admitted, 2u);
  EXPECT_EQ(astats.completed, 1u);
  EXPECT_EQ(astats.failed, 1u);
}

TEST(QueryStormTest, BestEffortDegradesInsteadOfFailingOnExhaustion) {
  StormRig rig;
  // Budget far below one decoded table: every source read's charge is
  // refused. Strict fails; best-effort substitutes empty schema-valid
  // tables and reports which sources degraded.
  rig.Start(/*budget_capacity=*/rig.table_bytes / 8,
            /*per_query_cap=*/0, /*max_concurrent=*/2, /*max_queue_depth=*/2);

  auto strict = rig.engine->Query(kLightSql, QueryOptions{});
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsResourceExhausted());

  QueryOptions best_effort;
  best_effort.degradation = DegradationMode::kBestEffort;
  FederationStats stats;
  best_effort.stats_out = &stats;
  // Degradation needs a last-known schema; the strict attempt above never
  // cached one (the read itself failed at the budget, after the source
  // replied — so the schema IS cached). See ReadSource: schema is recorded
  // from the successful source read before the charge.
  auto degraded = rig.engine->Query(kLightSql, best_effort);
  LAKEKIT_CHECK_OK(degraded.status());
  EXPECT_EQ(degraded->num_rows(), 0u);
  EXPECT_TRUE(stats.partial);
  ASSERT_EQ(stats.failed_sources.size(), 1u);
  EXPECT_EQ(stats.failed_sources[0].dataset, "big");
  EXPECT_TRUE(stats.failed_sources[0].status.IsResourceExhausted());
  EXPECT_EQ(rig.budget->used(), 0u);
}

TEST(QueryStormTest, QueuedQueryHonorsDeadlineInVirtualTime) {
  ManualClock clock;
  StormRig rig;
  rig.Start(/*budget_capacity=*/rig.table_bytes * 4, /*per_query_cap=*/0,
            /*max_concurrent=*/1, /*max_queue_depth=*/4);

  // Hold the only slot directly, so the query below must queue.
  Result<AdmissionController::Ticket> slot = rig.admission->Admit();
  LAKEKIT_CHECK_OK(slot.status());

  QueryOptions options;
  options.deadline = Deadline::After(milliseconds(50), &clock);
  FederationStats stats;
  options.stats_out = &stats;
  Status queued_status;
  std::thread waiter([&] {
    queued_status = rig.engine->Query(kLightSql, options).status();
  });
  WaitUntil([&] { return rig.admission->queue_depth() == 1; });
  clock.Advance(milliseconds(100));
  waiter.join();

  EXPECT_TRUE(queued_status.IsDeadlineExceeded()) << queued_status.ToString();
  // It left the queue without running: no source read, no reservation.
  EXPECT_EQ(stats.source_reads, 0u);
  EXPECT_EQ(rig.budget->used(), 0u);
  EXPECT_EQ(rig.admission->stats().expired_in_queue, 1u);
  slot->Finish(true);
}

TEST(QueryStormTest, CancelledWhileQueuedDoesNoWork) {
  StormRig rig;
  rig.Start(/*budget_capacity=*/rig.table_bytes * 4, /*per_query_cap=*/0,
            /*max_concurrent=*/1, /*max_queue_depth=*/4);
  Result<AdmissionController::Ticket> slot = rig.admission->Admit();
  LAKEKIT_CHECK_OK(slot.status());

  CancelSource cancel;
  QueryOptions options;
  options.cancel = cancel.token();
  FederationStats stats;
  options.stats_out = &stats;
  Status queued_status;
  std::thread waiter([&] {
    queued_status = rig.engine->Query(kLightSql, options).status();
  });
  WaitUntil([&] { return rig.admission->queue_depth() == 1; });
  cancel.Cancel();
  waiter.join();

  EXPECT_TRUE(queued_status.IsAborted()) << queued_status.ToString();
  EXPECT_EQ(stats.source_reads, 0u);
  EXPECT_EQ(rig.admission->stats().cancelled_in_queue, 1u);
  slot->Finish(true);
}

// --------------------------------------------------------------- the storm

TEST(QueryStormTest, ConcurrentStormUpholdsOverloadInvariants) {
  StormRig rig;
  const size_t t_bytes = rig.table_bytes;
  for (int schedule = 0; schedule < NumStorms(); ++schedule) {
    // Sweep the pressure surface: admission width, queue depth, and how
    // many concurrent decoded tables the process budget admits.
    const size_t max_concurrent = 1 + static_cast<size_t>(schedule) % 4;
    const size_t max_queue_depth = static_cast<size_t>(schedule) % 3;
    const size_t process_tables = 2 + static_cast<size_t>(schedule) % 5;
    rig.Start(/*budget_capacity=*/t_bytes * process_tables,
              /*per_query_cap=*/t_bytes + t_bytes / 2, max_concurrent,
              max_queue_depth);

    constexpr int kThreads = 6;
    constexpr int kQueriesPerThread = 4;
    std::atomic<uint64_t> ok_count{0};
    std::atomic<uint64_t> shed_count{0};
    std::atomic<uint64_t> exhausted_count{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const char* sql =
              (t + i) % 3 == 0 ? kHeavySql : ((t + i) % 3 == 1 ? kAggSql
                                                               : kLightSql);
          // Each concurrent caller points the per-query sink at its own
          // struct — no last-writer races.
          FederationStats stats;
          QueryOptions options;
          options.stats_out = &stats;
          const Status s = rig.engine->Query(sql, options).status();
          if (s.ok()) {
            ok_count.fetch_add(1);
            EXPECT_GE(stats.source_reads, 1u);
          } else if (s.IsUnavailable()) {
            // Shed at the front door: retriable, and provably did nothing.
            shed_count.fetch_add(1);
            EXPECT_TRUE(IsTransientError(s));
            EXPECT_EQ(stats.source_reads, 0u);
          } else if (s.IsResourceExhausted()) {
            // Over budget mid-flight: permanent for this attempt.
            exhausted_count.fetch_add(1);
            EXPECT_FALSE(IsTransientError(s));
          } else {
            ADD_FAILURE() << "unexpected storm status: " << s.ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    // Accounting settled and never overshot.
    EXPECT_EQ(rig.budget->used(), 0u) << "schedule " << schedule;
    EXPECT_LE(rig.budget->peak_used(), rig.budget->capacity())
        << "schedule " << schedule;

    // Stats balance, cross-checked against the callers' own tallies.
    const AdmissionStats stats = rig.admission->stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(kThreads * kQueriesPerThread));
    EXPECT_EQ(stats.submitted, stats.admitted + stats.shed +
                                   stats.expired_in_queue +
                                   stats.cancelled_in_queue);
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed);
    EXPECT_EQ(stats.shed, shed_count.load());
    EXPECT_EQ(stats.completed, ok_count.load());
    EXPECT_EQ(stats.failed, exhausted_count.load());
    EXPECT_EQ(rig.admission->in_flight(), 0u);
    EXPECT_EQ(rig.admission->queue_depth(), 0u);
  }
}

TEST(QueryStormTest, CacheAndQueriesShareOneProcessBudget) {
  StormRig rig;
  const size_t t_bytes = rig.table_bytes;
  MemoryBudget budget(t_bytes * 4);
  TableCacheOptions copts;
  copts.capacity_bytes = t_bytes * 2;
  copts.process_budget = &budget;
  TableCache cache(copts);

  AdmissionController admission;
  FederatedEngineOptions eopts;
  eopts.memory_budget = &budget;
  eopts.admission = &admission;
  eopts.table_cache = &cache;
  FederatedEngine engine(&rig.source, eopts);

  // Miss: the scan admits the decoded table into the cache, whose account
  // charges the shared process budget.
  FederationStats first;
  LAKEKIT_CHECK_OK(engine.Query(kLightSql, QueryOptions{.stats_out = &first}));
  EXPECT_EQ(first.cache_misses, 1u);
  EXPECT_GE(cache.account().used(), t_bytes);
  EXPECT_EQ(budget.used(), cache.account().used());

  // Hit: served from the pinned entry; the query account charges nothing
  // for the table, so process usage is unchanged after it settles.
  const size_t after_miss = budget.used();
  FederationStats second;
  LAKEKIT_CHECK_OK(engine.Query(kLightSql, QueryOptions{.stats_out = &second}));
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(budget.used(), after_miss);
  EXPECT_LE(budget.peak_used(), budget.capacity());
}

}  // namespace
}  // namespace lakekit::query
