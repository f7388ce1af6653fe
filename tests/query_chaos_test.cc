#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/random.h"
#include "query/federation.h"
#include "query/source.h"
#include "table/table.h"

namespace lakekit::query {
namespace {

using std::chrono::milliseconds;
using table::Table;

/// Chaos suite for the federated resilience layer (DESIGN.md §6.7): a
/// fault-injecting source + a ManualClock that the injected latency and the
/// retry backoff both advance, so "slow source under a deadline" schedules
/// replay deterministically in virtual time — no real sleeping anywhere.

/// Number of random fault schedules to sweep. CI cranks this up via
/// LAKEKIT_CHAOS_SCHEDULES for soak runs without a rebuild.
int NumSchedules() {
  constexpr int kDefault = 40;
  const char* env = std::getenv("LAKEKIT_CHAOS_SCHEDULES");
  if (env == nullptr) return kDefault;
  int n = std::atoi(env);
  return n > 0 ? n : kDefault;
}

/// An in-memory source: read-only after setup, so concurrent queries are
/// safe by construction.
class MapSource : public TableSource {
 public:
  void Add(const std::string& name, Table t) { tables_.emplace(name, std::move(t)); }

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

Table People() {
  return *Table::FromCsv(
      "people",
      "id,name,age,city\n1,ada,36,delft\n2,bob,41,leiden\n3,eve,29,delft\n"
      "4,dan,,leiden\n");
}

Table Cities() {
  return *Table::FromCsv("cities",
                         "city,country\ndelft,NL\nleiden,NL\naachen,DE\n");
}

constexpr const char* kJoinSql =
    "SELECT name, country FROM people JOIN cities ON people.city = "
    "cities.city WHERE country = 'NL'";

/// One virtual-time test rig: datasets, fault wrapper, clock, engine.
struct Rig {
  explicit Rig(uint64_t seed = 42,
               FederatedEngineOptions engine_options = DefaultOptions()) {
    base.Add("people", People());
    base.Add("cities", Cities());
    flaky = std::make_unique<FlakySource>(&base, seed);
    // Injected source latency and retry backoff both advance the one
    // virtual clock.
    flaky->set_sleep_fn([this](milliseconds d) { clock.Advance(d); });
    engine_options.clock = &clock;
    engine_options.sleep_fn = [this](milliseconds d) { clock.Advance(d); };
    engine = std::make_unique<FederatedEngine>(flaky.get(), engine_options);
  }

  static FederatedEngineOptions DefaultOptions() {
    FederatedEngineOptions options;
    options.retry.max_attempts = 4;
    options.retry.initial_backoff = milliseconds(2);
    options.retry.max_backoff = milliseconds(8);
    options.breaker.failure_threshold = 3;
    options.breaker.failure_window = milliseconds(5000);
    options.breaker.open_cooldown = milliseconds(1000);
    return options;
  }

  milliseconds Elapsed(std::chrono::steady_clock::time_point start) const {
    return std::chrono::duration_cast<milliseconds>(clock.Now() - start);
  }

  MapSource base;
  ManualClock clock;
  std::unique_ptr<FlakySource> flaky;
  std::unique_ptr<FederatedEngine> engine;
};

// ------------------------------------------------------------- cancellation

TEST(QueryChaosTest, CancelledQueryReturnsTheCause) {
  Rig rig;
  CancelSource source;
  source.Cancel();

  QueryOptions options;
  options.cancel = source.token();
  auto out = rig.engine->Query(kJoinSql, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsAborted());
  EXPECT_EQ(out.status().message(), "cancelled");
  // Cancelled before any scan: no source was touched.
  EXPECT_EQ(rig.flaky->reads("people"), 0u);
  EXPECT_EQ(rig.flaky->reads("cities"), 0u);
}

TEST(QueryChaosTest, WatchdogCancellationCarriesDeadlineCause) {
  Rig rig;
  CancelSource source;
  source.Cancel(Status::DeadlineExceeded("watchdog fired"));
  QueryOptions options;
  options.cancel = source.token();
  auto out = rig.engine->Query(kJoinSql, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
}

// ----------------------------------------------------------------- deadline

TEST(QueryChaosTest, ExpiredDeadlineFailsBeforeTouchingSources) {
  Rig rig;
  QueryOptions options;
  options.deadline = Deadline::After(milliseconds(10), &rig.clock);
  rig.clock.Advance(milliseconds(10));
  auto out = rig.engine->Query(kJoinSql, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
  EXPECT_EQ(rig.flaky->reads("people"), 0u);
}

TEST(QueryChaosTest, SlowSourceCannotOutliveTheDeadline) {
  Rig rig;
  SourceFaultProfile slow;
  slow.latency = milliseconds(30);
  rig.flaky->SetProfile("people", slow);
  rig.flaky->SetProfile("cities", slow);

  const auto start = rig.clock.Now();
  QueryOptions options;
  options.deadline = Deadline::After(milliseconds(40), &rig.clock);
  auto out = rig.engine->Query(kJoinSql, options);
  // people (30ms) fits the 40ms budget; the cities scan starts inside the
  // budget, its in-flight read overshoots to 60ms, and everything after
  // fails fast — the query never costs more than budget + one read.
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
  EXPECT_LE(rig.Elapsed(start).count(), 40 + 30);
}

// ------------------------------------------------------------------ breaker

TEST(QueryChaosTest, BreakersOpenUnderFaultsAndRecover) {
  Rig rig;
  SourceFaultProfile down;
  down.fail_next = 3;  // exactly the failure threshold
  rig.flaky->SetProfile("cities", down);

  // Three injected failures trip the breaker mid-retry; the fourth attempt
  // is rejected by the open breaker without touching the source.
  FederationStats stats;
  const QueryOptions options{.stats_out = &stats};
  auto out = rig.engine->Query("SELECT country FROM cities", options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_EQ(rig.engine->breaker_state("cities"), CircuitBreaker::State::kOpen);
  EXPECT_EQ(rig.flaky->reads("cities"), 3u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.breaker_rejections, 1u);

  // While open, queries fail fast: zero additional source reads.
  out = rig.engine->Query("SELECT country FROM cities", options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_EQ(rig.flaky->reads("cities"), 3u);
  EXPECT_EQ(stats.breaker_rejections, 4u);  // every attempt rejected

  // Cooldown served: the next query's first attempt is the half-open
  // probe; the source is healthy again, so the probe closes the breaker.
  rig.clock.Advance(milliseconds(1000));
  out = rig.engine->Query("SELECT country FROM cities", options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(rig.engine->breaker_state("cities"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(rig.flaky->reads("cities"), 4u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(QueryChaosTest, DeadlineExpiryDoesNotTripTheBreaker) {
  Rig rig;
  SourceFaultProfile slow;
  slow.latency = milliseconds(50);
  rig.flaky->SetProfile("people", slow);
  for (int i = 0; i < 5; ++i) {
    QueryOptions q;
    q.deadline = Deadline::After(milliseconds(10), &rig.clock);
    auto out = rig.engine->Query("SELECT name FROM people", q);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().IsDeadlineExceeded());
  }
  // Five straight deadline failures are the caller's spent budget, not
  // evidence against the source: the breaker must stay closed.
  EXPECT_EQ(rig.engine->breaker_state("people"),
            CircuitBreaker::State::kClosed);
}

// -------------------------------------------------------------- degradation

TEST(QueryChaosTest, BestEffortDegradesDeadSourceToPartialResults) {
  Rig rig;
  // A healthy query first, so the engine has seen every schema.
  ASSERT_TRUE(rig.engine->Query(kJoinSql).ok());

  SourceFaultProfile dead;
  dead.error_rate = 1.0;
  rig.flaky->SetProfile("cities", dead);

  // Strict: the query fails with the source's error.
  auto strict = rig.engine->Query(kJoinSql);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsUnavailable());

  // Best-effort: cities degrades to an empty table with its cached
  // schema; the join still executes and the output schema is intact.
  QueryOptions options;
  options.degradation = DegradationMode::kBestEffort;
  FederationStats stats;
  options.stats_out = &stats;
  auto partial = rig.engine->Query(kJoinSql, options);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->num_rows(), 0u);  // inner join against an empty side
  EXPECT_TRUE(partial->schema().HasField("name"));
  EXPECT_TRUE(partial->schema().HasField("country"));
  EXPECT_TRUE(stats.partial);
  ASSERT_EQ(stats.failed_sources.size(), 1u);
  EXPECT_EQ(stats.failed_sources[0].dataset, "cities");
  EXPECT_TRUE(stats.failed_sources[0].status.IsUnavailable());
}

TEST(QueryChaosTest, BestEffortCannotInventANeverSeenSchema) {
  Rig rig;
  SourceFaultProfile dead;
  dead.error_rate = 1.0;
  rig.flaky->SetProfile("cities", dead);
  QueryOptions options;
  options.degradation = DegradationMode::kBestEffort;
  // The engine has never scanned cities, so there is no schema-valid empty
  // table to substitute: the failure propagates.
  auto out = rig.engine->Query(kJoinSql, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable());
}

TEST(QueryChaosTest, BestEffortNeverMasksDeadlineExpiry) {
  Rig rig;
  ASSERT_TRUE(rig.engine->Query(kJoinSql).ok());
  QueryOptions options;
  options.degradation = DegradationMode::kBestEffort;
  options.deadline = Deadline::After(milliseconds(5), &rig.clock);
  rig.clock.Advance(milliseconds(5));
  auto out = rig.engine->Query(kJoinSql, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
}

// -------------------------------------------------------------- concurrency

TEST(QueryChaosTest, ConcurrentQueriesDontRace) {
  Rig rig;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        QueryOptions options;
        options.enable_pushdown = (q % 2 == 0);
        FederationStats stats;
        options.stats_out = &stats;
        auto out = rig.engine->Query(kJoinSql, options);
        if (!out.ok()) {
          failures[t] = out.status();
          return;
        }
        // Per-caller stats are computed locally: never torn by the other
        // threads' queries.
        if (stats.source_reads != 2 || stats.rows_scanned != 7) {
          failures[t] = Status::Internal("torn stats");
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": "
                                  << failures[t].ToString();
  }
}

TEST(QueryChaosTest, ConcurrentQueriesAgainstAFlakySourceStayConsistent) {
  Rig rig;
  ASSERT_TRUE(rig.engine->Query(kJoinSql).ok());  // seed the schema cache
  SourceFaultProfile flaky;
  flaky.error_rate = 0.3;
  rig.flaky->SetProfile("cities", flaky);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < 6; ++q) {
        QueryOptions options;
        options.degradation = (t % 2 == 0) ? DegradationMode::kBestEffort
                                           : DegradationMode::kStrict;
        auto out = rig.engine->Query(kJoinSql, options);
        // Strict queries may fail kUnavailable (injected or breaker);
        // best-effort queries must succeed (schema is cached). Anything
        // else is a bug.
        if (out.ok()) continue;
        if (options.degradation == DegradationMode::kBestEffort ||
            !out.status().IsUnavailable()) {
          failures[t] = out.status();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": "
                                  << failures[t].ToString();
  }
}

// --------------------------------------------------------------- seed sweep

/// Randomized fault schedules: random per-source error rates and
/// latencies, a random deadline budget, random degradation mode. Three
/// invariants hold for every schedule:
///   1. the query's status is OK, kUnavailable, or kDeadlineExceeded —
///      faults never surface as anything else;
///   2. virtual time never exceeds budget + one in-flight source read;
///   3. after the fault window, breakers re-close and queries succeed.
TEST(QueryChaosTest, RandomFaultSchedulesUpholdResilienceContract) {
  const int schedules = NumSchedules();
  Rng meta(20260808);
  for (int i = 0; i < schedules; ++i) {
    const uint64_t seed = meta.Next();
    SCOPED_TRACE("schedule " + std::to_string(i) + " (seed=" +
                 std::to_string(seed) + ")");
    Rng rng(seed);
    Rig rig(seed);

    // A healthy warm-up query populates every schema (so best-effort
    // schedules can degrade) and must always succeed.
    ASSERT_TRUE(rig.engine->Query(kJoinSql).ok());

    const auto latency_of = [&rng] {
      return milliseconds(static_cast<int64_t>(rng.Below(21)));
    };
    milliseconds max_latency(0);
    for (const char* dataset : {"people", "cities"}) {
      SourceFaultProfile profile;
      profile.error_rate = 0.2 + 0.6 * rng.NextDouble();  // 0.2 .. 0.8
      profile.latency = latency_of();
      max_latency = std::max(max_latency, profile.latency);
      rig.flaky->SetProfile(dataset, profile);
    }

    const int64_t budget_ms = 1 + static_cast<int64_t>(rng.Below(50));
    for (int q = 0; q < 6; ++q) {
      QueryOptions options;
      options.enable_pushdown = rng.Below(2) == 0;
      options.degradation = rng.Below(2) == 0 ? DegradationMode::kBestEffort
                                              : DegradationMode::kStrict;
      const bool armed = rng.Below(2) == 0;
      const auto start = rig.clock.Now();
      if (armed) {
        options.deadline =
            Deadline::After(milliseconds(budget_ms), &rig.clock);
      }
      FederationStats stats;
      options.stats_out = &stats;
      auto out = rig.engine->Query(kJoinSql, options);

      // Invariant 1: only the contract's status codes surface.
      if (!out.ok()) {
        EXPECT_TRUE(out.status().IsUnavailable() ||
                    out.status().IsDeadlineExceeded())
            << out.status().ToString();
      } else if (stats.partial) {
        EXPECT_FALSE(stats.failed_sources.empty());
        EXPECT_TRUE(out->schema().HasField("name"));
        EXPECT_TRUE(out->schema().HasField("country"));
      }
      // Invariant 2: an armed deadline bounds virtual time by budget plus
      // at most one in-flight source read.
      if (armed) {
        EXPECT_LE(rig.Elapsed(start).count(),
                  budget_ms + max_latency.count())
            << "query " << q << " outlived its deadline";
      }
    }

    // Invariant 3: faults end, breakers recover. One query after the
    // cooldown re-closes any open breaker through its half-open probe.
    rig.flaky->ClearFaults();
    rig.clock.Advance(milliseconds(10000));
    auto recovered = rig.engine->Query(kJoinSql);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->num_rows(), 4u);
    EXPECT_EQ(rig.engine->breaker_state("people"),
              CircuitBreaker::State::kClosed);
    EXPECT_EQ(rig.engine->breaker_state("cities"),
              CircuitBreaker::State::kClosed);
  }
}

}  // namespace
}  // namespace lakekit::query
