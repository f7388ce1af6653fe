#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/cancellation.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "query/operators.h"
#include "query/vec.h"
#include "query/zone_map.h"
#include "table/table.h"

namespace lakekit {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------- deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), milliseconds::max());
  EXPECT_TRUE(Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, ExpiresOnManualClock) {
  ManualClock clock;
  Deadline d = Deadline::After(milliseconds(10), &clock);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), milliseconds(10));

  clock.Advance(milliseconds(9));
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), milliseconds(1));

  clock.Advance(milliseconds(1));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), milliseconds(0));

  // Well past expiry: remaining stays clamped at zero.
  clock.Advance(milliseconds(100));
  EXPECT_EQ(d.remaining(), milliseconds(0));
}

TEST(DeadlineTest, CopiesObserveTheSameExpiry) {
  ManualClock clock;
  Deadline d = Deadline::After(milliseconds(5), &clock);
  Deadline copy = d;  // value type: layers pass it down by copy
  clock.Advance(milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(copy.expired());
}

// ------------------------------------------------------------ cancellation

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTest, CancelReachesEveryToken) {
  CancelSource source;
  CancelToken a = source.token();
  CancelToken b = a;  // copies share the underlying state
  EXPECT_FALSE(a.cancelled());

  source.Cancel();
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(a.status().IsAborted());
  EXPECT_EQ(a.status().message(), "cancelled");
}

TEST(CancellationTest, FirstCauseWins) {
  CancelSource source;
  CancelToken token = source.token();
  source.Cancel(Status::DeadlineExceeded("watchdog fired"));
  source.Cancel(Status::Aborted("too late"));
  EXPECT_TRUE(token.status().IsDeadlineExceeded());
  EXPECT_EQ(token.status().message(), "watchdog fired");
}

// ---------------------------------------------------------- circuit breaker

CircuitBreakerOptions BreakerOptions(const Clock* clock) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.failure_window = milliseconds(100);
  options.open_cooldown = milliseconds(50);
  options.clock = clock;
  return options;
}

TEST(CircuitBreakerTest, StaysClosedBelowThreshold) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  EXPECT_TRUE(breaker.Admit().ok());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit().ok());
}

TEST(CircuitBreakerTest, TripsOpenAtThresholdAndRejects) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  Status admit = breaker.Admit();
  EXPECT_TRUE(admit.IsUnavailable());
  EXPECT_EQ(breaker.rejected(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  // The streak restarted: two more failures stay below the threshold.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, FailuresAgeOutOfTheWindow) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  breaker.RecordFailure();
  breaker.RecordFailure();
  // The streak ages past the 100ms window; the next failure starts a new
  // window instead of tripping the breaker.
  clock.Advance(milliseconds(101));
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Cooldown not served yet: still rejecting.
  clock.Advance(milliseconds(49));
  EXPECT_TRUE(breaker.Admit().IsUnavailable());

  // Cooldown served: the first caller becomes the probe, concurrent
  // callers keep failing fast.
  clock.Advance(milliseconds(1));
  EXPECT_TRUE(breaker.Admit().ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Admit().IsUnavailable());

  // Probe success closes the breaker and traffic flows again.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit().ok());
}

TEST(CircuitBreakerTest, ProbeFailureReopensForAFullCooldown) {
  ManualClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.Advance(milliseconds(50));
  ASSERT_TRUE(breaker.Admit().ok());  // probe
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The cooldown restarted at the probe failure.
  clock.Advance(milliseconds(49));
  EXPECT_TRUE(breaker.Admit().IsUnavailable());
  clock.Advance(milliseconds(1));
  EXPECT_TRUE(breaker.Admit().ok());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------- operator interruption
//
// Interruption is checked once per morsel, inside each operator: a
// cancelled token or an expired deadline stops the operator before it
// touches a row, on any input size and pool size.

/// `morsels` morsels of rows: an int64 key `k` (unique), a small int64
/// group `g` and a double measure `v`.
table::Table MorselTable(size_t morsels) {
  table::Table t("t", table::Schema({{"k", table::DataType::kInt64},
                                     {"g", table::DataType::kInt64},
                                     {"v", table::DataType::kDouble}}));
  const size_t rows = (morsels - 1) * query::kMorselSize + 7;
  for (size_t r = 0; r < rows; ++r) {
    const auto i = static_cast<int64_t>(r);
    EXPECT_TRUE(t.AppendRow({table::Value(i), table::Value(i % 5),
                             table::Value(static_cast<double>(i) * 0.5)})
                    .ok());
  }
  return t;
}

/// Runs `op` under a cancelled token and under an expired deadline, on 1-
/// and 3-morsel inputs, at pool sizes 1 and 4: it must return the token's
/// status and kDeadlineExceeded.
template <typename Op>
void ExpectInterrupted(const Op& op) {
  for (size_t morsels : {1u, 3u}) {
    const table::Table t = MorselTable(morsels);
    ASSERT_EQ(query::NumMorsels(t.num_rows()), morsels);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(morsels) + " morsels, " +
                   std::to_string(threads) + " threads");
      ThreadPool pool(threads);
      CancelSource source;
      source.Cancel(Status::Aborted("caller gave up"));
      query::ExecOptions cancelled;
      cancelled.pool = &pool;
      cancelled.cancel = source.token();
      Status s = op(t, cancelled);
      EXPECT_TRUE(s.IsAborted()) << s.ToString();
      EXPECT_EQ(s.message(), "caller gave up");

      ManualClock clock;
      query::ExecOptions expired;
      expired.pool = &pool;
      expired.deadline = Deadline::After(milliseconds(5), &clock);
      clock.Advance(milliseconds(5));
      s = op(t, expired);
      EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
    }
  }
}

query::ExprPtr PositiveV() {
  return query::Expr::Compare(query::CmpOp::kGt, query::Expr::Column("v"),
                              query::Expr::Literal(table::Value(0.0)));
}

TEST(OperatorInterruptTest, Filter) {
  ExpectInterrupted([](const table::Table& t, const query::ExecOptions& o) {
    return query::Filter(t, *PositiveV(), o).status();
  });
}

TEST(OperatorInterruptTest, FilterWithZones) {
  ExpectInterrupted([](const table::Table& t, const query::ExecOptions& o) {
    const query::ZoneMap zones = query::ZoneMap::Build(t);
    query::FilterExecStats stats;
    return query::Filter(t, *PositiveV(), &zones, o, &stats).status();
  });
}

TEST(OperatorInterruptTest, HashJoin) {
  ExpectInterrupted([](const table::Table& t, const query::ExecOptions& o) {
    return query::HashJoin(t, t, "k", "k", query::JoinType::kInner, o)
        .status();
  });
}

TEST(OperatorInterruptTest, Aggregate) {
  ExpectInterrupted([](const table::Table& t, const query::ExecOptions& o) {
    return query::Aggregate(t, {"g"},
                            {{query::AggFn::kSum, "v", "total"}}, o)
        .status();
  });
}

TEST(OperatorInterruptTest, Sort) {
  ExpectInterrupted([](const table::Table& t, const query::ExecOptions& o) {
    return query::Sort(t, "v", /*ascending=*/true, o).status();
  });
}

}  // namespace
}  // namespace lakekit
