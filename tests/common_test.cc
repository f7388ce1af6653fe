#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <shared_mutex>
#include <thread>

#include "common/bloom.h"
#include "common/crc32.h"
#include "common/rw_lock.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lakekit {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("dataset 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "dataset 'x'");
  EXPECT_EQ(s.ToString(), "NotFound: dataset 'x'");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kAborted), "Aborted");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kIoError), "IoError");
}

Status FailsThenPropagates() {
  LAKEKIT_RETURN_IF_ERROR(Status::Aborted("conflict"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_TRUE(s.IsAborted());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubledPositive(int x) {
  LAKEKIT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "hello");
  EXPECT_EQ(*r, "hello");
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubledPositive(21).value(), 42);
  EXPECT_FALSE(DoubledPositive(0).ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CasingAndAffixes) {
  EXPECT_EQ(ToLower("HeLLo_123"), "hello_123");
  EXPECT_TRUE(StartsWith("dataset.csv", "dataset"));
  EXPECT_FALSE(StartsWith("x", "xx"));
  EXPECT_TRUE(EndsWith("dataset.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "dataset.csv"));
}

TEST(StringUtilTest, NumberDetection) {
  EXPECT_TRUE(LooksLikeInteger("42"));
  EXPECT_TRUE(LooksLikeInteger("-7"));
  EXPECT_FALSE(LooksLikeInteger("4.2"));
  EXPECT_FALSE(LooksLikeInteger(""));
  EXPECT_FALSE(LooksLikeInteger("-"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

// ---------------------------------------------------------------- hashing

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("lake"), Fnv1a64("lake"));
  EXPECT_NE(Fnv1a64("lake"), Fnv1a64("lakes"));
  EXPECT_NE(Fnv1a64(""), 0u);
}

TEST(HashTest, Mix64Bijective) {
  // Distinct inputs produce distinct outputs over a sample (it is bijective,
  // so no collision should ever occur).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(Mix64(i)).second);
  }
}

TEST(HashTest, Mix64MatchesSplitMix64) {
  // SplitMix64's published first outputs from seed 0: the state advances by
  // the golden-ratio step inside Mix64, so Mix64(k * step) is output k + 1.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
}

TEST(HashTest, HashCombineOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---------------------------------------------------------------- random

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  size_t low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.2) < 10) ++low;
  }
  // With s=1.2 the first 10 ranks take a large share of the mass.
  EXPECT_GT(low, static_cast<size_t>(n / 4));
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(17);
  size_t low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, NextWordHasRequestedLength) {
  Rng rng(23);
  std::string w = rng.NextWord(12);
  EXPECT_EQ(w.size(), 12u);
  for (char c : w) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPoolTest, SubmitRunsTasksAndDestructorDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { ++counter; });
    }
    // ~ThreadPool runs every queued task before joining the workers.
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SizeClampsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ParallelForTest, EmptyRangeIsOkAndRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  Status s = ParallelFor(
      5, 5,
      [&](size_t) -> Status {
        ++calls;
        return Status::OK();
      },
      &pool);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ManyMoreTasksThanThreadsCoverEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  Status s = ParallelFor(
      0, hits.size(),
      [&](size_t i) -> Status {
        ++hits[i];
        return Status::OK();
      },
      &pool);
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SizeOnePoolIsTheSerialOptOut) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  ASSERT_TRUE(ParallelFor(
                  0, 100,
                  [&](size_t i) -> Status {
                    sum += i;
                    return Status::OK();
                  },
                  &pool)
                  .ok());
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelForTest, ReturnsErrorFromLowestFailingIndex) {
  ThreadPool pool(4);
  Status s = ParallelFor(
      0, 500,
      [&](size_t i) -> Status {
        if (i == 123 || i == 400) {
          return Status::InvalidArgument("bad index " + std::to_string(i));
        }
        return Status::OK();
      },
      &pool);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad index 123");
}

TEST(ParallelForTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  Status s = ParallelFor(
      0, 16,
      [&](size_t i) -> Status {
        if (i == 7) throw std::runtime_error("boom");
        return Status::OK();
      },
      &pool);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, NestedUseOnOnePoolDoesNotDeadlock) {
  // Outer iterations run on pool workers and each starts an inner
  // ParallelFor on the *same* pool. An inner call can finish on the thread
  // that made it, so it never waits on a queue its own worker should drain.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  Status s = ParallelFor(
      0, 8,
      [&](size_t) -> Status {
        return ParallelFor(
            0, 8,
            [&](size_t) -> Status {
              ++leaf;
              return Status::OK();
            },
            &pool);
      },
      &pool);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(leaf.load(), 64);
}

/// Occupies every worker of `pool` until `release` counts down; returns once
/// each worker is inside its blocker.
void HoldEveryWorker(ThreadPool& pool, std::latch& release) {
  std::latch started(static_cast<std::ptrdiff_t>(pool.size()));
  for (size_t w = 0; w < pool.size(); ++w) {
    pool.Submit([&started, &release] {
      started.count_down();
      release.wait();
    });
  }
  started.wait();
}

TEST(ParallelForTest, CallerRunsOnlyItsOwnIndices) {
  ThreadPool pool(1);
  std::latch release_worker(1);
  HoldEveryWorker(pool, release_worker);

  // Call A stalls inside index 0 on its own thread while its index 1 waits
  // for a thread to claim it.
  std::latch a_entered(1);
  std::latch release_a(1);
  std::atomic<int> a_index1_runs{0};
  Status a_status;
  std::thread a_caller([&] {
    a_status = ParallelFor(
        0, 2,
        [&](size_t i) -> Status {
          if (i == 0) {
            a_entered.count_down();
            release_a.wait();
          } else {
            ++a_index1_runs;
          }
          return Status::OK();
        },
        &pool);
  });
  a_entered.wait();

  // Call B, waiting for its own indices, must not pick up A's index 1.
  std::atomic<int> b_runs{0};
  ASSERT_TRUE(ParallelFor(
                  0, 2,
                  [&](size_t) -> Status {
                    ++b_runs;
                    return Status::OK();
                  },
                  &pool)
                  .ok());
  EXPECT_EQ(b_runs.load(), 2);
  EXPECT_EQ(a_index1_runs.load(), 0) << "call B ran call A's index 1";

  release_a.count_down();
  release_worker.count_down();
  a_caller.join();
  EXPECT_TRUE(a_status.ok());
  EXPECT_EQ(a_index1_runs.load(), 1);
}

TEST(ParallelForTest, FinishesWhileEveryWorkerIsBusy) {
  std::vector<int> hits(100, 0);
  std::vector<std::thread::id> ran_on(hits.size());
  {
    ThreadPool pool(3);
    std::latch release(1);
    HoldEveryWorker(pool, release);
    // With no worker free, the caller claims and runs every index itself;
    // the helper tasks stay queued behind the blockers.
    ASSERT_TRUE(ParallelFor(
                    0, hits.size(),
                    [&](size_t i) -> Status {
                      ++hits[i];
                      ran_on[i] = std::this_thread::get_id();
                      return Status::OK();
                    },
                    &pool)
                    .ok());
    release.count_down();
    // ~ThreadPool runs the late helpers before joining: they find no index
    // left and never call the (by then destroyed) function.
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

TEST(ParallelMapTest, ResultsLandInInputOrder) {
  ThreadPool pool(4);
  Result<std::vector<std::string>> r = ParallelMap<std::string>(
      50,
      [](size_t i) -> Result<std::string> {
        return "v" + std::to_string(i);
      },
      &pool);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 50u);
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ((*r)[i], "v" + std::to_string(i));
  }
}

TEST(ParallelMapTest, ErrorPropagates) {
  ThreadPool pool(2);
  Result<std::vector<int>> r = ParallelMap<int>(
      20,
      [](size_t i) -> Result<int> {
        if (i == 11) return Status::NotFound("11");
        return static_cast<int>(i);
      },
      &pool);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  EXPECT_GE(ThreadPool::Default().size(), 1u);
}

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32C check value and the empty-string identity.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // iSCSI test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "hello, data lake";
  uint32_t whole = Crc32c(data);
  uint32_t chunked = Crc32c(data.substr(5), Crc32c(data.substr(0, 5)));
  EXPECT_EQ(whole, chunked);
}

TEST(Crc32Test, DetectsBitFlips) {
  std::string data = "record payload";
  uint32_t before = Crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32Test, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

TEST(RetryTest, TransientClassification) {
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::IoError("disk blip")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::NotFound("gone")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::AlreadyExists("lost race")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::Corruption("bad crc")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::OK()));
}

TEST(RetryTest, RetriesTransientUntilSuccess) {
  RetryOptions options;
  options.max_attempts = 5;
  RetryPolicy policy(options);
  int sleeps = 0;
  policy.set_sleep_fn([&](std::chrono::milliseconds) { ++sleeps; });
  int calls = 0;
  Status status = policy.Run([&] {
    ++calls;
    return calls < 3 ? Status::IoError("blip") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps, 2);  // one backoff between each pair of attempts
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RetryOptions options;
  options.max_attempts = 3;
  RetryPolicy policy(options);
  policy.set_sleep_fn([](std::chrono::milliseconds) {});
  int calls = 0;
  Status status = policy.Run([&] {
    ++calls;
    return Status::IoError("always down");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, PermanentErrorsReturnImmediately) {
  RetryPolicy policy;
  policy.set_sleep_fn([](std::chrono::milliseconds) {});
  int calls = 0;
  Status status = policy.Run([&] {
    ++calls;
    return Status::NotFound("missing key");
  });
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, BackoffIsJitteredAndBounded) {
  RetryOptions options;
  options.max_attempts = 8;
  options.initial_backoff = std::chrono::milliseconds(4);
  options.max_backoff = std::chrono::milliseconds(20);
  RetryPolicy policy(options);
  std::vector<int64_t> sleeps;
  policy.set_sleep_fn(
      [&](std::chrono::milliseconds d) { sleeps.push_back(d.count()); });
  Status status =
      policy.Run([] { return Status::IoError("always down"); });
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(sleeps.size(), 7u);
  for (int64_t ms : sleeps) {
    EXPECT_GE(ms, 0);
    EXPECT_LE(ms, options.max_backoff.count());
  }
}

TEST(RetryTest, RunResultFlavor) {
  RetryPolicy policy;
  policy.set_sleep_fn([](std::chrono::milliseconds) {});
  int calls = 0;
  Result<int> result = policy.RunResult([&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::IoError("blip");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------- RwLock

TEST(WriterPriorityRwLockTest, ExclusiveExcludesSharedAndVersaVice) {
  WriterPriorityRwLock lock;
  // Two values only ever updated together under the exclusive lock; any
  // reader seeing them out of sync caught a torn update.
  long a = 0;
  long b = 0;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        std::unique_lock guard(lock);
        ++a;
        ++b;
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_lock guard(lock);
        EXPECT_EQ(a, b);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done.store(true, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(a, 4000);
  EXPECT_EQ(b, 4000);
}

TEST(WriterPriorityRwLockTest, WritersAreNotStarvedByContinuousReaders) {
  // The regression that motivated the custom lock: glibc's shared_mutex
  // prefers readers, so overlapping reader loops can block a writer
  // forever. Here readers spin-taking the shared lock until the writer
  // gets through — with reader preference this test would hang.
  WriterPriorityRwLock lock;
  bool written = false;
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (;;) {
        std::shared_lock guard(lock);
        if (written) return;
      }
    });
  }
  std::thread writer([&] {
    std::unique_lock guard(lock);
    written = true;
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(written);
}

// ---------------------------------------------------------------- Bloom

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter empty;
  EXPECT_FALSE(empty.MayContain(""));
  EXPECT_FALSE(empty.MayContain("anything"));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  constexpr int kKeys = 2000;
  BloomFilter filter(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    filter.Add("key" + std::to_string(i));
  }
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(filter.MayContain("key" + std::to_string(i)))
        << "false negative for key" << i;
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsBounded) {
  constexpr int kKeys = 2000;
  BloomFilter filter(kKeys, /*bits_per_key=*/10);
  for (int i = 0; i < kKeys; ++i) {
    filter.Add("present" + std::to_string(i));
  }
  int false_positives = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (filter.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  // Theoretical FP rate at 10 bits/key is ~1%; allow generous slack so the
  // test pins "filters actually filter" without being hash-flaky.
  EXPECT_LT(false_positives, kProbes / 20)
      << "FP rate " << (100.0 * false_positives / kProbes) << "%";
}

TEST(BloomFilterTest, BinaryKeysAreExact) {
  BloomFilter filter(4);
  std::string nul("\x00\x01\xff", 3);
  filter.Add(nul);
  filter.Add("");
  EXPECT_TRUE(filter.MayContain(nul));
  EXPECT_TRUE(filter.MayContain(""));
}

}  // namespace
}  // namespace lakekit
