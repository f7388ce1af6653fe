// Concurrency coverage for the thread-safe KvStore: N writer threads × M
// reader threads over the group-commit write path, WriteBatch atomicity
// under contention, and flush/compaction racing readers. Runs in the TSan
// CI preset; the assertions here are the functional half, the race detector
// is the other half.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "storage/kv_store.h"

namespace lakekit::storage {
namespace {

namespace fs = std::filesystem;

class KvStoreConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lakekit_conc_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& sub) const {
    return (dir_ / sub).string();
  }

  fs::path dir_;
};

/// Small thresholds so the workload drives flushes and compactions while
/// readers and other writers are active.
KvStoreOptions SmallOptions() {
  KvStoreOptions options;
  options.memtable_flush_bytes = 2048;
  options.compaction_trigger_runs = 3;
  return options;
}

TEST_F(KvStoreConcurrentTest, WritersAndReadersDontCorrupt) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kKeysPerWriter = 150;
  auto store = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(store.ok());
  KvStore* kv = store->get();

  std::atomic<bool> writers_done{false};
  std::vector<Status> writer_status(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([kv, t, &writer_status] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        Status s = kv->Put("w" + std::to_string(t) + "-k" + std::to_string(i),
                           "v" + std::to_string(t) + "-" + std::to_string(i));
        if (!s.ok()) {
          writer_status[t] = s;
          return;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([kv, r, &writers_done] {
      // Readers hammer Get and Scan on keys that may or may not exist yet;
      // any value observed must be one some writer actually wrote.
      uint64_t probe = static_cast<uint64_t>(r);
      while (!writers_done.load(std::memory_order_acquire)) {
        const int t = static_cast<int>(probe % kWriters);
        const int i = static_cast<int>(probe % kKeysPerWriter);
        auto got = kv->Get("w" + std::to_string(t) + "-k" + std::to_string(i));
        if (got.ok()) {
          EXPECT_EQ(*got,
                    "v" + std::to_string(t) + "-" + std::to_string(i));
        }
        auto scanned = kv->Scan("w1-", "w2-");
        EXPECT_TRUE(scanned.ok());
        probe += 7;
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  for (int t = 0; t < kWriters; ++t) {
    ASSERT_TRUE(writer_status[t].ok()) << writer_status[t].message();
  }
  // Every acknowledged write must be visible...
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      auto got = kv->Get("w" + std::to_string(t) + "-k" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << "lost w" << t << "-k" << i;
      EXPECT_EQ(*got, "v" + std::to_string(t) + "-" + std::to_string(i));
    }
  }
  // ... and must replay from the group-committed WAL + runs after reopen.
  store->reset();
  auto reopened = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(reopened.ok());
  auto all = (*reopened)->Scan();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kWriters * kKeysPerWriter));
}

TEST_F(KvStoreConcurrentTest, ConcurrentWriteBatchesAllLand) {
  constexpr int kThreads = 6;
  constexpr int kBatchesPerThread = 20;
  constexpr int kOpsPerBatch = 8;
  auto store = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(store.ok());
  KvStore* kv = store->get();

  // Drive the committers through the default ThreadPool — the same
  // execution layer the parallel ingest paths use.
  Status status = ParallelFor(
      0, kThreads,
      [&](size_t t) -> Status {
        for (int b = 0; b < kBatchesPerThread; ++b) {
          WriteBatch batch;
          for (int i = 0; i < kOpsPerBatch; ++i) {
            batch.Put("t" + std::to_string(t) + "-b" + std::to_string(b) +
                          "-k" + std::to_string(i),
                      "payload" + std::to_string(i));
          }
          LAKEKIT_RETURN_IF_ERROR(kv->Write(batch));
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.message();

  auto all = kv->Scan();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(),
            static_cast<size_t>(kThreads * kBatchesPerThread * kOpsPerBatch));
}

TEST_F(KvStoreConcurrentTest, DeletesRacingPutsConverge) {
  constexpr int kKeys = 200;
  auto store = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(store.ok());
  KvStore* kv = store->get();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(kv->Put("k" + std::to_string(i), "seed").ok());
  }
  // One thread overwrites even keys, one deletes odd keys, one compacts.
  std::thread putter([kv] {
    for (int i = 0; i < kKeys; i += 2) {
      EXPECT_TRUE(kv->Put("k" + std::to_string(i), "final").ok());
    }
  });
  std::thread deleter([kv] {
    for (int i = 1; i < kKeys; i += 2) {
      EXPECT_TRUE(kv->Delete("k" + std::to_string(i)).ok());
    }
  });
  std::thread maintainer([kv] {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(kv->Flush().ok());
      EXPECT_TRUE(kv->Compact().ok());
    }
  });
  putter.join();
  deleter.join();
  maintainer.join();

  for (int i = 0; i < kKeys; ++i) {
    auto got = kv->Get("k" + std::to_string(i));
    if (i % 2 == 0) {
      ASSERT_TRUE(got.ok()) << "k" << i;
      EXPECT_EQ(*got, "final");
    } else {
      EXPECT_FALSE(got.ok()) << "deleted k" << i << " still visible";
    }
  }
  // Survives recovery too.
  store->reset();
  auto reopened = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Scan()->size(), static_cast<size_t>(kKeys / 2));
}

TEST_F(KvStoreConcurrentTest, ScanPrefixStableUnderConcurrentCompaction) {
  auto store = KvStore::Open(Path("kv"), SmallOptions());
  ASSERT_TRUE(store.ok());
  KvStore* kv = store->get();
  constexpr int kStable = 100;
  for (int i = 0; i < kStable; ++i) {
    ASSERT_TRUE(kv->Put("stable/" + std::to_string(i), "x").ok());
  }
  std::atomic<bool> done{false};
  std::thread churn([kv, &done] {
    int i = 0;
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(kv->Put("churn/" + std::to_string(i++ % 50), "y").ok());
      if (i % 25 == 0) {
        EXPECT_TRUE(kv->Compact().ok());
      }
    }
  });
  for (int round = 0; round < 50; ++round) {
    auto scanned = kv->ScanPrefix("stable/");
    ASSERT_TRUE(scanned.ok());
    // The stable keyspace never changes: every scan sees exactly it.
    EXPECT_EQ(scanned->size(), static_cast<size_t>(kStable));
  }
  done.store(true, std::memory_order_release);
  churn.join();
}

}  // namespace
}  // namespace lakekit::storage
