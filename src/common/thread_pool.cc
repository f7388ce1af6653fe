#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

namespace lakekit {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool pool(DefaultThreads());
  return pool;
}

size_t ThreadPool::DefaultThreads() {
  // Reading the environment races with setenv, which lakekit never calls;
  // tests that set LAKEKIT_THREADS do so before spawning threads.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("LAKEKIT_THREADS")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<size_t>(parsed);
    return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

namespace {

/// What one ParallelFor call shares with its helper tasks. Helpers hold it
/// by shared_ptr, so a helper the pool starts after the call returned still
/// finds it, claims nothing and never touches `fn`. Offsets [0, n) stand for
/// the indices [begin, begin + n).
struct ForCall {
  ForCall(size_t begin, size_t n, const std::function<Status(size_t)>* fn)
      : begin(begin), n(n), fn(fn), remaining(n), lowest_failed(n) {}

  /// Claims and runs offsets until none is left to claim. Returns true when
  /// this thread finished the call's last offset.
  bool Work();

  const size_t begin;  // unguarded: immutable
  const size_t n;      // unguarded: immutable
  /// Called only for a claimed offset, and the call does not return while a
  /// claimed offset is unfinished.
  const std::function<Status(size_t)>* const fn;  // unguarded: immutable
  std::atomic<size_t> next{0};
  /// Offsets not yet finished, run or skipped.
  std::atomic<size_t> remaining;
  /// The lowest failing offset so far, n while none; stored under `mu`.
  std::atomic<size_t> lowest_failed;
  Mutex mu;
  /// Signalled by the helper that finishes the last offset.
  CondVar done;
  Status error LAKEKIT_GUARDED_BY(mu);
};

Status RunIndex(const std::function<Status(size_t)>& fn, size_t i) {
  try {
    return fn(i);
  } catch (const std::exception& e) {
    return Status::Internal(
        std::string("uncaught exception in ParallelFor: ") + e.what());
  } catch (...) {
    return Status::Internal("uncaught non-std exception in ParallelFor");
  }
}

bool ForCall::Work() {
  bool last = false;
  for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next.fetch_add(1, std::memory_order_relaxed)) {
    // An offset above a failed one cannot change the result. A stale read
    // only runs it anyway; every offset below the lowest failure runs.
    if (i < lowest_failed.load(std::memory_order_relaxed)) {
      Status s = RunIndex(*fn, begin + i);
      if (!s.ok()) {
        MutexLock lock(mu);
        if (i < lowest_failed.load(std::memory_order_relaxed)) {
          error = std::move(s);
          lowest_failed.store(i, std::memory_order_relaxed);
        }
      }
    }
    // Release: the caller's acquire load of 0 sees every offset's writes.
    last = remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  return last;
}

}  // namespace

Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn, ThreadPool* pool) {
  if (end <= begin) return Status::OK();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Default();
  auto call = std::make_shared<ForCall>(begin, end - begin, &fn);
  const size_t helpers = std::min(p.size(), call->n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    p.Submit([call] {
      if (call->Work()) {
        // Under the lock, so the wakeup cannot fall between the caller's
        // check of `remaining` and its wait.
        MutexLock lock(call->mu);
        call->done.NotifyAll();
      }
    });
  }
  call->Work();
  MutexLock lock(call->mu);
  while (call->remaining.load(std::memory_order_acquire) != 0) {
    call->done.Wait(call->mu);
  }
  return std::move(call->error);
}

}  // namespace lakekit
