#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
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

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
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

/// Completion state shared between the chunks of one ParallelFor call.
struct ForState {
  Mutex mu;
  CondVar done;
  size_t pending LAKEKIT_GUARDED_BY(mu) = 0;
  /// From the lowest failing chunk.
  Status first_error LAKEKIT_GUARDED_BY(mu);
  size_t first_error_chunk LAKEKIT_GUARDED_BY(mu) =
      std::numeric_limits<size_t>::max();
};

}  // namespace

Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn,
                   const ParallelOptions& options) {
  if (end <= begin) return Status::OK();
  const size_t n = end - begin;
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::Default();

  size_t grain = options.grain;
  if (grain == 0) {
    grain = std::max<size_t>(1, n / std::max<size_t>(1, pool.size() * 4));
  }
  const size_t num_chunks = (n + grain - 1) / grain;

  // One chunk: run it inline, no queue traffic.
  auto run_range = [&fn](size_t lo, size_t hi) -> Status {
    Status s;
    try {
      for (size_t i = lo; i < hi && s.ok(); ++i) {
        s = fn(i);
      }
    } catch (const std::exception& e) {
      s = Status::Internal(std::string("uncaught exception in ParallelFor: ") +
                           e.what());
    } catch (...) {
      s = Status::Internal("uncaught non-std exception in ParallelFor");
    }
    return s;
  };
  if (num_chunks == 1) return run_range(begin, end);

  auto state = std::make_shared<ForState>();
  state->pending = num_chunks;

  auto finish_chunk = [state](size_t chunk, Status s) {
    bool last = false;
    {
      MutexLock lock(state->mu);
      if (!s.ok() && chunk < state->first_error_chunk) {
        state->first_error = std::move(s);
        state->first_error_chunk = chunk;
      }
      last = (--state->pending == 0);
    }
    // Notify outside the lock; waiters re-check pending under it, so the
    // wakeup cannot be lost.
    if (last) state->done.NotifyAll();
  };

  // Cancellation gate, run before a chunk starts: a chunk is skipped when
  // a *lower* chunk already failed. That preserves the deterministic
  // lowest-chunk-wins contract: every chunk below the eventual winner still
  // runs (by induction, none of them can have been skipped), so the winning
  // error is the one the run-everything execution would have returned —
  // only work above it is shed.
  auto run_chunk = [state, finish_chunk, &run_range](size_t c, size_t lo,
                                                     size_t hi) {
    bool skip = false;
    {
      MutexLock lock(state->mu);
      skip = state->first_error_chunk < c;
    }
    // A skipped chunk reports OK: it contributes no error and no work.
    finish_chunk(c, skip ? Status::OK() : run_range(lo, hi));
  };

  // Chunks 1..num_chunks-1 go to the pool; the caller runs chunk 0 itself.
  // `fn` and `run_range` are captured by reference: the caller blocks below
  // until every chunk has finished, so they outlive all tasks.
  for (size_t c = 1; c < num_chunks; ++c) {
    const size_t lo = begin + c * grain;
    const size_t hi = std::min(end, lo + grain);
    pool.Submit([c, lo, hi, run_chunk] { run_chunk(c, lo, hi); });
  }
  run_chunk(0, begin, std::min(end, begin + grain));

  // Wait for the remaining chunks, helping drain the queue instead of
  // sleeping while tasks are runnable: this is what makes nested
  // ParallelFor on one pool deadlock-free — every thread that enqueues work
  // also participates in running it.
  for (;;) {
    {
      MutexLock lock(state->mu);
      if (state->pending == 0) break;
    }
    if (!pool.TryRunOneTask()) {
      MutexLock lock(state->mu);
      // Nothing runnable: our chunks are executing on other threads. Wake
      // on completion, or re-check shortly in case new (nested) tasks we
      // could help with have arrived.
      if (state->pending != 0) {
        state->done.WaitFor(state->mu, std::chrono::milliseconds(1));
      }
    }
  }

  MutexLock lock(state->mu);
  return state->first_error;
}

}  // namespace lakekit
