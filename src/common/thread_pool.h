#ifndef LAKEKIT_COMMON_THREAD_POOL_H_
#define LAKEKIT_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace lakekit {

/// A fixed-size work-queue thread pool — lakekit's execution layer.
///
/// Every parallel hot path (corpus sketch building, discovery index
/// verification, workload generation, brute-force sharding, query morsels)
/// runs through one of these via `ParallelFor`/`ParallelMap` below. The pool
/// is deliberately simple: a mutex-guarded deque of `std::function<void()>`
/// tasks drained by `num_threads` workers. Nothing waits on the queue: a
/// `ParallelFor` call can finish on its calling thread alone, so a task
/// running on the pool may itself call `ParallelFor` on the same pool.
///
/// Thread safety: `Submit` may be called from any thread. Submitted tasks
/// must not throw (use `ParallelFor`, which converts exceptions to `Status`,
/// when the work can fail).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task for execution by a worker.
  void Submit(std::function<void()> task);

  /// The process-wide default pool, sized from `DefaultThreads()`. Built on
  /// first use; lives for the remainder of the process.
  static ThreadPool& Default();

  /// `std::thread::hardware_concurrency()`, overridable with the
  /// LAKEKIT_THREADS environment variable (values < 1 clamp to 1). A value
  /// of 1 is the serial opt-out: everything still runs, on one worker.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ LAKEKIT_GUARDED_BY(mu_);
  bool stopping_ LAKEKIT_GUARDED_BY(mu_) = false;
  // unguarded: filled in the constructor before any worker can observe it,
  // then only read (size()) until the destructor joins.
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [begin, end) on `pool` (nullptr means
/// `ThreadPool::Default()`), blocking until all iterations finish. The
/// calling thread and at most `pool->size()` helper tasks claim indices one
/// at a time from a shared counter. The caller keeps claiming until none is
/// left, so the call finishes on the caller alone when every worker is busy;
/// it then waits only for the indices other threads are still running. The
/// caller never runs another call's work, and nesting needs no queue
/// draining.
///
/// Error contract: the returned Status is the serial loop's, the error of
/// the *lowest* failing index, whatever the interleaving. Once an index
/// fails, indices above it that have not started are skipped; every index
/// below it still runs, so the lowest failing index is the one the serial
/// loop would have stopped at. Exceptions thrown by `fn` are caught and
/// reported as `Status::Internal`. Interruption is `fn`'s to check: the
/// query operators test their cancel token and deadline once per morsel and
/// return the error, which then skips the indices above it like any other.
Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn,
                   ThreadPool* pool = nullptr);

/// Maps [0, n) through `fn` (returning Result<T>) into a pre-sized vector so
/// out[i] only ever depends on i: output order — and content, for a
/// deterministic fn — is identical no matter the thread count.
template <typename T, typename Fn>
Result<std::vector<T>> ParallelMap(size_t n, Fn&& fn,
                                   ThreadPool* pool = nullptr) {
  std::vector<T> out(n);
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, n,
      [&](size_t i) -> Status {
        LAKEKIT_ASSIGN_OR_RETURN(out[i], fn(i));
        return Status::OK();
      },
      pool));
  return out;
}

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_THREAD_POOL_H_
