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
/// verification, workload generation, brute-force sharding) runs through one
/// of these, usually via `ParallelFor`/`ParallelMap` below. The pool is
/// deliberately simple: a mutex-guarded deque of `std::function<void()>`
/// tasks drained by `num_threads` workers. What makes it safe for nested use
/// is `TryRunOneTask`: a thread that blocks waiting for its own batch to
/// finish *helps drain the queue* instead of sleeping, so a task running on
/// the pool may itself call `ParallelFor` on the same pool without deadlock.
///
/// Thread safety: `Submit`/`TryRunOneTask` may be called from any thread.
/// Submitted tasks must not throw (use `ParallelFor`, which converts
/// exceptions to `Status`, when the work can fail).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task for execution by a worker (or a helping waiter).
  void Submit(std::function<void()> task);

  /// Pops and runs one queued task on the calling thread, if one is ready.
  /// Returns false when the queue was empty. Used by `ParallelFor` waiters
  /// to help instead of blocking — the mechanism that makes nesting safe.
  bool TryRunOneTask();

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

/// Tuning for ParallelFor/ParallelMap.
struct ParallelOptions {
  /// Pool to run on; nullptr means `ThreadPool::Default()`.
  ThreadPool* pool = nullptr;
  /// Indices per task. 0 picks automatically (~4 chunks per worker, at
  /// least 1 index each). Tests use grain=1 to pin chunk == index.
  size_t grain = 0;
};

/// Runs `fn(i)` for every i in [begin, end) across the pool, blocking until
/// all iterations finish. The calling thread participates (it runs the first
/// chunk, then helps drain the queue), so the pool being busy can only slow
/// this call down, never deadlock it.
///
/// Error contract: the returned Status is the error from the *lowest*
/// failing chunk — deterministic regardless of thread interleaving. The
/// first error cancels chunks that have not yet started and sit *above* the
/// failing chunk; everything below it still runs, which is exactly what
/// keeps the lowest-failing-chunk result identical to the run-everything
/// execution. Exceptions thrown by `fn` are caught and reported as
/// `Status::Internal`. Interruption is `fn`'s to check: the query
/// operators test their cancel token and deadline once per morsel and
/// return the error, which then cancels the chunks above it like any other.
Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn,
                   const ParallelOptions& options = {});

/// Maps [0, n) through `fn` (returning Result<T>) into a pre-sized vector so
/// out[i] only ever depends on i: output order — and content, for a
/// deterministic fn — is identical no matter the thread count.
template <typename T, typename Fn>
Result<std::vector<T>> ParallelMap(size_t n, Fn&& fn,
                                   const ParallelOptions& options = {}) {
  std::vector<T> out(n);
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, n,
      [&](size_t i) -> Status {
        LAKEKIT_ASSIGN_OR_RETURN(out[i], fn(i));
        return Status::OK();
      },
      options));
  return out;
}

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_THREAD_POOL_H_
