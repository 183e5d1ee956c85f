#ifndef QIKEY_UTIL_THREAD_POOL_H_
#define QIKEY_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace qikey {

/// \brief Minimal fixed-size worker pool.
///
/// Used to parallelize embarrassingly parallel inner loops (per-
/// attribute greedy gains, batch filter queries, serve-layer request
/// batches).
///
/// Exception safety: a throwing task does not kill its worker. For
/// directly `Submit`ted tasks the first exception is captured (later
/// ones are discarded), every remaining task still runs, and the next
/// `Wait()` rethrows it once the pool is idle — so a batch with a
/// throwing task fails deterministically (it always throws, never
/// half-succeeds silently) and the pool stays usable for the next
/// batch. `ParallelFor` additionally confines its callback's
/// exceptions to the invoking call, so concurrent batches sharing one
/// pool each see their own failure (the Submit/Wait capture alone
/// cannot attribute an exception to the right concurrent caller).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Attaches borrowed observability instruments: `queue_depth` tracks
  /// the number of queued (not yet started) tasks, `task_ns` records
  /// submit-to-completion wall time per task. Either may be null.
  /// The instruments must outlive the pool; the pointers are atomics
  /// (release/acquire) because workers started before the attach read
  /// them concurrently. Tasks already queued at attach time are not
  /// timed (their submit timestamp was never taken).
  void AttachMetrics(Gauge* queue_depth, LatencyHistogram* task_ns);

  /// Blocks until the queue is empty and all workers are idle. If any
  /// task threw since the last `Wait()`, rethrows the first captured
  /// exception (and clears it, leaving the pool ready for reuse).
  void Wait();

  /// \brief Splits `[0, n)` into contiguous chunks and runs
  /// `fn(begin, end)` for each — on `pool` if non-null, inline
  /// otherwise. Blocks until all chunks complete; the first exception
  /// a chunk throws is rethrown from THIS call (captured per-call, so
  /// concurrent ParallelFor batches on a shared pool cannot observe
  /// each other's failures).
  ///
  /// `min_grain` is the smallest chunk worth fanning out: ranges of at
  /// most `min_grain` run inline, and no chunk is smaller (so cheap
  /// per-element bodies amortize the per-chunk claim). Fan-out is a
  /// batch path, not a queue path: the call enqueues at most one
  /// helper task per worker under a single queue-lock acquisition, the
  /// helpers and the calling thread claim fixed-size chunks off one
  /// shared atomic counter (no per-chunk heap `std::function`, no per-
  /// chunk queue mutex), and the caller returns as soon as the last
  /// chunk completes — it does not wait for the rest of the pool to go
  /// idle, so concurrent batches on a shared pool do not serialize
  /// behind each other.
  static void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t, size_t)>& fn,
                          size_t min_grain = 1);

 private:
  struct Task {
    std::function<void()> fn;
    /// Batch fast path: when set, the worker runs `raw_fn(state.get())`
    /// instead of `fn`. Copies of one batch's Task share `state`
    /// (refcount bump, no allocation).
    void (*raw_fn)(void*) = nullptr;
    std::shared_ptr<void> state;
    int64_t submit_ns = 0;  ///< 0 when task latency is not being timed.
  };

  /// Enqueues `copies` identical batch-helper tasks under one lock
  /// acquisition and wakes enough workers for them.
  void SubmitBatch(void (*raw_fn)(void*), std::shared_ptr<void> state,
                   size_t copies);

  void WorkerLoop();

  std::vector<std::thread> workers_;
  /// Queue capability: guards the task queue, the idle accounting, the
  /// shutdown flag, and the captured exception below.
  Mutex mu_;
  CondVar task_ready_;
  CondVar all_idle_;
  std::queue<Task> tasks_ GUARDED_BY(mu_);
  /// Borrowed instruments, atomically published by `AttachMetrics`
  /// (release) and read by workers that may predate the attach
  /// (acquire) — deliberately NOT behind `mu_`: the hot task path must
  /// not take the queue lock to record a latency.
  std::atomic<Gauge*> queue_depth_{nullptr};
  std::atomic<LatencyHistogram*> task_ns_{nullptr};
  size_t active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// First exception thrown by a task since the last Wait(); rethrown
  /// and cleared by Wait().
  std::exception_ptr first_exception_ GUARDED_BY(mu_);
};

/// CPUs in this process's affinity mask, at least 1: how many threads
/// can run at once. `std::thread::hardware_concurrency` counts every
/// online CPU, even under `taskset` or a container's CPU set.
size_t UsableCpuCount();

/// A worker-count option resolved: `num_threads` itself, or
/// `UsableCpuCount()` when it is 0 ("one per CPU").
size_t ResolveThreads(size_t num_threads);

}  // namespace qikey

#endif  // QIKEY_UTIL_THREAD_POOL_H_
