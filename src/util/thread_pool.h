#ifndef QIKEY_UTIL_THREAD_POOL_H_
#define QIKEY_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace qikey {

/// \brief Fixed-size worker pool whose only job is `ParallelFor`.
///
/// Parallelizes embarrassingly parallel inner loops: per-attribute
/// greedy gains, batch filter queries, shard and CSV-chunk builds, and
/// the CLI's split of a request file over callers. The serving engine
/// owns no pool; its callers (shard loops, `qikey query --threads`)
/// bring the parallelism.
///
/// Exception safety: a throwing chunk does not kill its worker, every
/// other chunk of the batch still runs, and the first exception is
/// rethrown from the `ParallelFor` call that scheduled it — so
/// concurrent batches sharing one pool each see their own failure,
/// never a sibling's, and the pool stays usable for the next batch.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// \brief Splits `[0, n)` into contiguous chunks and runs
  /// `fn(begin, end)` for each — on `pool` if non-null, inline
  /// otherwise. Blocks until all chunks complete; the first exception
  /// a chunk throws is rethrown from THIS call.
  ///
  /// `min_grain` is the smallest chunk worth fanning out: ranges of at
  /// most `min_grain` run inline, and no chunk is smaller (so cheap
  /// per-element bodies amortize the per-chunk claim). The call
  /// enqueues at most one helper per worker under a single queue-lock
  /// acquisition; the helpers and the calling thread claim fixed-size
  /// chunks off one shared atomic counter (no per-chunk heap closure,
  /// no per-chunk queue mutex), and the caller returns as soon as the
  /// last chunk completes — concurrent batches on a shared pool do not
  /// serialize behind each other.
  static void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t, size_t)>& fn,
                          size_t min_grain = 1);

 private:
  /// One ParallelFor call's shared state (defined in the .cc).
  struct Batch;

  /// Enqueues `copies` helpers for `batch` under one lock acquisition
  /// and wakes enough workers for them.
  void SubmitBatch(const std::shared_ptr<Batch>& batch, size_t copies);

  void WorkerLoop();

  std::vector<std::thread> workers_;
  /// Queue capability: guards the helper queue and the shutdown flag.
  Mutex mu_;
  CondVar task_ready_;
  std::queue<std::shared_ptr<Batch>> tasks_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
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
