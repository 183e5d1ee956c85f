#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/logging.h"

namespace qikey {

/// Shared control block of one ParallelFor batch. Helpers and the
/// calling thread claim fixed-size chunks off `next` — one relaxed
/// fetch_add per chunk, no queue traffic — so chunks can stay small
/// enough to load-balance without paying a mutex per chunk. Heap-owned
/// via shared_ptr: a helper that only runs after the caller has
/// already returned (every chunk was claimed by others) still touches
/// live memory. `fn` is the caller's reference; it is only invoked for
/// a successfully claimed chunk, and the caller cannot return before
/// every claimed chunk has completed, so the reference never dangles.
///
/// Exceptions are confined to THIS batch, not parked in the pool:
/// concurrent ParallelFor batches sharing one pool must each see their
/// own callback's failure, never a sibling batch's.
struct ThreadPool::Batch {
  const std::function<void(size_t, size_t)>* fn = nullptr;
  size_t n = 0;
  size_t chunk = 0;
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> chunks_done{0};
  Mutex mu;
  CondVar done;
  std::exception_ptr first GUARDED_BY(mu);

  void Drain() {
    for (;;) {
      size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      size_t begin = c * chunk;
      size_t end = std::min(n, begin + chunk);
      try {
        (*fn)(begin, end);
      } catch (...) {
        MutexLock lock(mu);
        if (!first) first = std::current_exception();
      }
      if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        // Lock before notifying so the waiter cannot check the
        // predicate and park between our load and our notify.
        MutexLock lock(mu);
        done.NotifyAll();
      }
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  QIKEY_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::SubmitBatch(const std::shared_ptr<Batch>& batch,
                             size_t copies) {
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < copies; ++i) tasks_.push(batch);
  }
  if (copies == 1) {
    task_ready_.NotifyOne();
  } else {
    task_ready_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) return;  // shut down and drained
      batch = std::move(tasks_.front());
      tasks_.pop();
    }
    // Drain confines the callback's exceptions to the batch. The
    // reference is dropped before parking again, so an idle worker
    // never pins a finished batch's control block.
    batch->Drain();
  }
}

void ThreadPool::ParallelFor(ThreadPool* pool, size_t n,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t min_grain) {
  if (n == 0) return;
  if (min_grain == 0) min_grain = 1;
  if (pool == nullptr || pool->num_threads() == 1 || n <= min_grain) {
    fn(0, n);
    return;
  }
  const size_t threads = pool->num_threads();
  // 8 claimable chunks per thread bounds tail imbalance at ~1/8 of one
  // thread's share; the grain floor keeps cheap per-element bodies
  // from drowning in per-chunk overhead.
  const size_t chunk =
      std::max(min_grain, (n + 8 * threads - 1) / (8 * threads));
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    fn(0, n);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  batch->chunk = chunk;
  batch->num_chunks = num_chunks;
  // The caller participates, so at most num_chunks - 1 helpers can
  // ever claim work.
  pool->SubmitBatch(batch, std::min(threads, num_chunks - 1));
  batch->Drain();
  std::exception_ptr first;
  {
    MutexLock lock(batch->mu);
    while (batch->chunks_done.load(std::memory_order_acquire) !=
           batch->num_chunks) {
      batch->done.Wait(batch->mu);
    }
    first = batch->first;
  }
  if (first) std::rethrow_exception(first);
}

size_t UsableCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(CPU_COUNT(&set), 1));
}

size_t ResolveThreads(size_t num_threads) {
  return num_threads > 0 ? num_threads : UsableCpuCount();
}

}  // namespace qikey
