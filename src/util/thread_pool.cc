#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace qikey {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

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

void ThreadPool::Submit(std::function<void()> task) {
  int64_t submit_ns =
      task_ns_.load(std::memory_order_acquire) != nullptr ? NowNs() : 0;
  Gauge* depth = queue_depth_.load(std::memory_order_acquire);
  {
    MutexLock lock(mu_);
    QIKEY_CHECK(!shutdown_) << "Submit after shutdown";
    Task t;
    t.fn = std::move(task);
    t.submit_ns = submit_ns;
    tasks_.push(std::move(t));
    if (depth != nullptr) depth->Set(static_cast<int64_t>(tasks_.size()));
  }
  task_ready_.NotifyOne();
}

void ThreadPool::SubmitBatch(void (*raw_fn)(void*), std::shared_ptr<void> state,
                             size_t copies) {
  if (copies == 0) return;
  int64_t submit_ns =
      task_ns_.load(std::memory_order_acquire) != nullptr ? NowNs() : 0;
  Gauge* depth = queue_depth_.load(std::memory_order_acquire);
  {
    MutexLock lock(mu_);
    QIKEY_CHECK(!shutdown_) << "Submit after shutdown";
    for (size_t i = 0; i < copies; ++i) {
      Task t;
      t.raw_fn = raw_fn;
      t.state = state;
      t.submit_ns = submit_ns;
      tasks_.push(std::move(t));
    }
    if (depth != nullptr) depth->Set(static_cast<int64_t>(tasks_.size()));
  }
  if (copies == 1) {
    task_ready_.NotifyOne();
  } else {
    task_ready_.NotifyAll();
  }
}

void ThreadPool::AttachMetrics(Gauge* queue_depth, LatencyHistogram* task_ns) {
  queue_depth_.store(queue_depth, std::memory_order_release);
  task_ns_.store(task_ns, std::memory_order_release);
}

void ThreadPool::Wait() {
  std::exception_ptr e;
  {
    MutexLock lock(mu_);
    while (!tasks_.empty() || active_ != 0) all_idle_.Wait(mu_);
    e = first_exception_;
    first_exception_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
      Gauge* depth = queue_depth_.load(std::memory_order_acquire);
      if (depth != nullptr) depth->Set(static_cast<int64_t>(tasks_.size()));
    }
    try {
      if (task.raw_fn != nullptr) {
        task.raw_fn(task.state.get());
      } else {
        task.fn();
      }
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_exception_) first_exception_ = std::current_exception();
    }
    if (task.submit_ns != 0) {
      LatencyHistogram* hist = task_ns_.load(std::memory_order_acquire);
      if (hist != nullptr) hist->Record(NowNs() - task.submit_ns);
    }
    // Drop the batch-state reference before going idle so the last
    // worker to finish a batch doesn't pin its control block while
    // parked on the condvar.
    task = Task{};
    {
      MutexLock lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) all_idle_.NotifyAll();
    }
  }
}

namespace {

/// Shared control block of one ParallelFor batch. Helpers and the
/// calling thread claim fixed-size chunks off `next` — one relaxed
/// fetch_add per chunk, no queue traffic — so chunks can stay small
/// enough to load-balance without paying a mutex per chunk. Heap-owned
/// via shared_ptr: a helper task that only runs after the caller has
/// already returned (every chunk was claimed by others) still touches
/// live memory. `fn` is the caller's reference; it is only invoked for
/// a successfully claimed chunk, and the caller cannot return before
/// every claimed chunk has completed, so the reference never dangles.
///
/// Exceptions are confined to THIS batch, not parked in the pool:
/// concurrent ParallelFor batches sharing one pool must each see their
/// own callback's failure, never a sibling batch's.
struct ParallelForState {
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

void DrainParallelFor(void* state) {
  static_cast<ParallelForState*>(state)->Drain();
}

}  // namespace

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
  auto state = std::make_shared<ParallelForState>();
  state->fn = &fn;
  state->n = n;
  state->chunk = chunk;
  state->num_chunks = num_chunks;
  // The caller participates, so at most num_chunks - 1 helpers can
  // ever claim work.
  pool->SubmitBatch(&DrainParallelFor, state,
                    std::min(threads, num_chunks - 1));
  state->Drain();
  std::exception_ptr first;
  {
    MutexLock lock(state->mu);
    while (state->chunks_done.load(std::memory_order_acquire) !=
           state->num_chunks) {
      state->done.Wait(state->mu);
    }
    first = state->first;
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
