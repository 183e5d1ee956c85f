#ifndef QIKEY_SERVE_QUERY_ENGINE_H_
#define QIKEY_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "serve/verdict_cache.h"
#include "util/thread_pool.h"

namespace qikey {

/// Options for `QueryEngine`.
struct QueryEngineOptions {
  /// Worker threads for request batches; 1 = serial, 0 = one per
  /// usable CPU. Responses are identical at any thread count.
  size_t num_threads = 1;
  /// Verdict-cache capacity; 0 disables caching. The cache is
  /// answer-transparent: it can only change latency.
  size_t cache_capacity = 4096;
  size_t cache_shards = 16;
  /// Smallest number of requests worth handing to another thread in
  /// the validate/cache sweep. Below this, fan-out overhead (chunk
  /// claims, cold request cache lines on another core) outweighs the
  /// work; batches of at most this size run inline on the caller.
  size_t min_batch_grain = 64;
};

/// \brief Concurrent request executor over a `SnapshotStore`.
///
/// Each request (or batch) pins the store's current snapshot, answers
/// purely from it, and stamps the snapshot's epoch on the response —
/// so a publish racing a batch never mixes epochs within it, and two
/// responses with equal epochs are mutually consistent.
///
/// Batches are executed the way the discovery pipeline queries its own
/// filter: all uncached `is-key` requests of the batch go through one
/// `SeparationFilter::QueryBatch` (fanning out over the engine's
/// `ThreadPool`, hitting the bitset block kernel on that backend), and
/// the sample-evaluated kinds are split over the same pool. Responses
/// are positionally aligned with requests and bit-identical across
/// thread counts and cache configurations.
///
/// Thread safety: `Execute`/`ExecuteBatch` are safe to call
/// concurrently from many threads, concurrently with `Publish` on the
/// store. (A batch already parallelizes internally; concurrent callers
/// additionally share the verdict cache.)
class QueryEngine {
 public:
  QueryEngine(const SnapshotStore* store, const QueryEngineOptions& options);

  /// Answers one request against the current snapshot. A response with
  /// a non-OK status (no snapshot published yet, arity mismatch, ...)
  /// carries no payload.
  QueryResponse Execute(const QueryRequest& request) const;

  /// Answers `requests[i]` into the `i`-th response, all against one
  /// pinned snapshot.
  std::vector<QueryResponse> ExecuteBatch(
      std::span<const QueryRequest> requests) const;

  uint64_t cache_hits() const { return cache_.hits(); }
  uint64_t cache_misses() const { return cache_.misses(); }
  size_t cache_size() const { return cache_.size(); }

  size_t num_threads() const {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  /// Registers the engine's metric families with `registry`:
  /// `engine.*` (request/batch counters, batch-size histogram,
  /// per-pass validate/dedupe/execute timings), `cache.*`
  /// (hit/miss/evict/size), `snapshot.*` (epoch, publish count, age),
  /// and — when the engine owns a pool — `pool.*` (queue depth, task
  /// latency). The registry must not outlive the engine or its store.
  /// Recording is always on; registration only exposes the instruments.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  /// Validates `request` against `snapshot`; OK means the payload can
  /// be computed.
  static Status ValidateRequest(const ServeSnapshot& snapshot,
                                const QueryRequest& request);
  /// Computes the payload for one valid non-`is-key` request.
  static void AnswerOnSample(const ServeSnapshot& snapshot,
                             const QueryRequest& request,
                             QueryResponse* response);

  const SnapshotStore* store_;
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable VerdictCache cache_;

  // Observability (recorded by const ExecuteBatch, hence mutable; all
  // instruments are internally thread-safe).
  mutable Counter requests_;
  mutable Counter batches_;
  mutable LatencyHistogram batch_size_;
  mutable LatencyHistogram validate_ns_;
  mutable LatencyHistogram dedupe_ns_;
  mutable LatencyHistogram execute_ns_;
  mutable Gauge pool_queue_depth_;
  mutable LatencyHistogram pool_task_ns_;
};

}  // namespace qikey

#endif  // QIKEY_SERVE_QUERY_ENGINE_H_
