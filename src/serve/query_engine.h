#ifndef QIKEY_SERVE_QUERY_ENGINE_H_
#define QIKEY_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "serve/verdict_cache.h"

namespace qikey {

/// Options for `QueryEngine`.
struct QueryEngineOptions {
  /// Verdict-cache capacity; 0 disables caching. The cache is
  /// answer-transparent: it can only change latency.
  size_t cache_capacity = 4096;
};

/// \brief Concurrent request executor over a `SnapshotStore`.
///
/// Each request (or batch) pins the store's current snapshot, answers
/// purely from it, and stamps the snapshot's epoch on the response —
/// so a publish racing a batch never mixes epochs within it, and two
/// responses with equal epochs are mutually consistent.
///
/// A batch runs entirely on the calling thread, the way the discovery
/// pipeline queries its own filter: all uncached `is-key` requests of
/// the batch go through one `SeparationFilter::QueryBatch` (the bitset
/// backend's block kernel), and the sample-evaluated kinds are
/// answered in place. Responses are positionally aligned with requests
/// and bit-identical across caller counts and cache configurations.
///
/// Thread safety: `Execute`/`ExecuteBatch` are safe to call
/// concurrently from many threads, concurrently with `Publish` on the
/// store. The engine owns no threads: parallelism comes from callers
/// (the server's shard loops, `qikey query --threads`), which share
/// the verdict cache.
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

  /// Registers the engine's metric families with `registry`:
  /// `engine.*` (request/batch counters, batch-size histogram,
  /// per-pass validate/dedupe/execute timings), `cache.*`
  /// (hit/miss/evict/size) and `snapshot.*` (epoch, publish count,
  /// age). The registry must not outlive the engine or its store.
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
  mutable VerdictCache cache_;

  // Observability (recorded by const ExecuteBatch, hence mutable; all
  // instruments are internally thread-safe).
  mutable Counter requests_;
  mutable Counter batches_;
  mutable LatencyHistogram batch_size_;
  mutable LatencyHistogram validate_ns_;
  mutable LatencyHistogram dedupe_ns_;
  mutable LatencyHistogram execute_ns_;
};

}  // namespace qikey

#endif  // QIKEY_SERVE_QUERY_ENGINE_H_
