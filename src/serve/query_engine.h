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

/// Options for engine `index` of `count` that share `cache_capacity` as
/// a total: `capacity / count` entries each, one more for the first
/// `capacity % count`.
QueryEngineOptions SplitQueryEngineOptions(const QueryEngineOptions& options,
                                           size_t count, size_t index);

/// \brief One caller's request executor over a `SnapshotStore`.
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
/// and bit-identical across engines, caller counts and cache
/// configurations.
///
/// Thread safety: an engine belongs to one caller thread; its verdict
/// cache has no lock. Concurrent callers (the server's shard loops,
/// `qikey query --threads`) each own an engine over the same store,
/// and `Publish` on the store is safe concurrently with all of them.
/// The engine owns no threads. Its metrics (`RegisterMetrics`) may be
/// read from any thread.
class QueryEngine {
 public:
  QueryEngine(const SnapshotStore* store, const QueryEngineOptions& options);

  /// Answers one request against the current snapshot. A response with
  /// a non-OK status (no snapshot published yet, arity mismatch, ...)
  /// carries no payload.
  QueryResponse Execute(const QueryRequest& request);

  /// Answers `requests[i]` into the `i`-th response, all against one
  /// pinned snapshot.
  std::vector<QueryResponse> ExecuteBatch(
      std::span<const QueryRequest> requests);

  uint64_t cache_hits() const { return cache_.hits(); }
  uint64_t cache_misses() const { return cache_.misses(); }
  size_t cache_size() const { return cache_.size(); }

  /// Registers with `registry`, summed (histograms merged) over
  /// `engines` (non-empty, one store): `engine.*` (request/batch
  /// counters, batch-size histogram, per-pass validate/dedupe/execute
  /// timings), `cache.*` (hit/miss/evict/size) and `snapshot.*` (epoch,
  /// publish count, age). The registry must not outlive the engines or
  /// their store. Registration only exposes the always-on instruments.
  static void RegisterMetrics(std::span<const QueryEngine* const> engines,
                              MetricsRegistry* registry);

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
  VerdictCache cache_;

  // Observability: written by the owning caller, read by `stats` from
  // any thread (all instruments are internally thread-safe).
  LatencyHistogram batch_size_;
  LatencyHistogram validate_ns_;
  LatencyHistogram dedupe_ns_;
  LatencyHistogram execute_ns_;
};

}  // namespace qikey

#endif  // QIKEY_SERVE_QUERY_ENGINE_H_
