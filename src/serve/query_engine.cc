#include "serve/query_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "core/anonymity.h"
#include "core/separation.h"
#include "util/mutex.h"

namespace qikey {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryEngine::QueryEngine(const SnapshotStore* store,
                         const QueryEngineOptions& options)
    : store_(store),
      options_(options),
      cache_(VerdictCacheOptions{options.cache_capacity,
                                 options.cache_shards}) {
  size_t threads = ResolveThreads(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

Status QueryEngine::ValidateRequest(const ServeSnapshot& snapshot,
                                    const QueryRequest& request) {
  size_t m = snapshot.schema().num_attributes();
  if (request.kind == QueryKind::kMinKey) return Status::OK();
  if (request.attrs.universe_size() != m) {
    return Status::InvalidArgument(
        "request attribute universe does not match the snapshot schema");
  }
  if (request.kind == QueryKind::kAfd) {
    if (request.rhs >= m) {
      return Status::InvalidArgument("afd rhs out of range");
    }
    if (request.attrs.Contains(request.rhs)) {
      return Status::InvalidArgument("afd rhs must not be part of the lhs");
    }
  }
  if (request.kind == QueryKind::kAnonymity && request.k == 0) {
    return Status::InvalidArgument("anonymity k must be >= 1");
  }
  return Status::OK();
}

void QueryEngine::AnswerOnSample(const ServeSnapshot& snapshot,
                                 const QueryRequest& request,
                                 QueryResponse* response) {
  const Dataset& sample = *snapshot.sample;
  switch (request.kind) {
    case QueryKind::kIsKey:
      break;  // answered by the filter batch, not here
    case QueryKind::kSeparation:
      response->separation_ratio = SeparationRatio(sample, request.attrs);
      response->separation_class =
          Classify(sample, request.attrs, snapshot.eps);
      break;
    case QueryKind::kMinKey:
      response->num_minimal_keys = snapshot.keys->size();
      response->has_key = !snapshot.keys->empty();
      if (response->has_key) response->key = snapshot.keys->front();
      break;
    case QueryKind::kAfd:
      response->afd = ComputeAfdError(sample, request.attrs, request.rhs);
      break;
    case QueryKind::kAnonymity:
      response->anonymity_level = AnonymityLevel(sample, request.attrs);
      response->below_k_fraction =
          RowsBelowK(sample, request.attrs, request.k);
      break;
  }
}

QueryResponse QueryEngine::Execute(const QueryRequest& request) const {
  QueryRequest copy[1] = {request};
  return ExecuteBatch(std::span<const QueryRequest>(copy, 1)).front();
}

void QueryEngine::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounter("engine.requests", &requests_);
  registry->RegisterCounter("engine.batches", &batches_);
  registry->RegisterHistogram("engine.batch_size", &batch_size_);
  registry->RegisterHistogram("engine.pass.validate_ns", &validate_ns_);
  registry->RegisterHistogram("engine.pass.dedupe_ns", &dedupe_ns_);
  registry->RegisterHistogram("engine.pass.execute_ns", &execute_ns_);
  registry->RegisterCounterFn("cache.hits", [this] { return cache_.hits(); });
  registry->RegisterCounterFn("cache.misses",
                              [this] { return cache_.misses(); });
  registry->RegisterCounterFn("cache.evictions",
                              [this] { return cache_.evictions(); });
  registry->RegisterGaugeFn("cache.size", [this] {
    return static_cast<int64_t>(cache_.size());
  });
  const SnapshotStore* store = store_;
  registry->RegisterGaugeFn("snapshot.epoch", [store] {
    return static_cast<int64_t>(store->epoch());
  });
  // Publishes THIS process performed — not the epoch, which survives
  // snapshot-file restores and would misreport work done by a previous
  // incarnation.
  registry->RegisterCounterFn("snapshot.publishes",
                              [store] { return store->publishes(); });
  registry->RegisterGaugeFn("snapshot.age_ns", [store] {
    int64_t published = store->last_publish_steady_ns();
    return published == 0 ? int64_t{0} : NowNs() - published;
  });
  if (pool_ != nullptr) {
    pool_->AttachMetrics(&pool_queue_depth_, &pool_task_ns_);
    registry->RegisterGauge("pool.queue_depth", &pool_queue_depth_);
    registry->RegisterHistogram("pool.task_ns", &pool_task_ns_);
  }
}

std::vector<QueryResponse> QueryEngine::ExecuteBatch(
    std::span<const QueryRequest> requests) const {
  batches_.Increment();
  requests_.Increment(requests.size());
  batch_size_.Record(static_cast<int64_t>(requests.size()));
  std::vector<QueryResponse> responses(requests.size());
  std::shared_ptr<const ServeSnapshot> snapshot = store_->Current();
  if (snapshot == nullptr) {
    for (QueryResponse& response : responses) {
      response.status = Status::NotFound("no snapshot published yet");
      response.error_code = ServeErrorCode::kSnapshotUnavailable;
    }
    return responses;
  }

  // Pass 1 (parallel): validate, stamp the pinned epoch, answer the
  // sample-evaluated kinds, and resolve is-key requests against the
  // sharded cache — only cache MISSES survive to the filter pass, and
  // an all-hits batch never leaves this sweep (which is why cached
  // throughput scales with threads). Each chunk writes disjoint
  // response slots and every answer is a pure function of
  // (snapshot, request), so the split cannot change results.
  int64_t pass_start = NowNs();
  // A miss is an is-key request the cache could not answer. Chunks
  // collect them in PER-WORKER scratch and merge once under a mutex —
  // no per-request shared byte array for worker threads to false-share.
  struct MissChunk {
    size_t begin;
    std::vector<uint32_t> misses;  ///< Request positions, ascending.
  };
  Mutex miss_mu;
  std::vector<MissChunk> miss_chunks;
  ThreadPool::ParallelFor(
      pool_.get(), requests.size(),
      [&](size_t begin, size_t end) {
        std::vector<uint32_t> local;
        for (size_t i = begin; i < end; ++i) {
          responses[i].epoch = snapshot->epoch;
          responses[i].status = ValidateRequest(*snapshot, requests[i]);
          if (!responses[i].status.ok()) {
            responses[i].error_code = ServeErrorCode::kValidation;
            continue;
          }
          if (requests[i].kind == QueryKind::kIsKey) {
            FilterVerdict cached;
            if (cache_.Lookup(snapshot->epoch, requests[i].attrs, &cached)) {
              responses[i].verdict = cached;
              responses[i].cache_hit = true;
            } else {
              if (local.empty()) local.reserve(end - i);
              local.push_back(static_cast<uint32_t>(i));
            }
          } else {
            AnswerOnSample(*snapshot, requests[i], &responses[i]);
          }
        }
        if (!local.empty()) {
          MutexLock lock(miss_mu);
          miss_chunks.emplace_back(begin, std::move(local));
        }
      },
      options_.min_batch_grain);

  // Chunks finish in arbitrary order; sorting by chunk origin restores
  // request order, so everything downstream — slot assignment, cache
  // insertion, the filter batch — is independent of the thread count.
  std::sort(miss_chunks.begin(), miss_chunks.end(),
            [](const MissChunk& a, const MissChunk& b) {
              return a.begin < b.begin;
            });

  int64_t pass_end = NowNs();
  validate_ns_.Record(pass_end - pass_start);
  pass_start = pass_end;

  // Pass 2 (serial): dedupe the missed is-key sets in request order —
  // duplicates within the batch share one filter slot, numbered by
  // first occurrence. A flat open-addressing table sized for this
  // batch maps a set to its slot; a set is copied only when it earns
  // one (the filter batch needs contiguous sets).
  size_t num_misses = 0;
  for (const MissChunk& chunk : miss_chunks) num_misses += chunk.misses.size();
  std::vector<std::pair<size_t, size_t>> filter_slots;  // (request, slot)
  std::vector<AttributeSet> filter_attrs;
  if (num_misses > 0) {
    filter_slots.reserve(num_misses);
    filter_attrs.reserve(num_misses);
    constexpr uint32_t kEmpty = ~uint32_t{0};
    std::vector<uint32_t> table(std::bit_ceil(2 * num_misses), kEmpty);
    const size_t mask = table.size() - 1;
    for (const MissChunk& chunk : miss_chunks) {
      for (uint32_t index : chunk.misses) {
        const AttributeSet& attrs = requests[index].attrs;
        size_t i = attrs.Hash() & mask;
        while (table[i] != kEmpty && filter_attrs[table[i]] != attrs) {
          i = (i + 1) & mask;
        }
        if (table[i] == kEmpty) {
          table[i] = static_cast<uint32_t>(filter_attrs.size());
          filter_attrs.push_back(attrs);
        }
        filter_slots.emplace_back(index, table[i]);
      }
    }
  }
  pass_end = NowNs();
  dedupe_ns_.Record(pass_end - pass_start);
  pass_start = pass_end;

  // Pass 3: one batched filter query for all misses (the pipeline's
  // own batched path — on the bitset backend this is the block
  // kernel), then populate the cache.
  if (!filter_attrs.empty()) {
    std::vector<FilterVerdict> verdicts =
        snapshot->filter->QueryBatch(filter_attrs, pool_.get());
    for (size_t j = 0; j < filter_attrs.size(); ++j) {
      cache_.Insert(snapshot->epoch, filter_attrs[j], verdicts[j]);
    }
    for (const auto& [request_index, slot] : filter_slots) {
      responses[request_index].verdict = verdicts[slot];
    }
  }
  execute_ns_.Record(NowNs() - pass_start);
  return responses;
}

}  // namespace qikey
