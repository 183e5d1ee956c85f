#include "serve/query_engine.h"

#include <bit>
#include <chrono>
#include <utility>
#include <vector>

#include "core/anonymity.h"
#include "core/separation.h"

namespace qikey {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryEngineOptions SplitQueryEngineOptions(const QueryEngineOptions& options,
                                           size_t count, size_t index) {
  const size_t total = options.cache_capacity;
  return {total / count + (index < total % count ? 1 : 0)};
}

QueryEngine::QueryEngine(const SnapshotStore* store,
                         const QueryEngineOptions& options)
    : store_(store), cache_(VerdictCacheOptions{options.cache_capacity}) {}

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

QueryResponse QueryEngine::Execute(const QueryRequest& request) {
  return ExecuteBatch(std::span<const QueryRequest>(&request, 1)).front();
}

void QueryEngine::RegisterMetrics(std::span<const QueryEngine* const> engines,
                                  MetricsRegistry* registry) {
  const std::vector<const QueryEngine*> all(engines.begin(), engines.end());
  using Engine = const QueryEngine&;
  auto sum = [&all](uint64_t (*read)(Engine)) {
    return [all, read] {
      uint64_t total = 0;
      for (const QueryEngine* engine : all) total += read(*engine);
      return total;
    };
  };
  // Requests and batches are the batch-size histogram's sum and count.
  const std::pair<const char*, uint64_t (*)(Engine)> counters[] = {
      {"engine.requests", [](Engine e) { return e.batch_size_.sum(); }},
      {"engine.batches", [](Engine e) { return e.batch_size_.count(); }},
      {"cache.hits", [](Engine e) { return e.cache_.hits(); }},
      {"cache.misses", [](Engine e) { return e.cache_.misses(); }},
      {"cache.evictions", [](Engine e) { return e.cache_.evictions(); }}};
  for (const auto& [name, read] : counters) {
    registry->RegisterCounterFn(name, sum(read));
  }
  registry->RegisterGaugeFn(
      "cache.size", [size = sum([](Engine e) { return e.cache_.size(); })] {
        return static_cast<int64_t>(size());
      });
  for (auto [name, histogram] :
       {std::pair{"engine.batch_size", &QueryEngine::batch_size_},
        std::pair{"engine.pass.validate_ns", &QueryEngine::validate_ns_},
        std::pair{"engine.pass.dedupe_ns", &QueryEngine::dedupe_ns_},
        std::pair{"engine.pass.execute_ns", &QueryEngine::execute_ns_}}) {
    registry->RegisterHistogramFn(name, [all, histogram] {
      HistogramSnapshot merged;
      for (const QueryEngine* engine : all) {
        merged.MergeFrom((engine->*histogram).Snapshot());
      }
      return merged;
    });
  }
  const SnapshotStore* store = all.front()->store_;
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
}

std::vector<QueryResponse> QueryEngine::ExecuteBatch(
    std::span<const QueryRequest> requests) {
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

  // Pass 1: validate, stamp the pinned epoch, answer the sample-
  // evaluated kinds, and resolve is-key requests against the cache —
  // only cache MISSES, kept in request order, survive to the filter
  // pass.
  int64_t pass_start = NowNs();
  std::vector<uint32_t> misses;
  for (size_t i = 0; i < requests.size(); ++i) {
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
        if (misses.empty()) misses.reserve(requests.size() - i);
        misses.push_back(static_cast<uint32_t>(i));
      }
    } else {
      AnswerOnSample(*snapshot, requests[i], &responses[i]);
    }
  }
  int64_t pass_end = NowNs();
  validate_ns_.Record(pass_end - pass_start);
  pass_start = pass_end;

  // Pass 2: dedupe the missed is-key sets in request order — duplicates
  // within the batch share one filter slot, numbered by first
  // occurrence. A flat open-addressing table sized for this batch maps
  // a set to its slot; a set is copied only when it earns one (the
  // filter batch needs contiguous sets).
  std::vector<std::pair<size_t, size_t>> filter_slots;  // (request, slot)
  std::vector<AttributeSet> filter_attrs;
  if (!misses.empty()) {
    filter_slots.reserve(misses.size());
    filter_attrs.reserve(misses.size());
    constexpr uint32_t kEmpty = ~uint32_t{0};
    std::vector<uint32_t> table(std::bit_ceil(2 * misses.size()), kEmpty);
    const size_t mask = table.size() - 1;
    for (uint32_t index : misses) {
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
  pass_end = NowNs();
  dedupe_ns_.Record(pass_end - pass_start);
  pass_start = pass_end;

  // Pass 3: one batched filter query for all misses (the pipeline's
  // own batched path — on the bitset backend this is the block
  // kernel), then populate the cache.
  if (!filter_attrs.empty()) {
    std::vector<FilterVerdict> verdicts =
        snapshot->filter->QueryBatch(filter_attrs);
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
