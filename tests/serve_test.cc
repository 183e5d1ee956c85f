#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/separation.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "monitor/key_monitor.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "serve/verdict_cache.h"
#include "shard/shard_builder.h"
#include "util/rng.h"

namespace qikey {
namespace {

/// A table whose first column is a row id (an exact key by
/// construction, so key/non-key verdicts below are deterministic) over
/// a handful of low-cardinality columns.
Dataset MakeKeyedData(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<ValueCode> id(rows);
  for (size_t i = 0; i < rows; ++i) id[i] = static_cast<ValueCode>(i);
  std::vector<Column> columns;
  columns.emplace_back(std::move(id));
  for (uint32_t card : {5u, 7u, 3u, 11u, 2u}) {
    std::vector<ValueCode> codes(rows);
    for (size_t i = 0; i < rows; ++i) {
      codes[i] = static_cast<ValueCode>(rng.Uniform(card));
    }
    columns.emplace_back(std::move(codes), card);
  }
  return Dataset(
      Schema({"id", "c1", "c2", "c3", "c4", "c5"}), std::move(columns));
}

/// Runs the pipeline and publishes its result into `store`.
uint64_t PublishPipeline(const Dataset& data, FilterBackend backend,
                         double eps, uint64_t seed, SnapshotStore* store) {
  PipelineOptions options;
  options.eps = eps;
  options.backend = backend;
  Rng rng(seed);
  auto result = DiscoveryPipeline(options).Run(data, &rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, eps);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto epoch = store->Publish(std::move(*snapshot));
  EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
  return *epoch;
}

/// A deterministic mixed-kind workload over `schema`.
std::vector<QueryRequest> MakeWorkload(const Schema& schema, size_t count,
                                       uint64_t seed) {
  Rng rng(seed);
  size_t m = schema.num_attributes();
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    switch (rng.Uniform(5)) {
      case 0:
        request.kind = QueryKind::kIsKey;
        request.attrs = AttributeSet::Random(m, 0.4, &rng);
        break;
      case 1:
        request.kind = QueryKind::kSeparation;
        request.attrs = AttributeSet::Random(m, 0.4, &rng);
        break;
      case 2:
        request.kind = QueryKind::kMinKey;
        request.attrs = AttributeSet(m);
        break;
      case 3: {
        request.kind = QueryKind::kAfd;
        AttributeIndex rhs =
            static_cast<AttributeIndex>(rng.Uniform(static_cast<uint32_t>(m)));
        request.attrs = AttributeSet::Random(m, 0.3, &rng);
        request.attrs.Remove(rhs);
        request.rhs = rhs;
        break;
      }
      default:
        request.kind = QueryKind::kAnonymity;
        request.attrs = AttributeSet::Random(m, 0.3, &rng);
        request.k = 2 + rng.Uniform(3);
        break;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Payload equality (everything except the cache_hit latency flag).
void ExpectSameAnswers(const std::vector<QueryResponse>& a,
                       const std::vector<QueryResponse>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << i;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << i;
    EXPECT_EQ(a[i].separation_ratio, b[i].separation_ratio) << i;
    EXPECT_EQ(a[i].separation_class, b[i].separation_class) << i;
    EXPECT_EQ(a[i].has_key, b[i].has_key) << i;
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].num_minimal_keys, b[i].num_minimal_keys) << i;
    EXPECT_EQ(a[i].afd.violating, b[i].afd.violating) << i;
    EXPECT_EQ(a[i].afd.g2, b[i].afd.g2) << i;
    EXPECT_EQ(a[i].anonymity_level, b[i].anonymity_level) << i;
    EXPECT_EQ(a[i].below_k_fraction, b[i].below_k_fraction) << i;
  }
}

/// Caller `c`'s contiguous share of `workload` among `callers`.
std::span<const QueryRequest> CallerShare(
    std::span<const QueryRequest> workload, size_t callers, size_t c) {
  size_t lo = workload.size() * c / callers;
  size_t hi = workload.size() * (c + 1) / callers;
  return workload.subspan(lo, hi - lo);
}

/// One engine per caller over `store`, splitting `options`' cache
/// capacity between them as the server splits it between shard loops.
std::vector<std::unique_ptr<QueryEngine>> MakeCallerEngines(
    const SnapshotStore& store, const QueryEngineOptions& options,
    size_t callers) {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (size_t c = 0; c < callers; ++c) {
    engines.push_back(std::make_unique<QueryEngine>(
        &store, SplitQueryEngineOptions(options, callers, c)));
  }
  return engines;
}

/// Answers `workload` with one thread per engine: thread `c` runs one
/// `ExecuteBatch` over its contiguous share through `engines[c]`, the
/// way the server's shard loops and `qikey query --threads` chunks call
/// their own engines.
std::vector<QueryResponse> ExecuteWithCallers(
    std::span<const std::unique_ptr<QueryEngine>> engines,
    std::span<const QueryRequest> workload) {
  std::vector<QueryResponse> responses(workload.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < engines.size(); ++c) {
    threads.emplace_back([&, c] {
      std::span<const QueryRequest> share =
          CallerShare(workload, engines.size(), c);
      std::vector<QueryResponse> answers = engines[c]->ExecuteBatch(share);
      std::move(answers.begin(), answers.end(),
                responses.begin() + (share.data() - workload.data()));
    });
  }
  for (std::thread& thread : threads) thread.join();
  return responses;
}

/// Distinct attribute sets among the is-key requests of `workload`.
size_t DistinctIsKeySets(std::span<const QueryRequest> workload) {
  std::vector<AttributeSet> seen;
  for (const QueryRequest& request : workload) {
    if (request.kind == QueryKind::kIsKey &&
        std::find(seen.begin(), seen.end(), request.attrs) == seen.end()) {
      seen.push_back(request.attrs);
    }
  }
  return seen.size();
}

TEST(ServeSnapshotTest, FromPipelineResultCarriesRunState) {
  Dataset data = MakeKeyedData(500, 7);
  PipelineOptions options;
  options.eps = 0.01;
  Rng rng(1);
  auto result = DiscoveryPipeline(options).Run(data, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->filter, nullptr);
  ASSERT_NE(result->sample, nullptr);

  auto snapshot = SnapshotFromPipelineResult(*result, options.eps);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->source_rows, data.num_rows());
  ASSERT_EQ(snapshot->keys->size(), 1u);
  EXPECT_EQ(snapshot->keys->front(), result->key);

  SnapshotStore store;
  EXPECT_EQ(store.Current(), nullptr);
  auto epoch = store.Publish(std::move(*snapshot));
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->epoch, 1u);
  EXPECT_FALSE(store.Current()->Describe().empty());
}

TEST(ServeSnapshotTest, PublishRejectsIncompleteSnapshots) {
  SnapshotStore store;
  ServeSnapshot empty;
  auto status = store.Publish(std::move(empty));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store.Current(), nullptr);
}

TEST(QueryEngineTest, NoSnapshotYieldsNotFound) {
  SnapshotStore store;
  QueryEngine engine(&store, QueryEngineOptions{});
  QueryRequest request;
  request.kind = QueryKind::kMinKey;
  QueryResponse response = engine.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

TEST(QueryEngineTest, DeterministicAcrossThreadsAndCache) {
  Dataset data = MakeKeyedData(1200, 3);
  SnapshotStore store;
  PublishPipeline(data, FilterBackend::kTupleSample, 0.01, 5, &store);
  std::vector<QueryRequest> workload = MakeWorkload(data.schema(), 300, 11);
  const size_t distinct = DistinctIsKeySets(workload);
  ASSERT_GT(distinct, 10u);

  QueryEngineOptions serial;
  serial.cache_capacity = 0;
  QueryEngine baseline(&store, serial);
  std::vector<QueryResponse> expected = baseline.ExecuteBatch(workload);

  // Concurrent callers, each with its own engine (and cache).
  for (size_t callers : {1u, 4u, 8u}) {
    for (size_t cache : {0u, 4096u}) {
      QueryEngineOptions options;
      options.cache_capacity = cache;
      std::vector<std::unique_ptr<QueryEngine>> engines =
          MakeCallerEngines(store, options, callers);
      // Twice: the second round answers is-key from the cache when on.
      ExpectSameAnswers(expected, ExecuteWithCallers(engines, workload));
      ExpectSameAnswers(expected, ExecuteWithCallers(engines, workload));
      for (size_t c = 0; c < callers; ++c) {
        EXPECT_EQ(engines[c]->cache_size(),
                  cache == 0 ? 0u
                             : DistinctIsKeySets(
                                   CallerShare(workload, callers, c)))
            << callers << " callers, engine " << c;
      }
    }
  }
}

TEST(QueryEngineTest, DedupeOfRepeatedSetsMatchesPerRequestExecute) {
  Dataset data = MakeKeyedData(1000, 23);
  SnapshotStore store;
  PublishPipeline(data, FilterBackend::kBitset, 0.01, 5, &store);
  size_t m = data.num_attributes();

  // 2000 is-key requests drawn from 7 distinct sets: the miss dedupe
  // collapses every batch to 7 filter slots.
  std::vector<AttributeSet> distinct;
  for (uint32_t mask : {0x01u, 0x06u, 0x0au, 0x30u, 0x2du, 0x1fu, 0x3fu}) {
    AttributeSet set(m);
    for (AttributeIndex a = 0; a < m; ++a) {
      if (mask & (1u << a)) set.Add(a);
    }
    distinct.push_back(std::move(set));
  }
  Rng rng(41);
  std::vector<QueryRequest> workload(2000);
  for (QueryRequest& request : workload) {
    request.kind = QueryKind::kIsKey;
    request.attrs = distinct[rng.Uniform(7)];
  }

  QueryEngineOptions oracle_options;
  oracle_options.cache_capacity = 0;
  QueryEngine oracle(&store, oracle_options);
  std::vector<QueryResponse> expected;
  for (const QueryRequest& request : workload) {
    expected.push_back(oracle.Execute(request));
  }

  for (size_t callers : {1u, 4u, 8u}) {
    for (size_t cache : {0u, 4096u}) {
      QueryEngineOptions options;
      options.cache_capacity = cache;
      std::vector<std::unique_ptr<QueryEngine>> engines =
          MakeCallerEngines(store, options, callers);
      ExpectSameAnswers(expected, ExecuteWithCallers(engines, workload));
      // Every caller's share of 250+ draws holds all 7 sets.
      for (size_t c = 0; c < callers; ++c) {
        EXPECT_EQ(engines[c]->cache_size(),
                  cache == 0 ? 0u : distinct.size())
            << callers << " callers, engine " << c;
      }
    }
  }
}

TEST(QueryEngineTest, CacheHitsSecondRoundAndNeverChangesAnswers) {
  Dataset data = MakeKeyedData(800, 9);
  SnapshotStore store;
  PublishPipeline(data, FilterBackend::kTupleSample, 0.01, 5, &store);

  std::vector<QueryRequest> keys;
  Rng rng(21);
  for (size_t i = 0; i < 64; ++i) {
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = AttributeSet::Random(data.num_attributes(), 0.5, &rng);
    keys.push_back(std::move(request));
  }

  QueryEngine engine(&store, QueryEngineOptions{});
  std::vector<QueryResponse> first = engine.ExecuteBatch(keys);
  EXPECT_EQ(engine.cache_hits(), 0u);
  std::vector<QueryResponse> second = engine.ExecuteBatch(keys);
  EXPECT_GT(engine.cache_hits(), 0u);
  ExpectSameAnswers(first, second);
  for (const QueryResponse& response : second) {
    EXPECT_TRUE(response.cache_hit);
  }
}

TEST(QueryEngineTest, BackendsAgreeOnDeterministicVerdicts) {
  Dataset data = MakeKeyedData(600, 13);
  size_t m = data.num_attributes();
  AttributeSet id_only(m);
  id_only.Add(0);  // exact key by construction
  AttributeSet empty(m);  // separates nothing

  QueryRequest key_request;
  key_request.kind = QueryKind::kIsKey;
  key_request.attrs = id_only;
  QueryRequest empty_request;
  empty_request.kind = QueryKind::kIsKey;
  empty_request.attrs = empty;

  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    SnapshotStore store;
    PublishPipeline(data, backend, 0.01, 5, &store);
    QueryEngine engine(&store, QueryEngineOptions{});
    EXPECT_EQ(engine.Execute(key_request).verdict, FilterVerdict::kAccept);
    EXPECT_EQ(engine.Execute(empty_request).verdict, FilterVerdict::kReject);
  }

  // The bitset engine draws the same pairs for a fixed seed as the
  // retired mx-pair backend did, so ALL its verdicts must match the
  // ones recorded from an mx-pair engine ('A' accept, 'R' reject), not
  // just the deterministic extremes.
  const std::string recorded_mx =
      "RRRRARARRARAARAAAAAARRARRRARRRRRRAARARRARRARRRARRAARARRRRARRRRRRARAA"
      "RRARARRRARARRARRRARRRAARRRAARRRR";
  SnapshotStore bitset_store;
  PublishPipeline(data, FilterBackend::kBitset, 0.01, 5, &bitset_store);
  QueryEngine bitset_engine(&bitset_store, QueryEngineOptions{});
  Rng rng(31);
  for (size_t i = 0; i < 100; ++i) {
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = AttributeSet::Random(m, 0.35, &rng);
    const char got =
        bitset_engine.Execute(request).verdict == FilterVerdict::kAccept
            ? 'A'
            : 'R';
    EXPECT_EQ(got, recorded_mx[i]) << i << " " << request.attrs.ToString();
  }
}

TEST(QueryEngineTest, SnapshotSwapWhileQuerying) {
  Dataset data_a = MakeKeyedData(400, 17);
  Dataset data_b = MakeKeyedData(900, 19);

  // Reference answers per source, computed single-threaded up front.
  std::vector<QueryRequest> workload = MakeWorkload(data_a.schema(), 40, 23);
  SnapshotStore ref_a, ref_b;
  PublishPipeline(data_a, FilterBackend::kTupleSample, 0.01, 5, &ref_a);
  PublishPipeline(data_b, FilterBackend::kTupleSample, 0.01, 5, &ref_b);
  QueryEngineOptions serial;
  serial.cache_capacity = 0;
  QueryEngine engine_a(&ref_a, serial);
  QueryEngine engine_b(&ref_b, serial);
  std::vector<QueryResponse> expected_a = engine_a.ExecuteBatch(workload);
  std::vector<QueryResponse> expected_b = engine_b.ExecuteBatch(workload);

  // Live store: the writer alternates publishing A- and B-derived
  // snapshots while readers hammer it. Odd epochs carry A, even B.
  SnapshotStore store;
  PublishPipeline(data_a, FilterBackend::kTupleSample, 0.01, 5, &store);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  auto reader = [&]() {
    QueryEngine engine(&store, QueryEngineOptions{});
    // Keep reading past the writer's last publish so every reader is
    // guaranteed to overlap swaps (and to observe the final snapshot).
    for (int iteration = 0;
         iteration < 50 || !stop.load(std::memory_order_relaxed);
         ++iteration) {
      std::vector<QueryResponse> got = engine.ExecuteBatch(workload);
      uint64_t epoch = got.front().epoch;
      const std::vector<QueryResponse>& expected =
          (epoch % 2 == 1) ? expected_a : expected_b;
      for (size_t i = 0; i < got.size(); ++i) {
        // Every response of a batch must come from ONE snapshot and
        // match that snapshot's reference answers exactly.
        if (got[i].epoch != epoch ||
            got[i].verdict != expected[i].verdict ||
            got[i].separation_ratio != expected[i].separation_ratio ||
            got[i].anonymity_level != expected[i].anonymity_level ||
            got[i].afd.violating != expected[i].afd.violating ||
            got[i].key != expected[i].key) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);
  for (int round = 0; round < 20; ++round) {
    const Dataset& data = (round % 2 == 0) ? data_b : data_a;
    PublishPipeline(data, FilterBackend::kTupleSample, 0.01, 5, &store);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.epoch(), 21u);
}

TEST(ServeSnapshotTest, FromMonitorFreezesWindowExactly) {
  Dataset data = MakeKeyedData(200, 29);
  MonitorOptions options;
  options.eps = 0.01;
  options.max_key_size = 3;
  options.sample_size = 10000;  // covers the window: exact monitor
  auto monitor = KeyMonitor::Make(data.schema(), options, 1);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)->InsertDataset(data).ok());

  auto snapshot = SnapshotFromMonitor(**monitor);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->source_rows, data.num_rows());
  EXPECT_EQ(*snapshot->keys, (*monitor)->Snapshot()->minimal_keys());

  SnapshotStore store;
  ASSERT_TRUE(store.Publish(std::move(*snapshot)).ok());
  QueryEngine engine(&store, QueryEngineOptions{});

  // The exact monitor's minimal keys are keys of the frozen window;
  // any proper subset of a minimal key is not.
  ASSERT_FALSE(store.Current()->keys->empty());
  for (const AttributeSet& key : *store.Current()->keys) {
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = key;
    EXPECT_EQ(engine.Execute(request).verdict, FilterVerdict::kAccept);
    for (AttributeIndex a : key.ToIndices()) {
      request.attrs = key;
      request.attrs.Remove(a);
      EXPECT_EQ(engine.Execute(request).verdict, FilterVerdict::kReject);
    }
  }
}

TEST(ServeSnapshotTest, FromShardArtifactsMatchesMergedRun) {
  Dataset data = MakeKeyedData(1000, 37);
  PipelineOptions options;
  options.eps = 0.01;

  ShardedBuildOptions build;
  build.eps = options.eps;
  build.num_shards = 4;
  build.seed = 99;
  auto artifacts = BuildShardArtifacts(data, build);
  ASSERT_TRUE(artifacts.ok());
  auto artifacts_copy = *artifacts;

  auto reference =
      DiscoveryPipeline(options).RunOnShardArtifacts(*artifacts, 123);
  ASSERT_TRUE(reference.ok());

  auto snapshot =
      SnapshotFromShardArtifacts(std::move(artifacts_copy), options, 123);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->keys->size(), 1u);
  EXPECT_EQ(snapshot->keys->front(), reference->key);
  EXPECT_EQ(snapshot->source_rows, data.num_rows());

  SnapshotStore store;
  ASSERT_TRUE(store.Publish(std::move(*snapshot)).ok());
  QueryEngine engine(&store, QueryEngineOptions{});
  QueryRequest request;
  request.kind = QueryKind::kMinKey;
  request.attrs = AttributeSet(data.num_attributes());
  QueryResponse response = engine.Execute(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.key, reference->key);
}

TEST(QueryEngineTest, RejectsRequestsThatDoNotFitTheSnapshot) {
  Dataset data = MakeKeyedData(100, 41);
  SnapshotStore store;
  PublishPipeline(data, FilterBackend::kTupleSample, 0.01, 5, &store);
  QueryEngine engine(&store, QueryEngineOptions{});

  QueryRequest wrong_arity;
  wrong_arity.kind = QueryKind::kIsKey;
  wrong_arity.attrs = AttributeSet(3);  // snapshot has 6 attributes
  EXPECT_EQ(engine.Execute(wrong_arity).status.code(),
            StatusCode::kInvalidArgument);

  QueryRequest rhs_in_lhs;
  rhs_in_lhs.kind = QueryKind::kAfd;
  rhs_in_lhs.attrs = AttributeSet::FromIndices(data.num_attributes(), {1, 2});
  rhs_in_lhs.rhs = 2;
  EXPECT_EQ(engine.Execute(rhs_in_lhs).status.code(),
            StatusCode::kInvalidArgument);

  // One bad request must not poison its batch.
  QueryRequest good;
  good.kind = QueryKind::kMinKey;
  good.attrs = AttributeSet(data.num_attributes());
  std::vector<QueryRequest> batch{wrong_arity, good};
  std::vector<QueryResponse> responses = engine.ExecuteBatch(batch);
  EXPECT_FALSE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].status.ok());
  EXPECT_TRUE(responses[1].has_key);
}

TEST(RequestParsingTest, ParsesEveryVerb) {
  Schema schema({"zip", "dob", "sex", "name"});
  auto is_key = ParseQueryRequest("is-key zip,dob", schema);
  ASSERT_TRUE(is_key.ok());
  EXPECT_EQ(is_key->kind, QueryKind::kIsKey);
  EXPECT_EQ(is_key->attrs, AttributeSet::FromIndices(4, {0, 1}));

  auto separation = ParseQueryRequest("  separation \t sex ", schema);
  ASSERT_TRUE(separation.ok());
  EXPECT_EQ(separation->kind, QueryKind::kSeparation);

  auto min_key = ParseQueryRequest("min-key", schema);
  ASSERT_TRUE(min_key.ok());
  EXPECT_EQ(min_key->kind, QueryKind::kMinKey);

  auto afd = ParseQueryRequest("afd zip,dob -> name", schema);
  ASSERT_TRUE(afd.ok());
  EXPECT_EQ(afd->kind, QueryKind::kAfd);
  EXPECT_EQ(afd->rhs, 3u);

  auto anonymity = ParseQueryRequest("anonymity zip,dob 5", schema);
  ASSERT_TRUE(anonymity.ok());
  EXPECT_EQ(anonymity->kind, QueryKind::kAnonymity);
  EXPECT_EQ(anonymity->k, 5u);
}

TEST(RequestParsingTest, RejectsMalformedRequests) {
  Schema schema({"zip", "dob"});
  const char* bad[] = {
      "",                      // empty
      "frobnicate zip",        // unknown verb
      "is-key",                // missing attrs
      "is-key zip dob",        // two tokens, not a list
      "is-key zip,,dob",       // empty name inside the list
      "is-key ssn",            // unknown attribute
      "min-key zip",           // junk after min-key
      "afd zip dob",           // missing ->
      "afd zip -> ssn",        // unknown rhs
      "anonymity zip banana",  // non-integer k
      "anonymity zip 0",       // k = 0
      "anonymity zip -3",      // negative k
      "anonymity zip 2 junk",  // trailing junk
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseQueryRequest(line, schema).ok()) << line;
  }
}

TEST(RequestParsingTest, FileBodySkipsCommentsAndNamesBadLines) {
  Schema schema({"zip", "dob"});
  auto good = ParseQueryRequests(
      "# header comment\n\nis-key zip\r\n   \nmin-key\n", schema);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 2u);

  auto bad = ParseQueryRequests("min-key\nis-key ssn\n", schema);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

TEST(VerdictCacheTest, LruEvictionAndEpochKeying) {
  VerdictCacheOptions options;
  options.capacity = 2;
  VerdictCache cache(options);
  AttributeSet a = AttributeSet::FromIndices(4, {0});
  AttributeSet b = AttributeSet::FromIndices(4, {1});
  AttributeSet c = AttributeSet::FromIndices(4, {2});

  cache.Insert(1, a, FilterVerdict::kAccept);
  cache.Insert(1, b, FilterVerdict::kReject);
  FilterVerdict verdict;
  ASSERT_TRUE(cache.Lookup(1, a, &verdict));  // refreshes a
  EXPECT_EQ(verdict, FilterVerdict::kAccept);
  cache.Insert(1, c, FilterVerdict::kAccept);  // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup(1, b, &verdict));
  ASSERT_TRUE(cache.Lookup(1, a, &verdict));
  ASSERT_TRUE(cache.Lookup(1, c, &verdict));
  EXPECT_EQ(cache.size(), 2u);

  // Same set, other epoch: a distinct key, not a stale answer.
  EXPECT_FALSE(cache.Lookup(2, a, &verdict));

  VerdictCacheOptions disabled;
  disabled.capacity = 0;
  VerdictCache off(disabled);
  EXPECT_FALSE(off.enabled());
  off.Insert(1, a, FilterVerdict::kAccept);
  EXPECT_FALSE(off.Lookup(1, a, &verdict));
}

TEST(VerdictCacheTest, SizeNeverExceedsCapacity) {
  for (size_t capacity : {1u, 17u, 100u, 4096u}) {
    VerdictCacheOptions options;
    options.capacity = capacity;
    VerdictCache cache(options);
    for (uint32_t i = 1; i <= 20000; ++i) {
      AttributeSet attrs(16);
      for (AttributeIndex a = 0; a < 16; ++a) {
        if (i & (1u << a)) attrs.Add(a);
      }
      cache.Insert(1, attrs, FilterVerdict::kAccept);
      if (i % 64 == 0) {
        ASSERT_LE(cache.size(), capacity) << capacity << " after " << i;
      }
    }
    // 20,000 distinct keys fill the cache exactly.
    EXPECT_EQ(cache.size(), capacity) << capacity;
    EXPECT_EQ(cache.evictions(), 20000u - capacity) << capacity;
  }
}

TEST(QueryEngineTest, SplitCacheCapacitySumsToTheTotal) {
  // The server and `qikey query --threads` split one --cache total over
  // their engines; no rounding may let them hold more (or less).
  for (size_t capacity : {0u, 1u, 17u, 100u, 4096u}) {
    for (size_t count : {1u, 3u, 16u, 64u}) {
      QueryEngineOptions total;
      total.cache_capacity = capacity;
      size_t sum = 0;
      for (size_t i = 0; i < count; ++i) {
        size_t share =
            SplitQueryEngineOptions(total, count, i).cache_capacity;
        EXPECT_LE(share, capacity / count + 1) << capacity << "/" << count;
        sum += share;
      }
      EXPECT_EQ(sum, capacity) << capacity << "/" << count;
    }
  }
}

/// The textbook LRU the cache must reproduce: one std::list, searched
/// linearly, erasing and re-inserting on every touch.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict* verdict) {
    auto it = Find(epoch, attrs);
    if (it == entries_.end()) {
      ++misses;
      return false;
    }
    *verdict = it->verdict;
    entries_.splice(entries_.begin(), entries_, it);
    ++hits;
    return true;
  }

  void Insert(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict verdict) {
    auto it = Find(epoch, attrs);
    if (it != entries_.end()) {
      entries_.erase(it);
    } else if (entries_.size() == capacity_) {
      entries_.pop_back();
      ++evictions;
    }
    entries_.push_front(Entry{epoch, attrs, verdict});
  }

  size_t size() const { return entries_.size(); }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

 private:
  struct Entry {
    uint64_t epoch;
    AttributeSet attrs;
    FilterVerdict verdict;
  };
  std::list<Entry>::iterator Find(uint64_t epoch, const AttributeSet& attrs) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) {
                          return e.epoch == epoch && e.attrs == attrs;
                        });
  }

  size_t capacity_;
  std::list<Entry> entries_;
};

TEST(VerdictCacheTest, RecycledNodesMatchReferenceLru) {
  VerdictCacheOptions options;
  options.capacity = 24;
  VerdictCache cache(options);
  ReferenceLru model(options.capacity);
  Rng rng(20);
  // Sets over two universe sizes (words are reused only within one;
  // the other forces a reallocation inside a recycled node), a small
  // key space so hits, refreshes and evictions all happen often.
  std::vector<AttributeSet> sets;
  for (size_t m : {6u, 70u}) {
    for (int i = 0; i < 20; ++i) {
      sets.push_back(AttributeSet::Random(m, 0.4, &rng));
    }
  }
  uint64_t epoch = 1;
  for (int step = 0; step < 20000; ++step) {
    const AttributeSet& attrs = sets[rng.Uniform(sets.size())];
    uint64_t op = rng.Uniform(10);
    if (op == 0) {
      epoch = 1 + rng.Uniform(3);  // revisit old epochs too
    } else if (op < 5) {
      FilterVerdict got = FilterVerdict::kAccept;
      FilterVerdict want = FilterVerdict::kAccept;
      bool hit = cache.Lookup(epoch, attrs, &got);
      ASSERT_EQ(hit, model.Lookup(epoch, attrs, &want)) << "step " << step;
      if (hit) {
        ASSERT_EQ(got, want) << "step " << step;
      }
    } else {
      FilterVerdict verdict =
          rng.Uniform(2) == 0 ? FilterVerdict::kAccept : FilterVerdict::kReject;
      cache.Insert(epoch, attrs, verdict);
      model.Insert(epoch, attrs, verdict);
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
  }
  EXPECT_EQ(cache.hits(), model.hits);
  EXPECT_EQ(cache.misses(), model.misses);
  EXPECT_EQ(cache.evictions(), model.evictions);
  EXPECT_GT(model.evictions, 1000u);
  EXPECT_GT(model.hits, 1000u);
}

}  // namespace
}  // namespace qikey
