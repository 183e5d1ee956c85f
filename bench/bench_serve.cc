// Serve-layer throughput: one discovery snapshot, N caller threads,
// each running its own QueryEngine over the shared snapshot store —
// the server's model, where every shard loop owns one engine and one
// verdict cache. Each caller answers its contiguous share of the
// 4096-request workload in fixed 64-request batches, so the kernel
// work per request (the within-batch dedupe) is the same at every N.
//
//   cold: is-key over 512 distinct attribute sets, verdict caches
//         disabled — every batch runs the filter kernel (bitset
//         backend) on the calling thread.
//   hot:  the same workload with each caller's LRU verdict cache
//         enabled (a 16384-entry total, split over the callers as the
//         server splits --cache over its loops) and pre-warmed —
//         batches resolve in the cache lookup pass.
//
// Reports queries/sec at 1..8 callers plus the hot-path hit rate, and
// (on runners with >= 8 hardware threads) asserts the acceptance gate:
// cache-off throughput must rise monotonically from 1 through 8
// callers and reach >= 3x the single-caller figure at 8, and the
// cached path must still scale >= 2x by 4 callers. The monotonic half
// is the anti-scaling regression guard: adding callers must never make
// serving slower. Also self-checks that cold and hot answers are
// identical — the cache must never change verdicts. Emits a
// `serve_env` row recording the runner's hardware threads so
// ci/check_bench_regression.py can re-assert the anti-scaling gate
// (both columns) from the JSON alone.
//
//   ./bench_serve [--json PATH] [--rows N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/flag_parse.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace qikey {
namespace {

/// 64-attribute survey-like table (the wide regime the bitset block
/// kernel targets; same mix as bench_filter_query).
Dataset MakeWideTable(uint64_t rows, Rng* rng) {
  TabularSpec spec;
  spec.num_rows = rows;
  for (int j = 0; j < 64; ++j) {
    AttributeSpec attr;
    // += instead of "a" + to_string: gcc 12 -Wrestrict FP (PR105651).
    attr.name = "a";
    attr.name += std::to_string(j);
    switch (j % 4) {
      case 0:
        attr.cardinality = 2;
        break;
      case 1:
        attr.cardinality = 8;
        attr.zipf_exponent = 0.8;
        break;
      case 2:
        attr.cardinality = 64;
        attr.zipf_exponent = 0.5;
        break;
      default:
        attr.cardinality = 1024;
        break;
    }
    spec.attributes.push_back(attr);
  }
  return MakeTabular(spec, rng);
}

std::vector<QueryRequest> MakeIsKeyBatch(size_t m, size_t batch,
                                         size_t distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<AttributeSet> pool;
  pool.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    pool.push_back(AttributeSet::RandomOfSize(m, 8, &rng));
  }
  std::vector<QueryRequest> requests;
  requests.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = pool[rng.Uniform(distinct)];
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Requests per ExecuteBatch call, at every caller count.
constexpr size_t kBatchRequests = 64;

/// One engine per caller over `store`, sharing `options`' cache
/// capacity as a total.
std::vector<std::unique_ptr<QueryEngine>> MakeEngines(
    const SnapshotStore& store, const QueryEngineOptions& options,
    size_t callers) {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (size_t c = 0; c < callers; ++c) {
    engines.push_back(std::make_unique<QueryEngine>(
        &store, SplitQueryEngineOptions(options, callers, c)));
  }
  return engines;
}

/// Queries/sec of `rounds` passes over `requests` by one thread per
/// engine, caller `c` answering its contiguous share through
/// `engines[c]` in kBatchRequests-request batches. `answers`, if
/// non-null, receives the responses in request order.
double RunCallers(const std::vector<std::unique_ptr<QueryEngine>>& engines,
                  std::span<const QueryRequest> requests, size_t rounds,
                  std::vector<QueryResponse>* answers) {
  const size_t callers = engines.size();
  std::vector<QueryResponse> out(requests.size());
  auto caller = [&](size_t c) {
    size_t lo = requests.size() * c / callers;
    size_t hi = requests.size() * (c + 1) / callers;
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t b = lo; b < hi; b += kBatchRequests) {
        std::vector<QueryResponse> got = engines[c]->ExecuteBatch(
            requests.subspan(b, std::min(kBatchRequests, hi - b)));
        std::move(got.begin(), got.end(), out.begin() + b);
      }
    }
  };
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t c = 1; c < callers; ++c) threads.emplace_back(caller, c);
  caller(0);
  for (std::thread& thread : threads) thread.join();
  double millis = timer.ElapsedMillis();
  if (answers != nullptr) *answers = std::move(out);
  return 1e3 * static_cast<double>(rounds * requests.size()) / millis;
}

/// Queries/sec after one untimed warm pass.
double MeasureQps(const std::vector<std::unique_ptr<QueryEngine>>& engines,
                  const std::vector<QueryRequest>& requests, size_t rounds) {
  RunCallers(engines, requests, 1, nullptr);
  return RunCallers(engines, requests, rounds, nullptr);
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) {
  using namespace qikey;

  std::string json_path;
  uint64_t rows = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      if (!ParseUint64Flag("--rows", argv[++i], &rows)) return 2;
    }
  }

  Rng rng(2024);
  Dataset data = MakeWideTable(rows, &rng);

  // Build once (the expensive step the serving split amortizes away),
  // publish, then everything below is pure query traffic.
  PipelineOptions options;
  options.eps = 0.001;
  options.backend = FilterBackend::kBitset;
  options.num_threads = 0;
  Rng pipeline_rng(7);
  auto result = DiscoveryPipeline(options).Run(data, &pipeline_rng);
  QIKEY_CHECK(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, options.eps);
  QIKEY_CHECK(snapshot.ok()) << snapshot.status().ToString();
  SnapshotStore store;
  QIKEY_CHECK(store.Publish(std::move(*snapshot)).ok());
  std::printf("serving %s\n", store.Current()->Describe().c_str());

  const size_t kRequests = 4096;
  const size_t kDistinct = 512;
  std::vector<QueryRequest> workload =
      MakeIsKeyBatch(64, kRequests, kDistinct, 99);

  BenchJsonWriter json;
  unsigned hardware = std::thread::hardware_concurrency();
  // The anti-scaling gate (and the CI re-check over the JSON) reads
  // hardware parallelism from this row; the regression checker skips it
  // in baseline comparisons since it describes the runner, not the code.
  json.Add("serve_env", {{"hardware_threads", std::to_string(hardware)}},
           hardware, hardware);
  std::vector<std::pair<size_t, double>> cold_by_threads;
  double hot_qps_1 = 0.0, hot_qps_4 = 0.0;
  double hit_rate = 0.0;

  std::printf("\nis-key, %zu requests over %zu distinct sets in "
              "%zu-request batches:\n",
              kRequests, kDistinct, kBatchRequests);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    QueryEngineOptions cold_options;
    cold_options.cache_capacity = 0;
    auto cold = MakeEngines(store, cold_options, threads);
    double cold_qps = MeasureQps(cold, workload, 16);

    QueryEngineOptions hot_options;
    hot_options.cache_capacity = 16384;
    auto hot = MakeEngines(store, hot_options, threads);
    double hot_qps = MeasureQps(hot, workload, 256);
    double hits = 0, total = 0;
    for (const auto& engine : hot) {
      hits += static_cast<double>(engine->cache_hits());
      total += static_cast<double>(engine->cache_hits() +
                                   engine->cache_misses());
    }
    hit_rate = total > 0 ? hits / total : 0;

    // The cache must be answer-transparent.
    std::vector<QueryResponse> cold_answers, hot_answers;
    RunCallers(cold, workload, 1, &cold_answers);
    RunCallers(hot, workload, 1, &hot_answers);
    for (size_t i = 0; i < workload.size(); ++i) {
      QIKEY_CHECK(cold_answers[i].verdict == hot_answers[i].verdict)
          << "cache changed a verdict at request " << i;
    }

    std::printf("  callers=%zu  cold %12.0f q/s   hot %12.0f q/s  "
                "(hit rate %.3f)\n",
                threads, cold_qps, hot_qps, hit_rate);
    json.Add("serve_query_batch",
             {{"threads", std::to_string(threads)}, {"cache", "off"}},
             1e9 / cold_qps, cold_qps);
    json.Add("serve_query_batch",
             {{"threads", std::to_string(threads)}, {"cache", "on"}},
             1e9 / hot_qps, hot_qps);
    cold_by_threads.emplace_back(threads, cold_qps);
    if (threads == 1) hot_qps_1 = hot_qps;
    if (threads == 4) hot_qps_4 = hot_qps;
  }
  json.Add("serve_cache_hit_rate", {{"threads", "8"}}, hit_rate, hit_rate);

  // Scaling ratios go to stdout (and the gate), not the JSON: the
  // regression checker reads ns_per_op as lower-is-better, which is
  // backwards for a ratio.
  double cold_qps_1 = cold_by_threads.front().second;
  double cold_scaling = cold_by_threads.back().second / cold_qps_1;
  double hot_scaling = hot_qps_4 / hot_qps_1;
  std::printf("\n1 -> 8 caller cold scaling %.2fx, 1 -> 4 hot %.2fx "
              "(hardware threads: %u)\n",
              cold_scaling, hot_scaling, hardware);

  // Persist before any fatal gate so a tripped gate still uploads the
  // numbers that explain it.
  if (!json.WriteToFile(json_path)) return 1;

  if (hardware >= 8) {
    // Anti-scaling guard: every added caller must help on the cold
    // path. An engine-owned pool once INVERTED this curve (530 ns/op
    // at 1 thread to 954 at 8); monotonicity is the property, the 3x
    // floor is the magnitude.
    for (size_t i = 1; i < cold_by_threads.size(); ++i) {
      auto [prev_threads, prev_qps] = cold_by_threads[i - 1];
      auto [threads, qps] = cold_by_threads[i];
      QIKEY_CHECK(qps >= prev_qps)
          << "uncached batched throughput fell from " << prev_qps << " q/s at "
          << prev_threads << " threads to " << qps << " q/s at " << threads;
    }
    QIKEY_CHECK(cold_scaling >= 3.0)
        << "uncached batched throughput scaled only " << cold_scaling
        << "x from 1 to 8 threads";
    QIKEY_CHECK(hot_scaling >= 2.0)
        << "cached batched throughput scaled only " << hot_scaling
        << "x from 1 to 4 threads";
  } else {
    std::printf("scaling gate skipped (< 8 hardware threads)\n");
  }
  return 0;
}
