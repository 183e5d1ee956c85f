// Batched-parallel filter queries and the end-to-end discovery
// pipeline.
//
// Part 1 compares, for both filter backends, one-Query-per-candidate
// serial loops against QueryBatch fanned out over a ThreadPool — the
// workload candidate-set enumeration generates per level. Part 2 times
// DiscoveryPipeline end to end (sample / filter / greedy / minimize /
// verify) at 1 and N threads. Every row of parts 1 and 2 reports the
// median of 5 runs.
// Part 3 times discovery from a covtype-sized CSV file (300k x 55): the
// whole-table `LoadCsvDataset` + `Run` (`csv_load_run` rows) against the
// sample-first `Run(csv_path)` (`run_csv` rows), which encodes only the
// sampled rows, medians of 5 runs per backend. The tuple `run_csv` row
// should run at least 5x faster than its `csv_load_run` row; a smaller
// ratio is reported, not fatal (the host is shared).
//
//   ./bench_pipeline [max_threads] [--json PATH]
//
// With --json, machine-readable results are written for CI to archive
// (see bench_json.h).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/bitset_filter.h"
#include "core/mx_pair_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "util/flag_parse.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qikey {
namespace {

void RecordQueries(BenchJsonWriter* json, const char* filter,
                   const std::string& mode, size_t num_queries, double ms) {
  json->Add("query_batch",
            {{"filter", filter}, {"mode", mode}},
            ms * 1e6 / num_queries, num_queries / ms * 1e3);
}

/// Runs per timed row; the row reports the median run, because a
/// single cold run on a shared host swings by 2x.
constexpr size_t kPipelineRuns = 5;

/// Median wall time over `kPipelineRuns` calls of `run`, which returns
/// the run's answer (a key, or verdicts); every run must give the same.
template <typename RunFn, typename Answer>
double MedianRunMillis(RunFn run, Answer* answer) {
  std::vector<double> ms;
  for (size_t r = 0; r < kPipelineRuns; ++r) {
    Timer timer;
    Answer found = run();
    ms.push_back(timer.ElapsedMillis());
    QIKEY_CHECK(r == 0 || found == *answer);
    *answer = std::move(found);
  }
  std::sort(ms.begin(), ms.end());
  return ms[kPipelineRuns / 2];
}

void BenchBatchedQueries(const Dataset& d, const SeparationFilter& filter,
                         const char* name, size_t max_threads,
                         BenchJsonWriter* json) {
  const size_t m = d.num_attributes();
  Rng qrng(7);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 512; ++i) {
    queries.push_back(AttributeSet::RandomOfSize(m, 8, &qrng));
  }

  std::vector<FilterVerdict> serial;
  const double serial_ms = MedianRunMillis(
      [&] {
        std::vector<FilterVerdict> verdicts;
        verdicts.reserve(queries.size());
        for (const AttributeSet& q : queries) {
          verdicts.push_back(filter.Query(q));
        }
        return verdicts;
      },
      &serial);
  std::printf("  %-22s %8s %12.2f %10.1f %8s\n", name, "serial", serial_ms,
              queries.size() / serial_ms * 1e3, "1.00x");
  RecordQueries(json, name, "serial", queries.size(), serial_ms);

  std::vector<FilterVerdict> batched;
  const double batch1_ms = MedianRunMillis(
      [&] { return filter.QueryBatch(queries, nullptr); }, &batched);
  QIKEY_CHECK(batched == serial);
  std::printf("  %-22s %8s %12.2f %10.1f %7.2fx\n", name, "batch/1",
              batch1_ms, queries.size() / batch1_ms * 1e3,
              serial_ms / batch1_ms);
  RecordQueries(json, name, "batch/1", queries.size(), batch1_ms);

  for (size_t t = 2; t <= max_threads; t *= 2) {
    ThreadPool pool(t);
    // Warm the pool so thread start-up cost is not billed to the batch.
    ThreadPool::ParallelFor(&pool, t, [](size_t, size_t) {});
    std::vector<FilterVerdict> parallel;
    const double ms = MedianRunMillis(
        [&] { return filter.QueryBatch(queries, &pool); }, &parallel);
    QIKEY_CHECK(parallel == serial);
    char label[32];
    std::snprintf(label, sizeof(label), "batch/%zu", t);
    std::printf("  %-22s %8s %12.2f %10.1f %7.2fx\n", name, label, ms,
                queries.size() / ms * 1e3, serial_ms / ms);
    RecordQueries(json, name, label, queries.size(), ms);
  }
}

void BenchPipeline(const Dataset& d, FilterBackend backend, const char* name,
                   size_t max_threads, BenchJsonWriter* json) {
  for (size_t t = 1; t <= max_threads; t *= 2) {
    PipelineOptions options;
    options.eps = 0.001;
    options.backend = backend;
    options.num_threads = t;
    std::vector<PipelineResult> runs;
    for (size_t r = 0; r < kPipelineRuns; ++r) {
      DiscoveryPipeline pipeline(options);
      Rng rng(99);
      auto result = pipeline.Run(d, &rng);
      QIKEY_CHECK(result.ok());
      QIKEY_CHECK(runs.empty() || result->key == runs.front().key);
      runs.push_back(std::move(*result));
    }
    std::sort(runs.begin(), runs.end(),
              [](const PipelineResult& a, const PipelineResult& b) {
                return a.total_millis < b.total_millis;
              });
    const PipelineResult& median = runs[kPipelineRuns / 2];
    std::printf("  %-22s %4zu thr %12.2f   |key|=%zu%s", name, t,
                median.total_millis, median.key.size(),
                median.verdict == FilterVerdict::kAccept ? "" : " REJECTED");
    for (const PipelineStage& s : median.stages) {
      std::printf("  %s=%.1f", s.name.c_str(), s.millis);
    }
    std::printf("\n");
    json->Add("pipeline_run",
              {{"backend", name}, {"threads", std::to_string(t)}},
              median.total_millis * 1e6, 1e3 / median.total_millis);
  }
}

/// Part 3: discovery from a CSV file, whole-table load vs sample-first.
/// Returns false when the tuple speedup misses the 5x gate.
bool BenchCsvEntry(BenchJsonWriter* json) {
  Rng gen(7);
  TabularSpec spec = CovtypeLikeSpec();
  spec.num_rows = 300000;
  const std::string path = "/tmp/qikey_bench_pipeline_covtype.csv";
  QIKEY_CHECK_OK(SaveCsvDataset(MakeTabular(spec, &gen), path));
  std::printf("\ndiscovery from a CSV file (%" PRIu64 " x 55 covtype-like, "
              "eps 0.001, median of %zu)\n",
              spec.num_rows, kPipelineRuns);
  std::printf("  %-14s %14s %14s %9s\n", "backend", "load+Run (ms)",
              "Run(csv) (ms)", "speedup");
  bool gate = true;
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    const char* name =
        backend == FilterBackend::kBitset ? "bitset" : "tuple-sample";
    PipelineOptions options;
    options.eps = 0.001;
    options.backend = backend;
    DiscoveryPipeline pipeline(options);
    AttributeSet loaded_key;
    double loaded_ms = MedianRunMillis(
        [&] {
          Result<Dataset> d = LoadCsvDataset(path);
          QIKEY_CHECK(d.ok());
          Rng rng(99);
          Result<PipelineResult> result = pipeline.Run(*d, &rng);
          QIKEY_CHECK(result.ok());
          return result->key;
        },
        &loaded_key);
    AttributeSet csv_key;
    double csv_ms = MedianRunMillis(
        [&] {
          Rng rng(99);
          Result<PipelineResult> result = pipeline.Run(path, &rng);
          QIKEY_CHECK(result.ok());
          return result->key;
        },
        &csv_key);
    QIKEY_CHECK(csv_key == loaded_key);
    const double speedup = loaded_ms / csv_ms;
    std::printf("  %-14s %14.1f %14.1f %8.2fx\n", name, loaded_ms, csv_ms,
                speedup);
    json->Add("csv_load_run", {{"backend", name}}, loaded_ms * 1e6,
              1e3 / loaded_ms);
    json->Add("run_csv", {{"backend", name}}, csv_ms * 1e6, 1e3 / csv_ms);
    if (backend == FilterBackend::kTupleSample && speedup < 5.0) gate = false;
  }
  std::remove(path.c_str());
  return gate;
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) {
  size_t max_threads = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      long long t = 0;
      if (!qikey::ParseIntFlag("max_threads", argv[i], 0, 1 << 16, &t)) {
        return 2;
      }
      max_threads = static_cast<size_t>(t);
    }
  }
  if (max_threads == 0) max_threads = std::thread::hardware_concurrency();
  if (max_threads == 0) max_threads = 4;

  qikey::Rng rng(2024);
  qikey::TabularSpec spec = qikey::CovtypeLikeSpec();
  spec.num_rows = 100000;
  qikey::Dataset d = qikey::MakeTabular(spec, &rng);
  std::printf("batched filter queries: n=%zu m=%zu eps=0.001, 512 queries "
              "of size 8, up to %zu threads\n",
              d.num_rows(), d.num_attributes(), max_threads);
  std::printf("  %-22s %8s %12s %10s %8s\n", "filter", "mode", "time (ms)",
              "q/s", "speedup");

  qikey::BenchJsonWriter json;
  qikey::MxPairFilterOptions mx_opts;
  mx_opts.eps = 0.001;
  auto mx = qikey::MxPairFilter::Build(d, mx_opts, &rng);
  QIKEY_CHECK(mx.ok());
  qikey::BenchBatchedQueries(d, *mx, "mx-pair", max_threads, &json);

  qikey::TupleSampleFilterOptions ts_opts;
  ts_opts.eps = 0.001;
  auto ts = qikey::TupleSampleFilter::Build(d, ts_opts, &rng);
  QIKEY_CHECK(ts.ok());
  qikey::BenchBatchedQueries(d, *ts, "tuple-sample", max_threads, &json);

  qikey::BitsetFilterOptions bs_opts;
  bs_opts.eps = 0.001;
  auto bs = qikey::BitsetSeparationFilter::Build(d, bs_opts, &rng);
  QIKEY_CHECK(bs.ok());
  qikey::BenchBatchedQueries(d, *bs, "bitset", max_threads, &json);

  std::printf("\nend-to-end discovery pipeline (same table)\n");
  std::printf("  %-22s %8s %12s\n", "backend", "threads", "total (ms)");
  qikey::BenchPipeline(d, qikey::FilterBackend::kTupleSample, "tuple-sample",
                       max_threads, &json);
  qikey::BenchPipeline(d, qikey::FilterBackend::kBitset, "bitset",
                       max_threads, &json);
  if (!qikey::BenchCsvEntry(&json)) {
    std::fprintf(stderr, "note: the tuple run_csv row is below 5x its "
                         "csv_load_run row on this host\n");
  }

  std::printf("\nReading: QueryBatch at >= 4 threads should beat the serial "
              "loop; the pipeline's\ngreedy and minimize stages shrink with "
              "thread count while sample/verify stay flat.\nThe bitset "
              "rows' `threads` governs only greedy and minimize: the "
              "evidence build\nsizes its own workers from the sample and "
              "the CPUs it may run on. The bitset\nbackend trades a one-off "
              "packing cost at build for orders-of-magnitude faster\n"
              "queries: it wins whenever the filter answers many candidates "
              "(enumeration,\nmonitor repair), which is the query_batch "
              "section above. From a CSV file, Run(csv) encodes\nonly the "
              "sampled rows (bitset: it compares the sampled pairs in the "
              "text), so it\nskips the whole-table encode that dominates "
              "load+Run.\n");
  if (!json.WriteToFile(json_path)) return 1;
  return 0;
}
