// Sharded out-of-core discovery: build speedup and bounded memory.
//
// Part 1 — scale-out: the merged filter is built from a CSV file at 1,
// 2, 4, and 8 shards (one worker thread per shard). Shards walk
// record-aligned byte ranges independently and split and encode only
// the records their reservoirs keep, so build time should drop with
// the shard count until the cores run out or the serial boundary scan
// (`PlanCsvShards`) dominates. The expectation is asserted only when the
// hardware can express it (>= 4 cores). One more row builds the bitset
// backend at 4 shards: its pair reservoirs reference most records, so
// the pair side is what a sharded bitset build pays for.
//
// Part 2 — out-of-core: the same file is ingested through the
// bounded-memory streaming path (one `ShardArtifactBuilder` over the
// whole file) at growing input sizes. Peak tracked bytes (read buffer +
// retained rows + dictionaries) must stay flat as the input grows, and
// runs with --memory-budget set to a quarter of the file size (tuple
// backend) and to half of it (bitset backend, whose pair reservoirs hold
// up to two rows per slot) must finish within it. VmHWM, the process's
// peak RSS so far, is printed beside every row.
//
// Part 3 — self-check: in the exact regime the sharded pipeline must
// emit the same key as the single-process pipeline.
//
// Part 4 — whole-table ingest: `LoadCsvDataset` on a 300k x 55
// covtype-like CSV, serial (one chunk) and chunk-parallel (one chunk
// per usable CPU, its default), median of three loads each (`csv_load`
// rows). Both loads must produce the same dataset. Those two time text
// already in memory; the `csv_load_file` and `csv_plan_shards` rows time
// `LoadCsvDataset(path)` and `PlanCsvShards(text, 4)` on the same file,
// opening it (`FileText`, a mapping) included.
//
//   ./bench_sharded [--rows N] [--json PATH]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/sample_bounds.h"
#include "data/csv_loader.h"
#include "data/csv_loader_internal.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "shard/filter_merger.h"
#include "shard/shard_builder.h"
#include "shard/sharded_loader.h"
#include "util/flag_parse.h"
#include "util/logging.h"
#include "util/mapped_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qikey {
namespace {

std::string WriteCsvFile(const Dataset& d, const char* name) {
  std::string path = std::string("/tmp/qikey_bench_sharded_") + name + ".csv";
  QIKEY_CHECK_OK(SaveCsvDataset(d, path));
  return path;
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<uint64_t>(in.tellg());
}

/// Linux peak RSS (VmHWM) in bytes, 0 if unavailable — printed as
/// context next to the tracked-bytes accounting.
uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      char* end = nullptr;
      return std::strtoull(line.c_str() + 6, &end, 10) * 1024;
    }
  }
  return 0;
}

double BuildMergedOnce(const std::string& path, size_t shards,
                       FilterBackend backend) {
  ShardedBuildOptions build;
  build.backend = backend;
  build.eps = 0.001;
  build.num_shards = shards;
  build.num_threads = shards;
  build.seed = 7;
  Timer timer;
  auto artifacts = BuildShardArtifactsFromCsv(path, build);
  QIKEY_CHECK(artifacts.ok()) << artifacts.status().ToString();
  FilterMerger::Options merge_options;
  merge_options.backend = backend;
  merge_options.tuple_sample_size =
      TupleSampleSizePaper(
          static_cast<uint32_t>((*artifacts)[0].tuple_sample.num_attributes()),
          build.eps);
  merge_options.seed = 8;
  FilterMerger merger(merge_options);
  for (auto& a : *artifacts) QIKEY_CHECK_OK(merger.Add(std::move(a)));
  auto merged = std::move(merger).Finish();
  QIKEY_CHECK(merged.ok()) << merged.status().ToString();
  double ms = timer.ElapsedMillis();
  QIKEY_CHECK(merged->tuple_filter->sample_size() ==
              merge_options.tuple_sample_size);
  QIKEY_CHECK((merged->pair_table.num_rows() > 0) ==
              (backend == FilterBackend::kBitset));
  return ms;
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) {
  using namespace qikey;
  uint64_t rows = 200000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      if (!ParseUint64Flag("--rows", argv[++i], &rows)) return 2;
    }
  }
  BenchJsonWriter json;

  Rng rng(2024);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = rows;
  Dataset table = MakeTabular(spec, &rng);
  std::string path = WriteCsvFile(table, "main");
  uint64_t file_bytes = FileSize(path);
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("sharded build: %" PRIu64 " rows x %zu attributes, %.1f MiB "
              "CSV, %u hardware threads\n",
              rows, table.num_attributes(), file_bytes / 1048576.0, hw);

  // Part 1: build speedup vs shard count.
  std::printf("  %8s %12s %10s\n", "shards", "build (ms)", "speedup");
  double serial_ms = 0.0;
  double best_speedup = 0.0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    double ms = BuildMergedOnce(path, shards, FilterBackend::kTupleSample);
    if (shards == 1) serial_ms = ms;
    double speedup = serial_ms / ms;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("  %8zu %12.1f %9.2fx\n", shards, ms, speedup);
    json.Add("sharded_build",
             {{"shards", std::to_string(shards)}},
             ms * 1e6, 1e3 / ms);
  }
  {
    double ms = BuildMergedOnce(path, 4, FilterBackend::kBitset);
    std::printf("  %8s %12.1f   (bitset backend)\n", "4", ms);
    json.Add("sharded_build", {{"shards", "4"}, {"backend", "bitset"}},
             ms * 1e6, 1e3 / ms);
  }
  std::printf("  best speedup over 1 shard: %.2fx\n", best_speedup);
  if (hw >= 8) {
    // Enough cores to express the claim: demand >= 3x at 8 shards
    // (45% parallel efficiency after the sequential boundary scan).
    QIKEY_CHECK(best_speedup >= 3.0)
        << "8-shard speedup " << best_speedup << "x below the 3x target";
  } else if (hw >= 4) {
    // Shared 4-vCPU CI runners: wall-clock contention makes a hard
    // gate flaky, so the expectation is advisory (annotated, not
    // fatal) — mirroring check_bench_regression.py.
    double want = 0.45 * hw;
    if (best_speedup < want) {
      std::printf("::warning::8-shard speedup %.2fx below the %.1fx "
                  "expected of %u cores\n", best_speedup, want, hw);
    }
  } else {
    std::printf("  (only %u hardware thread(s): speedup assertion skipped)\n",
                hw);
  }

  // Part 2: flat peak memory vs input size, then hard budgets (a quarter
  // of the file for the tuple backend, half for the bitset backend's
  // pair payloads) on the full input.
  std::printf("\nout-of-core ingest (one streaming builder)\n");
  std::printf("  %10s %12s %16s %12s\n", "rows", "file (MiB)",
              "peak tracked", "VmHWM");
  uint64_t peak_small = 0, peak_large = 0;
  for (uint64_t part : {rows / 4, rows / 2, rows}) {
    TabularSpec sub = AdultLikeSpec();
    sub.num_rows = part;
    Rng sub_rng(31);
    Dataset d = MakeTabular(sub, &sub_rng);
    std::string sub_path = WriteCsvFile(d, "part");
    PipelineOptions options;
    options.eps = 0.001;
    ShardedRunOptions sharded;
    sharded.memory_budget_bytes = uint64_t{1} << 30;  // roomy: measure only
    DiscoveryPipeline pipeline(options);
    auto result = pipeline.RunSharded(sub_path, sharded, 5);
    QIKEY_CHECK(result.ok()) << result.status().ToString();
    if (part == rows / 4) peak_small = result->peak_tracked_bytes;
    if (part == rows) peak_large = result->peak_tracked_bytes;
    std::printf("  %10" PRIu64 " %12.1f %13.2f MiB %8.1f MiB\n", part,
                FileSize(sub_path) / 1048576.0,
                result->peak_tracked_bytes / 1048576.0,
                PeakRssBytes() / 1048576.0);
    json.Add("sharded_ingest_peak",
             {{"rows", std::to_string(part)}},
             static_cast<double>(result->peak_tracked_bytes), 0.0);
  }
  // Flat: 4x the input must not cost 2x the (read-buffer-dominated) peak.
  QIKEY_CHECK(peak_large <= 2 * peak_small)
      << "peak tracked bytes grew with input size: " << peak_small << " -> "
      << peak_large;

  struct BudgetRow {
    FilterBackend backend;
    uint64_t budget;
  };
  for (BudgetRow row : {BudgetRow{FilterBackend::kTupleSample, file_bytes / 4},
                        BudgetRow{FilterBackend::kBitset, file_bytes / 2}}) {
    const bool bitset = row.backend == FilterBackend::kBitset;
    // What the build holds whatever the input's size: the tuple run's
    // peak, plus up to 2s pair payload rows on the bitset backend.
    const uint32_t m = static_cast<uint32_t>(table.num_attributes());
    const uint64_t floor =
        peak_large + (bitset ? 2 * MxPairSampleSizePaper(m, 0.001) * m *
                                   sizeof(ValueCode)
                             : 0);
    if (floor > row.budget - row.budget / 5) {
      // A small --rows input makes a budget below that floor; the
      // default --rows gives the budget demo plenty of headroom.
      std::printf("  (input too small for the %s budget demo: floor %.2f "
                  "MiB vs budget %.2f MiB; rerun with more --rows)\n",
                  bitset ? "bitset" : "tuple", floor / 1048576.0,
                  row.budget / 1048576.0);
      continue;
    }
    PipelineOptions options;
    options.eps = 0.001;
    options.backend = row.backend;
    ShardedRunOptions sharded;
    sharded.memory_budget_bytes = row.budget;
    DiscoveryPipeline pipeline(options);
    auto result = pipeline.RunSharded(path, sharded, 5);
    QIKEY_CHECK(result.ok())
        << "budgeted ingest failed: " << result.status().ToString();
    QIKEY_CHECK(result->peak_tracked_bytes <= row.budget);
    std::printf("  %s budget %.1f MiB on a %.1f MiB input (%dx): peak "
                "%.2f MiB, VmHWM %.1f MiB\n",
                bitset ? "bitset" : "tuple", row.budget / 1048576.0,
                file_bytes / 1048576.0, bitset ? 2 : 4,
                result->peak_tracked_bytes / 1048576.0,
                PeakRssBytes() / 1048576.0);
    BenchJsonWriter::Params params = {
        {"budget_bytes", std::to_string(row.budget)}};
    if (bitset) params.emplace_back("backend", "bitset");
    json.Add("sharded_budget", params,
             static_cast<double>(result->peak_tracked_bytes), 0.0);
  }

  // Part 3: exact-regime equivalence with the single-process pipeline.
  {
    TabularSpec sub = AdultLikeSpec();
    sub.num_rows = 5000;
    Rng sub_rng(77);
    Dataset d = MakeTabular(sub, &sub_rng);
    PipelineOptions options;
    options.eps = 0.001;
    options.sample_size = d.num_rows();
    DiscoveryPipeline pipeline(options);
    Rng run_rng(9);
    auto single = pipeline.Run(d, &run_rng);
    QIKEY_CHECK(single.ok());
    ShardedRunOptions sharded;
    sharded.num_shards = 8;
    auto multi = pipeline.RunSharded(d, sharded, 13);
    QIKEY_CHECK(multi.ok());
    QIKEY_CHECK(multi->key == single->key)
        << "sharded pipeline diverged from the single-process key";
    std::printf("\nself-check: 8-shard exact-regime key == single-process "
                "key (%zu attributes)\n",
                single->key.size());
  }

  // Part 4: whole-table load, one chunk vs one chunk per usable CPU.
  {
    TabularSpec load_spec = CovtypeLikeSpec();
    load_spec.num_rows = 300000;
    Rng load_rng(1);
    std::string load_path =
        WriteCsvFile(MakeTabular(load_spec, &load_rng), "load");
    Result<FileText> file = FileText::Open(load_path);
    QIKEY_CHECK(file.ok()) << file.status().ToString();
    const std::string_view text = file->view();
    std::printf("\nwhole-table CSV load (%zu rows x %zu attributes, %.1f "
                "MiB)\n  %8s %12s %10s\n",
                load_spec.num_rows, load_spec.attributes.size(),
                text.size() / 1048576.0, "chunks", "load (ms)", "speedup");
    std::vector<size_t> chunk_counts = {1};
    if (UsableCpuCount() > 1) chunk_counts.push_back(UsableCpuCount());
    double serial_load_ms = 0.0;
    Dataset first;
    for (size_t chunks : chunk_counts) {
      std::vector<double> ms;
      for (int rep = 0; rep < 3; ++rep) {
        Timer timer;
        Result<Dataset> loaded =
            internal::LoadCsvDatasetInChunks(text, CsvOptions{}, chunks);
        ms.push_back(timer.ElapsedMillis());
        QIKEY_CHECK(loaded.ok()) << loaded.status().ToString();
        if (chunks == 1 && rep == 0) first = std::move(*loaded);
        for (AttributeIndex j = 0; chunks > 1 && j < first.num_attributes();
             ++j) {
          const Column& a = first.column(j);
          const Column& b = loaded->column(j);
          QIKEY_CHECK(std::ranges::equal(a.codes(), b.codes()) &&
                      a.dictionary()->size() == b.dictionary()->size())
              << "chunked load differs from the serial load in column " << j;
        }
      }
      std::sort(ms.begin(), ms.end());
      if (chunks == 1) serial_load_ms = ms[1];
      std::printf("  %8zu %12.1f %9.2fx\n", chunks, ms[1],
                  serial_load_ms / ms[1]);
      json.Add("csv_load", {{"chunks", std::to_string(chunks)}}, ms[1] * 1e6,
               1e3 / ms[1]);
    }

    // The same file through the public path-taking readers, file mapping
    // included: the whole-table load (default chunk count) and the
    // sharded build's serial boundary scan.
    std::vector<double> load_ms, plan_ms;
    for (int rep = 0; rep < 3; ++rep) {
      Timer load_timer;
      Result<Dataset> loaded = LoadCsvDataset(load_path);
      load_ms.push_back(load_timer.ElapsedMillis());
      QIKEY_CHECK(loaded.ok()) << loaded.status().ToString();
      for (AttributeIndex j = 0; j < first.num_attributes(); ++j) {
        QIKEY_CHECK(std::ranges::equal(loaded->column(j).codes(),
                                       first.column(j).codes()))
            << "LoadCsvDataset(path) differs from the in-memory load in "
               "column " << j;
      }
      Timer plan_timer;
      Result<FileText> text = FileText::Open(load_path);
      QIKEY_CHECK(text.ok()) << text.status().ToString();
      Result<CsvShardPlan> plan = PlanCsvShards(text->view(), 4);
      plan_ms.push_back(plan_timer.ElapsedMillis());
      QIKEY_CHECK(plan.ok()) << plan.status().ToString();
      QIKEY_CHECK(plan->total_rows == load_spec.num_rows);
    }
    std::sort(load_ms.begin(), load_ms.end());
    std::sort(plan_ms.begin(), plan_ms.end());
    std::printf("  LoadCsvDataset(path) %8.1f ms\n  PlanCsvShards(text, 4) "
                "%6.1f ms\n", load_ms[1], plan_ms[1]);
    json.Add("csv_load_file", {}, load_ms[1] * 1e6, 1e3 / load_ms[1]);
    json.Add("csv_plan_shards", {{"shards", "4"}}, plan_ms[1] * 1e6,
             1e3 / plan_ms[1]);
  }

  std::printf("\nReading: build time should fall with shard count until "
              "the cores run out or\nthe serial boundary scan dominates; "
              "peak tracked bytes should stay flat as the\ninput grows and "
              "fit the budget.\n");
  if (!json.WriteToFile(json_path)) return 1;
  return 0;
}
