// Instant restart: time-to-serve-ready from a QSNP1 snapshot artifact
// versus re-running discovery from the raw table.
//
//   rebuild: DiscoveryPipeline::Run + SnapshotFromPipelineResult +
//            Publish — what `qikey serve <csv>` does at startup.
//   file:    ReadSnapshotFile (mmap + validate, zero-copy views) +
//            Publish — what `qikey serve --snapshot-file` does.
//
// Both paths end in the same state: a published snapshot a QueryEngine
// can answer from. The bench self-checks that the two snapshots answer
// a mixed workload identically, then asserts the acceptance gate: the
// file path must be >= 10x faster to serve-ready than the rebuild.
//
// It also times the step every bitset snapshot build adds:
// `PackedEvidence::MinimalAntichain` on covtype-sized evidence (55,000
// pairs over 55 attributes, the Θ(m/ε) draw at ε = 0.001), checking
// that the antichain answers as the full evidence does.
//
//   ./bench_snapshot_load [--json PATH] [--rows N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/bitset_filter.h"
#include "core/evidence_block.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "snapfile/snapfile.h"
#include "util/flag_parse.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace qikey {
namespace {

/// 8-attribute mixed-cardinality table (the serving-tier shape; narrow
/// enough that the pipeline cost is dominated by sampling + greedy, not
/// the bitset kernel).
Dataset MakeTable(uint64_t rows, Rng* rng) {
  TabularSpec spec;
  spec.num_rows = rows;
  for (int j = 0; j < 8; ++j) {
    AttributeSpec attr;
    attr.name = "a";
    attr.name += std::to_string(j);
    attr.cardinality = (j % 2 == 0) ? 1024 : 16;
    if (j % 3 == 1) attr.zipf_exponent = 0.7;
    spec.attributes.push_back(attr);
  }
  return MakeTabular(spec, rng);
}

ServeSnapshot Rebuild(const Dataset& data, double eps) {
  PipelineOptions options;
  options.eps = eps;
  options.backend = FilterBackend::kBitset;
  Rng rng(7);
  auto result = DiscoveryPipeline(options).Run(data, &rng);
  QIKEY_CHECK(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, eps);
  QIKEY_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return std::move(*snapshot);
}

std::vector<QueryRequest> MakeWorkload(size_t m, size_t count) {
  Rng rng(99);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    request.kind = i % 3 == 0 ? QueryKind::kMinKey : QueryKind::kIsKey;
    request.attrs = request.kind == QueryKind::kMinKey
                        ? AttributeSet(m)
                        : AttributeSet::Random(m, 0.4, &rng);
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<FilterVerdict> Answers(ServeSnapshot snapshot,
                                   const std::vector<QueryRequest>& work) {
  SnapshotStore store;
  QIKEY_CHECK(store.Publish(std::move(snapshot)).ok());
  QueryEngineOptions options;
  options.cache_capacity = 0;
  QueryEngine engine(&store, options);
  std::vector<FilterVerdict> verdicts;
  for (const QueryResponse& response : engine.ExecuteBatch(work)) {
    verdicts.push_back(response.verdict);
  }
  return verdicts;
}

/// Median ms of `rounds` antichain builds over the evidence of a
/// covtype-like table's 55,000-pair bitset filter; `kept` gets the
/// antichain's pair count.
double AntichainBuildMs(size_t rounds, size_t* kept) {
  Rng data_rng(1);
  TabularSpec spec = CovtypeLikeSpec();
  spec.num_rows = 50000;
  const Dataset data = MakeTabular(spec, &data_rng);
  BitsetFilterOptions options;
  options.eps = 0.001;
  Rng rng(1);
  const BitsetSeparationFilter full =
      BitsetSeparationFilter::Build(data, options, &rng).ValueOrDie();
  std::vector<double> ms;
  PackedEvidence minimal;
  for (size_t r = 0; r < rounds; ++r) {
    Timer timer;
    minimal = full.evidence().MinimalAntichain();
    ms.push_back(timer.ElapsedMillis());
  }
  *kept = minimal.num_pairs();
  const BitsetSeparationFilter served =
      BitsetSeparationFilter::FromPackedEvidence(std::move(minimal),
                                                 full.sample_size())
          .ValueOrDie();
  Rng qrng(5);
  std::vector<AttributeSet> sets;
  for (int i = 0; i < 4000; ++i) {
    sets.push_back(AttributeSet::RandomOfSize(data.num_attributes(),
                                              2 + qrng.Uniform(7), &qrng));
  }
  QIKEY_CHECK(served.QueryBatch(sets) == full.QueryBatch(sets))
      << "the antichain answered differently from the full evidence";
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
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
  const double eps = 1e-4;
  const std::string path = "/tmp/qikey_bench_snapshot_load.qsnp";

  Rng rng(2024);
  Dataset data = MakeTable(rows, &rng);
  std::printf("table: %zu rows x %zu attributes\n", data.num_rows(),
              data.num_attributes());

  // The artifact every file-path iteration loads.
  ServeSnapshot built = Rebuild(data, eps);
  Status written = snapfile::WriteSnapshotFile(built, path);
  QIKEY_CHECK(written.ok()) << written.ToString();

  // Answer-transparency: the mmap-loaded snapshot must serve the same
  // verdicts as the freshly built one.
  auto loaded = snapfile::ReadSnapshotFile(path);
  QIKEY_CHECK(loaded.ok()) << loaded.status().ToString();
  std::vector<QueryRequest> workload =
      MakeWorkload(data.num_attributes(), 256);
  QIKEY_CHECK(Answers(std::move(built), workload) ==
              Answers(std::move(*loaded), workload))
      << "file-loaded snapshot diverged from the rebuilt one";

  // Rebuild path: discovery + freeze + publish, per iteration.
  const size_t kRebuildRounds = 5;
  Timer rebuild_timer;
  for (size_t r = 0; r < kRebuildRounds; ++r) {
    SnapshotStore store;
    QIKEY_CHECK(store.Publish(Rebuild(data, eps)).ok());
  }
  double rebuild_ms = rebuild_timer.ElapsedMillis() / kRebuildRounds;

  // File path: mmap + validate + publish, per iteration.
  const size_t kLoadRounds = 100;
  Timer load_timer;
  for (size_t r = 0; r < kLoadRounds; ++r) {
    auto snapshot = snapfile::ReadSnapshotFile(path);
    QIKEY_CHECK(snapshot.ok()) << snapshot.status().ToString();
    SnapshotStore store;
    QIKEY_CHECK(store.Publish(std::move(*snapshot)).ok());
  }
  double load_ms = load_timer.ElapsedMillis() / kLoadRounds;

  double speedup = rebuild_ms / load_ms;
  std::printf("serve-ready: rebuild %10.3f ms   file %10.3f ms   "
              "(%.1fx faster from file)\n",
              rebuild_ms, load_ms, speedup);

  size_t kept = 0;
  const double antichain_ms = AntichainBuildMs(9, &kept);
  std::printf("antichain build: %.3f ms (median of 9; 55000 pairs -> %zu "
              "minimal masks, %s kernel)\n",
              antichain_ms, kept,
              EvidenceKernelName(ActiveEvidenceKernel()));

  BenchJsonWriter json;
  json.Add("snapshot_serve_ready", {{"path", "rebuild"}},
           rebuild_ms * 1e6, 1e3 / rebuild_ms);
  json.Add("snapshot_serve_ready", {{"path", "file"}},
           load_ms * 1e6, 1e3 / load_ms);
  json.Add("snapshot_antichain_build",
           {{"pairs", "55000"}, {"attributes", "55"}}, antichain_ms * 1e6,
           1e3 / antichain_ms);
  if (!json.WriteToFile(json_path)) return 1;

  // Acceptance gate: instant restart must actually be instant —
  // an order of magnitude under re-running discovery.
  QIKEY_CHECK(speedup >= 10.0)
      << "file load only " << speedup << "x faster than rebuild";
  std::remove(path.c_str());
  return 0;
}
