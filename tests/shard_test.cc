#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/key_enumeration.h"
#include "csv_test_inputs.h"
#include "fnv1a_digest.h"
#include "pin_to_one_cpu.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "data/dataset_builder.h"
#include "data/generators/tabular.h"
#include "data/generators/uniform_grid.h"
#include "engine/pipeline.h"
#include "shard/filter_merger.h"
#include "shard/shard_artifact.h"
#include "shard/shard_builder.h"
#include "shard/sharded_loader.h"
#include "stream/pair_slots.h"
#include "stream/reservoir.h"
#include "util/csv.h"
#include "util/mapped_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qikey {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = "/tmp/qikey_shard_test_" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

ShardedBuildOptions TupleBuild(uint64_t sample_size, size_t shards,
                               uint64_t seed) {
  ShardedBuildOptions options;
  options.backend = FilterBackend::kTupleSample;
  options.tuple_sample_size = sample_size;
  options.num_shards = shards;
  options.seed = seed;
  return options;
}

// ------------------------------------------------------------ primitives

TEST(HypergeometricTest, RespectsSupportAndMean) {
  Rng rng(7);
  const uint64_t n1 = 30, n2 = 70, draws = 20;
  double sum = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    uint64_t k = rng.HypergeometricDraw(draws, n1, n2);
    ASSERT_LE(k, std::min(draws, n1));
    ASSERT_GE(draws - k, draws > n2 ? draws - n2 : 0);
    sum += static_cast<double>(k);
  }
  // E[k] = draws * n1 / (n1 + n2) = 6; sd ~ 1.45/sqrt(trials).
  EXPECT_NEAR(sum / trials, 6.0, 0.12);
}

TEST(HypergeometricTest, ExhaustsOnePopulation) {
  Rng rng(8);
  EXPECT_EQ(rng.HypergeometricDraw(5, 5, 0), 5u);
  EXPECT_EQ(rng.HypergeometricDraw(5, 0, 5), 0u);
  EXPECT_EQ(rng.HypergeometricDraw(10, 4, 6), 4u);
}

// --------------------------------------------------------- tuple merge

// The merged tuple sample must be a uniform r-subset of the union:
// every row's inclusion frequency matches r/n, which is exactly what a
// single-pass build produces.
TEST(FilterMergeTest, TupleMergeInclusionIsUniform) {
  DatasetBuilder b({"v"});
  const uint64_t n = 12, r = 5;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(b.AddRow({"row" + std::to_string(i)}).ok());
  }
  Dataset d = std::move(b).Finish();

  const int trials = 4000;
  std::vector<int> hits(n, 0);
  for (int t = 0; t < trials; ++t) {
    auto artifacts = BuildShardArtifacts(d, TupleBuild(r, 3, 1000 + t));
    ASSERT_TRUE(artifacts.ok());
    FilterMerger::Options merge_options;
    merge_options.backend = FilterBackend::kTupleSample;
    merge_options.tuple_sample_size = r;
    merge_options.seed = 5000 + t;
    FilterMerger merger(merge_options);
    for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
    auto merged = std::move(merger).Finish();
    ASSERT_TRUE(merged.ok());
    ASSERT_EQ(merged->tuple_filter->sample_size(), r);
    std::set<RowIndex> rows(merged->tuple_filter->provenance().begin(),
                            merged->tuple_filter->provenance().end());
    ASSERT_EQ(rows.size(), r) << "duplicate rows in the merged sample";
    for (RowIndex row : rows) hits[row]++;
  }
  const double expect = static_cast<double>(r) / n;  // 0.4167
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(hits[i] / static_cast<double>(trials), expect, 0.04)
        << "row " << i;
  }
}

// Merged samples must answer like the sample they are: values survive
// re-encoding through the union dictionary.
TEST(FilterMergeTest, TupleMergePreservesValues) {
  DatasetBuilder b({"city", "zip"});
  ASSERT_TRUE(b.AddRow({"SF", "94103"}).ok());
  ASSERT_TRUE(b.AddRow({"SD", "92115"}).ok());
  ASSERT_TRUE(b.AddRow({"SF", "94110"}).ok());
  ASSERT_TRUE(b.AddRow({"LA", "90001"}).ok());
  Dataset d = std::move(b).Finish();
  auto artifacts = BuildShardArtifacts(d, TupleBuild(4, 2, 3));
  ASSERT_TRUE(artifacts.ok());
  FilterMerger::Options merge_options;
  merge_options.tuple_sample_size = 4;
  FilterMerger merger(merge_options);
  for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
  auto merged = std::move(merger).Finish();
  ASSERT_TRUE(merged.ok());
  const Dataset& sample = merged->tuple_filter->sample();
  ASSERT_EQ(sample.num_rows(), 4u);
  std::multiset<std::string> rows;
  for (RowIndex i = 0; i < sample.num_rows(); ++i) {
    rows.insert(sample.FormatRow(i));
  }
  EXPECT_EQ(rows, (std::multiset<std::string>{
                      "SF|94103", "SD|92115", "SF|94110", "LA|90001"}));
}

// ------------------------------------------------------------ pair merge

// With one slot, the merged pair must be uniform over all C(n,2)
// unordered pairs of the union — the distribution a single-pass MX
// build draws from.
TEST(FilterMergeTest, MxMergeSlotDistributionIsUniform) {
  DatasetBuilder b({"v"});
  const uint64_t n = 6;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(b.AddRow({"row" + std::to_string(i)}).ok());
  }
  Dataset d = std::move(b).Finish();

  const int trials = 6000;
  std::map<std::pair<std::string, std::string>, int> freq;
  for (int t = 0; t < trials; ++t) {
    ShardedBuildOptions options = TupleBuild(n, 2, 2000 + t);
    options.backend = FilterBackend::kBitset;
    options.pair_slots = 1;
    auto artifacts = BuildShardArtifacts(d, options);
    ASSERT_TRUE(artifacts.ok());
    ASSERT_EQ(artifacts->size(), 2u);
    FilterMerger::Options merge_options;
    merge_options.backend = FilterBackend::kBitset;
    merge_options.tuple_sample_size = n;
    merge_options.seed = 9000 + t;
    FilterMerger merger(merge_options);
    for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
    auto merged = std::move(merger).Finish();
    ASSERT_TRUE(merged.ok());
    const Dataset& table = merged->pair_table;
    ASSERT_EQ(table.num_rows(), 2u);
    std::string a = table.FormatRow(0), b2 = table.FormatRow(1);
    if (b2 < a) std::swap(a, b2);
    EXPECT_NE(a, b2) << "self-pair in merged slot";
    freq[{a, b2}]++;
  }
  const double expect = 1.0 / 15.0;  // C(6,2) pairs
  EXPECT_EQ(freq.size(), 15u) << "some pair never sampled";
  for (const auto& [pair, count] : freq) {
    EXPECT_NEAR(count / static_cast<double>(trials), expect, 0.018)
        << pair.first << " x " << pair.second;
  }
}

// ------------------------------------------------- pipeline equivalence

// The acceptance-criteria property: in the exact regime (sample covers
// the table) RunSharded must return the same key as the single-process
// pipeline, and the merged filter must accept exactly the minimal keys
// a from-scratch enumeration finds — for random tables, shard counts,
// and seeds.
TEST(RunShardedTest, MatchesSinglePipelineFrontier) {
  for (int round = 0; round < 6; ++round) {
    Rng data_rng(100 + round);
    Dataset d = MakeUniformGridSample(5, 3, 40 + 10 * round, &data_rng);
    PipelineOptions options;
    options.eps = 0.001;
    options.sample_size = d.num_rows();  // exact regime
    DiscoveryPipeline pipeline(options);

    Rng run_rng(77);
    auto single = pipeline.Run(d, &run_rng);
    ASSERT_TRUE(single.ok());

    Rng shard_pick(500 + round);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      ShardedRunOptions sharded;
      sharded.num_shards = shards;
      uint64_t seed = shard_pick.Next();
      auto result = pipeline.RunSharded(d, sharded, seed);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->key, single->key)
          << "round " << round << " shards " << shards;
      EXPECT_EQ(result->covered_sample, single->covered_sample);
      EXPECT_EQ(result->verdict, single->verdict);
      EXPECT_EQ(result->rows, d.num_rows());

      // Frontier: merged filter accepts exactly the minimal exact keys.
      auto artifacts = BuildShardArtifacts(
          d, TupleBuild(d.num_rows(), shards, seed));
      ASSERT_TRUE(artifacts.ok());
      FilterMerger::Options merge_options;
      merge_options.tuple_sample_size = d.num_rows();
      merge_options.seed = seed + 1;
      FilterMerger merger(merge_options);
      for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
      auto merged = std::move(merger).Finish();
      ASSERT_TRUE(merged.ok());
      KeyEnumerationOptions enum_options;
      enum_options.max_size = 5;
      auto sharded_frontier = EnumerateMinimalAcceptedSets(
          *merged->tuple_filter, d.num_attributes(), enum_options);
      auto exact_frontier = EnumerateMinimalKeys(d, enum_options);
      ASSERT_TRUE(sharded_frontier.ok());
      ASSERT_TRUE(exact_frontier.ok());
      EXPECT_EQ(*sharded_frontier, *exact_frontier)
          << "round " << round << " shards " << shards;
    }
  }
}

TEST(RunShardedTest, DeterministicAcrossThreadCounts) {
  Rng data_rng(42);
  Dataset d = MakeUniformGridSample(6, 4, 300, &data_rng);
  PipelineOptions serial;
  serial.eps = 0.01;
  serial.num_threads = 1;
  PipelineOptions parallel = serial;
  parallel.num_threads = 4;
  ShardedRunOptions sharded;
  sharded.num_shards = 4;
  auto a = DiscoveryPipeline(serial).RunSharded(d, sharded, 9);
  auto b = DiscoveryPipeline(parallel).RunSharded(d, sharded, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->verdict, b->verdict);
  EXPECT_EQ(a->num_shards, b->num_shards);
}

TEST(RunShardedTest, BitsetBackendAcceptsTrueKeyAndIsDeterministic) {
  Rng data_rng(11);
  Dataset d = MakeUniformGridSample(5, 4, 200, &data_rng);
  PipelineOptions options;
  options.eps = 0.01;
  options.backend = FilterBackend::kBitset;
  options.sample_size = d.num_rows();
  ShardedRunOptions sharded;
  sharded.num_shards = 3;
  auto a = DiscoveryPipeline(options).RunSharded(d, sharded, 21);
  auto b = DiscoveryPipeline(options).RunSharded(d, sharded, 21);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->key, b->key);
  // The exact-regime greedy key is a true key; a pair filter never
  // rejects one.
  EXPECT_EQ(a->verdict, FilterVerdict::kAccept);
}

// --------------------------------------------------------- CSV ingest

std::string TrickyCsv() {
  return
      "name,notes,code\n"
      "alice,\"line one\nline two\",7\n"
      "bob,\"comma, inside\",8\n"
      "carol,,9\n"
      "\n"
      "dave,\"quoted \"\"word\"\"\",10\n"
      "erin,plain,11\n"
      "frank,\"multi\nline\nagain\",12\n"
      "grace,last,13\n";
}

TEST(CsvShardPlanTest, PlanCoversEveryRowAcrossShardCounts) {
  std::string path = WriteTempFile("plan.csv", TrickyCsv());
  auto whole = LoadCsvDataset(path);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->num_rows(), 7u);

  auto text = FileText::Open(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    auto plan = PlanCsvShards(text->view(), shards);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->total_rows, 7u);
    EXPECT_EQ(plan->attribute_names,
              (std::vector<std::string>{"name", "notes", "code"}));
    uint64_t covered = 0;
    std::vector<std::vector<std::string>> collected;
    for (const ShardRange& range : plan->ranges) {
      EXPECT_EQ(range.first_row, covered);
      EXPECT_GE(range.num_rows, 2u);
      covered += range.num_rows;
      CsvFieldSplitter splitter(CsvOptions{});
      Status st = ForEachCsvRecordInRange(
          text->view(), range, CsvOptions{}, [&](std::string_view record) {
            std::span<const std::string_view> fields = splitter.Split(record);
            collected.emplace_back(fields.begin(), fields.end());
            return Status::OK();
          });
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ(covered, 7u);
    ASSERT_EQ(collected.size(), 7u);
    EXPECT_EQ(collected[0],
              (std::vector<std::string>{"alice", "line one\nline two", "7"}));
    EXPECT_EQ(collected[2], (std::vector<std::string>{"carol", "", "9"}));
    EXPECT_EQ(collected[3],
              (std::vector<std::string>{"dave", "quoted \"word\"", "10"}));
    EXPECT_EQ(collected[5],
              (std::vector<std::string>{"frank", "multi\nline\nagain", "12"}));
  }
}

TEST(StreamingShardBuildTest, KeepsEveryRowInFileOrderUnderALargeTarget) {
  Rng rng(5);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 500;
  Dataset d = MakeTabular(spec, &rng);
  std::string path = WriteTempFile("chunks.csv", DatasetToCsv(d));

  // A tuple target of at least the row count keeps every record.
  ShardedBuildOptions options = TupleBuild(500, 1, 3);
  uint64_t peak = 0;
  auto artifact = StreamCsvShardArtifact(path, options, &peak);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->rows_seen, 500u);
  EXPECT_GT(peak, 0u);
  auto whole = LoadCsvDataset(path);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(artifact->tuple_sample.num_rows(), whole->num_rows());
  for (RowIndex i = 0; i < whole->num_rows(); ++i) {
    EXPECT_EQ(artifact->tuple_sample.FormatRow(i), whole->FormatRow(i));
    EXPECT_EQ(artifact->provenance[i], i);
  }
}

TEST(RunShardedTest, CsvMatchesInMemorySharding) {
  Rng rng(17);
  Dataset d = MakeUniformGridSample(4, 5, 150, &rng);
  std::string path = WriteTempFile("match.csv", DatasetToCsv(d));
  // Reload so both runs see the same dictionary-encoded table.
  auto reloaded = LoadCsvDataset(path);
  ASSERT_TRUE(reloaded.ok());

  PipelineOptions options;
  options.eps = 0.001;
  options.sample_size = d.num_rows();
  DiscoveryPipeline pipeline(options);
  ShardedRunOptions sharded;
  sharded.num_shards = 3;
  auto from_memory = pipeline.RunSharded(*reloaded, sharded, 33);
  auto from_csv = pipeline.RunSharded(path, sharded, 33);
  ASSERT_TRUE(from_memory.ok());
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_EQ(from_csv->key, from_memory->key);
  EXPECT_EQ(from_csv->rows, from_memory->rows);
  EXPECT_EQ(from_csv->verdict, from_memory->verdict);
}

TEST(RunShardedTest, MemoryBudgetIsHonoredOrRefused) {
  Rng rng(23);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 2000;
  Dataset d = MakeTabular(spec, &rng);
  std::string path = WriteTempFile("budget.csv", DatasetToCsv(d));

  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    SCOPED_TRACE(static_cast<int>(backend));
    PipelineOptions options;
    options.eps = 0.01;
    options.backend = backend;
    DiscoveryPipeline pipeline(options);

    ShardedRunOptions roomy;
    roomy.memory_budget_bytes = 8 << 20;
    auto ok = pipeline.RunSharded(path, roomy, 3);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->num_shards, 1u);
    EXPECT_EQ(ok->rows, 2000u);
    EXPECT_LE(ok->peak_tracked_bytes, roomy.memory_budget_bytes);
    EXPECT_GT(ok->peak_tracked_bytes, 0u);

    ShardedRunOptions tiny;
    tiny.memory_budget_bytes = 2048;  // absurd: not even the read buffer
    auto refused = pipeline.RunSharded(path, tiny, 3);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  }
}

// ---------------------------------------------------------- artifacts

TEST(ShardArtifactTest, RoundTripsThroughFilesAndMergesIdentically) {
  Rng rng(29);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 400;
  Dataset d = MakeTabular(spec, &rng);
  std::string csv = WriteTempFile("artifacts.csv", DatasetToCsv(d));

  ShardedBuildOptions build = TupleBuild(64, 3, 77);
  build.num_threads = 2;
  auto artifacts = BuildShardArtifactsFromCsv(csv, build);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  ASSERT_EQ(artifacts->size(), 3u);

  // Persist every artifact, restore, and check the restored merge
  // answers exactly like the in-process merge (same merge seed).
  std::vector<ShardFilterArtifact> restored;
  for (const ShardFilterArtifact& artifact : *artifacts) {
    std::string path = "/tmp/qikey_shard_test_artifact_" +
                       std::to_string(artifact.shard_index) + ".bin";
    ASSERT_TRUE(WriteShardArtifactFile(artifact, path).ok());
    auto back = ReadShardArtifactFile(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->shard_index, artifact.shard_index);
    EXPECT_EQ(back->rows_seen, artifact.rows_seen);
    EXPECT_EQ(back->first_row, artifact.first_row);
    EXPECT_EQ(back->provenance, artifact.provenance);
    restored.push_back(std::move(back).ValueOrDie());
    std::remove(path.c_str());
  }

  auto merge = [&](std::vector<ShardFilterArtifact> parts) {
    FilterMerger::Options merge_options;
    merge_options.tuple_sample_size = 64;
    merge_options.seed = 123;
    FilterMerger merger(merge_options);
    // Out-of-order on purpose: 2, 0, 1.
    std::swap(parts[0], parts[2]);
    for (auto& p : parts) EXPECT_TRUE(merger.Add(std::move(p)).ok());
    return std::move(merger).Finish();
  };
  auto direct = merge(std::move(*artifacts));
  auto from_disk = merge(std::move(restored));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(from_disk.ok());
  ASSERT_EQ(direct->tuple_filter->sample_size(),
            from_disk->tuple_filter->sample_size());
  EXPECT_EQ(direct->tuple_filter->provenance(),
            from_disk->tuple_filter->provenance());
  Rng qrng(31);
  for (int t = 0; t < 50; ++t) {
    AttributeSet attrs =
        AttributeSet::Random(d.num_attributes(), 0.4, &qrng);
    EXPECT_EQ(direct->tuple_filter->Query(attrs),
              from_disk->tuple_filter->Query(attrs));
  }
}

TEST(ShardArtifactTest, LegacyMxBackendByteReadsAsBitset) {
  // Artifacts written while the mx-pair backend existed carry backend
  // byte 1, under a v1 or v2 header; their pair tables are exactly what
  // the bitset backend merges. Patch freshly built bitset artifacts
  // into that form: they must load as bitset and merge — with each
  // other and with byte-2 artifacts — exactly like the originals.
  Rng rng(43);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 600;
  Dataset d = MakeTabular(spec, &rng);
  ShardedBuildOptions build = TupleBuild(48, 3, 17);
  build.backend = FilterBackend::kBitset;
  build.pair_slots = 300;
  auto artifacts = BuildShardArtifacts(d, build);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  ASSERT_EQ(artifacts->size(), 3u);

  constexpr size_t kVersionAt = 4;   // after the magic
  constexpr size_t kBackendAt = 28;  // after shard index, first_row,
                                     // rows_seen
  std::vector<ShardFilterArtifact> legacy;
  for (const ShardFilterArtifact& artifact : *artifacts) {
    std::string bytes = SerializeShardArtifact(artifact);
    ASSERT_EQ(bytes[kVersionAt], 2);
    ASSERT_EQ(bytes[kBackendAt], 2);
    // Shard 0: v1 header, byte 1. Shard 1: v2 header, byte 1. Shard 2
    // stays a current byte-2 artifact.
    if (artifact.shard_index == 0) bytes[kVersionAt] = 1;
    if (artifact.shard_index < 2) bytes[kBackendAt] = 1;
    auto back = DeserializeShardArtifact(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->backend, FilterBackend::kBitset);
    EXPECT_EQ(back->pair_table.num_rows(), 600u);
    legacy.push_back(std::move(back).ValueOrDie());
  }
  // A v1 header could never carry the bitset byte.
  std::string v1_bitset = SerializeShardArtifact((*artifacts)[0]);
  v1_bitset[kVersionAt] = 1;
  EXPECT_FALSE(DeserializeShardArtifact(v1_bitset).ok());

  PipelineOptions options;
  options.eps = 0.01;
  options.backend = FilterBackend::kBitset;
  options.sample_size = 48;
  options.pair_sample_size = 300;
  auto want = DiscoveryPipeline(options).RunOnShardArtifacts(
      std::move(artifacts).ValueOrDie(), 13);
  auto got =
      DiscoveryPipeline(options).RunOnShardArtifacts(std::move(legacy), 13);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->key, want->key);
  EXPECT_EQ(got->verdict, want->verdict);
  EXPECT_EQ(got->witness, want->witness);
  EXPECT_EQ(got->filter_sample_size, want->filter_sample_size);
  EXPECT_EQ(got->filter_sample_size, 300u);
}

TEST(ShardArtifactTest, RejectsCorruptBytes) {
  Rng rng(37);
  Dataset d = MakeUniformGridSample(3, 3, 30, &rng);
  auto artifacts = BuildShardArtifacts(d, TupleBuild(8, 1, 5));
  ASSERT_TRUE(artifacts.ok());
  std::string bytes = SerializeShardArtifact((*artifacts)[0]);

  EXPECT_FALSE(DeserializeShardArtifact("").ok());
  EXPECT_FALSE(DeserializeShardArtifact("garbage").ok());
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_FALSE(DeserializeShardArtifact(magic).ok());
  for (size_t cut : {size_t{5}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeShardArtifact(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(DeserializeShardArtifact(bytes + "x").ok());
  // Hostile provenance count: patch the u64 at offset 29 (after magic,
  // version, shard index, first_row, rows_seen, backend).
  std::string hostile = bytes;
  for (int i = 0; i < 8; ++i) hostile[29 + i] = '\xff';
  EXPECT_FALSE(DeserializeShardArtifact(hostile).ok());
}

TEST(FilterMergerTest, RejectsDuplicatesGapsAndMismatches) {
  Rng rng(41);
  Dataset d = MakeUniformGridSample(3, 3, 40, &rng);
  auto artifacts = BuildShardArtifacts(d, TupleBuild(8, 2, 5));
  ASSERT_TRUE(artifacts.ok());
  ASSERT_EQ(artifacts->size(), 2u);

  FilterMerger::Options merge_options;
  merge_options.tuple_sample_size = 8;
  {
    FilterMerger merger(merge_options);
    ShardFilterArtifact copy = (*artifacts)[0];
    ASSERT_TRUE(merger.Add((*artifacts)[0]).ok());
    EXPECT_FALSE(merger.Add(std::move(copy)).ok());  // duplicate index
  }
  {
    FilterMerger merger(merge_options);
    ASSERT_TRUE(merger.Add((*artifacts)[1]).ok());  // shard 0 missing
    auto merged = std::move(merger).Finish();
    EXPECT_FALSE(merged.ok());
  }
  {
    FilterMerger merger(merge_options);
    ShardFilterArtifact wrong = (*artifacts)[0];
    wrong.backend = FilterBackend::kBitset;
    EXPECT_FALSE(merger.Add(std::move(wrong)).ok());
  }
  {
    auto empty = FilterMerger(merge_options);
    EXPECT_FALSE(std::move(empty).Finish().ok());
  }
}

/// A bitset shard artifact over a 5-attribute table whose pair table is
/// swapped for one of `width` attributes.
ShardFilterArtifact MismatchedPairArtifact(uint32_t width) {
  Rng rng(47);
  Dataset d = MakeUniformGridSample(5, 4, 60, &rng);
  ShardedBuildOptions build = TupleBuild(8, 1, 3);
  build.backend = FilterBackend::kBitset;
  build.pair_slots = 10;
  auto artifacts = BuildShardArtifacts(d, build);
  EXPECT_TRUE(artifacts.ok());
  ShardFilterArtifact artifact = std::move((*artifacts)[0]);
  artifact.pair_table = MakeUniformGridSample(width, 2, 20, &rng);
  return artifact;
}

// A pair table is queried with the tuple sample's attribute sets, so a
// wider one reads past them and a narrower one answers for other
// columns: both must be refused.
TEST(ShardArtifactTest, RejectsPairTableOfAnotherSchema) {
  for (uint32_t width : {130u, 2u}) {
    auto back = DeserializeShardArtifact(
        SerializeShardArtifact(MismatchedPairArtifact(width)));
    ASSERT_FALSE(back.ok()) << "width " << width;
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FilterMergerTest, RejectsPairTableOfAnotherSchema) {
  for (uint32_t width : {130u, 2u}) {
    FilterMerger::Options merge_options;
    merge_options.backend = FilterBackend::kBitset;
    merge_options.tuple_sample_size = 8;
    FilterMerger merger(merge_options);
    Status added = merger.Add(MismatchedPairArtifact(width));
    ASSERT_FALSE(added.ok()) << "width " << width;
    EXPECT_EQ(added.code(), StatusCode::kInvalidArgument);

    // The discovery entry that merges in-memory artifacts refuses it too.
    PipelineOptions options;
    options.backend = FilterBackend::kBitset;
    options.eps = 0.01;
    options.sample_size = 8;
    std::vector<ShardFilterArtifact> artifacts;
    artifacts.push_back(MismatchedPairArtifact(width));
    auto run = DiscoveryPipeline(options).RunOnShardArtifacts(
        std::move(artifacts), 1);
    ASSERT_FALSE(run.ok()) << "width " << width;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------- skip-aware CSV build

/// What one shard sampled, as decoded text: comparable across builders
/// whose dictionaries number values differently.
struct ShardSample {
  uint64_t rows_seen = 0;
  std::vector<RowIndex> provenance;
  std::vector<std::string> tuple_rows;
  std::vector<std::string> pair_rows;

  bool operator==(const ShardSample&) const = default;
};

std::vector<std::string> FormatRows(const Dataset& d) {
  std::vector<std::string> rows;
  for (RowIndex i = 0; i < d.num_rows(); ++i) rows.push_back(d.FormatRow(i));
  return rows;
}

ShardSample SampleOf(const ShardFilterArtifact& artifact) {
  return {artifact.rows_seen, artifact.provenance,
          FormatRows(artifact.tuple_sample), FormatRows(artifact.pair_table)};
}

/// Reference shard build: the one that splits every record and offers
/// every row to both reservoirs (pair side first, then tuple side), as
/// the builder did before it learned to skip. Rows are kept as their
/// `Dataset::FormatRow` text.
Result<std::vector<ShardSample>> BuildEveryRecord(
    const std::string& path, const ShardedBuildOptions& options) {
  Result<FileText> text = FileText::Open(path);
  if (!text.ok()) return text.status();
  Result<CsvShardPlan> plan =
      PlanCsvShards(text->view(), options.num_shards, options.csv);
  if (!plan.ok()) return plan.status();
  const size_t m = plan->attribute_names.size();
  uint64_t r = 0, s = 0;
  ResolveShardSampleSizes(options, static_cast<uint32_t>(m), &r, &s);
  Rng seeder(options.seed);
  std::vector<ShardSample> samples;
  for (const ShardRange& range : plan->ranges) {
    Rng rng(seeder.Next());
    ReservoirSampler<std::pair<std::string, uint64_t>> tuples(r, &rng);
    std::optional<PairReservoir> pairs;
    if (options.backend == FilterBackend::kBitset) pairs.emplace(s, &rng);
    std::map<uint64_t, std::string> payloads;
    CsvFieldSplitter splitter(options.csv);
    Status st = ForEachCsvRecordInRange(
        text->view(), range, options.csv, [&](std::string_view record) {
          std::span<const std::string_view> fields = splitter.Split(record);
          if (fields.size() != m) {
            return Status::InvalidArgument("row arity mismatch in shard");
          }
          std::string row;
          for (size_t j = 0; j < m; ++j) {
            if (j > 0) row += '|';
            row += fields[j];
          }
          const uint64_t pos = tuples.seen();
          if (pairs.has_value() && pairs->Offer()) payloads[pos] = row;
          tuples.Offer({std::move(row), pos});
          return Status::OK();
        });
    if (!st.ok()) return st;
    ShardSample sample;
    sample.rows_seen = tuples.seen();
    for (const auto& [row, pos] : tuples.items()) {
      sample.tuple_rows.push_back(row);
      sample.provenance.push_back(
          static_cast<RowIndex>(range.first_row + pos));
    }
    if (pairs.has_value()) {
      for (const auto& [a, b] : pairs->pairs()) {
        sample.pair_rows.push_back(payloads.at(a));
        sample.pair_rows.push_back(payloads.at(b));
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

ShardedBuildOptions SkipBuild(FilterBackend backend, size_t shards,
                              uint64_t tuple_sample_size, uint64_t pair_slots,
                              uint64_t seed) {
  ShardedBuildOptions options;
  options.backend = backend;
  options.eps = 0.01;
  options.tuple_sample_size = tuple_sample_size;
  options.pair_slots = pair_slots;
  options.num_shards = shards;
  options.num_threads = 2;
  options.seed = seed;
  return options;
}

// Encoding only the records a reservoir keeps must sample exactly the
// rows the encode-everything build samples.
TEST(SkipAwareBuildTest, MatchesBuildThatEncodesEveryRecord) {
  std::vector<std::string> paths = {
      WriteTempFile("skip_sharded.csv", ShardedCsvText())};
  for (const char* name :
       {"people", "orders", "dupes", "quoted", "wide", "binary"}) {
    paths.push_back(std::string(QIKEY_GOLDEN_DIR) + "/" + name + ".csv");
  }
  struct Sizes {
    uint64_t tuples, pair_slots;  // 0 = the paper's sizes at eps 0.01
  };
  for (const std::string& path : paths) {
    for (FilterBackend backend :
         {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
      for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        for (Sizes sizes : {Sizes{0, 0}, Sizes{3, 2}}) {
          for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
            SCOPED_TRACE(::testing::Message()
                         << path << " backend "
                         << static_cast<int>(backend) << " shards " << shards
                         << " sizes " << sizes.tuples << " seed " << seed);
            ShardedBuildOptions options = SkipBuild(
                backend, shards, sizes.tuples, sizes.pair_slots, seed);
            auto expected = BuildEveryRecord(path, options);
            ASSERT_TRUE(expected.ok()) << expected.status().ToString();
            auto built = BuildShardArtifactsFromCsv(path, options);
            ASSERT_TRUE(built.ok()) << built.status().ToString();
            ASSERT_EQ(built->size(), expected->size());
            for (size_t i = 0; i < built->size(); ++i) {
              EXPECT_EQ(SampleOf((*built)[i]), (*expected)[i]) << "shard " << i;
            }
          }
        }
      }
    }
  }
}

/// 3000 rows of three attributes ("a<i>,b<i>,c<i>") and then `last`.
std::string RowsThenRecord(const std::string& last) {
  std::string text = "x,y,z\n";
  for (int i = 0; i < 3000; ++i) {
    std::string n = std::to_string(i);
    text += "a" + n + ",b" + n + ",c" + n + "\n";
  }
  return text + last + "\n";
}

/// True iff `value` was dictionary-encoded into any column of any shard.
bool AnyShardEncoded(const std::vector<ShardFilterArtifact>& artifacts,
                     std::string_view value) {
  for (const ShardFilterArtifact& artifact : artifacts) {
    const Dataset& d = artifact.tuple_sample;
    for (AttributeIndex j = 0; j < d.num_attributes(); ++j) {
      if (d.column(j).dictionary()->Find(value) != Dictionary::kNotFound) {
        return true;
      }
    }
  }
  return false;
}

// The last record sits where a 2-tuple / 1-pair reservoir almost surely
// skips it (and the builds below confirm it did): a skipped record is
// never encoded, but a wrong width still fails the build.
TEST(SkipAwareBuildTest, SkippedRecordIsWidthCheckedButNeverEncoded) {
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    SCOPED_TRACE(static_cast<int>(backend));
    ShardedBuildOptions options = SkipBuild(backend, 1, 2, 1, 5);

    // A quoted delimiter keeps the width at three.
    std::string quoted =
        WriteTempFile("skip_quoted.csv", RowsThenRecord("u,\"v,w\",last"));
    auto built = BuildShardArtifactsFromCsv(quoted, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->size(), 1u);
    EXPECT_EQ((*built)[0].rows_seen, 3001u);
    EXPECT_FALSE(AnyShardEncoded(*built, "last"))
        << "the last record was sampled; pick another seed";
    EXPECT_FALSE(AnyShardEncoded(*built, "v,w"));

    // The same position with a wrong width, plain or quoted.
    for (const char* bad : {"u,v", "u,v,w,last", "u,\"v,w\"",
                            "u,\"v\",w,\"x\""}) {
      SCOPED_TRACE(bad);
      std::string path =
          WriteTempFile("skip_bad.csv", RowsThenRecord(bad));
      auto failed = BuildShardArtifactsFromCsv(path, options);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// `num_threads = 0` means one worker per CPU this process may run on,
// not per CPU the machine has.
TEST(ShardBuildTest, ZeroThreadsFollowsTheAffinityMask) {
  std::string path = WriteTempFile("affinity.csv", RowsThenRecord("u,v,w"));
  ShardedBuildOptions options = SkipBuild(FilterBackend::kTupleSample, 0, 8,
                                          0, 3);
  options.num_threads = 0;
  PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(UsableCpuCount(), 1u);
  auto built = BuildShardArtifactsFromCsv(path, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->size(), 1u);
}

// Every shard maps the CSV and unmaps it before the build returns.
// Overwrite the file in place, then rename another file over it: an
// artifact still pointing into a mapping would serialize the new bytes
// or fault on an unmapped page (which AddressSanitizer reports).
TEST(ShardBuildTest, CsvArtifactsDoNotBorrowFromTheFile) {
  const std::string text = ShardedCsvText();
  const std::string path = WriteTempFile("lifetime.csv", text);
  const std::string copy = WriteTempFile("lifetime_copy.csv", text);
  ShardedBuildOptions options = SkipBuild(FilterBackend::kBitset, 3, 0, 0, 7);
  auto built = BuildShardArtifactsFromCsv(path, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(text.size(), 'z');
  }
  ASSERT_EQ(std::rename(WriteTempFile("lifetime_other.csv", "p,q\n1,2\n")
                            .c_str(),
                        path.c_str()),
            0);
  auto fresh = BuildShardArtifactsFromCsv(copy, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(built->size(), fresh->size());
  for (size_t i = 0; i < built->size(); ++i) {
    EXPECT_EQ(SerializeShardArtifact((*built)[i]),
              SerializeShardArtifact((*fresh)[i]))
        << "shard " << i;
  }
}

// What the memory budget charges a builder: the codes of every retained
// row plus each new dictionary value's bytes and two words of index.
TEST(StreamingShardBuildTest, RetainedBytesCountRowsAndNewValues) {
  ShardArtifactBuilder builder({"a", "b"}, CsvOptions{},
                               FilterBackend::kTupleSample,
                               /*tuple_sample_size=*/4, /*pair_slots=*/0,
                               /*shard_index=*/0, /*first_row=*/0,
                               /*seed=*/1);
  EXPECT_EQ(builder.RetainedBytes(), 0u);
  ASSERT_EQ(builder.OfferRecord("one,two"), std::nullopt);
  const uint64_t one = builder.RetainedBytes();
  EXPECT_EQ(one, 2 * sizeof(ValueCode) + 6 + 4 * sizeof(void*));
  ASSERT_EQ(builder.OfferRecord("one,two"), std::nullopt);  // no new values
  EXPECT_EQ(builder.RetainedBytes() - one, 2 * sizeof(ValueCode));
}

// A wrong width is reported by its field count whether a reservoir keeps
// the record (it is split) or not (only its delimiters are counted).
TEST(StreamingShardBuildTest, WrongWidthReportsItsFieldCount) {
  for (uint64_t tuples : {uint64_t{1}, uint64_t{8}}) {
    ShardArtifactBuilder builder({"a", "b"}, CsvOptions{},
                                 FilterBackend::kTupleSample, tuples,
                                 /*pair_slots=*/0, /*shard_index=*/2,
                                 /*first_row=*/10, /*seed=*/1);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(builder.OfferRecord("x,y"), std::nullopt);
    }
    EXPECT_EQ(builder.OfferRecord("x,\"y,z\",w"), std::optional<size_t>(3))
        << tuples << " tuples";
  }
}

// Both sharded readers fail a record of the wrong width with the
// loader's error, numbered as the loader numbers it (blank records and
// the header counted), at any shard count and on either backend.
TEST(StreamingShardBuildTest, WrongWidthReadsAsTheLoadersError) {
  std::string rows = "a,b\n";
  for (int i = 0; i < 200; ++i) {
    rows += std::to_string(i) + ",x\n";
    if (i % 37 == 0) rows += "\n";
  }
  const std::string texts[] = {
      "a,b\n1,2\n\n1,2,3\n4,5\n",
      rows + "\n \n1,\"2,3\",4\n" + rows,
      rows + "9\n",
      "a,b\n\n" + rows.substr(4) + "1,2,3\n" + rows,
  };
  for (const std::string& text : texts) {
    const Status want = LoadCsvDatasetFromString(text).status();
    ASSERT_EQ(want.code(), StatusCode::kInvalidArgument);
    const std::string path = WriteTempFile("wrong_width.csv", text);
    for (FilterBackend backend :
         {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
      for (size_t shards : {1u, 2u, 3u}) {
        ShardedBuildOptions options = SkipBuild(backend, shards, 2, 1, 5);
        EXPECT_EQ(BuildShardArtifactsFromCsv(path, options).status(), want)
            << shards << " shards";
      }
      ShardedBuildOptions options = SkipBuild(backend, 1, 2, 1, 5);
      EXPECT_EQ(StreamCsvShardArtifact(path, options, nullptr).status(),
                want);
    }
  }
}

// The budget path's one builder is seeded as the first shard of a
// `--shards` build, so its artifact is the one-shard build's, byte for
// byte, and `RunSharded` answers alike either way at any thread count.
TEST(StreamingShardBuildTest, IsTheOneShardBuild) {
  const std::string people = std::string(QIKEY_GOLDEN_DIR) + "/people.csv";
  const std::string sharded =
      WriteTempFile("stream_sharded.csv", ShardedCsvText());
  for (const std::string& path : {people, sharded}) {
    for (FilterBackend backend :
         {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
      SCOPED_TRACE(::testing::Message()
                   << path << " backend " << static_cast<int>(backend));
      ShardedBuildOptions options = SkipBuild(backend, 1, 0, 0, 7);
      auto one_shard = BuildShardArtifactsFromCsv(path, options);
      ASSERT_TRUE(one_shard.ok()) << one_shard.status().ToString();
      ASSERT_EQ(one_shard->size(), 1u);
      options.memory_budget_bytes = 64 << 20;
      auto streamed = StreamCsvShardArtifact(path, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(SerializeShardArtifact(*streamed),
                SerializeShardArtifact((*one_shard)[0]));

      PipelineOptions pipeline_options;
      pipeline_options.eps = 0.01;
      pipeline_options.backend = backend;
      ShardedRunOptions by_shards;
      by_shards.num_shards = 1;
      auto want = DiscoveryPipeline(pipeline_options)
                      .RunSharded(path, by_shards, 11);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t threads : {size_t{1}, size_t{4}}) {
        pipeline_options.num_threads = threads;
        ShardedRunOptions by_budget;
        by_budget.memory_budget_bytes = 64 << 20;
        auto got = DiscoveryPipeline(pipeline_options)
                       .RunSharded(path, by_budget, 11);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->key, want->key) << threads << " threads";
        EXPECT_EQ(got->verdict, want->verdict);
        EXPECT_EQ(got->witness, want->witness);
        EXPECT_EQ(got->rows, want->rows);
        EXPECT_EQ(got->num_shards, 1u);
        ASSERT_EQ(got->steps.size(), want->steps.size());
        for (size_t i = 0; i < want->steps.size(); ++i) {
          EXPECT_EQ(got->steps[i].chosen, want->steps[i].chosen);
        }
      }
    }
  }
}

// ------------------------------------------------------------ draw pins

// The digests below are fixed constants, never re-derived by the test:
// a change in what the shard builders or the pair merge draw from the
// RNG, or in what they keep, changes them.

uint64_t ArtifactDigest(const std::vector<ShardFilterArtifact>& artifacts) {
  uint64_t hash = kFnv1aOffset;
  for (const ShardFilterArtifact& artifact : artifacts) {
    hash = Fnv1a(SerializeShardArtifact(artifact), hash);
  }
  return hash;
}

TEST(ShardDrawPinTest, CsvArtifactBytes) {
  struct Pin {
    std::string path;
    size_t shards;
    uint64_t digest;
  };
  const std::string people = std::string(QIKEY_GOLDEN_DIR) + "/people.csv";
  const std::string sharded =
      WriteTempFile("pin_sharded.csv", ShardedCsvText());
  for (const Pin& pin : {Pin{people, 1, 0xb270f55baaa1bf05ull},
                         Pin{people, 3, 0xe7c8d06316c9bdfcull},
                         Pin{sharded, 1, 0xef201892bc991400ull},
                         Pin{sharded, 3, 0xc2216f7308a5e3acull}}) {
    SCOPED_TRACE(::testing::Message() << pin.path << " shards " << pin.shards);
    ShardedBuildOptions options =
        SkipBuild(FilterBackend::kBitset, pin.shards, 0, 0, 7);
    auto built = BuildShardArtifactsFromCsv(pin.path, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->size(), pin.shards);
    EXPECT_EQ(ArtifactDigest(*built), pin.digest);
  }
}

/// Bitset shard artifacts over a 700-row adult-like table.
Result<std::vector<ShardFilterArtifact>> PinnedInMemoryArtifacts(
    size_t shards) {
  Rng rng(61);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 700;
  Dataset d = MakeTabular(spec, &rng);
  ShardedBuildOptions build = TupleBuild(40, shards, 19);
  build.backend = FilterBackend::kBitset;
  build.pair_slots = 250;
  return BuildShardArtifacts(d, build);
}

TEST(ShardDrawPinTest, InMemoryArtifactBytes) {
  auto one = PinnedInMemoryArtifacts(1);
  auto three = PinnedInMemoryArtifacts(3);
  ASSERT_TRUE(one.ok() && three.ok());
  EXPECT_EQ(ArtifactDigest(*one), 0xd5867a7c16f4816dull);
  EXPECT_EQ(ArtifactDigest(*three), 0xcd388758c619028aull);
}

TEST(ShardDrawPinTest, MergedPairTableRows) {
  auto artifacts = PinnedInMemoryArtifacts(3);
  ASSERT_TRUE(artifacts.ok());
  FilterMerger::Options merge_options;
  merge_options.backend = FilterBackend::kBitset;
  merge_options.tuple_sample_size = 40;
  merge_options.seed = 5;
  FilterMerger merger(merge_options);
  for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
  auto merged = std::move(merger).Finish();
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->pair_table.num_rows(), 500u);
  EXPECT_EQ(RowsDigest(merged->pair_table), 0x4e5ffc105cbb1f01ull);
}

TEST(ShardDrawPinTest, TupleCsvArtifactBytes) {
  struct Pin {
    std::string path;
    size_t shards;
    uint64_t digest;
  };
  const std::string people = std::string(QIKEY_GOLDEN_DIR) + "/people.csv";
  const std::string sharded =
      WriteTempFile("pin_tuple_sharded.csv", ShardedCsvText());
  for (const Pin& pin : {Pin{people, 1, 0xd20d2cc80ad74211ull},
                         Pin{people, 3, 0x73d40b640f880a7bull},
                         Pin{sharded, 1, 0xbad0349f106bfaeeull},
                         Pin{sharded, 3, 0xd953d9f508bd76e9ull}}) {
    SCOPED_TRACE(::testing::Message() << pin.path << " shards " << pin.shards);
    ShardedBuildOptions options =
        SkipBuild(FilterBackend::kTupleSample, pin.shards, 0, 0, 7);
    auto built = BuildShardArtifactsFromCsv(pin.path, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->size(), pin.shards);
    EXPECT_EQ(ArtifactDigest(*built), pin.digest);
  }
}

/// Tuple shard artifacts over the same 700-row table.
Result<std::vector<ShardFilterArtifact>> PinnedTupleArtifacts(size_t shards) {
  Rng rng(61);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 700;
  Dataset d = MakeTabular(spec, &rng);
  return BuildShardArtifacts(d, TupleBuild(40, shards, 23));
}

TEST(ShardDrawPinTest, TupleInMemoryArtifactBytes) {
  auto one = PinnedTupleArtifacts(1);
  auto three = PinnedTupleArtifacts(3);
  ASSERT_TRUE(one.ok() && three.ok());
  EXPECT_EQ(ArtifactDigest(*one), 0xe9a49f1bf42a860eull);
  EXPECT_EQ(ArtifactDigest(*three), 0x652dafede9808b3full);
}

TEST(ShardDrawPinTest, MergedTupleSampleRows) {
  auto artifacts = PinnedTupleArtifacts(3);
  ASSERT_TRUE(artifacts.ok());
  FilterMerger::Options merge_options;
  merge_options.backend = FilterBackend::kTupleSample;
  merge_options.tuple_sample_size = 40;
  merge_options.seed = 5;
  FilterMerger merger(merge_options);
  for (auto& a : *artifacts) ASSERT_TRUE(merger.Add(std::move(a)).ok());
  auto merged = std::move(merger).Finish();
  ASSERT_TRUE(merged.ok());
  const TupleSampleFilter& filter = *merged->tuple_filter;
  ASSERT_EQ(filter.sample_size(), 40u);
  ASSERT_EQ(filter.provenance().size(), 40u);
  EXPECT_EQ(RowsDigest(filter.sample()), 0xaac15dcae0d5be79ull);
  EXPECT_EQ(IndexDigest(filter.provenance()), 0xd1763afc9a3ed2c5ull);
}

}  // namespace
}  // namespace qikey
