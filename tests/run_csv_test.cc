// Differential tests of the sample-first CSV entry
// `DiscoveryPipeline::Run(csv_path)` against the reference,
// `LoadCsvDataset` then `Run(const Dataset&)`: for one seed both must
// emit the same key, greedy steps, verdict and witness rows on both
// backends (the bitset evidence bit for bit), consume the same draws, and
// fail on the same bad input with the same text. `CsvRowReader`, which
// encodes only the rows it is asked for, must agree with the loader and
// must not depend on how its work is cut.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bitset_filter.h"
#include "core/tuple_sample_filter.h"
#include "csv_oracle.h"
#include "csv_test_inputs.h"
#include "data/csv_loader.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "util/mapped_file.h"
#include "util/rng.h"

namespace qikey {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "qikey_run_csv_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

/// The value of row `r` of `d` on attribute `j`, as text.
std::string ValueAt(const Dataset& d, RowIndex r, AttributeIndex j) {
  const Column& col = d.column(j);
  return col.dictionary() != nullptr ? col.dictionary()->Value(col.code(r))
                                     : std::to_string(col.code(r));
}

/// `Run(csv_path)` against `LoadCsvDataset(csv_path)` + `Run`, one seed.
void ExpectRunCsvMatchesLoadThenRun(const std::string& path,
                                    const PipelineOptions& options,
                                    uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << path << " backend "
               << (options.backend == FilterBackend::kBitset ? "bitset"
                                                             : "tuple")
               << " eps " << options.eps << " seed " << seed);
  DiscoveryPipeline pipeline(options);
  Result<Dataset> loaded = LoadCsvDataset(path);
  Rng want_rng(seed);
  Rng got_rng(seed);
  Result<PipelineResult> want =
      loaded.ok() ? pipeline.Run(*loaded, &want_rng)
                  : Result<PipelineResult>(loaded.status());
  Result<PipelineResult> got = pipeline.Run(path, &got_rng);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->key, want->key);
  EXPECT_EQ(got->verdict, want->verdict);
  EXPECT_EQ(got->witness, want->witness);
  EXPECT_EQ(got->covered_sample, want->covered_sample);
  EXPECT_EQ(got->pruned_attributes, want->pruned_attributes);
  EXPECT_EQ(got->rows, want->rows);
  EXPECT_EQ(got->attributes, want->attributes);
  EXPECT_EQ(got->tuple_sample_size, want->tuple_sample_size);
  EXPECT_EQ(got->filter_sample_size, want->filter_sample_size);
  ASSERT_EQ(got->steps.size(), want->steps.size());
  for (size_t i = 0; i < want->steps.size(); ++i) {
    EXPECT_EQ(got->steps[i].chosen, want->steps[i].chosen) << "step " << i;
    EXPECT_EQ(got->steps[i].gain, want->steps[i].gain) << "step " << i;
    EXPECT_EQ(got->steps[i].blocks_after, want->steps[i].blocks_after)
        << "step " << i;
  }
  // Both consumed the same draws.
  EXPECT_EQ(got_rng.Next(), want_rng.Next());

  // The greedy sample holds the same rows, value for value.
  const Dataset& got_sample = *got->sample;
  const Dataset& want_sample = *want->sample;
  ASSERT_EQ(got_sample.num_rows(), want_sample.num_rows());
  ASSERT_EQ(got_sample.schema().names(), want_sample.schema().names());
  for (RowIndex r = 0; r < want_sample.num_rows(); ++r) {
    for (AttributeIndex j = 0; j < want_sample.num_attributes(); ++j) {
      ASSERT_EQ(ValueAt(got_sample, r, j), ValueAt(want_sample, r, j))
          << "sample row " << r << " attribute " << j;
    }
  }
  if (options.backend == FilterBackend::kBitset) {
    const auto* got_filter =
        dynamic_cast<const BitsetSeparationFilter*>(got->filter.get());
    const auto* want_filter =
        dynamic_cast<const BitsetSeparationFilter*>(want->filter.get());
    ASSERT_NE(got_filter, nullptr);
    ASSERT_NE(want_filter, nullptr);
    const PackedEvidence& g = got_filter->evidence();
    const PackedEvidence& w = want_filter->evidence();
    EXPECT_EQ(g.num_pairs(), w.num_pairs());
    EXPECT_EQ(g.source_pairs(), w.source_pairs());
    EXPECT_TRUE(std::ranges::equal(g.raw_words(), w.raw_words()));
    EXPECT_TRUE(std::ranges::equal(g.raw_reps(), w.raw_reps()));
  } else {
    const auto* got_filter =
        dynamic_cast<const TupleSampleFilter*>(got->filter.get());
    const auto* want_filter =
        dynamic_cast<const TupleSampleFilter*>(want->filter.get());
    ASSERT_NE(got_filter, nullptr);
    ASSERT_NE(want_filter, nullptr);
    EXPECT_EQ(got_filter->provenance(), want_filter->provenance());
  }
}

void ExpectMatchesOnBothBackends(const std::string& path,
                                 std::initializer_list<double> eps_values,
                                 std::initializer_list<uint64_t> seeds) {
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    for (double eps : eps_values) {
      for (uint64_t seed : seeds) {
        PipelineOptions options;
        options.backend = backend;
        options.eps = eps;
        ExpectRunCsvMatchesLoadThenRun(path, options, seed);
      }
    }
  }
}

TEST(RunCsvTest, GoldenCsvsMatchLoadThenRun) {
  for (const char* name :
       {"people", "orders", "dupes", "quoted", "wide", "binary"}) {
    ExpectMatchesOnBothBackends(
        std::string(QIKEY_GOLDEN_DIR) + "/" + name + ".csv", {0.01, 0.001},
        {1, 2, 3, 7});
  }
}

// Quoted commas and newlines, doubled quotes, CRLF and blank records,
// sampled (r < n) so the sample's codes differ from the loaded table's.
TEST(RunCsvTest, QuotedCrlfAndBlankRecordsMatchLoadThenRun) {
  const std::string path = WriteTemp("quoted.csv", ShardedCsvText());
  ExpectMatchesOnBothBackends(path, {0.05, 0.001}, {1, 2, 3, 4, 5});
  std::remove(path.c_str());
}

// Unkeyable tables: every attribute set is rejected, so the verify stage
// reports a witness. Many duplicate groups, with values whose first
// appearance in the file differs from their first appearance in the
// sample, so a witness that followed the codes' order would differ.
TEST(RunCsvTest, RejectedKeysReportTheSameWitnessRows) {
  std::ostringstream text;
  text << "a, b ,c\n";
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    text << "v" << rng.Uniform(9) << ", w" << rng.Uniform(5) << " ,"
         << (rng.Uniform(2) == 0 ? "\"x, y\"" : "z") << "\n";
  }
  const std::string path = WriteTemp("dupes.csv", text.str());
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
      PipelineOptions options;
      options.backend = backend;
      options.eps = 0.01;
      ExpectRunCsvMatchesLoadThenRun(path, options, seed);
      Rng rng_run(seed);
      auto run = DiscoveryPipeline(options).Run(path, &rng_run);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->verdict, FilterVerdict::kReject);
      EXPECT_TRUE(run->witness.has_value());
    }
  }
  std::remove(path.c_str());
}

// qbench's input: the 300k x 55 covtype-like CSV at its seeds 1 and 2,
// on both backends at its eps.
TEST(RunCsvTest, QbenchCovtypeMatchesLoadThenRun) {
  for (uint64_t seed : {1, 2}) {
    TabularSpec spec = CovtypeLikeSpec();
    spec.num_rows = 300000;
    Rng gen(seed);
    const std::string path =
        TempPath("covtype" + std::to_string(seed) + ".csv");
    ASSERT_TRUE(SaveCsvDataset(MakeTabular(spec, &gen), path).ok());
    ExpectMatchesOnBothBackends(path, {0.001}, {seed});
    std::remove(path.c_str());
  }
}

// Bad input fails with `LoadCsvDataset` + `Run`'s text: no records, a
// header only, one row, a record of the wrong width (early, late, or
// quoted), a missing file and a directory.
TEST(RunCsvTest, BadInputFailsWithLoadThenRunText) {
  std::string late_ragged = "a,b\n";
  for (int i = 0; i < 5000; ++i) late_ragged += std::to_string(i) + ",x\n";
  late_ragged += "1,2,3\n";
  const std::vector<std::string> texts = {
      "",
      "\n\n  \n",
      "a,b,c\n",
      "a,b\n1,2\n",
      "a,b\n1,2\n1,2,3\n4,5\n",
      "a,b\n1,2\n\"1,2\",3,4\n4,5\n",
      late_ragged,
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    ExpectMatchesOnBothBackends(
        WriteTemp("bad" + std::to_string(i) + ".csv", texts[i]), {0.01}, {1});
    std::remove(TempPath("bad" + std::to_string(i) + ".csv").c_str());
  }
  ExpectMatchesOnBothBackends(TempPath("missing.csv"), {0.01}, {1});
  const std::string dir = TempPath("dir");
  std::filesystem::create_directories(dir);
  ExpectMatchesOnBothBackends(dir, {0.01}, {1});
  std::filesystem::remove(dir);

  PipelineOptions options;
  Rng rng(1);
  EXPECT_FALSE(DiscoveryPipeline(options).Run(TempPath("x.csv"), nullptr).ok());
  options.eps = 0.0;
  const std::string people = std::string(QIKEY_GOLDEN_DIR) + "/people.csv";
  ExpectRunCsvMatchesLoadThenRun(people, options, 1);
}

// The reader's rows are the loader's, at every chunk count.
TEST(RunCsvTest, ReaderAgreesWithTheLoaderAtEveryChunkCount) {
  const std::string text = ShardedCsvText();
  Result<Dataset> loaded = LoadCsvDatasetFromString(text);
  ASSERT_TRUE(loaded.ok());
  const RowIndex n = static_cast<RowIndex>(loaded->num_rows());
  Rng rng(5);
  std::vector<RowIndex> rows;
  for (int i = 0; i < 700; ++i) {
    rows.push_back(static_cast<RowIndex>(rng.Uniform(n)));
  }
  const size_t m = loaded->num_attributes();
  std::string want_rows;
  for (size_t chunks : {0, 1, 2, 3, 7, 64}) {
    SCOPED_TRACE(::testing::Message() << chunks << " chunks");
    auto reader = internal::CsvRowReaderForText(text, CsvOptions{}, chunks);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->num_rows(), n);
    EXPECT_EQ((*reader)->names(), loaded->schema().names());
    Dataset encoded = (*reader)->EncodeRows(rows);
    ASSERT_EQ(encoded.num_rows(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (AttributeIndex j = 0; j < m; ++j) {
        ASSERT_EQ(ValueAt(encoded, static_cast<RowIndex>(i), j),
                  ValueAt(*loaded, rows[i], j));
      }
    }
    // Codes follow first appearance in `rows`, whatever the chunking.
    if (want_rows.empty()) want_rows = csv_oracle::Fingerprint(encoded);
    EXPECT_EQ(csv_oracle::Fingerprint(encoded), want_rows);
  }
  // The first record of the wrong width is the loader's error at any
  // chunking, though a later chunk holds another.
  const std::string ragged = text + "1,2,3\n" + text + "1\n" + text;
  for (size_t chunks : {0, 1, 2, 3, 7, 64}) {
    auto reader = internal::CsvRowReaderForText(ragged, CsvOptions{}, chunks);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().ToString(),
              LoadCsvDatasetFromString(ragged).status().ToString());
  }
}

// The cardinality audit: the sample-first sample's dictionaries hold
// only the sampled rows' values (the tuple backend encodes nothing else).
TEST(RunCsvTest, SampleDictionariesHoldOnlySampledValues) {
  const std::string path = WriteTemp("audit.csv", ShardedCsvText());
  PipelineOptions options;
  options.eps = 0.05;
  Rng rng(3);
  auto run = DiscoveryPipeline(options).Run(path, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Dataset& sample = *run->sample;
  ASSERT_LT(sample.num_rows(), run->rows);
  for (AttributeIndex j = 0; j < sample.num_attributes(); ++j) {
    std::vector<bool> used(sample.column(j).cardinality(), false);
    for (ValueCode code : sample.column(j).codes()) used[code] = true;
    EXPECT_EQ(std::count(used.begin(), used.end(), true),
              static_cast<long>(used.size()))
        << "attribute " << j;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qikey
