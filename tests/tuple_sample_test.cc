#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/anonymity.h"
#include "core/masking.h"
#include "core/minkey.h"
#include "core/tuple_sample_filter.h"
#include "data/generators/tabular.h"
#include "data/generators/uniform_grid.h"
#include "engine/pipeline.h"
#include "chi_square.h"
#include "data/dataset_builder.h"
#include "fnv1a_digest.h"
#include "stream/tuple_sample.h"
#include "util/rng.h"

namespace qikey {
namespace {

/// One column whose value names the row: `row0`, `row1`, ...
Dataset NamedRows(uint64_t n) {
  DatasetBuilder b({"v"});
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(b.AddRow({"row" + std::to_string(i)}).ok());
  }
  return std::move(b).Finish();
}

/// The sample's rows as a sorted list of their names.
std::vector<std::string> SortedRows(const Dataset& sample) {
  std::vector<std::string> rows;
  for (RowIndex i = 0; i < sample.num_rows(); ++i) {
    rows.push_back(sample.FormatRow(i));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ----------------------------------------------------------------- draw

TEST(DrawTupleSampleTest, ClampsToTheRangeAndOffsetsProvenance) {
  Dataset d = NamedRows(10);
  Rng rng(1);
  TupleSample all = DrawTupleSample(d, 4, 3, 50, &rng);
  ASSERT_EQ(all.sample.num_rows(), 3u);
  ASSERT_EQ(all.provenance.size(), 3u);
  std::vector<RowIndex> rows = all.provenance;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<RowIndex>{4, 5, 6}));
  for (RowIndex i = 0; i < 3; ++i) {
    EXPECT_EQ(all.sample.FormatRow(i), d.FormatRow(all.provenance[i]));
  }
}

// Every r-subset of the range is equally likely.
TEST(DrawTupleSampleTest, SubsetsOfTheRangeAreUniform) {
  Dataset d = NamedRows(9);
  const uint64_t lo = 2, n = 6, r = 3;  // C(6, 3) = 20 subsets
  const int trials = 4000;
  Rng rng(2);
  std::map<std::vector<std::string>, uint64_t> freq;
  for (int t = 0; t < trials; ++t) {
    TupleSample drawn = DrawTupleSample(d, lo, n, r, &rng);
    ASSERT_EQ(drawn.sample.num_rows(), r);
    for (RowIndex row : drawn.provenance) {
      ASSERT_GE(row, lo);
      ASSERT_LT(row, lo + n);
    }
    freq[SortedRows(drawn.sample)]++;
  }
  EXPECT_EQ(freq.size(), 20u);
  EXPECT_LT(ChiSquareStatistic(freq, 20), ChiSquareCritical(19));
}

// ---------------------------------------------------------------- merge

// The merge of two per-population draws is distributed as one draw of
// the union: every 3-subset of the 9 rows is equally likely.
TEST(MergeTupleSamplesTest, SubsetsOfTheUnionAreUniform) {
  Dataset d = NamedRows(9);
  const uint64_t seen_a = 4, seen_b = 5, target = 3;  // C(9, 3) = 84
  const int trials = 8400;
  Rng rng(3);
  std::map<std::vector<std::string>, uint64_t> freq;
  for (int t = 0; t < trials; ++t) {
    TupleSample a = DrawTupleSample(d, 0, seen_a, target, &rng);
    TupleSample b = DrawTupleSample(d, seen_a, seen_b, target, &rng);
    auto merged = MergeTupleSamples(a, seen_a, b, seen_b, target, &rng);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_EQ(merged->sample.num_rows(), target);
    ASSERT_EQ(merged->provenance.size(), target);
    for (RowIndex i = 0; i < target; ++i) {
      ASSERT_EQ(merged->sample.FormatRow(i),
                d.FormatRow(merged->provenance[i]));
    }
    freq[SortedRows(merged->sample)]++;
  }
  EXPECT_EQ(freq.size(), 84u);
  EXPECT_LT(ChiSquareStatistic(freq, 84), ChiSquareCritical(83));
}

TEST(MergeTupleSamplesTest, KeepsProvenanceOnlyWhenBothSidesCarryIt) {
  Dataset d = NamedRows(8);
  Rng rng(4);
  TupleSample a = DrawTupleSample(d, 0, 4, 4, &rng);
  TupleSample b = DrawTupleSample(d, 4, 4, 4, &rng);
  b.provenance.clear();
  auto merged = MergeTupleSamples(a, 4, b, 4, 6, &rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->sample.num_rows(), 6u);
  EXPECT_TRUE(merged->provenance.empty());
}

TEST(MergeTupleSamplesTest, RejectsInvalidInputs) {
  Dataset d = NamedRows(8);
  Rng rng(5);
  TupleSample a = DrawTupleSample(d, 0, 4, 2, &rng);
  TupleSample b = DrawTupleSample(d, 4, 4, 2, &rng);
  EXPECT_FALSE(MergeTupleSamples(a, 4, b, 4, 2, nullptr).ok());
  EXPECT_FALSE(MergeTupleSamples(a, 4, b, 4, 0, &rng).ok());
  // Fewer rows seen than retained.
  EXPECT_FALSE(MergeTupleSamples(a, 1, b, 4, 2, &rng).ok());
  // Each side retains 2 but a target of 3 needs 3 from either.
  EXPECT_FALSE(MergeTupleSamples(a, 4, b, 4, 3, &rng).ok());
}

// ------------------------------------------------------------ draw pins

// Every tuple draw in the library, pinned as fixed constants that the
// test never re-derives: a change in what a draw site takes from the
// RNG, or in which rows it keeps, changes a digest.

/// A table with no single-attribute key, so greedy gains, keys and
/// masks all depend on which rows a draw keeps.
Dataset PinTable(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  return MakeUniformGridSample(8, 4, rows, &rng);
}

/// A greedy trace as text: `attribute:gain:blocks` per step.
std::string StepsText(const std::vector<RefineEngine::Step>& steps) {
  std::string out;
  for (const RefineEngine::Step& step : steps) {
    out += std::to_string(step.chosen) + ":" + std::to_string(step.gain) +
           ":" + std::to_string(step.blocks_after) + ";";
  }
  return out;
}

TEST(TupleDrawPinTest, FilterBuildSample) {
  Rng data_rng(31);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 900;
  Dataset d = MakeTabular(spec, &data_rng);
  TupleSampleFilterOptions options;
  options.eps = 0.01;
  Rng rng(32);
  auto filter = TupleSampleFilter::Build(d, options, &rng);
  ASSERT_TRUE(filter.ok());
  ASSERT_EQ(filter->sample_size(), 140u);
  EXPECT_EQ(RowsDigest(filter->sample()), 0x5d6562378bfdff59ull);
  EXPECT_EQ(IndexDigest(filter->provenance()), 0x5c9b777db7c5f180ull);
  EXPECT_EQ(rng.Next(), 0x0e55c0aaaea1d5a0ull);
}

TEST(TupleDrawPinTest, PipelineRun) {
  struct Pin {
    FilterBackend backend;
    uint64_t sample_digest;
    uint64_t digest;
  };
  Dataset d = PinTable(2000, 33);
  for (const Pin& pin :
       {Pin{FilterBackend::kTupleSample, 0xb3f6a685181c6a98ull,
            0xad01db18a64574f5ull},
        Pin{FilterBackend::kBitset, 0xb3f6a685181c6a98ull,
            0x3effee393bd3c478ull}}) {
    SCOPED_TRACE(::testing::Message()
                 << "backend " << static_cast<int>(pin.backend));
    PipelineOptions options;
    options.eps = 0.01;
    options.backend = pin.backend;
    Rng rng(34);
    auto run = DiscoveryPipeline(options).Run(d, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->tuple_sample_size, 80u);
    EXPECT_EQ(RowsDigest(*run->sample), pin.sample_digest);
    std::string text = run->key.ToString() + "|" + StepsText(run->steps);
    EXPECT_EQ(Fnv1a(text), pin.digest) << text;
  }
}

TEST(TupleDrawPinTest, MinKeySearches) {
  Dataset d = PinTable(1500, 35);
  MinKeyOptions options;
  options.eps = 0.01;
  Rng approx_rng(36);
  auto approx = FindApproxMinimumEpsKey(d, options, &approx_rng);
  ASSERT_TRUE(approx.ok());
  std::string approx_text =
      approx->key.ToString() + "|" + StepsText(approx->steps);
  EXPECT_EQ(Fnv1a(approx_text), 0xe41c45dd05231a41ull) << approx_text;

  options.sample_size = 40;
  Rng exact_rng(37);
  auto exact = FindMinimumEpsKeyExact(d, options, &exact_rng);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->sample_size, 40u);
  EXPECT_EQ(Fnv1a(exact->key.ToString()), 0xf9d64a767f9b1091ull)
      << exact->key.ToString();
}

TEST(TupleDrawPinTest, AuditAndMasking) {
  Dataset d = PinTable(1500, 38);
  Rng audit_rng(39);
  auto report = AuditQuasiIdentifiers(d, 0.01, 6, &audit_rng);
  ASSERT_TRUE(report.ok());
  std::string audit_text;
  for (const QuasiIdentifierRisk& risk : report->quasi_identifiers) {
    audit_text += risk.attrs.ToString() + ";";
  }
  EXPECT_EQ(Fnv1a(audit_text), 0x75cf823866b0e9adull) << audit_text;

  MaskingOptions options;
  options.eps = 0.2;
  Rng mask_rng(40);
  auto masking = FindMaskingSet(d, options, &mask_rng);
  ASSERT_TRUE(masking.ok());
  std::string mask_text = masking->masked.ToString() + "|";
  for (const MaskingStep& step : masking->steps) {
    mask_text += std::to_string(step.masked) + ";";
  }
  EXPECT_EQ(Fnv1a(mask_text), 0xfb14f3342bc317c0ull) << mask_text;
  EXPECT_EQ(mask_rng.Next(), 0x6fd82d8c3a789f5aull);
}

}  // namespace
}  // namespace qikey
