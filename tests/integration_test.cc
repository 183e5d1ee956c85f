#include <gtest/gtest.h>

#include "core/mx_pair_filter.h"
#include "qikey.h"

namespace qikey {
namespace {

/// End-to-end pipelines over realistic(ish) synthetic data, exercising
/// the public API the way the examples and benches do.

TEST(IntegrationTest, CsvToFilterPipeline) {
  // Build a CSV in memory, load, filter, and cross-check with exact
  // classification.
  std::string csv = "user,city,plan\n";
  for (int i = 0; i < 200; ++i) {
    // Appended piecewise: gcc 12 -Wrestrict FP on "u" + to_string
    // (PR105651).
    csv += "u";
    csv += std::to_string(i);
    csv += ",c";
    csv += std::to_string(i % 5);
    csv += ",p";
    csv += std::to_string(i % 2);
    csv += "\n";
  }
  auto d = LoadCsvDatasetFromString(csv);
  ASSERT_TRUE(d.ok());
  Rng rng(1);
  TupleSampleFilterOptions opts;
  opts.eps = 0.05;
  opts.sample_size = 60;
  auto filter = TupleSampleFilter::Build(*d, opts, &rng);
  ASSERT_TRUE(filter.ok());

  AttributeSet user = AttributeSet::FromIndices(3, {0});
  AttributeSet city_plan = AttributeSet::FromIndices(3, {1, 2});
  EXPECT_TRUE(IsKey(*d, user));
  EXPECT_EQ(filter->Query(user), FilterVerdict::kAccept);
  EXPECT_EQ(Classify(*d, city_plan, opts.eps), SeparationClass::kBad);
  EXPECT_EQ(filter->Query(city_plan), FilterVerdict::kReject);
}

TEST(IntegrationTest, AdultLikeFiltersAgreeWithGroundTruth) {
  Rng rng(2);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 5000;  // scaled for test runtime
  Dataset d = MakeTabular(spec, &rng);
  const double eps = 0.01;
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());

  MxPairFilterOptions mx_opts;
  mx_opts.eps = eps;
  auto mx = MxPairFilter::Build(d, mx_opts, &rng);
  TupleSampleFilterOptions ts_opts;
  ts_opts.eps = eps;
  auto ts = TupleSampleFilter::Build(d, ts_opts, &rng);
  ASSERT_TRUE(mx.ok() && ts.ok());
  EXPECT_EQ(mx->sample_size(), MxPairSampleSizePaper(m, eps));

  Rng qrng(3);
  int checked = 0, agreements = 0;
  for (int t = 0; t < 60; ++t) {
    AttributeSet a = AttributeSet::Random(m, 0.3, &qrng);
    FilterVerdict vm = mx->Query(a);
    FilterVerdict vt = ts->Query(a);
    agreements += (vm == vt);
    ++checked;
    SeparationClass truth = Classify(d, a, eps);
    if (truth == SeparationClass::kKey) {
      EXPECT_EQ(vm, FilterVerdict::kAccept);
      EXPECT_EQ(vt, FilterVerdict::kAccept);
    }
  }
  // Table 1 reports 95-100% agreement; at test scale we only require a
  // strong majority to keep the test deterministic-robust.
  EXPECT_GE(agreements * 100, checked * 85);
}

TEST(IntegrationTest, MinKeyPipelineProducesVerifiableQuasiIdentifier) {
  Rng rng(4);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 4000;
  Dataset d = MakeTabular(spec, &rng);
  MinKeyOptions opts;
  opts.eps = 0.02;
  auto result = FindApproxMinimumEpsKey(d, opts, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->covered_sample);
  // The quasi-identifier it found must hold on the full data set.
  EXPECT_TRUE(IsEpsSeparationKey(d, result->key, opts.eps));
  // And it should be much smaller than the full attribute set (the
  // fnlwgt-like column is near-unique, so very few attributes needed).
  EXPECT_LE(result->key.size(), 4u);
}

TEST(IntegrationTest, StreamingAndBatchFiltersAgreeOnVerdicts) {
  Rng data_rng(5);
  TabularSpec spec;
  spec.num_rows = 3000;
  spec.attributes = {{"a", 50, 0.4, -1, 0.0},
                     {"b", 4, 0.8, -1, 0.0},
                     {"c", 700, 0.2, -1, 0.0},
                     {"d", 2, 0.0, -1, 0.0}};
  Dataset d = MakeTabular(spec, &data_rng);

  Rng rng(6);
  TupleSampleFilterOptions batch_opts;
  batch_opts.eps = 0.02;
  batch_opts.sample_size = 250;
  auto batch = TupleSampleFilter::Build(d, batch_opts, &rng);
  ASSERT_TRUE(batch.ok());

  std::vector<uint32_t> cards;
  for (size_t j = 0; j < d.num_attributes(); ++j) {
    cards.push_back(d.column(static_cast<AttributeIndex>(j)).cardinality());
  }
  StreamingTupleFilterBuilder builder(d.schema(), cards, 250, &rng);
  for (RowIndex r = 0; r < d.num_rows(); ++r) {
    std::vector<ValueCode> row;
    for (AttributeIndex j = 0; j < d.num_attributes(); ++j) {
      row.push_back(d.code(r, j));
    }
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto streamed = std::move(builder).Finish();
  ASSERT_TRUE(streamed.ok());

  // The two filters hold independent samples; they must agree on
  // everything that is certain (keys accepted, empty set rejected) and
  // nearly everything else at these sample sizes.
  Rng qrng(7);
  int agree = 0, total = 0;
  for (int t = 0; t < 40; ++t) {
    AttributeSet a = AttributeSet::Random(4, 0.5, &qrng);
    agree += (batch->Query(a) == streamed->Query(a));
    ++total;
  }
  EXPECT_GE(agree * 100, total * 80);
  EXPECT_EQ(streamed->Query(AttributeSet(4)), FilterVerdict::kReject);
}

TEST(IntegrationTest, SketchTracksExactGammaOnTabularData) {
  Rng rng(8);
  TabularSpec spec;
  spec.num_rows = 4000;
  spec.attributes = {{"coarse", 3, 0.5, -1, 0.0},
                     {"mid", 12, 0.7, -1, 0.0},
                     {"fine", 300, 0.3, -1, 0.0}};
  Dataset d = MakeTabular(spec, &rng);
  NonSeparationSketchOptions opts;
  opts.k = 2;
  opts.alpha = 0.02;
  opts.eps = 0.1;
  opts.big_k = 6.0;
  auto sketch = NonSeparationSketch::Build(d, opts, &rng);
  ASSERT_TRUE(sketch.ok());
  for (const std::vector<AttributeIndex>& attrs :
       std::vector<std::vector<AttributeIndex>>{{0}, {1}, {0, 1}}) {
    AttributeSet a = AttributeSet::FromIndices(3, attrs);
    uint64_t truth = ExactUnseparatedPairs(d, a);
    NonSeparationEstimate est = sketch->Estimate(a);
    if (static_cast<double>(truth) >=
        opts.alpha * static_cast<double>(d.num_pairs())) {
      ASSERT_FALSE(est.small);
      EXPECT_NEAR(est.estimate, static_cast<double>(truth),
                  0.15 * static_cast<double>(truth));
    }
  }
}

}  // namespace
}  // namespace qikey
