#include <gtest/gtest.h>

#include <vector>

#include "core/key_enumeration.h"
#include "core/mx_pair_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/generators/tabular.h"
#include "data/generators/uniform_grid.h"
#include "engine/pipeline.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qikey {
namespace {

Dataset AdultishTable(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = rows;
  return MakeTabular(spec, &rng);
}

// -------------------------------------------------- QueryBatch == Query

TEST(QueryBatchTest, MatchesPerSetQueryTupleSample) {
  Rng rng(11);
  Dataset d = MakeUniformGridSample(8, 3, 600, &rng);
  TupleSampleFilterOptions opts;
  opts.eps = 0.01;
  opts.sample_size = 80;
  auto filter = TupleSampleFilter::Build(d, opts, &rng);
  ASSERT_TRUE(filter.ok());

  Rng qrng(12);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(AttributeSet::Random(8, 0.4, &qrng));
  }
  std::vector<FilterVerdict> serial = filter->QueryBatch(queries, nullptr);
  ThreadPool pool(4);
  std::vector<FilterVerdict> parallel = filter->QueryBatch(queries, &pool);
  ASSERT_EQ(serial.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(serial[i], filter->Query(queries[i])) << i;
    EXPECT_EQ(parallel[i], serial[i]) << i;
  }
}

TEST(QueryBatchTest, MatchesPerSetQueryMxPair) {
  Rng rng(21);
  Dataset d = MakeUniformGridSample(8, 3, 600, &rng);
  MxPairFilterOptions opts;
  opts.eps = 0.01;
  opts.sample_size = 400;
  auto filter = MxPairFilter::Build(d, opts, &rng);
  ASSERT_TRUE(filter.ok());

  Rng qrng(22);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(AttributeSet::Random(8, 0.4, &qrng));
  }
  std::vector<FilterVerdict> serial = filter->QueryBatch(queries, nullptr);
  ThreadPool pool(4);
  std::vector<FilterVerdict> parallel = filter->QueryBatch(queries, &pool);
  ASSERT_EQ(serial.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(serial[i], filter->Query(queries[i])) << i;
    EXPECT_EQ(parallel[i], serial[i]) << i;
  }
}

TEST(QueryBatchTest, EmptyBatch) {
  Rng rng(31);
  Dataset d = MakeUniformGridSample(4, 3, 100, &rng);
  TupleSampleFilterOptions opts;
  opts.eps = 0.05;
  auto filter = TupleSampleFilter::Build(d, opts, &rng);
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->QueryBatch({}, nullptr).empty());
  ThreadPool pool(2);
  EXPECT_TRUE(filter->QueryBatch({}, &pool).empty());
}

// ------------------------------------- batched levelwise enumeration

TEST(QueryBatchTest, BatchedEnumerationMatchesExactOnFullSample) {
  // A filter whose sample is the entire table answers exactly, so the
  // batched filter-driven enumeration must equal the exact one (eps=0).
  Rng rng(41);
  Dataset d = MakeUniformGridSample(6, 3, 200, &rng);
  TupleSampleFilterOptions opts;
  opts.eps = 0.5;
  opts.sample_size = d.num_rows();
  auto filter = TupleSampleFilter::Build(d, opts, &rng);
  ASSERT_TRUE(filter.ok());

  KeyEnumerationOptions enum_opts;
  enum_opts.eps = 0.0;
  enum_opts.max_size = 6;
  auto exact = EnumerateMinimalKeys(d, enum_opts);
  auto filtered =
      EnumerateMinimalAcceptedSets(*filter, d.num_attributes(), enum_opts);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(*exact, *filtered);

  ThreadPool pool(4);
  auto parallel = EnumerateMinimalAcceptedSets(*filter, d.num_attributes(),
                                               enum_opts, &pool);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*exact, *parallel);
}

// ------------------------------------------------------------ pipeline

TEST(PipelineTest, RejectsDegenerateInput) {
  DiscoveryPipeline pipeline(PipelineOptions{});
  Rng rng(1);
  Dataset empty;
  EXPECT_FALSE(pipeline.Run(empty, &rng).ok());
  Dataset d = AdultishTable(100, 2);
  EXPECT_FALSE(pipeline.Run(d, nullptr).ok());
  PipelineOptions bad;
  bad.eps = 0.0;
  EXPECT_FALSE(DiscoveryPipeline(bad).Run(d, &rng).ok());
}

TEST(PipelineTest, FindsAcceptedKeyTupleBackend) {
  Dataset d = AdultishTable(5000, 3);
  PipelineOptions options;
  options.eps = 0.01;
  DiscoveryPipeline pipeline(options);
  Rng rng(7);
  auto result = pipeline.Run(d, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->covered_sample);
  EXPECT_EQ(result->verdict, FilterVerdict::kAccept);
  EXPECT_FALSE(result->key.empty());
  EXPECT_FALSE(result->witness.has_value());
  EXPECT_EQ(result->rows, 5000u);
  // All five stages present, in order.
  ASSERT_EQ(result->stages.size(), 5u);
  EXPECT_EQ(result->stages[0].name, "sample");
  EXPECT_EQ(result->stages[4].name, "verify");
  EXPECT_FALSE(result->Report(&d.schema()).empty());
}

TEST(PipelineTest, BitsetBackendVerifiesAgainstIndependentPairs) {
  Dataset d = AdultishTable(5000, 4);
  PipelineOptions options;
  options.eps = 0.01;
  options.backend = FilterBackend::kBitset;
  DiscoveryPipeline pipeline(options);
  Rng rng(8);
  auto result = pipeline.Run(d, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->covered_sample);
  // The pair sample is independent of the greedy tuple sample; at these
  // sizes a key of the tuple sample is (w.h.p.) accepted by it too.
  EXPECT_EQ(result->verdict, FilterVerdict::kAccept);
  EXPECT_GT(result->filter_sample_size, 0u);
}

TEST(PipelineTest, EmittedKeyIsLocallyMinimal) {
  Dataset d = AdultishTable(3000, 5);
  PipelineOptions options;
  options.eps = 0.01;
  options.sample_size = 300;
  DiscoveryPipeline pipeline(options);
  Rng rng(9);
  auto result = pipeline.Run(d, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->covered_sample);
  ASSERT_GE(result->key.size(), 1u);
  // Rebuild the identical retained sample (same seed, same draw) and
  // check the minimize stage left nothing droppable: removing any one
  // attribute must be rejected by the filter.
  Rng rng2(9);
  std::vector<uint64_t> chosen =
      rng2.SampleWithoutReplacement(d.num_rows(), result->tuple_sample_size);
  std::vector<RowIndex> rows(chosen.begin(), chosen.end());
  TupleSampleFilter filter = TupleSampleFilter::FromSample(
      d.SelectRows(rows), rows, DuplicateDetection::kSort);
  EXPECT_EQ(filter.Query(result->key), FilterVerdict::kAccept);
  for (AttributeIndex a : result->key.ToIndices()) {
    AttributeSet dropped = result->key;
    dropped.Remove(a);
    if (dropped.empty()) continue;
    EXPECT_EQ(filter.Query(dropped), FilterVerdict::kReject) << a;
  }
}

TEST(PipelineTest, DeterministicAcrossThreadCounts) {
  Dataset d = AdultishTable(4000, 6);
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    PipelineOptions serial_opts;
    serial_opts.eps = 0.01;
    serial_opts.backend = backend;
    serial_opts.num_threads = 1;
    Rng rng_a(55);
    auto serial = DiscoveryPipeline(serial_opts).Run(d, &rng_a);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {2u, 4u, 7u}) {
      PipelineOptions par_opts = serial_opts;
      par_opts.num_threads = threads;
      Rng rng_b(55);
      auto parallel = DiscoveryPipeline(par_opts).Run(d, &rng_b);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(serial->key, parallel->key) << threads;
      EXPECT_EQ(serial->covered_sample, parallel->covered_sample);
      EXPECT_EQ(serial->verdict, parallel->verdict);
      EXPECT_EQ(serial->pruned_attributes, parallel->pruned_attributes);
      ASSERT_EQ(serial->steps.size(), parallel->steps.size());
      for (size_t i = 0; i < serial->steps.size(); ++i) {
        EXPECT_EQ(serial->steps[i].chosen, parallel->steps[i].chosen);
        EXPECT_EQ(serial->steps[i].gain, parallel->steps[i].gain);
      }
    }
  }
}

TEST(PipelineTest, ReservoirEntryMatchesInMemorySample) {
  // Drawing the sample by hand and entering through RunOnReservoir must
  // reproduce Run()'s post-sample stages exactly.
  Dataset d = AdultishTable(4000, 10);
  PipelineOptions options;
  options.eps = 0.01;
  DiscoveryPipeline pipeline(options);

  Rng rng_a(77);
  auto full = pipeline.Run(d, &rng_a);
  ASSERT_TRUE(full.ok());

  Rng rng_b(77);
  uint64_t r = full->tuple_sample_size;
  std::vector<uint64_t> chosen = rng_b.SampleWithoutReplacement(
      d.num_rows(), r);
  std::vector<RowIndex> rows(chosen.begin(), chosen.end());
  Dataset sample = d.SelectRows(rows);
  auto streamed = pipeline.RunOnReservoir(sample, rows);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(full->key, streamed->key);
  EXPECT_EQ(full->covered_sample, streamed->covered_sample);
  EXPECT_EQ(full->verdict, streamed->verdict);
}

TEST(PipelineTest, ReservoirRejectsBitsetBackend) {
  Dataset d = AdultishTable(200, 11);
  PipelineOptions options;
  options.backend = FilterBackend::kBitset;
  DiscoveryPipeline pipeline(options);
  EXPECT_FALSE(pipeline.RunOnReservoir(d, {}).ok());
}

}  // namespace
}  // namespace qikey
