#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "core/mx_pair_filter.h"
#include "core/separation.h"
#include "core/sketch.h"
#include "data/dataset_builder.h"
#include "engine/pipeline.h"
#include "fnv1a_digest.h"
#include "math/combinatorics.h"
#include "data/generators/uniform_grid.h"
#include "stream/pair_slots.h"
#include "stream/reservoir.h"
#include "stream/stream_builder.h"
#include "util/rng.h"

namespace qikey {
namespace {

// --------------------------------------------------------------- reservoir

TEST(ReservoirTest, KeepsEverythingWhenStreamIsSmall) {
  Rng rng(1);
  ReservoirSampler<int> res(10, &rng);
  for (int i = 0; i < 7; ++i) res.Offer(i);
  EXPECT_EQ(res.seen(), 7u);
  EXPECT_EQ(res.items().size(), 7u);
}

TEST(ReservoirTest, CapsAtCapacity) {
  Rng rng(2);
  ReservoirSampler<int> res(5, &rng);
  for (int i = 0; i < 1000; ++i) res.Offer(i);
  EXPECT_EQ(res.items().size(), 5u);
  std::set<int> distinct(res.items().begin(), res.items().end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(ReservoirTest, ExactCapacityBoundary) {
  // Window exactly the stream length: everything retained, in order.
  Rng rng(20);
  ReservoirSampler<int> res(8, &rng);
  for (int i = 0; i < 8; ++i) res.Offer(i);
  EXPECT_EQ(res.items().size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(res.items()[i], i);
  // One more item: still capped, still a valid subset of the stream.
  res.Offer(8);
  EXPECT_EQ(res.items().size(), 8u);
  EXPECT_EQ(res.seen(), 9u);
}

TEST(ReservoirTest, WindowOfOne) {
  // Degenerate capacity: after n items the slot is a uniform pick.
  constexpr int kTrials = 20000;
  std::vector<int> counts(10, 0);
  Rng rng(21);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> res(1, &rng);
    for (int i = 0; i < 10; ++i) res.Offer(i);
    ++counts[res.items()[0]];
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(counts[i], kTrials / 10, kTrials / 25) << i;
  }
}

TEST(ReservoirTest, DuplicateItemsAreRetainedIndependently) {
  // A constant stream must fill the reservoir with copies, not dedupe.
  Rng rng(22);
  ReservoirSampler<int> res(5, &rng);
  for (int i = 0; i < 300; ++i) res.Offer(7);
  EXPECT_EQ(res.items().size(), 5u);
  for (int kept : res.items()) EXPECT_EQ(kept, 7);
}

TEST(ReservoirTest, SeedStability) {
  auto draw = [](uint64_t seed) {
    Rng rng(seed);
    ReservoirSampler<int> res(10, &rng);
    for (int i = 0; i < 500; ++i) res.Offer(i);
    return res.items();
  };
  EXPECT_EQ(draw(23), draw(23));
  EXPECT_NE(draw(23), draw(24));
}

TEST(ReservoirTest, InclusionProbabilityIsUniform) {
  // Each of 50 stream items should be retained w.p. 10/50.
  constexpr int kTrials = 20000;
  std::vector<int> counts(50, 0);
  Rng rng(3);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> res(10, &rng);
    for (int i = 0; i < 50; ++i) res.Offer(i);
    for (int kept : res.items()) ++counts[kept];
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(counts[i], kTrials / 5, kTrials / 50)
        << "position " << i;
  }
}

// ----------------------------------------------------------- skipping

/// What a reservoir run leaves behind: its items, its count, and the
/// next draw of the RNG it shared.
struct ReservoirEnd {
  std::vector<uint64_t> items;
  uint64_t seen = 0;
  uint64_t next_draw = 0;
  uint64_t skipped = 0;
};

/// Feeds positions [lo, hi) to `res`: all through `Offer`, or, when
/// `skip_aware`, through `SkipNext` wherever `NextIsKept()` is false.
uint64_t Feed(ReservoirSampler<uint64_t>* res, uint64_t lo, uint64_t hi,
              bool skip_aware) {
  uint64_t skipped = 0;
  for (uint64_t i = lo; i < hi; ++i) {
    if (skip_aware && !res->NextIsKept()) {
      res->SkipNext();
      ++skipped;
    } else {
      res->Offer(i);
    }
  }
  return skipped;
}

/// One stream of `n` positions fed to one reservoir.
ReservoirEnd RunReservoir(size_t capacity, uint64_t n, bool skip_aware,
                          uint64_t seed) {
  Rng rng(seed);
  ReservoirSampler<uint64_t> res(capacity, &rng);
  ReservoirEnd end;
  end.skipped = Feed(&res, 0, n, skip_aware);
  end.items = res.items();
  end.seen = res.seen();
  end.next_draw = rng.Next();
  return end;
}

// Skipping the items the reservoir would drop must leave it — and its
// RNG — exactly where offering every item does.
TEST(ReservoirSkipTest, SkipNextEqualsOfferingEveryItem) {
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{8}, size_t{1740}}) {
    for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{5}, uint64_t{100},
                       uint64_t{2000}, uint64_t{100000}}) {
      for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " n "
                                          << n << " seed " << seed);
        ReservoirEnd offered = RunReservoir(capacity, n, false, seed);
        ReservoirEnd skipped = RunReservoir(capacity, n, true, seed);
        EXPECT_EQ(skipped.items, offered.items);
        EXPECT_EQ(skipped.seen, offered.seen);
        EXPECT_EQ(skipped.seen, n);
        EXPECT_EQ(skipped.next_draw, offered.next_draw);
        // Long past the fill, most items are skipped.
        if (n >= 20 * capacity) {
          EXPECT_GT(skipped.skipped, n / 2);
        }
      }
    }
  }
}

TEST(ReservoirSkipTest, NextIsKeptWhileFillingAndDrawsNothing) {
  Rng rng(9);
  Rng twin(9);
  ReservoirSampler<int> res(3, &rng);
  ReservoirSampler<int> plain(3, &twin);
  for (int i = 0; i < 50; ++i) {
    if (i < 3) {
      EXPECT_TRUE(res.NextIsKept()) << i;
    }
    for (int probe = 0; probe < 4; ++probe) res.NextIsKept();
    res.Offer(i);
    plain.Offer(i);
  }
  EXPECT_EQ(res.items(), plain.items());
  EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(ReservoirSkipDeathTest, SkipNextOnAKeptItemDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "QIKEY_DCHECK is compiled out in release builds";
#else
  Rng rng(4);
  ReservoirSampler<int> res(2, &rng);
  ASSERT_TRUE(res.NextIsKept());
  EXPECT_DEATH(res.SkipNext(), "SkipNext on an item Offer would keep");
#endif
}

// ----------------------------------------------------------- pair reservoir

TEST(PairReservoirTest, SlotsHoldDistinctPositions) {
  Rng rng(4);
  PairReservoir res(20, &rng);
  for (int i = 0; i < 500; ++i) res.Offer();
  for (const auto& [a, b] : res.pairs()) {
    EXPECT_NE(a, b);
    EXPECT_LT(a, 500u);
    EXPECT_LT(b, 500u);
  }
}

TEST(PairReservoirTest, TwoItemStreamBoundary) {
  // The smallest stream supporting pairs: every slot must hold {0, 1}.
  Rng rng(25);
  PairReservoir res(8, &rng);
  res.Offer();
  res.Offer();
  EXPECT_EQ(res.seen(), 2u);
  for (auto [a, b] : res.pairs()) {
    if (a > b) std::swap(a, b);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
  }
}

TEST(PairReservoirTest, SeedStability) {
  auto draw = [](uint64_t seed) {
    Rng rng(seed);
    PairReservoir res(10, &rng);
    for (int i = 0; i < 400; ++i) res.Offer();
    return res.pairs();
  };
  EXPECT_EQ(draw(26), draw(26));
  EXPECT_NE(draw(26), draw(27));
}

TEST(PairReservoirTest, PairDistributionIsUniform) {
  // One slot over a 6-item stream: each of the 15 pairs w.p. 1/15.
  constexpr int kTrials = 30000;
  std::map<std::pair<uint64_t, uint64_t>, int> counts;
  Rng rng(5);
  for (int t = 0; t < kTrials; ++t) {
    PairReservoir res(1, &rng);
    for (int i = 0; i < 6; ++i) res.Offer();
    auto [a, b] = res.pairs()[0];
    if (a > b) std::swap(a, b);
    ++counts[{a, b}];
  }
  EXPECT_EQ(counts.size(), 15u);
  for (const auto& [pair, count] : counts) {
    EXPECT_NEAR(count, kTrials / 15, 250)
        << pair.first << "," << pair.second;
  }
}

// A payload no slot end references any more is reused by the next
// `Retain`: over 20000 rows, 50 slots never hold more than 100 payloads.
TEST(PairReservoirTest, RetainsOnlyLivePayloads) {
  Rng rng(11);
  constexpr size_t kSlots = 50;
  PairReservoir res(kSlots, &rng);
  size_t peak = 0;
  for (ValueCode i = 0; i < 20000; ++i) {
    if (res.Offer()) res.Retain({i, i + 1});
    peak = std::max(peak, res.retained());
  }
  EXPECT_LE(peak, 2 * kSlots);
  std::vector<std::pair<uint64_t, uint64_t>> pairs = res.pairs();
  std::vector<std::vector<ValueCode>> rows = std::move(res).TakeRows();
  ASSERT_EQ(rows.size(), 2 * kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(rows[2 * i][0], pairs[i].first) << i;
    EXPECT_EQ(rows[2 * i + 1][0], pairs[i].second) << i;
  }
}

// ------------------------------------------------------------- pair slots

/// A pair-slot table of `slots` slots over two string columns, with a
/// dictionary of its own (so merging re-encodes through a union).
Dataset RandomPairTable(size_t slots, const std::string& prefix, Rng* rng) {
  DatasetBuilder builder({"x", "y"});
  for (size_t i = 0; i < 2 * slots; ++i) {
    std::string x = prefix + std::to_string(rng->Uniform(5));
    std::string y = std::to_string(rng->Uniform(7));
    EXPECT_TRUE(builder.AddRow({x, y}).ok());
  }
  return std::move(builder).Finish();
}

// `MergePairSlots` is `MxPairFilter::MergeDisjoint`'s algebra run on the
// tables: the same merged rows, codes and dictionaries, and the same
// RNG consumption.
TEST(PairSlotsTest, MergeMatchesMxOracle) {
  for (uint64_t seen_a : {uint64_t{2}, uint64_t{3}, uint64_t{1000}}) {
    for (uint64_t seen_b : {uint64_t{2}, uint64_t{3}, uint64_t{1000}}) {
      for (size_t slots : {size_t{1}, size_t{64}, size_t{300}}) {
        SCOPED_TRACE(::testing::Message() << "seen " << seen_a << "+"
                                          << seen_b << " slots " << slots);
        Rng data_rng(seen_a * 7 + seen_b * 13 + slots);
        Dataset a = RandomPairTable(slots, "a", &data_rng);
        Dataset b = RandomPairTable(slots, "b", &data_rng);
        auto mx_a = MxPairFilter::FromMaterializedPairs(Dataset(a));
        auto mx_b = MxPairFilter::FromMaterializedPairs(Dataset(b));
        ASSERT_TRUE(mx_a.ok() && mx_b.ok());

        Rng mx_rng(slots + 5), rng(slots + 5);
        auto want =
            MxPairFilter::MergeDisjoint(*mx_a, seen_a, *mx_b, seen_b, &mx_rng);
        auto got = MergePairSlots(a, seen_a, b, seen_b, &rng);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const Dataset& table = *want->materialized();
        ASSERT_EQ(got->num_rows(), table.num_rows());
        ASSERT_EQ(got->num_rows(), 2 * slots);
        for (RowIndex i = 0; i < table.num_rows(); ++i) {
          ASSERT_EQ(got->FormatRow(i), table.FormatRow(i)) << "row " << i;
          for (AttributeIndex j = 0; j < 2; ++j) {
            ASSERT_EQ(got->code(i, j), table.code(i, j)) << i << "," << j;
          }
        }
        EXPECT_EQ(rng.Next(), mx_rng.Next());
      }
    }
  }
}

TEST(PairSlotsTest, MergeRejectsMismatchedTables) {
  Rng data_rng(3);
  Dataset a = RandomPairTable(4, "a", &data_rng);
  Dataset b = RandomPairTable(5, "b", &data_rng);
  Rng rng(1);
  EXPECT_FALSE(MergePairSlots(a, 10, b, 10, &rng).ok());  // slot counts
  EXPECT_FALSE(MergePairSlots(a, 1, a, 10, &rng).ok());   // seen < 2
  EXPECT_FALSE(MergePairSlots(a, 10, a, 10, nullptr).ok());
  Dataset odd = a.SelectRows({0, 1, 2});
  EXPECT_FALSE(MergePairSlots(odd, 10, odd, 10, &rng).ok());
  Dataset other = MakeUniformGridSample(2, 3, 8, &data_rng);  // other names
  EXPECT_FALSE(MergePairSlots(a, 10, other, 10, &rng).ok());
}

// ------------------------------------------------------------- builders

std::vector<std::vector<ValueCode>> DatasetRows(const Dataset& d) {
  std::vector<std::vector<ValueCode>> rows(d.num_rows());
  for (RowIndex r = 0; r < d.num_rows(); ++r) {
    for (AttributeIndex j = 0; j < d.num_attributes(); ++j) {
      rows[r].push_back(d.code(r, j));
    }
  }
  return rows;
}

std::vector<uint32_t> Cardinalities(const Dataset& d) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < d.num_attributes(); ++j) {
    out.push_back(d.column(static_cast<AttributeIndex>(j)).cardinality());
  }
  return out;
}

TEST(StreamBuilderTest, TupleFilterMatchesBatchSemantics) {
  Rng data_rng(6);
  Dataset d = MakeUniformGridSample(5, 3, 800, &data_rng);
  Rng rng(7);
  StreamingTupleFilterBuilder builder(d.schema(), Cardinalities(d), 100,
                                      &rng);
  for (const auto& row : DatasetRows(d)) {
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  EXPECT_EQ(builder.rows_seen(), 800u);
  auto filter = std::move(builder).Finish();
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter->sample_size(), 100u);
  // Keys of the data set are always accepted; the constant-free part of
  // the contract holds for any retained sample.
  AttributeSet all = AttributeSet::All(5);
  if (IsKey(d, all)) {
    EXPECT_EQ(filter->Query(all), FilterVerdict::kAccept);
  }
  // The empty set is maximally bad and must be rejected (any two
  // retained tuples witness it).
  EXPECT_EQ(filter->Query(AttributeSet(5)), FilterVerdict::kReject);
}

TEST(StreamBuilderTest, TupleFilterRejectsArityMismatch) {
  Rng rng(8);
  StreamingTupleFilterBuilder builder(Schema::Anonymous(3), {2, 2, 2}, 10,
                                      &rng);
  EXPECT_FALSE(builder.Offer({0, 1}).ok());
}

TEST(StreamBuilderTest, PairFilterMatchesBatchSemantics) {
  Rng data_rng(9);
  Dataset d = MakeUniformGridSample(4, 2, 600, &data_rng);
  Rng rng(10);
  StreamingPairFilterBuilder builder(d.schema(), Cardinalities(d), 300,
                                     &rng);
  for (const auto& row : DatasetRows(d)) {
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto filter = std::move(builder).Finish();
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter->sample_size(), 300u);
  EXPECT_EQ(filter->Query(AttributeSet(4)), FilterVerdict::kReject);
  // Singleton {0} on a binary grid separates only half the pairs: with
  // 300 retained pairs the filter misses with prob 2^-300.
  EXPECT_EQ(filter->Query(AttributeSet::FromIndices(4, {0})),
            FilterVerdict::kReject);
}

TEST(StreamBuilderTest, PairFilterStoresOnlyLivePayloads) {
  Rng rng(11);
  constexpr uint64_t kSlots = 50;
  StreamingPairFilterBuilder builder(Schema::Anonymous(2), {4, 4}, kSlots,
                                     &rng);
  Rng data_rng(12);
  for (int i = 0; i < 20000; ++i) {
    std::vector<ValueCode> row{
        static_cast<ValueCode>(data_rng.Uniform(4)),
        static_cast<ValueCode>(data_rng.Uniform(4))};
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto table = std::move(builder).FinishPairTable();
  ASSERT_TRUE(table.ok());
  // Exactly 2 rows per slot survive the stream.
  EXPECT_EQ(table->num_rows(), 2 * kSlots);
  EXPECT_EQ(table->num_attributes(), 2u);
}

TEST(StreamBuilderTest, SketchBuilderTracksExactGamma) {
  Rng data_rng(14);
  Dataset d = MakeUniformGridSample(4, 4, 3000, &data_rng);
  Rng rng(15);
  // 8000 retained pairs; singleton Γ ≈ C(n,2)/4 is dense.
  StreamingSketchBuilder builder(d.schema(), Cardinalities(d), 8000,
                                 /*small_cutoff=*/10, &rng);
  for (const auto& row : DatasetRows(d)) {
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto sketch = std::move(builder).Finish();
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->sample_size(), 8000u);
  EXPECT_EQ(sketch->total_pairs(), PairCount(3000));
  for (AttributeIndex a = 0; a < 4; ++a) {
    AttributeSet attrs = AttributeSet::FromIndices(4, {a});
    uint64_t truth = ExactUnseparatedPairs(d, attrs);
    NonSeparationEstimate est = sketch->Estimate(attrs);
    ASSERT_FALSE(est.small);
    EXPECT_NEAR(est.estimate, static_cast<double>(truth),
                0.15 * static_cast<double>(truth))
        << "attribute " << a;
  }
  // Serialization works for streamed sketches too.
  auto back = NonSeparationSketch::Deserialize(sketch->Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Estimate(AttributeSet(4)).hits, 8000u);
}

TEST(StreamBuilderTest, DuplicateRowsForceRejection) {
  // A window smaller than a duplicate-only stream still retains enough
  // copies that even the full attribute set is rejected: no key exists.
  Rng rng(30);
  StreamingTupleFilterBuilder builder(Schema::Anonymous(2), {3, 3}, 6, &rng);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(builder.Offer({1, 2}).ok());
  }
  auto filter = std::move(builder).Finish();
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(filter->sample_size(), 6u);
  EXPECT_EQ(filter->Query(AttributeSet::All(2)), FilterVerdict::kReject);
}

TEST(StreamBuilderTest, ReservoirPipelineDeterministicAcrossThreadCounts) {
  // Same seed -> same retained sample -> identical discovery results
  // through RunOnReservoir at any thread count (the "seed stability
  // across thread counts" contract for the streaming entry).
  Rng data_rng(31);
  Dataset d = MakeUniformGridSample(6, 4, 2000, &data_rng);
  auto draw_sample = [&](uint64_t seed) {
    Rng rng(seed);
    StreamingTupleFilterBuilder builder(d.schema(), Cardinalities(d), 150,
                                        &rng);
    for (const auto& row : DatasetRows(d)) {
      EXPECT_TRUE(builder.Offer(row).ok());
    }
    auto filter = std::move(builder).Finish();
    EXPECT_TRUE(filter.ok());
    return filter->sample();
  };
  Dataset sample_a = draw_sample(77);
  Dataset sample_b = draw_sample(77);
  ASSERT_EQ(sample_a.num_rows(), sample_b.num_rows());
  for (RowIndex i = 0; i < sample_a.num_rows(); ++i) {
    for (AttributeIndex j = 0; j < sample_a.num_attributes(); ++j) {
      ASSERT_EQ(sample_a.code(i, j), sample_b.code(i, j)) << i << "," << j;
    }
  }

  PipelineOptions serial_opts;
  serial_opts.eps = 0.01;
  serial_opts.num_threads = 1;
  auto serial = DiscoveryPipeline(serial_opts).RunOnReservoir(sample_a, {});
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 5u}) {
    PipelineOptions par_opts = serial_opts;
    par_opts.num_threads = threads;
    auto parallel =
        DiscoveryPipeline(par_opts).RunOnReservoir(sample_a, {});
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->key, parallel->key) << threads;
    EXPECT_EQ(serial->covered_sample, parallel->covered_sample);
    EXPECT_EQ(serial->verdict, parallel->verdict);
  }
}

// Pinned constants, never re-derived: the digest of the table's rows in
// slot order, and the next draw of the RNG the builder consumed.
TEST(StreamDrawPinTest, PairFilterBuilderTable) {
  Rng data_rng(71);
  Dataset d = MakeUniformGridSample(6, 5, 3000, &data_rng);
  Rng rng(72);
  StreamingPairFilterBuilder builder(d.schema(), Cardinalities(d), 200, &rng);
  for (const auto& row : DatasetRows(d)) {
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto table = std::move(builder).FinishPairTable();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 400u);
  EXPECT_EQ(RowsDigest(*table), 0x9c743c68beda5933ull);
  EXPECT_EQ(rng.Next(), 0x1fbe6b238f3cb227ull);
}

TEST(StreamDrawPinTest, TupleFilterBuilderSample) {
  Rng data_rng(73);
  Dataset d = MakeUniformGridSample(6, 5, 3000, &data_rng);
  Rng rng(74);
  StreamingTupleFilterBuilder builder(d.schema(), Cardinalities(d), 120,
                                      &rng);
  for (const auto& row : DatasetRows(d)) {
    ASSERT_TRUE(builder.Offer(row).ok());
  }
  auto filter = std::move(builder).Finish();
  ASSERT_TRUE(filter.ok());
  ASSERT_EQ(filter->sample_size(), 120u);
  EXPECT_EQ(RowsDigest(filter->sample()), 0x502e86ee8bec7297ull);
  EXPECT_EQ(rng.Next(), 0x698ed877f7a38fe5ull);
}

TEST(StreamBuilderTest, RejectsEmptyStream) {
  Rng rng(13);
  StreamingTupleFilterBuilder tb(Schema::Anonymous(1), {2}, 5, &rng);
  EXPECT_FALSE(std::move(tb).Finish().ok());
  StreamingPairFilterBuilder pb(Schema::Anonymous(1), {2}, 5, &rng);
  EXPECT_FALSE(std::move(pb).Finish().ok());
}

}  // namespace
}  // namespace qikey
