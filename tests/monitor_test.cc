#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "chi_square.h"
#include "core/key_enumeration.h"
#include "core/tuple_sample_filter.h"
#include "data/column.h"
#include "engine/pipeline.h"
#include "monitor/incremental_filter.h"
#include "monitor/key_monitor.h"
#include "util/rng.h"

namespace qikey {
namespace {

using Row = std::vector<ValueCode>;

/// Large enough that the tuple sample always covers the window, making
/// the monitor exact.
constexpr uint64_t kExact = 1u << 30;

Dataset RowsToDataset(size_t m, const std::vector<Row>& rows) {
  std::vector<Column> columns;
  for (size_t j = 0; j < m; ++j) {
    std::vector<ValueCode> codes;
    codes.reserve(rows.size());
    for (const Row& row : rows) codes.push_back(row[j]);
    columns.emplace_back(std::move(codes));
  }
  return Dataset(Schema::Anonymous(m), std::move(columns));
}

std::vector<AttributeSet> ExactMinimalKeys(size_t m,
                                           const std::vector<Row>& rows) {
  KeyEnumerationOptions opts;
  opts.eps = 0.0;
  opts.max_size = static_cast<uint32_t>(m);
  auto keys = EnumerateMinimalKeys(RowsToDataset(m, rows), opts);
  EXPECT_TRUE(keys.ok());
  std::vector<AttributeSet> sorted = std::move(keys).ValueOrDie();
  std::sort(sorted.begin(), sorted.end(), CanonicalAttributeSetLess);
  return sorted;
}

MonitorOptions ExactOptions(size_t m) {
  MonitorOptions options;
  options.eps = 0.01;
  options.sample_size = kExact;
  options.max_key_size = static_cast<uint32_t>(m);
  return options;
}

// --------------------------------------------------------- basic lifecycle

TEST(MonitorTest, EmptyWindowAcceptsEmptySet) {
  auto monitor = KeyMonitor::Make(Schema::Anonymous(3), ExactOptions(3), 1);
  ASSERT_TRUE(monitor.ok());
  auto snap = (*monitor)->Snapshot();
  ASSERT_EQ(snap->minimal_keys().size(), 1u);
  EXPECT_TRUE(snap->minimal_keys()[0].empty());
  EXPECT_EQ(snap->epoch, 0u);

  // One row: still no pair to violate the empty set.
  ASSERT_TRUE((*monitor)->Insert({0, 1, 2}).ok());
  snap = (*monitor)->Snapshot();
  ASSERT_EQ(snap->minimal_keys().size(), 1u);
  EXPECT_TRUE(snap->minimal_keys()[0].empty());

  // A second, distinct row invalidates ∅ and bootstraps real keys.
  ASSERT_TRUE((*monitor)->Insert({0, 1, 0}).ok());
  snap = (*monitor)->Snapshot();
  ASSERT_FALSE(snap->minimal_keys().empty());
  for (const AttributeSet& key : snap->minimal_keys()) {
    EXPECT_FALSE(key.empty());
  }
  EXPECT_EQ(snap->epoch, 2u);
  EXPECT_EQ(snap->window_rows, 2u);
}

TEST(MonitorTest, RejectsBadArgumentsAndMissingRows) {
  auto monitor = KeyMonitor::Make(Schema::Anonymous(3), ExactOptions(3), 1);
  ASSERT_TRUE(monitor.ok());
  EXPECT_FALSE((*monitor)->Insert({0, 1}).ok());  // arity
  EXPECT_EQ((*monitor)->Erase({9, 9, 9}).code(), StatusCode::kNotFound);
  MonitorOptions bad = ExactOptions(3);
  bad.eps = 0.0;
  EXPECT_FALSE(KeyMonitor::Make(Schema::Anonymous(3), bad, 1).ok());
  EXPECT_FALSE(KeyMonitor::Make(Schema(), ExactOptions(3), 1).ok());
}

// --------------------------------------- equivalence with batch discovery

// The acceptance property: after ANY interleaving of inserts and
// erases, the monitor's snapshot reports exactly the minimal keys a
// from-scratch enumeration (and the discovery pipeline) finds on the
// final window.
TEST(MonitorTest, ExactModeMatchesEnumerationUnderRandomUpdates) {
  constexpr size_t kAttributes = 5;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    auto monitor = KeyMonitor::Make(Schema::Anonymous(kAttributes),
                                    ExactOptions(kAttributes), seed);
    ASSERT_TRUE(monitor.ok());
    Rng rng(seed * 1000 + 7);
    std::vector<Row> reference;
    for (int step = 0; step < 180; ++step) {
      bool insert = reference.size() < 3 || rng.Bernoulli(0.62);
      if (insert) {
        Row row(kAttributes);
        for (size_t j = 0; j < kAttributes; ++j) {
          row[j] = static_cast<ValueCode>(rng.Uniform(3));
        }
        ASSERT_TRUE((*monitor)->Insert(row).ok());
        reference.push_back(std::move(row));
      } else {
        size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
        ASSERT_TRUE((*monitor)->Erase(reference[victim]).ok());
        reference.erase(reference.begin() + victim);
      }
      if (reference.size() < 2) continue;
      auto snap = (*monitor)->Snapshot();
      std::vector<AttributeSet> expected =
          ExactMinimalKeys(kAttributes, reference);
      ASSERT_EQ(snap->minimal_keys(), expected)
          << "seed " << seed << " step " << step << " rows "
          << reference.size();
    }
  }
}

TEST(MonitorTest, MatchesFromScratchPipelineAfterInterleaving) {
  constexpr size_t kAttributes = 6;
  auto monitor = KeyMonitor::Make(Schema::Anonymous(kAttributes),
                                  ExactOptions(kAttributes), 3);
  ASSERT_TRUE(monitor.ok());
  Rng rng(99);
  std::vector<Row> reference;
  for (int step = 0; step < 400; ++step) {
    bool insert = reference.size() < 10 || rng.Bernoulli(0.7);
    if (insert) {
      // Column 0 and 1 jointly near-unique so exact keys exist w.h.p.
      Row row{static_cast<ValueCode>(rng.Uniform(40)),
              static_cast<ValueCode>(rng.Uniform(40)),
              static_cast<ValueCode>(rng.Uniform(3)),
              static_cast<ValueCode>(rng.Uniform(3)),
              static_cast<ValueCode>(rng.Uniform(2)),
              static_cast<ValueCode>(rng.Uniform(2))};
      ASSERT_TRUE((*monitor)->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE((*monitor)->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
  }
  ASSERT_GE(reference.size(), 2u);
  auto snap = (*monitor)->Snapshot();
  EXPECT_EQ(snap->minimal_keys(), ExactMinimalKeys(kAttributes, reference));

  // From-scratch pipeline on the final window, with a full-table sample
  // so its filter answers exactly: the emitted key must be one of the
  // monitor's minimal keys.
  Dataset final_data = RowsToDataset(kAttributes, reference);
  PipelineOptions popts;
  popts.eps = 0.01;
  popts.sample_size = final_data.num_rows();
  Rng prng(5);
  auto result = DiscoveryPipeline(popts).Run(final_data, &prng);
  ASSERT_TRUE(result.ok());
  if (result->covered_sample) {
    EXPECT_EQ(result->verdict, FilterVerdict::kAccept);
    EXPECT_TRUE(std::find(snap->minimal_keys().begin(),
                          snap->minimal_keys().end(),
                          result->key) != snap->minimal_keys().end())
        << result->key.ToString();
    EXPECT_TRUE(snap->CoversKey(result->key));
  }
}

TEST(MonitorTest, DeterministicAcrossThreadCounts) {
  constexpr size_t kAttributes = 5;
  auto run = [&](size_t threads) {
    MonitorOptions options = ExactOptions(kAttributes);
    options.num_threads = threads;
    auto monitor =
        KeyMonitor::Make(Schema::Anonymous(kAttributes), options, 17);
    EXPECT_TRUE(monitor.ok());
    Rng rng(31);
    std::vector<Row> reference;
    for (int step = 0; step < 150; ++step) {
      if (reference.size() < 3 || rng.Bernoulli(0.6)) {
        Row row(kAttributes);
        for (size_t j = 0; j < kAttributes; ++j) {
          row[j] = static_cast<ValueCode>(rng.Uniform(3));
        }
        EXPECT_TRUE((*monitor)->Insert(row).ok());
        reference.push_back(std::move(row));
      } else {
        size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
        EXPECT_TRUE((*monitor)->Erase(reference[victim]).ok());
        reference.erase(reference.begin() + victim);
      }
    }
    return std::move(*monitor);
  };
  auto serial = run(1);
  for (size_t threads : {2u, 4u}) {
    auto parallel = run(threads);
    EXPECT_EQ(serial->Snapshot()->minimal_keys(),
              parallel->Snapshot()->minimal_keys())
        << threads;
    ASSERT_EQ(serial->events().size(), parallel->events().size()) << threads;
    for (size_t i = 0; i < serial->events().size(); ++i) {
      EXPECT_EQ(serial->events()[i].epoch, parallel->events()[i].epoch);
      EXPECT_EQ(serial->events()[i].kind, parallel->events()[i].kind);
      EXPECT_EQ(serial->events()[i].key, parallel->events()[i].key);
    }
    EXPECT_EQ(serial->repaired_updates(), parallel->repaired_updates());
    EXPECT_EQ(serial->rebuilds(), parallel->rebuilds());
  }
}

// ------------------------------------------------------------- key churn

TEST(MonitorTest, EraseRevealsSmallerKeysAndReportsChurn) {
  auto monitor = KeyMonitor::Make(Schema::Anonymous(2), ExactOptions(2), 1);
  ASSERT_TRUE(monitor.ok());
  for (const Row& row :
       {Row{0, 0}, Row{0, 1}, Row{1, 0}, Row{1, 1}}) {
    ASSERT_TRUE((*monitor)->Insert(row).ok());
  }
  // {a0} misses (0,0)/(0,1); {a1} misses (0,0)/(1,0): only {a0,a1}.
  auto snap = (*monitor)->Snapshot();
  ASSERT_EQ(snap->minimal_keys().size(), 1u);
  EXPECT_EQ(snap->minimal_keys()[0], AttributeSet::FromIndices(2, {0, 1}));

  ASSERT_TRUE((*monitor)->Erase({0, 1}).ok());
  ASSERT_TRUE((*monitor)->Erase({1, 0}).ok());
  // Remaining rows (0,0) and (1,1) disagree everywhere: both singletons
  // are now minimal keys, discovered via the freed agree-set regions.
  snap = (*monitor)->Snapshot();
  std::vector<AttributeSet> expected{AttributeSet::FromIndices(2, {0}),
                                     AttributeSet::FromIndices(2, {1})};
  EXPECT_EQ(snap->minimal_keys(), expected);
  EXPECT_EQ(snap->primary_key(), expected[0]);

  bool saw_added_singleton = false;
  bool saw_removed_pair = false;
  for (const KeyEvent& event : (*monitor)->events()) {
    if (event.kind == KeyEventKind::kAdded && event.key == expected[0]) {
      saw_added_singleton = true;
    }
    if (event.kind == KeyEventKind::kRemoved &&
        event.key == AttributeSet::FromIndices(2, {0, 1})) {
      saw_removed_pair = true;
    }
  }
  EXPECT_TRUE(saw_added_singleton);
  EXPECT_TRUE(saw_removed_pair);
}

TEST(MonitorTest, SlidingWindowEvictsOldest) {
  MonitorOptions options = ExactOptions(2);
  options.window_capacity = 4;
  auto monitor = KeyMonitor::Make(Schema::Anonymous(2), options, 1);
  ASSERT_TRUE(monitor.ok());
  std::vector<Row> stream;
  Rng rng(8);
  for (int i = 0; i < 12; ++i) {
    Row row{static_cast<ValueCode>(rng.Uniform(4)),
            static_cast<ValueCode>(rng.Uniform(4))};
    stream.push_back(row);
    ASSERT_TRUE((*monitor)->Insert(row).ok());
  }
  auto snap = (*monitor)->Snapshot();
  EXPECT_EQ(snap->window_rows, 4u);
  std::vector<Row> last4(stream.end() - 4, stream.end());
  EXPECT_EQ(snap->minimal_keys(), ExactMinimalKeys(2, last4));
  EXPECT_EQ((*monitor)->Erase(last4[0]).code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------- sampled (inexact) modes

TEST(MonitorTest, SampledTupleModeSelfConsistent) {
  // With a genuine sub-window sample the frontier cannot be compared to
  // exact enumeration, but it must equal a from-scratch levelwise
  // enumeration against the monitor's OWN current sample — and most
  // updates must not have touched that sample at all.
  constexpr size_t kAttributes = 6;
  MonitorOptions options;
  options.eps = 0.01;
  options.sample_size = 40;
  options.max_key_size = 4;
  auto monitor =
      KeyMonitor::Make(Schema::Anonymous(kAttributes), options, 21);
  ASSERT_TRUE(monitor.ok());
  Rng rng(77);
  std::vector<Row> reference;
  for (int step = 0; step < 600; ++step) {
    if (reference.size() < 50 || rng.Bernoulli(0.8)) {
      Row row(kAttributes);
      for (size_t j = 0; j < kAttributes; ++j) {
        row[j] = static_cast<ValueCode>(rng.Uniform(5));
      }
      ASSERT_TRUE((*monitor)->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE((*monitor)->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
  }
  EXPECT_EQ((*monitor)->filter().sample_size(), 40u);
  EXPECT_GT((*monitor)->untouched_updates(), 300u);

  KeyEnumerationOptions enum_opts;
  enum_opts.max_size = options.max_key_size;
  auto expected = EnumerateMinimalAcceptedSets(
      (*monitor)->filter(), kAttributes, enum_opts);
  ASSERT_TRUE(expected.ok());
  std::sort(expected->begin(), expected->end(), CanonicalAttributeSetLess);
  EXPECT_EQ((*monitor)->Snapshot()->minimal_keys(), *expected);
}

TEST(MonitorTest, BitsetBackendSelfConsistent) {
  constexpr size_t kAttributes = 5;
  MonitorOptions options;
  options.eps = 0.05;
  options.backend = FilterBackend::kBitset;
  options.pair_sample_size = 60;
  options.max_key_size = 4;
  auto monitor =
      KeyMonitor::Make(Schema::Anonymous(kAttributes), options, 5);
  ASSERT_TRUE(monitor.ok());
  Rng rng(42);
  std::vector<Row> reference;
  for (int step = 0; step < 250; ++step) {
    if (reference.size() < 20 || rng.Bernoulli(0.75)) {
      Row row(kAttributes);
      for (size_t j = 0; j < kAttributes; ++j) {
        row[j] = static_cast<ValueCode>(rng.Uniform(4));
      }
      ASSERT_TRUE((*monitor)->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE((*monitor)->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
  }
  EXPECT_EQ((*monitor)->filter().sample_size(), 60u);

  KeyEnumerationOptions enum_opts;
  enum_opts.max_size = options.max_key_size;
  auto expected = EnumerateMinimalAcceptedSets(
      (*monitor)->filter(), kAttributes, enum_opts);
  ASSERT_TRUE(expected.ok());
  std::sort(expected->begin(), expected->end(), CanonicalAttributeSetLess);
  EXPECT_EQ((*monitor)->Snapshot()->minimal_keys(), *expected);
}

// ------------------------------------------------------ snapshot reading

TEST(MonitorTest, SnapshotsAreImmutableAndEpochMonotone) {
  auto monitor = KeyMonitor::Make(Schema::Anonymous(3), ExactOptions(3), 9);
  ASSERT_TRUE(monitor.ok());
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto snap = (*monitor)->Snapshot();
      if (snap->epoch < last_epoch) failed.store(true);
      last_epoch = snap->epoch;
      // Touch the keys: ASan flags any writer-side mutation of a
      // published snapshot.
      for (const AttributeSet& key : snap->minimal_keys()) {
        (void)key.size();
      }
    }
  });
  Rng rng(12);
  std::vector<Row> reference;
  for (int step = 0; step < 300; ++step) {
    if (reference.size() < 3 || rng.Bernoulli(0.7)) {
      Row row{static_cast<ValueCode>(rng.Uniform(3)),
              static_cast<ValueCode>(rng.Uniform(3)),
              static_cast<ValueCode>(rng.Uniform(3))};
      ASSERT_TRUE((*monitor)->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE((*monitor)->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ((*monitor)->Snapshot()->epoch, 300u);
}

// ------------------------------------------------------- pipeline entry

TEST(MonitorTest, RunIncrementalPrimesMonitorFromDataset) {
  Rng rng(10);
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({static_cast<ValueCode>(i % 25),
                    static_cast<ValueCode>(i / 25),
                    static_cast<ValueCode>(rng.Uniform(3)),
                    static_cast<ValueCode>(rng.Uniform(3))});
  }
  Dataset initial = RowsToDataset(4, rows);
  PipelineOptions options;
  options.eps = 0.01;
  options.sample_size = kExact;
  DiscoveryPipeline pipeline(options);
  auto monitor = pipeline.RunIncremental(initial, /*max_key_size=*/4,
                                         /*seed=*/123);
  ASSERT_TRUE(monitor.ok());
  auto snap = (*monitor)->Snapshot();
  EXPECT_EQ(snap->window_rows, 200u);
  EXPECT_EQ(snap->minimal_keys(), ExactMinimalKeys(4, rows));

  // The from-scratch pipeline's key on the same table (same exact
  // filter regime) is one of the monitor's minimal keys.
  Rng prng(55);
  auto result = pipeline.Run(initial, &prng);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->covered_sample);
  EXPECT_TRUE(snap->CoversKey(result->key));

  // And the monitor keeps serving under further updates.
  ASSERT_TRUE((*monitor)->Insert({0, 0, 0, 0}).ok());
  ASSERT_TRUE((*monitor)->Erase({0, 0, 0, 0}).ok());
  EXPECT_EQ((*monitor)->Snapshot()->minimal_keys(), ExactMinimalKeys(4, rows));
}

// ------------------------------------------------- incremental filter unit

TEST(IncrementalFilterTest, TupleSampleTracksTargetAcrossRegimes) {
  IncrementalFilterOptions options;
  options.sample_size = 10;
  auto filter = IncrementalFilter::Make(Schema::Anonymous(3), options, 7);
  ASSERT_TRUE(filter.ok());
  Rng rng(3);
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) {
    Row row{static_cast<ValueCode>(i), static_cast<ValueCode>(rng.Uniform(4)),
            static_cast<ValueCode>(rng.Uniform(4))};
    ASSERT_TRUE(filter->Insert(row).ok());
    rows.push_back(std::move(row));
  }
  EXPECT_EQ(filter->window_size(), 50u);
  EXPECT_EQ(filter->sample_size(), 10u);
  EXPECT_EQ(filter->WindowDataset().num_rows(), 50u);

  // Shrink below the target: the sample must track the whole window
  // again (exact regime).
  for (int i = 0; i < 45; ++i) {
    ASSERT_TRUE(filter->Erase(rows[i]).ok());
  }
  EXPECT_EQ(filter->window_size(), 5u);
  EXPECT_EQ(filter->sample_size(), 5u);

  EXPECT_EQ(filter->Erase({77, 77, 77}).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(filter->Insert({1, 2}).ok());
}

TEST(IncrementalFilterTest, ExactRegimeMatchesTupleSampleFilter) {
  IncrementalFilterOptions options;
  options.sample_size = kExact;
  auto filter = IncrementalFilter::Make(Schema::Anonymous(4), options, 11);
  ASSERT_TRUE(filter.ok());
  Rng rng(19);
  std::vector<Row> reference;
  for (int step = 0; step < 120; ++step) {
    if (reference.size() < 2 || rng.Bernoulli(0.7)) {
      Row row(4);
      for (size_t j = 0; j < 4; ++j) {
        row[j] = static_cast<ValueCode>(rng.Uniform(3));
      }
      ASSERT_TRUE(filter->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE(filter->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
  }
  TupleSampleFilter oracle = TupleSampleFilter::FromSample(
      filter->WindowDataset(), {}, DuplicateDetection::kSort);
  Rng qrng(4);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(AttributeSet::Random(4, 0.5, &qrng));
  }
  std::vector<FilterVerdict> batched = filter->QueryBatch(queries, nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(filter->Query(queries[i]), oracle.Query(queries[i])) << i;
    EXPECT_EQ(batched[i], filter->Query(queries[i])) << i;
  }
}

TEST(IncrementalFilterTest, ResampleRedrawsFromWindow) {
  IncrementalFilterOptions options;
  options.sample_size = 8;
  auto filter = IncrementalFilter::Make(Schema::Anonymous(2), options, 2);
  ASSERT_TRUE(filter.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        filter->Insert({static_cast<ValueCode>(i), 0}).ok());
  }
  filter->Resample();
  EXPECT_EQ(filter->sample_size(), 8u);
  // Column 1 is constant: any sample rejects {a1}; column 0 is unique:
  // any sample accepts {a0}.
  EXPECT_EQ(filter->Query(AttributeSet::FromIndices(2, {1})),
            FilterVerdict::kReject);
  EXPECT_EQ(filter->Query(AttributeSet::FromIndices(2, {0})),
            FilterVerdict::kAccept);
  EXPECT_TRUE(filter->QueryWitness(AttributeSet::FromIndices(2, {1}))
                  .has_value());
  EXPECT_GT(filter->MemoryBytes(), 0u);
}

TEST(IncrementalFilterTest, BitsetPairsStayWithinLiveWindow) {
  IncrementalFilterOptions options;
  options.backend = FilterBackend::kBitset;
  options.pair_sample_size = 30;
  auto filter = IncrementalFilter::Make(Schema::Anonymous(2), options, 6);
  ASSERT_TRUE(filter.ok());
  Rng rng(14);
  std::vector<Row> reference;
  for (int step = 0; step < 200; ++step) {
    if (reference.size() < 5 || rng.Bernoulli(0.6)) {
      Row row{static_cast<ValueCode>(rng.Uniform(6)),
              static_cast<ValueCode>(rng.Uniform(6))};
      ASSERT_TRUE(filter->Insert(row).ok());
      reference.push_back(std::move(row));
    } else {
      size_t victim = static_cast<size_t>(rng.Uniform(reference.size()));
      ASSERT_TRUE(filter->Erase(reference[victim]).ok());
      reference.erase(reference.begin() + victim);
    }
    // The empty set is rejected whenever a pair exists at all.
    if (reference.size() >= 2) {
      EXPECT_EQ(filter->sample_size(), 30u);
      EXPECT_EQ(filter->Query(AttributeSet(2)), FilterVerdict::kReject);
    }
  }
  // Erase everything: all constraints must drop, ∅ accepted again.
  for (const Row& row : reference) {
    ASSERT_TRUE(filter->Erase(row).ok());
  }
  EXPECT_EQ(filter->window_size(), 0u);
  EXPECT_EQ(filter->Query(AttributeSet(2)), FilterVerdict::kAccept);
}

// ------------------------------------- sample uniformity over the window

/// Slides a window of `width` one-attribute tuples over `total`
/// arrivals: arrival `t` (value `t`) is inserted, then arrival
/// `t - width` erased. The live window ends as `[total - width, total)`.
void SlideWindow(IncrementalFilter* filter, uint64_t width, uint64_t total) {
  for (uint64_t t = 0; t < total; ++t) {
    ASSERT_TRUE(filter->Insert({static_cast<ValueCode>(t)}).ok());
    if (t >= width) {
      ASSERT_TRUE(filter->Erase({static_cast<ValueCode>(t - width)}).ok());
    }
  }
}

// After the slide, the retained tuples are a uniform r-subset of the
// live window. r = 3 refills erased sample tuples by rejection draws,
// r = 5 by the scan over unsampled slots.
TEST(IncrementalFilterTest, TupleSampleUniformOverSlidingWindow) {
  const uint64_t width = 8, total = 20;  // C(8, r) = 56 subsets for both
  for (uint64_t r : {3u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "r " << r);
    IncrementalFilterOptions options;
    options.sample_size = r;
    std::map<std::vector<ValueCode>, uint64_t> freq;
    for (uint64_t seed = 0; seed < 5600; ++seed) {
      auto filter = IncrementalFilter::Make(Schema::Anonymous(1), options,
                                            seed);
      ASSERT_TRUE(filter.ok());
      SlideWindow(&*filter, width, total);
      std::vector<ValueCode> sampled;
      for (const Row& row : filter->SampledRows()) {
        ASSERT_GE(row[0], total - width);
        sampled.push_back(row[0]);
      }
      ASSERT_EQ(sampled.size(), r);
      std::sort(sampled.begin(), sampled.end());
      freq[sampled]++;
    }
    EXPECT_EQ(freq.size(), 56u);
    EXPECT_LT(ChiSquareStatistic(freq, 56), ChiSquareCritical(55));
  }
}

// After the slide, every pair slot holds a uniform pair of distinct
// live tuples.
TEST(IncrementalFilterTest, PairSlotsUniformOverSlidingWindow) {
  const uint64_t width = 6, total = 18;  // C(6, 2) = 15 pairs
  IncrementalFilterOptions options;
  options.backend = FilterBackend::kBitset;
  options.pair_sample_size = 4;
  std::map<std::pair<ValueCode, ValueCode>, uint64_t> freq;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    auto filter =
        IncrementalFilter::Make(Schema::Anonymous(1), options, seed);
    ASSERT_TRUE(filter.ok());
    SlideWindow(&*filter, width, total);
    std::vector<Row> rows = filter->SampledRows();
    ASSERT_EQ(rows.size(), 8u);
    for (size_t i = 0; i < rows.size(); i += 2) {
      ValueCode a = std::min(rows[i][0], rows[i + 1][0]);
      ValueCode b = std::max(rows[i][0], rows[i + 1][0]);
      ASSERT_LT(a, b) << "self-pair in slot " << i / 2;
      ASSERT_GE(a, total - width);
      freq[{a, b}]++;
    }
  }
  EXPECT_EQ(freq.size(), 15u);
  EXPECT_LT(ChiSquareStatistic(freq, 15), ChiSquareCritical(14));
}

}  // namespace
}  // namespace qikey
