#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <tuple>

#include "qikey.h"
#include "snapfile/snapfile.h"

namespace qikey {
namespace {

/// Exhaustive ground-truth validation at small m: enumerate ALL 2^m
/// attribute subsets (or all lattice nodes) and compare the sampled /
/// greedy / pruned algorithms against complete search.

// --------------------------------------------------------------------------
// The "for all" guarantee of Theorem 1, checked literally: for every
// one of the 2^m subsets simultaneously, the filter must be correct
// (keys accepted, bad rejected); gray-zone subsets are free. We verify
// the empirical failure rate of the whole-universe event is small at
// the paper's sample size.
// --------------------------------------------------------------------------

class ForAllGuaranteeTest : public ::testing::TestWithParam<int> {};

TEST_P(ForAllGuaranteeTest, WholeUniverseCorrectWithHighProbability) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const uint32_t m = 6;
  const double eps = 0.02;
  Dataset d = MakeUniformGridSample(m, 6, 3000, &rng);

  // Precompute the exact class of every subset.
  const uint32_t universe = 1u << m;
  std::vector<SeparationClass> truth(universe);
  for (uint32_t mask = 0; mask < universe; ++mask) {
    AttributeSet a(m);
    for (uint32_t j = 0; j < m; ++j) {
      if (mask & (1u << j)) a.Add(j);
    }
    truth[mask] = Classify(d, a, eps);
  }

  int universe_failures = 0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    TupleSampleFilterOptions opts;
    opts.eps = eps;  // r = m/sqrt(eps) = 43
    auto f = TupleSampleFilter::Build(d, opts, &rng);
    ASSERT_TRUE(f.ok());
    bool all_correct = true;
    for (uint32_t mask = 0; mask < universe && all_correct; ++mask) {
      if (truth[mask] == SeparationClass::kIntermediate) continue;
      AttributeSet a(m);
      for (uint32_t j = 0; j < m; ++j) {
        if (mask & (1u << j)) a.Add(j);
      }
      FilterVerdict expected = truth[mask] == SeparationClass::kKey
                                   ? FilterVerdict::kAccept
                                   : FilterVerdict::kReject;
      all_correct = (f->Query(a) == expected);
    }
    universe_failures += all_correct ? 0 : 1;
  }
  // At r = m/sqrt(eps) with these margins the whole-universe failure
  // probability is far below 1/20; allow a single flake.
  EXPECT_LE(universe_failures, 1) << "seed " << GetParam();
}

// The pair paths — the bitset filter, and is-key answers served from a
// mapped QSNP1 file — are checked on a table that HAS keys, so both
// halves of the guarantee bite: a unique id column next to five
// uniform [6]-valued columns. Every set holding the id is a key (32 of
// the 64); sets of at most two grid columns leave a fraction u > eps
// of pairs unseparated (u ~ 6^-|A|, and 6^-2 ~ 0.028) and are bad (16);
// the rest are gray zone.

/// 3000 rows: id plus five uniform grid columns.
Dataset KeyedGridSample(Rng* rng) {
  Dataset grid = MakeUniformGridSample(5, 6, 3000, rng);
  std::vector<Column> columns;
  std::vector<ValueCode> id(grid.num_rows());
  std::iota(id.begin(), id.end(), ValueCode{0});
  columns.emplace_back(std::move(id));
  for (AttributeIndex j = 0; j < 5; ++j) columns.push_back(grid.column(j));
  return Dataset(Schema::Anonymous(6), std::move(columns));
}

AttributeSet SubsetOf(uint32_t m, uint32_t mask) {
  AttributeSet a(m);
  for (uint32_t j = 0; j < m; ++j) {
    if (mask & (1u << j)) a.Add(j);
  }
  return a;
}

/// Exact class of every subset, plus the union bound on one trial's
/// whole-universe failure for a pair filter of `s` uniform pairs: a bad
/// set slips through only if none of its unseparated pairs is sampled,
/// with probability (1-u)^s.
struct PairUniverse {
  std::vector<SeparationClass> truth;
  double trial_failure_bound = 0.0;
  int keys = 0;
  int bad = 0;
};

PairUniverse ClassifyUniverse(const Dataset& d, double eps, uint64_t s) {
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  PairUniverse out;
  out.truth.resize(size_t{1} << m);
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    AttributeSet a = SubsetOf(m, mask);
    out.truth[mask] = Classify(d, a, eps);
    if (out.truth[mask] == SeparationClass::kKey) ++out.keys;
    if (out.truth[mask] == SeparationClass::kBad) {
      ++out.bad;
      double u = static_cast<double>(ExactUnseparatedPairs(d, a)) /
                 static_cast<double>(d.num_pairs());
      out.trial_failure_bound += std::pow(1.0 - u, static_cast<double>(s));
    }
  }
  return out;
}

/// Runs `trials` independent draws of a pair path and checks every
/// key/bad subset at once per draw. `verdicts(t)` answers all 2^m
/// subsets (index = mask) for draw `t`. A key must be accepted in EVERY
/// draw (deterministic); a draw with a missed bad set counts as one
/// whole-universe failure, of which at most two are tolerated.
void ExpectPairPathGuarantee(
    const PairUniverse& universe, int trials,
    const std::function<std::vector<FilterVerdict>(int)>& verdicts) {
  // A correct filter fails this check only with >= 3 failed draws:
  // probability <= C(trials, 3) * bound^3. The per-draw bound is
  // ~2.1e-3 on these tables (the ten bad two-grid-column sets, each
  // missed w.p. ~(1 - 1/36)^300), so with 20 draws the check fails
  // spuriously w.p. ~1e-5.
  ASSERT_GE(universe.keys, 32);
  ASSERT_GE(universe.bad, 16);
  const double p = universe.trial_failure_bound;
  const double false_failure =
      trials * (trials - 1) * (trials - 2) / 6.0 * p * p * p;
  ASSERT_LT(false_failure, 1e-4) << "per-draw bound " << p;
  int universe_failures = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<FilterVerdict> got = verdicts(t);
    ASSERT_EQ(got.size(), universe.truth.size());
    bool all_bad_rejected = true;
    for (size_t mask = 0; mask < got.size(); ++mask) {
      if (universe.truth[mask] == SeparationClass::kKey) {
        EXPECT_EQ(got[mask], FilterVerdict::kAccept)
            << "key rejected: mask " << mask << " draw " << t;
      }
      if (universe.truth[mask] == SeparationClass::kBad &&
          got[mask] != FilterVerdict::kReject) {
        all_bad_rejected = false;
      }
    }
    universe_failures += all_bad_rejected ? 0 : 1;
  }
  EXPECT_LE(universe_failures, 2);
}

TEST_P(ForAllGuaranteeTest, BitsetFilterWholeUniverseCorrect) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const double eps = 0.02;
  Dataset d = KeyedGridSample(&rng);
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  // s = m/eps = 300 pairs.
  PairUniverse universe =
      ClassifyUniverse(d, eps, MxPairSampleSizePaper(m, eps));
  std::vector<AttributeSet> subsets;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    subsets.push_back(SubsetOf(m, mask));
  }
  ExpectPairPathGuarantee(universe, 20, [&](int) {
    BitsetFilterOptions opts;
    opts.eps = eps;
    auto f = BitsetSeparationFilter::Build(d, opts, &rng);
    EXPECT_TRUE(f.ok());
    return f->QueryBatch(subsets);
  });
}

TEST_P(ForAllGuaranteeTest, ServedIsKeyFromReloadedSnapshotFileCorrect) {
  // Every draw runs bitset discovery, saves the snapshot over the SAME
  // file the previous draw's published snapshot still maps, re-maps it
  // and publishes it (the `serve --snapshot-file` SIGHUP reload), then
  // answers all 64 is-key requests through the cached QueryEngine.
  // `SnapshotFromPipelineResult` reduces the run's evidence to its
  // minimal-mask antichain, so this is the served antichain's guarantee.
  Rng rng(static_cast<uint64_t>(GetParam()));
  const double eps = 0.02;
  Dataset d = KeyedGridSample(&rng);
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  PairUniverse universe =
      ClassifyUniverse(d, eps, MxPairSampleSizePaper(m, eps));
  std::vector<QueryRequest> requests;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = SubsetOf(m, mask);
    requests.push_back(std::move(request));
  }
  const std::string path = "/tmp/qikey_forall_" +
                           std::to_string(GetParam()) + "_" +
                           std::to_string(::getpid()) + ".qsnp";
  SnapshotStore store;
  QueryEngine engine(&store, QueryEngineOptions{});
  ExpectPairPathGuarantee(universe, 20, [&](int t) {
    PipelineOptions options;
    options.eps = eps;
    options.backend = FilterBackend::kBitset;
    auto run = DiscoveryPipeline(options).Run(d, &rng);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    auto built = SnapshotFromPipelineResult(*run, eps);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_TRUE(snapfile::WriteSnapshotFile(*built, path).ok());
    auto mapped = snapfile::ReadSnapshotFile(path);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto epoch = store.Publish(std::move(*mapped));
    EXPECT_TRUE(epoch.ok());
    EXPECT_EQ(*epoch, static_cast<uint64_t>(t) + 1);
    std::vector<FilterVerdict> verdicts;
    for (const QueryResponse& response : engine.ExecuteBatch(requests)) {
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      verdicts.push_back(response.verdict);
    }
    return verdicts;
  });
  std::remove(path.c_str());
}

// The filter `RunSharded` answers with: shards built over disjoint row
// ranges, folded by `FilterMerger`, and (bitset backend) the merged
// pair slots packed into evidence. Each draw takes fresh build and
// merge seeds from `rng`.
std::unique_ptr<SeparationFilter> MergedShardFilter(const Dataset& d,
                                                    FilterBackend backend,
                                                    double eps, size_t shards,
                                                    Rng* rng) {
  ShardedBuildOptions build;
  build.backend = backend;
  build.eps = eps;
  build.num_shards = shards;
  build.seed = rng->Next();
  auto artifacts = BuildShardArtifacts(d, build);
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  EXPECT_EQ(artifacts->size(), shards);
  FilterMerger::Options merge_options;
  merge_options.backend = backend;
  merge_options.tuple_sample_size = TupleSampleSizePaper(
      static_cast<uint32_t>(d.num_attributes()), eps);
  merge_options.seed = rng->Next();
  FilterMerger merger(merge_options);
  for (auto& artifact : *artifacts) {
    EXPECT_TRUE(merger.Add(std::move(artifact)).ok());
  }
  auto merged = std::move(merger).Finish();
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (backend == FilterBackend::kBitset) {
    auto packed =
        BitsetSeparationFilter::FromMaterializedPairs(merged->pair_table);
    EXPECT_TRUE(packed.ok()) << packed.status().ToString();
    return std::make_unique<BitsetSeparationFilter>(std::move(*packed));
  }
  return std::make_unique<TupleSampleFilter>(std::move(*merged->tuple_filter));
}

/// Checks the merged filter at 1, 2 and 8 shards. The bound the harness
/// gates on is the pair filter's; it also covers the tuple backend
/// here, whose r = 43 merged tuples always collide on a bad set of this
/// table (at most 6^2 = 36 distinct projections).
void ExpectShardedGuarantee(FilterBackend backend, uint64_t seed) {
  Rng rng(seed);
  const double eps = 0.02;
  Dataset d = KeyedGridSample(&rng);
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  PairUniverse universe =
      ClassifyUniverse(d, eps, MxPairSampleSizePaper(m, eps));
  std::vector<AttributeSet> subsets;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    subsets.push_back(SubsetOf(m, mask));
  }
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    ExpectPairPathGuarantee(universe, 20, [&](int) {
      return MergedShardFilter(d, backend, eps, shards, &rng)
          ->QueryBatch(subsets);
    });
  }
}

TEST_P(ForAllGuaranteeTest, ShardedBitsetMergeWholeUniverseCorrect) {
  ExpectShardedGuarantee(FilterBackend::kBitset,
                         static_cast<uint64_t>(GetParam()));
}

TEST_P(ForAllGuaranteeTest, ShardedTupleMergeWholeUniverseCorrect) {
  ExpectShardedGuarantee(FilterBackend::kTupleSample,
                         static_cast<uint64_t>(GetParam()));
}

// The filter `RunSharded(csv)` answers with under a memory budget: one
// streaming shard builder reads the table back from a CSV file and keeps
// only the rows its reservoirs sample. Each draw takes a fresh run seed
// from `rng`. As in the merged cases, the pair filter's bound also covers
// the tuple backend.
void ExpectBudgetGuarantee(FilterBackend backend, uint64_t seed) {
  Rng rng(seed);
  const double eps = 0.02;
  Dataset d = KeyedGridSample(&rng);
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  PairUniverse universe =
      ClassifyUniverse(d, eps, MxPairSampleSizePaper(m, eps));
  std::vector<AttributeSet> subsets;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    subsets.push_back(SubsetOf(m, mask));
  }
  const std::string path = ::testing::TempDir() + "qikey_forall_budget_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(SaveCsvDataset(d, path).ok());
  PipelineOptions options;
  options.eps = eps;
  options.backend = backend;
  ShardedRunOptions sharded;
  sharded.memory_budget_bytes = 8 << 20;
  ExpectPairPathGuarantee(universe, 20, [&](int) {
    auto run = DiscoveryPipeline(options).RunSharded(path, sharded,
                                                     rng.Next());
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->rows, d.num_rows());
    return run->filter->QueryBatch(subsets);
  });
  std::remove(path.c_str());
}

TEST_P(ForAllGuaranteeTest, MemoryBudgetBitsetWholeUniverseCorrect) {
  ExpectBudgetGuarantee(FilterBackend::kBitset,
                        static_cast<uint64_t>(GetParam()));
}

TEST_P(ForAllGuaranteeTest, MemoryBudgetTupleWholeUniverseCorrect) {
  ExpectBudgetGuarantee(FilterBackend::kTupleSample,
                        static_cast<uint64_t>(GetParam()));
}

// The filter `KeyMonitor` answers from: an `IncrementalFilter` whose
// window slid over the table. Rows [0, 600) go in, then each of rows
// [600, 1000) is inserted as row i - 600 is erased, so every draw ends
// on rows [400, 1000) after 400 erases, which drop sampled tuples and
// pair-slot ends along the way. The universe is classified on that
// final window; as in the sharded cases, the pair filter's bound also
// covers the tuple backend.
void ExpectSlidingMonitorGuarantee(FilterBackend backend, uint64_t seed) {
  Rng rng(seed);
  const double eps = 0.02;
  Dataset d = KeyedGridSample(&rng);
  const RowIndex width = 600, total = 1000;
  std::vector<RowIndex> window_rows(width);
  std::iota(window_rows.begin(), window_rows.end(), total - width);
  Dataset window = d.SelectRows(window_rows);
  const uint32_t m = static_cast<uint32_t>(d.num_attributes());
  PairUniverse universe =
      ClassifyUniverse(window, eps, MxPairSampleSizePaper(m, eps));
  std::vector<AttributeSet> subsets;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    subsets.push_back(SubsetOf(m, mask));
  }
  auto row_of = [&](RowIndex i) {
    std::vector<ValueCode> row(m);
    for (AttributeIndex j = 0; j < m; ++j) row[j] = d.code(i, j);
    return row;
  };
  ExpectPairPathGuarantee(universe, 20, [&](int) {
    IncrementalFilterOptions options;
    options.eps = eps;
    options.backend = backend;
    auto filter = IncrementalFilter::Make(d.schema(), options, rng.Next());
    EXPECT_TRUE(filter.ok());
    for (RowIndex i = 0; i < total; ++i) {
      EXPECT_TRUE(filter->Insert(row_of(i)).ok());
      if (i >= width) {
        EXPECT_TRUE(filter->Erase(row_of(i - width)).ok());
      }
    }
    EXPECT_EQ(filter->window_size(), width);
    return filter->QueryBatch(subsets);
  });
}

TEST_P(ForAllGuaranteeTest, SlidingMonitorBitsetWholeUniverseCorrect) {
  ExpectSlidingMonitorGuarantee(FilterBackend::kBitset,
                                static_cast<uint64_t>(GetParam()));
}

TEST_P(ForAllGuaranteeTest, SlidingMonitorTupleWholeUniverseCorrect) {
  ExpectSlidingMonitorGuarantee(FilterBackend::kTupleSample,
                                static_cast<uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForAllGuaranteeTest,
                         ::testing::Range(100, 106));

// --------------------------------------------------------------------------
// Minimal-key enumeration vs complete search.
// --------------------------------------------------------------------------

class EnumerationExhaustiveTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EnumerationExhaustiveTest, MatchesCompleteSubsetSearch) {
  auto [seed, eps] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const uint32_t m = 7;
  Dataset d = MakeUniformGridSample(m, 3, 250, &rng);
  const double budget = eps * static_cast<double>(d.num_pairs());

  KeyEnumerationOptions opts;
  opts.eps = eps;
  opts.max_size = m;
  auto enumerated = EnumerateMinimalKeys(d, opts);
  ASSERT_TRUE(enumerated.ok());

  // Complete search: all qualifying subsets, filtered to minimal ones.
  std::vector<AttributeSet> reference;
  for (uint32_t mask = 1; mask < (1u << m); ++mask) {
    AttributeSet a(m);
    for (uint32_t j = 0; j < m; ++j) {
      if (mask & (1u << j)) a.Add(j);
    }
    if (static_cast<double>(ExactUnseparatedPairs(d, a)) > budget) continue;
    bool minimal = true;
    for (AttributeIndex j : a.ToIndices()) {
      AttributeSet smaller = a;
      smaller.Remove(j);
      if (static_cast<double>(ExactUnseparatedPairs(d, smaller)) <=
          budget) {
        minimal = false;
        break;
      }
    }
    if (minimal) reference.push_back(std::move(a));
  }

  ASSERT_EQ(enumerated->size(), reference.size());
  for (const AttributeSet& key : reference) {
    EXPECT_NE(std::find(enumerated->begin(), enumerated->end(), key),
              enumerated->end())
        << "missing minimal key " << key.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumerationExhaustiveTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.0, 0.05, 0.3)));

// --------------------------------------------------------------------------
// Greedy masking vs the exact minimum masking set (complete search).
// --------------------------------------------------------------------------

class MaskingExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(MaskingExhaustiveTest, GreedyWithinOneOfOptimal) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const uint32_t m = 7;
  const double eps = 0.15;
  Dataset d = MakeUniformGridSample(m, 4, 300, &rng);
  const double max_separated =
      (1.0 - eps) * static_cast<double>(d.num_pairs());

  // Exact minimum: smallest mask whose complement separates few
  // enough pairs.
  uint32_t optimal = m + 1;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    AttributeSet remaining(m);
    for (uint32_t j = 0; j < m; ++j) {
      if (!(mask & (1u << j))) remaining.Add(j);
    }
    uint64_t separated =
        d.num_pairs() - ExactUnseparatedPairs(d, remaining);
    if (static_cast<double>(separated) <= max_separated) {
      optimal = std::min(optimal, static_cast<uint32_t>(
                                      std::popcount(mask)));
    }
  }
  ASSERT_LE(optimal, m);  // masking everything always qualifies

  MaskingResult greedy = GreedyMaskingExact(d, eps);
  ASSERT_TRUE(greedy.achieved);
  // Greedy attribute deletion has no constant-factor guarantee in
  // general, but at these sizes it stays within a small additive gap;
  // the postcondition (target met) is the hard requirement.
  EXPECT_LE(greedy.masked.size(), optimal + 2);
  EXPECT_GE(greedy.masked.size(), optimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskingExhaustiveTest,
                         ::testing::Range(10, 16));

// --------------------------------------------------------------------------
// Generalization lattice search vs complete lattice scan.
// --------------------------------------------------------------------------

class GeneralizationExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneralizationExhaustiveTest, FindsAGlobalMinimalNode) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  TabularSpec spec;
  spec.num_rows = 400;
  spec.attributes = {{"a", 16, 0.4, -1, 0.0},
                     {"b", 9, 0.6, -1, 0.0},
                     {"c", 8, 0.2, -1, 0.0}};
  Dataset d = MakeTabular(spec, &rng);
  std::vector<AttributeIndex> qi{0, 1, 2};
  std::vector<GeneralizationHierarchy> h{
      GeneralizationHierarchy::Intervals(16, 2),  // 5 levels
      GeneralizationHierarchy::Intervals(9, 3),   // 3 levels
      GeneralizationHierarchy::Intervals(8, 2)};  // 4 levels
  GeneralizationOptions opts;
  opts.k = 4;
  auto result = FindMinimalGeneralization(d, qi, h, opts);
  ASSERT_TRUE(result.ok());

  // Complete scan of the lattice for the minimum qualifying level sum.
  uint32_t best_sum = ~0u;
  for (uint32_t l0 = 0; l0 < h[0].levels(); ++l0) {
    for (uint32_t l1 = 0; l1 < h[1].levels(); ++l1) {
      for (uint32_t l2 = 0; l2 < h[2].levels(); ++l2) {
        auto g = ApplyGeneralization(d, qi, h, {l0, l1, l2});
        ASSERT_TRUE(g.ok());
        if (AnonymityLevel(*g, AttributeSet::FromIndices(3, qi)) >=
            opts.k) {
          best_sum = std::min(best_sum, l0 + l1 + l2);
        }
      }
    }
  }
  uint32_t found_sum = std::accumulate(result->levels.begin(),
                                       result->levels.end(), 0u);
  EXPECT_EQ(found_sum, best_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizationExhaustiveTest,
                         ::testing::Range(20, 25));

}  // namespace
}  // namespace qikey
