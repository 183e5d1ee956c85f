// Differential property tests for the bit-packed separation backend:
// for randomized datasets x seeds x thread counts, the bitset filter
// must produce bit-identical Query/QueryBatch answers and witnesses to
// the value-comparing `MxPairFilter` oracle over the same sampled
// pairs. Through DiscoveryPipeline, RunSharded, and KeyMonitor
// insert/erase streams, it must reproduce the keys, verdicts,
// witnesses and sample sizes recorded from the retired mx-pair
// discovery backend for the same seeds — and agree with the
// tuple-sample backend wherever both are exact. The minimal-mask
// antichain served snapshots answer from must match a quadratic
// reference and reject exactly what the full evidence rejects.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bitset_filter.h"
#include "core/evidence_block.h"
#include "core/key_enumeration.h"
#include "core/mx_pair_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/column.h"
#include "data/generators/tabular.h"
#include "data/generators/uniform_grid.h"
#include "engine/pipeline.h"
#include "monitor/key_monitor.h"
#include "pin_to_one_cpu.h"
#include "shard/shard_artifact.h"
#include "shard/shard_builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qikey {
namespace {

using Row = std::vector<ValueCode>;
using RowPair = std::pair<RowIndex, RowIndex>;

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

Dataset AdultishTable(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = rows;
  return MakeTabular(spec, &rng);
}

// ------------------------------------------------------- packed evidence

TEST(PackedEvidenceTest, AlignedBufferIsCacheLineAlignedAndCopies) {
  AlignedWordBuffer buffer(130);
  ASSERT_EQ(buffer.size(), 130u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer.data()[i] = i * 0x9E3779B97F4A7C15ULL;
  }
  AlignedWordBuffer copy = buffer;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.data()) % 64, 0u);
  for (size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(copy.data()[i], buffer.data()[i]);
  }
  AlignedWordBuffer moved = std::move(copy);
  EXPECT_EQ(moved.size(), 130u);
  EXPECT_EQ(moved.data()[129], 129 * 0x9E3779B97F4A7C15ULL);
}

TEST(PackedEvidenceTest, HandDataSemanticsAndDedup) {
  std::vector<Row> rows = {{0, 0, 1}, {0, 0, 2}, {1, 2, 1}, {1, 2, 2}};
  Dataset d = RowsToDataset(3, rows);
  // All six pairs. Disagree masks: {c}, {a,b}, {a,b,c}, {a,b,c}, {a,b},
  // {c} — three distinct.
  std::vector<RowPair> pairs = {{0, 1}, {0, 2}, {0, 3},
                                {1, 2}, {1, 3}, {2, 3}};
  PackedEvidence ev = PackedEvidence::FromDatasetPairs(d, pairs);
  EXPECT_EQ(ev.source_pairs(), 6u);
  EXPECT_EQ(ev.num_pairs(), 3u);
  EXPECT_EQ(ev.words_per_pair(), 1u);

  // {c} separates pairs (0,1) and (2,3) but not (0,2): reject.
  AttributeSet c_only = AttributeSet::FromIndices(3, {2});
  EXPECT_TRUE(ev.FindUnseparated(c_only.words()).has_value());
  // {a,c} separates everything: accept.
  AttributeSet ac = AttributeSet::FromIndices(3, {0, 2});
  EXPECT_FALSE(ev.FindUnseparated(ac.words()).has_value());
  // The empty set separates nothing: any pair is a witness.
  AttributeSet none(3);
  EXPECT_TRUE(ev.FindUnseparated(none.words()).has_value());
  // The witness pair for the rejected {c} query genuinely agrees on c.
  auto rep = ev.representative(*ev.FindUnseparated(c_only.words()));
  EXPECT_TRUE(d.RowsAgreeOn(rep.first, rep.second, c_only.ToIndices()));
}

TEST(PackedEvidenceTest, NoPairsAcceptsEverything) {
  Dataset d = RowsToDataset(4, {{1, 2, 3, 4}, {5, 6, 7, 8}});
  PackedEvidence ev = PackedEvidence::FromDatasetPairs(d, {});
  EXPECT_EQ(ev.num_pairs(), 0u);
  AttributeSet none(4);
  EXPECT_FALSE(ev.FindUnseparated(none.words()).has_value());
}

TEST(PackedEvidenceTest, BlockMajorBatchMatchesPerMaskScan) {
  // > 64 pairs to cross a block boundary, 70 attributes to force two
  // mask words per pair.
  Rng rng(3);
  Dataset d = MakeUniformGridSample(70, 2, 500, &rng);
  std::vector<RowPair> pairs;
  for (int i = 0; i < 150; ++i) {
    auto [a, b] = rng.SamplePair(d.num_rows());
    pairs.emplace_back(static_cast<RowIndex>(a), static_cast<RowIndex>(b));
  }
  PackedEvidence ev = PackedEvidence::FromDatasetPairs(d, pairs);
  EXPECT_EQ(ev.words_per_pair(), 2u);
  ASSERT_GT(ev.num_blocks(), 1u);

  std::vector<AttributeSet> queries;
  Rng qrng(4);
  for (int i = 0; i < 200; ++i) {
    queries.push_back(AttributeSet::Random(70, 0.02 + 0.3 * (i % 7), &qrng));
  }
  std::vector<uint64_t> masks(queries.size() * 2);
  std::vector<uint8_t> rejected(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::span<const uint64_t> w = queries[i].words();
    std::copy(w.begin(), w.end(), masks.begin() + i * 2);
  }
  ev.TestMasksBlockMajor(masks.data(), 2, queries.size(), rejected.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(rejected[i] != 0,
              ev.FindUnseparated(queries[i].words()).has_value())
        << i;
  }
}

// ------------------------------------------ build bit-identity (oracle)

/// What `FromDatasetPairs` must produce, built the plain way: a
/// branchy column-major mask stage, `std::map` first-occurrence
/// dedupe, then the attribute-major block transpose.
struct ReferenceEvidence {
  std::vector<uint64_t> words;
  std::vector<uint32_t> reps;
  size_t num_pairs = 0;
};

ReferenceEvidence BuildReferenceEvidence(const Dataset& table,
                                         const std::vector<RowPair>& pairs) {
  const size_t m = table.num_attributes();
  const size_t wpp = (m + 63) / 64;
  std::vector<uint64_t> masks(pairs.size() * wpp, 0);
  for (size_t j = 0; j < m; ++j) {
    const Column& col = table.column(static_cast<AttributeIndex>(j));
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (col.code(pairs[p].first) != col.code(pairs[p].second)) {
        masks[p * wpp + j / 64] |= uint64_t{1} << (j % 64);
      }
    }
  }
  std::map<std::vector<uint64_t>, size_t> first;
  std::vector<size_t> kept;
  for (size_t p = 0; p < pairs.size(); ++p) {
    std::vector<uint64_t> mask(masks.begin() + p * wpp,
                               masks.begin() + (p + 1) * wpp);
    if (first.emplace(std::move(mask), p).second) kept.push_back(p);
  }
  ReferenceEvidence ref;
  ref.num_pairs = kept.size();
  const size_t blocks = (kept.size() + 63) / 64;
  ref.words.assign(blocks * m, 0);
  for (size_t i = 0; i < kept.size(); ++i) {
    const size_t p = kept[i];
    for (size_t j = 0; j < m; ++j) {
      if ((masks[p * wpp + j / 64] >> (j % 64)) & 1) {
        ref.words[(i / 64) * m + j] |= uint64_t{1} << (i % 64);
      }
    }
    ref.reps.push_back(pairs[p].first);
    ref.reps.push_back(pairs[p].second);
  }
  return ref;
}

/// `rows` x `m` table of codes below `cardinality`. With `prototypes`
/// > 0 every row copies one of that many random rows, so the sampled
/// pairs repeat a handful of disagree masks (long dedupe probe chains,
/// first-occurrence representatives); with 0 rows are independent and
/// wide masks are all distinct.
Dataset RandomCodeTable(size_t rows, size_t m, uint64_t cardinality,
                        size_t prototypes, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> pool(prototypes > 0 ? prototypes : rows, Row(m));
  for (Row& row : pool) {
    for (ValueCode& code : row) {
      code = static_cast<ValueCode>(rng.Uniform(cardinality));
    }
  }
  std::vector<Row> table(rows);
  for (size_t r = 0; r < rows; ++r) {
    table[r] = prototypes > 0 ? pool[rng.Uniform(prototypes)] : pool[r];
  }
  return RowsToDataset(m, table);
}

std::vector<RowPair> RandomPairs(size_t rows, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<RowPair> pairs;
  pairs.reserve(count);
  for (size_t p = 0; p < count; ++p) {
    auto [a, b] = rng.SamplePair(rows);
    pairs.emplace_back(static_cast<RowIndex>(a), static_cast<RowIndex>(b));
  }
  return pairs;
}

void ExpectMatchesReference(const Dataset& table,
                            const std::vector<RowPair>& pairs) {
  const ReferenceEvidence ref = BuildReferenceEvidence(table, pairs);
  const PackedEvidence ev = PackedEvidence::FromDatasetPairs(table, pairs);
  EXPECT_EQ(ev.source_pairs(), pairs.size());
  ASSERT_EQ(ev.num_pairs(), ref.num_pairs);
  const std::span<const uint64_t> words = ev.raw_words();
  const std::span<const uint32_t> reps = ev.raw_reps();
  EXPECT_TRUE(std::equal(words.begin(), words.end(), ref.words.begin(),
                         ref.words.end()));
  EXPECT_TRUE(
      std::equal(reps.begin(), reps.end(), ref.reps.begin(), ref.reps.end()));
}

// Pair counts straddle the one-block and one-worker (8192 pairs)
// edges and reach several workers; m covers one-, two- and three-word
// masks.
TEST(PackedEvidenceTest, BuildMatchesReferenceAcrossShapesAndWorkers) {
  const size_t kRows = 3000;
  for (size_t m : {1u, 55u, 64u, 65u, 130u}) {
    const Dataset distinct = RandomCodeTable(kRows, m, 3, 0, m);
    const Dataset dupes = RandomCodeTable(kRows, m, 2, 12, m + 1);
    for (size_t count : {0u, 1u, 63u, 64u, 65u, 8191u, 8192u, 3u * 8192 + 1,
                         55000u}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " pairs=" + std::to_string(count));
      const std::vector<RowPair> pairs = RandomPairs(kRows, count, count + m);
      {
        SCOPED_TRACE("distinct");
        ExpectMatchesReference(distinct, pairs);
      }
      {
        SCOPED_TRACE("duplicates");
        ExpectMatchesReference(dupes, pairs);
      }
    }
  }
}

// One CPU in the affinity mask means one mask-stage worker; the bytes
// must not change.
TEST(PackedEvidenceTest, BuildMatchesReferencePinnedToOneCpu) {
  const Dataset dupes = RandomCodeTable(3000, 65, 2, 12, 7);
  const Dataset distinct = RandomCodeTable(3000, 65, 3, 0, 8);
  const std::vector<RowPair> pairs = RandomPairs(3000, 55000, 9);
  const PackedEvidence unpinned =
      PackedEvidence::FromDatasetPairs(distinct, pairs);
  PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(UsableCpuCount(), 1u);
  ExpectMatchesReference(dupes, pairs);
  ExpectMatchesReference(distinct, pairs);
  const PackedEvidence pinned =
      PackedEvidence::FromDatasetPairs(distinct, pairs);
  EXPECT_TRUE(std::ranges::equal(pinned.raw_words(), unpinned.raw_words()));
  EXPECT_TRUE(std::ranges::equal(pinned.raw_reps(), unpinned.raw_reps()));
}

// ------------------------------------------------ kernel tiers (SIMD)

/// Restores automatic kernel dispatch when a test scope ends, so a
/// failing assertion cannot leak a pinned tier into later tests.
struct KernelGuard {
  ~KernelGuard() { (void)SetEvidenceKernel("auto"); }
};

/// The tiers this build and CPU can actually run; scalar (the oracle)
/// is always first.
std::vector<const char*> AvailableKernels() {
  std::vector<const char*> tiers = {"scalar"};
  if (SetEvidenceKernel("avx2").ok()) tiers.push_back("avx2");
  (void)SetEvidenceKernel("auto");
  return tiers;
}

/// Random lane-stable evidence: `pairs` pairs over `m` attributes with
/// mixed agree/disagree structure.
PackedEvidence MakeRandomEvidence(size_t m, size_t pairs, uint64_t seed,
                                  std::vector<std::vector<ValueCode>>* store) {
  Rng rng(seed);
  store->clear();
  store->reserve(2 * pairs);
  std::vector<std::pair<const ValueCode*, const ValueCode*>> rows;
  std::vector<std::pair<uint32_t, uint32_t>> ids;
  for (size_t p = 0; p < pairs; ++p) {
    std::vector<ValueCode> a(m), b(m);
    for (size_t j = 0; j < m; ++j) {
      a[j] = static_cast<ValueCode>(rng.Uniform(3));
      b[j] = static_cast<ValueCode>(rng.Uniform(3));
    }
    store->push_back(std::move(a));
    store->push_back(std::move(b));
    ids.emplace_back(static_cast<uint32_t>(p), static_cast<uint32_t>(p + 1));
  }
  for (size_t p = 0; p < pairs; ++p) {
    rows.emplace_back((*store)[2 * p].data(), (*store)[2 * p + 1].data());
  }
  return PackedEvidence::FromRowMajorPairs(m, rows, ids);
}

TEST(EvidenceKernelTest, DispatchNamesAndOverrides) {
  KernelGuard guard;
  EXPECT_STREQ(EvidenceKernelName(EvidenceKernel::kScalar), "scalar");
  EXPECT_STREQ(EvidenceKernelName(EvidenceKernel::kAvx2), "avx2");
  // The scalar oracle and auto detection are always available.
  ASSERT_TRUE(SetEvidenceKernel("scalar").ok());
  EXPECT_EQ(ActiveEvidenceKernel(), EvidenceKernel::kScalar);
  ASSERT_TRUE(SetEvidenceKernel("auto").ok());
  // AVX2 is the one vector tier: auto picks it on any CPU that has it,
  // AVX-512 CPUs included, unless QIKEY_FORCE_SCALAR pins the oracle.
  const char* force = std::getenv("QIKEY_FORCE_SCALAR");
  const bool forced = force != nullptr && force[0] != '\0' &&
                      std::string_view(force) != "0";
  const bool cpu_has_avx2 = SetEvidenceKernel("avx2").ok();
  ASSERT_TRUE(SetEvidenceKernel("auto").ok());
  EXPECT_STREQ(EvidenceKernelName(ActiveEvidenceKernel()),
               cpu_has_avx2 && !forced ? "avx2" : "scalar");
  // Unknown names, "avx512" among them, fail without changing dispatch.
  for (const char* tier : {"scalar", "auto"}) {
    ASSERT_TRUE(SetEvidenceKernel(tier).ok());
    const EvidenceKernel before = ActiveEvidenceKernel();
    for (const char* name : {"sse9", "avx512"}) {
      const Status st = SetEvidenceKernel(name);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << name;
      EXPECT_EQ(ActiveEvidenceKernel(), before) << name << " after " << tier;
    }
  }
}

TEST(EvidenceKernelTest, TiersBitIdenticalOnBlockAndWidthEdges) {
  KernelGuard guard;
  const std::vector<const char*> tiers = AvailableKernels();
  // m crosses the 1-word (40), 2-word (70), and many-word (600)
  // mask widths; pairs covers sub-block, exact-block, partial-last-
  // block, and multi-superblock shapes (the LiveLanes padding edge
  // and the 4-/8-block vector group remainders).
  for (size_t m : {40u, 70u, 600u}) {
    for (size_t pairs : {1u, 63u, 64u, 129u, 256u, 257u, 1000u}) {
      std::vector<std::vector<ValueCode>> store;
      PackedEvidence ev =
          MakeRandomEvidence(m, pairs, m * 10007 + pairs, &store);
      const size_t wpp = ev.words_per_pair();
      Rng qrng(m + pairs);
      const size_t count = 37;
      std::vector<uint64_t> masks(count * wpp, 0);
      for (size_t i = 0; i < count; ++i) {
        for (size_t j = 0; j < m; ++j) {
          if (qrng.Uniform(4) == 0) {
            masks[i * wpp + j / 64] |= uint64_t{1} << (j % 64);
          }
        }
      }
      // Mask 5 is empty (rejects immediately on any live block).
      std::fill(masks.begin() + 5 * wpp, masks.begin() + 6 * wpp, 0);

      std::vector<uint8_t> want_rejected;
      std::vector<std::optional<uint32_t>> want_first;
      for (const char* tier : tiers) {
        ASSERT_TRUE(SetEvidenceKernel(tier).ok());
        std::vector<uint8_t> rejected(count, 0);
        rejected[3] = 1;  // pre-seeded entries must be skipped
        ev.TestMasksBlockMajor(masks.data(), wpp, count, rejected.data());
        std::vector<std::optional<uint32_t>> first(count);
        for (size_t i = 0; i < count; ++i) {
          first[i] = ev.FindUnseparated(
              std::span<const uint64_t>(masks.data() + i * wpp, wpp));
        }
        if (std::string(tier) == "scalar") {
          want_rejected = std::move(rejected);
          want_first = std::move(first);
        } else {
          // Bit-identical to the oracle: same rejections AND the same
          // first-witness pair index.
          EXPECT_EQ(rejected, want_rejected)
              << tier << " m=" << m << " pairs=" << pairs;
          EXPECT_EQ(first, want_first)
              << tier << " m=" << m << " pairs=" << pairs;
        }
      }
    }
  }
}

TEST(EvidenceKernelTest, TiersAgreeOnDegenerateInputs) {
  KernelGuard guard;
  std::vector<std::vector<ValueCode>> store;
  PackedEvidence ev = MakeRandomEvidence(70, 100, 77, &store);
  PackedEvidence empty;
  for (const char* tier : AvailableKernels()) {
    ASSERT_TRUE(SetEvidenceKernel(tier).ok());
    // Empty candidate set: a no-op at every tier.
    ev.TestMasksBlockMajor(nullptr, 2, 0, nullptr);
    // All candidates pre-rejected: nothing is touched.
    std::vector<uint64_t> masks(2, ~uint64_t{0});
    std::vector<uint8_t> rejected = {1};
    ev.TestMasksBlockMajor(masks.data(), 2, 1, rejected.data());
    EXPECT_EQ(rejected[0], 1) << tier;
    // Evidence with no pairs accepts everything.
    EXPECT_FALSE(empty.FindUnseparated(std::span<const uint64_t>())
                     .has_value())
        << tier;
  }
}

TEST(PackedEvidenceTest, MemoryBytesCountsOwnedBytesOnly) {
  std::vector<std::vector<ValueCode>> store;
  PackedEvidence owned = MakeRandomEvidence(70, 100, 5, &store);
  EXPECT_EQ(owned.BorrowedBytes(), 0u);
  EXPECT_EQ(owned.MemoryBytes(),
            owned.raw_words().size_bytes() + owned.raw_reps().size_bytes());

  auto borrowed = PackedEvidence::FromBorrowed(
      owned.num_attributes(), owned.source_pairs(), owned.num_pairs(),
      owned.raw_words().data(), owned.raw_words().size(),
      owned.raw_reps().data());
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  ASSERT_TRUE(borrowed->borrowed());
  // A borrowed instance owns nothing — its words and reps live in the
  // (notionally mmap-ed) donor storage, shared with the page cache.
  // Charging them as owned would double-count the snapshot image
  // against a process memory budget.
  EXPECT_EQ(borrowed->MemoryBytes(), 0u);
  EXPECT_EQ(borrowed->BorrowedBytes(),
            owned.raw_words().size_bytes() + owned.raw_reps().size_bytes());
}

TEST(EvidenceKernelTest, RandomizedFilterPropertyAcrossSeedsAndThreads) {
  KernelGuard guard;
  const std::vector<const char*> tiers = AvailableKernels();
  for (uint64_t seed : {11u, 29u}) {
    for (size_t m : {70u, 600u}) {
      Rng drng(seed * 1000 + m);
      Dataset d = MakeUniformGridSample(m, 2, 300, &drng);
      BitsetFilterOptions opts;
      opts.eps = 0.01;
      opts.sample_size = 500;
      Rng brng(seed);
      auto bs = BitsetSeparationFilter::Build(d, opts, &brng);
      ASSERT_TRUE(bs.ok());

      Rng qrng(seed ^ 0x5EED);
      std::vector<AttributeSet> queries;
      for (int i = 0; i < 100; ++i) {
        queries.push_back(
            AttributeSet::Random(m, 0.02 + 0.5 * (i % 9) / 9.0, &qrng));
      }
      queries.push_back(AttributeSet(m));
      queries.push_back(AttributeSet::All(m));

      ASSERT_TRUE(SetEvidenceKernel("scalar").ok());
      const std::vector<FilterVerdict> want = bs->QueryBatch(queries, nullptr);
      std::vector<std::optional<std::pair<RowIndex, RowIndex>>> witnesses;
      for (const AttributeSet& q : queries) {
        witnesses.push_back(bs->QueryWitness(q));
      }
      for (const char* tier : tiers) {
        ASSERT_TRUE(SetEvidenceKernel(tier).ok());
        EXPECT_EQ(bs->QueryBatch(queries, nullptr), want) << tier;
        for (size_t threads : {3u, 8u}) {
          ThreadPool pool(threads);
          EXPECT_EQ(bs->QueryBatch(queries, &pool), want)
              << tier << " threads=" << threads;
        }
        // Witness reporting (first unseparated pair) is also tier-
        // independent, not just the verdict.
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(bs->QueryWitness(queries[i]), witnesses[i])
              << tier << " query " << i;
        }
      }
    }
  }
}

// ------------------------------------------------- minimal antichain

using Mask = std::vector<uint64_t>;  // words_per_pair words

/// Lane-stable evidence whose pair `p` has exactly disagree mask
/// `masks[p]` and representative `(p, p + 1000)`.
PackedEvidence EvidenceFromMasks(size_t m, const std::vector<Mask>& masks) {
  std::vector<Row> store;
  store.reserve(masks.size());
  for (const Mask& mask : masks) {
    Row row(m, 0);
    for (size_t j = 0; j < m; ++j) row[j] = (mask[j / 64] >> (j % 64)) & 1;
    store.push_back(std::move(row));
  }
  const Row zeros(m, 0);
  std::vector<std::pair<const ValueCode*, const ValueCode*>> rows;
  std::vector<std::pair<uint32_t, uint32_t>> ids;
  for (size_t p = 0; p < masks.size(); ++p) {
    rows.emplace_back(zeros.data(), store[p].data());
    ids.emplace_back(static_cast<uint32_t>(p), static_cast<uint32_t>(p + 1000));
  }
  return PackedEvidence::FromRowMajorPairs(m, rows, ids);
}

/// `count` random masks over `m` attributes, each bit set with
/// probability `density`; with `prototypes` > 0 every mask copies one
/// of that many random masks.
std::vector<Mask> RandomMasks(size_t m, size_t count, double density,
                              size_t prototypes, uint64_t seed) {
  Rng rng(seed);
  const size_t wpp = (m + 63) / 64;
  auto draw = [&] {
    Mask mask(wpp, 0);
    for (size_t j = 0; j < m; ++j) {
      if (rng.UniformDouble() < density) {
        mask[j / 64] |= uint64_t{1} << (j % 64);
      }
    }
    return mask;
  };
  std::vector<Mask> pool;
  for (size_t i = 0; i < prototypes; ++i) pool.push_back(draw());
  std::vector<Mask> masks;
  for (size_t p = 0; p < count; ++p) {
    masks.push_back(prototypes > 0 ? pool[rng.Uniform(prototypes)] : draw());
  }
  return masks;
}

/// The masks of `ev`'s lanes, read back from its block words.
std::vector<Mask> LaneMasks(const PackedEvidence& ev) {
  const size_t m = ev.num_attributes();
  std::vector<Mask> masks(ev.num_pairs(), Mask(ev.words_per_pair(), 0));
  const std::span<const uint64_t> words = ev.raw_words();
  for (size_t p = 0; p < ev.num_pairs(); ++p) {
    for (size_t j = 0; j < m; ++j) {
      if ((words[(p / 64) * m + j] >> (p % 64)) & 1) {
        masks[p][j / 64] |= uint64_t{1} << (j % 64);
      }
    }
  }
  return masks;
}

size_t MaskPopcount(const Mask& mask) {
  size_t count = 0;
  for (uint64_t w : mask) count += std::popcount(w);
  return count;
}

bool MaskIsSubset(const Mask& y, const Mask& x) {
  for (size_t w = 0; w < y.size(); ++w) {
    if ((y[w] & ~x[w]) != 0) return false;
  }
  return true;
}

/// The antichain the quadratic way: lanes stably sorted by popcount,
/// each kept unless an already kept mask is a subset of it (an equal
/// one included).
struct ReferenceAntichain {
  std::vector<Mask> masks;
  std::vector<std::pair<uint32_t, uint32_t>> reps;
};

ReferenceAntichain BuildReferenceAntichain(const PackedEvidence& ev) {
  const std::vector<Mask> masks = LaneMasks(ev);
  std::vector<size_t> order(masks.size());
  for (size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return MaskPopcount(masks[a]) < MaskPopcount(masks[b]);
  });
  ReferenceAntichain ref;
  for (size_t p : order) {
    auto is_subset = [&](const Mask& y) { return MaskIsSubset(y, masks[p]); };
    if (std::none_of(ref.masks.begin(), ref.masks.end(), is_subset)) {
      ref.masks.push_back(masks[p]);
      ref.reps.push_back(ev.representative(static_cast<uint32_t>(p)));
    }
  }
  return ref;
}

/// `ev`'s antichain equals the reference under every available tier,
/// and every tier builds the same bytes.
void ExpectAntichainMatchesReference(const PackedEvidence& ev) {
  KernelGuard guard;
  const ReferenceAntichain ref = BuildReferenceAntichain(ev);
  std::optional<PackedEvidence> first;
  for (const char* tier : AvailableKernels()) {
    SCOPED_TRACE(tier);
    ASSERT_TRUE(SetEvidenceKernel(tier).ok());
    PackedEvidence anti = ev.MinimalAntichain();
    EXPECT_FALSE(anti.borrowed());
    EXPECT_EQ(anti.num_attributes(), ev.num_attributes());
    EXPECT_EQ(anti.words_per_pair(), ev.words_per_pair());
    EXPECT_EQ(anti.source_pairs(), ev.source_pairs());
    ASSERT_EQ(anti.num_pairs(), ref.masks.size());
    EXPECT_EQ(LaneMasks(anti), ref.masks);
    for (size_t i = 0; i < ref.reps.size(); ++i) {
      EXPECT_EQ(anti.representative(static_cast<uint32_t>(i)), ref.reps[i])
          << "lane " << i;
    }
    if (!first.has_value()) {
      first = std::move(anti);
      continue;
    }
    EXPECT_TRUE(std::ranges::equal(anti.raw_words(), first->raw_words()));
    EXPECT_TRUE(std::ranges::equal(anti.raw_reps(), first->raw_reps()));
  }
}

/// Same reject verdict from `full` and `anti` on `count` query masks
/// (`wpp` words each), through both kernels, under every tier.
void ExpectSameVerdicts(const PackedEvidence& full, const PackedEvidence& anti,
                        const std::vector<uint64_t>& queries, size_t count) {
  KernelGuard guard;
  const size_t wpp = full.words_per_pair();
  for (const char* tier : AvailableKernels()) {
    SCOPED_TRACE(tier);
    ASSERT_TRUE(SetEvidenceKernel(tier).ok());
    std::vector<uint8_t> want(count, 0), got(count, 0);
    full.TestMasksBlockMajor(queries.data(), wpp, count, want.data());
    anti.TestMasksBlockMajor(queries.data(), wpp, count, got.data());
    EXPECT_EQ(got, want);
    for (size_t i = 0; i < count; ++i) {
      const std::span<const uint64_t> q(queries.data() + i * wpp, wpp);
      ASSERT_EQ(anti.FindUnseparated(q).has_value(), want[i] != 0)
          << "query " << i;
    }
  }
}

// m covers one-word masks, the 64-attribute edge and two- and
// three-word masks; counts straddle the one-block edge.
TEST(MinimalAntichainTest, MatchesQuadraticReferenceOnRandomMasks) {
  for (size_t m : {5u, 12u, 55u, 64u, 70u, 130u}) {
    for (size_t count : {1u, 63u, 64u, 65u, 700u, 2500u}) {
      for (double density : {0.2, 0.5, 0.8}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " pairs=" +
                     std::to_string(count) +
                     " density=" + std::to_string(density));
        const PackedEvidence ev = EvidenceFromMasks(
            m, RandomMasks(m, count, density, 0, m * 7919 + count));
        ExpectAntichainMatchesReference(ev);
        // Random query sets: the antichain rejects exactly what the
        // full evidence rejects.
        const size_t wpp = ev.words_per_pair();
        Rng qrng(count + m);
        std::vector<uint64_t> queries;
        for (int i = 0; i < 300; ++i) {
          const AttributeSet q =
              AttributeSet::Random(m, 0.1 + 0.8 * (i % 7) / 7.0, &qrng);
          queries.insert(queries.end(), q.words().begin(),
                         q.words().begin() + wpp);
        }
        ExpectSameVerdicts(ev, ev.MinimalAntichain(), queries, 300);
      }
    }
  }
}

TEST(MinimalAntichainTest, MatchesQuadraticReferenceOnDuplicateHeavyMasks) {
  for (size_t m : {8u, 40u, 70u}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    // Lane-stable evidence keeps every copy: the antichain keeps the
    // first copy of each minimal mask.
    ExpectAntichainMatchesReference(
        EvidenceFromMasks(m, RandomMasks(m, 5000, 0.4, 20, m)));
    // Deduplicated evidence of a table that repeats a few rows.
    const Dataset dupes = RandomCodeTable(2000, m, 2, 12, m + 3);
    ExpectAntichainMatchesReference(PackedEvidence::FromDatasetPairs(
        dupes, RandomPairs(2000, 3000, m + 4)));
  }
}

TEST(MinimalAntichainTest, EmptyEvidenceStaysEmpty) {
  const PackedEvidence none;
  EXPECT_EQ(none.MinimalAntichain().num_pairs(), 0u);
  const PackedEvidence empty = EvidenceFromMasks(9, {});
  const PackedEvidence anti = empty.MinimalAntichain();
  EXPECT_EQ(anti.num_pairs(), 0u);
  EXPECT_EQ(anti.num_attributes(), 9u);
  EXPECT_EQ(anti.source_pairs(), 0u);
  const uint64_t all = (uint64_t{1} << 9) - 1;
  EXPECT_FALSE(anti.FindUnseparated(std::span<const uint64_t>(&all, 1))
                   .has_value());
}

TEST(MinimalAntichainTest, ZeroMaskIsTheWholeAntichainAndRejectsEverything) {
  // Pair 3 joins two identical rows: its mask is empty, a subset of
  // every other mask, so it is all that remains, and no attribute set
  // separates it.
  std::vector<Mask> masks = RandomMasks(20, 200, 0.5, 0, 4);
  masks[3] = Mask{0};
  masks[150] = Mask{0};
  const PackedEvidence ev = EvidenceFromMasks(20, masks);
  ExpectAntichainMatchesReference(ev);
  const PackedEvidence anti = ev.MinimalAntichain();
  ASSERT_EQ(anti.num_pairs(), 1u);
  EXPECT_EQ(anti.representative(0), std::make_pair(3u, 1003u));
  for (uint64_t q : {uint64_t{0}, uint64_t{1}, (uint64_t{1} << 20) - 1}) {
    EXPECT_EQ(anti.FindUnseparated(std::span<const uint64_t>(&q, 1)),
              std::optional<uint32_t>(0));
  }

  // The same through a table: rows 0 and 1 are identical.
  std::vector<Row> rows = {{1, 2, 3}, {1, 2, 3}, {4, 2, 3}, {1, 5, 6}};
  const Dataset table = RowsToDataset(3, rows);
  const std::vector<RowPair> pairs = {{2, 3}, {0, 2}, {0, 1}, {1, 3}};
  const PackedEvidence dup = PackedEvidence::FromDatasetPairs(table, pairs);
  const PackedEvidence dup_anti = dup.MinimalAntichain();
  ASSERT_EQ(dup_anti.num_pairs(), 1u);
  EXPECT_EQ(dup_anti.representative(0), std::make_pair(0u, 1u));
  EXPECT_EQ(dup_anti.source_pairs(), 4u);
}

TEST(MinimalAntichainTest, PopcountOrderAndFirstOccurrencePinned) {
  auto set = [](std::initializer_list<int> bits) {
    Mask mask{0};
    for (int b : bits) mask[0] |= uint64_t{1} << b;
    return mask;
  };
  const std::vector<Mask> masks = {
      set({0, 1, 2}),  // pair 0: contains pair 5's {0}
      set({3}),        // pair 1: kept, level 1 first
      set({0, 1}),     // pair 2: contains {0}
      set({3}),        // pair 3: a copy of pair 1
      set({4, 5}),     // pair 4: kept, level 2 first
      set({0}),        // pair 5: kept, level 1 second
      set({1, 2}),     // pair 6: kept, level 2 second
      set({1, 2, 4}),  // pair 7: contains pair 6's {1, 2}
  };
  const PackedEvidence ev = EvidenceFromMasks(6, masks);
  ExpectAntichainMatchesReference(ev);
  const PackedEvidence anti = ev.MinimalAntichain();
  EXPECT_EQ(LaneMasks(anti), (std::vector<Mask>{set({3}), set({0}),
                                                 set({4, 5}), set({1, 2})}));
  const std::vector<uint32_t> want_reps = {1, 1001, 5, 1005,
                                           4, 1004, 6, 1006};
  EXPECT_TRUE(std::ranges::equal(anti.raw_reps(), want_reps));
  EXPECT_EQ(anti.source_pairs(), 8u);
}

TEST(MinimalAntichainTest, VerdictsEqualFullEvidenceOnAllSubsets) {
  for (size_t m : {9u, 12u}) {
    for (size_t prototypes : {0u, 30u}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " prototypes=" + std::to_string(prototypes));
      const PackedEvidence ev = EvidenceFromMasks(
          m, RandomMasks(m, 900, 0.35, prototypes, m + prototypes));
      const PackedEvidence anti = ev.MinimalAntichain();
      EXPECT_LT(anti.num_pairs(), ev.num_pairs());
      std::vector<uint64_t> subsets(size_t{1} << m);
      for (size_t s = 0; s < subsets.size(); ++s) subsets[s] = s;
      ExpectSameVerdicts(ev, anti, subsets, subsets.size());
    }
  }
}

// Several workers test a level when the affinity mask allows them; one
// CPU means one worker, and the bytes must not change.
TEST(MinimalAntichainTest, BitIdenticalForAnyWorkerCount) {
  const PackedEvidence ev =
      EvidenceFromMasks(55, RandomMasks(55, 40000, 0.45, 0, 31));
  const PackedEvidence unpinned = ev.MinimalAntichain();
  PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(UsableCpuCount(), 1u);
  const PackedEvidence pinned = ev.MinimalAntichain();
  EXPECT_GT(pinned.num_pairs(), 0u);
  EXPECT_TRUE(std::ranges::equal(pinned.raw_words(), unpinned.raw_words()));
  EXPECT_TRUE(std::ranges::equal(pinned.raw_reps(), unpinned.raw_reps()));
}

// ------------------------------------------- filter-level differential

void ExpectFiltersAgree(const Dataset& d, uint64_t seed, uint64_t pair_count,
                        size_t num_threads) {
  MxPairFilterOptions mx_opts;
  mx_opts.eps = 0.01;
  mx_opts.sample_size = pair_count;
  BitsetFilterOptions bs_opts;
  bs_opts.eps = 0.01;
  bs_opts.sample_size = pair_count;

  // Separate Rng instances with one seed: both Build paths make the
  // same SamplePair calls, so the evidence covers the same pairs.
  Rng mx_rng(seed), bs_rng(seed);
  auto mx = MxPairFilter::Build(d, mx_opts, &mx_rng);
  auto bs = BitsetSeparationFilter::Build(d, bs_opts, &bs_rng);
  ASSERT_TRUE(mx.ok());
  ASSERT_TRUE(bs.ok());
  ASSERT_EQ(mx->sample_size(), bs->sample_size());

  const size_t m = d.num_attributes();
  Rng qrng(seed ^ 0xABCD);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 120; ++i) {
    queries.push_back(
        AttributeSet::Random(m, 0.05 + 0.9 * (i % 11) / 10.0, &qrng));
  }
  queries.push_back(AttributeSet(m));       // empty
  queries.push_back(AttributeSet::All(m));  // full

  std::vector<FilterVerdict> mx_batch = mx->QueryBatch(queries, nullptr);
  std::vector<FilterVerdict> bs_batch = bs->QueryBatch(queries, nullptr);
  EXPECT_EQ(mx_batch, bs_batch);
  ThreadPool pool(num_threads);
  EXPECT_EQ(bs->QueryBatch(queries, &pool), mx_batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(bs->Query(queries[i]), mx->Query(queries[i])) << i;
    // The bitset witness is the first unseparated sampled pair of
    // original rows — the oracle's — and a genuine counterexample.
    auto witness = bs->QueryWitness(queries[i]);
    EXPECT_EQ(witness, mx->QueryWitness(queries[i])) << i;
    ASSERT_EQ(witness.has_value(), mx_batch[i] == FilterVerdict::kReject);
    if (witness.has_value()) {
      std::vector<AttributeIndex> idx = queries[i].ToIndices();
      EXPECT_TRUE(d.RowsAgreeOn(witness->first, witness->second, idx));
    }
  }
}

TEST(BitsetDifferentialTest, QueriesMatchMxFilterAcrossSeedsAndThreads) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    Rng drng(seed * 100 + 3);
    Dataset grid = MakeUniformGridSample(9, 3, 400, &drng);
    for (size_t threads : {2u, 5u}) {
      ExpectFiltersAgree(grid, seed, 700, threads);
      ExpectFiltersAgree(grid, seed + 1, 0, threads);  // paper-size s
    }
    Dataset adultish = AdultishTable(700, seed * 100 + 4);
    ExpectFiltersAgree(adultish, seed, 2000, 3);
  }
}

TEST(BitsetDifferentialTest, WideSchemaUsesMultiWordMasks) {
  // 70 attributes forces two mask words per pair.
  Rng drng(5);
  Dataset d = MakeUniformGridSample(70, 2, 300, &drng);
  BitsetFilterOptions opts;
  opts.eps = 0.01;
  opts.sample_size = 500;
  Rng rng(5);
  auto bs = BitsetSeparationFilter::Build(d, opts, &rng);
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ(bs->evidence().words_per_pair(), 2u);
  ExpectFiltersAgree(d, 6, 500, 4);
}

// ---------------------------------------------- pipeline differential

void ExpectSameResult(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.covered_sample, b.covered_sample);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.pruned_attributes, b.pruned_attributes);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen);
    EXPECT_EQ(a.steps[i].gain, b.steps[i].gain);
  }
}

PipelineOptions BackendOptions(FilterBackend backend, size_t threads) {
  PipelineOptions options;
  options.eps = 0.01;
  options.backend = backend;
  options.num_threads = threads;
  return options;
}

/// "{0,2,5}": the compact form the recorded expectations use.
std::string Indices(const AttributeSet& set) {
  std::string out = "{";
  for (AttributeIndex a : set.ToIndices()) {
    if (out.size() > 1) out += ',';
    out += std::to_string(a);
  }
  return out + "}";
}

/// One line per run: key, verdict, witness, covered flag, pruned count,
/// filter sample size and greedy trace.
std::string Fingerprint(const PipelineResult& r) {
  std::string out = "key=" + Indices(r.key);
  out += r.verdict == FilterVerdict::kAccept ? " ACCEPT" : " REJECT";
  out += " witness=";
  out += r.witness.has_value() ? std::to_string(r.witness->first) + ":" +
                                     std::to_string(r.witness->second)
                               : "-";
  out += " covered=" + std::to_string(r.covered_sample ? 1 : 0);
  out += " pruned=" + std::to_string(r.pruned_attributes);
  out += " samples=" + std::to_string(r.filter_sample_size);
  out += " steps=";
  for (const RefineEngine::Step& step : r.steps) {
    out += std::to_string(step.chosen) + "+" + std::to_string(step.gain) + ";";
  }
  return out;
}

// The expected fingerprints in the tests below were recorded from the
// value-comparing mx-pair discovery backend before it was retired. The
// bitset backend draws the same pairs with the same RNG calls, so it
// must reproduce them exactly.

TEST(BitsetDifferentialTest, PipelineMatchesRecordedMxRun) {
  const std::pair<uint64_t, const char*> kRecorded[] = {
      {3, "key={2} ACCEPT witness=- covered=0 pruned=1 samples=1400 "
          "steps=2+9729;0+1;"},
      {17, "key={2} ACCEPT witness=- covered=0 pruned=1 samples=1400 "
           "steps=2+9728;0+2;"},
      {29, "key={2} ACCEPT witness=- covered=0 pruned=1 samples=1400 "
           "steps=2+9729;0+1;"},
  };
  for (const auto& [seed, want] : kRecorded) {
    Dataset d = AdultishTable(900, seed + 1000);
    for (size_t threads : {1u, 4u}) {
      Rng rng(seed);
      auto bs =
          DiscoveryPipeline(BackendOptions(FilterBackend::kBitset, threads))
              .Run(d, &rng);
      ASSERT_TRUE(bs.ok());
      EXPECT_EQ(Fingerprint(*bs), want) << seed << " threads=" << threads;
    }
  }
}

TEST(BitsetDifferentialTest, WitnessesMatchRecordedMxRun) {
  // 50 duplicated rows: the saturated pair sample catches some, so the
  // verify stage rejects and reports the first caught pair (original
  // row ids for Run, merged pair-table rows for RunSharded).
  const std::tuple<uint64_t, const char*, const char*> kRecorded[] = {
      {5,
       "key={2} REJECT witness=108:336 covered=0 pruned=0 samples=20000 "
       "steps=2+9722;",
       "key={2} REJECT witness=1386:1387 covered=0 pruned=0 samples=20000 "
       "steps=2+9726;"},
      {23,
       "key={2} REJECT witness=30:310 covered=0 pruned=0 samples=20000 "
       "steps=2+9719;",
       "key={2} REJECT witness=4792:4793 covered=0 pruned=0 samples=20000 "
       "steps=2+9728;"},
  };
  for (const auto& [seed, want_run, want_sharded] : kRecorded) {
    Dataset base = AdultishTable(300, seed + 3000);
    std::vector<RowIndex> rows;
    for (RowIndex i = 0; i < 300; ++i) rows.push_back(i);
    for (RowIndex i = 0; i < 50; ++i) rows.push_back(i * 3);
    Dataset d = base.SelectRows(rows);
    PipelineOptions options = BackendOptions(FilterBackend::kBitset, 2);
    options.pair_sample_size = 20000;
    Rng rng(seed);
    auto run = DiscoveryPipeline(options).Run(d, &rng);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(Fingerprint(*run), want_run) << seed;
    ShardedRunOptions sharded;
    sharded.num_shards = 3;
    auto merged = DiscoveryPipeline(options).RunSharded(d, sharded, seed);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(Fingerprint(*merged), want_sharded) << seed;
  }
}

TEST(BitsetDifferentialTest, PipelineMatchesTupleWhenAllBackendsAreExact) {
  // Full tuple sample and a saturated pair sample (~64x the pair count
  // of a 48-row table) make both backends exact filters of the
  // same relation, so the emitted keys must coincide.
  for (uint64_t seed : {2u, 11u}) {
    Dataset d = AdultishTable(48, seed + 2000);
    PipelineOptions base = BackendOptions(FilterBackend::kTupleSample, 2);
    base.sample_size = d.num_rows();
    base.pair_sample_size = 72000;

    PipelineOptions bs = base;
    bs.backend = FilterBackend::kBitset;

    Rng r1(seed), r2(seed);
    auto ts_res = DiscoveryPipeline(base).Run(d, &r1);
    auto bs_res = DiscoveryPipeline(bs).Run(d, &r2);
    ASSERT_TRUE(ts_res.ok() && bs_res.ok());
    EXPECT_EQ(bs_res->key, ts_res->key);
    EXPECT_EQ(bs_res->verdict, ts_res->verdict);
  }
}

// ----------------------------------------------- sharded differential

TEST(BitsetDifferentialTest, RunShardedMatchesRecordedMxRun) {
  Dataset d = AdultishTable(1200, 31);
  for (size_t shards : {1u, 3u, 5u}) {
    ShardedRunOptions sharded;
    sharded.num_shards = shards;
    auto bs = DiscoveryPipeline(BackendOptions(FilterBackend::kBitset, 2))
                  .RunSharded(d, sharded, 71);
    ASSERT_TRUE(bs.ok());
    EXPECT_EQ(bs->num_shards, shards);
    // Recorded from the mx-pair backend: identical for all three
    // shard counts.
    EXPECT_EQ(Fingerprint(*bs),
              "key={2} ACCEPT witness=- covered=1 pruned=0 samples=1400 "
              "steps=2+9730;")
        << shards;
  }
}

TEST(BitsetDifferentialTest, RunShardedAllBackendsAgreeWhenExact) {
  // Tiny relation, full per-shard tuple samples, saturated pair slots:
  // every backend's merged filter is exact, so the sharded frontier is
  // backend-independent.
  Dataset d = AdultishTable(60, 83);
  ShardedRunOptions sharded;
  sharded.num_shards = 3;
  PipelineOptions base = BackendOptions(FilterBackend::kTupleSample, 2);
  base.sample_size = d.num_rows();
  base.pair_sample_size = 60000;
  PipelineOptions bs = base;
  bs.backend = FilterBackend::kBitset;

  auto ts_res = DiscoveryPipeline(base).RunSharded(d, sharded, 5);
  auto bs_res = DiscoveryPipeline(bs).RunSharded(d, sharded, 5);
  ASSERT_TRUE(ts_res.ok() && bs_res.ok());
  EXPECT_EQ(bs_res->key, ts_res->key);
  EXPECT_EQ(bs_res->verdict, ts_res->verdict);
}

TEST(BitsetDifferentialTest, ShardArtifactsRoundTripWithBitsetBackend) {
  Dataset d = AdultishTable(500, 47);
  PipelineOptions options = BackendOptions(FilterBackend::kBitset, 1);
  options.sample_size = 64;
  options.pair_sample_size = 500;

  ShardedBuildOptions build;
  build.backend = FilterBackend::kBitset;
  build.eps = options.eps;
  build.tuple_sample_size = 64;
  build.pair_slots = 500;
  build.num_shards = 3;
  build.seed = 5;
  auto artifacts = BuildShardArtifacts(d, build);
  ASSERT_TRUE(artifacts.ok());
  ASSERT_EQ(artifacts->size(), 3u);

  // Serialize/deserialize every artifact (version-2 payloads carrying
  // the bitset backend byte and a pair table) and finish discovery
  // from the copies.
  std::vector<ShardFilterArtifact> restored;
  for (const ShardFilterArtifact& artifact : *artifacts) {
    EXPECT_EQ(artifact.backend, FilterBackend::kBitset);
    EXPECT_GT(artifact.pair_table.num_rows(), 0u);
    std::string bytes = SerializeShardArtifact(artifact);
    auto back = DeserializeShardArtifact(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->backend, FilterBackend::kBitset);
    restored.push_back(std::move(back).ValueOrDie());
  }
  auto direct = DiscoveryPipeline(options).RunOnShardArtifacts(
      std::move(artifacts).ValueOrDie(), 13);
  auto roundtrip =
      DiscoveryPipeline(options).RunOnShardArtifacts(std::move(restored), 13);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(roundtrip.ok());
  ExpectSameResult(*direct, *roundtrip);
}

// ----------------------------------------------- monitor differential

/// Drives two monitors through one interleaved insert/erase stream and
/// asserts snapshot equality at every epoch (or at checkpoints).
void ExpectMonitorsTrackEachOther(const MonitorOptions& a_opts,
                                  const MonitorOptions& b_opts, uint64_t seed,
                                  bool compare_every_step, int steps = 160) {
  const size_t m = 6;
  auto a = KeyMonitor::Make(Schema::Anonymous(m), a_opts, seed);
  auto b = KeyMonitor::Make(Schema::Anonymous(m), b_opts, seed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  Rng stream_rng(seed * 31 + 7);
  std::vector<Row> live;
  for (int step = 0; step < steps; ++step) {
    if (live.size() > 10 && stream_rng.Uniform(3) == 0) {
      size_t victim = stream_rng.Uniform(live.size());
      ASSERT_TRUE((*a)->Erase(live[victim]).ok());
      ASSERT_TRUE((*b)->Erase(live[victim]).ok());
      live.erase(live.begin() + victim);
    } else {
      Row row(m);
      for (size_t j = 0; j < m; ++j) {
        row[j] = static_cast<ValueCode>(stream_rng.Uniform(3));
      }
      ASSERT_TRUE((*a)->Insert(row).ok());
      ASSERT_TRUE((*b)->Insert(row).ok());
      live.push_back(std::move(row));
    }
    if (compare_every_step || step % 20 == 19 || step == steps - 1) {
      auto sa = (*a)->Snapshot();
      auto sb = (*b)->Snapshot();
      ASSERT_EQ(sa->minimal_keys(), sb->minimal_keys()) << "step " << step;
      // Sample sizes are comparable only within one sampling scheme
      // (pair slots vs tuples).
      if (a_opts.backend == b_opts.backend) {
        EXPECT_EQ(sa->filter_sample_size, sb->filter_sample_size);
      }
    }
  }
  // Event-for-event equality only holds when the two monitors agree at
  // every epoch (sampling differences can flicker transiently between
  // checkpoints even when the checkpoints themselves coincide).
  if (compare_every_step) {
    EXPECT_EQ((*a)->events().size(), (*b)->events().size());
  }
}

TEST(BitsetDifferentialTest, MonitorMatchesRecordedMxRun) {
  // Genuinely sampled pair slots over the interleaved insert/erase
  // stream of ExpectMonitorsTrackEachOther. `digest` folds every
  // epoch's filter sample size and minimal-key frontier; it, the event
  // count and the final frontier were recorded from the mx-pair
  // monitor for the same seeds.
  struct Recorded {
    uint64_t seed;
    uint64_t digest;
    size_t events;
    const char* frontier;
  };
  const Recorded kRecorded[] = {
      {4, 0x32981ed829d1b04bULL, 132,
       "{0,1,3}{0,1,4}{0,2,3,4}{0,2,3,5}{0,3,4,5}"},
      {13, 0x0735e86e8a84a5c4ULL, 299, "{0,1,2}{1,2,4,5}"},
      {27, 0xfd2c8e976de60b15ULL, 322,
       "{0,1,2,3}{0,1,2,4}{0,1,2,5}{0,2,3,4}{0,2,4,5}"},
  };
  auto mix = [](uint64_t h, uint64_t v) {
    return (h ^ v) * 1099511628211ULL;
  };
  for (const Recorded& want : kRecorded) {
    MonitorOptions options;
    options.eps = 0.01;
    options.backend = FilterBackend::kBitset;
    options.pair_sample_size = 64;
    options.max_key_size = 6;
    const size_t m = 6;
    auto monitor = KeyMonitor::Make(Schema::Anonymous(m), options, want.seed);
    ASSERT_TRUE(monitor.ok());
    Rng stream_rng(want.seed * 31 + 7);
    std::vector<Row> live;
    uint64_t digest = 1469598103934665603ULL;
    for (int step = 0; step < 160; ++step) {
      if (live.size() > 10 && stream_rng.Uniform(3) == 0) {
        size_t victim = stream_rng.Uniform(live.size());
        ASSERT_TRUE((*monitor)->Erase(live[victim]).ok());
        live.erase(live.begin() + victim);
      } else {
        Row row(m);
        for (size_t j = 0; j < m; ++j) {
          row[j] = static_cast<ValueCode>(stream_rng.Uniform(3));
        }
        ASSERT_TRUE((*monitor)->Insert(row).ok());
        live.push_back(std::move(row));
      }
      auto snapshot = (*monitor)->Snapshot();
      digest = mix(digest, snapshot->filter_sample_size);
      digest = mix(digest, snapshot->minimal_keys().size());
      for (const AttributeSet& key : snapshot->minimal_keys()) {
        for (AttributeIndex a : key.ToIndices()) digest = mix(digest, a + 1);
        digest = mix(digest, 0);
      }
    }
    std::string frontier;
    for (const AttributeSet& key : (*monitor)->Snapshot()->minimal_keys()) {
      frontier += Indices(key);
    }
    EXPECT_EQ(digest, want.digest) << want.seed;
    EXPECT_EQ((*monitor)->events().size(), want.events) << want.seed;
    EXPECT_EQ(frontier, want.frontier) << want.seed;
  }
}

TEST(BitsetDifferentialTest, MonitorMatchesTupleBackendWhenBothAreExact) {
  // Exact tuple window vs a saturated bitset pair sample: ~40 live
  // rows have < 800 pairs; 20k slots miss any one of them with
  // probability ~e^-25 per pair, so for this fixed seed the frontiers
  // coincide. (Shorter stream: pair backends churn ~2s/n slots per
  // update.)
  MonitorOptions tuple;
  tuple.eps = 0.01;
  tuple.sample_size = 1u << 30;
  tuple.max_key_size = 6;
  MonitorOptions bitset;
  bitset.eps = 0.01;
  bitset.backend = FilterBackend::kBitset;
  bitset.pair_sample_size = 20000;
  bitset.max_key_size = 6;
  ExpectMonitorsTrackEachOther(tuple, bitset, 21, false, 60);
}

// ----------------------------------- deterministic across thread counts

TEST(BitsetDifferentialTest, ShardedBitsetDeterministicAcrossThreads) {
  Dataset d = AdultishTable(800, 61);
  ShardedRunOptions sharded;
  sharded.num_shards = 4;
  auto serial = DiscoveryPipeline(BackendOptions(FilterBackend::kBitset, 1))
                    .RunSharded(d, sharded, 19);
  auto parallel = DiscoveryPipeline(BackendOptions(FilterBackend::kBitset, 6))
                      .RunSharded(d, sharded, 19);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSameResult(*serial, *parallel);
}

}  // namespace
}  // namespace qikey
