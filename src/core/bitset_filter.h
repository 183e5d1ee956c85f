#ifndef QIKEY_CORE_BITSET_FILTER_H_
#define QIKEY_CORE_BITSET_FILTER_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/evidence_block.h"
#include "core/filter.h"
#include "core/sample_bounds.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// Options for `BitsetSeparationFilter::Build`.
struct BitsetFilterOptions {
  double eps = 0.001;
  /// Override the pair count; 0 = use `MxPairSampleSizePaper(m, eps)`.
  uint64_t sample_size = 0;
};

/// \brief The Motwani–Xu pair filter — `Θ(m/ε)` uniform pairs of
/// tuples; reject `A` iff some retained pair is unseparated — answered
/// from bit-packed disagree-set evidence.
///
/// Build draws `s` uniform pairs, then encodes each pair's disagree set
/// — the attributes on which its two tuples differ — as an `m`-bit mask
/// packed into cache-line-aligned 64-pair blocks. A query is word-wise
/// AND over the blocks with an early exit on the first unseparated
/// pair, and `QueryBatch` walks the blocks block-major so each resident
/// block serves the whole candidate batch. The masks ARE the sketch:
/// `s·m` bits plus one representative row pair per distinct mask for
/// witness reporting — the original relation is not referenced after
/// Build.
///
/// `MxPairFilter` is the value-comparing reference implementation: it
/// consumes the RNG identically (a fixed seed yields the same pairs and
/// bit-identical verdicts and witnesses), supplies the shard-merge slot
/// algebra, and serves as the differential tests' oracle.
class BitsetSeparationFilter : public SeparationFilter {
 public:
  static Result<BitsetSeparationFilter> Build(
      const Dataset& dataset, const BitsetFilterOptions& options, Rng* rng);

  /// Builds from an already-materialized pair table (the shard path,
  /// and legacy QSNP1 images that stored the raw pair table):
  /// rows `2i` and `2i+1` of `pair_table` form sampled pair `i`. The
  /// table is retained (it is what `MergeDisjoint` re-encodes), and
  /// witness indices address its rows.
  static Result<BitsetSeparationFilter> FromMaterializedPairs(
      Dataset pair_table);

  /// Packs the given row pairs of `table` without retaining the table;
  /// witness indices are `table` row indices.
  static BitsetSeparationFilter FromPairs(
      const Dataset& table,
      std::span<const std::pair<RowIndex, RowIndex>> pairs);

  /// Wraps already-packed evidence (the snapshot-file path — typically
  /// borrowed straight out of an mmap-ed section). `declared_pairs` is
  /// the pre-dedup slot count reported by `sample_size()` and must be
  /// at least the evidence's packed pair count.
  static Result<BitsetSeparationFilter> FromPackedEvidence(
      PackedEvidence evidence, uint64_t declared_pairs);

  /// \brief Sharded-construction primitive, mirroring
  /// `MxPairFilter::MergeDisjoint` (same preconditions: materialized
  /// inputs, equal slot counts, disjoint populations of `seen_a` and
  /// `seen_b` rows). Delegates the per-slot union algebra to the MX
  /// merge — identical RNG consumption — and re-packs the evidence.
  static Result<BitsetSeparationFilter> MergeDisjoint(
      const BitsetSeparationFilter& a, uint64_t seen_a,
      const BitsetSeparationFilter& b, uint64_t seen_b, Rng* rng);

  FilterVerdict Query(const AttributeSet& attrs) const override;
  std::optional<std::pair<RowIndex, RowIndex>> QueryWitness(
      const AttributeSet& attrs) const override;

  /// Block-major batched query (see
  /// `PackedEvidence::TestMasksBlockMajor`); the batch is partitioned
  /// over `pool` when given.
  std::vector<FilterVerdict> QueryBatch(
      std::span<const AttributeSet> attrs,
      ThreadPool* pool = nullptr) const override;

  /// Sampled pair slots (pre-dedup).
  uint64_t sample_size() const override { return declared_pairs_; }
  uint64_t MemoryBytes() const override;

  /// The retained pair table when built via `FromMaterializedPairs`
  /// (null otherwise).
  const Dataset* materialized() const { return materialized_.get(); }

  /// The packed evidence (block/dedup stats for benches and tests).
  const PackedEvidence& evidence() const { return evidence_; }

 private:
  BitsetSeparationFilter() = default;

  PackedEvidence evidence_;
  uint64_t declared_pairs_ = 0;
  std::shared_ptr<Dataset> materialized_;
};

}  // namespace qikey

#endif  // QIKEY_CORE_BITSET_FILTER_H_
