#ifndef QIKEY_CORE_BITSET_FILTER_H_
#define QIKEY_CORE_BITSET_FILTER_H_

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
/// Build draws `s` uniform pairs (`DrawPairSlots`), then encodes each
/// pair's disagree set — the attributes on which its two tuples differ
/// — as an `m`-bit mask packed into cache-line-aligned 64-pair blocks.
/// A query is word-wise AND over the blocks with an early exit on the
/// first unseparated pair, and `QueryBatch` walks the blocks
/// block-major so each resident block serves the whole candidate batch.
/// The masks ARE the sketch: `s·m` bits plus one representative row
/// pair per distinct mask for witness reporting — no table is
/// referenced after construction.
///
/// Every other pair path hands it a pair-slot table to pack: the
/// sharded merge (`MergePairSlots`), the stream builder and legacy
/// QSNP1 images. The value-comparing `MxPairFilter` lives with the
/// tests and benches as the oracle: it draws the same pairs for a fixed
/// seed and returns bit-identical verdicts and witnesses.
class BitsetSeparationFilter : public SeparationFilter {
 public:
  static Result<BitsetSeparationFilter> Build(
      const Dataset& dataset, const BitsetFilterOptions& options, Rng* rng);

  /// Packs a pair-slot table (the shard merge, the stream builder, and
  /// legacy QSNP1 images that stored the raw pair table): rows `2i` and
  /// `2i+1` of `pair_table` form sampled pair `i`. Witness indices
  /// address its rows.
  static Result<BitsetSeparationFilter> FromMaterializedPairs(
      const Dataset& pair_table);

  /// Wraps already-packed evidence (the snapshot-file path — typically
  /// borrowed straight out of an mmap-ed section). `declared_pairs` is
  /// the pre-dedup slot count reported by `sample_size()` and must be
  /// at least the evidence's packed pair count.
  static Result<BitsetSeparationFilter> FromPackedEvidence(
      PackedEvidence evidence, uint64_t declared_pairs);

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

  /// The packed evidence (block/dedup stats for benches and tests).
  const PackedEvidence& evidence() const { return evidence_; }

 private:
  BitsetSeparationFilter() = default;

  /// Packs the given row pairs of `table`; witness indices are `table`
  /// row indices.
  static BitsetSeparationFilter FromPairs(
      const Dataset& table,
      std::span<const std::pair<RowIndex, RowIndex>> pairs);

  PackedEvidence evidence_;
  uint64_t declared_pairs_ = 0;
};

}  // namespace qikey

#endif  // QIKEY_CORE_BITSET_FILTER_H_
