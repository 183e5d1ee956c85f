#ifndef QIKEY_CORE_MX_PAIR_FILTER_H_
#define QIKEY_CORE_MX_PAIR_FILTER_H_

#include <memory>
#include <vector>

#include "core/filter.h"
#include "core/sample_bounds.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// Options for `MxPairFilter::Build`.
struct MxPairFilterOptions {
  double eps = 0.001;
  /// Override the sample size; 0 = use `MxPairSampleSizePaper(m, eps)`.
  uint64_t sample_size = 0;
  /// When true, the sampled pairs' values are copied out of the data set
  /// (a true sketch). When false, only row indices are kept and queries
  /// read through to the data set (cheaper to build; identical answers).
  bool materialize = false;
  /// When true, each pair comparison inspects every attribute of the
  /// query (no early exit on the first differing attribute). Answers
  /// are identical; the query then costs exactly the `O(s·|A|)` of the
  /// paper's analysis — the cost model behind Table 1's T(*) column.
  bool exhaustive_compare = false;
};

/// \brief The Motwani–Xu (VLDB 2007) baseline filter: `Θ(m/ε)` uniform
/// *pairs* of tuples; reject `A` iff some retained pair is unseparated.
///
/// Test-and-bench support, not part of libqikey: the library's pair
/// filter is `BitsetSeparationFilter`, whose pairs come from
/// `stream/pair_slots.h`. This value-comparing form stays as
///   - the differential tests' oracle: `Build` makes the same
///     `Rng::SamplePair` calls as `DrawPairSlots`, so for a fixed seed
///     it holds the same pairs and returns bit-identical verdicts and
///     witnesses, and `MergeDisjoint` is the reference `MergePairSlots`
///     must match row for row;
///   - the Table-1 baseline of `bench_table1`, `bench_filter_query` and
///     `bench_pipeline`: query time `O(s · |A|)` with `s` the pair count.
class MxPairFilter : public SeparationFilter {
 public:
  /// Samples pairs from `dataset`. The data set must outlive the filter
  /// unless `options.materialize` is set.
  static Result<MxPairFilter> Build(const Dataset& dataset,
                                    const MxPairFilterOptions& options,
                                    Rng* rng);

  /// Builds from an already-materialized pair table (streaming path):
  /// rows `2i` and `2i+1` of `pair_table` form sampled pair `i`.
  static Result<MxPairFilter> FromMaterializedPairs(Dataset pair_table);

  /// \brief Merges two MATERIALIZED filters with equal slot counts,
  /// built over DISJOINT row populations of `seen_a` and `seen_b` rows,
  /// into one whose every slot holds a uniform pair of the union — the
  /// per-slot pair-reservoir union behind sharded construction.
  ///
  /// Per slot (independently, with exact integer-arithmetic category
  /// probabilities): with probability `C(seen_a,2)/C(n,2)` keep a's
  /// pair, with `C(seen_b,2)/C(n,2)` keep b's, otherwise form a cross
  /// pair from one uniform endpoint of each (a uniform element of a
  /// uniform pair is a uniform row). Values are re-encoded through a
  /// union dictionary. Requires `seen >= 2` on both sides and
  /// `seen_a + seen_b` within `RowIndex` range.
  static Result<MxPairFilter> MergeDisjoint(const MxPairFilter& a,
                                            uint64_t seen_a,
                                            const MxPairFilter& b,
                                            uint64_t seen_b, Rng* rng);

  /// The private pair table when materialized (null otherwise).
  const Dataset* materialized() const { return materialized_.get(); }

  FilterVerdict Query(const AttributeSet& attrs) const override;
  std::optional<std::pair<RowIndex, RowIndex>> QueryWitness(
      const AttributeSet& attrs) const override;

  /// Parallel batch query: chunks of the batch run on `pool` (queries
  /// only read the pair table, so they are safe concurrently).
  std::vector<FilterVerdict> QueryBatch(
      std::span<const AttributeSet> attrs,
      ThreadPool* pool = nullptr) const override;

  uint64_t sample_size() const override { return pairs_.size(); }
  uint64_t MemoryBytes() const override;

  const std::vector<std::pair<RowIndex, RowIndex>>& pairs() const {
    return pairs_;
  }

 private:
  MxPairFilter() = default;

  // Pair row indices; when materialized, indices address rows of
  // `materialized_` instead of the original data set.
  std::vector<std::pair<RowIndex, RowIndex>> pairs_;
  const Dataset* dataset_ = nullptr;
  std::shared_ptr<Dataset> materialized_;
  bool exhaustive_compare_ = false;
};

}  // namespace qikey

#endif  // QIKEY_CORE_MX_PAIR_FILTER_H_
