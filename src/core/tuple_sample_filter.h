#ifndef QIKEY_CORE_TUPLE_SAMPLE_FILTER_H_
#define QIKEY_CORE_TUPLE_SAMPLE_FILTER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter.h"
#include "core/sample_bounds.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// Duplicate-detection back end for `TupleSampleFilter::Query`.
enum class DuplicateDetection {
  /// Sort the sample's projections (the paper's `O((m|A|/√ε)·log(m/ε))`
  /// query; comparison-based, no hashing assumption).
  kSort,
  /// Hash the projections; expected `O(r·|A|)` with full-equality
  /// verification on hash hits (no false rejects).
  kHash,
};

struct TupleSampleFilterOptions {
  double eps = 0.001;
  /// Override the tuple count; 0 = use `TupleSampleSizePaper(m, eps)`.
  uint64_t sample_size = 0;
  DuplicateDetection detection = DuplicateDetection::kSort;
};

/// \brief This paper's filter (Algorithm 1): `Θ(m/√ε)` tuples sampled
/// without replacement; reject `A` iff two retained tuples agree on all
/// of `A` (i.e. `A` misses a pair of `(R choose 2)`).
///
/// The retained sample is materialized into a private table, so the
/// filter is a genuine sketch: `r·m` codes ≈ `(m²/√ε)·log|U|` bits.
/// The filter is only the query side: its sample comes from
/// stream/tuple_sample.h through `Build` or `FromSample`.
class TupleSampleFilter : public SeparationFilter {
 public:
  static Result<TupleSampleFilter> Build(
      const Dataset& dataset, const TupleSampleFilterOptions& options,
      Rng* rng);

  /// Builds directly from an already-drawn sample table (streaming path;
  /// `original_rows[i]` is the provenance of sample row `i`, used only
  /// for witness reporting and may be empty).
  static TupleSampleFilter FromSample(Dataset sample,
                                      std::vector<RowIndex> original_rows,
                                      DuplicateDetection detection);

  /// As above, but shares an existing sample instead of copying it
  /// (the pipeline runs greedy refinement on the same table).
  static TupleSampleFilter FromSample(std::shared_ptr<Dataset> sample,
                                      std::vector<RowIndex> original_rows,
                                      DuplicateDetection detection);

  FilterVerdict Query(const AttributeSet& attrs) const override;
  /// The first sample row whose projection on `attrs` repeats an earlier
  /// row's, with that earlier row (original rows when known), whatever
  /// the detection: the pair depends only on which values are equal.
  std::optional<std::pair<RowIndex, RowIndex>> QueryWitness(
      const AttributeSet& attrs) const override;

  /// Parallel batch query: chunks of the batch run on `pool` (queries
  /// only read the retained sample, so they are safe concurrently).
  std::vector<FilterVerdict> QueryBatch(
      std::span<const AttributeSet> attrs,
      ThreadPool* pool = nullptr) const override;

  /// Byte serialization of the retained sample (the filter IS its
  /// sample); `Deserialize` restores a filter answering identically.
  std::string Serialize() const;
  static Result<TupleSampleFilter> Deserialize(std::string_view bytes);

  uint64_t sample_size() const override { return sample_->num_rows(); }
  uint64_t MemoryBytes() const override;

  /// The retained sample as a data set (used by the greedy min-key
  /// machinery, which runs set cover on `(R choose 2)`).
  const Dataset& sample() const { return *sample_; }

  /// Shared handle to the retained sample (the pipeline runs greedy
  /// refinement on the same table the filter answers from).
  std::shared_ptr<Dataset> shared_sample() const { return sample_; }

  /// Original-row provenance of each sample row (empty when unknown).
  const std::vector<RowIndex>& provenance() const { return original_rows_; }

  DuplicateDetection detection() const { return detection_; }

 private:
  TupleSampleFilter() = default;

  std::optional<std::pair<RowIndex, RowIndex>> FindDuplicateSorted(
      const std::vector<AttributeIndex>& idx) const;
  std::optional<std::pair<RowIndex, RowIndex>> FindDuplicateHashed(
      const std::vector<AttributeIndex>& idx) const;

  std::shared_ptr<Dataset> sample_;
  std::vector<RowIndex> original_rows_;
  DuplicateDetection detection_ = DuplicateDetection::kSort;
};

}  // namespace qikey

#endif  // QIKEY_CORE_TUPLE_SAMPLE_FILTER_H_
