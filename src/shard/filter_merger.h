#ifndef QIKEY_SHARD_FILTER_MERGER_H_
#define QIKEY_SHARD_FILTER_MERGER_H_

#include <cstdint>
#include <map>
#include <optional>

#include "core/tuple_sample_filter.h"
#include "data/dataset.h"
#include "shard/shard_artifact.h"
#include "stream/tuple_sample.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// The outcome of merging every shard: filters whose retained state is
/// distributed exactly as a single-pass build over the whole relation.
struct MergedFilter {
  FilterBackend backend = FilterBackend::kTupleSample;
  /// Merged uniform tuple sample (both backends: the pipeline's greedy
  /// stage runs on it; under the tuple backend it IS the filter).
  std::optional<TupleSampleFilter> tuple_filter;
  /// Bitset backend: the merged pair-slot table (rows `2i`, `2i+1` =
  /// slot `i`); the pipeline packs it into its verify/minimize filter.
  /// Empty under the tuple backend.
  Dataset pair_table;
  uint64_t total_rows = 0;
  uint32_t num_shards = 0;
};

/// \brief Folds shard artifacts — built in this process or restored
/// from files written by other processes — into one global filter.
///
/// Artifacts may arrive in any order; consecutive runs fold EAGERLY (in
/// shard-index order, so results are deterministic for a fixed seed),
/// which keeps resident state at one merged sample plus any
/// out-of-order stragglers. Distribution-equivalence to a single-pass
/// build follows by induction from the two pairwise merges
/// (`MergeTupleSamples`, `MergePairSlots`); `tests/shard_test.cc` checks
/// it empirically. `Finish` builds the tuple filter once.
///
/// An artifact's pair table must carry its tuple sample's schema: the
/// merged filter answers queries over that schema's attributes.
class FilterMerger {
 public:
  struct Options {
    FilterBackend backend = FilterBackend::kTupleSample;
    /// Merged tuple-sample size target (resolved, > 0).
    uint64_t tuple_sample_size = 0;
    DuplicateDetection detection = DuplicateDetection::kSort;
    uint64_t seed = 1;
  };

  explicit FilterMerger(const Options& options)
      : options_(options), rng_(options.seed) {}

  /// Validates and folds (or stages) one shard's artifact.
  Status Add(ShardFilterArtifact artifact);

  uint32_t shards_merged() const { return next_index_; }

  /// Finishes the merge; fails if any shard index is missing.
  Result<MergedFilter> Finish() &&;

 private:
  Status Fold(ShardFilterArtifact artifact);

  Options options_;
  Rng rng_;
  uint32_t next_index_ = 0;
  std::map<uint32_t, ShardFilterArtifact> pending_;
  std::optional<TupleSample> tuple_;
  Dataset pairs_;
  uint64_t rows_folded_ = 0;
};

}  // namespace qikey

#endif  // QIKEY_SHARD_FILTER_MERGER_H_
