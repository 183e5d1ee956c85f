#ifndef QIKEY_STREAM_STREAM_BUILDER_H_
#define QIKEY_STREAM_STREAM_BUILDER_H_

#include <cstdint>
#include <vector>

#include "core/bitset_filter.h"
#include "core/sketch.h"
#include "core/tuple_sample_filter.h"
#include "data/dataset.h"
#include "stream/pair_slots.h"
#include "stream/reservoir.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// \brief One-pass builder for the Theorem 2 non-separation sketch:
/// `s` independent pair reservoirs over the stream, materialized into
/// the sketch's code layout at Finish().
class StreamingSketchBuilder {
 public:
  /// `small_cutoff` follows `SketchSmallCutoff` (caller computes it
  /// from its (k, eps) targets; the builder is agnostic).
  StreamingSketchBuilder(Schema schema, std::vector<uint32_t> cardinalities,
                         uint64_t num_pairs, uint64_t small_cutoff,
                         Rng* rng);

  Status Offer(const std::vector<ValueCode>& row);

  uint64_t rows_seen() const { return reservoir_.seen(); }

  Result<NonSeparationSketch> Finish() &&;

 private:
  Schema schema_;
  std::vector<uint32_t> cardinalities_;
  PairReservoir reservoir_;
  uint64_t small_cutoff_;
};

/// \brief One-pass builder for this paper's filter: reservoir-samples
/// `r = Θ(m/√ε)` tuples from a stream of rows and materializes them.
///
/// Space: `O(r·m)` codes — proportional to the number of samples, as
/// Section 1 observes for the streaming implementation.
class StreamingTupleFilterBuilder {
 public:
  /// `schema` and per-attribute `cardinalities` describe the stream's
  /// rows; `sample_size` tuples are retained.
  StreamingTupleFilterBuilder(Schema schema,
                              std::vector<uint32_t> cardinalities,
                              uint64_t sample_size, Rng* rng);

  /// Feeds the next row (codes, one per attribute).
  Status Offer(const std::vector<ValueCode>& row);

  uint64_t rows_seen() const { return reservoir_.seen(); }

  /// Builds the filter from the retained sample.
  Result<TupleSampleFilter> Finish(
      DuplicateDetection detection = DuplicateDetection::kSort) &&;

 private:
  Schema schema_;
  std::vector<uint32_t> cardinalities_;
  ReservoirSampler<std::vector<ValueCode>> reservoir_;
};

/// \brief One-pass builder for the Motwani–Xu filter: `s` pair slots
/// kept by a `PairReservoir` over the stream (space `O(s·m)` codes),
/// packed into a `BitsetSeparationFilter` at Finish().
class StreamingPairFilterBuilder {
 public:
  StreamingPairFilterBuilder(Schema schema,
                             std::vector<uint32_t> cardinalities,
                             uint64_t num_pairs, Rng* rng);

  Status Offer(const std::vector<ValueCode>& row);

  uint64_t rows_seen() const { return reservoir_.seen(); }

  /// The sampled pair-slot table (rows `2i`, `2i+1` = slot `i`).
  Result<Dataset> FinishPairTable() &&;

  /// The filter packed from `FinishPairTable()`.
  Result<BitsetSeparationFilter> Finish() &&;

 private:
  Schema schema_;
  std::vector<uint32_t> cardinalities_;
  PairReservoir reservoir_;
};

}  // namespace qikey

#endif  // QIKEY_STREAM_STREAM_BUILDER_H_
