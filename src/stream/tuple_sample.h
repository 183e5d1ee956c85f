#ifndef QIKEY_STREAM_TUPLE_SAMPLE_H_
#define QIKEY_STREAM_TUPLE_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// \file
/// The tuple sample of Algorithm 1 (`r` tuples, uniform without
/// replacement): drawn from a table (`DrawTupleSample`), kept in one pass
/// (`ReservoirSampler` + `RowsToDataset`) or merged (`MergeTupleSamples`).

/// Sampled rows, and the original row index of each (empty if unknown).
struct TupleSample {
  Dataset sample;
  std::vector<RowIndex> provenance;
};

/// Draws `min(r, n)` of the row indices `[lo, lo + n)` uniformly
/// without replacement, in one `Rng::SampleWithoutReplacement` call. It
/// reads no row, so a caller that has only counted the rows (the CSV
/// entry of `DiscoveryPipeline::Run`) draws what `DrawTupleSample` would.
std::vector<RowIndex> DrawTupleRows(uint64_t lo, uint64_t n, uint64_t r,
                                    Rng* rng);

/// The rows `DrawTupleRows(lo, n, r, rng)` names, selected from `d`.
/// When `r >= n` every row is kept, and a filter on the sample is exact.
TupleSample DrawTupleSample(const Dataset& d, uint64_t lo, uint64_t n,
                            uint64_t r, Rng* rng);

/// \brief Merges two samples drawn over DISJOINT populations of `seen_a`
/// and `seen_b` rows into one distributed exactly as a single uniform
/// draw of `min(target, seen_a + seen_b)` tuples from the union, so
/// shards sampled independently (even in other processes, with their
/// own dictionaries) merge without the whole relation.
///
/// Each input must retain at least `min(target, seen)` tuples. The split
/// is hypergeometric (`Rng::HypergeometricDraw`), filled by uniform
/// sub-draws of each side. Values are re-encoded through a union
/// dictionary (`ConcatDatasets`), so the schema names must match.
/// Provenance is kept only when both inputs carry it.
Result<TupleSample> MergeTupleSamples(const TupleSample& a, uint64_t seen_a,
                                      const TupleSample& b, uint64_t seen_b,
                                      uint64_t target, Rng* rng);

/// The table of a reservoir's `rows` (codes, one per attribute), in
/// order. Column `j` takes `cardinalities[j]` and, when `dictionaries`
/// is non-empty, `dictionaries[j]`.
Dataset RowsToDataset(
    const Schema& schema, const std::vector<uint32_t>& cardinalities,
    const std::vector<std::vector<ValueCode>>& rows,
    const std::vector<std::shared_ptr<Dictionary>>& dictionaries = {});

/// The table whose column `j` holds `columns[j]` (a pair reservoir's
/// `TakeColumns`; missing columns are empty), with `cardinalities[j]`
/// and, when `dictionaries` is non-empty, `dictionaries[j]`.
Dataset ColumnsToDataset(
    const Schema& schema, const std::vector<uint32_t>& cardinalities,
    std::vector<std::vector<ValueCode>> columns,
    const std::vector<std::shared_ptr<Dictionary>>& dictionaries = {});

}  // namespace qikey

#endif  // QIKEY_STREAM_TUPLE_SAMPLE_H_
