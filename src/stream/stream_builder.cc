#include "stream/stream_builder.h"

#include "stream/tuple_sample.h"
#include "util/logging.h"

namespace qikey {

StreamingSketchBuilder::StreamingSketchBuilder(
    Schema schema, std::vector<uint32_t> cardinalities, uint64_t num_pairs,
    uint64_t small_cutoff, Rng* rng)
    : schema_(std::move(schema)),
      cardinalities_(std::move(cardinalities)),
      reservoir_(num_pairs, rng),
      small_cutoff_(small_cutoff) {
  QIKEY_CHECK(schema_.num_attributes() == cardinalities_.size());
}

Status StreamingSketchBuilder::Offer(const std::vector<ValueCode>& row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  if (reservoir_.Offer()) reservoir_.Retain(row);
  return Status::OK();
}

Result<NonSeparationSketch> StreamingSketchBuilder::Finish() && {
  const uint64_t n = reservoir_.seen();
  if (n < 2) {
    return Status::InvalidArgument("stream had fewer than two rows");
  }
  const uint32_t m = static_cast<uint32_t>(schema_.num_attributes());
  std::vector<ValueCode> codes;
  codes.reserve(2 * reservoir_.num_slots() * m);
  for (const auto& row : std::move(reservoir_).TakeRows()) {
    codes.insert(codes.end(), row.begin(), row.end());
  }
  uint64_t total_pairs = (n % 2 == 0) ? (n / 2) * (n - 1) : n * ((n - 1) / 2);
  return NonSeparationSketch::FromMaterializedPairs(
      m, total_pairs, small_cutoff_, std::move(codes));
}

StreamingTupleFilterBuilder::StreamingTupleFilterBuilder(
    Schema schema, std::vector<uint32_t> cardinalities, uint64_t sample_size,
    Rng* rng)
    : schema_(std::move(schema)),
      cardinalities_(std::move(cardinalities)),
      reservoir_(sample_size, rng) {
  QIKEY_CHECK(schema_.num_attributes() == cardinalities_.size());
}

Status StreamingTupleFilterBuilder::Offer(const std::vector<ValueCode>& row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  reservoir_.Offer(row);
  return Status::OK();
}

Result<TupleSampleFilter> StreamingTupleFilterBuilder::Finish(
    DuplicateDetection detection) && {
  if (reservoir_.seen() < 2) {
    return Status::InvalidArgument("stream had fewer than two rows");
  }
  Dataset sample =
      RowsToDataset(schema_, cardinalities_, reservoir_.items());
  return TupleSampleFilter::FromSample(std::move(sample), {}, detection);
}

StreamingPairFilterBuilder::StreamingPairFilterBuilder(
    Schema schema, std::vector<uint32_t> cardinalities, uint64_t num_pairs,
    Rng* rng)
    : schema_(std::move(schema)),
      cardinalities_(std::move(cardinalities)),
      reservoir_(num_pairs, rng) {
  QIKEY_CHECK(schema_.num_attributes() == cardinalities_.size());
}

Status StreamingPairFilterBuilder::Offer(const std::vector<ValueCode>& row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  if (reservoir_.Offer()) reservoir_.Retain(row);
  return Status::OK();
}

Result<Dataset> StreamingPairFilterBuilder::FinishPairTable() && {
  if (reservoir_.seen() < 2) {
    return Status::InvalidArgument("stream had fewer than two rows");
  }
  return RowsToDataset(schema_, cardinalities_,
                       std::move(reservoir_).TakeRows());
}

Result<BitsetSeparationFilter> StreamingPairFilterBuilder::Finish() && {
  Result<Dataset> table = std::move(*this).FinishPairTable();
  if (!table.ok()) return table.status();
  return BitsetSeparationFilter::FromMaterializedPairs(*table);
}

}  // namespace qikey
