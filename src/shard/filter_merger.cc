#include "shard/filter_merger.h"

#include <utility>

#include "stream/pair_slots.h"

namespace qikey {

Status FilterMerger::Add(ShardFilterArtifact artifact) {
  if (artifact.backend != options_.backend) {
    return Status::InvalidArgument("artifact backend mismatch");
  }
  if (artifact.rows_seen < 2) {
    return Status::InvalidArgument("shard artifacts need >= 2 rows");
  }
  if (options_.backend == FilterBackend::kBitset &&
      artifact.pair_table.num_rows() == 0) {
    return Status::InvalidArgument("pair artifact is missing its pair table");
  }
  QIKEY_RETURN_NOT_OK(artifact.CheckPairTableSchema());
  uint64_t need = std::min<uint64_t>(options_.tuple_sample_size,
                                     artifact.rows_seen);
  if (artifact.tuple_sample.num_rows() < need) {
    return Status::InvalidArgument(
        "shard tuple sample smaller than the merge target");
  }
  if (artifact.shard_index < next_index_ ||
      pending_.count(artifact.shard_index) > 0) {
    return Status::AlreadyExists("duplicate shard index");
  }
  pending_.emplace(artifact.shard_index, std::move(artifact));
  // Fold every consecutive artifact now available, in index order.
  while (true) {
    auto it = pending_.find(next_index_);
    if (it == pending_.end()) break;
    ShardFilterArtifact next = std::move(it->second);
    pending_.erase(it);
    QIKEY_RETURN_NOT_OK(Fold(std::move(next)));
    ++next_index_;
  }
  return Status::OK();
}

Status FilterMerger::Fold(ShardFilterArtifact artifact) {
  TupleSample incoming{std::move(artifact.tuple_sample),
                       std::move(artifact.provenance)};
  if (!tuple_.has_value()) {
    tuple_ = std::move(incoming);
  } else {
    Result<TupleSample> merged =
        MergeTupleSamples(*tuple_, rows_folded_, incoming, artifact.rows_seen,
                          options_.tuple_sample_size, &rng_);
    if (!merged.ok()) return merged.status();
    tuple_ = std::move(merged).ValueOrDie();
  }
  if (options_.backend == FilterBackend::kBitset) {
    if (rows_folded_ == 0) {
      pairs_ = std::move(artifact.pair_table);
    } else {
      Result<Dataset> merged =
          MergePairSlots(pairs_, rows_folded_, artifact.pair_table,
                         artifact.rows_seen, &rng_);
      if (!merged.ok()) return merged.status();
      pairs_ = std::move(merged).ValueOrDie();
    }
  }
  rows_folded_ += artifact.rows_seen;
  return Status::OK();
}

Result<MergedFilter> FilterMerger::Finish() && {
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "shard artifacts missing below index " +
        std::to_string(pending_.begin()->first));
  }
  if (!tuple_.has_value()) {
    return Status::InvalidArgument("no shard artifacts were added");
  }
  MergedFilter out;
  out.backend = options_.backend;
  out.total_rows = rows_folded_;
  out.num_shards = next_index_;
  out.tuple_filter = TupleSampleFilter::FromSample(
      std::move(tuple_->sample), std::move(tuple_->provenance),
      options_.detection);
  out.pair_table = std::move(pairs_);
  return out;
}

}  // namespace qikey
