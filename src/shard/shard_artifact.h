#ifndef QIKEY_SHARD_SHARD_ARTIFACT_H_
#define QIKEY_SHARD_SHARD_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter.h"
#include "data/dataset.h"
#include "util/status.h"

namespace qikey {

/// \brief Everything one shard contributes to a merged filter: the
/// shard's uniform tuple sample (always — the merged pipeline runs
/// greedy refinement on the merged tuple sample even under the bitset
/// backend), its materialized pair slots (bitset backend only), and the
/// bookkeeping the merge needs (row range and how many rows the samples
/// were drawn from).
///
/// Artifacts are the unit of scale-out: shards can be built in
/// separate processes — each with its own dictionaries — persisted with
/// `WriteShardArtifactFile`, shipped, and merged centrally by
/// `FilterMerger`. Merging re-encodes values, so per-process
/// dictionaries need no coordination.
struct ShardFilterArtifact {
  uint32_t shard_index = 0;
  /// Global index of the shard's first row (provenance base).
  uint64_t first_row = 0;
  /// Rows of the original relation this shard's samples were drawn
  /// from. The merge weights are these counts.
  uint64_t rows_seen = 0;
  FilterBackend backend = FilterBackend::kTupleSample;

  /// Uniform tuple sample of the shard (`min(target, rows_seen)` rows).
  Dataset tuple_sample;
  /// Global original-row index of each sample row.
  std::vector<RowIndex> provenance;

  /// Bitset backend: materialized pair table (rows `2i`, `2i+1` = slot `i`).
  Dataset pair_table;

  /// Bytes retained by the samples (budget accounting).
  uint64_t MemoryBytes() const;

  /// InvalidArgument unless the pair table is empty or carries the tuple
  /// sample's schema names: the merged filter answers attribute sets of
  /// that schema from the pair evidence.
  Status CheckPairTableSchema() const;
};

/// Versioned byte serialization (dataset payloads reuse
/// `SerializeDataset`; see data/serialize.h).
std::string SerializeShardArtifact(const ShardFilterArtifact& artifact);

/// Restores an artifact; returns InvalidArgument (never crashes) on
/// truncated or corrupted bytes.
Result<ShardFilterArtifact> DeserializeShardArtifact(std::string_view bytes);

/// File-backed variants.
Status WriteShardArtifactFile(const ShardFilterArtifact& artifact,
                              const std::string& path);
Result<ShardFilterArtifact> ReadShardArtifactFile(const std::string& path);

}  // namespace qikey

#endif  // QIKEY_SHARD_SHARD_ARTIFACT_H_
