#ifndef QIKEY_SHARD_SHARD_BUILDER_H_
#define QIKEY_SHARD_SHARD_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter.h"
#include "data/dataset.h"
#include "shard/shard_artifact.h"
#include "shard/sharded_loader.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// Options shared by every shard-construction path.
struct ShardedBuildOptions {
  FilterBackend backend = FilterBackend::kTupleSample;
  double eps = 0.001;
  /// Tuples each shard retains; 0 = `TupleSampleSizePaper(m, eps)`.
  /// Every shard samples at the full target rate so the merged sample
  /// is a uniform target-size draw from the whole relation.
  uint64_t tuple_sample_size = 0;
  /// Pair slots per shard (bitset backend); 0 =
  /// `MxPairSampleSizePaper(m, eps)`.
  uint64_t pair_slots = 0;
  /// Shard count; 0 = one per worker thread.
  size_t num_shards = 0;
  /// Workers for the parallel builders; 1 = serial, 0 = one per usable
  /// CPU (`UsableCpuCount`).
  size_t num_threads = 1;
  uint64_t seed = 1;
  CsvOptions csv;
  /// Streaming mode only: see `ShardedLoaderOptions`.
  size_t shard_rows = 0;
  uint64_t memory_budget_bytes = 0;
};

/// \brief Streaming construction of ONE shard's artifact from its CSV
/// records: records are offered once, the tuple reservoir and (for the
/// bitset backend) the per-slot pair reservoirs retain `O(sample)`
/// state, and `Finish` materializes the artifact. The raw shard is never
/// held.
///
/// Only the records a reservoir keeps are split and dictionary-encoded.
/// Both reservoirs plan their next acceptance from the RNG alone, never
/// from the records, so every other record is only width-checked — and
/// the sampled rows are the ones a build that encoded every record
/// would pick.
///
/// Each builder owns private dictionaries (holding the values of the
/// encoded records only), so builders can run in different threads — or
/// different processes — with zero coordination; the merge re-encodes.
class ShardArtifactBuilder {
 public:
  ShardArtifactBuilder(std::vector<std::string> attribute_names,
                       const CsvOptions& csv, FilterBackend backend,
                       uint64_t tuple_sample_size, uint64_t pair_slots,
                       uint32_t shard_index, uint64_t first_row,
                       uint64_t seed);
  ~ShardArtifactBuilder();

  ShardArtifactBuilder(ShardArtifactBuilder&&) noexcept;
  ShardArtifactBuilder& operator=(ShardArtifactBuilder&&) noexcept = delete;

  /// Offers the shard's next data record (its text, as
  /// `ForEachCsvRecordInRange` yields it; it need only live for the
  /// call). A record whose field count differs from the attribute count
  /// is InvalidArgument, whether or not it is sampled.
  Status OfferRecord(std::string_view record);

  uint64_t rows_seen() const;

  Result<ShardFilterArtifact> Finish() &&;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief Builds every shard artifact for an in-memory data set by
/// splitting it into near-equal row ranges and sampling each range
/// independently (in parallel when `num_threads > 1`). Deterministic
/// for a fixed seed at any thread count.
Result<std::vector<ShardFilterArtifact>> BuildShardArtifacts(
    const Dataset& dataset, const ShardedBuildOptions& options);

/// \brief Scale-out CSV construction: opens the file once (`FileText`),
/// plans record-aligned byte ranges of its text (`PlanCsvShards`), then
/// samples every range on its own worker through a
/// `ShardArtifactBuilder`, which splits and encodes only the records
/// its reservoirs keep. Per-worker memory is `O(sample + dictionary of
/// the sampled values)`, not `O(rows)`.
Result<std::vector<ShardFilterArtifact>> BuildShardArtifactsFromCsv(
    const std::string& path, const ShardedBuildOptions& options);

/// \brief Bounded-memory sequential construction: single-passes the
/// file through `ShardedLoader` (shared dictionary, one chunk resident)
/// and emits one artifact per chunk to `consumer` — which typically
/// folds it into a `FilterMerger` immediately, keeping the whole run
/// within the memory budget. `consumer_tracked` joins the budget check.
Result<ShardedIngestStats> StreamCsvShardArtifacts(
    const std::string& path, const ShardedBuildOptions& options,
    const std::function<Status(ShardFilterArtifact)>& consumer,
    const std::function<uint64_t()>& consumer_tracked = nullptr);

/// Samples one artifact from a materialized chunk (rows already
/// encoded). Used by the streaming path and by tests.
Result<ShardFilterArtifact> BuildArtifactFromChunk(
    const Dataset& chunk, uint64_t first_row, uint32_t shard_index,
    FilterBackend backend, uint64_t tuple_sample_size, uint64_t pair_slots,
    Rng* rng);

/// Resolves the 0-defaulted sample sizes against `m` attributes.
void ResolveShardSampleSizes(const ShardedBuildOptions& options, uint32_t m,
                             uint64_t* tuple_sample_size,
                             uint64_t* pair_slots);

}  // namespace qikey

#endif  // QIKEY_SHARD_SHARD_BUILDER_H_
