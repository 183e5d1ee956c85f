#ifndef QIKEY_SHARD_SHARD_BUILDER_H_
#define QIKEY_SHARD_SHARD_BUILDER_H_

#include <cstdint>
#include <istream>
#include <optional>
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
  /// `StreamCsvShardArtifact` only: when > 0, the build fails with
  /// OutOfRange once its live bytes (read buffer, retained rows,
  /// dictionaries) exceed this budget.
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
  /// call). Returns nullopt, or — whether or not the record is sampled —
  /// its field count when that differs from the attribute count. The
  /// build has then failed; the caller, who knows where the record sits
  /// in the file, reports it with `CsvWidthError`.
  std::optional<size_t> OfferRecord(std::string_view record);

  uint64_t rows_seen() const;

  /// Live bytes the build holds: the codes of every retained row (the
  /// tuple reservoir plus every pair payload row, referenced or kept for
  /// reuse) and an estimate of the dictionaries.
  uint64_t RetainedBytes() const;

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

/// \brief Bounded-memory construction: reads `path` once (it may be a
/// pipe) through `WalkCsvRecords`' sliding buffer and offers every data
/// record to ONE `ShardArtifactBuilder` over the whole file, seeded as
/// `BuildShardArtifactsFromCsv` seeds its first shard, so the artifact is
/// the one-shard build's. With `memory_budget_bytes` > 0 the build fails
/// with OutOfRange once the read buffer plus the builder's
/// `RetainedBytes` exceed it. `peak_tracked_bytes`, when set, receives
/// the peak of that sum.
Result<ShardFilterArtifact> StreamCsvShardArtifact(
    const std::string& path, const ShardedBuildOptions& options,
    uint64_t* peak_tracked_bytes = nullptr);

namespace internal {

/// `StreamCsvShardArtifact` over an open stream (a test seam: the fuzz
/// target drives it from memory).
Result<ShardFilterArtifact> StreamCsvShardArtifact(
    std::istream& in, const ShardedBuildOptions& options,
    uint64_t* peak_tracked_bytes);

}  // namespace internal

/// Resolves the 0-defaulted sample sizes against `m` attributes.
void ResolveShardSampleSizes(const ShardedBuildOptions& options, uint32_t m,
                             uint64_t* tuple_sample_size,
                             uint64_t* pair_slots);

}  // namespace qikey

#endif  // QIKEY_SHARD_SHARD_BUILDER_H_
