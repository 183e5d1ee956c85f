#ifndef QIKEY_ENGINE_PIPELINE_H_
#define QIKEY_ENGINE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/attribute_set.h"
#include "core/filter.h"
#include "core/refine_engine.h"
#include "core/tuple_sample_filter.h"
#include "data/dataset.h"
#include "monitor/key_monitor.h"
#include "shard/shard_artifact.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

class CsvRowReader;

/// Options for `DiscoveryPipeline`. Defaults reproduce the paper's
/// Table-1 regime serially; `num_threads` > 1 parallelizes the greedy
/// gain scans and every batched filter query on one shared pool.
struct PipelineOptions {
  double eps = 0.001;
  FilterBackend backend = FilterBackend::kTupleSample;
  GainStrategy gain_strategy = GainStrategy::kLookupTable;
  DuplicateDetection detection = DuplicateDetection::kSort;
  /// Tuples retained for the greedy sample; 0 = `TupleSampleSizePaper`.
  uint64_t sample_size = 0;
  /// Pairs retained by the bitset backend; 0 = `MxPairSampleSizePaper`.
  uint64_t pair_sample_size = 0;
  /// Worker threads; 1 = serial, 0 = one per usable CPU.
  size_t num_threads = 1;
  /// Stop greedy after this many attributes.
  size_t max_attributes = ~size_t{0};
  /// Run the batched minimization pass on the greedy key.
  bool minimize = true;
};

/// Wall-clock cost of one pipeline stage.
struct PipelineStage {
  std::string name;
  double millis = 0.0;
};

/// How `RunSharded` splits and ingests the input.
struct ShardedRunOptions {
  /// Shard count; 0 = one per worker thread.
  size_t num_shards = 0;
  /// When > 0, the CSV entry point reads the file once (it may be a
  /// pipe) through one streaming shard builder and fails (OutOfRange)
  /// if the live bytes — read buffer, retained rows, dictionaries —
  /// ever exceed this budget. When 0, the CSV entry point fans
  /// record-aligned byte ranges out over the worker threads (each
  /// parsing with private dictionaries).
  uint64_t memory_budget_bytes = 0;
  CsvOptions csv;
};

/// Everything the pipeline learned about one data set.
struct PipelineResult {
  /// The emitted quasi-identifier (after minimization when enabled).
  AttributeSet key;
  /// True iff the greedy sample was fully separated by `key`.
  bool covered_sample = false;
  /// The backend filter's verdict on `key` (the verify stage).
  FilterVerdict verdict = FilterVerdict::kAccept;
  /// When the verify stage rejects: a pair of original rows that `key`
  /// fails to separate.
  std::optional<std::pair<RowIndex, RowIndex>> witness;
  /// Greedy trace (attribute picked and pairs newly covered per round).
  std::vector<RefineEngine::Step> steps;
  /// Attributes removed from the greedy key by the minimization pass.
  uint32_t pruned_attributes = 0;

  uint64_t rows = 0;
  uint64_t attributes = 0;
  uint64_t tuple_sample_size = 0;   ///< rows retained for greedy
  uint64_t filter_sample_size = 0;  ///< tuples or pairs in the filter
  uint64_t filter_bytes = 0;        ///< filter memory footprint
  uint64_t num_shards = 0;          ///< > 0 when built by RunSharded
  /// RunSharded: with a memory budget, the peak live ingest bytes (read
  /// buffer + retained rows + dictionaries), the number the budget
  /// bounds; otherwise the artifacts' bytes plus the filter's.
  uint64_t peak_tracked_bytes = 0;

  std::vector<PipelineStage> stages;
  double total_millis = 0.0;

  /// The verify-stage filter and the greedy sample it cross-checked,
  /// shared out of the run so the result is directly loadable into a
  /// `ServeSnapshot` (serve/snapshot.h) without re-running discovery.
  /// Always set on a successful run.
  std::shared_ptr<const SeparationFilter> filter;
  std::shared_ptr<const Dataset> sample;

  /// Multi-line human-readable summary (names resolved via `schema`).
  std::string Report(const Schema* schema = nullptr) const;
};

/// \brief End-to-end quasi-identifier discovery: the full workflow of
/// the paper run as one orchestrated, instrumented pass.
///
/// Stages:
///   1. sample   — draw the `Θ(m/√ε)` tuple sample (or consume a
///                 reservoir already drawn from a stream);
///   2. filter   — build the configured `SeparationFilter`;
///   3. greedy   — `RefineEngine::RunGreedy` on the sample (partition
///                 refinement, optionally thread-parallel gains);
///   4. minimize — drop redundant greedy picks, one batched
///                 `QueryBatch` per round;
///   5. verify   — query the emitted key against the filter and report
///                 a witness pair when it is rejected.
///
/// Results are deterministic for a fixed seed regardless of
/// `num_threads`.
class DiscoveryPipeline {
 public:
  explicit DiscoveryPipeline(const PipelineOptions& options)
      : options_(options) {}

  /// Runs all stages against an in-memory data set.
  Result<PipelineResult> Run(const Dataset& dataset, Rng* rng) const;

  /// \brief Sample-first entry: runs all stages on a CSV file, encoding
  /// only the rows the draws name.
  ///
  /// The records are indexed and width-checked first (`CsvRowReader`);
  /// then the tuple draw and, on the bitset backend, the pair draw run
  /// over the record count exactly as `Run(const Dataset&)` runs them
  /// (neither reads a value), so for the same `rng` the result — key,
  /// greedy steps, verdict, witness rows — is `Run`'s on
  /// `LoadCsvDataset(csv_path)`, and so are its errors. Only the sample's
  /// dictionaries differ: they hold the encoded rows' values, not the
  /// whole columns'. Its stages start with "read" (the index).
  Result<PipelineResult> Run(const std::string& csv_path, Rng* rng) const;

  /// As `Run(csv_path)` on a file already opened (so a caller can tell
  /// the file's own errors from the pipeline's); its stages start with
  /// "sample", as `Run(const Dataset&)`'s do.
  Result<PipelineResult> Run(const CsvRowReader& reader, Rng* rng) const;

  /// Streaming entry: consumes a tuple reservoir already drawn from a
  /// stream (e.g. `StreamingTupleFilterBuilder`'s sample), skipping the
  /// sample stage. `provenance[i]`, when non-empty, is the original
  /// stream position of sample row `i` (used for witness reporting).
  /// Only the tuple-sample backend is available — the bitset backend
  /// needs pair sampling the reservoir cannot provide.
  Result<PipelineResult> RunOnReservoir(
      const Dataset& sample, std::vector<RowIndex> provenance) const;

  /// Incremental entry: primes a `KeyMonitor` with `initial` (which may
  /// be empty) under this pipeline's options and returns it ready for
  /// live `Insert`/`Erase` traffic. Where `Run` answers once,
  /// the monitor keeps the minimal-key frontier — and with it the
  /// emitted quasi-identifier — current under updates without
  /// re-running sample→filter→greedy→minimize. `max_key_size` caps the
  /// tracked frontier (see `MonitorOptions`).
  Result<std::unique_ptr<KeyMonitor>> RunIncremental(
      const Dataset& initial, uint32_t max_key_size, uint64_t seed) const;

  /// \brief Scale-out entry: splits the data set into row-range shards,
  /// samples each independently (in parallel), merges the per-shard
  /// filters (`FilterMerger`) and runs greedy/minimize/verify on the
  /// merged state. Same minimal-key behavior as `Run` — the merged
  /// sample is distributed exactly as a single-pass draw — with filter
  /// construction spread across cores. Deterministic for a fixed seed
  /// at any thread count.
  Result<PipelineResult> RunSharded(const Dataset& dataset,
                                    const ShardedRunOptions& sharded,
                                    uint64_t seed) const;

  /// \brief Out-of-core entry: ingests a CSV file directly. With a
  /// memory budget, single-passes the file through one streaming shard
  /// builder (`StreamCsvShardArtifact`: peak memory independent of file
  /// size, and the same artifact as a one-shard build); without one,
  /// fans record-aligned byte ranges out over workers. Either way the
  /// artifacts go through `RunOnShardArtifacts`.
  Result<PipelineResult> RunSharded(const std::string& csv_path,
                                    const ShardedRunOptions& sharded,
                                    uint64_t seed) const;

  /// \brief Central-merge entry: consumes shard artifacts built
  /// elsewhere (other processes, `ReadShardArtifactFile`) and finishes
  /// discovery on the merged filter.
  Result<PipelineResult> RunOnShardArtifacts(
      std::vector<ShardFilterArtifact> artifacts, uint64_t seed) const;

  const PipelineOptions& options() const { return options_; }

 private:
  Result<PipelineResult> RunStages(const Dataset* full,
                                   std::shared_ptr<Dataset> sample,
                                   std::vector<RowIndex> provenance,
                                   Rng* rng) const;

  /// Shared tail: greedy -> minimize -> verify on a prebuilt filter.
  Result<PipelineResult> FinishStages(std::shared_ptr<Dataset> sample,
                                      std::unique_ptr<SeparationFilter> filter,
                                      double filter_millis) const;

  PipelineOptions options_;
};

}  // namespace qikey

#endif  // QIKEY_ENGINE_PIPELINE_H_
