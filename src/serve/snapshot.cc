#include "serve/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/bitset_filter.h"
#include "core/sample_bounds.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "util/rng.h"

namespace qikey {

std::string ServeSnapshot::Describe() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "epoch %llu: %llu source rows, %zu-tuple sample, %llu "
                "filter samples, %zu minimal key(s), eps %g",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(source_rows),
                sample->num_rows(),
                static_cast<unsigned long long>(filter->sample_size()),
                keys->size(), eps);
  return line;
}

Result<ServeSnapshot> SnapshotFromPipelineResult(const PipelineResult& result,
                                                 double eps) {
  QIKEY_RETURN_NOT_OK(ValidateEps(eps));
  if (result.filter == nullptr || result.sample == nullptr) {
    return Status::InvalidArgument(
        "pipeline result carries no filter/sample (errored or moved-from "
        "run?)");
  }
  ServeSnapshot snapshot;
  snapshot.eps = eps;
  snapshot.source_rows = result.rows;
  snapshot.sample = result.sample;
  snapshot.filter = result.filter;
  // A bitset filter serves its minimal-mask antichain: the same
  // verdicts from fewer blocks. is-key answers carry no witness, so
  // nothing served depends on the masks it drops.
  if (const auto* bitset =
          dynamic_cast<const BitsetSeparationFilter*>(result.filter.get())) {
    Result<BitsetSeparationFilter> minimal =
        BitsetSeparationFilter::FromPackedEvidence(
            bitset->evidence().MinimalAntichain(), bitset->sample_size());
    if (!minimal.ok()) return minimal.status();
    snapshot.filter =
        std::make_shared<const BitsetSeparationFilter>(std::move(*minimal));
  }
  snapshot.keys = std::make_shared<const std::vector<AttributeSet>>(
      std::vector<AttributeSet>{result.key});
  return snapshot;
}

Result<ServeSnapshot> SnapshotFromMonitor(const KeyMonitor& monitor) {
  std::shared_ptr<const MonitorSnapshot> latest = monitor.Snapshot();
  if (latest == nullptr) {
    return Status::InvalidArgument("monitor has no published snapshot");
  }
  ServeSnapshot snapshot;
  snapshot.eps = monitor.options().eps;
  snapshot.source_rows = monitor.filter().window_size();
  // Freeze the live window into an immutable exact filter: the serving
  // side must not share the writer's mutable sample. Row indices in
  // witnesses are window positions at freeze time.
  auto window =
      std::make_shared<Dataset>(monitor.filter().WindowDataset());
  snapshot.filter = std::make_shared<const TupleSampleFilter>(
      TupleSampleFilter::FromSample(window, /*original_rows=*/{},
                                    DuplicateDetection::kSort));
  snapshot.sample = std::move(window);
  snapshot.keys = latest->keys;
  return snapshot;
}

Result<ServeSnapshot> SnapshotFromShardArtifacts(
    std::vector<ShardFilterArtifact> artifacts,
    const PipelineOptions& options, uint64_t seed) {
  DiscoveryPipeline pipeline(options);
  Result<PipelineResult> result =
      pipeline.RunOnShardArtifacts(std::move(artifacts), seed);
  if (!result.ok()) return result.status();
  return SnapshotFromPipelineResult(*result, options.eps);
}

Result<ServeSnapshot> LoadSnapshot(const SnapshotSource& source) {
  switch (source.kind) {
    case SnapshotSource::Kind::kPipelineRun: {
      // Sample-first: only the rows the draws name are encoded. The
      // result owns everything it serves (the sample with its
      // dictionaries, packed evidence); nothing refers to the file.
      DiscoveryPipeline pipeline(source.pipeline);
      Rng rng(source.seed);
      Result<PipelineResult> result = pipeline.Run(source.csv_path, &rng);
      if (!result.ok()) return result.status();
      return SnapshotFromPipelineResult(*result, source.pipeline.eps);
    }
    case SnapshotSource::Kind::kMonitor: {
      Result<Dataset> data = LoadCsvDataset(source.csv_path);
      if (!data.ok()) return data.status();
      MonitorOptions opts;
      opts.eps = source.pipeline.eps;
      opts.backend = source.pipeline.backend;
      opts.num_threads = source.pipeline.num_threads;
      opts.max_key_size = source.max_key_size;
      opts.window_capacity = source.window;
      Result<std::unique_ptr<KeyMonitor>> monitor =
          KeyMonitor::Make(data->schema(), opts, source.seed);
      if (!monitor.ok()) return monitor.status();
      QIKEY_RETURN_NOT_OK((*monitor)->InsertDataset(*data));
      return SnapshotFromMonitor(**monitor);
    }
    case SnapshotSource::Kind::kShardArtifacts: {
      if (source.artifact_paths.empty()) {
        return Status::InvalidArgument(
            "snapshot source lists no shard artifact files");
      }
      std::vector<ShardFilterArtifact> artifacts;
      artifacts.reserve(source.artifact_paths.size());
      for (const std::string& path : source.artifact_paths) {
        Result<ShardFilterArtifact> artifact = ReadShardArtifactFile(path);
        if (!artifact.ok()) return artifact.status();
        artifacts.push_back(std::move(*artifact));
      }
      return SnapshotFromShardArtifacts(std::move(artifacts),
                                        source.pipeline, source.seed);
    }
  }
  return Status::InvalidArgument("unknown snapshot source kind");
}

Result<uint64_t> SnapshotStore::Publish(ServeSnapshot snapshot) {
  if (snapshot.sample == nullptr || snapshot.filter == nullptr ||
      snapshot.keys == nullptr) {
    return Status::InvalidArgument(
        "snapshot must carry a sample, a filter, and keys");
  }
  // A restored snapshot re-enters the epoch sequence where its file
  // left off; a fresh one just takes the next number. CAS loop because
  // max-then-advance is not a single fetch_add.
  uint64_t prev = next_epoch_.load(std::memory_order_acquire);
  uint64_t epoch;
  do {
    epoch = std::max(prev + 1, snapshot.epoch);
  } while (!next_epoch_.compare_exchange_weak(prev, epoch,
                                              std::memory_order_acq_rel));
  snapshot.epoch = epoch;
  publishes_.fetch_add(1, std::memory_order_relaxed);
  current_.store(std::make_shared<const ServeSnapshot>(std::move(snapshot)),
                 std::memory_order_release);
  last_publish_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  return epoch;
}

std::shared_ptr<const ServeSnapshot> SnapshotStore::Current() const {
  return current_.load(std::memory_order_acquire);
}

}  // namespace qikey
