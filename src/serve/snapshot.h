#ifndef QIKEY_SERVE_SNAPSHOT_H_
#define QIKEY_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/attribute_set.h"
#include "core/filter.h"
#include "data/dataset.h"
#include "engine/pipeline.h"
#include "monitor/key_monitor.h"
#include "shard/shard_artifact.h"
#include "util/status.h"

namespace qikey {

/// \brief One immutable, epoch-numbered unit of serving state: the
/// artifact a discovery run produces once and a `QueryEngine` answers
/// from many times.
///
/// Everything inside is immutable after `SnapshotStore::Publish`, so
/// any number of request threads may read it concurrently with no
/// locking; all answers are pure functions of the snapshot.
///
/// `sample` is the retained tuple sample the snapshot evaluates
/// `separation`/`afd`/`anonymity` requests against — answers are
/// sample-level estimates, exact whenever the snapshot retains the
/// full relation (small tables, monitor windows within the sample
/// target).
struct ServeSnapshot {
  /// Assigned by `SnapshotStore::Publish`; 0 = never published. A
  /// snapshot restored from a QSNP1 file carries the epoch recorded at
  /// save time, which `Publish` treats as a floor (epoch continuity
  /// across restarts).
  uint64_t epoch = 0;
  /// The ε the snapshot was discovered with (classifies `separation`).
  double eps = 0.0;
  /// Rows of the relation the snapshot summarizes.
  uint64_t source_rows = 0;
  /// Evaluation surface for sample-based requests. Never null.
  std::shared_ptr<const Dataset> sample;
  /// The ε-separation filter answering `is-key`. Never null.
  std::shared_ptr<const SeparationFilter> filter;
  /// Canonically ordered minimal keys (may be empty). Never null.
  std::shared_ptr<const std::vector<AttributeSet>> keys;

  const Schema& schema() const { return sample->schema(); }

  /// One-line summary ("epoch 3: 150000 rows, 842-tuple sample, ...").
  std::string Describe() const;
};

/// Freezes a finished pipeline run into a snapshot: the run's greedy
/// sample is shared (not copied), and the emitted key becomes the
/// snapshot's single tracked minimal key. A tuple verify filter is
/// shared too; a bitset one is replaced by a filter over its evidence's
/// `MinimalAntichain` with the same declared pair count, which answers
/// every is-key request identically. `eps` is the pipeline's option
/// (the result does not carry it).
Result<ServeSnapshot> SnapshotFromPipelineResult(const PipelineResult& result,
                                                 double eps);

/// Freezes a live monitor's current state: the window is materialized
/// into an immutable exact filter (the serving filter must not share
/// mutable state with the writer) and the frontier is taken from the
/// monitor's latest published snapshot. Call from the writer thread or
/// with updates paused — the monitor's window is read directly.
Result<ServeSnapshot> SnapshotFromMonitor(const KeyMonitor& monitor);

/// Merges shard artifacts (e.g. read back via `ReadShardArtifactFile`)
/// and finishes discovery under `options`, freezing the outcome. The
/// central-merge deployment: shard builders ship artifacts, the serving
/// tier loads them.
Result<ServeSnapshot> SnapshotFromShardArtifacts(
    std::vector<ShardFilterArtifact> artifacts,
    const PipelineOptions& options, uint64_t seed);

/// \brief Declarative description of where a serving snapshot comes
/// from — the single entry point behind `qikey serve --snapshot-from`.
///
/// Three deployments, one loader:
///   kPipelineRun    — run the discovery pipeline once on `csv_path`
///                     (`pipeline`, `seed`; sample-first, so only the
///                     sampled rows are encoded), freeze the result.
///   kMonitor        — replay `csv_path` through an incremental
///                     `KeyMonitor` (optionally a sliding `window`),
///                     freeze its final state.
///   kShardArtifacts — read each of `artifact_paths` (written by shard
///                     builders via `WriteShardArtifactFile`), merge,
///                     finish discovery, freeze.
struct SnapshotSource {
  enum class Kind { kPipelineRun, kMonitor, kShardArtifacts };

  Kind kind = Kind::kPipelineRun;
  /// Input CSV (kPipelineRun, kMonitor).
  std::string csv_path;
  /// Shard artifact files (kShardArtifacts).
  std::vector<std::string> artifact_paths;
  /// eps / backend / threads for discovery; also reused as the
  /// monitor's eps/backend/threads.
  PipelineOptions pipeline;
  uint64_t seed = 1;
  /// Monitor-only: key-size ceiling and sliding-window capacity
  /// (0 = unbounded window).
  uint32_t max_key_size = 4;
  uint64_t window = 0;
};

/// Builds a publishable snapshot from `source` by dispatching to the
/// matching `SnapshotFrom*` builder above. Every error (missing file,
/// bad artifact, pipeline failure) comes back as a status — callers
/// need exactly one code path regardless of deployment.
Result<ServeSnapshot> LoadSnapshot(const SnapshotSource& source);

/// \brief Thread-safe holder of the current serving snapshot.
///
/// One writer (or several, externally ordered) publishes; any number of
/// readers get the latest snapshot wait-free through an atomic
/// `shared_ptr` — the `MonitorSnapshot` pattern promoted to a
/// standalone component. Readers pin a snapshot for the duration of a
/// request (or batch), so a concurrent publish never changes answers
/// mid-request; the old snapshot is freed when its last reader drops
/// it.
class SnapshotStore {
 public:
  SnapshotStore() = default;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Stamps the next epoch onto `snapshot` and makes it current.
  /// Returns the assigned epoch (starting at 1). InvalidArgument if the
  /// snapshot is missing its sample/filter/keys.
  ///
  /// A snapshot arriving with a nonzero epoch (restored from a QSNP1
  /// file that recorded it) re-enters the sequence at
  /// `max(store epoch + 1, its recorded epoch)` — epochs stay
  /// monotonic across restarts, and clients comparing epochs across a
  /// restart never see time move backwards.
  Result<uint64_t> Publish(ServeSnapshot snapshot);

  /// The latest published snapshot; null before the first `Publish`.
  /// Safe from any thread.
  std::shared_ptr<const ServeSnapshot> Current() const;

  /// Epoch of the latest publish; 0 before the first. NOT a publish
  /// count: a snapshot restored with a recorded epoch fast-forwards
  /// this (see `Publish`).
  uint64_t epoch() const {
    return next_epoch_.load(std::memory_order_acquire);
  }

  /// Publishes THIS store performed (1 per successful `Publish`),
  /// regardless of where the epoch sequence started.
  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// Steady-clock timestamp (ns) of the latest publish; 0 before the
  /// first. Observability reads this to report current-snapshot age.
  int64_t last_publish_steady_ns() const {
    return last_publish_ns_.load(std::memory_order_relaxed);
  }

 private:
  // Lock-free publication seam — deliberately no mutex capability
  // here. `current_` is the atomically published pointer readers pin;
  // `next_epoch_` advances by CAS (max-then-advance is not a single
  // fetch_add); the two stat cells are relaxed. The thread-safety
  // contract is "writers externally ordered, readers wait-free", which
  // the annotations cannot express — the concurrency-* clang-tidy
  // checks and the TSan job cover this file instead.
  std::atomic<std::shared_ptr<const ServeSnapshot>> current_;
  std::atomic<uint64_t> next_epoch_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<int64_t> last_publish_ns_{0};
};

}  // namespace qikey

#endif  // QIKEY_SERVE_SNAPSHOT_H_
