#ifndef QIKEY_MONITOR_INCREMENTAL_FILTER_H_
#define QIKEY_MONITOR_INCREMENTAL_FILTER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/attribute_set.h"
#include "core/evidence_block.h"
#include "core/filter.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// Options for `IncrementalFilter`.
struct IncrementalFilterOptions {
  double eps = 0.001;
  FilterBackend backend = FilterBackend::kTupleSample;
  /// Tuple-sample target; 0 = `TupleSampleSizePaper(m, eps)`. A target
  /// at least as large as the window keeps the whole window retained,
  /// so the filter answers exactly.
  uint64_t sample_size = 0;
  /// Bitset pair-slot count; 0 = `MxPairSampleSizePaper(m, eps)`.
  uint64_t pair_sample_size = 0;
};

/// What one `Insert`/`Erase` did to the retained sample. Consumers that
/// maintain state derived from filter verdicts (the `KeyMonitor`'s
/// minimal-key frontier) repair exactly the regions named here and skip
/// all work when `sample_changed` is false.
struct FilterUpdateDelta {
  /// False iff the update left the retained sample untouched (the
  /// common case: an insert not drawn into the sample, or an erase of
  /// an unretained tuple). Verdicts are then unchanged.
  bool sample_changed = false;
  /// True iff the sample gained separation constraints (a retained
  /// tuple or pair was added): the accepted family can only shrink, so
  /// previously accepted sets need rechecking.
  bool constraints_added = false;
  /// Agree sets of constraints the sample lost (for a dropped tuple
  /// `t`, one region per retained `u`: the attributes `t` and `u`
  /// agreed on; for a dropped pair, its agree set). Every attribute set
  /// that flipped from rejected to accepted is a subset of one of these
  /// regions, so consumers can localize their search for newly minimal
  /// keys. Maximal under inclusion; empty regions are represented by a
  /// single empty set.
  std::vector<AttributeSet> freed_regions;
};

/// \brief A live-updatable ε-separation filter: the paper's sampled
/// filters maintained under `Insert`/`Erase` instead of rebuilt.
///
/// Owns the current window (the live multiset of tuples) plus an
/// incrementally maintained sample of it:
///   - tuple backend (Algorithm 1): a reservoir of `r = Θ(m/√ε)`
///     tuples. Inserts run one Algorithm-R step (the new tuple enters
///     with probability `r/n`); erasing a retained tuple redraws a
///     uniform replacement from the rest of the window. Expected work
///     is O(1) sample edits per update, so maintenance cost tracks
///     sample churn (`~r/n` of inserts), not the stream rate.
///   - bitset backend: `s = Θ(m/ε)` pair slots (the Motwani–Xu
///     sample), each an independent size-2 reservoir over the window;
///     erases redraw the pairs that referenced the dropped tuple.
///     Queries run against `PackedEvidence` patched whenever a retained
///     slot changes — the common untouched updates pay nothing.
///
/// Queries implement `SeparationFilter` against the current sample, so
/// all batched machinery (`QueryBatch`, `EnumerateMinimalAcceptedSets`)
/// applies unchanged. Witness row indices are *window slot ids* (stable
/// while a tuple is live, reused after erase).
class IncrementalFilter : public SeparationFilter {
 public:
  /// An empty window over `schema`'s attributes. All randomness
  /// (sampling decisions, replacement draws) comes from `seed`, so a
  /// fixed seed and update sequence reproduce the filter exactly.
  IncrementalFilter(Schema schema, const IncrementalFilterOptions& options,
                    uint64_t seed);

  static Result<IncrementalFilter> Make(
      Schema schema, const IncrementalFilterOptions& options, uint64_t seed);

  /// Appends one tuple (dictionary codes, one per attribute).
  Result<FilterUpdateDelta> Insert(const std::vector<ValueCode>& row);

  /// Removes one tuple equal to `row` from the window (multiset
  /// semantics); NotFound if no live tuple matches.
  Result<FilterUpdateDelta> Erase(const std::vector<ValueCode>& row);

  /// Redraws the whole sample from the current window (tuple backend:
  /// a fresh uniform `r`-subset; bitset backend: fresh uniform pairs).
  /// Consumers must rebuild verdict-derived state from scratch.
  void Resample();

  // SeparationFilter interface, answered against the current sample.
  FilterVerdict Query(const AttributeSet& attrs) const override;
  std::vector<FilterVerdict> QueryBatch(
      std::span<const AttributeSet> attrs,
      ThreadPool* pool = nullptr) const override;
  std::optional<std::pair<RowIndex, RowIndex>> QueryWitness(
      const AttributeSet& attrs) const override;
  uint64_t sample_size() const override;
  uint64_t MemoryBytes() const override;

  size_t num_attributes() const { return schema_.num_attributes(); }
  const Schema& schema() const { return schema_; }
  uint64_t window_size() const { return live_slots_.size(); }
  /// Tuple target `r` (tuple backend) or pair-slot count (bitset backend).
  uint64_t sample_target() const { return target_; }

  /// Materializes the current window as an immutable data set (rows in
  /// internal order). O(n·m); used by rebuild baselines and reports.
  Dataset WindowDataset() const;

  /// Copies of the retained sample's tuples: one per sampled tuple
  /// (tuple backend), or entries `2i` and `2i+1` for pair slot `i`
  /// (bitset backend). Read-only; for inspection and tests.
  std::vector<std::vector<ValueCode>> SampledRows() const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  bool UsesTupleSample() const {
    return options_.backend == FilterBackend::kTupleSample;
  }
  /// Bitset backend: re-packs all evidence lanes from the current pair
  /// slots. Only for wholesale slot changes — the
  /// empty→full transitions and `Resample` — single slot redraws go
  /// through `PatchEvidencePair`.
  void RebuildEvidence();
  /// Bitset backend: recomputes pair slot `index`'s evidence lane in
  /// place, `O(m)`.
  void PatchEvidencePair(size_t index);

  uint32_t AddSlot(const std::vector<ValueCode>& row);
  void RemoveSlot(uint32_t slot);
  uint32_t FindSlot(const std::vector<ValueCode>& row) const;
  static uint64_t HashRow(const std::vector<ValueCode>& row);

  void SampleAdd(uint32_t slot);
  void SampleRemove(uint32_t slot);
  /// A uniform live slot outside the sample; kNone if the sample
  /// already covers the window.
  uint32_t DrawUnsampledSlot();
  /// Grows the sample back to min(target, window) with uniform draws.
  void TopUpSample(FilterUpdateDelta* delta);
  /// Agree sets of `row` against every retained tuple except
  /// `exclude_slot`, reduced to maximal regions.
  std::vector<AttributeSet> FreedRegionsOfTuple(
      const std::vector<ValueCode>& row, uint32_t exclude_slot) const;
  static void KeepMaximalRegions(std::vector<AttributeSet>* regions);

  Result<FilterUpdateDelta> InsertTuple(uint32_t slot);
  Result<FilterUpdateDelta> EraseTuple(uint32_t slot,
                                       std::vector<ValueCode> row);
  Result<FilterUpdateDelta> InsertPair(uint32_t slot);
  Result<FilterUpdateDelta> ErasePair(uint32_t slot,
                                    std::vector<ValueCode> row);
  AttributeSet PairAgreeSet(uint32_t a, uint32_t b) const;
  std::pair<uint32_t, uint32_t> DrawUniformPair();

  Schema schema_;
  IncrementalFilterOptions options_;
  Rng rng_;
  uint64_t target_ = 0;

  // Window storage: slot id -> payload; erased slots go on a free list
  // and are reused. `live_slots_` is the dense list of live ids for
  // O(1) uniform draws; `live_pos_[slot]` is its position (kNone when
  // dead). `index_` maps row-content hashes to slots for erase-by-
  // content.
  std::vector<std::vector<ValueCode>> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> live_slots_;
  std::vector<uint32_t> live_pos_;
  std::unordered_multimap<uint64_t, uint32_t> index_;

  // Tuple backend: the retained sample as slot ids (dense + position).
  std::vector<uint32_t> sample_slots_;
  std::vector<uint32_t> sample_pos_;

  // Bitset backend: pair slots over window slot ids.
  std::vector<std::pair<uint32_t, uint32_t>> pair_slots_;

  // Bitset backend: packed disagree masks of the pair slots,
  // lane-stable (evidence pair i = slot i, representatives are window
  // slot ids). Kept current eagerly — per-lane patches on slot
  // redraws, full re-packs on wholesale changes — so concurrent
  // readers (QueryBatch on a pool) never race a lazy rebuild.
  PackedEvidence evidence_;
};

}  // namespace qikey

#endif  // QIKEY_MONITOR_INCREMENTAL_FILTER_H_
