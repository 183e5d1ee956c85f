#ifndef QIKEY_STREAM_PAIR_SLOTS_H_
#define QIKEY_STREAM_PAIR_SLOTS_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"
#include "util/status.h"

namespace qikey {

/// \file
/// The pair sample of Motwani–Xu (VLDB 2007): `s` slots, each an
/// independent uniform pair of distinct tuples. Every pair filter draws,
/// streams and merges its slots here, in one of three ways: drawn from a
/// table in memory (`DrawPairSlots`), kept by a one-pass reservoir
/// (`PairReservoir`), or folded from two disjoint populations
/// (`MergePairSlots`).
///
/// A *pair-slot table* is a `Dataset` whose rows `2i` and `2i+1` hold
/// slot `i`'s two tuples.

/// Draws `s` slots from rows `[0, n)`, one `Rng::SamplePair` call each, in
/// slot order. Requires `n >= 2`.
std::vector<std::pair<RowIndex, RowIndex>> DrawPairSlots(uint64_t n,
                                                         uint64_t s, Rng* rng);

/// \brief One-pass uniform sampling of `s` pair slots over a stream,
/// retaining the payloads (value codes) of the positions the slots hold.
///
/// Each slot is an independent size-2 reservoir (Vitter's Algorithm R,
/// ACM TOMS 1985, with k = 2): after `t` items, slot `i` holds a uniform
/// 2-subset of `[0, t)`. Instead of flipping a coin per slot per item
/// (O(s·n) total), each slot's next replacement time is drawn directly
/// from its closed-form distribution — the survival probability from
/// item count `t` to `c` telescopes to `t(t-1)/(c(c-1))`, so inversion
/// sampling gives the next replacement in O(1) — and slots wait for that
/// time in a calendar: a ring of per-count buckets for the next
/// `W = min(bit_ceil(s), 4096)` counts, and a min-heap beyond it. Slots
/// due at one count are replaced in slot order, the order one heap keyed
/// by (count, slot) would give. Total work is `O(n + s·log s·log n)`
/// expected; most replacements fall in the first counts, where the ring
/// spares them the heap.
///
/// `Offer` draws from the RNG alone, never from the item, so a caller
/// can learn whether an item is kept before it builds the payload:
/// `Retain` it only then. Payloads are reference-counted by the slot
/// ends that hold them, and a row no end references is reused by the
/// next `Retain` (releasing draws nothing), so at most `2s` payload rows
/// are ever held, in one flat buffer reserved at the first `Retain`.
class PairReservoir {
 public:
  PairReservoir(size_t num_slots, Rng* rng);

  /// Advances the stream by one item (position `seen()`); returns true
  /// if any slot now references this position. The caller must then
  /// `Retain` its payload before the next `Offer`, or those slot ends
  /// hold no payload (and `TakeColumns` fails).
  bool Offer();

  /// Keeps `row` as the payload of the item the last `Offer` kept. Every
  /// row has the width of the first.
  void Retain(const std::vector<ValueCode>& row);

  uint64_t seen() const { return seen_; }
  size_t num_slots() const { return slots_.size(); }
  /// Payload rows held: the ones the slots reference, plus released
  /// ones kept for reuse. Never more than `2 * num_slots()`.
  size_t retained() const { return refs_.size(); }

  /// The sampled pairs as stream positions; valid once `seen() >= 2`.
  const std::vector<std::pair<uint64_t, uint64_t>>& pairs() const {
    return slots_;
  }

  /// The retained payloads as the columns of a pair-slot table: entry
  /// `2i` (`2i+1`) of column `j` is field `j` of slot `i`'s first
  /// (second) end. Each column is written straight from the payload
  /// buffer, which is freed before this returns, so the codes are held
  /// at most twice, never once per row. Valid once `seen() >= 2`, with
  /// every kept item retained.
  std::vector<std::vector<ValueCode>> TakeColumns() &&;

 private:
  static constexpr uint32_t kNoRow = ~uint32_t{0};

  /// Draws the item count (1-based) of the slot's next replacement,
  /// given the current count `t >= 2`.
  uint64_t NextReplacementCount(uint64_t t);

  /// Points slot end `end` (an entry of `slot_rows_`) at the item being
  /// offered, releasing the payload row it held.
  void Repoint(uint32_t* end);

  /// Files `slot` under item count `due` (> `count`, the current one).
  void Schedule(uint64_t count, uint64_t due, uint32_t slot);

  std::vector<std::pair<uint64_t, uint64_t>> slots_;
  Rng* rng_;
  uint64_t seen_ = 0;
  // Slots by next replacement item count: within the ring's window in
  // `near_[count % W]`, later in the min-heap `far_` of (count, slot).
  std::vector<std::vector<uint32_t>> near_;
  using Entry = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> far_;
  // Payload row of each slot's two ends (kNoRow until retained).
  std::vector<std::pair<uint32_t, uint32_t>> slot_rows_;
  // Slot ends the last `Offer` pointed at its item, awaiting `Retain`.
  std::vector<uint32_t*> pending_;
  // Payload rows, `width_` codes each, with the count of slot ends that
  // reference each; rows at zero are listed in `free_rows_`.
  std::vector<ValueCode> codes_;
  std::vector<uint32_t> refs_;
  std::vector<uint32_t> free_rows_;
  size_t width_ = 0;
};

/// \brief Merges two pair-slot tables with equal, non-zero slot counts,
/// drawn over DISJOINT populations of `seen_a` and `seen_b` rows, into
/// one whose every slot holds a uniform pair of the union — the per-slot
/// union behind sharded construction.
///
/// Per slot (independently, with exact integer-arithmetic category
/// probabilities): with probability `C(seen_a,2)/C(n,2)` keep a's pair,
/// with `C(seen_b,2)/C(n,2)` keep b's, otherwise form a cross pair from
/// one uniform endpoint of each (a uniform element of a uniform pair is
/// a uniform row). Values are re-encoded through a union dictionary
/// (`ConcatDatasets`), so the tables need equal schema names. Requires
/// `seen >= 2` on both sides and `seen_a + seen_b` within `RowIndex`
/// range.
Result<Dataset> MergePairSlots(const Dataset& a, uint64_t seen_a,
                               const Dataset& b, uint64_t seen_b, Rng* rng);

}  // namespace qikey

#endif  // QIKEY_STREAM_PAIR_SLOTS_H_
