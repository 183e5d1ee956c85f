#ifndef QIKEY_CORE_EVIDENCE_BLOCK_H_
#define QIKEY_CORE_EVIDENCE_BLOCK_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace qikey {

/// \brief SIMD tier of the block kernels (`FindUnseparated`,
/// `TestMasksBlockMajor`).
///
/// The scalar tier is always compiled in: it is the differential oracle
/// for the AVX2 tier and the path on CPUs without AVX2. Both tiers
/// produce bit-identical verdicts and witness indices. The AVX2 tier
/// widens the per-attribute OR to 4 consecutive 64-pair blocks without
/// changing the storage layout, so mmap-borrowed snapshot words are
/// served unmodified.
enum class EvidenceKernel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Tier name: "scalar" or "avx2".
const char* EvidenceKernelName(EvidenceKernel kernel);

/// \brief The tier block queries dispatch to right now.
///
/// The first call resolves it from the CPU (`__builtin_cpu_supports`:
/// AVX2 when the CPU has it, else scalar) — unless the
/// `QIKEY_FORCE_SCALAR` environment variable is set to anything other
/// than empty or "0", which pins the scalar oracle for differential
/// runs. The resolved tier is cached process-wide.
EvidenceKernel ActiveEvidenceKernel();

/// \brief Overrides kernel dispatch: "scalar", "avx2", or "auto" (re-run
/// CPU detection, still honoring QIKEY_FORCE_SCALAR).
/// Fails without changing dispatch when this build or CPU lacks the
/// requested tier. Thread-compatible with concurrent queries (the tier
/// is an atomic), but meant for test/bench setup, not steady state.
Status SetEvidenceKernel(std::string_view name);

/// \brief Cache-line-aligned backing store for packed evidence words.
///
/// `std::vector<uint64_t>` only guarantees 8/16-byte alignment; the
/// block kernels want each 64-pair block to start on a cache line so
/// one block never straddles three lines. The buffer over-allocates by
/// one line and hands out an aligned view. Copies re-align into the new
/// allocation; moves keep the heap block, so the view stays valid.
///
/// `Borrow` turns the buffer into a read-only view over words owned
/// elsewhere (an mmap-ed snapshot section): no allocation, and copies
/// keep pointing at the external words. The external storage must stay
/// 64-byte aligned and alive for the lifetime of the buffer and all its
/// copies, and must never be written through this view.
class AlignedWordBuffer {
 public:
  AlignedWordBuffer() = default;
  explicit AlignedWordBuffer(size_t words) { Assign(words); }

  AlignedWordBuffer(const AlignedWordBuffer& other) { CopyFrom(other); }
  AlignedWordBuffer& operator=(const AlignedWordBuffer& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  AlignedWordBuffer(AlignedWordBuffer&& other) noexcept
      : storage_(std::move(other.storage_)),
        data_(other.data_),
        size_(other.size_),
        borrowed_(other.borrowed_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.borrowed_ = false;
  }
  AlignedWordBuffer& operator=(AlignedWordBuffer&& other) noexcept {
    storage_ = std::move(other.storage_);
    data_ = other.data_;
    size_ = other.size_;
    borrowed_ = other.borrowed_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.borrowed_ = false;
    return *this;
  }

  /// Zero-filled buffer of `words` 64-bit words, 64-byte aligned.
  void Assign(size_t words);

  /// Read-only view of `words` words at `data` (must be 64-byte
  /// aligned; checked). The caller keeps the storage alive and
  /// immutable.
  void Borrow(const uint64_t* data, size_t words);

  /// True when the words are a view into storage this buffer does not
  /// own. Mutation (via the non-const `data()`) is forbidden then.
  bool borrowed() const { return borrowed_; }

  uint64_t* data() { return const_cast<uint64_t*>(data_); }
  const uint64_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void CopyFrom(const AlignedWordBuffer& other);

  std::vector<uint64_t> storage_;
  const uint64_t* data_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

/// \brief Bit-packed tuple-pair evidence: the separation-filter hot
/// path reduced to word ops.
///
/// Each retained tuple pair contributes its *disagree set* — the
/// attributes on which the two tuples differ — as an `m`-bit mask. A
/// candidate attribute set `A` separates the pair iff `A`'s mask
/// intersects the pair's disagree mask, so the filter's reject test
/// ("some retained pair agrees on all of `A`") becomes: does any
/// evidence mask have an empty AND with `A`?
///
/// Layout: structure-of-arrays blocks of 64 pairs, bit-transposed to
/// attribute-major. Block `b` holds one 64-bit word per attribute at
/// `words[b*m + j]`, whose bit `lane` is pair `(b*64+lane)`'s disagree
/// bit for attribute `j`; blocks start on cache-line boundaries. A
/// lane is unseparated by `A` iff every attribute of `A` has a zero
/// bit there, so one block costs `|A|` sequential ORs — independent of
/// the 64 lanes — and the whole query is
/// `⌈pairs/64⌉ · |A|` word ops:
///
///   acc  = OR_{j in A} words[b*m + j]
///   hits = ~acc & live-lane mask     // any set bit names a witness
///
/// Identical disagree masks are deduplicated at build time (one
/// representative source pair is kept for witness reporting); verdicts
/// are unchanged because the reject predicate only asks whether *some*
/// pair's mask misses `A`. By the same argument, if any mask misses `A`
/// then so does every mask it contains, so `MinimalAntichain` reduces
/// the evidence to its inclusion-minimal masks with identical verdicts.
/// Discovery, its witnesses and the monitor's lane-stable evidence keep
/// every mask; served snapshots answer from the antichain.
///
/// The words and representatives are stored exactly as the snapshot
/// file lays them out (blocks of words, then a flat `2·pairs` array of
/// u32 representative endpoints), so `FromBorrowed` can serve straight
/// out of an mmap-ed section with zero copies.
class PackedEvidence {
 public:
  static constexpr size_t kPairsPerBlock = 64;

  PackedEvidence() = default;

  PackedEvidence(const PackedEvidence& other) { CopyFrom(other); }
  PackedEvidence& operator=(const PackedEvidence& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  PackedEvidence(PackedEvidence&& other) noexcept {
    MoveFrom(std::move(other));
  }
  PackedEvidence& operator=(PackedEvidence&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Packs the disagree sets of the given row pairs of `table`
  /// (deduplicated; each mask's representative is the first pair that
  /// produced it). Representative indices are `table` row indices, or
  /// `row_ids[row]` when `row_ids` (one per `table` row) is given: a
  /// table of selected rows reports the rows it was selected from.
  /// `O(s · m)` build; the price is paid once and every query
  /// afterwards is word-wise. Large samples spread the mask stage over
  /// a pool local to the call, sized by the work and the affinity mask;
  /// the output is bit-identical for any worker count.
  static PackedEvidence FromDatasetPairs(
      const Dataset& table,
      std::span<const std::pair<RowIndex, RowIndex>> pairs,
      std::span<const RowIndex> row_ids = {});

  /// As `FromDatasetPairs` for row-major storage: `rows[i]` points at
  /// the two tuples (of `num_attributes` codes each) of pair `i`, and
  /// `ids[i]` is the representative pair reported for it (the
  /// incremental filter's window slot ids). No deduplication: the
  /// packing is LANE-STABLE — evidence pair `i` is input pair `i` —
  /// which `PatchPair` requires.
  static PackedEvidence FromRowMajorPairs(
      size_t num_attributes,
      std::span<const std::pair<const ValueCode*, const ValueCode*>> rows,
      std::span<const std::pair<uint32_t, uint32_t>> ids);

  /// \brief Zero-copy reconstruction from storage laid out by
  /// `raw_words()`/`raw_reps()` (the snapshot reader): `words` must
  /// hold exactly `⌈num_pairs/64⌉ · num_attributes` 64-byte-aligned
  /// words and `reps` exactly `2 · num_pairs` u32 endpoints, both
  /// staying alive and immutable for the evidence's lifetime. Verdicts
  /// are bit-identical to the evidence the storage was written from.
  static Result<PackedEvidence> FromBorrowed(size_t num_attributes,
                                             uint64_t source_pairs,
                                             size_t num_pairs,
                                             const uint64_t* words,
                                             size_t num_words,
                                             const uint32_t* reps);

  /// \brief Recomputes one pair's lane in place (`O(m)`), for
  /// lane-stable evidence only: clears/sets `index`'s bit in every
  /// attribute word from the two tuples' codes and updates the
  /// representative. This is how the incremental filter absorbs a
  /// single pair-slot redraw without re-packing all `s` slots.
  /// Forbidden (checked) on borrowed evidence — an mmap view is
  /// read-only.
  void PatchPair(uint32_t index, const ValueCode* row_a,
                 const ValueCode* row_b, std::pair<uint32_t, uint32_t> ids);

  /// \brief The minimal-mask antichain: an owning copy holding one copy
  /// of each mask that no other mask is a proper subset of, in
  /// ascending popcount order. Ties keep pair order, and each kept mask
  /// keeps the representative of its first occurrence. Every query
  /// rejects exactly what it rejects on this evidence (a set that
  /// misses some mask misses a minimal one), though the first witness
  /// can differ. `source_pairs()` is unchanged. Levels of equal
  /// popcount cannot contain each other, so each is tested against the
  /// lower ones in parallel, on a pool local to the call sized as in
  /// `FromDatasetPairs`; the output is bit-identical for any worker
  /// count and kernel tier.
  PackedEvidence MinimalAntichain() const;

  size_t num_attributes() const { return num_attributes_; }
  /// Evidence pairs actually packed: the distinct masks, or the
  /// minimal ones after `MinimalAntichain`.
  size_t num_pairs() const { return num_pairs_; }
  /// Words of a pair-major disagree mask (`⌈m/64⌉`, the `AttributeSet`
  /// word count) — the unit of the query-mask inputs below.
  size_t words_per_pair() const { return words_per_pair_; }
  size_t num_blocks() const {
    return (num_pairs() + kPairsPerBlock - 1) / kPairsPerBlock;
  }
  /// Pair count before deduplication (the sampled slot count).
  uint64_t source_pairs() const { return source_pairs_; }

  /// True when words/representatives are views into storage the
  /// evidence does not own (see `FromBorrowed`).
  bool borrowed() const { return words_.borrowed(); }

  /// \brief Index of the first evidence pair whose disagree mask does
  /// not intersect `mask` (i.e. a pair `mask` fails to separate), or
  /// nullopt when every pair is separated. `mask` must hold
  /// `words_per_pair()` words in `AttributeSet` bit order.
  std::optional<uint32_t> FindUnseparated(
      std::span<const uint64_t> mask) const;

  /// \brief Batch kernel, block-major: tests `count` masks (contiguous,
  /// `stride` words apart, `stride >= words_per_pair()`) against every
  /// block before moving to the next block, so each resident block is
  /// reused across the whole batch. `rejected[i]` is set to 1 iff some
  /// pair is unseparated by mask `i`; entries already 1 are skipped
  /// (callers can pre-seed decided candidates).
  void TestMasksBlockMajor(const uint64_t* masks, size_t stride, size_t count,
                           uint8_t* rejected) const;

  /// The source pair behind evidence pair `index` (row indices or slot
  /// ids, per the builder).
  std::pair<uint32_t, uint32_t> representative(uint32_t index) const {
    return {reps_[2 * size_t{index}], reps_[2 * size_t{index} + 1]};
  }

  /// The packed block words exactly as stored (`num_blocks · m` words)
  /// — the snapshot writer's evidence section.
  std::span<const uint64_t> raw_words() const {
    return {words_.data(), words_.size()};
  }
  /// The representative endpoints as stored: `reps[2i], reps[2i+1]`
  /// are evidence pair `i`'s source rows — the snapshot writer's reps
  /// section.
  std::span<const uint32_t> raw_reps() const {
    return {reps_, 2 * num_pairs_};
  }

  /// \brief Heap bytes this instance OWNS. Borrowed (mmap-served)
  /// words and reps are excluded: they live in the file mapping,
  /// shared with the page cache, so charging them against a process
  /// memory budget would double-count the snapshot image. See
  /// `BorrowedBytes()` for the mapped footprint.
  uint64_t MemoryBytes() const;

  /// Bytes viewed through borrowed storage (0 for owning instances).
  uint64_t BorrowedBytes() const;

 private:
  void CopyFrom(const PackedEvidence& other);
  void MoveFrom(PackedEvidence&& other) noexcept;
  /// Takes ownership of flat representative endpoints (2 per pair).
  void SetOwnedReps(std::vector<uint32_t> flat);

  /// Packs pair-major `masks` (num_pairs * words_per_pair words) into
  /// the block layout.
  void Pack(const std::vector<uint64_t>& masks);

  size_t num_attributes_ = 0;
  size_t words_per_pair_ = 0;
  uint64_t source_pairs_ = 0;
  size_t num_pairs_ = 0;
  AlignedWordBuffer words_;
  std::vector<uint32_t> reps_storage_;  // empty when borrowed
  const uint32_t* reps_ = nullptr;      // 2*num_pairs_ endpoints
};

}  // namespace qikey

#endif  // QIKEY_CORE_EVIDENCE_BLOCK_H_
