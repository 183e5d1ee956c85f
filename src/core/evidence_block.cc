#include "core/evidence_block.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "util/logging.h"
#include "util/thread_pool.h"

/// Vector tiers need the gcc/clang vector extensions plus per-function
/// target attributes and `__builtin_cpu_supports`; both compilers
/// provide all three on x86-64.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QIKEY_EVIDENCE_SIMD 1
#else
#define QIKEY_EVIDENCE_SIMD 0
#endif

namespace qikey {

void AlignedWordBuffer::Assign(size_t words) {
  // One extra cache line of slack: the aligned base can sit up to 7
  // words past the allocation start.
  storage_.assign(words + 8, 0);
  uintptr_t base = reinterpret_cast<uintptr_t>(storage_.data());
  uintptr_t aligned = (base + 63) & ~uintptr_t{63};
  data_ = storage_.data() + (aligned - base) / sizeof(uint64_t);
  size_ = words;
  borrowed_ = false;
}

void AlignedWordBuffer::Borrow(const uint64_t* data, size_t words) {
  QIKEY_CHECK(words == 0 ||
              (reinterpret_cast<uintptr_t>(data) & uintptr_t{63}) == 0);
  storage_.clear();
  data_ = data;
  size_ = words;
  borrowed_ = true;
}

void AlignedWordBuffer::CopyFrom(const AlignedWordBuffer& other) {
  if (other.borrowed_) {
    // A borrowed buffer is a view; its copies view the same external
    // storage (which outlives them by contract).
    storage_.clear();
    data_ = other.data_;
    size_ = other.size_;
    borrowed_ = true;
    return;
  }
  Assign(other.size_);
  std::copy(other.data_, other.data_ + other.size_, data());
}

void PackedEvidence::CopyFrom(const PackedEvidence& other) {
  num_attributes_ = other.num_attributes_;
  words_per_pair_ = other.words_per_pair_;
  source_pairs_ = other.source_pairs_;
  num_pairs_ = other.num_pairs_;
  words_ = other.words_;
  reps_storage_ = other.reps_storage_;
  // Owned reps follow the freshly copied vector; borrowed reps keep
  // viewing the external storage, mirroring `words_`.
  reps_ = other.reps_storage_.empty() ? other.reps_ : reps_storage_.data();
}

void PackedEvidence::MoveFrom(PackedEvidence&& other) noexcept {
  num_attributes_ = other.num_attributes_;
  words_per_pair_ = other.words_per_pair_;
  source_pairs_ = other.source_pairs_;
  num_pairs_ = other.num_pairs_;
  words_ = std::move(other.words_);
  reps_storage_ = std::move(other.reps_storage_);
  reps_ = reps_storage_.empty() ? other.reps_ : reps_storage_.data();
  other.num_attributes_ = 0;
  other.words_per_pair_ = 0;
  other.source_pairs_ = 0;
  other.num_pairs_ = 0;
  other.reps_ = nullptr;
}

void PackedEvidence::SetOwnedReps(std::vector<uint32_t> flat) {
  QIKEY_DCHECK(flat.size() % 2 == 0);
  reps_storage_ = std::move(flat);
  reps_ = reps_storage_.data();
  num_pairs_ = reps_storage_.size() / 2;
}

namespace {

/// Pairs one worker must have before a second one starts, in the mask
/// stage of `FromDatasetPairs` and in `MinimalAntichain`. Below it
/// thread start-up costs more than the parallel work saves, so
/// ε = 0.01-sized samples (a few thousand pairs) build on the calling
/// thread.
constexpr size_t kMinPairsPerWorker = 8192;

/// Words one antichain probe of the AVX2 tier covers; posting rows are
/// padded to it, and the scalar probe scans the same padded rows.
constexpr size_t kProbeWords = 4;

/// First-occurrence dedupe of pair-major masks through a flat
/// open-addressing table (linear probing, power-of-two capacity of at
/// least twice the offered masks, so probe chains stay short). A slot
/// holds the upper 32 hash bits and `1 + id` of a kept mask, 0 when
/// empty; a tag match is confirmed word for word, so the dedupe is
/// exact and verdicts cannot drift.
class MaskAccumulator {
 public:
  MaskAccumulator(size_t words_per_pair, size_t max_masks)
      : wpp_(words_per_pair),
        slots_(std::bit_ceil(std::max<size_t>(2 * max_masks, 2)), 0),
        slot_mask_(slots_.size() - 1) {
    masks.reserve(max_masks * wpp_);
    reps.reserve(2 * max_masks);
  }

  /// Keeps `mask` with representative (`rep_a`, `rep_b`) unless an
  /// identical mask was offered before; true when it was kept.
  bool Offer(const uint64_t* mask, uint32_t rep_a, uint32_t rep_b) {
    const uint64_t h = Hash(mask);
    const uint64_t tag = h & ~uint64_t{0xFFFFFFFF};
    for (size_t i = h & slot_mask_;; i = (i + 1) & slot_mask_) {
      const uint64_t slot = slots_[i];
      if (slot == 0) {
        const uint32_t id = static_cast<uint32_t>(reps.size() / 2);
        slots_[i] = tag | (uint64_t{id} + 1);
        masks.insert(masks.end(), mask, mask + wpp_);
        reps.push_back(rep_a);
        reps.push_back(rep_b);
        return true;
      }
      if ((slot & ~uint64_t{0xFFFFFFFF}) != tag) continue;
      const uint64_t* seen = masks.data() + ((slot & 0xFFFFFFFF) - 1) * wpp_;
      if (std::equal(seen, seen + wpp_, mask)) return false;
    }
  }

  std::vector<uint64_t> masks;  // pair-major, wpp words per kept mask
  std::vector<uint32_t> reps;   // flat endpoints, 2 per kept mask

 private:
  uint64_t Hash(const uint64_t* mask) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t w = 0; w < wpp_; ++w) {
      h ^= mask[w];
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
    }
    return h;
  }

  size_t wpp_;
  std::vector<uint64_t> slots_;
  size_t slot_mask_;
};

}  // namespace

void PackedEvidence::Pack(const std::vector<uint64_t>& masks) {
  const size_t wpp = words_per_pair_;
  const size_t m = num_attributes_;
  const size_t pairs = num_pairs_;
  const size_t blocks = (pairs + kPairsPerBlock - 1) / kPairsPerBlock;
  // Attribute-major transpose: one word per attribute per block, bit
  // `lane` = that lane's disagree bit (zero-filled, so padding lanes of
  // the last block read as "agrees on everything" and are masked out by
  // `LiveLanes` at query time).
  words_.Assign(blocks * m);
  uint64_t* out = words_.data();
  for (size_t p = 0; p < pairs; ++p) {
    const size_t b = p / kPairsPerBlock;
    const uint64_t lane_bit = uint64_t{1} << (p % kPairsPerBlock);
    for (size_t w = 0; w < wpp; ++w) {
      uint64_t bits = masks[p * wpp + w];
      while (bits != 0) {
        const int j = std::countr_zero(bits);
        bits &= bits - 1;
        out[b * m + w * 64 + j] |= lane_bit;
      }
    }
  }
}

PackedEvidence PackedEvidence::FromDatasetPairs(
    const Dataset& table, std::span<const std::pair<RowIndex, RowIndex>> pairs,
    std::span<const RowIndex> row_ids) {
  QIKEY_CHECK(row_ids.empty() || row_ids.size() == table.num_rows());
  PackedEvidence out;
  const size_t m = table.num_attributes();
  const size_t wpp = (m + 63) / 64;
  const size_t s = pairs.size();
  out.num_attributes_ = m;
  out.words_per_pair_ = wpp;
  out.source_pairs_ = s;
  if (s == 0 || m == 0) return out;

  // Mask stage: each worker owns one contiguous range of pairs, so no
  // two write the same mask word, and the masks do not depend on how
  // the pairs were cut. Inside a range the loop is column-major (one
  // column's codes stay resident while the range probes it) and
  // branch-free; the stage is bound by random code reads, which the
  // workers' misses overlap. The work sets the worker count.
  const size_t threads =
      std::clamp(s / kMinPairsPerWorker, size_t{1}, UsableCpuCount());
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  std::vector<uint64_t> masks(s * wpp, 0);
  ThreadPool::ParallelFor(
      pool.get(), s,
      [&](size_t begin, size_t end) {
        for (size_t j = 0; j < m; ++j) {
          const ValueCode* codes =
              table.column(static_cast<AttributeIndex>(j)).codes().data();
          uint64_t* word = masks.data() + j / 64;
          const size_t shift = j % 64;
          for (size_t p = begin; p < end; ++p) {
            word[p * wpp] |=
                uint64_t{codes[pairs[p].first] != codes[pairs[p].second]}
                << shift;
          }
        }
      },
      /*min_grain=*/(s + threads - 1) / threads);

  // Dedupe in pair order: each mask's representative is its first
  // occurrence, whatever the worker count.
  MaskAccumulator acc(wpp, s);
  for (size_t p = 0; p < s; ++p) {
    auto [a, b] = pairs[p];
    if (!row_ids.empty()) {
      a = row_ids[a];
      b = row_ids[b];
    }
    acc.Offer(masks.data() + p * wpp, a, b);
  }
  out.SetOwnedReps(std::move(acc.reps));
  out.Pack(acc.masks);
  return out;
}

PackedEvidence PackedEvidence::FromRowMajorPairs(
    size_t num_attributes,
    std::span<const std::pair<const ValueCode*, const ValueCode*>> rows,
    std::span<const std::pair<uint32_t, uint32_t>> ids) {
  QIKEY_CHECK(rows.size() == ids.size());
  PackedEvidence out;
  const size_t m = num_attributes;
  const size_t wpp = (m + 63) / 64;
  out.num_attributes_ = m;
  out.words_per_pair_ = wpp;
  out.source_pairs_ = rows.size();
  if (rows.empty() || m == 0) return out;

  std::vector<uint64_t> masks(rows.size() * wpp, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [ra, rb] = rows[i];
    for (size_t j = 0; j < m; ++j) {
      masks[i * wpp + j / 64] |= uint64_t{ra[j] != rb[j]} << (j % 64);
    }
  }
  std::vector<uint32_t> flat;
  flat.reserve(ids.size() * 2);
  for (const auto& [a, b] : ids) {
    flat.push_back(a);
    flat.push_back(b);
  }
  out.SetOwnedReps(std::move(flat));
  out.Pack(masks);
  return out;
}

Result<PackedEvidence> PackedEvidence::FromBorrowed(
    size_t num_attributes, uint64_t source_pairs, size_t num_pairs,
    const uint64_t* words, size_t num_words, const uint32_t* reps) {
  const size_t m = num_attributes;
  const size_t blocks = (num_pairs + kPairsPerBlock - 1) / kPairsPerBlock;
  if (num_pairs > 0 && m == 0) {
    return Status::InvalidArgument(
        "packed evidence with pairs but no attributes");
  }
  if (num_words != blocks * m) {
    return Status::InvalidArgument(
        "packed evidence word count does not match its pair count");
  }
  if (num_pairs > source_pairs) {
    return Status::InvalidArgument(
        "packed evidence holds more pairs than its sample drew");
  }
  if (num_words > 0 &&
      (reinterpret_cast<uintptr_t>(words) & uintptr_t{63}) != 0) {
    return Status::InvalidArgument("packed evidence words are misaligned");
  }
  if (num_pairs > 0 && reps == nullptr) {
    return Status::InvalidArgument("packed evidence is missing its reps");
  }
  PackedEvidence out;
  out.num_attributes_ = m;
  out.words_per_pair_ = (m + 63) / 64;
  out.source_pairs_ = source_pairs;
  out.num_pairs_ = num_pairs;
  out.words_.Borrow(words, num_words);
  out.reps_ = reps;
  return out;
}

void PackedEvidence::PatchPair(uint32_t index, const ValueCode* row_a,
                               const ValueCode* row_b,
                               std::pair<uint32_t, uint32_t> ids) {
  QIKEY_CHECK(!borrowed());
  QIKEY_DCHECK(index < num_pairs_);
  const size_t m = num_attributes_;
  uint64_t* block = words_.data() + (index / kPairsPerBlock) * m;
  const uint64_t lane_bit = uint64_t{1} << (index % kPairsPerBlock);
  for (size_t j = 0; j < m; ++j) {
    if (row_a[j] != row_b[j]) {
      block[j] |= lane_bit;
    } else {
      block[j] &= ~lane_bit;
    }
  }
  reps_storage_[2 * size_t{index}] = ids.first;
  reps_storage_[2 * size_t{index} + 1] = ids.second;
}

namespace {

/// Lanes of block `b` holding real pairs (the last block may be
/// partial; its padding lanes read as all-agree and must be ignored).
inline uint64_t LiveLanes(size_t block, size_t pairs) {
  const size_t base = block * PackedEvidence::kPairsPerBlock;
  const size_t active = pairs - base;
  return active >= 64 ? ~uint64_t{0} : (uint64_t{1} << active) - 1;
}

/// Flattens a pair-major query mask into its attribute indices (the
/// per-block loop then costs exactly |A| ORs).
inline void MaskToIndices(const uint64_t* mask, size_t wpp,
                          std::vector<uint32_t>* idx) {
  idx->clear();
  for (size_t w = 0; w < wpp; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      idx->push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// One block, one candidate: bitmap of lanes separated by no attribute
/// of the candidate.
inline uint64_t BlockHits(const uint64_t* block, const uint32_t* idx,
                          size_t count, uint64_t live) {
  uint64_t acc = 0;
  for (size_t a = 0; a < count; ++a) acc |= block[idx[a]];
  return ~acc & live;
}

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

bool ForceScalarFromEnv() {
  const char* e = std::getenv("QIKEY_FORCE_SCALAR");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

EvidenceKernel DetectEvidenceKernel() {
  if (ForceScalarFromEnv()) return EvidenceKernel::kScalar;
#if QIKEY_EVIDENCE_SIMD
  if (__builtin_cpu_supports("avx2")) return EvidenceKernel::kAvx2;
#endif
  return EvidenceKernel::kScalar;
}

/// Resolved tier; -1 until first use.
std::atomic<int> g_evidence_kernel{-1};

// ---------------------------------------------------------------------------
// Scalar kernels (the oracle) — block ranges so the vector tier can
// reuse them for the remainder after its full-block groups.
// ---------------------------------------------------------------------------

std::optional<uint32_t> FindUnseparatedScalarBlocks(
    const uint64_t* words, size_t m, size_t pairs, const uint32_t* idx,
    size_t count, size_t b_begin, size_t b_end) {
  for (size_t b = b_begin; b < b_end; ++b) {
    uint64_t hits = BlockHits(words + b * m, idx, count, LiveLanes(b, pairs));
    if (hits != 0) {
      return static_cast<uint32_t>(b * PackedEvidence::kPairsPerBlock +
                                   std::countr_zero(hits));
    }
  }
  return std::nullopt;
}

void TestMasksScalarBlocks(const uint64_t* words, size_t m, size_t pairs,
                           const uint32_t* flat,
                           const std::pair<uint32_t, uint32_t>* ranges,
                           std::vector<uint32_t>& active, uint8_t* rejected,
                           size_t b_begin, size_t b_end) {
  for (size_t b = b_begin; b < b_end && !active.empty(); ++b) {
    const uint64_t* block = words + b * m;
    const uint64_t live = LiveLanes(b, pairs);
    for (size_t a = 0; a < active.size();) {
      const auto [offset, len] = ranges[active[a]];
      if (BlockHits(block, flat + offset, len, live) != 0) {
        rejected[active[a]] = 1;
        active[a] = active.back();
        active.pop_back();
      } else {
        ++a;
      }
    }
  }
}

/// The antichain's subset probe. `posting` holds one bitmap per
/// attribute, `stride` words apart, over the masks kept so far (bit
/// `lane` of attribute `j`'s bitmap = kept mask `lane` has `j`), and
/// `dead` sets every lane that holds no kept mask. True iff some kept
/// mask has none of the `count` attributes in `idx`: when `idx` lists
/// the attributes a mask `x` lacks, iff some kept mask is a subset of
/// `x`. `words` (a multiple of `kProbeWords`) bounds the scan.
bool AnyKeptAvoidsScalar(const uint64_t* posting, size_t stride,
                         const uint32_t* idx, size_t count,
                         const uint64_t* dead, size_t words) {
  for (size_t c = 0; c < words; ++c) {
    uint64_t acc = dead[c];
    for (size_t a = 0; a < count; ++a) acc |= posting[idx[a] * stride + c];
    if (~acc != 0) return true;
  }
  return false;
}

#if QIKEY_EVIDENCE_SIMD

// ---------------------------------------------------------------------------
// AVX2 kernels. The storage stays attribute-major (one word per
// attribute per block — the mmap contract), so a lane-OR gathers the
// same attribute's word from 4 CONSECUTIVE fully-live blocks: strided
// loads m words apart, then one vector OR.
// Only full blocks enter a group — the partial last block (LiveLanes
// masking) and the sub-group remainder run through the scalar oracle,
// so verdicts and first-witness indices are bit-identical by
// construction: groups scan blocks in ascending order and lanes low-
// to-high, exactly like the scalar loop.
// ---------------------------------------------------------------------------

typedef uint64_t V4 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) std::optional<uint32_t> FindUnseparatedAvx2(
    const uint64_t* words, size_t m, size_t full_blocks, const uint32_t* idx,
    size_t count, size_t* resume_block) {
  size_t b = 0;
  for (; b + 4 <= full_blocks; b += 4) {
    const uint64_t* base = words + b * m;
    V4 acc = {0, 0, 0, 0};
    for (size_t a = 0; a < count; ++a) {
      const uint64_t* w = base + idx[a];
      acc |= V4{w[0], w[m], w[2 * m], w[3 * m]};
    }
    const V4 hits = ~acc;
    if ((hits[0] | hits[1] | hits[2] | hits[3]) != 0) {
      for (size_t lane = 0; lane < 4; ++lane) {
        if (hits[lane] != 0) {
          return static_cast<uint32_t>((b + lane) *
                                           PackedEvidence::kPairsPerBlock +
                                       std::countr_zero(hits[lane]));
        }
      }
    }
  }
  *resume_block = b;
  return std::nullopt;
}

__attribute__((target("avx2"))) size_t TestMasksAvx2Groups(
    const uint64_t* words, size_t m, size_t full_blocks, const uint32_t* flat,
    const std::pair<uint32_t, uint32_t>* ranges, std::vector<uint32_t>& active,
    uint8_t* rejected) {
  size_t b = 0;
  for (; b + 4 <= full_blocks && !active.empty(); b += 4) {
    const uint64_t* base = words + b * m;
    for (size_t a = 0; a < active.size();) {
      const auto [offset, len] = ranges[active[a]];
      const uint32_t* idx = flat + offset;
      V4 acc = {0, 0, 0, 0};
      for (size_t i = 0; i < len; ++i) {
        const uint64_t* w = base + idx[i];
        acc |= V4{w[0], w[m], w[2 * m], w[3 * m]};
      }
      const V4 hits = ~acc;
      if ((hits[0] | hits[1] | hits[2] | hits[3]) != 0) {
        rejected[active[a]] = 1;
        active[a] = active.back();
        active.pop_back();
      } else {
        ++a;
      }
    }
  }
  return b;
}

// The antichain probe. Posting rows are contiguous, so each
// attribute's 4 words load as one vector; two accumulators halve the
// dependency chain.

__attribute__((target("avx2"))) bool AnyKeptAvoidsAvx2(
    const uint64_t* posting, size_t stride, const uint32_t* idx, size_t count,
    const uint64_t* dead, size_t words) {
  for (size_t c = 0; c < words; c += 4) {
    V4 acc;
    V4 acc2 = {0, 0, 0, 0};
    V4 row;
    std::memcpy(&acc, dead + c, sizeof(acc));
    size_t a = 0;
    for (; a + 2 <= count; a += 2) {
      std::memcpy(&row, posting + idx[a] * stride + c, sizeof(row));
      acc |= row;
      std::memcpy(&row, posting + idx[a + 1] * stride + c, sizeof(row));
      acc2 |= row;
    }
    if (a < count) {
      std::memcpy(&row, posting + idx[a] * stride + c, sizeof(row));
      acc |= row;
    }
    const V4 avoided = ~(acc | acc2);
    if (((avoided[0] | avoided[1]) | (avoided[2] | avoided[3])) != 0) {
      return true;
    }
  }
  return false;
}

#endif  // QIKEY_EVIDENCE_SIMD

bool AnyKeptAvoids(EvidenceKernel kernel, const uint64_t* posting,
                   size_t stride, const uint32_t* idx, size_t count,
                   const uint64_t* dead, size_t words) {
#if QIKEY_EVIDENCE_SIMD
  if (kernel == EvidenceKernel::kAvx2) {
    return AnyKeptAvoidsAvx2(posting, stride, idx, count, dead, words);
  }
#else
  (void)kernel;
#endif
  return AnyKeptAvoidsScalar(posting, stride, idx, count, dead, words);
}

}  // namespace

const char* EvidenceKernelName(EvidenceKernel kernel) {
  switch (kernel) {
    case EvidenceKernel::kScalar:
      return "scalar";
    case EvidenceKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

EvidenceKernel ActiveEvidenceKernel() {
  int k = g_evidence_kernel.load(std::memory_order_acquire);
  if (k < 0) {
    // A racing first use detects twice and stores the same answer.
    k = static_cast<int>(DetectEvidenceKernel());
    g_evidence_kernel.store(k, std::memory_order_release);
  }
  return static_cast<EvidenceKernel>(k);
}

Status SetEvidenceKernel(std::string_view name) {
  EvidenceKernel kernel;
  if (name == "auto") {
    kernel = DetectEvidenceKernel();
  } else if (name == "scalar") {
    kernel = EvidenceKernel::kScalar;
  } else if (name == "avx2") {
    kernel = EvidenceKernel::kAvx2;
  } else {
    return Status::InvalidArgument("unknown evidence kernel \"" +
                                   std::string(name) +
                                   "\" (want scalar|avx2|auto)");
  }
#if QIKEY_EVIDENCE_SIMD
  if (kernel == EvidenceKernel::kAvx2 && !__builtin_cpu_supports("avx2")) {
    return Status::InvalidArgument("this CPU does not support avx2");
  }
#else
  if (kernel != EvidenceKernel::kScalar) {
    return Status::InvalidArgument(
        "vector kernels are not compiled into this build");
  }
#endif
  g_evidence_kernel.store(static_cast<int>(kernel), std::memory_order_release);
  return Status::OK();
}

std::optional<uint32_t> PackedEvidence::FindUnseparated(
    std::span<const uint64_t> mask) const {
  QIKEY_DCHECK(mask.size() >= words_per_pair_);
  const size_t pairs = num_pairs_;
  const size_t m = num_attributes_;
  const uint64_t* words = words_.data();
  const size_t blocks = num_blocks();
  std::vector<uint32_t> idx;
  idx.reserve(m);
  MaskToIndices(mask.data(), words_per_pair_, &idx);
  size_t b = 0;
#if QIKEY_EVIDENCE_SIMD
  // The vector tier covers groups of fully-live blocks; everything
  // after `b` (group remainder + partial last block) falls through to
  // the scalar oracle below.
  if (ActiveEvidenceKernel() == EvidenceKernel::kAvx2) {
    auto hit = FindUnseparatedAvx2(words, m, pairs / kPairsPerBlock,
                                   idx.data(), idx.size(), &b);
    if (hit.has_value()) return hit;
  }
#endif
  return FindUnseparatedScalarBlocks(words, m, pairs, idx.data(), idx.size(),
                                     b, blocks);
}

void PackedEvidence::TestMasksBlockMajor(const uint64_t* masks, size_t stride,
                                         size_t count,
                                         uint8_t* rejected) const {
  QIKEY_DCHECK(stride >= words_per_pair_);
  const size_t pairs = num_pairs_;
  const size_t m = num_attributes_;
  const uint64_t* words = words_.data();
  const size_t blocks = num_blocks();
  // Flatten every candidate's attribute list once up front.
  std::vector<uint32_t> flat;
  std::vector<std::pair<uint32_t, uint32_t>> ranges(count);  // offset, len
  std::vector<uint32_t> idx;
  for (size_t i = 0; i < count; ++i) {
    MaskToIndices(masks + i * stride, words_per_pair_, &idx);
    ranges[i] = {static_cast<uint32_t>(flat.size()),
                 static_cast<uint32_t>(idx.size())};
    flat.insert(flat.end(), idx.begin(), idx.end());
  }
  // Dense list of still-undecided candidates; each reject shrinks it,
  // so later blocks only pay for the survivors.
  std::vector<uint32_t> active;
  active.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!rejected[i]) active.push_back(static_cast<uint32_t>(i));
  }
  size_t b = 0;
#if QIKEY_EVIDENCE_SIMD
  if (ActiveEvidenceKernel() == EvidenceKernel::kAvx2) {
    b = TestMasksAvx2Groups(words, m, pairs / kPairsPerBlock, flat.data(),
                            ranges.data(), active, rejected);
  }
#endif
  TestMasksScalarBlocks(words, m, pairs, flat.data(), ranges.data(), active,
                        rejected, b, blocks);
}

PackedEvidence PackedEvidence::MinimalAntichain() const {
  const size_t m = num_attributes_;
  const size_t wpp = words_per_pair_;
  const size_t n = num_pairs_;
  PackedEvidence out;
  out.num_attributes_ = m;
  out.words_per_pair_ = wpp;
  out.source_pairs_ = source_pairs_;
  if (n == 0 || m == 0) return out;

  // Back to pair-major masks, with each mask's popcount.
  std::vector<uint64_t> masks(n * wpp, 0);
  const uint64_t* words = words_.data();
  for (size_t b = 0; b < num_blocks(); ++b) {
    const uint64_t live = LiveLanes(b, n);
    for (size_t j = 0; j < m; ++j) {
      for (uint64_t bits = words[b * m + j] & live; bits != 0;
           bits &= bits - 1) {
        const size_t p = b * kPairsPerBlock + std::countr_zero(bits);
        masks[p * wpp + j / 64] |= uint64_t{1} << (j % 64);
      }
    }
  }
  std::vector<uint32_t> popcount(n, 0);
  for (size_t p = 0; p < n; ++p) {
    for (size_t w = 0; w < wpp; ++w) {
      popcount[p] += static_cast<uint32_t>(std::popcount(masks[p * wpp + w]));
    }
  }

  // Stable counting sort by popcount: `order` lists the pairs level by
  // level, each level in pair order.
  std::vector<uint32_t> level_begin(m + 2, 0);
  for (uint32_t c : popcount) ++level_begin[c + 1];
  for (size_t c = 1; c < level_begin.size(); ++c) {
    level_begin[c] += level_begin[c - 1];
  }
  std::vector<uint32_t> order(n);
  {
    std::vector<uint32_t> next(level_begin.begin(), level_begin.end() - 1);
    for (size_t p = 0; p < n; ++p) {
      order[next[popcount[p]]++] = static_cast<uint32_t>(p);
    }
  }

  // Kept masks so far as one bitmap per attribute (`posting`), each row
  // padded to the probe width; `dead` sets the lanes not yet kept.
  const EvidenceKernel kernel = ActiveEvidenceKernel();
  auto padded_words = [](size_t lanes) {
    return ((lanes + 63) / 64 + kProbeWords - 1) / kProbeWords * kProbeWords;
  };
  const size_t stride = padded_words(n);
  AlignedWordBuffer posting(m * stride);
  AlignedWordBuffer dead(stride);
  std::fill(dead.data(), dead.data() + stride, ~uint64_t{0});
  const uint64_t last_word_bits =
      m % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (m % 64)) - 1;

  // Masks of one popcount cannot contain each other, so each level is
  // tested against the lower levels' kept masks only, and its masks are
  // tested in parallel; verdicts do not depend on the worker count.
  const size_t threads =
      std::clamp(n / kMinPairsPerWorker, size_t{1}, UsableCpuCount());
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  std::vector<uint8_t> dominated(n, 0);  // by position in `order`
  MaskAccumulator kept(wpp, n);
  size_t num_kept = 0;
  for (size_t level = 0; level <= m; ++level) {
    const size_t lb = level_begin[level];
    const size_t le = level_begin[level + 1];
    if (lb == le) continue;
    if (num_kept > 0) {
      const size_t scan_words = padded_words(num_kept);
      ThreadPool::ParallelFor(
          pool.get(), le - lb,
          [&](size_t begin, size_t end) {
            // A kept mask is a subset of `x` iff it has none of the
            // attributes `x` lacks.
            std::vector<uint32_t> lacks;
            lacks.reserve(m);
            for (size_t i = lb + begin; i < lb + end; ++i) {
              const uint64_t* x = masks.data() + size_t{order[i]} * wpp;
              lacks.clear();
              for (size_t w = 0; w < wpp; ++w) {
                uint64_t bits = ~x[w] & (w + 1 == wpp ? last_word_bits
                                                      : ~uint64_t{0});
                for (; bits != 0; bits &= bits - 1) {
                  lacks.push_back(
                      static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
                }
              }
              dominated[i] = AnyKeptAvoids(kernel, posting.data(), stride,
                                           lacks.data(), lacks.size(),
                                           dead.data(), scan_words);
            }
          },
          /*min_grain=*/64);
    }
    // Keep the level's survivors in pair order; equal masks share a
    // level, and the accumulator keeps the first of them.
    for (size_t i = lb; i < le; ++i) {
      if (dominated[i]) continue;
      const size_t p = order[i];
      const uint64_t* x = masks.data() + p * wpp;
      if (!kept.Offer(x, reps_[2 * p], reps_[2 * p + 1])) continue;
      const uint64_t lane_bit = uint64_t{1} << (num_kept % 64);
      for (size_t w = 0; w < wpp; ++w) {
        for (uint64_t bits = x[w]; bits != 0; bits &= bits - 1) {
          const size_t j = w * 64 + std::countr_zero(bits);
          posting.data()[j * stride + num_kept / 64] |= lane_bit;
        }
      }
      dead.data()[num_kept / 64] &= ~lane_bit;
      ++num_kept;
    }
  }
  out.SetOwnedReps(std::move(kept.reps));
  out.Pack(kept.masks);
  return out;
}

uint64_t PackedEvidence::MemoryBytes() const {
  uint64_t bytes = reps_storage_.size() * sizeof(uint32_t);
  if (!words_.borrowed()) bytes += words_.size() * sizeof(uint64_t);
  return bytes;
}

uint64_t PackedEvidence::BorrowedBytes() const {
  if (!words_.borrowed()) return 0;
  return words_.size() * sizeof(uint64_t) +
         uint64_t{num_pairs_} * 2 * sizeof(uint32_t);
}

}  // namespace qikey
