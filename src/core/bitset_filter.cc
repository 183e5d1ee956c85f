#include "core/bitset_filter.h"

#include <algorithm>

#include "core/sample_bounds.h"
#include "stream/pair_slots.h"
#include "util/thread_pool.h"

namespace qikey {

Result<BitsetSeparationFilter> BitsetSeparationFilter::Build(
    const Dataset& dataset, const BitsetFilterOptions& options, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows to sample pairs");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  uint64_t s = ResolvePairSampleSize(options.sample_size,
                                     dataset.num_attributes(), options.eps);
  std::vector<std::pair<RowIndex, RowIndex>> pairs =
      DrawPairSlots(dataset.num_rows(), s, rng);
  return FromPairs(dataset, pairs);
}

Result<BitsetSeparationFilter> BitsetSeparationFilter::FromMaterializedPairs(
    const Dataset& pair_table) {
  if (pair_table.num_rows() % 2 != 0) {
    return Status::InvalidArgument("pair table must have an even row count");
  }
  size_t s = pair_table.num_rows() / 2;
  std::vector<std::pair<RowIndex, RowIndex>> pairs;
  pairs.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    pairs.emplace_back(static_cast<RowIndex>(2 * i),
                       static_cast<RowIndex>(2 * i + 1));
  }
  return FromPairs(pair_table, pairs);
}

BitsetSeparationFilter BitsetSeparationFilter::FromPairs(
    const Dataset& table,
    std::span<const std::pair<RowIndex, RowIndex>> pairs) {
  BitsetSeparationFilter filter;
  filter.declared_pairs_ = pairs.size();
  filter.evidence_ = PackedEvidence::FromDatasetPairs(table, pairs);
  return filter;
}

Result<BitsetSeparationFilter> BitsetSeparationFilter::FromPackedEvidence(
    PackedEvidence evidence, uint64_t declared_pairs) {
  if (declared_pairs < evidence.num_pairs()) {
    return Status::InvalidArgument(
        "declared pair count below the packed evidence's pair count");
  }
  BitsetSeparationFilter filter;
  filter.declared_pairs_ = declared_pairs;
  filter.evidence_ = std::move(evidence);
  return filter;
}

FilterVerdict BitsetSeparationFilter::Query(const AttributeSet& attrs) const {
  return evidence_.FindUnseparated(attrs.words()).has_value()
             ? FilterVerdict::kReject
             : FilterVerdict::kAccept;
}

std::vector<FilterVerdict> BitsetSeparationFilter::QueryBatch(
    std::span<const AttributeSet> attrs, ThreadPool* pool) const {
  const size_t count = attrs.size();
  std::vector<FilterVerdict> verdicts(count, FilterVerdict::kAccept);
  if (count == 0 || evidence_.num_pairs() == 0) return verdicts;
  // Stage the masks contiguously once; every worker then streams plain
  // words instead of re-walking AttributeSet internals per block.
  const size_t wpp = evidence_.words_per_pair();
  std::vector<uint64_t> masks(count * wpp);
  for (size_t i = 0; i < count; ++i) {
    std::span<const uint64_t> w = attrs[i].words();
    std::copy(w.begin(), w.begin() + wpp, masks.begin() + i * wpp);
  }
  std::vector<uint8_t> rejected(count, 0);
  // Each chunk owns a contiguous [begin, end) of the rejected bytes, so
  // per-worker writes never interleave on one cache line except at the
  // chunk seams; the grain keeps the block-major kernel's per-call
  // setup (mask flattening) amortized over enough candidates.
  ThreadPool::ParallelFor(
      pool, count,
      [&](size_t begin, size_t end) {
        evidence_.TestMasksBlockMajor(masks.data() + begin * wpp, wpp,
                                      end - begin, rejected.data() + begin);
      },
      /*min_grain=*/8);
  for (size_t i = 0; i < count; ++i) {
    if (rejected[i]) verdicts[i] = FilterVerdict::kReject;
  }
  return verdicts;
}

std::optional<std::pair<RowIndex, RowIndex>>
BitsetSeparationFilter::QueryWitness(const AttributeSet& attrs) const {
  std::optional<uint32_t> hit = evidence_.FindUnseparated(attrs.words());
  if (!hit.has_value()) return std::nullopt;
  auto [a, b] = evidence_.representative(*hit);
  return std::make_pair(static_cast<RowIndex>(a), static_cast<RowIndex>(b));
}

uint64_t BitsetSeparationFilter::MemoryBytes() const {
  return evidence_.MemoryBytes();
}

}  // namespace qikey
