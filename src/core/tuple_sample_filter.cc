#include "core/tuple_sample_filter.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "data/serialize.h"
#include "stream/tuple_sample.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qikey {

Result<TupleSampleFilter> TupleSampleFilter::Build(
    const Dataset& dataset, const TupleSampleFilterOptions& options,
    Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  uint64_t r = ResolveTupleSampleSize(options.sample_size,
                                      dataset.num_attributes(), options.eps);
  TupleSample drawn = DrawTupleSample(dataset, 0, dataset.num_rows(), r, rng);
  return FromSample(std::move(drawn.sample), std::move(drawn.provenance),
                    options.detection);
}

TupleSampleFilter TupleSampleFilter::FromSample(
    Dataset sample, std::vector<RowIndex> original_rows,
    DuplicateDetection detection) {
  return FromSample(std::make_shared<Dataset>(std::move(sample)),
                    std::move(original_rows), detection);
}

TupleSampleFilter TupleSampleFilter::FromSample(
    std::shared_ptr<Dataset> sample, std::vector<RowIndex> original_rows,
    DuplicateDetection detection) {
  TupleSampleFilter filter;
  filter.sample_ = std::move(sample);
  filter.original_rows_ = std::move(original_rows);
  filter.detection_ = detection;
  return filter;
}

FilterVerdict TupleSampleFilter::Query(const AttributeSet& attrs) const {
  std::vector<AttributeIndex> idx = attrs.ToIndices();
  std::optional<std::pair<RowIndex, RowIndex>> dup =
      (detection_ == DuplicateDetection::kSort) ? FindDuplicateSorted(idx)
                                                : FindDuplicateHashed(idx);
  return dup.has_value() ? FilterVerdict::kReject : FilterVerdict::kAccept;
}

std::vector<FilterVerdict> TupleSampleFilter::QueryBatch(
    std::span<const AttributeSet> attrs, ThreadPool* pool) const {
  std::vector<FilterVerdict> verdicts(attrs.size(), FilterVerdict::kAccept);
  ThreadPool::ParallelFor(pool, attrs.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) verdicts[i] = Query(attrs[i]);
  });
  return verdicts;
}

std::optional<std::pair<RowIndex, RowIndex>> TupleSampleFilter::QueryWitness(
    const AttributeSet& attrs) const {
  std::vector<AttributeIndex> idx = attrs.ToIndices();
  std::optional<std::pair<RowIndex, RowIndex>> dup =
      (detection_ == DuplicateDetection::kSort) ? FindDuplicateSorted(idx)
                                                : FindDuplicateHashed(idx);
  if (!dup.has_value()) return std::nullopt;
  // Translate sample-row indices back to original rows when known.
  auto [a, b] = *dup;
  if (!original_rows_.empty()) {
    return std::make_pair(original_rows_[a], original_rows_[b]);
  }
  return dup;
}

std::optional<std::pair<RowIndex, RowIndex>>
TupleSampleFilter::FindDuplicateSorted(
    const std::vector<AttributeIndex>& idx) const {
  const Dataset& s = *sample_;
  const size_t r = s.num_rows();
  std::vector<RowIndex> order(r);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](RowIndex a, RowIndex b) {
    return s.CompareProjections(a, b, idx) < 0;
  });
  for (size_t i = 1; i < r; ++i) {
    if (s.CompareProjections(order[i - 1], order[i], idx) == 0) {
      return std::make_pair(order[i - 1], order[i]);
    }
  }
  return std::nullopt;
}

std::optional<std::pair<RowIndex, RowIndex>>
TupleSampleFilter::FindDuplicateHashed(
    const std::vector<AttributeIndex>& idx) const {
  const Dataset& s = *sample_;
  const size_t r = s.num_rows();
  // hash -> first row with that hash; collisions verified by comparison,
  // chains resolved by probing a secondary bucket list.
  std::unordered_multimap<uint64_t, RowIndex> seen;
  seen.reserve(r * 2);
  for (RowIndex row = 0; row < r; ++row) {
    uint64_t h = s.HashProjection(row, idx);
    auto range = seen.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (s.CompareProjections(it->second, row, idx) == 0) {
        return std::make_pair(it->second, row);
      }
    }
    seen.emplace(h, row);
  }
  return std::nullopt;
}

std::string TupleSampleFilter::Serialize() const {
  // Layout: 'QIKF' | detection u8 | provenance count u64 | provenance
  // rows | dataset payload.
  std::string out = "QIKF";
  out.push_back(detection_ == DuplicateDetection::kSort ? 0 : 1);
  uint64_t prov = original_rows_.size();
  out.append(reinterpret_cast<const char*>(&prov), sizeof(prov));
  out.append(reinterpret_cast<const char*>(original_rows_.data()),
             original_rows_.size() * sizeof(RowIndex));
  out += SerializeDataset(*sample_);
  return out;
}

Result<TupleSampleFilter> TupleSampleFilter::Deserialize(
    std::string_view bytes) {
  if (bytes.size() < 13 || bytes.substr(0, 4) != "QIKF") {
    return Status::InvalidArgument("not a qikey filter payload");
  }
  DuplicateDetection detection = bytes[4] == 0 ? DuplicateDetection::kSort
                                               : DuplicateDetection::kHash;
  uint64_t prov = 0;
  std::memcpy(&prov, bytes.data() + 5, sizeof(prov));
  // Validate the declared count against the payload BEFORE computing
  // byte sizes or allocating: a hostile count must not overflow the
  // arithmetic below or trigger a huge allocation.
  if (prov > (bytes.size() - 13) / sizeof(RowIndex)) {
    return Status::InvalidArgument("truncated filter provenance");
  }
  size_t prov_bytes = static_cast<size_t>(prov) * sizeof(RowIndex);
  std::vector<RowIndex> rows(prov);
  std::memcpy(rows.data(), bytes.data() + 13, prov_bytes);
  Result<Dataset> sample = DeserializeDataset(bytes.substr(13 + prov_bytes));
  if (!sample.ok()) return sample.status();
  return FromSample(std::move(sample).ValueOrDie(), std::move(rows),
                    detection);
}

uint64_t TupleSampleFilter::MemoryBytes() const {
  return sample_->num_rows() * sample_->num_attributes() * sizeof(ValueCode) +
         original_rows_.size() * sizeof(RowIndex);
}

}  // namespace qikey
