#include "core/mx_pair_filter.h"

#include <numeric>

#include "data/concat.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qikey {

Result<MxPairFilter> MxPairFilter::Build(const Dataset& dataset,
                                         const MxPairFilterOptions& options,
                                         Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows to sample pairs");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  uint64_t s = options.sample_size > 0
                   ? options.sample_size
                   : MxPairSampleSizePaper(
                         static_cast<uint32_t>(dataset.num_attributes()),
                         options.eps);
  MxPairFilter filter;
  filter.exhaustive_compare_ = options.exhaustive_compare;
  filter.pairs_.reserve(s);
  for (uint64_t i = 0; i < s; ++i) {
    auto [a, b] = rng->SamplePair(dataset.num_rows());
    filter.pairs_.emplace_back(static_cast<RowIndex>(a),
                               static_cast<RowIndex>(b));
  }
  if (options.materialize) {
    // Copy the union of sampled rows into a private table and re-index.
    std::vector<RowIndex> rows;
    rows.reserve(2 * filter.pairs_.size());
    for (auto [a, b] : filter.pairs_) {
      rows.push_back(a);
      rows.push_back(b);
    }
    filter.materialized_ =
        std::make_shared<Dataset>(dataset.SelectRows(rows));
    for (size_t i = 0; i < filter.pairs_.size(); ++i) {
      filter.pairs_[i] = {static_cast<RowIndex>(2 * i),
                          static_cast<RowIndex>(2 * i + 1)};
    }
    filter.dataset_ = filter.materialized_.get();
  } else {
    filter.dataset_ = &dataset;
  }
  return filter;
}

Result<MxPairFilter> MxPairFilter::FromMaterializedPairs(Dataset pair_table) {
  if (pair_table.num_rows() % 2 != 0) {
    return Status::InvalidArgument("pair table must have an even row count");
  }
  MxPairFilter filter;
  filter.materialized_ = std::make_shared<Dataset>(std::move(pair_table));
  filter.dataset_ = filter.materialized_.get();
  size_t s = filter.materialized_->num_rows() / 2;
  filter.pairs_.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    filter.pairs_.emplace_back(static_cast<RowIndex>(2 * i),
                               static_cast<RowIndex>(2 * i + 1));
  }
  return filter;
}

Result<MxPairFilter> MxPairFilter::MergeDisjoint(const MxPairFilter& a,
                                                 uint64_t seen_a,
                                                 const MxPairFilter& b,
                                                 uint64_t seen_b, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (a.materialized_ == nullptr || b.materialized_ == nullptr) {
    return Status::InvalidArgument("merge requires materialized pair filters");
  }
  if (a.pairs_.size() != b.pairs_.size() || a.pairs_.empty()) {
    return Status::InvalidArgument(
        "merge requires equal, non-zero slot counts");
  }
  if (seen_a < 2 || seen_b < 2) {
    return Status::InvalidArgument("each side must have sampled >= 2 rows");
  }
  if (seen_a + seen_b > static_cast<uint64_t>(~RowIndex{0})) {
    return Status::InvalidArgument("merged population exceeds RowIndex range");
  }
  if (a.exhaustive_compare_ != b.exhaustive_compare_) {
    return Status::InvalidArgument("cannot merge differing compare modes");
  }

  // One union table to select merged pair rows from: a's materialized
  // rows first, then b's at `offset` (re-encoded to shared codes).
  Result<Dataset> combined =
      ConcatDatasets({a.materialized_.get(), b.materialized_.get()});
  if (!combined.ok()) return combined.status();
  const RowIndex offset = static_cast<RowIndex>(a.materialized_->num_rows());

  // C(n,2) fits u64 because n fits u32.
  const uint64_t pairs_a = seen_a * (seen_a - 1) / 2;
  const uint64_t pairs_b = seen_b * (seen_b - 1) / 2;
  const uint64_t n = seen_a + seen_b;
  const uint64_t pairs_total = n * (n - 1) / 2;

  const size_t s = a.pairs_.size();
  std::vector<RowIndex> selected;
  selected.reserve(2 * s);
  for (size_t i = 0; i < s; ++i) {
    uint64_t v = rng->Uniform(pairs_total);
    if (v < pairs_a) {
      selected.push_back(a.pairs_[i].first);
      selected.push_back(a.pairs_[i].second);
    } else if (v < pairs_a + pairs_b) {
      selected.push_back(offset + b.pairs_[i].first);
      selected.push_back(offset + b.pairs_[i].second);
    } else {
      // Cross pair: a uniform element of each slot's pair is a uniform
      // row of that population.
      const auto& pa = a.pairs_[i];
      const auto& pb = b.pairs_[i];
      selected.push_back(rng->Uniform(2) == 0 ? pa.first : pa.second);
      selected.push_back(offset +
                         (rng->Uniform(2) == 0 ? pb.first : pb.second));
    }
  }
  Result<MxPairFilter> merged =
      FromMaterializedPairs(combined->SelectRows(selected));
  if (!merged.ok()) return merged.status();
  merged->exhaustive_compare_ = a.exhaustive_compare_;
  return merged;
}

FilterVerdict MxPairFilter::Query(const AttributeSet& attrs) const {
  return QueryWitness(attrs).has_value() ? FilterVerdict::kReject
                                         : FilterVerdict::kAccept;
}

std::vector<FilterVerdict> MxPairFilter::QueryBatch(
    std::span<const AttributeSet> attrs, ThreadPool* pool) const {
  std::vector<FilterVerdict> verdicts(attrs.size(), FilterVerdict::kAccept);
  ThreadPool::ParallelFor(pool, attrs.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) verdicts[i] = Query(attrs[i]);
  });
  return verdicts;
}

std::optional<std::pair<RowIndex, RowIndex>> MxPairFilter::QueryWitness(
    const AttributeSet& attrs) const {
  std::vector<AttributeIndex> idx = attrs.ToIndices();
  if (exhaustive_compare_) {
    // Cost-model-faithful path: touch every attribute of every pair.
    for (const auto& [a, b] : pairs_) {
      uint32_t differing = 0;
      for (AttributeIndex j : idx) {
        differing += (dataset_->code(a, j) != dataset_->code(b, j)) ? 1 : 0;
      }
      if (differing == 0) return std::make_pair(a, b);
    }
    return std::nullopt;
  }
  for (const auto& [a, b] : pairs_) {
    if (dataset_->RowsAgreeOn(a, b, idx)) {
      return std::make_pair(a, b);
    }
  }
  return std::nullopt;
}

uint64_t MxPairFilter::MemoryBytes() const {
  uint64_t bytes = pairs_.size() * sizeof(std::pair<RowIndex, RowIndex>);
  if (materialized_ != nullptr) {
    bytes += materialized_->num_rows() * materialized_->num_attributes() *
             sizeof(ValueCode);
  }
  return bytes;
}

}  // namespace qikey
