#include "stream/tuple_sample.h"

#include <algorithm>

#include "data/concat.h"

namespace qikey {

TupleSample DrawTupleSample(const Dataset& d, uint64_t lo, uint64_t n,
                            uint64_t r, Rng* rng) {
  TupleSample out;
  for (uint64_t local : rng->SampleWithoutReplacement(n, std::min(r, n))) {
    out.provenance.push_back(static_cast<RowIndex>(lo + local));
  }
  out.sample = d.SelectRows(out.provenance);
  return out;
}

Result<TupleSample> MergeTupleSamples(const TupleSample& a, uint64_t seen_a,
                                      const TupleSample& b, uint64_t seen_b,
                                      uint64_t target, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (target == 0) {
    return Status::InvalidArgument("target sample size must be positive");
  }
  const uint64_t kept_a = a.sample.num_rows();
  const uint64_t kept_b = b.sample.num_rows();
  if (seen_a < kept_a || seen_b < kept_b) {
    return Status::InvalidArgument(
        "seen row counts smaller than the retained samples");
  }
  target = std::min(target, seen_a + seen_b);
  if (kept_a < std::min(target, seen_a) || kept_b < std::min(target, seen_b)) {
    return Status::InvalidArgument(
        "inputs retain fewer tuples than the merge target requires");
  }

  // k of the merged sample come from a's population (hypergeometric),
  // filled by uniform sub-draws of the two uniform samples; the checks
  // above make both sub-draws fit, so neither is clamped.
  uint64_t k = rng->HypergeometricDraw(target, seen_a, seen_b);
  TupleSample part_a = DrawTupleSample(a.sample, 0, kept_a, k, rng);
  TupleSample part_b = DrawTupleSample(b.sample, 0, kept_b, target - k, rng);
  Result<Dataset> merged = ConcatDatasets({&part_a.sample, &part_b.sample});
  if (!merged.ok()) return merged.status();

  TupleSample out;
  out.sample = std::move(merged).ValueOrDie();
  if (!a.provenance.empty() && !b.provenance.empty()) {
    out.provenance.reserve(target);
    for (RowIndex r : part_a.provenance) {
      out.provenance.push_back(a.provenance[r]);
    }
    for (RowIndex r : part_b.provenance) {
      out.provenance.push_back(b.provenance[r]);
    }
  }
  return out;
}

Dataset RowsToDataset(
    const Schema& schema, const std::vector<uint32_t>& cardinalities,
    const std::vector<std::vector<ValueCode>>& rows,
    const std::vector<std::shared_ptr<Dictionary>>& dictionaries) {
  const size_t m = schema.num_attributes();
  std::vector<Column> columns;
  columns.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    std::vector<ValueCode> codes;
    codes.reserve(rows.size());
    for (const auto& row : rows) codes.push_back(row[j]);
    columns.emplace_back(std::move(codes), cardinalities[j],
                         dictionaries.empty() ? nullptr : dictionaries[j]);
  }
  return Dataset(schema, std::move(columns));
}

}  // namespace qikey
