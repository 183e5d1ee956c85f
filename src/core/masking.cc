#include "core/masking.h"

#include <algorithm>

#include "core/sample_bounds.h"
#include "data/partition.h"
#include "stream/tuple_sample.h"
#include "util/logging.h"

namespace qikey {

namespace {

/// Greedy masking loop over `eval` (which is either the sample or the
/// full data set).
MaskingResult GreedyMask(const Dataset& eval, double eps,
                         size_t max_masked) {
  const size_t m = eval.num_attributes();
  const uint64_t total_pairs = eval.num_pairs();
  const double max_separated =
      (1.0 - eps) * static_cast<double>(total_pairs);

  MaskingResult result;
  result.masked = AttributeSet(m);
  AttributeSet remaining = AttributeSet::All(m);

  auto separated_by = [&](const AttributeSet& attrs) -> uint64_t {
    return total_pairs -
           CountUnseparatedPairs(eval, attrs.ToIndices());
  };

  uint64_t current = separated_by(remaining);
  while (static_cast<double>(current) > max_separated &&
         result.steps.size() < max_masked && !remaining.empty()) {
    // Mask the attribute whose removal leaves the fewest separated
    // pairs (destroys the most separation).
    AttributeIndex best_attr = 0;
    uint64_t best_separated = ~uint64_t{0};
    for (AttributeIndex a : remaining.ToIndices()) {
      AttributeSet candidate = remaining;
      candidate.Remove(a);
      uint64_t separated = separated_by(candidate);
      if (separated < best_separated) {
        best_separated = separated;
        best_attr = a;
      }
    }
    remaining.Remove(best_attr);
    result.masked.Add(best_attr);
    current = best_separated;
    result.steps.emplace_back(best_attr, best_separated);
  }
  result.achieved = static_cast<double>(current) <= max_separated;
  result.residual_separation =
      total_pairs > 0 ? static_cast<double>(current) /
                            static_cast<double>(total_pairs)
                      : 0.0;
  return result;
}

}  // namespace

Result<MaskingResult> FindMaskingSet(const Dataset& dataset,
                                     const MaskingOptions& options,
                                     Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  uint64_t r = ResolveTupleSampleSize(options.sample_size,
                                      dataset.num_attributes(), options.eps);
  Dataset sample =
      DrawTupleSample(dataset, 0, dataset.num_rows(), r, rng).sample;
  MaskingResult result = GreedyMask(sample, options.eps, options.max_masked);
  result.sample_size = sample.num_rows();
  return result;
}

MaskingResult GreedyMaskingExact(const Dataset& dataset, double eps) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  MaskingResult result =
      GreedyMask(dataset, eps, dataset.num_attributes());
  result.sample_size = dataset.num_rows();
  return result;
}

}  // namespace qikey
