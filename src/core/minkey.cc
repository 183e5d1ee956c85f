#include "core/minkey.h"

#include <algorithm>

#include "core/sample_bounds.h"
#include "setcover/set_cover.h"
#include "stream/pair_slots.h"
#include "stream/tuple_sample.h"
#include "util/logging.h"

namespace qikey {

namespace {

MinKeyResult ResultFromGreedy(RefineEngine::GreedyResult greedy,
                              uint64_t sample_size) {
  MinKeyResult out;
  out.key = std::move(greedy.chosen);
  out.covered_sample = greedy.is_sample_key;
  out.sample_size = sample_size;
  out.steps = std::move(greedy.steps);
  return out;
}

}  // namespace

Result<MinKeyResult> FindApproxMinimumEpsKey(const Dataset& dataset,
                                             const MinKeyOptions& options,
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

  RefineEngine engine(sample, options.gain_strategy);
  return ResultFromGreedy(engine.RunGreedy(options.max_attributes),
                          sample.num_rows());
}

Result<MinKeyResult> FindApproxMinimumEpsKeyMx(const Dataset& dataset,
                                               const MinKeyOptions& options,
                                               Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  const size_t m = dataset.num_attributes();
  uint64_t s = options.sample_size > 0
                   ? options.sample_size
                   : MxPairSampleSizePaper(static_cast<uint32_t>(m),
                                           options.eps);
  // Ground set: the sampled pairs. Set j: pairs separated by attribute j.
  SetCoverInstance instance(s, m);
  std::vector<std::pair<RowIndex, RowIndex>> pairs =
      DrawPairSlots(dataset.num_rows(), s, rng);
  for (uint64_t i = 0; i < s; ++i) {
    for (size_t j = 0; j < m; ++j) {
      AttributeIndex attr = static_cast<AttributeIndex>(j);
      if (dataset.code(pairs[i].first, attr) !=
          dataset.code(pairs[i].second, attr)) {
        instance.Add(j, i);
      }
    }
  }
  SetCoverResult cover = GreedySetCover(instance);

  MinKeyResult out;
  out.key = AttributeSet(m);
  for (uint32_t j : cover.chosen) out.key.Add(static_cast<AttributeIndex>(j));
  out.covered_sample = cover.complete;
  out.sample_size = s;
  return out;
}

Result<MinKeyResult> FindMinimumEpsKeyExact(const Dataset& dataset,
                                            const MinKeyOptions& options,
                                            Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  const size_t m = dataset.num_attributes();
  uint64_t r = ResolveTupleSampleSize(options.sample_size, m, options.eps);
  Dataset sample =
      DrawTupleSample(dataset, 0, dataset.num_rows(), r, rng).sample;

  // Ground set: only the pairs the full attribute set leaves together
  // can never be covered; exclude them so a cover exists whenever the
  // sample has no exact duplicates. Enumerate the remaining pairs once.
  std::vector<std::pair<RowIndex, RowIndex>> ground;
  std::vector<AttributeIndex> all_attrs;
  for (size_t j = 0; j < m; ++j) {
    all_attrs.push_back(static_cast<AttributeIndex>(j));
  }
  bool has_duplicates = false;
  for (RowIndex i = 0; i < sample.num_rows(); ++i) {
    for (RowIndex j = i + 1; j < sample.num_rows(); ++j) {
      if (sample.RowsAgreeOn(i, j, all_attrs)) {
        has_duplicates = true;
      } else {
        ground.emplace_back(i, j);
      }
    }
  }
  SetCoverInstance instance(ground.size(), m);
  for (size_t e = 0; e < ground.size(); ++e) {
    for (size_t j = 0; j < m; ++j) {
      AttributeIndex a = static_cast<AttributeIndex>(j);
      if (sample.code(ground[e].first, a) !=
          sample.code(ground[e].second, a)) {
        instance.Add(j, e);
      }
    }
  }
  Result<std::vector<uint32_t>> cover =
      ExactSetCover(instance, static_cast<uint32_t>(m));
  if (!cover.ok()) return cover.status();

  MinKeyResult out;
  out.key = AttributeSet(m);
  for (uint32_t j : *cover) out.key.Add(static_cast<AttributeIndex>(j));
  out.covered_sample = !has_duplicates;
  out.sample_size = sample.num_rows();
  return out;
}

MinKeyResult GreedyMinimumKey(const Dataset& dataset, GainStrategy strategy) {
  RefineEngine engine(dataset, strategy);
  return ResultFromGreedy(engine.RunGreedy(),
                          static_cast<uint64_t>(dataset.num_rows()));
}

}  // namespace qikey
