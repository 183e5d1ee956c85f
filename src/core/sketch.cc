#include "core/sketch.h"

#include <cstring>

#include "core/sample_bounds.h"
#include "stream/pair_slots.h"
#include "util/logging.h"

namespace qikey {

Result<NonSeparationSketch> NonSeparationSketch::Build(
    const Dataset& dataset, const NonSeparationSketchOptions& options,
    Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  if (!IsValidEps(options.eps) ||
      !(options.alpha > 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("eps in (0,1) and alpha in (0,1] required");
  }
  const uint32_t m = static_cast<uint32_t>(dataset.num_attributes());
  uint64_t s = options.sample_size > 0
                   ? options.sample_size
                   : SketchPairSampleSize(options.k, m, options.alpha,
                                          options.eps, options.big_k);
  NonSeparationSketch sketch;
  sketch.num_attributes_ = m;
  sketch.num_pairs_ = s;
  sketch.total_pairs_ = dataset.num_pairs();
  sketch.small_cutoff_ =
      SketchSmallCutoff(options.k, m, options.eps, options.big_k);
  sketch.codes_.resize(2 * s * m);
  std::vector<std::pair<RowIndex, RowIndex>> pairs =
      DrawPairSlots(dataset.num_rows(), s, rng);
  for (uint64_t i = 0; i < s; ++i) {
    for (uint32_t j = 0; j < m; ++j) {
      sketch.codes_[(2 * i) * m + j] = dataset.code(pairs[i].first, j);
      sketch.codes_[(2 * i + 1) * m + j] = dataset.code(pairs[i].second, j);
    }
  }
  return sketch;
}

Result<NonSeparationSketch> NonSeparationSketch::FromMaterializedPairs(
    uint32_t num_attributes, uint64_t total_pairs, uint64_t small_cutoff,
    std::vector<ValueCode> codes) {
  if (num_attributes == 0) {
    return Status::InvalidArgument("need at least one attribute");
  }
  if (codes.size() % (2 * static_cast<size_t>(num_attributes)) != 0) {
    return Status::InvalidArgument(
        "codes length must be a multiple of 2*num_attributes");
  }
  NonSeparationSketch sketch;
  sketch.num_attributes_ = num_attributes;
  sketch.num_pairs_ = codes.size() / (2 * num_attributes);
  sketch.total_pairs_ = total_pairs;
  sketch.small_cutoff_ = small_cutoff;
  sketch.codes_ = std::move(codes);
  return sketch;
}

NonSeparationEstimate NonSeparationSketch::Estimate(
    const AttributeSet& attrs) const {
  std::vector<AttributeIndex> idx = attrs.ToIndices();
  uint64_t hits = 0;
  const uint32_t m = num_attributes_;
  for (uint64_t i = 0; i < num_pairs_; ++i) {
    const ValueCode* left = &codes_[(2 * i) * m];
    const ValueCode* right = &codes_[(2 * i + 1) * m];
    bool agree = true;
    for (AttributeIndex a : idx) {
      if (left[a] != right[a]) {
        agree = false;
        break;
      }
    }
    if (agree) ++hits;
  }
  NonSeparationEstimate out;
  out.hits = hits;
  if (hits < small_cutoff_) {
    out.small = true;
    return out;
  }
  out.estimate = static_cast<double>(hits) *
                 static_cast<double>(total_pairs_) /
                 static_cast<double>(num_pairs_);
  return out;
}

uint64_t NonSeparationSketch::SizeBytes() const {
  return sizeof(num_attributes_) + sizeof(num_pairs_) +
         sizeof(total_pairs_) + sizeof(small_cutoff_) +
         codes_.size() * sizeof(ValueCode);
}

std::string NonSeparationSketch::Serialize() const {
  std::string out;
  out.resize(SizeBytes());
  char* p = out.data();
  auto put = [&p](const void* src, size_t bytes) {
    std::memcpy(p, src, bytes);
    p += bytes;
  };
  put(&num_attributes_, sizeof(num_attributes_));
  put(&num_pairs_, sizeof(num_pairs_));
  put(&total_pairs_, sizeof(total_pairs_));
  put(&small_cutoff_, sizeof(small_cutoff_));
  put(codes_.data(), codes_.size() * sizeof(ValueCode));
  return out;
}

Result<NonSeparationSketch> NonSeparationSketch::Deserialize(
    const std::string& bytes) {
  NonSeparationSketch sketch;
  size_t header = sizeof(sketch.num_attributes_) + sizeof(sketch.num_pairs_) +
                  sizeof(sketch.total_pairs_) + sizeof(sketch.small_cutoff_);
  if (bytes.size() < header) {
    return Status::InvalidArgument("sketch payload too short");
  }
  const char* p = bytes.data();
  auto get = [&p](void* dst, size_t n) {
    std::memcpy(dst, p, n);
    p += n;
  };
  get(&sketch.num_attributes_, sizeof(sketch.num_attributes_));
  get(&sketch.num_pairs_, sizeof(sketch.num_pairs_));
  get(&sketch.total_pairs_, sizeof(sketch.total_pairs_));
  get(&sketch.small_cutoff_, sizeof(sketch.small_cutoff_));
  uint64_t expected =
      2 * sketch.num_pairs_ * sketch.num_attributes_ * sizeof(ValueCode);
  if (bytes.size() != header + expected) {
    return Status::InvalidArgument("sketch payload size mismatch");
  }
  sketch.codes_.resize(2 * sketch.num_pairs_ * sketch.num_attributes_);
  get(sketch.codes_.data(), expected);
  return sketch;
}

}  // namespace qikey
