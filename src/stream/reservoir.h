#ifndef QIKEY_STREAM_RESERVOIR_H_
#define QIKEY_STREAM_RESERVOIR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace qikey {

/// \brief Uniform reservoir sampling of `k` items from a stream
/// (Vitter's Algorithm R, with the Algorithm-L skip optimization once
/// the reservoir is full).
///
/// After observing `t >= k` items, the reservoir is a uniform k-subset
/// of them — exactly the "sample tuples uniformly at random" primitive
/// of Algorithm 1, usable in one pass over the data as Section 1 notes.
template <typename T>
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, Rng* rng)
      : capacity_(capacity), rng_(rng) {
    QIKEY_CHECK(rng != nullptr);
    items_.reserve(capacity);
  }

  /// Offers the next stream item.
  void Offer(const T& item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      if (items_.size() == capacity_) PlanSkip();
      return;
    }
    if (skip_ > 0) {
      --skip_;
      return;
    }
    size_t victim = static_cast<size_t>(rng_->Uniform(capacity_));
    items_[victim] = item;
    PlanSkip();
  }

  /// True iff `Offer` would keep the next item: the reservoir is still
  /// filling, or the planned skip has run out. Draws nothing — the skip
  /// lengths never depend on the items, so a caller can learn this
  /// before it builds the item.
  bool NextIsKept() const { return items_.size() < capacity_ || skip_ == 0; }

  /// Counts the next item as seen and dropped, without the item. Only
  /// valid when `!NextIsKept()`; it leaves the sampler (and its RNG)
  /// exactly as `Offer` would have.
  void SkipNext() {
    QIKEY_DCHECK(!NextIsKept()) << "SkipNext on an item Offer would keep";
    ++seen_;
    --skip_;
  }

  uint64_t seen() const { return seen_; }
  const std::vector<T>& items() const { return items_; }
  std::vector<T> TakeItems() && { return std::move(items_); }

 private:
  // Algorithm L: w tracks the max of k uniforms; the number of items to
  // skip before the next replacement is geometric-like.
  void PlanSkip() {
    double u1 = std::max(rng_->UniformDouble(), 1e-300);
    w_ *= std::exp(std::log(u1) / static_cast<double>(capacity_));
    double u2 = std::max(rng_->UniformDouble(), 1e-300);
    skip_ = static_cast<uint64_t>(
        std::floor(std::log(u2) / std::log1p(-w_)));
  }

  size_t capacity_;
  Rng* rng_;
  std::vector<T> items_;
  uint64_t seen_ = 0;
  uint64_t skip_ = 0;
  double w_ = 1.0;
};

}  // namespace qikey

#endif  // QIKEY_STREAM_RESERVOIR_H_
