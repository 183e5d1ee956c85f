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

  /// \brief Merges `other` into this sampler. Both must have the same
  /// capacity and have sampled DISJOINT streams; afterwards the retained
  /// items are distributed exactly as one reservoir fed the
  /// concatenation of both streams (`seen()` becomes the sum).
  ///
  /// The split is hypergeometric — k of the merged sample come from
  /// this reservoir, where k is the number of population-1 items in a
  /// uniform `capacity`-draw from `seen() + other.seen()` — and uniform
  /// subsets of the two uniform samples fill the two sides. The sampler
  /// remains usable: further `Offer`s stay exactly uniform (replacement
  /// times are then drawn from the closed-form skip distribution rather
  /// than Algorithm L's running-maximum state, which a merge
  /// invalidates).
  void Merge(ReservoirSampler&& other) {
    QIKEY_CHECK(capacity_ == other.capacity_)
        << "cannot merge reservoirs of differing capacity";
    uint64_t n1 = seen_;
    uint64_t n2 = other.seen_;
    uint64_t target = std::min<uint64_t>(capacity_, n1 + n2);
    uint64_t k = rng_->HypergeometricDraw(target, n1, n2);
    QIKEY_CHECK(k <= items_.size() && target - k <= other.items_.size())
        << "reservoir smaller than its hypergeometric share";
    std::vector<T> merged;
    merged.reserve(target);
    for (uint64_t idx : rng_->SampleWithoutReplacement(items_.size(), k)) {
      merged.push_back(std::move(items_[idx]));
    }
    for (uint64_t idx :
         rng_->SampleWithoutReplacement(other.items_.size(), target - k)) {
      merged.push_back(std::move(other.items_[idx]));
    }
    items_ = std::move(merged);
    seen_ = n1 + n2;
    other.items_.clear();
    other.seen_ = 0;
    exact_skip_ = true;
    if (items_.size() == capacity_) PlanSkipExact();
  }

  uint64_t seen() const { return seen_; }
  const std::vector<T>& items() const { return items_; }
  std::vector<T> TakeItems() && { return std::move(items_); }

 private:
  // Algorithm L: w tracks the max of k uniforms; the number of items to
  // skip before the next replacement is geometric-like.
  void PlanSkip() {
    if (exact_skip_) {
      PlanSkipExact();
      return;
    }
    double u1 = std::max(rng_->UniformDouble(), 1e-300);
    w_ *= std::exp(std::log(u1) / static_cast<double>(capacity_));
    double u2 = std::max(rng_->UniformDouble(), 1e-300);
    skip_ = static_cast<uint64_t>(
        std::floor(std::log(u2) / std::log1p(-w_)));
  }

  // Exact skip for a reservoir that merged: with k = capacity and t
  // items seen, P(skip >= j) = prod_{i=1..j} (1 - k/(t+i)). Inversion by
  // sequential product — O(skip) work, i.e. O(1) per skipped item, and
  // exactly the acceptance law of Algorithm R at any t.
  void PlanSkipExact() {
    double u = std::max(rng_->UniformDouble(), 1e-300);
    double survival = 1.0;
    uint64_t j = 0;
    double k = static_cast<double>(capacity_);
    while (true) {
      survival *= 1.0 - k / static_cast<double>(seen_ + j + 1);
      if (survival <= u) break;
      ++j;
    }
    skip_ = j;
  }

  size_t capacity_;
  Rng* rng_;
  std::vector<T> items_;
  uint64_t seen_ = 0;
  uint64_t skip_ = 0;
  double w_ = 1.0;
  bool exact_skip_ = false;
};

}  // namespace qikey

#endif  // QIKEY_STREAM_RESERVOIR_H_
