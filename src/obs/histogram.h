#ifndef QIKEY_OBS_HISTOGRAM_H_
#define QIKEY_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qikey {

/// \brief Point-in-time copy of a LatencyHistogram (see below).
///
/// `buckets` is bucket-exact: merging two snapshots element-wise gives
/// the same result as recording both value streams into one histogram,
/// in either order. Quantile extraction walks the cumulative counts,
/// so it costs O(kNumBuckets) and allocates nothing.
struct HistogramSnapshot {
  uint64_t count = 0;  ///< Total recorded values (sum of buckets).
  uint64_t sum = 0;    ///< Sum of recorded values (exact, not bucketed).
  uint64_t max = 0;    ///< Upper edge of the highest non-empty bucket.
  std::vector<uint64_t> buckets;

  /// Returns the representative value at quantile `q` in [0, 1]:
  /// the midpoint of the bucket holding the ceil(q * count)-th
  /// smallest recorded value. Returns 0 for an empty histogram.
  uint64_t ValueAtQuantile(double q) const;

  /// Element-wise bucket add; count/sum/max combine exactly.
  void MergeFrom(const HistogramSnapshot& other);
};

/// \brief Lock-free mergeable latency histogram (HDR-style log-linear).
///
/// Non-negative 64-bit values land in one of 1920 buckets: each
/// power-of-two range [2^e, 2^(e+1)) is split into 32 linear
/// sub-buckets, so the bucket width is at most value/32 — every
/// quantile read back is within a 1/32 relative error of the true
/// sample, and values 0..63 are recorded exactly. Negative values
/// clamp to 0.
///
/// `Record` is two relaxed `fetch_add`s (bucket + sum) — no locks, no
/// CAS loops — so it is safe and cheap to call from the serve shards
/// and pool tasks concurrently. Reads (`Snapshot`,
/// `count`, `sum`) are relaxed too: a snapshot taken while writers are
/// active is a consistent-enough view (each bucket is atomically
/// read), and is exact once writers quiesce.
class LatencyHistogram {
 public:
  /// Sub-buckets per power-of-two range (2^kSubBits).
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
  /// 2*32 exact low buckets + 58 ranges of 32: indices 0..1919.
  static constexpr size_t kNumBuckets =
      (64 - kSubBits + 1) * static_cast<size_t>(kSubCount);

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one value (negatives clamp to 0).
  void Record(int64_t value) { RecordN(value, 1); }

  /// Records `n` occurrences of `value`.
  void RecordN(int64_t value, uint64_t n);

  /// Adds every recorded value of `other` into this histogram,
  /// bucket-exact (commutative and associative across histograms).
  void MergeFrom(const LatencyHistogram& other);

  /// Total number of recorded values.
  uint64_t count() const;

  /// Exact sum of recorded (clamped) values.
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Copies the current state; see HistogramSnapshot.
  HistogramSnapshot Snapshot() const;

  /// Convenience: Snapshot().ValueAtQuantile(q).
  uint64_t ValueAtQuantile(double q) const {
    return Snapshot().ValueAtQuantile(q);
  }

  /// Bucket index for a value (see class comment for the scheme).
  static size_t BucketIndex(uint64_t value);

  /// Midpoint representative of bucket `index` (exact value for the
  /// unit-width buckets below 64).
  static uint64_t BucketValue(size_t index);

  /// One past the largest value bucket `index` covers, minus one
  /// (i.e. the inclusive upper edge).
  static uint64_t BucketUpperEdge(size_t index);

 private:
  // Lock-free by design: every cell is an independent relaxed atomic,
  // so there is no capability to annotate — concurrent Record/Snapshot
  // tearing across buckets is accepted and documented above.
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

}  // namespace qikey

#endif  // QIKEY_OBS_HISTOGRAM_H_
