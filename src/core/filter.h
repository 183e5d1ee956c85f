#ifndef QIKEY_CORE_FILTER_H_
#define QIKEY_CORE_FILTER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/attribute_set.h"
#include "data/dataset.h"

namespace qikey {

class ThreadPool;

/// Answer of an ε-separation key filter for a queried attribute set.
enum class FilterVerdict {
  kAccept,  ///< consistent with being a key on the retained sample
  kReject,  ///< witnessed an unseparated pair; certainly not a key
};

/// Which ε-separation filter implementation backs a component (the
/// discovery pipeline's query/verify stages, the incremental monitor).
enum class FilterBackend {
  kTupleSample,  ///< this paper's `Θ(m/√ε)` tuple sample (Algorithm 1)
  /// The Motwani–Xu `Θ(m/ε)` pair sample, drawn independently of the
  /// greedy tuple sample and answered from bit-packed disagree-set
  /// evidence (`BitsetSeparationFilter`, word-wise AND query kernel).
  kBitset,
};

/// \brief Interface of the ε-separation key filter (the decision problem
/// of Theorem 1).
///
/// Contract ("for all" success notion): with probability `1-δ` over the
/// filter's randomness, simultaneously for every `A ⊆ [m]`:
///   - if `A` is a key, `Query(A)` accepts (this holds deterministically
///     for both implementations: a key separates every retained pair);
///   - if `A` is bad (separates < `(1-ε)C(n,2)` pairs), `Query(A)`
///     rejects;
///   - otherwise either answer is allowed.
class SeparationFilter {
 public:
  virtual ~SeparationFilter() = default;

  virtual FilterVerdict Query(const AttributeSet& attrs) const = 0;

  /// \brief Answers many queries at once; `verdicts[i]` is the verdict
  /// for `attrs[i]`, identical to calling `Query(attrs[i])`.
  ///
  /// The base implementation is a serial loop. Subclasses whose `Query`
  /// is safe to run concurrently override it to split the batch across
  /// `pool` (null pool = serial); this is the API candidate-set
  /// enumeration and the discovery pipeline drive, so one enumeration
  /// level costs one batch instead of thousands of virtual calls.
  virtual std::vector<FilterVerdict> QueryBatch(
      std::span<const AttributeSet> attrs, ThreadPool* pool = nullptr) const;

  /// A rejection witness: a pair of rows of the *original* data set that
  /// the queried attributes fail to separate, if the verdict is Reject.
  virtual std::optional<std::pair<RowIndex, RowIndex>> QueryWitness(
      const AttributeSet& attrs) const = 0;

  /// Number of retained samples (pairs or tuples, see the subclass).
  virtual uint64_t sample_size() const = 0;

  /// Approximate memory footprint of the retained state in bytes.
  virtual uint64_t MemoryBytes() const = 0;
};

}  // namespace qikey

#endif  // QIKEY_CORE_FILTER_H_
