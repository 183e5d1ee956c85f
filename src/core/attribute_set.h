#ifndef QIKEY_CORE_ATTRIBUTE_SET_H_
#define QIKEY_CORE_ATTRIBUTE_SET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/schema.h"
#include "util/rng.h"

namespace qikey {

/// \brief A subset of the `m` attributes (the paper's `A ⊆ [m]`),
/// stored as a packed bitset.
///
/// Supports the set algebra the algorithms need plus conversion to the
/// index-vector form used by the data layer.
class AttributeSet {
 public:
  AttributeSet() = default;
  /// Empty set over a universe of `num_attributes` coordinates.
  explicit AttributeSet(size_t num_attributes);

  static AttributeSet FromIndices(size_t num_attributes,
                                  const std::vector<AttributeIndex>& indices);
  /// The full set `[m]`.
  static AttributeSet All(size_t num_attributes);
  /// A uniform random subset: each attribute included independently with
  /// probability `include_prob`.
  static AttributeSet Random(size_t num_attributes, double include_prob,
                             Rng* rng);
  /// A uniform random subset of exactly `k` attributes.
  static AttributeSet RandomOfSize(size_t num_attributes, size_t k, Rng* rng);

  size_t universe_size() const { return num_attributes_; }
  size_t size() const;  ///< number of attributes in the set
  bool empty() const { return size() == 0; }

  bool Contains(AttributeIndex i) const;
  void Add(AttributeIndex i);
  void Remove(AttributeIndex i);
  /// Empties the set over a universe of `num_attributes`, in place: the
  /// word storage is reused, so a set recycled at the same universe
  /// size never allocates.
  void Reset(size_t num_attributes);

  AttributeSet Union(const AttributeSet& other) const;
  AttributeSet Intersection(const AttributeSet& other) const;
  /// Set difference `this \ other`.
  AttributeSet Difference(const AttributeSet& other) const;
  bool IsSubsetOf(const AttributeSet& other) const;

  /// Ascending list of member indices.
  std::vector<AttributeIndex> ToIndices() const;

  /// The packed 64-bit words backing the set, lowest attributes first
  /// (`⌈universe_size/64⌉` words); the layout the packed-evidence
  /// kernels AND against.
  std::span<const uint64_t> words() const { return words_; }

  /// Renders as "{a0, a3}" using `schema` names, or indices if null.
  std::string ToString(const Schema* schema = nullptr) const;

  bool operator==(const AttributeSet& other) const;
  bool operator!=(const AttributeSet& other) const {
    return !(*this == other);
  }

  /// 64-bit hash (for use in unordered containers).
  uint64_t Hash() const;

 private:
  size_t num_attributes_ = 0;
  std::vector<uint64_t> words_;
};

struct AttributeSetHasher {
  size_t operator()(const AttributeSet& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace qikey

#endif  // QIKEY_CORE_ATTRIBUTE_SET_H_
