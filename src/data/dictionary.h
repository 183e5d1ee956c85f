#ifndef QIKEY_DATA_DICTIONARY_H_
#define QIKEY_DATA_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qikey {

/// Dictionary code for a value within one column. Codes are dense:
/// a column with cardinality `c` uses codes `0..c-1`.
using ValueCode = uint32_t;

/// \brief Per-column value dictionary (string <-> dense code).
///
/// The library operates on dictionary codes everywhere: the separation
/// structure of a data set depends only on equality of values, so any
/// universe `U` with a total order can be encoded this way (Section 1's
/// "mild assumption"). The dictionary is only consulted when loading
/// text data or rendering results.
///
/// Codes follow first appearance. Each value is stored once, in
/// `values_`; the index is a flat open-addressing table of codes into it,
/// so a lookup hashes the `string_view` directly and builds no temporary
/// string.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code of `value`, inserting it if new.
  ValueCode GetOrAdd(std::string_view value);

  /// Returns the code of `value` or `kNotFound` if absent.
  static constexpr ValueCode kNotFound = ~ValueCode{0};
  ValueCode Find(std::string_view value) const;

  /// The string for a code. Code must be valid.
  const std::string& Value(ValueCode code) const { return values_[code]; }

  /// Number of distinct values.
  size_t size() const { return values_.size(); }

 private:
  // A slot packs the value's 32-bit hash (high half) with its code (low
  // half), so probes and rehashing never touch the strings of other
  // values. An empty slot is all ones (kNotFound is never a code).
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  /// Index of the slot holding `value`, or of the empty slot ending its
  /// probe sequence. The table must be non-empty.
  size_t Probe(std::string_view value, uint32_t hash) const;
  void Grow();

  std::vector<std::string> values_;
  std::vector<uint64_t> slots_;  // power-of-two size, at most half full
};

}  // namespace qikey

#endif  // QIKEY_DATA_DICTIONARY_H_
