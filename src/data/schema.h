#ifndef QIKEY_DATA_SCHEMA_H_
#define QIKEY_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dictionary.h"

namespace qikey {

/// Index of an attribute (coordinate) within a data set; `[0, m)`.
using AttributeIndex = uint32_t;

/// \brief Names of the attributes of a data set.
///
/// Name lookup goes through a flat open-addressing table built once in
/// the constructor (the `Dictionary` layout and hash: a slot packs the
/// name's 32-bit hash with its index), so `Find` hashes the
/// `string_view` directly and builds no temporary string.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> names);

  /// A schema with attributes named "a0", "a1", ... (for synthetic data).
  static Schema Anonymous(size_t num_attributes);

  size_t num_attributes() const { return names_.size(); }
  const std::string& name(AttributeIndex i) const { return names_[i]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Returns the index of the attribute called `name`, or -1 if absent.
  /// Of duplicate names, the first occurrence wins. Inline: the request
  /// parser resolves every attribute name of every request through it.
  int Find(std::string_view name) const {
    if (slots_.empty()) return -1;
    const uint32_t hash = HashName(name);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == kEmptySlot) return -1;
      const uint32_t index = static_cast<uint32_t>(slot);
      if (static_cast<uint32_t>(slot >> 32) == hash && names_[index] == name) {
        return static_cast<int>(index);
      }
    }
  }

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  /// `Dictionary::HashValue`, finalized with murmur3's fmix32. The raw
  /// hash's low bits do not change between names that differ only past
  /// their fourth byte (`soil_1`, `soil_2`, ...): masked directly, a
  /// covtype schema probes ~13 slots per lookup; finalized, ~1.4.
  static uint32_t HashName(std::string_view name) {
    uint32_t h = Dictionary::HashValue(name);
    h ^= h >> 16;
    h *= 0x85EBCA6BU;
    h ^= h >> 13;
    h *= 0xC2B2AE35U;
    h ^= h >> 16;
    return h;
  }

  std::vector<std::string> names_;
  std::vector<uint64_t> slots_;  // power-of-two size, at most half full
};

}  // namespace qikey

#endif  // QIKEY_DATA_SCHEMA_H_
