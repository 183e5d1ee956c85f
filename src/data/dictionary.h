#ifndef QIKEY_DATA_DICTIONARY_H_
#define QIKEY_DATA_DICTIONARY_H_

#include <cstdint>
#include <cstring>
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
/// string. Hashing and probing are inline because CSV ingest looks up
/// every field; only an insert is a call.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code of `value`, inserting it if new.
  ValueCode GetOrAdd(std::string_view value) {
    uint32_t hash = HashValue(value);
    if (!slots_.empty()) {
      uint64_t slot = slots_[Probe(value, hash)];
      if (slot != kEmptySlot) return SlotCode(slot);
    }
    return Insert(value, hash);
  }

  /// Returns the code of `value` or `kNotFound` if absent.
  static constexpr ValueCode kNotFound = ~ValueCode{0};
  ValueCode Find(std::string_view value) const;

  /// The string for a code. Code must be valid.
  const std::string& Value(ValueCode code) const { return values_[code]; }

  /// Number of distinct values.
  size_t size() const { return values_.size(); }

  /// Multiply-xorshift hash. Column values are mostly a few bytes, which
  /// take a single round. `Schema` hashes attribute names with it too.
  static uint32_t HashValue(std::string_view value) {
    const char* p = value.data();
    size_t n = value.size();
    uint64_t h = 0xD6E8FEB86659FD93ULL ^ n;
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word = 0;
      std::memcpy(&word, p, 8);
      h = Mix(h, word);
    }
    uint64_t tail = 0;
    if (n >= 4) {
      uint32_t lo = 0;  // two overlapping loads cover 4..7 bytes
      uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + n - 4, 4);
      tail = lo | (uint64_t{hi} << 32);
    } else if (n > 0) {
      tail = static_cast<uint8_t>(p[0]) |
             (uint64_t{static_cast<uint8_t>(p[n / 2])} << 8) |
             (uint64_t{static_cast<uint8_t>(p[n - 1])} << 16);
    }
    return static_cast<uint32_t>(Mix(h, tail));
  }

 private:
  // A slot packs the value's 32-bit hash (high half) with its code (low
  // half), so probes and rehashing never touch the strings of other
  // values. An empty slot is all ones (kNotFound is never a code).
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  static uint32_t SlotHash(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }
  static ValueCode SlotCode(uint64_t slot) {
    return static_cast<ValueCode>(slot);
  }

  static uint64_t Mix(uint64_t h, uint64_t word) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 32);
  }

  /// `stored == value`. Column values are mostly a few bytes, for which
  /// a byte loop beats a call to `memcmp`.
  static bool Equal(const std::string& stored, std::string_view value) {
    if (stored.size() != value.size()) return false;
    for (size_t i = 0; i < value.size(); ++i) {
      if (stored[i] != value[i]) return false;
    }
    return true;
  }

  /// Index of the slot holding `value`, or of the empty slot ending its
  /// probe sequence. The table must be non-empty.
  size_t Probe(std::string_view value, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      uint64_t slot = slots_[i];
      if (slot == kEmptySlot ||
          (SlotHash(slot) == hash && Equal(values_[SlotCode(slot)], value))) {
        return i;
      }
    }
  }

  /// Adds `value`, which is absent, and returns its new code.
  ValueCode Insert(std::string_view value, uint32_t hash);
  void Grow();

  std::vector<std::string> values_;
  std::vector<uint64_t> slots_;  // power-of-two size, at most half full
};

}  // namespace qikey

#endif  // QIKEY_DATA_DICTIONARY_H_
