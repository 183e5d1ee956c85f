#include "data/dictionary.h"

#include <cstring>

#include "util/logging.h"

namespace qikey {

namespace {

uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

/// Inline multiply-xorshift hash. Column values are mostly a few bytes,
/// which take a single round.
uint32_t HashValue(std::string_view value) {
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

uint32_t SlotHash(uint64_t slot) { return static_cast<uint32_t>(slot >> 32); }
ValueCode SlotCode(uint64_t slot) { return static_cast<ValueCode>(slot); }

}  // namespace

size_t Dictionary::Probe(std::string_view value, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint64_t slot = slots_[i];
    if (slot == kEmptySlot ||
        (SlotHash(slot) == hash && values_[SlotCode(slot)] == value)) {
      return i;
    }
  }
}

void Dictionary::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == kEmptySlot) continue;
    size_t i = SlotHash(slot) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

ValueCode Dictionary::GetOrAdd(std::string_view value) {
  if (2 * (values_.size() + 1) > slots_.size()) Grow();
  uint32_t hash = HashValue(value);
  size_t i = Probe(value, hash);
  if (slots_[i] != kEmptySlot) return SlotCode(slots_[i]);
  QIKEY_CHECK(values_.size() < kNotFound) << "dictionary overflow";
  ValueCode code = static_cast<ValueCode>(values_.size());
  values_.emplace_back(value);
  slots_[i] = (uint64_t{hash} << 32) | code;
  return code;
}

ValueCode Dictionary::Find(std::string_view value) const {
  if (slots_.empty()) return kNotFound;
  size_t i = Probe(value, HashValue(value));
  return slots_[i] == kEmptySlot ? kNotFound : SlotCode(slots_[i]);
}

}  // namespace qikey
