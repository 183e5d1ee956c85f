#include "data/dictionary.h"

#include "util/logging.h"

namespace qikey {

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

ValueCode Dictionary::Insert(std::string_view value, uint32_t hash) {
  if (2 * (values_.size() + 1) > slots_.size()) Grow();
  size_t i = Probe(value, hash);
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
