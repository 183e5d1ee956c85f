#include "data/schema.h"

#include <bit>

namespace qikey {

Schema::Schema(std::vector<std::string> names) : names_(std::move(names)) {
  if (names_.empty()) return;
  slots_.assign(std::bit_ceil(2 * names_.size()), kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (size_t index = 0; index < names_.size(); ++index) {
    uint32_t hash = HashName(names_[index]);
    size_t i = hash & mask;
    while (slots_[i] != kEmptySlot) {
      // A later duplicate keeps the first occurrence's slot.
      if (names_[static_cast<uint32_t>(slots_[i])] == names_[index]) break;
      i = (i + 1) & mask;
    }
    if (slots_[i] == kEmptySlot) slots_[i] = (uint64_t{hash} << 32) | index;
  }
}

Schema Schema::Anonymous(size_t num_attributes) {
  std::vector<std::string> names;
  names.reserve(num_attributes);
  for (size_t i = 0; i < num_attributes; ++i) {
    // Built with += (not "a" + to_string) to dodge gcc 12's -Wrestrict
    // false positive on operator+(const char*, string&&) (PR105651).
    std::string name = "a";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return Schema(std::move(names));
}

}  // namespace qikey
