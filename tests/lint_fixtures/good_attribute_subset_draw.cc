// LINT-PATH: src/core/attribute_set.cc
//
// Clean control for QL007: random attribute subsets are not tuple
// samples, so attribute_set.cc may draw without replacement.

#include <cstdint>
#include <vector>

#include "util/rng.h"

std::vector<uint64_t> DrawAttributes(uint64_t m, uint64_t k, qikey::Rng* rng) {
  return rng->SampleWithoutReplacement(m, k);
}
