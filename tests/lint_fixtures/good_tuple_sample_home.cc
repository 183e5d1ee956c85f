// LINT-PATH: src/stream/tuple_sample.cc
//
// Clean control for QL007: the tuple-sample home may draw rows.

#include <cstdint>
#include <vector>

#include "util/rng.h"

std::vector<uint64_t> DrawRows(uint64_t n, uint64_t r, qikey::Rng* rng) {
  return rng->SampleWithoutReplacement(n, r);
}
