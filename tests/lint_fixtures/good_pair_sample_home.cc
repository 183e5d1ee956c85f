// LINT-PATH: src/stream/pair_slots.cc
//
// Clean control for QL006: the pair-slot home may call SamplePair.

#include <cstdint>
#include <utility>

#include "util/rng.h"

std::pair<uint64_t, uint64_t> DrawOne(uint64_t n, qikey::Rng* rng) {
  return rng->SamplePair(n);
}
