// LINT-PATH: src/core/bad_sample_pair.cc
// EXPECT-LINT: QL006
//
// A second pair-sampling loop outside stream/pair_slots.cc: a change to
// how pairs are drawn would have to be made, and checked, here too.
// Mentioning SamplePair( in a comment is fine.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

std::vector<std::pair<uint64_t, uint64_t>> Draw(uint64_t n, uint64_t s,
                                                qikey::Rng* rng) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t i = 0; i < s; ++i) pairs.push_back(rng->SamplePair(n));
  return pairs;
}
