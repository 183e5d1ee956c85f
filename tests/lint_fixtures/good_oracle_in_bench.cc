// LINT-PATH: bench/good_oracle_in_bench.cc
//
// Clean control for QL006: benches (like tests) may include the
// MxPairFilter oracle and draw their own pairs.

#include <cstdint>
#include <utility>

#include "core/mx_pair_filter.h"
#include "util/rng.h"

std::pair<uint64_t, uint64_t> Baseline(uint64_t n, qikey::Rng* rng) {
  return rng->SamplePair(n);
}
