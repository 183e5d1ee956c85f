// LINT-PATH: src/core/bad_tuple_draw.cc
// EXPECT-LINT: QL007
//
// A second tuple draw outside stream/tuple_sample.cc: a change to how
// tuples are sampled would have to be made, and checked, here too.
// Mentioning SampleWithoutReplacement( in a comment is fine.

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

qikey::Dataset Draw(const qikey::Dataset& d, uint64_t r, qikey::Rng* rng) {
  std::vector<uint64_t> chosen =
      rng->SampleWithoutReplacement(d.num_rows(), r);
  std::vector<qikey::RowIndex> rows(chosen.begin(), chosen.end());
  return d.SelectRows(rows);
}
