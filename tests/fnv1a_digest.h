#ifndef QIKEY_TESTS_FNV1A_DIGEST_H_
#define QIKEY_TESTS_FNV1A_DIGEST_H_

// FNV-1a digests for the draw-pin tests: each pins what a sampler keeps
// (and what it leaves its RNG at) as one fixed 64-bit constant.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"

namespace qikey {

constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/// FNV-1a over `bytes`, continuing from `hash`.
inline uint64_t Fnv1a(std::string_view bytes, uint64_t hash = kFnv1aOffset) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The rows of `d` as text, one per line, in row order.
inline uint64_t RowsDigest(const Dataset& d) {
  uint64_t hash = kFnv1aOffset;
  for (RowIndex i = 0; i < d.num_rows(); ++i) {
    hash = Fnv1a(d.FormatRow(i) + "\n", hash);
  }
  return hash;
}

/// `rows` in order, one decimal index per line.
inline uint64_t IndexDigest(const std::vector<RowIndex>& rows) {
  uint64_t hash = kFnv1aOffset;
  for (RowIndex row : rows) hash = Fnv1a(std::to_string(row) + "\n", hash);
  return hash;
}

}  // namespace qikey

#endif  // QIKEY_TESTS_FNV1A_DIGEST_H_
