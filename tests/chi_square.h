#ifndef QIKEY_TESTS_CHI_SQUARE_H_
#define QIKEY_TESTS_CHI_SQUARE_H_

// Pearson's chi-square goodness-of-fit check for the sampler uniformity
// tests: observed counts over k equally likely outcomes.

#include <cmath>
#include <cstdint>

namespace qikey {

/// Pearson's statistic of the counts in `freq` (outcome -> count)
/// against equal expected counts over `outcomes` outcomes; outcomes
/// missing from `freq` count as observed zero times.
template <typename Map>
double ChiSquareStatistic(const Map& freq, uint64_t outcomes) {
  double total = 0.0;
  for (const auto& [outcome, count] : freq) total += count;
  const double expected = total / static_cast<double>(outcomes);
  double stat = static_cast<double>(outcomes - freq.size()) * expected;
  for (const auto& [outcome, count] : freq) {
    const double d = static_cast<double>(count) - expected;
    stat += d * d / expected;
  }
  return stat;
}

/// Upper 0.1% point of the chi-square law with `dof` degrees of freedom
/// (Wilson–Hilferty approximation, within 1% for dof >= 10): a uniform
/// sampler exceeds it with probability 0.001.
inline double ChiSquareCritical(double dof) {
  const double z = 3.0902;  // standard normal upper 0.1% point
  const double v = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - v + z * std::sqrt(v), 3.0);
}

}  // namespace qikey

#endif  // QIKEY_TESTS_CHI_SQUARE_H_
