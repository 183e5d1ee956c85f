#include "core/sample_bounds.h"

#include <cmath>

#include "util/logging.h"

namespace qikey {

namespace {

uint64_t CeilPositive(double x) {
  QIKEY_CHECK(x >= 0.0);
  return static_cast<uint64_t>(std::ceil(x));
}

}  // namespace

bool IsValidEps(double eps) {
  return std::isfinite(eps) && eps > 0.0 && eps < 1.0;
}

Status ValidateEps(double eps) {
  if (!IsValidEps(eps)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  return Status::OK();
}

Status ValidateUnitFraction(double value, const char* what) {
  if (!(std::isfinite(value) && value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be in [0, 1]");
  }
  return Status::OK();
}

uint64_t MxPairSampleSizePaper(uint32_t m, double eps) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  return CeilPositive(static_cast<double>(m) / eps);
}

uint64_t MxPairSampleSizeForDelta(uint32_t m, double eps, double delta) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  QIKEY_CHECK(delta > 0.0 && delta < 1.0);
  double needed =
      (static_cast<double>(m) * std::log(2.0) + std::log(1.0 / delta)) / eps;
  return CeilPositive(needed);
}

uint64_t TupleSampleSizePaper(uint32_t m, double eps) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  return CeilPositive(static_cast<double>(m) / std::sqrt(eps));
}

uint64_t ResolveTupleSampleSize(uint64_t requested, size_t m, double eps) {
  return requested > 0 ? requested
                       : TupleSampleSizePaper(static_cast<uint32_t>(m), eps);
}

uint64_t ResolvePairSampleSize(uint64_t requested, size_t m, double eps) {
  return requested > 0 ? requested
                       : MxPairSampleSizePaper(static_cast<uint32_t>(m), eps);
}

uint64_t TupleSampleSizeForDelta(uint32_t m, double eps, double delta) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  QIKEY_CHECK(delta > 0.0 && delta < 1.0);
  // The worst-case profile has one clique of Θ(√ε n); hitting it twice
  // needs r ≈ (m ln 2 + ln(1/δ)) / √(2ε) samples (each sample lands in
  // the clique w.p. √(2ε); see Lemma 2 / Lemma 4).
  double needed =
      (static_cast<double>(m) * std::log(2.0) + std::log(1.0 / delta)) /
      std::sqrt(2.0 * eps);
  return CeilPositive(needed);
}

uint64_t SketchPairSampleSize(uint32_t k, uint32_t m, double alpha,
                              double eps, double big_k) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  QIKEY_CHECK(alpha > 0.0 && alpha <= 1.0);
  double lm = std::log(std::max<double>(m, 2));
  return CeilPositive(big_k * static_cast<double>(k) * lm / (alpha * eps * eps));
}

uint64_t SketchSmallCutoff(uint32_t k, uint32_t m, double eps, double big_k) {
  QIKEY_CHECK(eps > 0.0 && eps < 1.0);
  double lm = std::log(std::max<double>(m, 2));
  return CeilPositive(big_k * static_cast<double>(k) * lm / (10.0 * eps * eps));
}

double LowerBoundConstantDelta(uint32_t m, double eps) {
  return std::sqrt(std::log(std::max<double>(m, 2)) / eps);
}

double LowerBoundExpDelta(uint32_t m, double eps) {
  return static_cast<double>(m) / std::sqrt(eps);
}

}  // namespace qikey
