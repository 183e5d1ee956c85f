#ifndef QIKEY_CORE_SAMPLE_BOUNDS_H_
#define QIKEY_CORE_SAMPLE_BOUNDS_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace qikey {

/// \brief Sample-size formulas from the paper, in two flavors:
/// *paper-table* sizes (the constants used for Table 1: `m/ε` pairs and
/// `m/√ε` tuples) and *for-delta* sizes with an explicit failure
/// probability `δ` against all `2^m` queries.

/// True iff `eps` is a usable separation threshold: finite and strictly
/// inside `(0, 1)`. The finiteness test matters — NaN compares false
/// against every bound, so the naive `eps <= 0 || eps >= 1` rejection
/// lets NaN through to the `Θ(m/ε)` size formulas, which then abort.
/// Every API boundary that takes an `eps` validates with this.
bool IsValidEps(double eps);

/// `IsValidEps` as a `Status` (InvalidArgument on failure), so call
/// sites stay one line: `QIKEY_RETURN_NOT_OK(ValidateEps(options.eps))`.
Status ValidateEps(double eps);

/// Shared check for the `[0, 1]` error/fraction knobs (`afd_error`,
/// `max_suppression`, ...): finite and within the closed unit interval.
/// `what` names the parameter in the error message.
Status ValidateUnitFraction(double value, const char* what);

/// Motwani–Xu pair sample for Table 1: `⌈m/ε⌉` pairs.
uint64_t MxPairSampleSizePaper(uint32_t m, double eps);

/// The pair count a caller asked for: `requested`, or the paper's
/// `MxPairSampleSizePaper(m, eps)` when `requested` is 0.
uint64_t ResolvePairSampleSize(uint64_t requested, size_t m, double eps);

/// Motwani–Xu pair sample so that, union-bounded over `2^m` subsets,
/// every bad subset is rejected w.p. `1-δ`:
/// `s ≥ (m ln 2 + ln(1/δ)) / ε` (since `(1-ε)^s ≤ e^{-εs}`).
uint64_t MxPairSampleSizeForDelta(uint32_t m, double eps, double delta);

/// This paper's tuple sample for Table 1: `⌈m/√ε⌉` tuples.
uint64_t TupleSampleSizePaper(uint32_t m, double eps);

/// The tuple count a caller asked for: `requested`, or the paper's
/// `TupleSampleSizePaper(m, eps)` when `requested` is 0.
uint64_t ResolveTupleSampleSize(uint64_t requested, size_t m, double eps);

/// This paper's tuple sample with failure `δ = e^{-m}` (Theorem 1):
/// `r = ⌈c·m/√ε⌉`. `c` is the universal constant; the analysis proves a
/// (large) constant suffices, the default follows the implementation
/// convention of the paper's experiments (c = 1 reproduces Table 1;
/// larger c trades sample size for certainty).
uint64_t TupleSampleSizeForDelta(uint32_t m, double eps, double delta);

/// Non-separation sketch: `s = ⌈K·k·ln m/(α·ε²)⌉` pairs (Theorem 2).
uint64_t SketchPairSampleSize(uint32_t k, uint32_t m, double alpha,
                              double eps, double big_k = 1.0);

/// The "small" output threshold of the sketch: `K·k·ln m/(10·ε²)`.
uint64_t SketchSmallCutoff(uint32_t k, uint32_t m, double eps,
                           double big_k = 1.0);

/// Lower-bound reference curves (for bench output):
/// `Ω(√(log m/ε))` (Lemma 3) and `Ω(m/√ε)` (Lemma 4), unit constants.
double LowerBoundConstantDelta(uint32_t m, double eps);
double LowerBoundExpDelta(uint32_t m, double eps);

}  // namespace qikey

#endif  // QIKEY_CORE_SAMPLE_BOUNDS_H_
