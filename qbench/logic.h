// Pure helpers of the qikey benchmark: percentile choice, ladder
// capacity selection, span self-time arithmetic and the wire diff.
// Header-only and free of library dependencies so `logic_test.cc`
// checks them in isolation.
#ifndef QBENCH_LOGIC_H_
#define QBENCH_LOGIC_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qbench {

/// 1-based nearest rank of the `q`-th percentile among `n` samples
/// (at least 1). The epsilon keeps 99.9% of 10000 at rank 9990.
inline size_t NearestRank(size_t n, double q) {
  double rank = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : static_cast<size_t>(rank);
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q`% of the sample at or below it. 0 on empty input.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = NearestRank(sorted.size(), q) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank `q`-th percentile of `n`.
inline size_t SamplesBeyond(size_t n, double q) {
  size_t r = NearestRank(n, q);
  return n > r ? n - r : 0;
}

/// The highest percentile of {50, 90, 99, 99.9}, capped at `max_q`,
/// that leaves at least ten samples beyond it; 50 when none does.
inline double TailPercentile(size_t n, double max_q = 99.0) {
  const double ladder[] = {99.9, 99.0, 90.0, 50.0};
  for (double q : ladder) {
    if (q <= max_q && SamplesBeyond(n, q) >= 10) return q;
  }
  return 50.0;
}

/// Median of an unsorted sample (lower middle for even sizes, so the
/// value is always one that was measured). 0 on empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

/// Groups time-stamped samples into consecutive windows of `window_ns`
/// starting at `t0` (samples before `t0` are dropped), each window's
/// values sorted ascending. Windows with fewer than `min_samples` values
/// (a ragged last window) are left out.
inline std::vector<std::vector<double>> Windows(
    const std::vector<int64_t>& at_ns, const std::vector<double>& values,
    int64_t t0, int64_t window_ns, size_t min_samples) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < at_ns.size() && i < values.size(); ++i) {
    if (at_ns[i] < t0) continue;
    size_t w = static_cast<size_t>((at_ns[i] - t0) / window_ns);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<std::vector<double>> kept;
  for (auto& w : windows) {
    if (w.size() < min_samples) continue;
    std::sort(w.begin(), w.end());
    kept.push_back(std::move(w));
  }
  return kept;
}

/// The median over windows of each window's `q`-th percentile. The host
/// this runs on changes speed in phases of about a second; a per-window
/// statistic followed by a median across windows reports the typical
/// phase instead of drifting with the share of slow phases in a run.
inline double WindowedPercentile(
    const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows) per_window.push_back(Percentile(w, q));
  return Median(per_window);
}

/// The median over windows of events per second, for events at
/// `at_ns` between `t0` and `t1` in windows of `window_ns` (a ragged
/// last window is left out).
inline double WindowedRate(const std::vector<int64_t>& at_ns, int64_t t0,
                           int64_t t1, int64_t window_ns) {
  size_t n = static_cast<size_t>((t1 - t0) / window_ns);
  if (n == 0) return 0.0;
  std::vector<double> counts(n, 0.0);
  for (int64_t t : at_ns) {
    if (t < t0) continue;
    size_t w = static_cast<size_t>((t - t0) / window_ns);
    if (w < n) counts[w] += 1;
  }
  for (double& c : counts) c *= 1e9 / static_cast<double>(window_ns);
  return Median(counts);
}

/// One step of an open-loop offered-rate ladder.
struct LadderStep {
  double offered_per_s = 0;
  double achieved_per_s = 0;  ///< rate at which answers arrived
  double tail_us = 0;         ///< latency at the step's tail percentile
  uint64_t attempted = 0;
  uint64_t failed = 0;        ///< shed, unanswered or wrong responses
  double late_p99_us = 0;     ///< generator lateness behind the schedule
};

/// A step meets the limit when every request was answered correctly,
/// its tail latency is within `limit_us`, and it kept up with the
/// offered rate (achieved >= `keep_up` x offered).
inline bool StepMeetsLimit(const LadderStep& step, double limit_us,
                           double keep_up = 0.95) {
  return step.attempted > 0 && step.failed == 0 && step.tail_us <= limit_us &&
         step.achieved_per_s >= keep_up * step.offered_per_s;
}

/// Capacity: the achieved rate of the highest-offered step that meets
/// the limit; 0 when no step does.
inline double LadderCapacity(const std::vector<LadderStep>& steps,
                             double limit_us, double keep_up = 0.95) {
  const LadderStep* best = nullptr;
  for (const LadderStep& step : steps) {
    if (!StepMeetsLimit(step, limit_us, keep_up)) continue;
    if (best == nullptr || step.offered_per_s > best->offered_per_s) {
      best = &step;
    }
  }
  return best == nullptr ? 0.0 : best->achieved_per_s;
}

/// A fixed ladder around `knee`: two coarse steps below 0.8x, steps at
/// most 10% apart from 0.8x to 2x, then coarse steps up to 5x.
inline std::vector<double> RateLadder(double knee) {
  std::vector<double> rates = {0.5 * knee, 0.7 * knee};
  for (double f = 0.8; f < 2.0; f *= 1.08) rates.push_back(f * knee);
  for (double f : {2.0, 2.5, 3.0, 4.0, 5.0}) rates.push_back(f * knee);
  return rates;
}

/// One traced call: a named interval with the span that caused it.
/// Names are `<layer>.<call>`; `parent` is -1 for a root.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// The layer of a span name: the text before its first '.'.
inline std::string LayerOf(std::string_view name) {
  size_t dot = name.find('.');
  return std::string(name.substr(0, dot));
}

/// Length of the union of intervals, each clipped to [lo, hi).
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration -
              CoveredNs(children[i], spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

/// Self time summed per layer.
inline std::map<std::string, int64_t> LayerSelfTimes(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i].name)] += self[i];
  }
  return out;
}

/// Outcome of comparing received wire lines with the expected ones.
struct WireDiff {
  uint64_t matched = 0;
  uint64_t shed = 0;        ///< `err overload ...` answers
  uint64_t mismatched = 0;  ///< answers that are not the expected bytes
  uint64_t missing = 0;     ///< requests never answered
  uint64_t extra = 0;       ///< answers beyond the requests sent

  uint64_t failed() const { return shed + mismatched + missing + extra; }
};

/// True for an admission-control shed line.
inline bool IsShedLine(std::string_view line) {
  return line.substr(0, 12) == "err overload";
}

/// Checks the answers `got` to requests whose exact answers are
/// `expected`. Without sheds the check is positional, byte for byte.
/// The server writes a shed line as soon as it refuses a request, ahead
/// of answers still being computed, so with `s` sheds the other answers
/// must be the expected sequence with at most `s` entries left out.
inline WireDiff DiffWire(const std::vector<std::string>& expected,
                         const std::vector<std::string>& got) {
  WireDiff diff;
  for (const std::string& line : got) diff.shed += IsShedLine(line);
  uint64_t skips_left = diff.shed;
  size_t next = 0;  // first expected answer not yet matched
  for (size_t i = 0; i < got.size(); ++i) {
    if (IsShedLine(got[i])) continue;
    size_t j = next;
    while (j < expected.size() && expected[j] != got[i] &&
           j - next < skips_left) {
      ++j;
    }
    if (j < expected.size() && expected[j] == got[i]) {
      skips_left -= j - next;
      next = j + 1;
      ++diff.matched;
    } else if (next < expected.size()) {
      ++next;  // a wrong answer takes the place of the expected one
      ++diff.mismatched;
    } else {
      ++diff.extra;
    }
  }
  uint64_t accounted = diff.matched + diff.mismatched + diff.shed;
  if (expected.size() > accounted) diff.missing = expected.size() - accounted;
  return diff;
}

}  // namespace qbench

#endif  // QBENCH_LOGIC_H_
