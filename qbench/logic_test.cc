// Checks of the benchmark's own arithmetic (logic.h). Exits non-zero
// and names the failed check on the first wrong answer.
//
//   ./qbench_logic_test
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "logic.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileChoice() {
  // Ten samples beyond p99 need n >= 1000; beyond p90, n >= 100.
  Check(qbench::TailPercentile(1000) == 99.0, "n=1000 -> p99");
  Check(qbench::TailPercentile(999) == 90.0, "n=999 -> p90");
  Check(qbench::TailPercentile(100) == 90.0, "n=100 -> p90");
  Check(qbench::TailPercentile(99) == 50.0, "n=99 -> p50");
  Check(qbench::TailPercentile(5) == 50.0, "n=5 falls back to p50");
  Check(qbench::TailPercentile(10000, 99.9) == 99.9, "n=10000 -> p99.9");
  Check(qbench::TailPercentile(10000) == 99.0, "cap at p99");
  Check(qbench::SamplesBeyond(1000, 99.0) == 10, "10 beyond p99 of 1000");

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  Check(qbench::Percentile(sorted, 50) == 50, "p50 of 1..100");
  Check(qbench::Percentile(sorted, 99) == 99, "p99 of 1..100");
  Check(qbench::Percentile(sorted, 100) == 100, "p100 is the max");
  Check(qbench::Percentile({}, 50) == 0, "empty sample");
  Check(qbench::Median({3, 1, 2}) == 2, "odd median");
  Check(qbench::Median({4, 1, 3, 2}) == 2, "even median is measured");
}

void TestWindows() {
  // Three 10-ns windows from t0 = 100; the middle one is a slow phase.
  std::vector<int64_t> at = {90, 100, 101, 102, 110, 111, 112, 120, 121,
                             122, 130};
  std::vector<double> v = {99, 1, 2, 3, 50, 60, 70, 4, 5, 6, 7};
  auto windows = qbench::Windows(at, v, 100, 10, 2);
  Check(windows.size() == 3, "early sample dropped, ragged window left out");
  Check(windows[1].front() == 50 && windows[1].back() == 70,
        "window values sorted");
  Check(qbench::WindowedPercentile(windows, 50) == 5,
        "median of window medians ignores the slow window");
  Check(qbench::WindowedRate(at, 100, 131, 10) == 3e8,
        "three events per 10 ns in the typical window");
  Check(qbench::WindowedRate(at, 100, 105, 10) == 0, "no whole window");
}

void TestLadderCapacity() {
  using qbench::LadderStep;
  std::vector<LadderStep> steps = {
      {10000, 10000, 200, 1000, 0, 5},
      {20000, 19900, 400, 2000, 0, 5},
      {30000, 29000, 900, 3000, 0, 5},    // within 1 ms, keeps up
      {40000, 30000, 800, 4000, 0, 5},    // falls behind offered
      {50000, 49000, 5000, 5000, 0, 5},   // misses the limit
      {60000, 59000, 700, 6000, 3, 5},    // shed requests
  };
  double capacity = qbench::LadderCapacity(steps, 1000.0);
  Check(capacity == 29000, "capacity is the achieved rate at 30k");
  Check(qbench::LadderCapacity(steps, 100.0) == 0, "no step meets 100 us");
  std::vector<LadderStep> unordered = {steps[2], steps[0], steps[1]};
  Check(qbench::LadderCapacity(unordered, 1000.0) == 29000,
        "step order does not matter");

  std::vector<double> rates = qbench::RateLadder(1000);
  bool spaced = true;
  bool reaches = rates.back() >= 5000;
  for (size_t i = 1; i < rates.size(); ++i) {
    if (rates[i] <= rates[i - 1]) spaced = false;
    bool near_knee = rates[i - 1] >= 800 && rates[i] <= 2000;
    if (near_knee && rates[i] > 1.10 * rates[i - 1] + 1e-9) spaced = false;
  }
  Check(spaced, "ladder ascends, <= 10% apart near the knee");
  Check(reaches, "ladder reaches 5x the knee");
}

void TestSpanSelfTime() {
  using qbench::Span;
  std::vector<Span> spans = {
      {"engine.run", 0, 100, -1, 1},
      {"core.greedy", 10, 40, 0, 1},
      {"core.verify", 30, 60, 0, 1},   // overlaps greedy: counted once
      {"core.kernel", 35, 45, 2, 1},
      {"data.load", 200, 260, -1, 2},
  };
  std::vector<int64_t> self = qbench::SelfTimes(spans);
  Check(self[0] == 50, "root self = 100 - union(10..60)");
  Check(self[1] == 30, "leaf self = duration");
  Check(self[2] == 20, "verify self = 30 - kernel 10");
  Check(self[3] == 10, "nested leaf");
  auto layers = qbench::LayerSelfTimes(spans);
  Check(layers["engine"] == 50, "engine layer");
  Check(layers["core"] == 60, "core layer sums its spans");
  Check(layers["data"] == 60, "data layer");
  // Without overlapping siblings, self times add up to the root walls.
  std::vector<Span> serial = {spans[0], spans[1], spans[4]};
  int64_t total = 0;
  for (const auto& [layer, ns] : qbench::LayerSelfTimes(serial)) total += ns;
  Check(total == 100 + 60, "self times add up to the root walls");
  // A child reaching past its parent is clipped to the parent.
  std::vector<Span> clipped = {{"a.x", 0, 10, -1, 0}, {"b.y", 5, 20, 0, 0}};
  Check(qbench::SelfTimes(clipped)[0] == 5, "child clipped to parent");
}

void TestWireDiff() {
  std::vector<std::string> expected = {"ok accept", "ok reject",
                                       "ok 0.5 gray", "ok accept"};
  auto same = qbench::DiffWire(expected, expected);
  Check(same.matched == 4 && same.failed() == 0, "identical lines");

  std::vector<std::string> got = {"ok accept", "ok accept",
                                  "err overload queue full"};
  auto diff = qbench::DiffWire(expected, got);
  // One shed allows one skip, not the two the second accept needs.
  Check(diff.matched == 1, "one match");
  Check(diff.mismatched == 1, "one byte mismatch");
  Check(diff.shed == 1, "shed counted apart");
  Check(diff.missing == 1, "one unanswered");
  Check(diff.failed() == 3, "every non-match fails");
  auto wrong = qbench::DiffWire(expected, {"ok accept", "ok accept"});
  Check(wrong.mismatched == 1 && wrong.missing == 2,
        "a wrong answer without sheds");

  auto extra = qbench::DiffWire({"ok accept"}, {"ok accept", "ok reject"});
  Check(extra.extra == 1 && extra.matched == 1, "extra line");
  auto space = qbench::DiffWire({"ok accept"}, {"ok accept "});
  Check(space.mismatched == 1, "trailing byte is a mismatch");

  // A shed answer written ahead of earlier, slower answers.
  std::vector<std::string> reordered = {"err overload queue full",
                                        "ok accept", "ok reject",
                                        "ok accept"};
  auto jumped = qbench::DiffWire(expected, reordered);
  Check(jumped.shed == 1 && jumped.matched == 3 && jumped.mismatched == 0 &&
            jumped.missing == 0,
        "a shed that jumps ahead still lines up the other answers");
  // Skips are bounded by the sheds: without one, a gap is an error.
  auto gap = qbench::DiffWire(expected, {"ok accept", "ok 0.5 gray",
                                         "ok accept"});
  Check(gap.matched == 1 && gap.mismatched >= 1, "no skipping without sheds");
}

}  // namespace

int main() {
  TestPercentileChoice();
  TestWindows();
  TestLadderCapacity();
  TestSpanSelfTime();
  TestWireDiff();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("qbench logic: all checks passed\n");
  return 0;
}
