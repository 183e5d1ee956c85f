// Streaming quasi-identifier monitoring: build both filters in one pass
// over a row stream (as Section 1 notes, sampling pairs/tuples is
// streaming-friendly), then answer key questions without revisiting the
// stream.
//
// The scenario: an event pipeline emits wide telemetry rows; we want to
// know — without storing the stream — which small column sets still
// identify events (so downstream anonymization knows what to mask).
//
// Build & run:  ./build/examples/streaming_keys

#include <cinttypes>
#include <cstdio>

#include "qikey.h"

int main() {
  using namespace qikey;
  Rng rng(5150);

  // Stream schema: 8 telemetry columns of varying cardinality.
  Schema schema({"host", "dc", "service", "status", "shard", "minute",
                 "build", "user_bucket"});
  std::vector<uint32_t> cards = {500, 4, 40, 6, 64, 1440, 30, 1000};

  const double eps = 0.01;
  const uint32_t m = 8;
  uint64_t tuple_budget = TupleSampleSizePaper(m, eps);    // m/sqrt(eps)
  uint64_t pair_budget = MxPairSampleSizePaper(m, eps);    // m/eps
  std::printf("Streaming budgets: %" PRIu64 " tuples (this paper) vs %"
              PRIu64 " pairs (Motwani-Xu)\n", tuple_budget, pair_budget);

  StreamingTupleFilterBuilder tuple_builder(schema, cards, tuple_budget,
                                            &rng);
  StreamingPairFilterBuilder pair_builder(schema, cards, pair_budget, &rng);

  // Synthesize one million stream rows. Rows are generated on the fly
  // and discarded — only the reservoirs persist.
  Rng stream_rng(42);
  const uint64_t kStreamLength = 1000000;
  std::printf("Streaming %" PRIu64 " rows...\n", kStreamLength);
  Timer timer;
  for (uint64_t i = 0; i < kStreamLength; ++i) {
    std::vector<ValueCode> row(m);
    for (uint32_t j = 0; j < m; ++j) {
      row[j] = static_cast<ValueCode>(stream_rng.Uniform(cards[j]));
    }
    QIKEY_CHECK(tuple_builder.Offer(row).ok());
    QIKEY_CHECK(pair_builder.Offer(row).ok());
  }
  std::printf("  one pass took %.2fs; reservoirs saw %" PRIu64 " rows\n",
              timer.ElapsedSeconds(), tuple_builder.rows_seen());

  TupleSampleFilter tuple_filter =
      std::move(tuple_builder).Finish().ValueOrDie();
  // The pair slots pack into bitset evidence: one m-bit disagree mask
  // per distinct sampled pair, not the pairs' values.
  BitsetSeparationFilter pair_filter =
      std::move(pair_builder).Finish().ValueOrDie();
  std::printf("  retained state: %" PRIu64 " B (tuples) / %" PRIu64
              " B (pair bitsets)\n",
              tuple_filter.MemoryBytes(), pair_filter.MemoryBytes());

  // Interrogate both filters about candidate identifier sets.
  std::vector<std::vector<AttributeIndex>> questions = {
      {0},              // host alone
      {0, 5},           // host + minute
      {0, 5, 7},        // host + minute + user bucket
      {1, 3},           // dc + status (coarse)
      {0, 2, 4, 5, 6},  // a wide operational tuple
  };
  std::printf("\n%-40s %-14s %-14s\n", "column set", "tuple filter",
              "pair filter");
  for (const auto& idx : questions) {
    AttributeSet a = AttributeSet::FromIndices(m, idx);
    const char* v1 = tuple_filter.Query(a) == FilterVerdict::kAccept
                         ? "accept" : "reject";
    const char* v2 = pair_filter.Query(a) == FilterVerdict::kAccept
                         ? "accept" : "reject";
    std::printf("%-40s %-14s %-14s\n", a.ToString(&schema).c_str(), v1, v2);
  }
  std::printf("\n'accept' = the set still uniquely identified every "
              "sampled event: mask it before release.\n");
  return 0;
}
