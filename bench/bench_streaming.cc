// Streaming-path benchmarks: one-pass construction throughput of the
// tuple reservoir (this paper) vs the pair reservoirs (Motwani–Xu),
// and the retained-state footprint — quantifying Section 1's remark
// that sampling is streaming-friendly and the space is proportional to
// the number of samples.

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/sample_bounds.h"
#include "stream/stream_builder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace qikey {
namespace {

void ThroughputBench(uint32_t m, uint64_t stream_length, double eps) {
  Schema schema = Schema::Anonymous(m);
  std::vector<uint32_t> cards(m, 1000);
  uint64_t tuple_budget = TupleSampleSizePaper(m, eps);
  uint64_t pair_budget = MxPairSampleSizePaper(m, eps);

  Rng rng(1);
  StreamingTupleFilterBuilder tuples(schema, cards, tuple_budget, &rng);
  StreamingPairFilterBuilder pairs(schema, cards, pair_budget, &rng);

  // Pre-generate the rows so we time the builders, not the generator.
  Rng data_rng(2);
  std::vector<std::vector<ValueCode>> window(1024);
  for (auto& row : window) {
    row.resize(m);
    for (uint32_t j = 0; j < m; ++j) {
      row[j] = static_cast<ValueCode>(data_rng.Uniform(1000));
    }
  }

  Timer t_tuple;
  for (uint64_t i = 0; i < stream_length; ++i) {
    QIKEY_CHECK(tuples.Offer(window[i % window.size()]).ok());
  }
  double tuple_s = t_tuple.ElapsedSeconds();

  Timer t_pair;
  for (uint64_t i = 0; i < stream_length; ++i) {
    QIKEY_CHECK(pairs.Offer(window[i % window.size()]).ok());
  }
  double pair_s = t_pair.ElapsedSeconds();

  auto tuple_filter = std::move(tuples).Finish();
  // The pair side's retained state is its 2s payload rows; the bitset
  // filter packed from them afterwards is smaller.
  auto pair_table = std::move(pairs).FinishPairTable();
  QIKEY_CHECK(tuple_filter.ok() && pair_table.ok());
  const uint64_t pair_bytes = pair_table->num_rows() *
                              pair_table->num_attributes() * sizeof(ValueCode);

  std::printf("  %4u %10" PRIu64 " %8g | %8.1f %8.1f | %12" PRIu64
              " %12" PRIu64 "\n",
              m, stream_length, eps,
              static_cast<double>(stream_length) / tuple_s / 1e6,
              static_cast<double>(stream_length) / pair_s / 1e6,
              tuple_filter->MemoryBytes(), pair_bytes);
}

}  // namespace
}  // namespace qikey

int main() {
  std::printf("One-pass filter construction over a row stream\n\n");
  std::printf("  %4s %10s %8s | %8s %8s | %12s %12s\n", "m", "rows", "eps",
              "Mrow/s**", "Mrow/s*", "bytes(**)", "bytes(*)");
  std::printf("  (** = tuple reservoir, this paper; * = pair reservoirs, "
              "Motwani-Xu)\n");
  qikey::ThroughputBench(8, 2000000, 0.01);
  qikey::ThroughputBench(8, 2000000, 0.001);
  qikey::ThroughputBench(64, 500000, 0.001);
  qikey::ThroughputBench(372, 100000, 0.001);
  std::printf("\nReading: both reservoirs use O(1)-per-quiet-row skip "
              "sampling, but the pair variant\nmust service ~2s·ln(n) "
              "replacements (each copying a row payload) and retain 2s "
              "rows\nversus r = s·sqrt(eps) for the tuple variant — the "
              "sample-size gap of Theorem 1 shows\nup directly as "
              "construction throughput and state size.\n");
  return 0;
}
