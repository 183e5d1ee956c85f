// Data cleaning: use approximate keys to find fuzzy duplicates — the
// Ananthakrishna/Chaudhuri application the paper cites. A column set
// that is an eps-separation key but NOT an exact key flags a small
// population of suspicious near-identical records; the filter's
// rejection witnesses point straight at them.
//
// Build & run:  ./build/examples/data_cleaning

#include <cinttypes>
#include <cstdio>
#include <string>

#include "qikey.h"

namespace {

/// Builds a "customers" table of `n` clean rows plus `dup_count` noisy
/// duplicates (same person, one field re-entered differently).
qikey::Dataset MakeCustomerTable(int n, int dup_count, qikey::Rng* rng) {
  qikey::DatasetBuilder b({"first", "last", "street", "zip", "phone"});
  auto add_row = [&](int i, int variant) {
    std::string street = "street" + std::to_string(i);
    if (variant == 1) street += "_apt";
    return b.AddRow({"first" + std::to_string(i % 400),
                     "last" + std::to_string(i % 700), street,
                     "zip" + std::to_string(i % 90),
                     "phone" + std::to_string(i)});
  };
  for (int i = 0; i < n; ++i) QIKEY_CHECK(add_row(i, 0).ok());
  for (int d = 0; d < dup_count; ++d) {
    int victim = static_cast<int>(rng->Uniform(n));
    QIKEY_CHECK(add_row(victim, 1).ok());  // re-entered record
  }
  return std::move(b).Finish();
}

}  // namespace

int main() {
  using namespace qikey;
  Rng rng(99);
  Dataset data = MakeCustomerTable(20000, 25, &rng);
  const Schema& schema = data.schema();
  std::printf("Customer table: %zu rows (25 noisy duplicates injected)\n",
              data.num_rows());

  // (first, last, zip) is the natural match key for deduplication.
  AttributeSet match_key = AttributeSet::FromIndices(5, {0, 1, 3});
  const double eps = 0.001;

  // It is an eps-separation key (identifies almost everyone)...
  std::printf("\n%s:\n", match_key.ToString(&schema).c_str());
  std::printf("  separation ratio  %.6f\n",
              SeparationRatio(data, match_key));
  std::printf("  eps-separation key (eps=%g): %s\n", eps,
              IsEpsSeparationKey(data, match_key, eps) ? "yes" : "no");
  // ...but not an exact key: the gap is exactly the duplicate suspects.
  std::printf("  exact key: %s\n",
              IsKey(data, match_key) ? "yes" : "no");

  // Enumerate the suspect groups from the clique partition of G_A.
  Partition p = SeparationPartition(data, match_key);
  std::printf("\nSuspect groups (same first/last/zip):\n");
  int shown = 0;
  std::vector<std::vector<RowIndex>> groups(p.num_blocks());
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    groups[p.block_of(r)].push_back(r);
  }
  for (const auto& g : groups) {
    if (g.size() < 2) continue;
    if (++shown > 5) continue;  // print the first few
    std::printf("  group of %zu:\n", g.size());
    for (RowIndex r : g) std::printf("    %s\n", data.FormatRow(r).c_str());
  }
  std::printf("  ... %d suspect groups total\n", shown);

  // A one-pass streaming screen for huge inputs: the tuple filter flags
  // the key's imperfection with a witness pair, without ever holding
  // the table in memory.
  std::vector<uint32_t> cards;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    cards.push_back(data.column(static_cast<AttributeIndex>(j)).cardinality());
  }
  StreamingTupleFilterBuilder builder(data.schema(), cards,
                                      /*sample_size=*/4000, &rng);
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    std::vector<ValueCode> row;
    for (AttributeIndex j = 0; j < data.num_attributes(); ++j) {
      row.push_back(data.code(r, j));
    }
    QIKEY_CHECK(builder.Offer(row).ok());
  }
  TupleSampleFilter filter = std::move(builder).Finish().ValueOrDie();
  auto witness = filter.QueryWitness(match_key);
  std::printf("\nStreaming screen (%" PRIu64 " retained tuples): %s\n",
              filter.sample_size(),
              witness.has_value()
                  ? "duplicates detected — match key is not exact"
                  : "no duplicates in sample");
  if (witness.has_value()) {
    std::printf("  witness pair (sample rows %u, %u) agrees on %s\n",
                witness->first, witness->second,
                match_key.ToString(&schema).c_str());
  }
  return 0;
}
