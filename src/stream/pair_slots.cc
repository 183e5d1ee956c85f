#include "stream/pair_slots.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "data/concat.h"
#include "util/logging.h"

namespace qikey {

std::vector<std::pair<RowIndex, RowIndex>> DrawPairSlots(uint64_t n,
                                                         uint64_t s,
                                                         Rng* rng) {
  std::vector<std::pair<RowIndex, RowIndex>> pairs;
  pairs.reserve(s);
  for (uint64_t i = 0; i < s; ++i) {
    auto [a, b] = rng->SamplePair(n);
    pairs.emplace_back(static_cast<RowIndex>(a), static_cast<RowIndex>(b));
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// PairReservoir

namespace {
// Replacement counts beyond this are treated as "never" (no stream of
// that length fits in memory anyway; the slot is simply re-queued).
constexpr uint64_t kNever = uint64_t{1} << 62;
}  // namespace

PairReservoir::PairReservoir(size_t num_slots, Rng* rng)
    : slots_(num_slots, {0, 0}), rng_(rng) {
  QIKEY_CHECK(rng != nullptr);
}

uint64_t PairReservoir::NextReplacementCount(uint64_t t) {
  // P(next replacement count > c) = t(t-1) / (c(c-1)) for c >= t.
  // Inversion: c = smallest integer with c(c-1) >= t(t-1)/U.
  double u = std::max(rng_->UniformDouble(), 1e-300);
  double k = static_cast<double>(t) * static_cast<double>(t - 1) / u;
  if (k >= static_cast<double>(kNever) * static_cast<double>(kNever)) {
    return kNever;
  }
  double c = std::ceil((1.0 + std::sqrt(1.0 + 4.0 * k)) / 2.0);
  uint64_t count = static_cast<uint64_t>(c);
  if (count <= t) count = t + 1;
  return std::min(count, kNever);
}

bool PairReservoir::Offer() {
  uint64_t pos = seen_++;
  uint64_t count = pos + 1;  // 1-based item count after this arrival
  if (pos == 0) {
    for (auto& slot : slots_) slot.first = 0;
    return !slots_.empty();
  }
  if (pos == 1) {
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      slots_[i].second = 1;
      heap_.emplace(NextReplacementCount(2), i);
    }
    return !slots_.empty();
  }
  bool referenced = false;
  while (!heap_.empty() && heap_.top().first <= count) {
    auto [due, slot] = heap_.top();
    heap_.pop();
    QIKEY_DCHECK(due == count);
    if (rng_->Uniform(2) == 0) {
      slots_[slot].first = pos;
    } else {
      slots_[slot].second = pos;
    }
    referenced = true;
    heap_.emplace(NextReplacementCount(count), slot);
  }
  return referenced;
}

void PairReservoir::Retain(const std::vector<ValueCode>& row) {
  QIKEY_DCHECK(seen_ > 0) << "Retain before any Offer";
  payloads_[seen_ - 1] = row;
  if (payloads_.size() >= next_gc_) {
    CollectGarbage();
    next_gc_ = std::max<uint64_t>(4 * slots_.size(), 1024) + payloads_.size();
  }
}

void PairReservoir::CollectGarbage() {
  std::unordered_set<uint64_t> live;
  live.reserve(2 * slots_.size());
  for (const auto& [a, b] : slots_) {
    live.insert(a);
    live.insert(b);
  }
  std::erase_if(payloads_,
                [&](const auto& entry) { return live.count(entry.first) == 0; });
}

std::vector<std::vector<ValueCode>> PairReservoir::TakeRows() && {
  std::vector<std::vector<ValueCode>> rows;
  rows.reserve(2 * slots_.size());
  for (const auto& [a, b] : slots_) {
    auto ia = payloads_.find(a);
    auto ib = payloads_.find(b);
    QIKEY_CHECK(ia != payloads_.end() && ib != payloads_.end())
        << "payload lost for a sampled position";
    rows.push_back(ia->second);
    rows.push_back(ib->second);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// MergePairSlots

Result<Dataset> MergePairSlots(const Dataset& a, uint64_t seen_a,
                               const Dataset& b, uint64_t seen_b, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (a.num_rows() % 2 != 0 || b.num_rows() % 2 != 0) {
    return Status::InvalidArgument("pair table must have an even row count");
  }
  if (a.num_rows() != b.num_rows() || a.num_rows() == 0) {
    return Status::InvalidArgument(
        "merge requires equal, non-zero slot counts");
  }
  if (seen_a < 2 || seen_b < 2) {
    return Status::InvalidArgument("each side must have sampled >= 2 rows");
  }
  if (seen_a + seen_b > static_cast<uint64_t>(~RowIndex{0})) {
    return Status::InvalidArgument("merged population exceeds RowIndex range");
  }

  // One union table to select merged pair rows from: a's rows first,
  // then b's at `offset` (re-encoded to shared codes).
  Result<Dataset> combined = ConcatDatasets({&a, &b});
  if (!combined.ok()) return combined.status();
  const RowIndex offset = static_cast<RowIndex>(a.num_rows());

  // C(n,2) fits u64 because n fits u32.
  const uint64_t pairs_a = seen_a * (seen_a - 1) / 2;
  const uint64_t pairs_b = seen_b * (seen_b - 1) / 2;
  const uint64_t n = seen_a + seen_b;
  const uint64_t pairs_total = n * (n - 1) / 2;

  const size_t s = a.num_rows() / 2;
  std::vector<RowIndex> selected;
  selected.reserve(2 * s);
  for (size_t i = 0; i < s; ++i) {
    const RowIndex first = static_cast<RowIndex>(2 * i);
    uint64_t v = rng->Uniform(pairs_total);
    if (v < pairs_a) {
      selected.push_back(first);
      selected.push_back(first + 1);
    } else if (v < pairs_a + pairs_b) {
      selected.push_back(offset + first);
      selected.push_back(offset + first + 1);
    } else {
      // Cross pair: a uniform element of each slot's pair is a uniform
      // row of that population.
      selected.push_back(first + static_cast<RowIndex>(rng->Uniform(2)));
      selected.push_back(offset + first +
                         static_cast<RowIndex>(rng->Uniform(2)));
    }
  }
  return combined->SelectRows(selected);
}

}  // namespace qikey
