#include "stream/pair_slots.h"

#include <algorithm>
#include <bit>
#include <cmath>

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
    : slots_(num_slots, {0, 0}),
      rng_(rng),
      near_(std::bit_ceil(std::clamp<size_t>(num_slots, 1, 4096))),
      slot_rows_(num_slots, {kNoRow, kNoRow}) {
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

void PairReservoir::Repoint(uint32_t* end) {
  if (*end != kNoRow && --refs_[*end] == 0) free_rows_.push_back(*end);
  *end = kNoRow;
  pending_.push_back(end);
}

void PairReservoir::Schedule(uint64_t count, uint64_t due, uint32_t slot) {
  if (due - count < near_.size()) {
    near_[due % near_.size()].push_back(slot);
  } else {
    far_.emplace(due, slot);
  }
}

bool PairReservoir::Offer() {
  pending_.clear();  // an item not retained leaves its ends at kNoRow
  uint64_t pos = seen_++;
  uint64_t count = pos + 1;  // 1-based item count after this arrival
  if (pos == 0) {
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      slots_[i].first = 0;
      Repoint(&slot_rows_[i].first);
    }
    return !slots_.empty();
  }
  if (pos == 1) {
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      slots_[i].second = 1;
      Repoint(&slot_rows_[i].second);
      Schedule(count, NextReplacementCount(count), i);
    }
    return !slots_.empty();
  }
  // The ring's bucket for this count holds one count's slots only: a
  // slot is filed there at most W - 1 counts ahead. Those the heap held
  // join it now.
  std::vector<uint32_t>& due = near_[count % near_.size()];
  while (!far_.empty() && far_.top().first == count) {
    due.push_back(far_.top().second);
    far_.pop();
  }
  QIKEY_DCHECK(far_.empty() || far_.top().first > count);
  std::sort(due.begin(), due.end());
  for (uint32_t slot : due) {
    if (rng_->Uniform(2) == 0) {
      slots_[slot].first = pos;
      Repoint(&slot_rows_[slot].first);
    } else {
      slots_[slot].second = pos;
      Repoint(&slot_rows_[slot].second);
    }
    Schedule(count, NextReplacementCount(count), slot);
  }
  due.clear();
  return !pending_.empty();
}

void PairReservoir::Retain(const std::vector<ValueCode>& row) {
  QIKEY_DCHECK(!pending_.empty()) << "Retain without a kept Offer";
  if (refs_.empty() && free_rows_.empty()) {
    // At most 2s rows are ever live, and a released row is reused
    // before a new one is added: the buffer never moves.
    width_ = row.size();
    codes_.reserve(2 * slots_.size() * width_);
  }
  QIKEY_DCHECK(row.size() == width_) << "payload width changed";
  uint32_t index;
  if (free_rows_.empty()) {
    index = static_cast<uint32_t>(refs_.size());
    refs_.push_back(0);
    codes_.insert(codes_.end(), row.begin(), row.end());
  } else {
    index = free_rows_.back();
    free_rows_.pop_back();
    std::copy(row.begin(), row.end(), codes_.begin() + index * width_);
  }
  refs_[index] = static_cast<uint32_t>(pending_.size());
  for (uint32_t* end : pending_) *end = index;
  pending_.clear();
}

std::vector<std::vector<ValueCode>> PairReservoir::TakeRows() && {
  std::vector<std::vector<ValueCode>> rows;
  rows.reserve(2 * slots_.size());
  auto row = [&](uint32_t index) {
    QIKEY_CHECK(index != kNoRow) << "payload lost for a sampled position";
    auto begin = codes_.begin() + static_cast<std::ptrdiff_t>(index * width_);
    rows.emplace_back(begin, begin + static_cast<std::ptrdiff_t>(width_));
  };
  for (const auto& [a, b] : slot_rows_) {
    row(a);
    row(b);
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
