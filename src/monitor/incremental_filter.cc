#include "monitor/incremental_filter.h"

#include <algorithm>

#include "core/sample_bounds.h"
#include "data/column.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qikey {

IncrementalFilter::IncrementalFilter(Schema schema,
                                     const IncrementalFilterOptions& options,
                                     uint64_t seed)
    : schema_(std::move(schema)), options_(options), rng_(seed) {
  const uint32_t m = static_cast<uint32_t>(schema_.num_attributes());
  switch (options_.backend) {
    case FilterBackend::kTupleSample:
      target_ = ResolveTupleSampleSize(options_.sample_size, m, options_.eps);
      break;
    case FilterBackend::kBitset:
      target_ =
          ResolvePairSampleSize(options_.pair_sample_size, m, options_.eps);
      break;
  }
}

Result<IncrementalFilter> IncrementalFilter::Make(
    Schema schema, const IncrementalFilterOptions& options, uint64_t seed) {
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema must have attributes");
  }
  return IncrementalFilter(std::move(schema), options, seed);
}

// ----------------------------------------------------------- window slots

uint64_t IncrementalFilter::HashRow(const std::vector<ValueCode>& row) {
  // FNV-1a over the codes; only used to bucket erase-by-content lookups.
  uint64_t h = 1469598103934665603ULL;
  for (ValueCode c : row) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint32_t IncrementalFilter::AddSlot(const std::vector<ValueCode>& row) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = row;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(row);
    live_pos_.push_back(kNone);
    sample_pos_.push_back(kNone);
  }
  live_pos_[slot] = static_cast<uint32_t>(live_slots_.size());
  live_slots_.push_back(slot);
  index_.emplace(HashRow(row), slot);
  return slot;
}

void IncrementalFilter::RemoveSlot(uint32_t slot) {
  auto range = index_.equal_range(HashRow(slots_[slot]));
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == slot) {
      index_.erase(it);
      break;
    }
  }
  uint32_t pos = live_pos_[slot];
  uint32_t last = live_slots_.back();
  live_slots_[pos] = last;
  live_pos_[last] = pos;
  live_slots_.pop_back();
  live_pos_[slot] = kNone;
  slots_[slot].clear();
  slots_[slot].shrink_to_fit();
  free_slots_.push_back(slot);
}

uint32_t IncrementalFilter::FindSlot(const std::vector<ValueCode>& row) const {
  auto range = index_.equal_range(HashRow(row));
  for (auto it = range.first; it != range.second; ++it) {
    if (slots_[it->second] == row) return it->second;
  }
  return kNone;
}

// ----------------------------------------------------------- tuple sample

void IncrementalFilter::SampleAdd(uint32_t slot) {
  sample_pos_[slot] = static_cast<uint32_t>(sample_slots_.size());
  sample_slots_.push_back(slot);
}

void IncrementalFilter::SampleRemove(uint32_t slot) {
  uint32_t pos = sample_pos_[slot];
  uint32_t last = sample_slots_.back();
  sample_slots_[pos] = last;
  sample_pos_[last] = pos;
  sample_slots_.pop_back();
  sample_pos_[slot] = kNone;
}

uint32_t IncrementalFilter::DrawUnsampledSlot() {
  const size_t n = live_slots_.size();
  const size_t r = sample_slots_.size();
  if (r >= n) return kNone;
  // Rejection sampling against the sample: expected n/(n-r) draws. When
  // the sample covers most of the window, scan instead.
  if (n >= 2 * (n - r)) {
    uint64_t skip = rng_.Uniform(n - r);
    for (uint32_t slot : live_slots_) {
      if (sample_pos_[slot] != kNone) continue;
      if (skip == 0) return slot;
      --skip;
    }
    QIKEY_CHECK(false);
  }
  for (;;) {
    uint32_t slot = live_slots_[rng_.Uniform(n)];
    if (sample_pos_[slot] == kNone) return slot;
  }
}

void IncrementalFilter::TopUpSample(FilterUpdateDelta* delta) {
  while (sample_slots_.size() < target_ &&
         sample_slots_.size() < live_slots_.size()) {
    uint32_t slot = DrawUnsampledSlot();
    QIKEY_CHECK(slot != kNone);
    SampleAdd(slot);
    delta->sample_changed = true;
    delta->constraints_added = true;
  }
}

void IncrementalFilter::KeepMaximalRegions(
    std::vector<AttributeSet>* regions) {
  std::vector<AttributeSet> maximal;
  for (size_t i = 0; i < regions->size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < regions->size() && !dominated; ++j) {
      if (i == j) continue;
      if ((*regions)[i].IsSubsetOf((*regions)[j]) &&
          ((*regions)[i] != (*regions)[j] || j < i)) {
        dominated = true;
      }
    }
    if (!dominated) maximal.push_back((*regions)[i]);
  }
  *regions = std::move(maximal);
}

std::vector<AttributeSet> IncrementalFilter::FreedRegionsOfTuple(
    const std::vector<ValueCode>& row, uint32_t exclude_slot) const {
  const size_t m = schema_.num_attributes();
  std::vector<AttributeSet> regions;
  for (uint32_t slot : sample_slots_) {
    if (slot == exclude_slot) continue;
    AttributeSet region(m);
    const std::vector<ValueCode>& other = slots_[slot];
    for (size_t j = 0; j < m; ++j) {
      if (row[j] == other[j]) region.Add(static_cast<AttributeIndex>(j));
    }
    regions.push_back(std::move(region));
  }
  KeepMaximalRegions(&regions);
  return regions;
}

// ---------------------------------------------------------------- updates

Result<FilterUpdateDelta> IncrementalFilter::Insert(
    const std::vector<ValueCode>& row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity does not match the schema");
  }
  uint32_t slot = AddSlot(row);
  return UsesTupleSample() ? InsertTuple(slot) : InsertPair(slot);
}

Result<FilterUpdateDelta> IncrementalFilter::Erase(
    const std::vector<ValueCode>& row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity does not match the schema");
  }
  uint32_t slot = FindSlot(row);
  if (slot == kNone) {
    return Status::NotFound("no live tuple matches the erased row");
  }
  std::vector<ValueCode> payload = slots_[slot];
  return UsesTupleSample() ? EraseTuple(slot, std::move(payload))
                           : ErasePair(slot, std::move(payload));
}

Result<FilterUpdateDelta> IncrementalFilter::InsertTuple(uint32_t slot) {
  FilterUpdateDelta delta;
  const uint64_t n = live_slots_.size();
  if (sample_slots_.size() < target_) {
    SampleAdd(slot);
    delta.sample_changed = true;
    delta.constraints_added = true;
    return delta;
  }
  // Algorithm R step: the new tuple displaces a uniform victim with
  // probability r/n, keeping the sample a uniform r-subset.
  if (rng_.Uniform(n) < target_) {
    uint32_t victim = sample_slots_[rng_.Uniform(sample_slots_.size())];
    std::vector<ValueCode> payload = slots_[victim];
    SampleRemove(victim);
    delta.freed_regions = FreedRegionsOfTuple(payload, victim);
    SampleAdd(slot);
    delta.sample_changed = true;
    delta.constraints_added = true;
  }
  return delta;
}

Result<FilterUpdateDelta> IncrementalFilter::EraseTuple(
    uint32_t slot, std::vector<ValueCode> row) {
  FilterUpdateDelta delta;
  bool sampled = sample_pos_[slot] != kNone;
  if (sampled) SampleRemove(slot);
  RemoveSlot(slot);
  if (sampled) {
    delta.sample_changed = true;
    delta.freed_regions = FreedRegionsOfTuple(row, kNone);
    // Conditioned on containing the erased tuple, the rest of the
    // sample is a uniform (r-1)-subset; one uniform draw from the
    // unretained window restores a uniform r-subset of the survivors.
    TopUpSample(&delta);
  }
  return delta;
}

AttributeSet IncrementalFilter::PairAgreeSet(uint32_t a, uint32_t b) const {
  const size_t m = schema_.num_attributes();
  AttributeSet region(m);
  const std::vector<ValueCode>& ra = slots_[a];
  const std::vector<ValueCode>& rb = slots_[b];
  for (size_t j = 0; j < m; ++j) {
    if (ra[j] == rb[j]) region.Add(static_cast<AttributeIndex>(j));
  }
  return region;
}

std::pair<uint32_t, uint32_t> IncrementalFilter::DrawUniformPair() {
  auto [i, j] = rng_.SamplePair(live_slots_.size());
  return {live_slots_[i], live_slots_[j]};
}

Result<FilterUpdateDelta> IncrementalFilter::InsertPair(uint32_t slot) {
  FilterUpdateDelta delta;
  const uint64_t n = live_slots_.size();
  if (n < 2) return delta;
  if (pair_slots_.empty()) {
    // First moment the window supports pairs: every slot holds the only
    // possible pair.
    pair_slots_.assign(target_, {live_slots_[0], live_slots_[1]});
    RebuildEvidence();
    delta.sample_changed = true;
    delta.constraints_added = true;
    return delta;
  }
  // Each slot is an independent size-2 reservoir: the new tuple evicts
  // a uniform end with probability 2/n.
  for (size_t i = 0; i < pair_slots_.size(); ++i) {
    auto& [a, b] = pair_slots_[i];
    if (rng_.Uniform(n) >= 2) continue;
    delta.freed_regions.push_back(PairAgreeSet(a, b));
    if (rng_.Uniform(2) == 0) {
      a = slot;
    } else {
      b = slot;
    }
    PatchEvidencePair(i);
    delta.sample_changed = true;
    delta.constraints_added = true;
  }
  KeepMaximalRegions(&delta.freed_regions);
  return delta;
}

Result<FilterUpdateDelta> IncrementalFilter::ErasePair(
    uint32_t slot, std::vector<ValueCode> row) {
  FilterUpdateDelta delta;
  RemoveSlot(slot);
  if (pair_slots_.empty()) return delta;
  if (live_slots_.size() < 2) {
    // The window no longer supports pairs: drop every constraint.
    delta.sample_changed = true;
    delta.freed_regions.assign(1, AttributeSet::All(
                                      schema_.num_attributes()));
    pair_slots_.clear();
    RebuildEvidence();
    return delta;
  }
  for (size_t i = 0; i < pair_slots_.size(); ++i) {
    auto& pair = pair_slots_[i];
    if (pair.first != slot && pair.second != slot) continue;
    // The dropped pair's agree set, computed from the erased payload
    // (its slot is already recycled) and the surviving end.
    AttributeSet region(schema_.num_attributes());
    uint32_t survivor = pair.first == slot ? pair.second : pair.first;
    const std::vector<ValueCode>& other = slots_[survivor];
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] == other[j]) region.Add(static_cast<AttributeIndex>(j));
    }
    delta.freed_regions.push_back(std::move(region));
    pair = DrawUniformPair();
    PatchEvidencePair(i);
    delta.sample_changed = true;
    delta.constraints_added = true;
  }
  KeepMaximalRegions(&delta.freed_regions);
  return delta;
}

void IncrementalFilter::RebuildEvidence() {
  std::vector<std::pair<const ValueCode*, const ValueCode*>> rows;
  rows.reserve(pair_slots_.size());
  for (const auto& [a, b] : pair_slots_) {
    rows.emplace_back(slots_[a].data(), slots_[b].data());
  }
  // Lane-stable (no dedup): evidence pair i IS pair slot i, so single
  // slot redraws patch one lane instead of re-packing all s slots.
  evidence_ = PackedEvidence::FromRowMajorPairs(schema_.num_attributes(),
                                                rows, pair_slots_);
}

void IncrementalFilter::PatchEvidencePair(size_t index) {
  const auto [a, b] = pair_slots_[index];
  evidence_.PatchPair(static_cast<uint32_t>(index), slots_[a].data(),
                      slots_[b].data(), {a, b});
}

void IncrementalFilter::Resample() {
  if (UsesTupleSample()) {
    for (uint32_t slot : sample_slots_) sample_pos_[slot] = kNone;
    sample_slots_.clear();
    FilterUpdateDelta ignored;
    TopUpSample(&ignored);
    return;
  }
  pair_slots_.clear();
  if (live_slots_.size() >= 2) {
    pair_slots_.reserve(target_);
    for (uint64_t i = 0; i < target_; ++i) {
      pair_slots_.push_back(DrawUniformPair());
    }
  }
  RebuildEvidence();
}

// ---------------------------------------------------------------- queries

FilterVerdict IncrementalFilter::Query(const AttributeSet& attrs) const {
  return QueryWitness(attrs).has_value() ? FilterVerdict::kReject
                                         : FilterVerdict::kAccept;
}

std::vector<FilterVerdict> IncrementalFilter::QueryBatch(
    std::span<const AttributeSet> attrs, ThreadPool* pool) const {
  const size_t count = attrs.size();
  std::vector<FilterVerdict> verdicts(count, FilterVerdict::kAccept);
  if (!UsesTupleSample()) {
    if (count == 0 || evidence_.num_pairs() == 0) return verdicts;
    // Same block-major staging as BitsetSeparationFilter::QueryBatch:
    // each resident evidence block serves the whole candidate batch.
    const size_t wpp = evidence_.words_per_pair();
    std::vector<uint64_t> masks(count * wpp);
    for (size_t i = 0; i < count; ++i) {
      std::span<const uint64_t> w = attrs[i].words();
      std::copy(w.begin(), w.begin() + wpp, masks.begin() + i * wpp);
    }
    std::vector<uint8_t> rejected(count, 0);
    ThreadPool::ParallelFor(pool, count, [&](size_t begin, size_t end) {
      evidence_.TestMasksBlockMajor(masks.data() + begin * wpp, wpp,
                                    end - begin, rejected.data() + begin);
    });
    for (size_t i = 0; i < count; ++i) {
      if (rejected[i]) verdicts[i] = FilterVerdict::kReject;
    }
    return verdicts;
  }
  ThreadPool::ParallelFor(pool, count, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) verdicts[i] = Query(attrs[i]);
  });
  return verdicts;
}

std::optional<std::pair<RowIndex, RowIndex>> IncrementalFilter::QueryWitness(
    const AttributeSet& attrs) const {
  if (!UsesTupleSample()) {
    // Word-wise kernel over the packed pair slots; representatives are
    // window slot ids.
    std::optional<uint32_t> hit = evidence_.FindUnseparated(attrs.words());
    if (!hit.has_value()) return std::nullopt;
    auto [a, b] = evidence_.representative(*hit);
    return std::make_pair(static_cast<RowIndex>(a),
                          static_cast<RowIndex>(b));
  }
  // Tuple backend: hash the retained projections; verify on hash hits.
  std::vector<AttributeIndex> idx = attrs.ToIndices();
  std::unordered_multimap<uint64_t, uint32_t> seen;
  seen.reserve(sample_slots_.size() * 2);
  for (uint32_t slot : sample_slots_) {
    const std::vector<ValueCode>& row = slots_[slot];
    uint64_t h = 1469598103934665603ULL;
    for (AttributeIndex j : idx) {
      h ^= row[j];
      h *= 1099511628211ULL;
    }
    auto range = seen.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      const std::vector<ValueCode>& other = slots_[it->second];
      bool agree = true;
      for (AttributeIndex j : idx) {
        if (row[j] != other[j]) {
          agree = false;
          break;
        }
      }
      if (agree) return std::make_pair(it->second, slot);
    }
    seen.emplace(h, slot);
  }
  return std::nullopt;
}

uint64_t IncrementalFilter::sample_size() const {
  return UsesTupleSample() ? sample_slots_.size() : pair_slots_.size();
}

uint64_t IncrementalFilter::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& row : slots_) bytes += row.capacity() * sizeof(ValueCode);
  bytes += live_slots_.size() * sizeof(uint32_t);
  bytes += live_pos_.size() * sizeof(uint32_t) * 2;  // live_pos_+sample_pos_
  bytes += sample_slots_.size() * sizeof(uint32_t);
  bytes += pair_slots_.size() * sizeof(std::pair<uint32_t, uint32_t>);
  bytes += index_.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  bytes += evidence_.MemoryBytes();
  return bytes;
}

Dataset IncrementalFilter::WindowDataset() const {
  const size_t m = schema_.num_attributes();
  std::vector<Column> columns;
  columns.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    std::vector<ValueCode> codes;
    codes.reserve(live_slots_.size());
    for (uint32_t slot : live_slots_) codes.push_back(slots_[slot][j]);
    columns.emplace_back(std::move(codes));
  }
  return Dataset(schema_, std::move(columns));
}

std::vector<std::vector<ValueCode>> IncrementalFilter::SampledRows() const {
  // Each backend keeps only its own sample; the other list is empty.
  std::vector<std::vector<ValueCode>> rows;
  for (uint32_t slot : sample_slots_) rows.push_back(slots_[slot]);
  for (const auto& [a, b] : pair_slots_) {
    rows.push_back(slots_[a]);
    rows.push_back(slots_[b]);
  }
  return rows;
}

}  // namespace qikey
