#include "serve/verdict_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace qikey {

VerdictCache::VerdictCache(const VerdictCacheOptions& options) {
  if (options.capacity == 0) return;
  size_t shards = std::clamp<size_t>(options.shards, 1, options.capacity);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity =
        options.capacity / shards + (i < options.capacity % shards ? 1 : 0);
  }
}

VerdictCache::Shard& VerdictCache::ShardFor(const KeyRef& key) {
  return *shards_[KeyHash()(key) % shards_.size()];
}

bool VerdictCache::Lookup(uint64_t epoch, const AttributeSet& attrs,
                          FilterVerdict* verdict) {
  if (!enabled()) {
    disabled_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const KeyRef key{epoch, &attrs};
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *verdict = it->second->verdict;
  ++shard.hits;
  return true;
}

void VerdictCache::Insert(uint64_t epoch, const AttributeSet& attrs,
                          FilterVerdict verdict) {
  if (!enabled()) return;
  const KeyRef key{epoch, &attrs};
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->verdict = verdict;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() < shard.capacity) {
    shard.lru.push_front(Entry{epoch, attrs, verdict});
    shard.index.emplace(KeyRef{epoch, &shard.lru.front().attrs},
                        shard.lru.begin());
    return;
  }
  // Full: the least-recently-used entry becomes the new one. Its index
  // node is unlinked while it still views the old key, then re-keyed
  // and relinked; the list node moves to the front and takes the new
  // key in place (an equal-universe set assignment reuses its words).
  Entry& victim = shard.lru.back();
  auto node = shard.index.extract(KeyRef{victim.epoch, &victim.attrs});
  shard.lru.splice(shard.lru.begin(), shard.lru, std::prev(shard.lru.end()));
  victim.epoch = epoch;
  victim.attrs = attrs;
  victim.verdict = verdict;
  node.key() = KeyRef{epoch, &victim.attrs};
  shard.index.insert(std::move(node));
  ++shard.evictions;
}

uint64_t VerdictCache::hits() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

uint64_t VerdictCache::misses() const {
  uint64_t total = disabled_misses_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

uint64_t VerdictCache::evictions() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->evictions;
  }
  return total;
}

size_t VerdictCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace qikey
