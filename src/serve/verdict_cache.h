#ifndef QIKEY_SERVE_VERDICT_CACHE_H_
#define QIKEY_SERVE_VERDICT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/attribute_set.h"
#include "core/filter.h"
#include "util/mutex.h"

namespace qikey {

/// Options for `VerdictCache`.
struct VerdictCacheOptions {
  /// Total retained verdicts across all shards; 0 disables the cache
  /// (`Lookup` always misses, `Insert` is a no-op). Split over the
  /// shards so that `size() <= capacity` always holds: each shard gets
  /// `capacity / shards` slots and the first `capacity % shards` one
  /// more.
  size_t capacity = 4096;
  /// Lock shards. Requests hash to a shard by (epoch, attrs), so
  /// concurrent lookups contend only 1/shards of the time. Clamped to
  /// [1, capacity] when the cache is enabled.
  size_t shards = 16;
};

/// \brief Sharded LRU cache of `is-key` filter verdicts, keyed by
/// (snapshot epoch, attribute set).
///
/// The epoch is part of the key, so publishing a new snapshot never
/// needs an invalidation sweep: entries of dead epochs simply age out
/// of the LRU. Verdicts are deterministic functions of the snapshot,
/// so a hit returns exactly what recomputation would — the cache can
/// change latency, never answers.
class VerdictCache {
 public:
  explicit VerdictCache(const VerdictCacheOptions& options);

  bool enabled() const { return !shards_.empty(); }

  /// True (and fills `*verdict`) on a hit; counts hit/miss either way.
  bool Lookup(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict* verdict);

  /// Records a verdict, evicting the shard's least-recently-used entry
  /// at capacity. Inserting an existing key refreshes its verdict and
  /// recency. At capacity the evicted entry's list and index nodes are
  /// recycled for the new key (its set assigned in place), so a full
  /// cache inserts without heap allocation.
  void Insert(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict verdict);

  /// Hit/miss/eviction totals, summed over the per-shard counters
  /// (each shard counts under its own lock, so the hot path adds no
  /// shared atomic traffic).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  /// Live entries over all shards (test/diagnostic use; takes each
  /// shard's lock in turn).
  size_t size() const;

 private:
  /// One cached verdict. The list node owns the only copy of the key's
  /// attribute set; the index refers to it.
  struct Entry {
    uint64_t epoch;
    AttributeSet attrs;
    FilterVerdict verdict;
  };
  using Lru = std::list<Entry>;
  /// Index key: a view of an (epoch, set) pair, hashed and compared by
  /// the set's value. Stored keys view their own LRU entry's set (list
  /// nodes never move), so a lookup keys on the caller's set as is and
  /// copies nothing.
  struct KeyRef {
    uint64_t epoch;
    const AttributeSet* attrs;
    bool operator==(const KeyRef& other) const {
      return epoch == other.epoch && *attrs == *other.attrs;
    }
  };
  struct KeyHash {
    size_t operator()(const KeyRef& key) const {
      // splitmix-style spread of the epoch over the set hash.
      uint64_t h = key.attrs->Hash() + key.epoch * 0x9e3779b97f4a7c15ull;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    /// This shard's share of the total capacity; set at construction.
    size_t capacity = 0;
    /// Shard capability: guards this shard's LRU list, its index, and
    /// its counters — and nothing of any sibling shard, which is the
    /// whole point of sharding the lock.
    Mutex mu;
    /// Front = most recently used.
    Lru lru GUARDED_BY(mu);
    std::unordered_map<KeyRef, Lru::iterator, KeyHash> index GUARDED_BY(mu);
    /// Bumped while the shard lock is already held (no atomics needed).
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const KeyRef& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Misses recorded while the cache is disabled (no shard to charge).
  std::atomic<uint64_t> disabled_misses_{0};
};

}  // namespace qikey

#endif  // QIKEY_SERVE_VERDICT_CACHE_H_
