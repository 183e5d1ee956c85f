#ifndef QIKEY_SERVE_VERDICT_CACHE_H_
#define QIKEY_SERVE_VERDICT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "core/attribute_set.h"
#include "core/filter.h"

namespace qikey {

/// Options for `VerdictCache`.
struct VerdictCacheOptions {
  /// Retained verdicts; 0 disables the cache (`Lookup` always misses,
  /// `Insert` is a no-op).
  size_t capacity = 4096;
};

/// \brief Single-owner LRU cache of `is-key` filter verdicts, keyed by
/// (snapshot epoch, attribute set).
///
/// The epoch is part of the key, so publishing a new snapshot never
/// needs an invalidation sweep: entries of dead epochs simply age out
/// of the LRU. Verdicts are deterministic functions of the snapshot,
/// so a hit returns exactly what recomputation would — the cache can
/// change latency, never answers.
///
/// Thread safety: one thread (the owning engine's caller) calls `Lookup`
/// and `Insert`; the counters, single-writer relaxed atomics, may be
/// read from any thread.
class VerdictCache {
 public:
  explicit VerdictCache(const VerdictCacheOptions& options)
      : capacity_(options.capacity) {}

  bool enabled() const { return capacity_ > 0; }

  /// True (and fills `*verdict`) on a hit; counts hit/miss either way.
  bool Lookup(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict* verdict);

  /// Records a verdict, evicting the least-recently-used entry at
  /// capacity. Inserting an existing key refreshes its verdict and
  /// recency. At capacity the evicted entry's list and index nodes are
  /// recycled for the new key (its set assigned in place), so a full
  /// cache inserts without heap allocation.
  void Insert(uint64_t epoch, const AttributeSet& attrs,
              FilterVerdict verdict);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Live entries.
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

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

  /// Single-writer increment: a relaxed load and store, no RMW.
  static void Bump(std::atomic<uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  const size_t capacity_;
  /// Front = most recently used.
  Lru lru_;
  std::unordered_map<KeyRef, Lru::iterator, KeyHash> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> size_{0};
};

}  // namespace qikey

#endif  // QIKEY_SERVE_VERDICT_CACHE_H_
