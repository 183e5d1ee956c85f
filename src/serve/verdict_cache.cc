#include "serve/verdict_cache.h"

#include <iterator>
#include <utility>

namespace qikey {

bool VerdictCache::Lookup(uint64_t epoch, const AttributeSet& attrs,
                          FilterVerdict* verdict) {
  auto it = enabled() ? index_.find(KeyRef{epoch, &attrs}) : index_.end();
  if (it == index_.end()) {
    Bump(misses_);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *verdict = it->second->verdict;
  Bump(hits_);
  return true;
}

void VerdictCache::Insert(uint64_t epoch, const AttributeSet& attrs,
                          FilterVerdict verdict) {
  if (!enabled()) return;
  auto it = index_.find(KeyRef{epoch, &attrs});
  if (it != index_.end()) {
    it->second->verdict = verdict;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() < capacity_) {
    lru_.push_front(Entry{epoch, attrs, verdict});
    index_.emplace(KeyRef{epoch, &lru_.front().attrs}, lru_.begin());
    Bump(size_);
    return;
  }
  // Full: the least-recently-used entry becomes the new one. Its index
  // node is unlinked while it still views the old key, then re-keyed
  // and relinked; the list node moves to the front and takes the new
  // key in place (an equal-universe set assignment reuses its words).
  Entry& victim = lru_.back();
  auto node = index_.extract(KeyRef{victim.epoch, &victim.attrs});
  lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
  victim.epoch = epoch;
  victim.attrs = attrs;
  victim.verdict = verdict;
  node.key() = KeyRef{epoch, &victim.attrs};
  index_.insert(std::move(node));
  Bump(evictions_);
}

}  // namespace qikey
