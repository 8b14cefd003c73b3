// Byte-budgeted LRU cache keyed by sample id.
//
// Real data structure (list + hash map), used by both cache tiers of
// DataCache: the SSD tier caches encoded files, the memory tier caches
// pre-processed samples (the key/value store of §4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace hitopk::data {

class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes);

  // True and touches the entry on hit.
  bool get(uint64_t key);

  // Inserts or refreshes; evicts least-recently-used entries until the new
  // entry fits.  Entries larger than the whole capacity are not cached.
  void put(uint64_t key, size_t bytes);

  // Read-only membership test (no LRU touch).
  bool contains(uint64_t key) const;

  void clear();

  size_t used_bytes() const { return used_; }
  size_t entries() const { return index_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t key;
    size_t bytes;
  };

  void evict_one();

  size_t capacity_;
  size_t used_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace hitopk::data
