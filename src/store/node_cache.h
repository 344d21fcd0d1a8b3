// Copyright (c) 2026 The siri Authors. MIT license.
//
// NodeCache — a bounded, sharded LRU of pages keyed by digest. Two layers
// use it: a client's local node cache (system/forkbase.h) and the page
// cache of the server's disk-backed store (store/file_store.h). Shards are
// keyed by digest prefix, one mutex per shard, so concurrent lookups on
// different shards never contend.

#ifndef SIRI_STORE_NODE_CACHE_H_
#define SIRI_STORE_NODE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "crypto/hash.h"

namespace siri {

/// \brief Thread-safe LRU cache of nodes, keyed by digest.
///
/// Internally sharded: a node lives in the shard selected by its digest
/// prefix, and each shard is an independently-locked LRU with capacity
/// `capacity_bytes / num_shards`. Eviction is therefore per-shard LRU, a
/// close approximation of global LRU for SHA-256-distributed keys. Tests
/// that assert exact global LRU order pass `num_shards = 1`.
class NodeCache {
 public:
  static constexpr int kDefaultShards = 16;

  /// Counters summed over the shards (each kept under its shard's lock).
  struct Stats {
    uint64_t hits = 0;       ///< Lookups that found the node
    uint64_t misses = 0;     ///< Lookups that did not
    uint64_t evictions = 0;  ///< nodes dropped to stay within capacity
    uint64_t resident_bytes = 0;
  };

  explicit NodeCache(uint64_t capacity_bytes, int num_shards = kDefaultShards);

  /// Returns the cached bytes and refreshes recency, or nullptr on miss.
  std::shared_ptr<const std::string> Lookup(const Hash& h);

  /// Inserts the node, evicting per-shard LRU victims while over capacity.
  /// A digest already present is touched to the front instead (same bytes:
  /// the store is content-addressed) so a re-inserted entry is hot again.
  void Insert(const Hash& h, std::shared_ptr<const std::string> bytes);

  void Clear();

  uint64_t size_bytes() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Stats stats() const;

 private:
  struct Entry {
    Hash hash;
    std::shared_ptr<const std::string> bytes;
  };

  struct Shard {
    mutable Mutex mu;
    uint64_t capacity = 0;  // set once at construction, immutable after
    uint64_t size GUARDED_BY(mu) = 0;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<Hash, std::list<Entry>::iterator, HashHasher> map
        GUARDED_BY(mu);
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Hash& h) {
    return shards_[h.Prefix64() % shards_.size()];
  }

  uint64_t capacity_bytes_;
  std::vector<Shard> shards_;
};

}  // namespace siri

#endif  // SIRI_STORE_NODE_CACHE_H_
