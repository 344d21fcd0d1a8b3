// Copyright (c) 2026 The siri Authors. MIT license.

#include "store/node_cache.h"

namespace siri {

NodeCache::NodeCache(uint64_t capacity_bytes, int num_shards)
    : capacity_bytes_(capacity_bytes),
      shards_(num_shards < 1 ? 1 : static_cast<size_t>(num_shards)) {
  // Integer division: with capacity below the shard count every shard gets
  // capacity 0 and behaves as a pass-through (insert, then evict) — the
  // documented capacity-0 semantics.
  const uint64_t per_shard = capacity_bytes_ / shards_.size();
  for (Shard& s : shards_) s.capacity = per_shard;
}

std::shared_ptr<const std::string> NodeCache::Lookup(const Hash& h) {
  Shard& s = ShardFor(h);
  MutexLock lock(s.mu);
  auto it = s.map.find(h);
  if (it == s.map.end()) {
    ++s.misses;
    return nullptr;
  }
  ++s.hits;
  // Move to front (most recently used).
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->bytes;
}

void NodeCache::Insert(const Hash& h, std::shared_ptr<const std::string> bytes) {
  Shard& s = ShardFor(h);
  MutexLock lock(s.mu);
  auto it = s.map.find(h);
  if (it != s.map.end()) {
    // Content-addressed: same digest, same bytes. Refresh recency so the
    // entry is not evicted as if cold.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.size += bytes->size();
  s.lru.push_front(Entry{h, std::move(bytes)});
  s.map[h] = s.lru.begin();
  while (s.size > s.capacity && !s.lru.empty()) {
    const Entry& victim = s.lru.back();
    s.size -= victim.bytes->size();
    s.map.erase(victim.hash);
    s.lru.pop_back();
    ++s.evictions;
  }
}

void NodeCache::Clear() {
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    s.lru.clear();
    s.map.clear();
    s.size = 0;
  }
}

uint64_t NodeCache::size_bytes() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    total += s.size;
  }
  return total;
}

NodeCache::Stats NodeCache::stats() const {
  Stats out;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.resident_bytes += s.size;
  }
  return out;
}

}  // namespace siri
