// Copyright (c) 2026 The siri Authors. MIT license.

#include "system/forkbase.h"

#include "common/status.h"
#include "crypto/sha256.h"

namespace siri {

void ForkbaseServlet::RegisterIndex(std::unique_ptr<ImmutableIndex> index) {
  SIRI_CHECK(index != nullptr);
  MutexLock lock(index_mu_);
  indexes_[index->name()] = std::move(index);
}

ImmutableIndex* ForkbaseServlet::IndexFor(const std::string& structure) const {
  MutexLock lock(index_mu_);
  auto it = indexes_.find(structure);
  return it == indexes_.end() ? nullptr : it->second.get();
}

ForkbaseClientStore::ForkbaseClientStore(ForkbaseServlet* servlet,
                                         uint64_t cache_bytes,
                                         uint64_t rtt_nanos, RttModel rtt_model)
    : ForkbaseClientStore(std::make_shared<net::InProcessTransport>(
                              servlet, rtt_nanos, rtt_model),
                          cache_bytes) {}

ForkbaseClientStore::ForkbaseClientStore(
    std::shared_ptr<net::Transport> transport, uint64_t cache_bytes)
    : transport_(std::move(transport)), cache_(cache_bytes) {
  // Combiner-aware cache push: nodes the server attaches to Publish acks
  // (already digest-verified by the transport) are write-allocated into
  // the cache — they are the merged pages and commit objects the next
  // commit round would otherwise fetch back one Get at a time.
  transport_->SetPushSink([this](const NodeBatch& pushed) {
    for (const NodeRecord& rec : pushed) cache_.Insert(rec.hash, rec.bytes);
    pushed_nodes_.fetch_add(pushed.size(), std::memory_order_relaxed);
  });
}

ForkbaseClientStore::~ForkbaseClientStore() {
  // The sink captures `this`; the transport is shared and may outlive us.
  transport_->SetPushSink(nullptr);
}

Hash ForkbaseClientStore::Put(Slice bytes) {
  // One node, one upload RPC. Batched commit paths use PutMany instead,
  // which ships the whole staged batch for a single round trip.
  remote_puts_.fetch_add(1, std::memory_order_relaxed);
  auto uploaded = transport_->Put(bytes);
  // NodeStore::Put has no failure channel (an upload's digest is its
  // receipt), so a broken boundary is fatal to this client — matching the
  // embedded deployment, where the store is in-process and cannot fail.
  SIRI_CHECK(uploaded.ok());
  return *uploaded;
}

void ForkbaseClientStore::PutMany(const NodeBatch& batch) {
  if (batch.empty()) return;
  // The whole batch rides one chunk-upload RPC: a commit's dirty
  // root-to-leaf path costs one round trip, not one per node.
  remote_puts_.fetch_add(1, std::memory_order_relaxed);
  const Status uploaded = transport_->PutMany(batch);
  SIRI_CHECK(uploaded.ok());  // see Put: no failure channel
  // Write-allocate: the next commit of this client starts by re-reading
  // the path nodes this one just produced; without caching them each would
  // cost a fresh remote fetch.
  for (const NodeRecord& rec : batch) cache_.Insert(rec.hash, rec.bytes);
}

Result<std::shared_ptr<const std::string>> ForkbaseClientStore::Get(
    const Hash& h) {
  return Fetch(h, nullptr);
}

Result<std::shared_ptr<const std::string>> ForkbaseClientStore::GetOnPath(
    const Hash& h, const LookupPath& path) {
  return Fetch(h, &path);
}

Result<std::shared_ptr<const std::string>> ForkbaseClientStore::Fetch(
    const Hash& h, const LookupPath* path) {
  if (auto cached = cache_.Lookup(h)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  // Singleflight: join an in-flight fetch of the same digest if one
  // exists, otherwise become its leader.
  std::shared_ptr<InFlightFetch> flight;
  bool leader = false;
  {
    MutexLock lock(inflight_mu_);
    auto it = inflight_.find(h);
    if (it == inflight_.end()) {
      flight = std::make_shared<InFlightFetch>();
      inflight_.emplace(h, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    // Follower: the round trip is already being paid by the leader; wait
    // for its result instead of issuing a duplicate fetch. (Manual wait
    // loop: a predicate lambda would hide the guarded read of done from
    // the thread-safety analysis.)
    MutexLock lock(flight->mu);
    while (!flight->done) flight->cv.wait(lock.native());
    coalesced_gets_.fetch_add(1, std::memory_order_relaxed);
    if (!flight->status.ok()) return flight->status;
    return flight->bytes;
  }

  auto bytes = path != nullptr ? FetchPath(h, *path) : FetchNode(h);
  // Publish to followers, then retire the flight so later misses start a
  // fresh fetch (by then the node is normally in the cache anyway).
  {
    MutexLock lock(flight->mu);
    flight->status = bytes.ok() ? Status::OK() : bytes.status();
    if (bytes.ok()) flight->bytes = *bytes;
    flight->done = true;
  }
  flight->cv.notify_all();
  {
    MutexLock lock(inflight_mu_);
    inflight_.erase(h);
  }
  return bytes;
}

Result<std::shared_ptr<const std::string>> ForkbaseClientStore::FetchNode(
    const Hash& h) {
  auto bytes = transport_->Get(h);
  if (bytes.ok()) {
    remote_gets_.fetch_add(1, std::memory_order_relaxed);
    remote_bytes_.fetch_add((*bytes)->size(), std::memory_order_relaxed);
    cache_.Insert(h, *bytes);
  }
  return bytes;
}

Result<std::shared_ptr<const std::string>> ForkbaseClientStore::FetchPath(
    const Hash& h, const LookupPath& path) {
  if (!path_supported_.load(std::memory_order_relaxed)) return FetchNode(h);
  auto nodes = transport_->GetPath(path.structure.ToString(), path.root,
                                   path.key, path.depth);
  if (!nodes.ok()) {
    if (nodes.status().IsNotSupported()) {
      path_supported_.store(false, std::memory_order_relaxed);
    }
    return FetchNode(h);  // any failure: this miss goes node by node
  }
  // The server is not trusted: every node is cached under the digest its
  // own bytes hash to, so a wrong, missing or extra node can never stand
  // in for another. The lookup then walks on from h by its own digests.
  remote_gets_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const std::string> found;
  for (std::shared_ptr<const std::string>& node : *nodes) {
    remote_bytes_.fetch_add(node->size(), std::memory_order_relaxed);
    const Hash digest = Sha256::Digest(*node);
    if (digest == h && found == nullptr) found = node;
    cache_.Insert(digest, std::move(node));
  }
  if (found == nullptr) return FetchNode(h);
  return found;
}

bool ForkbaseClientStore::Contains(const Hash& h) const {
  // A cached node is by construction present on the servlet (it was fetched
  // from there), so answer locally and keep remote accounting faithful to
  // the paper's client-side model.
  if (cache_.Lookup(h) != nullptr) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  remote_gets_.fetch_add(1, std::memory_order_relaxed);
  auto present = transport_->Contains(h);
  return present.ok() && *present;
}

Result<uint64_t> ForkbaseClientStore::SizeOf(const Hash& h) const {
  if (auto cached = cache_.Lookup(h)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<uint64_t>(cached->size());
  }
  remote_gets_.fetch_add(1, std::memory_order_relaxed);
  return transport_->SizeOf(h);
}

NodeStore::Stats ForkbaseClientStore::stats() const {
  auto remote = transport_->StoreStats();
  return remote.ok() ? *remote : Stats{};
}

void ForkbaseClientStore::ResetOpCounters() {
  // Best-effort across the boundary: a client that cannot reach the
  // server still zeroes its local counters.
  (void)transport_->ResetServerOpCounters();
  remote_gets_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  remote_bytes_.store(0, std::memory_order_relaxed);
  coalesced_gets_.store(0, std::memory_order_relaxed);
  remote_puts_.store(0, std::memory_order_relaxed);
}

ForkbaseClientStore::RemoteStats ForkbaseClientStore::remote_stats() const {
  RemoteStats out;
  out.remote_gets = remote_gets_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.remote_bytes = remote_bytes_.load(std::memory_order_relaxed);
  out.coalesced_gets = coalesced_gets_.load(std::memory_order_relaxed);
  out.remote_puts = remote_puts_.load(std::memory_order_relaxed);
  out.pushed_nodes = pushed_nodes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace siri
