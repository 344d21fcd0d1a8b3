// Copyright (c) 2026 The siri Authors. MIT license.
//
// Forkbase-style system layer (§5.6): a storage servlet owning the node
// store, and clients that fetch nodes over an accounted remote boundary
// with a client-side node cache. The paper's system experiment runs one
// servlet and one client over TCP; here the boundary is in-process but
// every remote fetch is counted and can be charged a simulated round-trip
// cost, which reproduces the phenomenon the experiment studies — read
// throughput dominated by remote access, mitigated by caching, with cache
// hit ratios that differ per index structure (large shared nodes are
// re-read more often, fixed-entry MBT nodes less).
//
// Concurrency: one servlet serves K ForkbaseClientStore clients from K
// threads, and a single client may itself be shared by multiple reader
// threads. NodeCache (store/node_cache.h) is a sharded LRU (shards keyed
// by digest prefix, one mutex per shard) so concurrent lookups on
// different shards never contend; RemoteStats accounting is lock-free
// (relaxed atomics).
// Concurrent misses on the same digest are coalesced (singleflight): one
// thread pays the round trip, the others wait for its result, so a shared
// hot set never fetches the same node twice at the same time.
//
// Writes are RPCs too: Put ships one node per round trip, PutMany ships a
// whole commit's staged batch in a single round trip — ForkBase's
// chunk-upload call — which is what makes batched commits cost ≤ 1
// simulated RTT each.
//
// The boundary itself is pluggable since the transport refactor: the
// client store talks to a net::Transport, which is either an
// InProcessTransport over a servlet in this address space (the embedded
// deployment every test and bench above runs, with the simulated RTT) or
// a SocketTransport to a siri-server process (net/socket_transport.h),
// where the round trip is real. Cache, singleflight, and the remote
// accounting stay here — they are client-side concerns either way.

#ifndef SIRI_SYSTEM_FORKBASE_H_
#define SIRI_SYSTEM_FORKBASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"

#include "index/index.h"
#include "net/transport.h"
#include "store/node_cache.h"
#include "store/node_store.h"
#include "version/commit.h"
#include "version/group_commit.h"

namespace siri {

/// \brief The server side: owns the authoritative store and the branch
/// table. Safe to share across client threads as long as the underlying
/// NodeStore honors its thread-safety contract; the BranchManager is
/// internally thread-safe, so K writer clients may commit to the same
/// branch concurrently — head movement is an optimistic CAS (typed
/// Conflict on a lost race) and the merge retry driver in version/occ.h
/// turns losses into two-parent merge commits.
class ForkbaseServlet {
 public:
  /// \param group_commit tuning for the combining commit queue; the
  ///        defaults give a 200µs publish window. Committers opt in by
  ///        publishing through combiner() instead of CommitWithMerge.
  explicit ForkbaseServlet(NodeStorePtr store,
                           GroupCommitOptions group_commit = {})
      : store_(std::move(store)),
        branches_(store_),
        combiner_(&branches_, std::move(group_commit)) {}

  NodeStore* store() { return store_.get(); }
  const NodeStorePtr& store_ptr() const { return store_; }

  /// The server-side branch table shared by every client.
  BranchManager* branches() { return &branches_; }

  /// The group-commit publish pipeline over branches(): K concurrent
  /// committers of one branch batch into one combined merge + one staged
  /// flush + one head swing (version/group_commit.h). Committers that
  /// want per-commit publishes keep calling CommitWithMerge directly —
  /// both paths are safe concurrently (the combiner is just another OCC
  /// writer).
  CommitCombiner* combiner() { return &combiner_; }

  /// Registers a server-side index (it must be bound to this servlet's
  /// store) under index->name(), replacing any prior registration of that
  /// name. Publish RPCs arriving over a transport merge through the
  /// registered index of the structure they name, so a server must
  /// register each structure its clients commit — with the same
  /// construction options (an MBT's bucket geometry is fixed at
  /// construction and must match the client's). Register before serving:
  /// IndexFor hands out raw pointers that replacement would invalidate.
  void RegisterIndex(std::unique_ptr<ImmutableIndex> index) EXCLUDES(index_mu_);

  /// The registered index for \p structure, or nullptr. The pointer stays
  /// valid while the servlet lives (registrations are not replaced while
  /// serving, per RegisterIndex's contract).
  ImmutableIndex* IndexFor(const std::string& structure) const
      EXCLUDES(index_mu_);

 private:
  NodeStorePtr store_;
  BranchManager branches_;
  CommitCombiner combiner_;
  mutable Mutex index_mu_;
  std::map<std::string, std::unique_ptr<ImmutableIndex>> indexes_
      GUARDED_BY(index_mu_);
};

/// \brief Client-side NodeStore view: cache first, then "remote" fetch.
///
/// Reads executed through this store see the client-server boundary;
/// writes are forwarded (the paper executes writes entirely server-side).
/// Thread-safe: one instance may serve many reader threads.
class ForkbaseClientStore : public NodeStore {
 public:
  struct RemoteStats {
    uint64_t remote_gets = 0;   ///< fetches that had to go to the servlet
    uint64_t cache_hits = 0;    ///< fetches served locally
    uint64_t remote_bytes = 0;  ///< bytes shipped from the servlet
    /// Misses that piggybacked on another thread's in-flight fetch of the
    /// same digest instead of paying their own round trip (singleflight).
    uint64_t coalesced_gets = 0;
    /// Write RPCs issued: one per Put, one per PutMany batch. Batched
    /// commits therefore show ≤ 1 remote_put per commit.
    uint64_t remote_puts = 0;
    /// Nodes the transport pushed into the cache off Publish acks
    /// (combiner-aware cache push) — each one a remote_get this client
    /// did not pay on its next round.
    uint64_t pushed_nodes = 0;

    double HitRatio() const {
      const uint64_t total = remote_gets + cache_hits + coalesced_gets;
      return total == 0
                 ? 0.0
                 : static_cast<double>(cache_hits + coalesced_gets) / total;
    }
  };

  /// Embedded deployment: builds an InProcessTransport over \p servlet.
  /// \param rtt_nanos simulated per-fetch round-trip cost (0 = count only),
  ///        charged per \p rtt_model so throughput numbers include it.
  ForkbaseClientStore(ForkbaseServlet* servlet, uint64_t cache_bytes,
                      uint64_t rtt_nanos = 0,
                      RttModel rtt_model = RttModel::kBusyWait);

  /// Client/server deployment (or tests injecting a transport): the same
  /// cache/singleflight/accounting over any boundary implementation.
  /// Installs this store's NodeCache as the transport's push sink —
  /// nodes a Publish ack carries back (combiner-aware cache push) are
  /// write-allocated exactly like PutMany output.
  ForkbaseClientStore(std::shared_ptr<net::Transport> transport,
                      uint64_t cache_bytes);

  /// Uninstalls the push sink (it captures `this`; the shared transport
  /// may outlive this store).
  ~ForkbaseClientStore() override;

  /// One upload RPC per node: charges a round trip and forwards.
  [[nodiscard]] Hash Put(Slice bytes) override;

  /// One upload RPC per *batch* (ForkBase's chunk-upload call): a staged
  /// commit of any size costs a single simulated round trip.
  void PutMany(const NodeBatch& batch) override;

  /// Cache first, then a remote fetch. Concurrent misses on the same
  /// digest share one round trip (singleflight): the first thread fetches,
  /// the rest wait on its result and count as coalesced_gets.
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;

  bool Contains(const Hash& h) const override;
  Result<uint64_t> SizeOf(const Hash& h) const override;
  /// The *server* store's counters, fetched over the transport (empty on
  /// a transport error — the boundary's observability is best-effort).
  Stats stats() const override;
  void ResetOpCounters() override;
  Status Flush() override { return transport_->Flush(); }

  /// Consistent-enough snapshot of the remote accounting counters.
  RemoteStats remote_stats() const;
  void ClearCache() { cache_.Clear(); }

  /// The boundary this client talks through (e.g. for its cost stats or
  /// for branch head/publish RPCs alongside the node traffic).
  net::Transport* transport() const { return transport_.get(); }

 private:
  /// One miss being fetched from the servlet; followers block on cv until
  /// the leader publishes the outcome.
  struct InFlightFetch {
    Mutex mu;
    std::condition_variable cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
    std::shared_ptr<const std::string> bytes GUARDED_BY(mu);
  };

  std::shared_ptr<net::Transport> transport_;
  mutable NodeCache cache_;  // Lookup refreshes recency, so const paths touch it
  mutable std::atomic<uint64_t> remote_gets_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> remote_bytes_{0};
  mutable std::atomic<uint64_t> coalesced_gets_{0};
  mutable std::atomic<uint64_t> remote_puts_{0};
  mutable std::atomic<uint64_t> pushed_nodes_{0};
  Mutex inflight_mu_;
  std::unordered_map<Hash, std::shared_ptr<InFlightFetch>, HashHasher>
      inflight_ GUARDED_BY(inflight_mu_);
};

}  // namespace siri

#endif  // SIRI_SYSTEM_FORKBASE_H_
