// Copyright (c) 2026 The siri Authors. MIT license.
//
// Content-addressed node (page) storage. Every index node is serialized to
// bytes, digested with SHA-256, and stored under its digest. Storing the
// same bytes twice is free — this is the mechanism behind page-level
// deduplication across versions, branches, and even different datasets
// (§3.3 of the paper). All four index structures share one NodeStore, so
// space metrics (deduplication ratio η, node sharing ratio) can be computed
// directly from store statistics and reachable page sets.
//
// Write path: index commit paths stage the dirty root-to-leaf nodes of one
// batch locally (see staging_store.h) and hand the whole set to PutMany,
// so a commit costs one lock acquisition per touched shard / one log
// append / one upload RPC instead of one per node.

#ifndef SIRI_STORE_NODE_STORE_H_
#define SIRI_STORE_NODE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace siri {

/// A set of page digests, e.g. all pages reachable from one version root.
using PageSet = std::unordered_set<Hash, HashHasher>;

/// \brief One pre-digested node of a write batch.
///
/// Contract: \c hash MUST equal SHA-256(*bytes). Producers (the staging
/// layer, version transfer) compute the digest exactly once when the node
/// is created; PutMany implementations trust it so the batch path does not
/// re-hash every node — that amortization is the point of batching.
struct NodeRecord {
  Hash hash;
  std::shared_ptr<const std::string> bytes;
};

/// A batch of nodes flushed together at a commit boundary.
using NodeBatch = std::vector<NodeRecord>;

/// \brief Where a point lookup stands when it loads a node: the index it
/// walks (\c structure, the name a server registers it under), the
/// version \c root and \c key it looks up, and how many nodes it loaded
/// above this one (\c depth; 0 = the root). Enough for a remote store to
/// fetch the rest of the path in one round trip. Borrowed views: valid for
/// the one GetOnPath call.
struct LookupPath {
  Slice structure;
  Hash root;
  Slice key;
  uint64_t depth = 0;
};

/// \brief Abstract content-addressed store mapping SHA-256(bytes) -> bytes.
///
/// Implementations must be thread-safe. Nodes are immutable once stored.
class NodeStore {
 public:
  struct Stats {
    uint64_t puts = 0;         ///< total nodes offered (Put + PutMany)
    uint64_t put_bytes = 0;    ///< bytes offered across all put calls
    uint64_t dup_puts = 0;     ///< offered nodes that hit an existing node
    uint64_t gets = 0;         ///< total Get calls
    uint64_t get_bytes = 0;    ///< bytes returned across all Get calls
    uint64_t unique_nodes = 0; ///< distinct nodes resident
    uint64_t unique_bytes = 0; ///< total bytes of distinct nodes
    /// Durability points paid: the in-memory store counts Flush() calls
    /// (each stands for the fsync a disk-backed deployment would issue),
    /// the file store counts real fsyncs. Commits-per-flush > 1 is the
    /// group-commit win benches report.
    uint64_t flushes = 0;
  };

  virtual ~NodeStore() = default;

  /// Stores \p bytes (idempotent) and returns its SHA-256 digest.
  /// [[nodiscard]]: the digest is the only handle to the stored node —
  /// a caller that drops it stored bytes it can never address again.
  /// Fire-and-forget writes of *pre-digested* nodes go through PutMany.
  [[nodiscard]] virtual Hash Put(Slice bytes) = 0;

  /// Stores every node of \p batch (idempotent, like Put). Implementations
  /// override this to amortize per-node overhead: the in-memory store takes
  /// each shard lock once, the file store issues one log append, the client
  /// store pays one simulated round trip. The default loops over Put so
  /// decorators keep working unchanged. Per-node put/dup accounting is
  /// identical to calling Put once per node.
  virtual void PutMany(const NodeBatch& batch);

  /// Fetches the node with digest \p h. NotFound if absent.
  virtual Result<std::shared_ptr<const std::string>> Get(const Hash& h) = 0;

  /// Get(\p h) for a node a point lookup reaches at \p path. The default
  /// is Get; ForkbaseClientStore answers a miss by fetching every node
  /// from this one down to the leaf in one round trip.
  virtual Result<std::shared_ptr<const std::string>> GetOnPath(
      const Hash& h, const LookupPath& path) {
    (void)path;
    return Get(h);
  }

  virtual bool Contains(const Hash& h) const = 0;

  /// Serialized size of the node, or NotFound.
  virtual Result<uint64_t> SizeOf(const Hash& h) const = 0;

  virtual Stats stats() const = 0;

  /// Zeroes the operation counters (puts/gets); resident-node counters keep
  /// their values. Benches call this between phases.
  virtual void ResetOpCounters() = 0;

  /// Makes previously acknowledged Puts durable. No-op for in-memory
  /// stores; disk-backed stores fsync. Commit boundaries call this so an
  /// acknowledged commit survives a crash. The Status must be checked
  /// ([[nodiscard]] via Status): an ignored failed flush is an
  /// acknowledged commit that does not survive a crash.
  virtual Status Flush() { return Status::OK(); }

  /// Sticky disk health. OK for stores with no failure mode (the
  /// in-memory default); disk-backed stores latch the first
  /// unrecoverable write/sync error here (typed: ResourceExhausted for
  /// out-of-space, IOError otherwise) and never reset it — see
  /// FileNodeStore. Servers poll this to flip into read-only degraded
  /// mode.
  virtual Status DiskStatus() const { return Status::OK(); }
};

using NodeStorePtr = std::shared_ptr<NodeStore>;

/// \brief Hash-map backed store; the default for every test and bench.
///
/// Internally sharded like NodeCache: a node lives in the shard selected by
/// its digest prefix, and each shard has its own mutex and resident-node
/// counters, so concurrent writers on different shards never contend.
/// Op counters are process-wide relaxed atomics. Constructing with
/// `num_shards = 1` preserves the exact single-map semantics (one lock
/// ordering all operations), which tests that reason about interleavings
/// rely on.
class InMemoryNodeStore : public NodeStore {
 public:
  static constexpr int kDefaultShards = 16;

  explicit InMemoryNodeStore(int num_shards = kDefaultShards);

  [[nodiscard]] Hash Put(Slice bytes) override;
  void PutMany(const NodeBatch& batch) override;
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  bool Contains(const Hash& h) const override;
  Result<uint64_t> SizeOf(const Hash& h) const override;
  Stats stats() const override;
  void ResetOpCounters() override;

  /// No durability work to do, but the call is counted (stats().flushes)
  /// so benches over the in-memory store can report commits-per-flush the
  /// same way the file store reports commits-per-fsync.
  Status Flush() override {
    flushes_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Total serialized bytes of the pages in \p pages that exist in this
  /// store (the byte() function of §4.2.1 applied to a page set).
  uint64_t BytesOf(const PageSet& pages) const;

  /// Garbage collection: drops every page NOT in \p retain (the union of
  /// CollectPages over all roots the application still needs). Returns the
  /// number of pages dropped. Digest addressing makes this safe: a page in
  /// the retain set can never be a dangling reference.
  uint64_t PruneExcept(const PageSet& retain);

 private:
  struct Shard {
    mutable SharedMutex mu;
    std::unordered_map<Hash, std::shared_ptr<const std::string>, HashHasher>
        nodes GUARDED_BY(mu);
    // Resident-node counters only change under the shard's unique lock.
    uint64_t unique_nodes GUARDED_BY(mu) = 0;
    uint64_t unique_bytes GUARDED_BY(mu) = 0;
  };

  size_t ShardIndexFor(const Hash& h) const {
    return h.Prefix64() % shards_.size();
  }
  Shard& ShardFor(const Hash& h) { return shards_[ShardIndexFor(h)]; }
  const Shard& ShardFor(const Hash& h) const {
    return shards_[ShardIndexFor(h)];
  }

  /// Inserts one pre-digested node into \p shard (which must be uniquely
  /// locked by the caller) and bumps the op counters.
  void InsertLocked(Shard& shard, const Hash& h,
                    std::shared_ptr<const std::string> bytes)
      REQUIRES(shard.mu);

  std::vector<Shard> shards_;
  // Op counters are bumped on shared-lock read paths and across shards, so
  // they are process-wide atomics rather than per-shard fields.
  mutable std::atomic<uint64_t> puts_{0};
  mutable std::atomic<uint64_t> put_bytes_{0};
  mutable std::atomic<uint64_t> dup_puts_{0};
  mutable std::atomic<uint64_t> gets_{0};
  mutable std::atomic<uint64_t> get_bytes_{0};
  mutable std::atomic<uint64_t> flushes_{0};
};

std::shared_ptr<InMemoryNodeStore> NewInMemoryNodeStore(
    int num_shards = InMemoryNodeStore::kDefaultShards);

/// \brief Store decorator that fails a configurable fraction of operations.
///
/// Used by failure-injection tests to verify that index code surfaces
/// corruption/missing-node errors instead of crashing or mis-answering.
class FaultyNodeStore : public NodeStore {
 public:
  explicit FaultyNodeStore(NodeStorePtr base) : base_(std::move(base)) {}

  /// Every call to Get for \p h fails with Corruption until cleared.
  void CorruptNode(const Hash& h);
  /// Makes \p h invisible (NotFound) until cleared.
  void DropNode(const Hash& h);
  void ClearFaults();

  [[nodiscard]] Hash Put(Slice bytes) override { return base_->Put(bytes); }
  void PutMany(const NodeBatch& batch) override { base_->PutMany(batch); }
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  bool Contains(const Hash& h) const override;
  Result<uint64_t> SizeOf(const Hash& h) const override {
    return base_->SizeOf(h);
  }
  Stats stats() const override { return base_->stats(); }
  void ResetOpCounters() override { base_->ResetOpCounters(); }
  Status Flush() override { return base_->Flush(); }
  Status DiskStatus() const override { return base_->DiskStatus(); }

 private:
  NodeStorePtr base_;
  mutable SharedMutex mu_;
  PageSet corrupted_ GUARDED_BY(mu_);
  PageSet dropped_ GUARDED_BY(mu_);
};

}  // namespace siri

#endif  // SIRI_STORE_NODE_STORE_H_
