// Copyright (c) 2026 The siri Authors. MIT license.
//
// StagingNodeStore — the write batch behind every index commit. One
// logical update dirties a whole root-to-leaf path of nodes; instead of
// pushing each node through the backing store's locked Put, the index
// mutation paths write into a staging store that digests and buffers the
// nodes locally, then flush the whole set with a single NodeStore::PutMany
// at the end of the batch (which is what makes a commit cost one lock
// acquisition per shard / one log append / one upload RPC).
//
// Reads fall through to the buffer first, so a mutation that re-reads
// nodes it just produced (POS re-chunking the level above, a merge's
// DeleteBatch walking the root its PutBatch just staged) sees them before
// they are flushed. The roots an index returns are only handed to callers
// after FlushBatch(), so staged nodes are never visible outside the
// mutation.

#ifndef SIRI_STORE_STAGING_STORE_H_
#define SIRI_STORE_STAGING_STORE_H_

#include <memory>
#include <unordered_map>

#include "store/node_store.h"

namespace siri {

/// \brief Single-writer write-batch decorator over a NodeStore.
///
/// NOT thread-safe — one staging store belongs to one mutation call (each
/// concurrent PutBatch gets its own). The backing store keeps its own
/// thread-safety contract; FlushBatch hands it the batch in one call.
class StagingNodeStore : public NodeStore {
 public:
  explicit StagingNodeStore(NodeStore* base) : base_(base) {}

  /// Buffers destroy staged nodes that were never flushed — mutation paths
  /// that fail mid-way simply drop their staged writes.
  ~StagingNodeStore() override = default;

  /// Digests \p bytes and stages the node locally. The digest is computed
  /// exactly once, here; FlushBatch hands it to the base store so the
  /// batch path never re-hashes.
  [[nodiscard]] Hash Put(Slice bytes) override;

  /// Stages every node of \p batch (used when relaying an already-digested
  /// batch, e.g. version transfer through a staging boundary).
  void PutMany(const NodeBatch& batch) override;

  /// Bulk-stages \p pages, digesting the batch through the shared SHA-256
  /// worker pool when it is large (bit-identical to calling Put on each
  /// page in order — same digests, same stage order). Returns the digests
  /// in page order. This is the parallel-hashing entry for producers that
  /// hold many undigested pages at once (pack landing, bulk loads); the
  /// per-page Put stays serial because index write paths need each child
  /// digest before they can build the parent.
  std::vector<Hash> PutPages(
      const std::vector<std::shared_ptr<const std::string>>& pages);

  /// Staged node first, then the base store.
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  bool Contains(const Hash& h) const override;
  Result<uint64_t> SizeOf(const Hash& h) const override;

  /// Base-store statistics: staged nodes are not counted until flushed, so
  /// put/dup accounting lands when the batch does.
  Stats stats() const override { return base_->stats(); }
  void ResetOpCounters() override { base_->ResetOpCounters(); }

  /// Flushes the staged batch, then the base store (durability point).
  Status Flush() override {
    FlushBatch();
    return base_->Flush();
  }

  Status DiskStatus() const override { return base_->DiskStatus(); }

  /// Hands the staged nodes to the base store in one PutMany call and
  /// clears the buffer. Idempotent; an empty batch is a no-op.
  void FlushBatch();

  size_t staged_count() const { return batch_.size(); }

  /// The staged nodes in insertion order. Valid until the next Put or
  /// FlushBatch; callers that need the batch past the flush (e.g. the
  /// publish-ack cache push, which ships the landed batch back to
  /// clients) must copy before flushing.
  const NodeBatch& staged_batch() const { return batch_; }

 private:
  // Below this many staged nodes, digest lookups linearly scan the batch —
  // a single-op commit stages only a handful of path nodes, and a scan of
  // those beats allocating a hash map on the per-op latency path. The map
  // is built lazily once a batch outgrows the threshold.
  static constexpr size_t kLinearThreshold = 16;

  const NodeRecord* FindStaged(const Hash& h) const;

  /// Records batch_.back() in the digest index, building the index lazily
  /// once the batch outgrows the linear-scan regime.
  void IndexNewestStaged();

  NodeStore* base_;
  NodeBatch batch_;  // insertion order — the order nodes were produced
  // Digest -> index into batch_; empty until batch_ crosses the threshold.
  std::unordered_map<Hash, size_t, HashHasher> staged_;
};

}  // namespace siri

#endif  // SIRI_STORE_STAGING_STORE_H_
