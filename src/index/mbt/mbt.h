// Copyright (c) 2026 The siri Authors. MIT license.
//
// Merkle Bucket Tree (MBT) — §3.4.2: a Merkle tree of fanout `m` built
// over a hash table of `B` buckets (Hyperledger Fabric 0.6's state index,
// made immutable and given lookup logic, as in the paper's §5.2). Records
// hash to buckets; within a bucket they are kept sorted. Capacity and
// fanout are fixed for the lifetime of the structure, so the tree skeleton
// is static: only node *contents* change. Lookups compute the bucket index
// and then walk the root-to-bucket path derived arithmetically from it.
//
// MBT is trivially Structurally Invariant (a record's position depends
// only on its key hash), but its buckets grow as N/B, which is what drives
// its O(log_m B + N/B) lookup/update bound (§4.1) and its poor
// deduplication at large N (§5.4).

#ifndef SIRI_INDEX_MBT_MBT_H_
#define SIRI_INDEX_MBT_MBT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "index/index.h"

namespace siri {

/// \brief MBT shape parameters; fixed at construction (paper §3.4.2).
struct MbtOptions {
  /// Number of buckets ("capacity" in the paper).
  uint64_t num_buckets = 8192;
  /// Children per internal node ("fanout").
  uint64_t fanout = 32;
};

/// \brief Merkle Bucket Tree index (SIRI instance).
class Mbt : public ImmutableIndex {
 public:
  explicit Mbt(NodeStorePtr store, MbtOptions options = {});

  std::string name() const override { return "mbt"; }

  /// MBT's empty version is a real tree of B empty buckets (one shared
  /// empty-bucket page plus one node per level, thanks to deduplication).
  Hash EmptyRoot() const override { return empty_root_; }

  Result<Hash> PutBatch(const Hash& root, std::vector<KV> kvs) override;
  Result<Hash> DeleteBatch(const Hash& root,
                           std::vector<std::string> keys) override;
  Result<std::optional<std::string>> Get(const Hash& root, Slice key,
                                         LookupStats* stats) const override;
  Result<Proof> GetProof(const Hash& root, Slice key) const override;
  Status CollectPages(const Hash& root, PageSet* pages) const override;
  Status Scan(const Hash& root,
              const std::function<void(Slice, Slice)>& fn) const override;
  Result<DiffResult> Diff(const Hash& a, const Hash& b) const override;
  std::unique_ptr<ImmutableIndex> WithStore(NodeStorePtr store) const override;

  /// Figure 13 instrumentation: separates path traversal + bucket load time
  /// from the in-bucket binary-search scan time.
  Result<std::optional<std::string>> GetBreakdown(const Hash& root, Slice key,
                                                  uint64_t* load_nanos,
                                                  uint64_t* scan_nanos) const;

  const MbtOptions& options() const { return options_; }

  /// Bucket index for a key: hash(key) % B.
  uint64_t BucketIndexOf(Slice key) const;

  /// Number of internal levels above the buckets.
  int num_levels() const { return num_levels_; }

 private:
  /// Per-level node counts: level_size_[0] = B (buckets),
  /// level_size_[i] = ceil(level_size_[i-1] / fanout); the last is 1.
  void ComputeShape();
  Hash BuildEmptyTree();

  /// Loads the internal path from root to the bucket, returning the node
  /// digests visited; path[0] is the root, path.back() is the bucket. A
  /// point lookup passes its \p lookup_key and loads the internal nodes
  /// through NodeStore::GetOnPath; every other walk loads with Get.
  Status LoadPathTo(const Hash& root, uint64_t bucket,
                    std::vector<std::pair<Hash, std::shared_ptr<const std::string>>>*
                        path,
                    LookupStats* stats,
                    const Slice* lookup_key = nullptr) const;

  Status CollectRec(const Hash& node, int level, PageSet* pages) const;
  Status ScanRec(const Hash& node, int level,
                 const std::function<void(Slice, Slice)>& fn) const;
  Status DiffRec(const Hash& a, const Hash& b, int level,
                 DiffResult* out) const;

  MbtOptions options_;
  std::vector<uint64_t> level_size_;  // nodes per level, bottom (buckets) up
  int num_levels_ = 0;                // internal levels (excludes buckets)
  Hash empty_root_;
};

}  // namespace siri

#endif  // SIRI_INDEX_MBT_MBT_H_
