// Copyright (c) 2026 The siri Authors. MIT license.
//
// Merkle Patricia Trie (MPT) — §3.4.1: a radix-16 trie with path
// compaction and cryptographic authentication, the state index of
// Ethereum. Four node kinds: branch (16 children + optional value), leaf
// (compressed path + value), extension (compressed path + one child), and
// null. Nodes reference children by digest, giving tamper evidence and
// copy-on-write sharing in one mechanism.
//
// MPT is Structurally Invariant by construction: a record's position is a
// pure function of its key's nibble sequence, so the same record set
// always yields the same trie. Its weakness is tree height: the lookup
// path is bounded by the key length L rather than log_m N (§4.1.1), which
// the experiments surface as lower throughput and higher storage churn for
// long keys (§5.4.1).

#ifndef SIRI_INDEX_MPT_MPT_H_
#define SIRI_INDEX_MPT_MPT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/mpt/nibbles.h"

namespace siri {

/// \brief Merkle Patricia Trie index (SIRI instance).
class Mpt : public ImmutableIndex {
 public:
  explicit Mpt(NodeStorePtr store);

  std::string name() const override { return "mpt"; }

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

 private:
  struct Node;     // decoded node (branch / extension / leaf)
  struct VNode;    // virtual view of a node at a nibble offset (diff helper)
  struct Ref;      // batch-tree slot: clean stored digest or dirty MemNode
  struct MemNode;  // node owned and edited in memory by a batch

  // The mutation path. A batch applies its keys to an in-memory tree of
  // Refs: InsertRec/DeleteRec/Reattach split, collapse and re-merge nodes
  // there, loading clean nodes through store_ as they go, and never encode
  // or hash. Seal then encodes and digests each dirty node exactly once,
  // children first, into one staging batch flushed with a single PutMany —
  // so every page a batch writes is reachable from the root it returns.
  Status InsertRec(Ref* ref, const uint8_t* path, size_t len, Slice value);
  /// Returns whether the key was present; \p ref is dirtied only if so.
  Result<bool> DeleteRec(Ref* ref, const uint8_t* path, size_t len);
  /// Re-attaches \p prefix in front of the subtree \p child, merging with
  /// the child's own compressed path (used after branch collapse).
  Status Reattach(const Nibbles& prefix, Ref* child);
  /// The node behind non-empty \p ref: its MemNode when dirty, else the
  /// stored node decoded into \p loaded (which the caller may adopt).
  Result<MemNode*> View(const Ref& ref,
                        std::unique_ptr<MemNode>* loaded) const;
  Hash Seal(Ref* tree);

  Status ScanRec(const Hash& node, Nibbles* prefix,
                 const std::function<void(Slice, Slice)>& fn) const;
  Status CollectRec(const Hash& node, PageSet* pages) const;
  Status DiffRec(const std::optional<VNode>& a, const std::optional<VNode>& b,
                 Nibbles* prefix, DiffResult* out) const;

  Result<VNode> LoadVNode(const Hash& h, size_t offset) const;
  Result<std::optional<VNode>> DescendV(const VNode& v, uint8_t nibble) const;
};

}  // namespace siri

#endif  // SIRI_INDEX_MPT_MPT_H_
