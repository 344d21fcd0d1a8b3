// Copyright (c) 2026 The siri Authors. MIT license.
//
// Read-side operations shared by POS-Tree and MVMB+-Tree, which use the
// same node codec and differ only in how nodes are partitioned on writes.

#ifndef SIRI_INDEX_ORDERED_TREE_OPS_H_
#define SIRI_INDEX_ORDERED_TREE_OPS_H_

#include <functional>
#include <optional>
#include <string>

#include "index/index.h"
#include "index/ordered/node_codec.h"
#include "index/proof.h"
#include "store/node_store.h"

namespace siri {

/// Point lookup by root-to-leaf descent with binary search at each node.
/// Loads through NodeStore::GetOnPath as index \p structure (the name a
/// server registers it under).
Result<std::optional<std::string>> OrderedTreeGet(NodeStore* store,
                                                  Slice structure,
                                                  const Hash& root, Slice key,
                                                  LookupStats* stats);

/// In-order enumeration of every record.
Status OrderedTreeScan(NodeStore* store, const Hash& root,
                       const std::function<void(Slice, Slice)>& fn);

/// In-order enumeration of records with lo <= key < hi: one O(log N) seek
/// plus one leaf visit per emitted record.
Status OrderedTreeRangeScan(NodeStore* store, const Hash& root, Slice lo,
                            Slice hi,
                            const std::function<void(Slice, Slice)>& fn);

/// Adds every reachable page digest to \p pages.
Status OrderedTreeCollectPages(NodeStore* store, const Hash& root,
                               PageSet* pages);

/// Merkle (non-)existence proof: the nodes on the lookup path.
Result<Proof> OrderedTreeGetProof(NodeStore* store, const Hash& root,
                                  Slice key);

/// Record-level diff that prunes shared subtrees: two cursors walk the
/// trees in key order and skip, at the highest possible level, any pair of
/// subtrees with equal digests. For structurally invariant trees the cost
/// is O(δ) plus the skipped boundary nodes; for the order-dependent
/// MVMB+-Tree baseline shared-subtree alignment is rare and the walk
/// degrades toward O(N) — the behavior Figure 8 of the paper reports.
Result<DiffResult> OrderedTreeDiff(NodeStore* store, const Hash& a,
                                   const Hash& b);

}  // namespace siri

#endif  // SIRI_INDEX_ORDERED_TREE_OPS_H_
