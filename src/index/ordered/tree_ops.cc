// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/ordered/tree_ops.h"

#include <cmath>

#include "index/ordered/tree_cursor.h"

namespace siri {

Result<std::optional<std::string>> OrderedTreeGet(NodeStore* store,
                                                  Slice structure,
                                                  const Hash& root, Slice key,
                                                  LookupStats* stats) {
  if (root.IsZero()) return std::optional<std::string>{};
  LookupPath at{structure, root, key};
  Hash cur = root;
  std::vector<LeafView> leaf_views;
  std::vector<ChildView> child_views;
  while (true) {
    auto bytes = store->GetOnPath(cur, at);
    ++at.depth;
    if (!bytes.ok()) return bytes.status();
    if (stats) {
      ++stats->depth;
      ++stats->nodes_loaded;
      stats->bytes_loaded += (*bytes)->size();
    }
    if (IsLeafNode(**bytes)) {
      Status s = DecodeLeafViews(**bytes, &leaf_views);
      if (!s.ok()) return s;
      bool found = false;
      const size_t idx = LeafLowerBoundViews(leaf_views, key, &found);
      if (stats && !leaf_views.empty()) {
        stats->entries_scanned += static_cast<uint64_t>(
            std::ceil(std::log2(leaf_views.size() + 1)));
      }
      if (!found) return std::optional<std::string>{};
      return std::optional<std::string>{leaf_views[idx].value.ToString()};
    }
    Status s = DecodeInternalViews(**bytes, &child_views);
    if (!s.ok()) return s;
    if (child_views.empty()) return Status::Corruption("empty internal node");
    cur = child_views[ChildIndexForViews(child_views, key)].ChildHash();
  }
}

Status OrderedTreeScan(NodeStore* store, const Hash& root,
                       const std::function<void(Slice, Slice)>& fn) {
  if (root.IsZero()) return Status::OK();
  auto bytes = store->Get(root);
  if (!bytes.ok()) return bytes.status();
  if (IsLeafNode(**bytes)) {
    std::vector<KV> entries;
    Status s = DecodeLeaf(**bytes, &entries);
    if (!s.ok()) return s;
    for (const KV& e : entries) fn(e.key, e.value);
    return Status::OK();
  }
  std::vector<ChildEntry> children;
  Status s = DecodeInternal(**bytes, &children);
  if (!s.ok()) return s;
  for (const ChildEntry& c : children) {
    s = OrderedTreeScan(store, c.hash, fn);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status OrderedTreeRangeScan(NodeStore* store, const Hash& root, Slice lo,
                            Slice hi,
                            const std::function<void(Slice, Slice)>& fn) {
  TreeCursor cursor(store, root);
  Status s = cursor.Seek(lo);
  if (!s.ok()) return s;
  while (cursor.Valid() && Slice(cursor.key()).compare(hi) < 0) {
    fn(cursor.key(), cursor.value());
    s = cursor.Next();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status OrderedTreeCollectPages(NodeStore* store, const Hash& root,
                               PageSet* pages) {
  if (root.IsZero()) return Status::OK();
  if (!pages->insert(root).second) return Status::OK();  // already visited
  auto bytes = store->Get(root);
  if (!bytes.ok()) return bytes.status();
  if (IsLeafNode(**bytes)) return Status::OK();
  std::vector<ChildEntry> children;
  Status s = DecodeInternal(**bytes, &children);
  if (!s.ok()) return s;
  for (const ChildEntry& c : children) {
    s = OrderedTreeCollectPages(store, c.hash, pages);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<Proof> OrderedTreeGetProof(NodeStore* store, const Hash& root,
                                  Slice key) {
  Proof proof;
  proof.key = key.ToString();
  if (root.IsZero()) return proof;  // empty tree proves absence trivially
  // A server answers every kGetPath with this walk, so it decodes with
  // views exactly as OrderedTreeGet does.
  Hash cur = root;
  std::vector<LeafView> leaf_views;
  std::vector<ChildView> child_views;
  while (true) {
    auto bytes = store->Get(cur);
    if (!bytes.ok()) return bytes.status();
    proof.nodes.push_back(**bytes);
    if (IsLeafNode(**bytes)) {
      Status s = DecodeLeafViews(**bytes, &leaf_views);
      if (!s.ok()) return s;
      bool found = false;
      const size_t idx = LeafLowerBoundViews(leaf_views, key, &found);
      if (found) proof.value = leaf_views[idx].value.ToString();
      return proof;
    }
    Status s = DecodeInternalViews(**bytes, &child_views);
    if (!s.ok()) return s;
    if (child_views.empty()) return Status::Corruption("empty internal node");
    cur = child_views[ChildIndexForViews(child_views, key)].ChildHash();
  }
}

Result<DiffResult> OrderedTreeDiff(NodeStore* store, const Hash& a,
                                   const Hash& b) {
  DiffResult out;
  if (a == b) return out;

  TreeCursor ca(store, a);
  TreeCursor cb(store, b);
  Status s = ca.SeekToFirst();
  if (!s.ok()) return s;
  s = cb.SeekToFirst();
  if (!s.ok()) return s;

  while (ca.Valid() && cb.Valid()) {
    // Skip shared subtrees at the highest level where both cursors stand at
    // a subtree start with equal digests.
    bool skipped = false;
    const int max_level =
        std::min(ca.num_levels(), cb.num_levels()) - 1;
    for (int level = max_level; level >= 0; --level) {
      if (ca.AtSubtreeStart(level) && cb.AtSubtreeStart(level) &&
          ca.SubtreeHash(level) == cb.SubtreeHash(level)) {
        s = ca.SkipSubtree(level);
        if (!s.ok()) return s;
        s = cb.SkipSubtree(level);
        if (!s.ok()) return s;
        skipped = true;
        break;
      }
    }
    if (skipped) continue;

    const int c = Slice(ca.key()).compare(Slice(cb.key()));
    if (c == 0) {
      if (ca.value() != cb.value()) {
        out.push_back({ca.key(), ca.value(), cb.value()});
      }
      s = ca.Next();
      if (!s.ok()) return s;
      s = cb.Next();
      if (!s.ok()) return s;
    } else if (c < 0) {
      out.push_back({ca.key(), ca.value(), std::nullopt});
      s = ca.Next();
      if (!s.ok()) return s;
    } else {
      out.push_back({cb.key(), std::nullopt, cb.value()});
      s = cb.Next();
      if (!s.ok()) return s;
    }
  }
  while (ca.Valid()) {
    out.push_back({ca.key(), ca.value(), std::nullopt});
    s = ca.Next();
    if (!s.ok()) return s;
  }
  while (cb.Valid()) {
    out.push_back({cb.key(), std::nullopt, cb.value()});
    s = cb.Next();
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace siri
