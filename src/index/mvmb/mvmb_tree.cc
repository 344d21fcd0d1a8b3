// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/mvmb/mvmb_tree.h"

#include <algorithm>

#include "index/ordered/tree_ops.h"
#include "store/staging_store.h"

namespace siri {

namespace {

uint64_t LeafEntryBytes(const KV& e) {
  return e.key.size() + e.value.size() + 10;  // + length prefixes (approx)
}

uint64_t ChildEntryBytes(const ChildEntry& e) {
  return e.key.size() + Hash::kSize + 5;
}

/// Splits sorted entries into byte-balanced groups of at most
/// max_bytes each (at least one entry per group). The grouping depends
/// only on this node's entry list — but which entries share a node depends
/// on insertion history, which is what makes the structure order-dependent.
template <typename T, typename SizeFn>
std::vector<std::vector<T>> PackGroups(std::vector<T> entries, SizeFn size_of,
                                       uint64_t max_bytes) {
  std::vector<std::vector<T>> groups;
  uint64_t total = 0;
  for (const T& e : entries) total += size_of(e);
  if (entries.empty()) return groups;
  const uint64_t num_groups = std::max<uint64_t>(
      1, (total + max_bytes - 1) / max_bytes);
  const uint64_t target = (total + num_groups - 1) / num_groups;

  std::vector<T> cur;
  uint64_t cur_bytes = 0;
  for (T& e : entries) {
    const uint64_t sz = size_of(e);
    if (!cur.empty() && cur_bytes + sz > target) {
      groups.push_back(std::move(cur));
      cur.clear();
      cur_bytes = 0;
    }
    cur_bytes += sz;
    cur.push_back(std::move(e));
  }
  if (!cur.empty()) groups.push_back(std::move(cur));
  return groups;
}

}  // namespace

MvmbTree::MvmbTree(NodeStorePtr store, MvmbTreeOptions options)
    : ImmutableIndex(std::move(store)), options_(options) {}

std::vector<ChildEntry> MvmbTree::WriteLeaves(NodeStore* store,
                                              const std::vector<KV>& entries) {
  std::vector<ChildEntry> out;
  if (entries.empty()) return out;
  auto groups = PackGroups(entries, LeafEntryBytes, options_.max_node_bytes);
  out.reserve(groups.size());
  for (const auto& group : groups) {
    ChildEntry ce;
    ce.key = group.front().key;
    ce.hash = store->Put(EncodeLeaf(group));
    out.push_back(std::move(ce));
  }
  return out;
}

Result<Hash> MvmbTree::BuildRoot(NodeStore* store,
                                 std::vector<ChildEntry> children) {
  if (children.empty()) return Hash::Zero();
  while (children.size() > 1) {
    auto groups =
        PackGroups(std::move(children), ChildEntryBytes, options_.max_node_bytes);
    std::vector<ChildEntry> next;
    next.reserve(groups.size());
    for (const auto& group : groups) {
      ChildEntry ce;
      ce.key = group.front().key;
      ce.hash = store->Put(EncodeInternal(group));
      next.push_back(std::move(ce));
    }
    children = std::move(next);
  }
  return children[0].hash;
}

Result<std::vector<ChildEntry>> MvmbTree::UpdateRec(
    NodeStore* store, const Hash& node, const std::vector<Edit>& edits) {
  auto bytes = store->Get(node);
  if (!bytes.ok()) return bytes.status();

  if (IsLeafNode(**bytes)) {
    std::vector<KV> entries;
    Status s = DecodeLeaf(**bytes, &entries);
    if (!s.ok()) return s;

    // Merge-join entries with sorted edits.
    std::vector<KV> merged;
    merged.reserve(entries.size() + edits.size());
    size_t i = 0;
    for (const Edit& e : edits) {
      while (i < entries.size() && Slice(entries[i].key).compare(e.key) < 0) {
        merged.push_back(std::move(entries[i++]));
      }
      if (i < entries.size() && entries[i].key == e.key) ++i;  // overwritten
      if (e.value) merged.push_back(KV{e.key, *e.value});
    }
    while (i < entries.size()) merged.push_back(std::move(entries[i++]));
    return WriteLeaves(store, merged);
  }

  std::vector<ChildEntry> children;
  Status s = DecodeInternal(**bytes, &children);
  if (!s.ok()) return s;
  if (children.empty()) return Status::Corruption("empty internal node");

  // Partition edits among children: edits with key < children[1].key go to
  // child 0 (including keys below children[0].key), and so on.
  std::vector<ChildEntry> updated;
  updated.reserve(children.size());
  size_t e = 0;
  for (size_t c = 0; c < children.size(); ++c) {
    const bool last = c + 1 == children.size();
    std::vector<Edit> child_edits;
    while (e < edits.size() &&
           (last ||
            Slice(edits[e].key).compare(children[c + 1].key) < 0)) {
      child_edits.push_back(edits[e++]);
    }
    if (child_edits.empty()) {
      updated.push_back(children[c]);
      continue;
    }
    auto replacement = UpdateRec(store, children[c].hash, child_edits);
    if (!replacement.ok()) return replacement.status();
    for (ChildEntry& r : *replacement) updated.push_back(std::move(r));
  }

  if (updated.empty()) return std::vector<ChildEntry>{};
  auto groups =
      PackGroups(std::move(updated), ChildEntryBytes, options_.max_node_bytes);
  std::vector<ChildEntry> out;
  out.reserve(groups.size());
  for (const auto& group : groups) {
    ChildEntry ce;
    ce.key = group.front().key;
    ce.hash = store->Put(EncodeInternal(group));
    out.push_back(std::move(ce));
  }
  return out;
}

Result<Hash> MvmbTree::ApplyEdits(const Hash& root, std::vector<Edit> edits) {
  if (edits.empty()) return root;
  std::stable_sort(edits.begin(), edits.end(),
                   [](const Edit& a, const Edit& b) { return a.key < b.key; });
  std::vector<Edit> unique;
  unique.reserve(edits.size());
  for (Edit& e : edits) {
    if (!unique.empty() && unique.back().key == e.key) {
      unique.back() = std::move(e);
    } else {
      unique.push_back(std::move(e));
    }
  }

  // One staging batch per edit batch: every node the rebuild produces is
  // flushed to the backing store with a single PutMany.
  StagingNodeStore staging(store_.get());

  if (root.IsZero()) {
    std::vector<KV> entries;
    for (Edit& e : unique) {
      if (e.value) entries.push_back(KV{std::move(e.key), std::move(*e.value)});
    }
    auto built = BuildRoot(&staging, WriteLeaves(&staging, entries));
    if (built.ok()) staging.FlushBatch();
    return built;
  }

  auto replacement = UpdateRec(&staging, root, unique);
  if (!replacement.ok()) return replacement.status();
  Result<Hash> built =
      replacement->size() == 1
          ? Result<Hash>((*replacement)[0].hash)
          : replacement->empty() ? Result<Hash>(Hash::Zero())
                                 : BuildRoot(&staging, std::move(*replacement));
  if (built.ok()) staging.FlushBatch();
  return built;
}

Result<Hash> MvmbTree::PutBatch(const Hash& root, std::vector<KV> kvs) {
  std::vector<Edit> edits;
  edits.reserve(kvs.size());
  for (KV& kv : kvs) {
    edits.push_back(Edit{std::move(kv.key), std::move(kv.value)});
  }
  return ApplyEdits(root, std::move(edits));
}

Result<Hash> MvmbTree::DeleteBatch(const Hash& root,
                                   std::vector<std::string> keys) {
  std::vector<Edit> edits;
  edits.reserve(keys.size());
  for (std::string& k : keys) edits.push_back(Edit{std::move(k), std::nullopt});
  return ApplyEdits(root, std::move(edits));
}

Result<Hash> MvmbTree::BuildFromSorted(const std::vector<KV>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (!(Slice(entries[i - 1].key) < Slice(entries[i].key))) {
      return Status::InvalidArgument("entries not sorted/unique");
    }
  }
  StagingNodeStore staging(store_.get());
  auto built = BuildRoot(&staging, WriteLeaves(&staging, entries));
  if (built.ok()) staging.FlushBatch();
  return built;
}

Result<std::optional<std::string>> MvmbTree::Get(const Hash& root, Slice key,
                                                 LookupStats* stats) const {
  return OrderedTreeGet(store_.get(), name(), root, key, stats);
}

Result<Proof> MvmbTree::GetProof(const Hash& root, Slice key) const {
  return OrderedTreeGetProof(store_.get(), root, key);
}

Status MvmbTree::CollectPages(const Hash& root, PageSet* pages) const {
  return OrderedTreeCollectPages(store_.get(), root, pages);
}

Status MvmbTree::Scan(const Hash& root,
                      const std::function<void(Slice, Slice)>& fn) const {
  return OrderedTreeScan(store_.get(), root, fn);
}

Status MvmbTree::RangeScan(const Hash& root, Slice lo, Slice hi,
                           const std::function<void(Slice, Slice)>& fn) const {
  return OrderedTreeRangeScan(store_.get(), root, lo, hi, fn);
}

Result<DiffResult> MvmbTree::Diff(const Hash& a, const Hash& b) const {
  return OrderedTreeDiff(store_.get(), a, b);
}

std::unique_ptr<ImmutableIndex> MvmbTree::WithStore(NodeStorePtr store) const {
  return std::make_unique<MvmbTree>(std::move(store), options_);
}

}  // namespace siri
