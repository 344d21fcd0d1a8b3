// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/mbt/mbt.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/timer.h"
#include "common/varint.h"
#include "crypto/sha256.h"
#include "index/diff.h"
#include "index/ordered/node_codec.h"
#include "store/staging_store.h"

namespace siri {

namespace {

constexpr char kMbtInternalTag = 'B';

// Internal node: 'B' | varint n | n * 32-byte child digest. Children are
// positional — MBT needs no split keys because the bucket index fully
// determines the path.
std::string EncodeMbtInternal(const std::vector<Hash>& children) {
  std::string out;
  out.reserve(2 + children.size() * Hash::kSize);
  out.push_back(kMbtInternalTag);
  PutVarint64(&out, children.size());
  for (const Hash& h : children) {
    out.append(reinterpret_cast<const char*>(h.data()), Hash::kSize);
  }
  return out;
}

Status DecodeMbtInternal(Slice node, std::vector<Hash>* children) {
  if (node.empty() || node[0] != kMbtInternalTag) {
    return Status::Corruption("not an MBT internal node");
  }
  node.remove_prefix(1);
  uint64_t n = 0;
  if (!GetVarint64(&node, &n)) return Status::Corruption("bad MBT count");
  // Divide, never multiply: n * 32 wraps for a lying n >= 2^59.
  if (n != node.size() / Hash::kSize || node.size() % Hash::kSize != 0) {
    return Status::Corruption("bad MBT internal size");
  }
  children->clear();
  children->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    children->push_back(Hash::FromBytes(node.data() + i * Hash::kSize));
  }
  return Status::OK();
}

}  // namespace

Mbt::Mbt(NodeStorePtr store, MbtOptions options)
    : ImmutableIndex(std::move(store)), options_(options) {
  SIRI_CHECK(options_.num_buckets >= 1);
  SIRI_CHECK(options_.fanout >= 2);
  ComputeShape();
  empty_root_ = BuildEmptyTree();
}

void Mbt::ComputeShape() {
  level_size_.clear();
  level_size_.push_back(options_.num_buckets);
  while (level_size_.back() > 1) {
    level_size_.push_back(
        (level_size_.back() + options_.fanout - 1) / options_.fanout);
  }
  // A single bucket still gets one internal root above it so that the root
  // is always an internal node.
  if (level_size_.size() == 1) level_size_.push_back(1);
  num_levels_ = static_cast<int>(level_size_.size()) - 1;
}

Hash Mbt::BuildEmptyTree() {
  // The empty skeleton is O(num_buckets / fanout) internal nodes; stage
  // them and flush once so constructing an Mbt costs one store batch.
  StagingNodeStore staging(store_.get());
  const Hash empty_bucket = staging.Put(EncodeLeaf({}));
  std::vector<Hash> prev(level_size_[0], empty_bucket);
  Hash root = empty_bucket;
  for (int level = 1; level <= num_levels_; ++level) {
    std::vector<Hash> cur;
    cur.reserve(level_size_[level]);
    for (uint64_t j = 0; j < level_size_[level]; ++j) {
      const uint64_t lo = j * options_.fanout;
      const uint64_t hi = std::min<uint64_t>(lo + options_.fanout, prev.size());
      std::vector<Hash> children(prev.begin() + lo, prev.begin() + hi);
      cur.push_back(staging.Put(EncodeMbtInternal(children)));
    }
    root = cur[0];
    prev = std::move(cur);
  }
  staging.FlushBatch();
  return root;
}

uint64_t Mbt::BucketIndexOf(Slice key) const {
  return Sha256::Digest(key).Prefix64() % options_.num_buckets;
}

Status Mbt::LoadPathTo(
    const Hash& root, uint64_t bucket,
    std::vector<std::pair<Hash, std::shared_ptr<const std::string>>>* path,
    LookupStats* stats, const Slice* lookup_key) const {
  // The traversal path is a "trivial reverse simulation of the complete
  // multi-way search tree": node index at level i is bucket / fanout^i.
  const std::string structure = lookup_key != nullptr ? name() : "";
  LookupPath at{structure, root, lookup_key != nullptr ? *lookup_key : Slice()};
  Hash cur = root;
  for (int level = num_levels_; level >= 0; --level) {
    // The bucket (level 0) ends every path: nothing lies below it to fetch
    // along, so it is a plain Get even for a point lookup.
    auto bytes = lookup_key != nullptr && level > 0
                     ? store_->GetOnPath(cur, at)
                     : store_->Get(cur);
    ++at.depth;
    if (!bytes.ok()) return bytes.status();
    if (stats) {
      ++stats->depth;
      ++stats->nodes_loaded;
      stats->bytes_loaded += (*bytes)->size();
    }
    path->emplace_back(cur, *bytes);
    if (level == 0) break;
    std::vector<Hash> children;
    Status s = DecodeMbtInternal(**bytes, &children);
    if (!s.ok()) return s;
    uint64_t div = 1;
    for (int i = 1; i < level; ++i) div *= options_.fanout;
    const uint64_t child_global = bucket / div;         // index at level-1
    const uint64_t node_global = child_global / options_.fanout;  // at level
    const uint64_t slot = child_global - node_global * options_.fanout;
    if (slot >= children.size()) {
      return Status::Corruption("MBT child slot out of range");
    }
    cur = children[slot];
  }
  return Status::OK();
}

Result<std::optional<std::string>> Mbt::Get(const Hash& root, Slice key,
                                            LookupStats* stats) const {
  const Hash r = root.IsZero() ? empty_root_ : root;
  const uint64_t bucket = BucketIndexOf(key);
  std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
  Status s = LoadPathTo(r, bucket, &path, stats, &key);
  if (!s.ok()) return s;
  std::vector<KV> entries;
  s = DecodeLeaf(*path.back().second, &entries);
  if (!s.ok()) return s;
  bool found = false;
  const size_t idx = LeafLowerBound(entries, key, &found);
  if (stats && !entries.empty()) {
    stats->entries_scanned += static_cast<uint64_t>(
        std::max<size_t>(1, static_cast<size_t>(std::log2(entries.size() + 1))));
  }
  if (!found) return std::optional<std::string>{};
  return std::optional<std::string>{entries[idx].value};
}

Result<std::optional<std::string>> Mbt::GetBreakdown(const Hash& root,
                                                     Slice key,
                                                     uint64_t* load_nanos,
                                                     uint64_t* scan_nanos) const {
  const Hash r = root.IsZero() ? empty_root_ : root;
  // "Load" is the tree traversal and node fetches; "scan" is everything
  // proportional to the bucket contents (materializing entries + binary
  // search) — the term that grows as N/B (§4.1.1, Figure 13).
  Timer load_timer;
  const uint64_t bucket = BucketIndexOf(key);
  std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
  Status s = LoadPathTo(r, bucket, &path, nullptr);
  if (!s.ok()) return s;
  *load_nanos = load_timer.ElapsedNanos();

  Timer scan_timer;
  std::vector<KV> entries;
  s = DecodeLeaf(*path.back().second, &entries);
  if (!s.ok()) return s;
  bool found = false;
  const size_t idx = LeafLowerBound(entries, key, &found);
  *scan_nanos = scan_timer.ElapsedNanos();
  if (!found) return std::optional<std::string>{};
  return std::optional<std::string>{entries[idx].value};
}

Result<Hash> Mbt::PutBatch(const Hash& root, std::vector<KV> kvs) {
  const Hash r = root.IsZero() ? empty_root_ : root;
  if (kvs.empty()) return r;

  // All new buckets and internal nodes of this batch are staged and
  // flushed in one PutMany after the new root is computed. Reads during
  // the rebuild (LoadPathTo) only touch nodes of the old version, which
  // are already resident in the backing store.
  StagingNodeStore staging(store_.get());

  // Group edits (upserts) by bucket.
  std::map<uint64_t, std::vector<KV>> by_bucket;
  for (KV& kv : kvs) {
    by_bucket[BucketIndexOf(kv.key)].push_back(std::move(kv));
  }

  std::map<uint64_t, Hash> changed;  // bucket index -> new digest
  for (auto& [bucket, edits] : by_bucket) {
    std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
    Status s = LoadPathTo(r, bucket, &path, nullptr);
    if (!s.ok()) return s;
    std::vector<KV> entries;
    s = DecodeLeaf(*path.back().second, &entries);
    if (!s.ok()) return s;

    // Later writes in the batch win; entries stay sorted.
    std::stable_sort(edits.begin(), edits.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
    std::vector<KV> merged;
    merged.reserve(entries.size() + edits.size());
    size_t i = 0;
    for (size_t j = 0; j < edits.size(); ++j) {
      if (j + 1 < edits.size() && edits[j + 1].key == edits[j].key) continue;
      while (i < entries.size() &&
             Slice(entries[i].key).compare(edits[j].key) < 0) {
        merged.push_back(std::move(entries[i++]));
      }
      if (i < entries.size() && entries[i].key == edits[j].key) ++i;
      merged.push_back(std::move(edits[j]));
    }
    while (i < entries.size()) merged.push_back(std::move(entries[i++]));

    const Hash new_bucket = staging.Put(EncodeLeaf(merged));
    if (new_bucket != path.back().first) changed[bucket] = new_bucket;
  }
  if (changed.empty()) {
    staging.FlushBatch();  // dup records only; keeps put accounting intact
    return r;
  }

  // Recompute the Merkle path bottom-up, level by level.
  std::map<uint64_t, Hash> level_changed = std::move(changed);
  Hash new_root = r;
  for (int level = 1; level <= num_levels_; ++level) {
    std::map<uint64_t, Hash> parent_changed;
    auto it = level_changed.begin();
    while (it != level_changed.end()) {
      const uint64_t parent = it->first / options_.fanout;
      // Fetch the old parent node by walking from the (old) root.
      uint64_t bucket_of_parent = parent;
      for (int i = 0; i < level; ++i) bucket_of_parent *= options_.fanout;
      bucket_of_parent = std::min<uint64_t>(bucket_of_parent,
                                            options_.num_buckets - 1);
      std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
      Status s = LoadPathTo(r, bucket_of_parent, &path, nullptr);
      if (!s.ok()) return s;
      // path[0]=root(level num_levels_) ... path[num_levels_-level] = parent.
      const auto& parent_node = path[num_levels_ - level];
      std::vector<Hash> children;
      s = DecodeMbtInternal(*parent_node.second, &children);
      if (!s.ok()) return s;
      // Apply every changed child that belongs to this parent.
      while (it != level_changed.end() &&
             it->first / options_.fanout == parent) {
        const uint64_t slot = it->first % options_.fanout;
        SIRI_CHECK(slot < children.size());
        children[slot] = it->second;
        ++it;
      }
      const Hash new_node = staging.Put(EncodeMbtInternal(children));
      if (new_node != parent_node.first) parent_changed[parent] = new_node;
      if (level == num_levels_) new_root = new_node;
    }
    level_changed = std::move(parent_changed);
    if (level_changed.empty()) {
      staging.FlushBatch();
      return r;  // everything collapsed to no-op
    }
  }
  staging.FlushBatch();
  return new_root;
}

Result<Hash> Mbt::DeleteBatch(const Hash& root, std::vector<std::string> keys) {
  const Hash r = root.IsZero() ? empty_root_ : root;
  if (keys.empty()) return r;

  StagingNodeStore staging(store_.get());

  std::map<uint64_t, std::vector<std::string>> by_bucket;
  for (std::string& k : keys) {
    by_bucket[BucketIndexOf(k)].push_back(std::move(k));
  }

  std::map<uint64_t, Hash> changed;
  for (auto& [bucket, dels] : by_bucket) {
    std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
    Status s = LoadPathTo(r, bucket, &path, nullptr);
    if (!s.ok()) return s;
    std::vector<KV> entries;
    s = DecodeLeaf(*path.back().second, &entries);
    if (!s.ok()) return s;
    std::sort(dels.begin(), dels.end());
    std::vector<KV> kept;
    kept.reserve(entries.size());
    for (KV& e : entries) {
      if (!std::binary_search(dels.begin(), dels.end(), e.key)) {
        kept.push_back(std::move(e));
      }
    }
    if (kept.size() == entries.size()) continue;  // nothing deleted
    changed[bucket] = staging.Put(EncodeLeaf(kept));
  }
  if (changed.empty()) return r;

  // Reuse the upward propagation from PutBatch by inlining the same logic.
  std::map<uint64_t, Hash> level_changed = std::move(changed);
  Hash new_root = r;
  for (int level = 1; level <= num_levels_; ++level) {
    std::map<uint64_t, Hash> parent_changed;
    auto it = level_changed.begin();
    while (it != level_changed.end()) {
      const uint64_t parent = it->first / options_.fanout;
      uint64_t bucket_of_parent = parent;
      for (int i = 0; i < level; ++i) bucket_of_parent *= options_.fanout;
      bucket_of_parent = std::min<uint64_t>(bucket_of_parent,
                                            options_.num_buckets - 1);
      std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
      Status s = LoadPathTo(r, bucket_of_parent, &path, nullptr);
      if (!s.ok()) return s;
      const auto& parent_node = path[num_levels_ - level];
      std::vector<Hash> children;
      s = DecodeMbtInternal(*parent_node.second, &children);
      if (!s.ok()) return s;
      while (it != level_changed.end() &&
             it->first / options_.fanout == parent) {
        const uint64_t slot = it->first % options_.fanout;
        SIRI_CHECK(slot < children.size());
        children[slot] = it->second;
        ++it;
      }
      const Hash new_node = staging.Put(EncodeMbtInternal(children));
      if (new_node != parent_node.first) parent_changed[parent] = new_node;
      if (level == num_levels_) new_root = new_node;
    }
    level_changed = std::move(parent_changed);
    if (level_changed.empty()) {
      staging.FlushBatch();
      return r;
    }
  }
  staging.FlushBatch();
  return new_root;
}

Result<Proof> Mbt::GetProof(const Hash& root, Slice key) const {
  const Hash r = root.IsZero() ? empty_root_ : root;
  Proof proof;
  proof.key = key.ToString();
  const uint64_t bucket = BucketIndexOf(key);
  std::vector<std::pair<Hash, std::shared_ptr<const std::string>>> path;
  Status s = LoadPathTo(r, bucket, &path, nullptr);
  if (!s.ok()) return s;
  for (const auto& [h, bytes] : path) proof.nodes.push_back(*bytes);
  // A server answers every kGetPath with this walk: search the bucket in
  // place rather than materializing its entries.
  std::vector<LeafView> entries;
  s = DecodeLeafViews(*path.back().second, &entries);
  if (!s.ok()) return s;
  bool found = false;
  const size_t idx = LeafLowerBoundViews(entries, key, &found);
  if (found) proof.value = entries[idx].value.ToString();
  return proof;
}

Status Mbt::CollectRec(const Hash& node, int level, PageSet* pages) const {
  if (!pages->insert(node).second) return Status::OK();
  if (level == 0) return Status::OK();
  auto bytes = store_->Get(node);
  if (!bytes.ok()) return bytes.status();
  std::vector<Hash> children;
  Status s = DecodeMbtInternal(**bytes, &children);
  if (!s.ok()) return s;
  for (const Hash& c : children) {
    s = CollectRec(c, level - 1, pages);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Mbt::CollectPages(const Hash& root, PageSet* pages) const {
  const Hash r = root.IsZero() ? empty_root_ : root;
  return CollectRec(r, num_levels_, pages);
}

Status Mbt::ScanRec(const Hash& node, int level,
                    const std::function<void(Slice, Slice)>& fn) const {
  auto bytes = store_->Get(node);
  if (!bytes.ok()) return bytes.status();
  if (level == 0) {
    std::vector<KV> entries;
    Status s = DecodeLeaf(**bytes, &entries);
    if (!s.ok()) return s;
    for (const KV& e : entries) fn(e.key, e.value);
    return Status::OK();
  }
  std::vector<Hash> children;
  Status s = DecodeMbtInternal(**bytes, &children);
  if (!s.ok()) return s;
  for (const Hash& c : children) {
    s = ScanRec(c, level - 1, fn);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Mbt::Scan(const Hash& root,
                 const std::function<void(Slice, Slice)>& fn) const {
  const Hash r = root.IsZero() ? empty_root_ : root;
  return ScanRec(r, num_levels_, fn);
}

Status Mbt::DiffRec(const Hash& a, const Hash& b, int level,
                    DiffResult* out) const {
  if (a == b) return Status::OK();  // shared subtree: skip without loading
  if (level == 0) {
    auto ba = store_->Get(a);
    if (!ba.ok()) return ba.status();
    auto bb = store_->Get(b);
    if (!bb.ok()) return bb.status();
    std::vector<KV> ea, eb;
    Status s = DecodeLeaf(**ba, &ea);
    if (!s.ok()) return s;
    s = DecodeLeaf(**bb, &eb);
    if (!s.ok()) return s;
    DiffSortedEntries(ea, eb, out);
    return Status::OK();
  }
  auto ba = store_->Get(a);
  if (!ba.ok()) return ba.status();
  auto bb = store_->Get(b);
  if (!bb.ok()) return bb.status();
  std::vector<Hash> ca, cb;
  Status s = DecodeMbtInternal(**ba, &ca);
  if (!s.ok()) return s;
  s = DecodeMbtInternal(**bb, &cb);
  if (!s.ok()) return s;
  if (ca.size() != cb.size()) {
    return Status::InvalidArgument(
        "MBT diff requires identical capacity/fanout");
  }
  for (size_t i = 0; i < ca.size(); ++i) {
    s = DiffRec(ca[i], cb[i], level - 1, out);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<DiffResult> Mbt::Diff(const Hash& a, const Hash& b) const {
  const Hash ra = a.IsZero() ? empty_root_ : a;
  const Hash rb = b.IsZero() ? empty_root_ : b;
  DiffResult out;
  Status s = DiffRec(ra, rb, num_levels_, &out);
  if (!s.ok()) return s;
  SortDiff(&out);
  return out;
}

std::unique_ptr<ImmutableIndex> Mbt::WithStore(NodeStorePtr store) const {
  return std::make_unique<Mbt>(std::move(store), options_);
}

}  // namespace siri
