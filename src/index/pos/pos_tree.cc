// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/pos/pos_tree.h"

#include <algorithm>

#include "index/ordered/tree_ops.h"
#include "store/staging_store.h"

namespace siri {

namespace {

/// A contiguous range replacement in the item sequence of one tree level:
/// old items with lo <= key < hi are dropped and `items` take their place.
/// Record upserts/deletes are splices over [key, key+'\0'); the chunks
/// emitted while rebuilding level L become one splice over level L+1's
/// item sequence.
struct Splice {
  std::string lo;
  std::optional<std::string> hi;  // exclusive; nullopt = to end of level
  std::vector<LevelItem> items;
};

/// Lexicographic successor used to make a single-key splice.
std::string KeySuccessor(const std::string& key) {
  std::string s = key;
  s.push_back('\0');
  return s;
}

/// \brief Per-update read memoizer. One batch's splice runs repeatedly
/// descend from the root, re-reading the same upper-level nodes; memoizing
/// them for the duration of one PutBatch turns O(runs · height) store
/// fetches into O(touched nodes) — this is what makes batched POS-Tree
/// writes competitive (§5.2's "batching techniques").
class MemoizingStore : public NodeStore {
 public:
  explicit MemoizingStore(NodeStore* base) : base_(base) {}

  [[nodiscard]] Hash Put(Slice bytes) override {
    const Hash h = base_->Put(bytes);
    // Freshly written nodes are often re-read by the next level's rebuild.
    auto it = memo_.find(h);
    if (it == memo_.end()) {
      memo_.emplace(h, std::make_shared<const std::string>(bytes.ToString()));
    }
    return h;
  }

  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override {
    auto it = memo_.find(h);
    if (it != memo_.end()) return it->second;
    auto bytes = base_->Get(h);
    if (!bytes.ok()) return bytes;
    memo_.emplace(h, *bytes);
    return bytes;
  }

  bool Contains(const Hash& h) const override {
    return memo_.count(h) > 0 || base_->Contains(h);
  }
  Result<uint64_t> SizeOf(const Hash& h) const override {
    return base_->SizeOf(h);
  }
  Stats stats() const override { return base_->stats(); }
  void ResetOpCounters() override { base_->ResetOpCounters(); }

 private:
  NodeStore* base_;
  std::unordered_map<Hash, std::shared_ptr<const std::string>, HashHasher>
      memo_;
};

/// \brief Accumulates level items, cutting nodes where the chunker fires.
class ChunkBuilder {
 public:
  ChunkBuilder(NodeStore* store, Chunker* chunker, bool leaf_level,
               uint64_t salt)
      : store_(store), chunker_(chunker), leaf_(leaf_level), salt_(salt) {}

  void Add(const LevelItem& item) {
    if (pending_ == 0) first_key_ = item.key;
    std::string item_bytes;
    const Hash* hash_ptr = nullptr;
    Hash child_hash;
    if (leaf_) {
      AppendLeafEntryBytes(&item_bytes, item.key, item.payload);
    } else {
      child_hash = item.PayloadHash();
      AppendChildEntryBytes(&item_bytes, item.key, child_hash);
      hash_ptr = &child_hash;
    }
    payload_.append(item_bytes);
    ++pending_;
    if (chunker_->Feed(item_bytes, hash_ptr)) Cut();
  }

  /// Forces a final boundary for a trailing partial chunk.
  void Flush() {
    if (pending_ > 0) Cut();
  }

  /// True when the last item added completed a chunk.
  bool AtBoundary() const { return pending_ == 0; }

  std::vector<LevelItem>& emitted() { return emitted_; }

 private:
  void Cut() {
    const std::string node =
        leaf_ ? EncodeLeafFromPayload(pending_, payload_, salt_)
              : EncodeInternalFromPayload(pending_, payload_, salt_);
    const Hash h = store_->Put(node);
    LevelItem out;
    out.key = std::move(first_key_);
    out.payload.assign(reinterpret_cast<const char*>(h.data()), Hash::kSize);
    emitted_.push_back(std::move(out));
    payload_.clear();
    pending_ = 0;
    first_key_.clear();
    chunker_->Reset();
  }

  NodeStore* store_;
  Chunker* chunker_;
  const bool leaf_;
  const uint64_t salt_;
  std::string payload_;
  std::string first_key_;
  size_t pending_ = 0;
  std::vector<LevelItem> emitted_;
};

/// Rebuilds the nodes of one level under a set of sorted, disjoint splices.
/// Only the chunks from the first edited chunk of each cluster to the point
/// where new boundaries re-synchronize with old ones are re-chunked; the
/// rest of the level is reused verbatim. Returns the splices describing the
/// resulting change to the parent level's item sequence.
/// \param force_local_boundaries non-SI ablation (§5.5.1): instead of
///        re-chunking until the new boundaries re-synchronize with the old
///        ones, force a cut at the first old chunk boundary past the edits.
///        Chunk boundaries are then inherited from history, which is what
///        makes the resulting structure insertion-order dependent.
Result<std::vector<Splice>> RebuildLevel(NodeStore* store, const Hash& root,
                                         int level, int height,
                                         bool leaf_level,
                                         const std::vector<Splice>& splices,
                                         Chunker* chunker, uint64_t salt,
                                         bool force_local_boundaries) {
  std::vector<Splice> out;
  LevelCursor cursor(store, root, level, height);

  // First key of the chunk a lookup for `key` reaches at this level.
  // Cached per splice: the sync check re-asks at every boundary until the
  // run closes.
  size_t probe_si = static_cast<size_t>(-1);
  std::string probe_key;
  auto chunk_key_containing = [&](size_t si,
                                  Slice key) -> Result<std::string> {
    if (probe_si == si) return probe_key;
    LevelCursor probe(store, root, level, height);
    Status s = probe.SeekToChunkStart(key);
    if (!s.ok()) return s;
    SIRI_CHECK(probe.Valid());
    probe_si = si;
    probe_key = probe.CurrentChunkFirstKey();
    return probe_key;
  };

  size_t si = 0;
  while (si < splices.size()) {
    Status s = cursor.SeekToChunkStart(splices[si].lo);
    if (!s.ok()) return s;
    SIRI_CHECK(cursor.Valid());

    Splice run;
    run.lo = cursor.CurrentChunkFirstKey();
    chunker->Reset();
    ChunkBuilder builder(store, chunker, leaf_level, salt);

    bool run_done = false;
    while (!run_done) {
      const bool have_old = cursor.Valid();

      // Enter the next splice once the cursor reaches (or passes) its lo.
      if (si < splices.size() &&
          (!have_old ||
           Slice(splices[si].lo).compare(cursor.item().key) <= 0)) {
        for (const LevelItem& item : splices[si].items) builder.Add(item);
        const auto& hi = splices[si].hi;
        while (cursor.Valid() &&
               (!hi || Slice(cursor.item().key).compare(*hi) < 0)) {
          s = cursor.Next();  // old item replaced by the splice
          if (!s.ok()) return s;
        }
        ++si;
        continue;
      }

      if (!have_old) {
        builder.Flush();
        run.hi = std::nullopt;  // reached the end of the level
        run_done = true;
        break;
      }

      builder.Add(cursor.item());
      s = cursor.Next();
      if (!s.ok()) return s;

      // Boundary re-synchronization: we just cut a chunk exactly where an
      // old chunk begins, and no pending splice touches the region before
      // the next edit — everything beyond is bitwise identical, reuse it.
      if (cursor.Valid() && cursor.AtChunkStart()) {
        bool want_close = false;
        if (si >= splices.size()) {
          want_close = true;
        } else if (Slice(splices[si].lo).compare(cursor.item().key) <= 0) {
          // The next splice is due at this exact position (its lo sits in
          // the gap before the cursor's item); the next iteration consumes
          // it, so the run must stay open.
        } else {
          auto probe = chunk_key_containing(si, splices[si].lo);
          if (!probe.ok()) return probe.status();
          // Close unless the next splice lives in the chunk we just
          // entered; then it is cheaper to keep the run open.
          want_close = *probe != cursor.CurrentChunkFirstKey();
        }
        if (want_close) {
          if (!builder.AtBoundary() && force_local_boundaries) {
            builder.Flush();  // forced split at the inherited boundary
          }
          if (builder.AtBoundary()) {
            run.hi = cursor.CurrentChunkFirstKey();
            run_done = true;
          }
        }
      }
    }
    run.items = std::move(builder.emitted());
    out.push_back(std::move(run));
  }
  return out;
}

/// Applies sorted, disjoint splices to a fully materialized item list (used
/// for the top level, whose items all live in the root node).
std::vector<LevelItem> ApplySplices(std::vector<LevelItem> items,
                                    const std::vector<Splice>& splices) {
  std::vector<LevelItem> out;
  out.reserve(items.size());
  size_t i = 0;
  for (const Splice& sp : splices) {
    while (i < items.size() && Slice(items[i].key).compare(sp.lo) < 0) {
      out.push_back(std::move(items[i++]));
    }
    for (const LevelItem& item : sp.items) out.push_back(item);
    while (i < items.size() &&
           (!sp.hi || Slice(items[i].key).compare(*sp.hi) < 0)) {
      ++i;  // dropped
    }
  }
  while (i < items.size()) out.push_back(std::move(items[i++]));
  return out;
}

}  // namespace

PosTree::PosTree(NodeStorePtr store, PosTreeOptions options)
    : ImmutableIndex(std::move(store)), options_(options) {}

std::unique_ptr<Chunker> PosTree::MakeLeafChunker() const {
  if (options_.disable_structurally_invariant) {
    // Effectively unmatchable pattern + hard size cap = fixed-size chunking,
    // which reintroduces the boundary-shifting problem (§5.5.1).
    return std::make_unique<ContentDefinedChunker>(options_.window_size, 48,
                                                   1024, 1);
  }
  return std::make_unique<ContentDefinedChunker>(
      options_.window_size, options_.leaf_pattern_bits,
      options_.max_chunk_bytes, 1);
}

std::unique_ptr<Chunker> PosTree::MakeInternalChunker() const {
  if (options_.prolly_internal) {
    // Prolly tree (Noms): internal layers re-hash the serialized entries
    // through the sliding window instead of reusing the child digests.
    return std::make_unique<ContentDefinedChunker>(
        options_.window_size, options_.internal_pattern_bits, 0, 2);
  }
  return std::make_unique<HashPatternChunker>(options_.internal_pattern_bits,
                                              2);
}

uint64_t PosTree::NodeSalt() const {
  return options_.disable_recursively_identical ? version_counter_ : 0;
}

Result<Hash> PosTree::BuildFromItems(NodeStore* store,
                                     std::vector<LevelItem> items,
                                     bool leaf_items) {
  if (items.empty()) return Hash::Zero();
  if (!leaf_items && items.size() == 1) {
    return items[0].PayloadHash();  // collapse: canonical root is the child
  }
  const uint64_t salt = NodeSalt();
  bool leaf = leaf_items;
  std::vector<LevelItem> current = std::move(items);
  while (true) {
    auto chunker = leaf ? MakeLeafChunker() : MakeInternalChunker();
    chunker->Reset();
    ChunkBuilder builder(store, chunker.get(), leaf, salt);
    for (const LevelItem& item : current) builder.Add(item);
    builder.Flush();
    std::vector<LevelItem>& chunks = builder.emitted();
    SIRI_CHECK(!chunks.empty());
    if (chunks.size() == 1) return chunks[0].PayloadHash();
    current = std::move(chunks);
    leaf = false;
  }
}

Result<Hash> PosTree::BuildFromSorted(const std::vector<KV>& entries) {
  std::vector<LevelItem> items;
  items.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && !(Slice(entries[i - 1].key) < Slice(entries[i].key))) {
      return Status::InvalidArgument("entries not sorted/unique");
    }
    items.push_back(LevelItem{entries[i].key, entries[i].value});
  }
  if (options_.disable_recursively_identical) ++version_counter_;
  StagingNodeStore staging(store_.get());
  auto built = BuildFromItems(&staging, std::move(items), /*leaf_items=*/true);
  if (built.ok()) staging.FlushBatch();
  return built;
}

Result<Hash> PosTree::FullRebuild(const Hash& root,
                                  const std::vector<Edit>& edits) {
  std::vector<KV> entries;
  Status s = Scan(root, [&entries](Slice k, Slice v) {
    entries.push_back(KV{k.ToString(), v.ToString()});
  });
  if (!s.ok()) return s;

  std::vector<LevelItem> items;
  items.reserve(entries.size() + edits.size());
  size_t i = 0;
  for (const Edit& e : edits) {
    while (i < entries.size() && Slice(entries[i].key).compare(e.key) < 0) {
      items.push_back(LevelItem{std::move(entries[i].key),
                                std::move(entries[i].value)});
      ++i;
    }
    if (i < entries.size() && entries[i].key == e.key) ++i;  // replaced
    if (e.value) items.push_back(LevelItem{e.key, *e.value});
  }
  for (; i < entries.size(); ++i) {
    items.push_back(
        LevelItem{std::move(entries[i].key), std::move(entries[i].value)});
  }
  StagingNodeStore staging(store_.get());
  auto built = BuildFromItems(&staging, std::move(items), /*leaf_items=*/true);
  if (built.ok()) staging.FlushBatch();
  return built;
}

Result<Hash> PosTree::ApplyEdits(const Hash& root, std::vector<Edit> edits) {
  if (edits.empty()) return root;

  // Sort and deduplicate, keeping the last write per key.
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

  if (options_.disable_recursively_identical) {
    ++version_counter_;
    return FullRebuild(root, unique);
  }

  // Every node this mutation produces is staged locally and flushed with
  // one PutMany once the new root is known (see staging_store.h).
  StagingNodeStore staging(store_.get());

  if (root.IsZero()) {
    std::vector<LevelItem> items;
    for (Edit& e : unique) {
      if (e.value) items.push_back(LevelItem{std::move(e.key), std::move(*e.value)});
    }
    auto built = BuildFromItems(&staging, std::move(items), /*leaf_items=*/true);
    if (built.ok()) staging.FlushBatch();
    return built;
  }

  auto height = LevelCursor::TreeHeight(store_.get(), root);
  if (!height.ok()) return height.status();
  const int h = *height;
  SIRI_CHECK(h >= 1);

  std::vector<Splice> splices;
  splices.reserve(unique.size());
  for (Edit& e : unique) {
    Splice sp;
    sp.lo = e.key;
    sp.hi = KeySuccessor(e.key);
    if (e.value) sp.items.push_back(LevelItem{std::move(e.key), std::move(*e.value)});
    splices.push_back(std::move(sp));
  }

  auto leaf_chunker = MakeLeafChunker();
  auto internal_chunker = MakeInternalChunker();
  const uint64_t salt = NodeSalt();

  MemoizingStore memo(&staging);
  for (int level = 0; level <= h - 2; ++level) {
    Chunker* ck = level == 0 ? leaf_chunker.get() : internal_chunker.get();
    const bool force_local =
        level == 0 && options_.disable_structurally_invariant;
    auto next = RebuildLevel(&memo, root, level, h, level == 0, splices, ck,
                             salt, force_local);
    if (!next.ok()) return next.status();
    splices = std::move(*next);
  }

  // Top level: the root node's own items, fully materialized.
  auto bytes = memo.Get(root);
  if (!bytes.ok()) return bytes.status();
  const bool top_is_leaf = IsLeafNode(**bytes);
  SIRI_CHECK(top_is_leaf == (h == 1));
  std::vector<LevelItem> items;
  if (top_is_leaf) {
    std::vector<KV> entries;
    Status s = DecodeLeaf(**bytes, &entries);
    if (!s.ok()) return s;
    for (KV& e : entries) {
      items.push_back(LevelItem{std::move(e.key), std::move(e.value)});
    }
  } else {
    std::vector<ChildEntry> children;
    Status s = DecodeInternal(**bytes, &children);
    if (!s.ok()) return s;
    for (ChildEntry& c : children) {
      LevelItem item;
      item.key = std::move(c.key);
      item.payload.assign(reinterpret_cast<const char*>(c.hash.data()),
                          Hash::kSize);
      items.push_back(std::move(item));
    }
  }
  items = ApplySplices(std::move(items), splices);
  auto built = BuildFromItems(&memo, std::move(items), top_is_leaf);
  if (built.ok()) staging.FlushBatch();
  return built;
}

Result<Hash> PosTree::PutBatch(const Hash& root, std::vector<KV> kvs) {
  std::vector<Edit> edits;
  edits.reserve(kvs.size());
  for (KV& kv : kvs) {
    edits.push_back(Edit{std::move(kv.key), std::move(kv.value)});
  }
  return ApplyEdits(root, std::move(edits));
}

Result<Hash> PosTree::DeleteBatch(const Hash& root,
                                  std::vector<std::string> keys) {
  std::vector<Edit> edits;
  edits.reserve(keys.size());
  for (std::string& k : keys) {
    edits.push_back(Edit{std::move(k), std::nullopt});
  }
  return ApplyEdits(root, std::move(edits));
}

Result<std::optional<std::string>> PosTree::Get(const Hash& root, Slice key,
                                                LookupStats* stats) const {
  return OrderedTreeGet(store_.get(), name(), root, key, stats);
}

Result<Proof> PosTree::GetProof(const Hash& root, Slice key) const {
  return OrderedTreeGetProof(store_.get(), root, key);
}

Status PosTree::CollectPages(const Hash& root, PageSet* pages) const {
  return OrderedTreeCollectPages(store_.get(), root, pages);
}

Status PosTree::Scan(const Hash& root,
                     const std::function<void(Slice, Slice)>& fn) const {
  return OrderedTreeScan(store_.get(), root, fn);
}

Status PosTree::RangeScan(const Hash& root, Slice lo, Slice hi,
                          const std::function<void(Slice, Slice)>& fn) const {
  return OrderedTreeRangeScan(store_.get(), root, lo, hi, fn);
}

Result<DiffResult> PosTree::Diff(const Hash& a, const Hash& b) const {
  return OrderedTreeDiff(store_.get(), a, b);
}

std::unique_ptr<ImmutableIndex> PosTree::WithStore(NodeStorePtr store) const {
  return std::make_unique<PosTree>(std::move(store), options_);
}

}  // namespace siri
