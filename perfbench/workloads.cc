// Copyright (c) 2026 The siri Authors. MIT license.
//
// The three workloads. Each drives the server only through socket clients
// (SocketTransport + ForkbaseClientStore), in a closed loop: every client
// thread waits for its reply before it sends the next request. Each checks
// every answer against what its generator says the read version holds.
//
//   eth-ledger     MPT, one committer appending one block per commit and
//                  three light-client readers on the newest blocks: solo
//                  publishes, one fsync per commit, large PutMany uploads.
//   wiki-collab    POS-Tree, four editors committing to their own branches
//                  and periodically diffing and merging into a contended
//                  `main`: group commit, server-side merges, CAS retries.
//   ycsb-cold-read MBT, four readers sharing one pipelined connection and a
//                  node cache much smaller than the data: cache misses,
//                  singleflight and the pipelined Get path, no writes.

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "index/mpt/mpt.h"
#include "index/pos/pos_tree.h"
#include "perfbench/bench.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"
#include "workload/zipfian.h"

namespace perfbench {

using siri::Hash;
using siri::KV;

namespace {

constexpr uint64_t kMiB = 1ull << 20;

uint64_t KvBytes(const std::vector<KV>& kvs) {
  uint64_t n = 0;
  for (const KV& kv : kvs) n += kv.key.size() + kv.value.size();
  return n;
}

double ElapsedMs(int64_t since_ns) { return (NowNanos() - since_ns) / 1e6; }
double ElapsedUs(int64_t since_ns) { return (NowNanos() - since_ns) / 1e3; }

/// One client index Get inside a read op span; returns the value or aborts
/// on an RPC error (reads of acked versions cannot legitimately fail).
std::optional<std::string> TracedGet(const ClientSpans& spans,
                                     siri::ImmutableIndex* index,
                                     const Hash& root, const std::string& key,
                                     Tally* t) {
  siri::LookupStats ls;
  siri::Result<std::optional<std::string>> got = std::optional<std::string>();
  {
    SpanScope span(spans.tracer, spans.index_get);
    got = index->Get(root, key, &ls);
  }
  if (!got.ok()) Abort("read of '" + key + "': " + got.status().ToString());
  ++t->lookups;
  t->lookup_nodes += ls.nodes_loaded;
  t->lookup_bytes += ls.bytes_loaded;
  return *got;
}

void ExpectRead(const std::optional<std::string>& got,
                const std::string& want, const std::string& key) {
  if (!got.has_value() || *got != want) {
    Abort("wrong read of '" + key + "': got " +
          (got ? std::to_string(got->size()) + " bytes" : "nothing") +
          ", want " + std::to_string(want.size()) + " bytes");
  }
}

/// Runs \p body(thread) on \p n threads and returns the wall seconds until
/// the last one returned.
template <typename Fn>
double RunThreads(int n, Fn body) {
  const int64_t start = NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (auto& th : threads) th.join();
  return (NowNanos() - start) / 1e9;
}

Hash ServerHeadRoot(Deployment* dep, const std::string& branch) {
  auto head = dep->servlet()->branches()->Head(branch);
  if (!head.ok()) Abort("head of " + branch + ": " + head.status().ToString());
  auto root = RootOf(dep->store(), *head);
  if (!root.ok()) Abort("root of " + branch + ": " + root.status().ToString());
  return *root;
}

void ExpectServerValue(siri::ImmutableIndex* index, const Hash& root,
                       const std::string& key, const std::string& want,
                       const std::string& where) {
  auto got = index->Get(root, key, nullptr);
  if (!got.ok() || !got->has_value() || **got != want) {
    Abort("lost update on " + where + ": key '" + key + "'");
  }
}

// ---------------------------------------------------------------------------
// eth-ledger

class EthLedger : public Workload {
 public:
  std::string structure() const override { return "mpt"; }

  void Generate(uint64_t seed, bool tiny) override {
    data_ = std::make_unique<siri::EthDataset>(seed);
    seed_ = seed;
    preload_blocks_ = tiny ? 16 : 120;
    blocks_per_preload_commit_ = tiny ? 4 : 20;
    txs_ = tiny ? 40 : 200;
    hot_ = tiny ? 8 : 64;
  }

  int64_t Setup(Deployment* dep) override {
    spans_ = std::make_unique<ClientSpans>(dep->tracer());
    committer_ = dep->Connect(kCacheBytes);
    committer_index_ = std::make_unique<siri::Mpt>(committer_.store);
    readers_.clear();
    for (int r = 0; r < kReaders; ++r) {
      Reader reader;
      reader.client = dep->Connect(kCacheBytes);
      reader.index = std::make_unique<siri::Mpt>(reader.client.store);
      readers_.push_back(std::move(reader));
    }
    versions_.clear();
    preload_bytes_ = 0;
    {
      siri::MutexLock lock(ring_mu_);
      ring_.clear();
    }

    int64_t gen_ns = 0;
    root_ = committer_index_->EmptyRoot();
    head_.reset();
    for (uint64_t b = 0; b < preload_blocks_; b += blocks_per_preload_commit_) {
      const int64_t g = NowNanos();
      std::vector<KV> kvs;
      for (uint64_t i = b; i < b + blocks_per_preload_commit_; ++i) {
        auto block = Block(i);
        if (i + hot_ >= preload_blocks_) {
          siri::MutexLock lock(ring_mu_);
          ring_[i] = block;
        }
        kvs.insert(kvs.end(), block->begin(), block->end());
      }
      gen_ns += NowNanos() - g;
      preload_bytes_ += KvBytes(kvs);
      auto root = committer_index_->PutBatch(root_, std::move(kvs));
      siri::Status s = root.ok() ? Publish(*root) : root.status();
      if (!s.ok()) Abort("preload: " + s.ToString());
    }
    next_block_ = preload_blocks_;
    acked_.store(preload_blocks_);

    // Warm each light client on the hot set, as a synced light client is.
    RunThreads(kReaders, [&](int r) {
      Reader& reader = readers_[r];
      auto root = RootOf(reader.client.store.get(), *head_);
      if (!root.ok()) Abort("warm: " + root.status().ToString());
      for (uint64_t b = preload_blocks_ - hot_; b < preload_blocks_; ++b) {
        const BlockPtr block = RingBlock(b);
        for (const KV& kv : *block) {
          auto got = reader.index->Get(*root, kv.key, nullptr);
          if (!got.ok()) Abort("warm: " + got.status().ToString());
          ExpectRead(*got, kv.value, kv.key);
        }
      }
    });
    return gen_ns;
  }

  double Run(double seconds, Tally* total) override {
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    std::vector<Tally> tallies(1 + kReaders);
    const double elapsed = RunThreads(1 + kReaders, [&](int t) {
      if (t == 0) {
        CommitLoop(deadline, &tallies[0]);
      } else {
        ReadLoop(t - 1, deadline, &tallies[t]);
      }
    });
    for (const Tally& t : tallies) total->Merge(t);
    return elapsed;
  }

  void Verify(Deployment* dep) override {
    siri::ImmutableIndex* index = dep->index("mpt");
    const Hash root = ServerHeadRoot(dep, kBranch);
    if (root != root_) Abort("chain head is not the last acked block");
    for (uint64_t b = 0; b < next_block_; ++b) {
      const BlockPtr block = Block(b);
      for (const KV& kv : *block) {
        ExpectServerValue(index, root, kv.key, kv.value,
                          "chain block " + std::to_string(b));
      }
    }
  }

  std::vector<Hash> Versions() const override { return versions_; }
  uint64_t preload_user_bytes() const override { return preload_bytes_; }
  uint64_t store_probe_bytes() const override { return 8 * kMiB; }

  std::string Regime() const override {
    return "structure=mpt preload_blocks=" + std::to_string(preload_blocks_) +
           " txs_per_block=" + std::to_string(txs_) +
           " user_bytes=" + std::to_string(preload_bytes_) +
           " cache_bytes=" + std::to_string(kCacheBytes) +
           "/client threads=1_committer+3_readers connections=4";
  }

  std::vector<Client> Clients() const override {
    std::vector<Client> out = {committer_};
    for (const Reader& r : readers_) out.push_back(r.client);
    return out;
  }

  void Teardown() override {
    readers_.clear();
    committer_index_.reset();
    committer_ = Client{};
  }

 private:
  static constexpr int kReaders = 3;
  static constexpr uint64_t kCacheBytes = 16 * kMiB;
  static constexpr int kHeadRefreshEvery = 32;
  // Newest blocks whose records the readers can check against.
  static constexpr uint64_t kRingBlocks = 256;
  static constexpr const char* kBranch = "chain";

  using BlockPtr = std::shared_ptr<const std::vector<KV>>;

  struct Reader {
    Client client;
    std::unique_ptr<siri::ImmutableIndex> index;
  };

  BlockPtr RingBlock(uint64_t number) {
    siri::MutexLock lock(ring_mu_);
    auto it = ring_.find(number);
    return it == ring_.end() ? nullptr : it->second;
  }

  BlockPtr Block(uint64_t number) const {
    return std::make_shared<const std::vector<KV>>(
        data_->BlockRecords(number, txs_));
  }

  siri::Status Publish(const Hash& root) {
    siri::net::PublishRequest pub;
    pub.structure = "mpt";
    pub.branch = kBranch;
    pub.new_root = root;
    pub.author = "miner";
    pub.message = "block";
    pub.expected_head = head_;
    auto landed = committer_.transport->Publish(pub);
    if (!landed.ok()) return landed.status();
    head_ = landed->head;
    root_ = root;
    versions_.push_back(root);
    return siri::Status::OK();
  }

  void CommitLoop(int64_t deadline, Tally* t) {
    while (NowNanos() < deadline) {
      const uint64_t n = next_block_;
      BlockPtr block = Block(n);
      ++t->attempted;
      SpanScope op(spans_->tracer, spans_->op_commit, /*new_request=*/true);
      const int64_t start = NowNanos();
      auto head = committer_.transport->Head(kBranch);
      if (!head.ok()) {
        ++t->failed;
        continue;
      }
      if (*head != *head_) Abort("chain head moved under its only committer");
      siri::Result<Hash> root = siri::Status::OK();
      {
        SpanScope span(spans_->tracer, spans_->index_put_batch);
        root = committer_index_->PutBatch(root_, *block);
      }
      if (!root.ok()) {
        ++t->failed;
        continue;
      }
      if (Publish(*root).ok()) {
        t->commit_ms.Add(ElapsedMs(start));
        ++t->publishes;
        t->user_bytes += KvBytes(*block);
        acked_user_bytes += KvBytes(*block);
      } else {
        // This client cannot tell whether the block landed; the head can,
        // since no one else writes the chain. If it did not, retry it.
        ++t->failed;
        auto now = committer_.transport->Head(kBranch);
        if (!now.ok() || *now == *head_) continue;
        head_ = *now;
        root_ = *root;
        versions_.push_back(*root);
      }
      {
        siri::MutexLock lock(ring_mu_);
        ring_[n] = block;
        if (n >= kRingBlocks) ring_.erase(n - kRingBlocks);
      }
      next_block_ = n + 1;
      acked_.store(n + 1, std::memory_order_release);
    }
  }

  void ReadLoop(int r, int64_t deadline, Tally* t) {
    Reader& reader = readers_[r];
    siri::Rng rng(seed_ * 31 + 17 + r);
    Hash root;
    uint64_t known = 0;
    int until_refresh = 0;
    while (NowNanos() < deadline) {
      if (until_refresh-- == 0) {
        // The acked count is read before the head, so the head holds at
        // least `known` blocks.
        until_refresh = kHeadRefreshEvery;
        known = acked_.load(std::memory_order_acquire);
        ++t->attempted;
        auto head = reader.client.transport->Head(kBranch);
        auto head_root =
            head.ok() ? RootOf(reader.client.store.get(), *head) : head.status();
        if (!head_root.ok()) {
          ++t->failed;
          until_refresh = 0;
          continue;
        }
        root = *head_root;
      }
      const uint64_t b = known - 1 - rng.Uniform(hot_);
      BlockPtr block = RingBlock(b);
      if (block == nullptr) {  // the chain ran far ahead: refresh the head
        until_refresh = 0;
        continue;
      }
      const KV& kv = (*block)[rng.Uniform(block->size())];
      ++t->attempted;
      SpanScope op(spans_->tracer, spans_->op_read, /*new_request=*/true);
      const int64_t start = NowNanos();
      auto got = TracedGet(*spans_, reader.index.get(), root, kv.key, t);
      t->read_us.Add(ElapsedUs(start));
      ExpectRead(got, kv.value, kv.key);
    }
  }

  std::unique_ptr<siri::EthDataset> data_;
  uint64_t seed_ = 0;
  uint64_t preload_blocks_ = 0, blocks_per_preload_commit_ = 0, txs_ = 0,
           hot_ = 0;

  std::unique_ptr<ClientSpans> spans_;
  Client committer_;
  std::unique_ptr<siri::ImmutableIndex> committer_index_;
  std::vector<Reader> readers_;
  // Committer-owned: the acked chain state.
  Hash root_;
  std::optional<Hash> head_;
  uint64_t next_block_ = 0;
  std::vector<Hash> versions_;
  uint64_t preload_bytes_ = 0;
  // Shared with the readers: blocks acked so far, and the newest blocks'
  // records (the generator's expected answers).
  std::atomic<uint64_t> acked_{0};
  siri::Mutex ring_mu_;
  std::map<uint64_t, BlockPtr> ring_ GUARDED_BY(ring_mu_);
};

// ---------------------------------------------------------------------------
// wiki-collab

class WikiCollab : public Workload {
 public:
  std::string structure() const override { return "pos"; }

  void Generate(uint64_t seed, bool tiny) override {
    seed_ = seed;
    pages_ = tiny ? 2000 : 50000;
    shared_ = pages_ / 10;
    // One fixed corpus, as a wiki has; the seed drives the edit stream. A
    // POS-Tree's top levels are content-defined, so each corpus seed gives
    // a different root fan-out, and with it a different cost per lookup.
    data_ = std::make_unique<siri::WikiDataset>(pages_, kCorpusSeed);
    initial_ = data_->InitialRecords();
    page_of_.clear();
    for (uint64_t p = 0; p < pages_; ++p) page_of_[initial_[p].key] = p;
  }

  int64_t Setup(Deployment* dep) override {
    spans_ = std::make_unique<ClientSpans>(dep->tracer());
    editors_.clear();
    editors_.resize(kEditors);
    for (int e = 0; e < kEditors; ++e) {
      editors_[e].client = dep->Connect(kCacheBytes);
      editors_[e].index = std::make_unique<siri::PosTree>(editors_[e].client.store);
    }
    main_versions_.clear();

    // Preload `main` in a few commits through the first editor's client.
    Editor& loader = editors_[0];
    Hash root = loader.index->EmptyRoot();
    std::optional<Hash> head;
    const size_t chunk = initial_.size() / kPreloadCommits;
    for (size_t i = 0; i < initial_.size(); i += chunk) {
      std::vector<KV> kvs(initial_.begin() + i,
                          initial_.begin() + std::min(initial_.size(), i + chunk));
      auto next = loader.index->PutBatch(root, std::move(kvs));
      if (!next.ok()) Abort("preload: " + next.status().ToString());
      auto landed = PublishOn(&loader, kMain, *next, head);
      if (!landed.ok()) Abort("preload: " + landed.status().ToString());
      root = *next;
      head = landed->head;
      main_versions_.push_back(root);
    }
    preload_bytes_ = KvBytes(initial_);

    for (int e = 0; e < kEditors; ++e) {
      Editor& ed = editors_[e];
      auto landed = PublishOn(&ed, BranchOf(e), root, std::nullopt);
      if (!landed.ok()) Abort("branch: " + landed.status().ToString());
      ed.head = landed->head;
      ed.root = ed.last_sync = root;
    }
    // Warm every editor's cache with the whole wiki (it fits), in parallel.
    RunThreads(kEditors, [&](int e) {
      Editor& ed = editors_[e];
      siri::Status s = ed.index->Scan(ed.root, [](siri::Slice, siri::Slice) {});
      if (!s.ok()) Abort("warm: " + s.ToString());
    });
    return 0;
  }

  double Run(double seconds, Tally* total) override {
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    std::vector<Tally> tallies(kEditors);
    const double elapsed = RunThreads(
        kEditors, [&](int e) { EditLoop(e, deadline, &tallies[e]); });
    for (const Tally& t : tallies) total->Merge(t);
    return elapsed;
  }

  void Verify(Deployment* dep) override {
    siri::ImmutableIndex* index = dep->index("pos");
    const Hash main_root = ServerHeadRoot(dep, kMain);
    for (int e = 0; e < kEditors; ++e) {
      const Editor& ed = editors_[e];
      const Hash root = ServerHeadRoot(dep, BranchOf(e));
      if (root != ed.root) Abort(BranchOf(e) + " head is not its last ack");
      for (const auto& [page, version] : ed.private_version) {
        ExpectServerValue(index, root, data_->KeyOf(page),
                          data_->ValueOf(page, version), BranchOf(e));
      }
      for (uint64_t page : ed.shared_self) {
        ExpectServerValue(index, root, data_->KeyOf(page),
                          data_->ValueOf(page, 1), BranchOf(e));
      }
      for (const auto& [page, version] : ed.merged_private) {
        ExpectServerValue(index, main_root, data_->KeyOf(page),
                          data_->ValueOf(page, version), kMain);
      }
      for (uint64_t page : ed.merged_shared) {
        ExpectServerValue(index, main_root, data_->KeyOf(page),
                          data_->ValueOf(page, 1), kMain);
      }
    }
  }

  std::vector<Hash> Versions() const override { return main_versions_; }
  uint64_t preload_user_bytes() const override { return preload_bytes_; }
  uint64_t store_probe_bytes() const override { return 3 * kMiB; }
  std::string Regime() const override {
    return "structure=pos pages=" + std::to_string(pages_) +
           " user_bytes=" + std::to_string(preload_bytes_) +
           " cache_bytes=" + std::to_string(kCacheBytes) +
           "/client threads=4_editors connections=4";
  }

  std::vector<Client> Clients() const override {
    std::vector<Client> out;
    for (const Editor& ed : editors_) out.push_back(ed.client);
    return out;
  }

  void Teardown() override { editors_.clear(); }

 private:
  static constexpr int kEditors = 4;
  static constexpr uint64_t kCorpusSeed = 7;
  static constexpr uint64_t kCacheBytes = 32 * kMiB;
  static constexpr int kPreloadCommits = 5;
  static constexpr int kSharedEdits = 10;   // per commit, §5.4.2 overlap
  static constexpr int kPrivateEdits = 10;  // per commit
  static constexpr int kSyncEvery = 8;      // commits between merges
  static constexpr const char* kMain = "main";

  struct Editor {
    Client client;
    std::unique_ptr<siri::ImmutableIndex> index;
    Hash head, root, last_sync;
    // The generator's model of this editor's branch: the version of every
    // private page it wrote (absent = the initial version 0) and the shared
    // pages it wrote (always version 1, identical bytes for every editor).
    std::unordered_map<uint64_t, uint64_t> private_version;
    std::unordered_set<uint64_t> shared_self;
    // The same, as of this editor's last merge into `main`.
    std::unordered_map<uint64_t, uint64_t> merged_private;
    std::unordered_set<uint64_t> merged_shared;
  };

  static std::string BranchOf(int e) { return "editor-" + std::to_string(e); }

  siri::Result<siri::net::PublishResult> PublishOn(
      Editor* ed, const std::string& branch, const Hash& root,
      const std::optional<Hash>& expected) {
    siri::net::PublishRequest pub;
    pub.structure = "pos";
    pub.branch = branch;
    pub.new_root = root;
    pub.author = "editor";
    pub.message = "edit";
    pub.expected_head = expected;
    return ed->client.transport->Publish(pub);
  }

  bool IsPrivateOf(uint64_t page, int e) const {
    return page >= shared_ && (page - shared_) % kEditors == static_cast<uint64_t>(e);
  }

  void EditLoop(int e, int64_t deadline, Tally* t) {
    Editor& ed = editors_[e];
    siri::Rng rng(seed_ * 131 + 7 + e);
    const uint64_t private_pages = (pages_ - shared_ - e + kEditors - 1) / kEditors;
    for (uint64_t k = 0; NowNanos() < deadline; ++k) {
      // The batch: shared pages at their one overlay version, private
      // pages at this commit's own version.
      std::vector<std::pair<uint64_t, uint64_t>> edits;
      for (int i = 0; i < kSharedEdits; ++i) {
        edits.emplace_back(rng.Uniform(shared_), 1);
      }
      for (int i = 0; i < kPrivateEdits; ++i) {
        edits.emplace_back(shared_ + e + kEditors * rng.Uniform(private_pages),
                           2 + k * kEditors + e);
      }

      // Open every page before editing it (read at the branch's last ack).
      std::vector<KV> kvs;
      uint64_t bytes = 0;
      for (const auto& [page, version] : edits) {
        const std::string key = data_->KeyOf(page);
        ++t->attempted;
        std::optional<std::string> got;
        {
          SpanScope op(spans_->tracer, spans_->op_read, /*new_request=*/true);
          const int64_t start = NowNanos();
          got = TracedGet(*spans_, ed.index.get(), ed.root, key, t);
          t->read_us.Add(ElapsedUs(start));
        }
        CheckPage(ed, page, got, key);
        kvs.push_back(KV{key, data_->ValueOf(page, version)});
        bytes += kvs.back().key.size() + kvs.back().value.size();
      }

      ++t->attempted;
      if (Commit(&ed, std::move(kvs), t)) {
        t->user_bytes += bytes;
        acked_user_bytes += bytes;
        for (const auto& [page, version] : edits) {
          if (version == 1) {
            ed.shared_self.insert(page);
          } else {
            ed.private_version[page] = version;
          }
        }
      }
      if ((k + 1) % kSyncEvery == 0) Sync(e, t);
    }
  }

  void CheckPage(const Editor& ed, uint64_t page,
                 const std::optional<std::string>& got,
                 const std::string& key) const {
    if (page < shared_) {
      // Another editor's merge may or may not have brought the overlay
      // version in yet; this editor's own write must be visible.
      if (!ed.shared_self.count(page) && got.has_value() &&
          *got == data_->ValueOf(page, 0)) {
        return;
      }
      ExpectRead(got, data_->ValueOf(page, 1), key);
      return;
    }
    auto it = ed.private_version.find(page);
    ExpectRead(got, data_->ValueOf(page, it == ed.private_version.end() ? 0 : it->second),
               key);
  }

  // One commit: Head, build on the acked root, PutMany, Publish ack.
  // Returns whether the commit landed; any error counts as a failed op.
  bool Commit(Editor* ed, std::vector<KV> kvs, Tally* t) {
    SpanScope op(spans_->tracer, spans_->op_commit, /*new_request=*/true);
    const int64_t start = NowNanos();
    const std::string branch = BranchOf(static_cast<int>(ed - editors_.data()));
    auto head = ed->client.transport->Head(branch);
    if (!head.ok()) {
      ++t->failed;
      return false;
    }
    if (*head != ed->head) Abort(branch + " moved under its only writer");
    siri::Result<Hash> root = siri::Status::OK();
    {
      SpanScope span(spans_->tracer, spans_->index_put_batch);
      root = ed->index->PutBatch(ed->root, std::move(kvs));
    }
    if (!root.ok()) {
      ++t->failed;
      return false;
    }
    auto landed = PublishOn(ed, branch, *root, ed->head);
    if (landed.ok()) {
      t->commit_ms.Add(ElapsedMs(start));
      ++t->publishes;
      ed->head = landed->head;
      ed->root = *root;
      return true;
    }
    // Unknown outcome: the branch head tells, as the editor is its only
    // writer.
    ++t->failed;
    auto now = ed->client.transport->Head(branch);
    if (!now.ok() || *now == ed->head) return false;
    ed->head = *now;
    ed->root = *root;
    return true;
  }

  // Comparison, merge, and fast-forward of the editor's branch onto the
  // merged `main`.
  void Sync(int e, Tally* t) {
    Editor& ed = editors_[e];
    ++t->attempted;
    auto main_head = ed.client.transport->Head(kMain);
    auto theirs = main_head.ok() ? RootOf(ed.client.store.get(), *main_head)
                                 : main_head.status();
    if (!theirs.ok()) {
      ++t->failed;
      return;
    }

    ++t->attempted;
    {
      SpanScope op(spans_->tracer, spans_->op_diff, /*new_request=*/true);
      const int64_t start = NowNanos();
      siri::Result<siri::DiffResult> diff = siri::DiffResult{};
      {
        SpanScope span(spans_->tracer, spans_->index_diff);
        diff = ed.index->Diff(ed.last_sync, *theirs);
      }
      if (!diff.ok()) {
        ++t->failed;
        return;
      }
      t->diff_ms.Add(ElapsedMs(start));
      // Nobody else writes this editor's private pages.
      for (const siri::DiffEntry& d : *diff) {
        auto it = page_of_.find(d.key);
        if (it == page_of_.end() || IsPrivateOf(it->second, e)) {
          Abort("main changed a page only editor " + std::to_string(e) +
                " writes: '" + d.key + "'");
        }
      }
    }

    ++t->attempted;
    siri::Result<siri::net::PublishResult> landed = siri::Status::OK();
    {
      SpanScope op(spans_->tracer, spans_->op_merge, /*new_request=*/true);
      const int64_t start = NowNanos();
      siri::Result<Hash> merged = siri::Status::OK();
      {
        SpanScope span(spans_->tracer, spans_->index_merge3);
        merged = ed.index->Merge3(ed.root, *theirs, ed.last_sync);
      }
      if (!merged.ok()) {
        ++t->failed;  // a conflict: the overlap must never produce one
        return;
      }
      landed = PublishOn(&ed, kMain, *merged, *main_head);
      if (!landed.ok()) {
        ++t->failed;
        return;
      }
      t->merge_ms.Add(ElapsedMs(start));
      ++t->publishes;
    }

    ++t->attempted;
    SpanScope op(spans_->tracer, spans_->op_sync, /*new_request=*/true);
    auto synced = RootOf(ed.client.store.get(), landed->head);
    if (!synced.ok()) {
      ++t->failed;
      return;
    }
    auto forward = PublishOn(&ed, BranchOf(e), *synced, ed.head);
    if (!forward.ok()) {
      ++t->failed;
      return;
    }
    ++t->publishes;
    ed.head = forward->head;
    ed.root = ed.last_sync = *synced;
    ed.merged_private = ed.private_version;
    ed.merged_shared = ed.shared_self;
    siri::MutexLock lock(versions_mu_);
    main_versions_.push_back(*synced);
  }

  uint64_t seed_ = 0;
  uint64_t pages_ = 0, shared_ = 0;
  std::unique_ptr<siri::WikiDataset> data_;
  std::vector<KV> initial_;
  std::unordered_map<std::string, uint64_t> page_of_;

  std::unique_ptr<ClientSpans> spans_;
  std::vector<Editor> editors_;
  uint64_t preload_bytes_ = 0;
  siri::Mutex versions_mu_;
  std::vector<Hash> main_versions_ GUARDED_BY(versions_mu_);
};

// ---------------------------------------------------------------------------
// ycsb-cold-read

class YcsbColdRead : public Workload {
 public:
  std::string structure() const override { return "mbt"; }

  void Generate(uint64_t seed, bool tiny) override {
    seed_ = seed;
    siri::YcsbGenerator gen(seed);
    records_ = gen.GenerateRecords(tiny ? 4000 : kRecords);
    // KeyOf folds the record index into the key's tail without a
    // separator, so two records can share a key; keep the first.
    std::unordered_set<std::string> seen;
    records_.erase(std::remove_if(records_.begin(), records_.end(),
                                  [&](const KV& kv) {
                                    return !seen.insert(kv.key).second;
                                  }),
                   records_.end());
    cache_bytes_ = tiny ? 64 * 1024 : kCacheBytes;
    warm_reads_ = tiny ? 500 : kWarmReadsPerThread;
    // After the bulk load, a few small update commits: the versions the
    // dedup ratio compares, and the pinned version the readers read.
    siri::Rng rng(seed * 3 + 1);
    updates_.assign(kUpdateCommits, {});
    latest_.clear();
    for (int u = 0; u < kUpdateCommits; ++u) {
      for (size_t k = 0; k < records_.size() / 100; ++k) {
        const uint64_t i = rng.Uniform(records_.size());
        updates_[u].push_back(KV{records_[i].key, gen.ValueOf(i, 1 + u)});
        latest_[i] = updates_[u].back().value;
      }
    }
  }

  int64_t Setup(Deployment* dep) override {
    spans_ = std::make_unique<ClientSpans>(dep->tracer());
    client_ = dep->Connect(cache_bytes_);
    index_ = std::make_unique<siri::Mbt>(client_.store, ServerMbtOptions());
    versions_.clear();

    Hash root = index_->EmptyRoot();
    std::optional<Hash> head;
    for (int c = -1; c < kUpdateCommits; ++c) {
      auto next = index_->PutBatch(root, c < 0 ? records_ : updates_[c]);
      if (!next.ok()) Abort("preload: " + next.status().ToString());
      siri::net::PublishRequest pub;
      pub.structure = "mbt";
      pub.branch = "ycsb";
      pub.new_root = *next;
      pub.author = "loader";
      pub.message = "load";
      pub.expected_head = head;
      auto landed = client_.transport->Publish(pub);
      if (!landed.ok()) Abort("preload: " + landed.status().ToString());
      root = *next;
      head = landed->head;
      versions_.push_back(root);
    }
    pinned_ = root;

    // Warm the shared cache with the same skewed stream the readers use.
    RunThreads(kThreads, [&](int th) {
      siri::ZipfianGenerator zipf(records_.size(), kTheta, seed_ * 7 + 100 + th);
      Tally local;
      for (uint64_t i = 0; i < warm_reads_; ++i) ReadOne(zipf.Next(), &local);
    });
    return 0;
  }

  double Run(double seconds, Tally* total) override {
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    std::vector<Tally> tallies(kThreads);
    const double elapsed = RunThreads(kThreads, [&](int th) {
      siri::ZipfianGenerator zipf(records_.size(), kTheta, seed_ * 7 + th);
      Tally* t = &tallies[th];
      while (NowNanos() < deadline) {
        ++t->attempted;
        SpanScope op(spans_->tracer, spans_->op_read, /*new_request=*/true);
        const int64_t start = NowNanos();
        ReadOne(zipf.Next(), t);
        t->read_us.Add(ElapsedUs(start));
      }
    });
    for (const Tally& t : tallies) total->Merge(t);
    return elapsed;
  }

  void Verify(Deployment* dep) override {
    siri::ImmutableIndex* index = dep->index("mbt");
    const Hash root = ServerHeadRoot(dep, "ycsb");
    if (root != pinned_) Abort("ycsb head is not the pinned version");
    for (uint64_t i = 0; i < records_.size(); ++i) {
      ExpectServerValue(index, root, records_[i].key, Expected(i), "ycsb");
    }
  }

  std::vector<Hash> Versions() const override { return versions_; }
  uint64_t store_probe_bytes() const override { return 0; }
  uint64_t preload_user_bytes() const override {
    uint64_t n = KvBytes(records_);
    for (const auto& u : updates_) n += KvBytes(u);
    return n;
  }

  std::string Regime() const override {
    return "structure=mbt records=" + std::to_string(records_.size()) +
           " user_bytes=" + std::to_string(preload_user_bytes()) +
           " cache_bytes=" + std::to_string(cache_bytes_) +
           " shared threads=4_readers connections=1 zipf_theta=0.9";
  }

  std::vector<Client> Clients() const override { return {client_}; }

  void Teardown() override {
    index_.reset();
    client_ = Client{};
  }

 private:
  static constexpr int kThreads = 4;
  static constexpr uint64_t kRecords = 100000;
  static constexpr uint64_t kCacheBytes = 2 * kMiB;
  static constexpr uint64_t kWarmReadsPerThread = 5000;
  static constexpr int kUpdateCommits = 4;  // of 1% of the records each
  static constexpr double kTheta = 0.9;

  const std::string& Expected(uint64_t i) const {
    auto it = latest_.find(i);
    return it == latest_.end() ? records_[i].value : it->second;
  }

  void ReadOne(uint64_t i, Tally* t) {
    const std::string& key = records_[i].key;
    ExpectRead(TracedGet(*spans_, index_.get(), pinned_, key, t), Expected(i),
               key);
  }

  uint64_t seed_ = 0;
  std::vector<KV> records_;  // the bulk load (version 0 of every record)
  std::vector<std::vector<KV>> updates_;
  std::unordered_map<uint64_t, std::string> latest_;  // updated records
  uint64_t cache_bytes_ = 0;
  uint64_t warm_reads_ = 0;

  std::unique_ptr<ClientSpans> spans_;
  Client client_;
  std::unique_ptr<siri::ImmutableIndex> index_;
  Hash pinned_;
  std::vector<Hash> versions_;
};

}  // namespace

std::unique_ptr<Workload> MakeEthLedger() {
  return std::make_unique<EthLedger>();
}
std::unique_ptr<Workload> MakeWikiCollab() {
  return std::make_unique<WikiCollab>();
}
std::unique_ptr<Workload> MakeYcsbColdRead() {
  return std::make_unique<YcsbColdRead>();
}

}  // namespace perfbench
