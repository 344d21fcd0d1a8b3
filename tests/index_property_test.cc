// Copyright (c) 2026 The siri Authors. MIT license.
//
// Parameterized property tests run against every index structure. These
// pin down the behaviors all four structures must share (the common
// ImmutableIndex contract) and the SIRI properties (§3.2) that only the
// SIRI instances must satisfy.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/random.h"
#include "tests/test_util.h"

namespace siri {
namespace {

using testing_util::AllKinds;
using testing_util::Dump;
using testing_util::ExpectContent;
using testing_util::IndexKind;
using testing_util::KindName;
using testing_util::MakeIndex;
using testing_util::MakeKvs;
using testing_util::TKey;
using testing_util::TVal;

class IndexPropertyTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    index_ = MakeIndex(GetParam(), store_);
  }

  std::shared_ptr<InMemoryNodeStore> store_;
  std::unique_ptr<ImmutableIndex> index_;
};

TEST_P(IndexPropertyTest, EmptyIndexHasNoRecords) {
  const Hash root = index_->EmptyRoot();
  EXPECT_EQ(Dump(*index_, root).size(), 0u);
  auto got = index_->Get(root, "anything", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

TEST_P(IndexPropertyTest, SinglePutGet) {
  auto root = index_->Put(index_->EmptyRoot(), "k", "v");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  auto got = index_->Get(*root, "k", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "v");
}

TEST_P(IndexPropertyTest, PutBatchThenReadBack) {
  auto kvs = MakeKvs(500);
  auto root = index_->PutBatch(index_->EmptyRoot(), kvs);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  std::map<std::string, std::string> expected;
  for (const auto& kv : kvs) expected[kv.key] = kv.value;
  ExpectContent(*index_, *root, expected);
}

TEST_P(IndexPropertyTest, OverwriteReplacesValue) {
  auto r1 = index_->Put(index_->EmptyRoot(), "k", "v1");
  ASSERT_TRUE(r1.ok());
  auto r2 = index_->Put(*r1, "k", "v2");
  ASSERT_TRUE(r2.ok());
  auto got = index_->Get(*r2, "k", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "v2");
  // Old version still intact (immutability).
  auto old = index_->Get(*r1, "k", nullptr);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(**old, "v1");
}

TEST_P(IndexPropertyTest, GetAbsentKeyReturnsNullopt) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(50));
  ASSERT_TRUE(root.ok());
  auto got = index_->Get(*root, "nonexistent-key", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

TEST_P(IndexPropertyTest, OldVersionsSurviveManyUpdates) {
  std::vector<Hash> roots;
  Hash root = index_->EmptyRoot();
  for (int v = 0; v < 10; ++v) {
    std::vector<KV> batch;
    for (int i = 0; i < 20; ++i) batch.push_back(KV{TKey(i), TVal(i, v)});
    auto next = index_->PutBatch(root, batch);
    ASSERT_TRUE(next.ok());
    root = *next;
    roots.push_back(root);
  }
  // Every historical version still answers with its own values.
  for (int v = 0; v < 10; ++v) {
    auto got = index_->Get(roots[v], TKey(7), nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, TVal(7, v)) << "version " << v;
  }
}

TEST_P(IndexPropertyTest, DeleteRemovesOnlyTargetKeys) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(100));
  ASSERT_TRUE(root.ok());
  std::vector<std::string> dels;
  for (int i = 0; i < 100; i += 3) dels.push_back(TKey(i));
  auto after = index_->DeleteBatch(*root, dels);
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  std::map<std::string, std::string> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected[TKey(i)] = TVal(i);
  }
  ExpectContent(*index_, *after, expected);
  // Deleted keys answer nullopt.
  auto got = index_->Get(*after, TKey(0), nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

TEST_P(IndexPropertyTest, DeleteAllYieldsEmptyContent) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(64));
  ASSERT_TRUE(root.ok());
  std::vector<std::string> dels;
  for (int i = 0; i < 64; ++i) dels.push_back(TKey(i));
  auto after = index_->DeleteBatch(*root, dels);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Dump(*index_, *after).size(), 0u);
}

TEST_P(IndexPropertyTest, DeleteAbsentKeyIsNoOp) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(30));
  ASSERT_TRUE(root.ok());
  auto after = index_->Delete(*root, "no-such-key");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *root);  // same digest: nothing changed
}

TEST_P(IndexPropertyTest, DuplicateKeysInBatchLastWins) {
  std::vector<KV> kvs = {{"dup", "first"}, {"other", "x"}, {"dup", "second"}};
  auto root = index_->PutBatch(index_->EmptyRoot(), kvs);
  ASSERT_TRUE(root.ok());
  auto got = index_->Get(*root, "dup", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "second");
}

TEST_P(IndexPropertyTest, RandomizedModelCheck) {
  // Random interleavings of upserts and deletes, compared against a
  // std::map reference model after every batch.
  Rng rng(0xfeed + static_cast<int>(GetParam()));
  std::map<std::string, std::string> model;
  Hash root = index_->EmptyRoot();
  for (int round = 0; round < 20; ++round) {
    std::vector<KV> puts;
    std::vector<std::string> dels;
    for (int i = 0; i < 40; ++i) {
      const int key = static_cast<int>(rng.Uniform(300));
      if (rng.Bernoulli(0.25) && !model.empty()) {
        dels.push_back(TKey(key));
      } else {
        puts.push_back(KV{TKey(key), TVal(key, round * 100 + i)});
      }
    }
    auto r1 = index_->PutBatch(root, puts);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    for (const auto& kv : puts) model[kv.key] = kv.value;
    auto r2 = index_->DeleteBatch(*r1, dels);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    for (const auto& k : dels) model.erase(k);
    root = *r2;
  }
  ExpectContent(*index_, root, model);
}

TEST_P(IndexPropertyTest, BinaryKeysAndValuesSurvive) {
  std::vector<KV> kvs;
  Rng rng(99);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 50; ++i) {
    std::string k = rng.Bytes(1 + rng.Uniform(40));
    std::string v = rng.Bytes(rng.Uniform(300));
    kvs.push_back(KV{k, v});
    expected[k] = v;
  }
  // Duplicate random keys: keep last like the batch contract says.
  auto root = index_->PutBatch(index_->EmptyRoot(), kvs);
  ASSERT_TRUE(root.ok());
  for (const auto& [k, v] : expected) {
    auto got = index_->Get(*root, k, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, v);
  }
}

TEST_P(IndexPropertyTest, EmptyValueIsStorable) {
  auto root = index_->Put(index_->EmptyRoot(), "k", "");
  ASSERT_TRUE(root.ok());
  auto got = index_->Get(*root, "k", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "");
}

TEST_P(IndexPropertyTest, KeyPrefixPairsCoexist) {
  // "a" is a strict prefix of "ab": exercises MPT branch values and
  // ordered-tree ordering of prefixed keys.
  auto r1 = index_->Put(index_->EmptyRoot(), "a", "va");
  ASSERT_TRUE(r1.ok());
  auto r2 = index_->Put(*r1, "ab", "vab");
  ASSERT_TRUE(r2.ok());
  auto r3 = index_->Put(*r2, "abc", "vabc");
  ASSERT_TRUE(r3.ok());
  for (const auto& [k, v] : std::map<std::string, std::string>{
           {"a", "va"}, {"ab", "vab"}, {"abc", "vabc"}}) {
    auto got = index_->Get(*r3, k, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value()) << k;
    EXPECT_EQ(**got, v);
  }
  // Deleting the middle one keeps the outer two.
  auto r4 = index_->Delete(*r3, "ab");
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(index_->Get(*r4, "a", nullptr)->has_value());
  EXPECT_FALSE(index_->Get(*r4, "ab", nullptr)->has_value());
  EXPECT_TRUE(index_->Get(*r4, "abc", nullptr)->has_value());
}

TEST_P(IndexPropertyTest, LookupStatsPopulated) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(512));
  ASSERT_TRUE(root.ok());
  LookupStats stats;
  auto got = index_->Get(*root, TKey(123), &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_GE(stats.depth, 1);
  EXPECT_GE(stats.nodes_loaded, 1u);
  EXPECT_GT(stats.bytes_loaded, 0u);
}

TEST_P(IndexPropertyTest, CollectPagesCoversLookupPaths) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(256));
  ASSERT_TRUE(root.ok());
  PageSet pages;
  ASSERT_TRUE(index_->CollectPages(*root, &pages).ok());
  EXPECT_GE(pages.size(), 1u);
  // Every page must actually exist in the store.
  for (const Hash& h : pages) EXPECT_TRUE(store_->Contains(h));
}

TEST_P(IndexPropertyTest, VersionsShareUnchangedPages) {
  // Recursively Identical (§3.2): an update shares most pages with the
  // previous version. Not meaningful for tiny trees, so use 2000 records.
  auto root1 = index_->PutBatch(index_->EmptyRoot(), MakeKvs(2000));
  ASSERT_TRUE(root1.ok());
  auto root2 = index_->Put(*root1, TKey(1000), "updated!");
  ASSERT_TRUE(root2.ok());

  PageSet p1, p2;
  ASSERT_TRUE(index_->CollectPages(*root1, &p1).ok());
  ASSERT_TRUE(index_->CollectPages(*root2, &p2).ok());
  size_t shared = 0;
  for (const Hash& h : p2) shared += p1.count(h);
  const size_t changed = p2.size() - shared;
  // The rewritten path is a small fraction of all pages.
  EXPECT_GT(shared, p2.size() / 2) << "shared=" << shared
                                   << " total=" << p2.size();
  EXPECT_LT(changed, p2.size() / 2);
}

TEST_P(IndexPropertyTest, ScanVisitsEachKeyExactlyOnce) {
  auto root = index_->PutBatch(index_->EmptyRoot(), MakeKvs(333));
  ASSERT_TRUE(root.ok());
  std::map<std::string, int> seen;
  ASSERT_TRUE(
      index_->Scan(*root, [&seen](Slice k, Slice) { ++seen[k.ToString()]; })
          .ok());
  EXPECT_EQ(seen.size(), 333u);
  for (const auto& [k, count] : seen) EXPECT_EQ(count, 1) << k;
}

// Records the digest of every page handed to the wrapped store.
class RecordingNodeStore : public NodeStore {
 public:
  explicit RecordingNodeStore(NodeStorePtr base) : base_(std::move(base)) {}

  Hash Put(Slice bytes) override {
    const Hash h = base_->Put(bytes);
    written_.push_back(h);
    return h;
  }
  void PutMany(const NodeBatch& batch) override {
    for (const NodeRecord& r : batch) written_.push_back(r.hash);
    base_->PutMany(batch);
  }
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override {
    return base_->Get(h);
  }
  bool Contains(const Hash& h) const override { return base_->Contains(h); }
  Result<uint64_t> SizeOf(const Hash& h) const override {
    return base_->SizeOf(h);
  }
  Stats stats() const override { return base_->stats(); }
  void ResetOpCounters() override { base_->ResetOpCounters(); }

  /// Returns and forgets the digests recorded since the last call.
  std::vector<Hash> TakeWritten() { return std::exchange(written_, {}); }

 private:
  NodeStorePtr base_;
  std::vector<Hash> written_;
};

TEST_P(IndexPropertyTest, WrittenPagesAreReachableFromNewRoot) {
  // A batch may write only pages of the version it returns: anything else
  // is hashed, uploaded, made durable and kept forever for nothing.
  auto recorder = std::make_shared<RecordingNodeStore>(store_);
  auto index = MakeIndex(GetParam(), recorder);
  auto base = index->PutBatch(index->EmptyRoot(), MakeKvs(2000));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Hash root = *base;
  Rng rng(0x5eed + static_cast<int>(GetParam()));
  // Per operation: {pages written, of which unreachable}.
  std::map<std::string, std::pair<size_t, size_t>> tally;
  auto check = [&](const Hash& new_root, const std::string& op) {
    PageSet pages;
    ASSERT_TRUE(index->CollectPages(new_root, &pages).ok());
    for (const Hash& h : recorder->TakeWritten()) {
      ++tally[op].first;
      if (!pages.count(h)) ++tally[op].second;
    }
  };
  recorder->TakeWritten();  // the 2k-key build
  for (int round = 0; round < 10; ++round) {
    std::vector<KV> puts;
    for (int i = 0; i < 100; ++i) {
      const int key = static_cast<int>(rng.Uniform(2600));  // ~1/4 inserts
      puts.push_back(KV{TKey(key), TVal(key, round + 1)});
    }
    auto r1 = index->PutBatch(root, puts);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    check(*r1, "PutBatch");
    std::vector<std::string> dels;
    for (int i = 0; i < 50; ++i) {
      dels.push_back(TKey(static_cast<int>(rng.Uniform(2600))));
    }
    auto r2 = index->DeleteBatch(*r1, dels);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    check(*r2, "DeleteBatch");
    root = *r2;
  }
  for (const auto& [op, counts] : tally) {
    EXPECT_EQ(counts.second, 0u) << op << ": " << counts.second << " of "
                                 << counts.first
                                 << " written pages unreachable";
  }
}

// --- SIRI property: Structurally Invariant (§3.2, Definition 3.1(1)) ---
// Same record set => same root digest, regardless of insertion order or
// batching. Holds for MPT, MBT, POS-Tree; MVMB+-Tree (the non-SIRI
// baseline) is explicitly excluded.

class SiriOnlyPropertyTest : public IndexPropertyTest {};

TEST_P(SiriOnlyPropertyTest, StructurallyInvariantUnderPermutation) {
  auto kvs = MakeKvs(400);
  auto forward = index_->PutBatch(index_->EmptyRoot(), kvs);
  ASSERT_TRUE(forward.ok());

  std::vector<KV> reversed(kvs.rbegin(), kvs.rend());
  auto backward = index_->PutBatch(index_->EmptyRoot(), reversed);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(*forward, *backward);

  // Shuffled, in many small batches.
  Rng rng(5);
  std::vector<KV> shuffled = kvs;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  Hash root = index_->EmptyRoot();
  for (size_t i = 0; i < shuffled.size(); i += 37) {
    std::vector<KV> batch(shuffled.begin() + i,
                          shuffled.begin() + std::min(i + 37, shuffled.size()));
    auto next = index_->PutBatch(root, batch);
    ASSERT_TRUE(next.ok());
    root = *next;
  }
  EXPECT_EQ(root, *forward);
}

TEST_P(SiriOnlyPropertyTest, StructurallyInvariantThroughUpdateChurn) {
  // Insert everything, overwrite some, delete the overwrites' victims, and
  // re-insert: final state equals direct construction.
  auto kvs = MakeKvs(200);
  auto direct = index_->PutBatch(index_->EmptyRoot(), kvs);
  ASSERT_TRUE(direct.ok());

  Hash root = index_->EmptyRoot();
  auto r1 = index_->PutBatch(root, MakeKvs(200, /*version=*/9));
  ASSERT_TRUE(r1.ok());
  std::vector<std::string> dels;
  for (int i = 50; i < 150; ++i) dels.push_back(TKey(i));
  auto r2 = index_->DeleteBatch(*r1, dels);
  ASSERT_TRUE(r2.ok());
  auto r3 = index_->PutBatch(*r2, kvs);  // restore canonical values
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, *direct);
}

TEST_P(SiriOnlyPropertyTest, DeletingInsertedKeyRestoresOldRoot) {
  auto base = index_->PutBatch(index_->EmptyRoot(), MakeKvs(300));
  ASSERT_TRUE(base.ok());
  auto with_extra = index_->Put(*base, "zzz-extra", "tmp");
  ASSERT_TRUE(with_extra.ok());
  EXPECT_NE(*with_extra, *base);
  auto restored = index_->Delete(*with_extra, "zzz-extra");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, *base);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexPropertyTest, ::testing::ValuesIn(AllKinds()),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return KindName(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    SiriIndexes, SiriOnlyPropertyTest,
    ::testing::Values(IndexKind::kMpt, IndexKind::kMbt, IndexKind::kPos,
                      IndexKind::kProlly),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return KindName(info.param);
    });

}  // namespace
}  // namespace siri
