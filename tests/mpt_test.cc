// Copyright (c) 2026 The siri Authors. MIT license.
//
// MPT-specific behavior: node splitting/collapsing around shared prefixes,
// path compaction, lookup depth ~ key length, trie-aligned diff.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/varint.h"
#include "index/mpt/mpt.h"
#include "tests/test_util.h"

namespace siri {
namespace {

using testing_util::Dump;
using testing_util::MakeKvs;
using testing_util::TKey;

class MptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    mpt_ = std::make_unique<Mpt>(store_);
  }

  std::shared_ptr<InMemoryNodeStore> store_;
  std::unique_ptr<Mpt> mpt_;
};

TEST_F(MptTest, SharedPrefixKeysSplitCorrectly) {
  auto r = mpt_->PutBatch(Hash::Zero(), {{"abcdef", "1"},
                                         {"abcxyz", "2"},
                                         {"abc", "3"},
                                         {"zzz", "4"}});
  ASSERT_TRUE(r.ok());
  for (const auto& [k, v] : std::map<std::string, std::string>{
           {"abcdef", "1"}, {"abcxyz", "2"}, {"abc", "3"}, {"zzz", "4"}}) {
    auto got = mpt_->Get(*r, k, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value()) << k;
    EXPECT_EQ(**got, v);
  }
  // Near-miss keys must not resolve.
  EXPECT_FALSE(mpt_->Get(*r, "abcd", nullptr)->has_value());
  EXPECT_FALSE(mpt_->Get(*r, "ab", nullptr)->has_value());
  EXPECT_FALSE(mpt_->Get(*r, "abcdefg", nullptr)->has_value());
}

TEST_F(MptTest, LookupDepthTracksKeyLength) {
  // With distinct shared-prefix chains, depth grows with key length —
  // the O(L) bound of §4.1.1.
  std::vector<KV> kvs;
  std::string key;
  for (int i = 0; i < 24; ++i) {
    key.push_back('a' + (i % 3));
    kvs.push_back(KV{key, "v"});
  }
  auto r = mpt_->PutBatch(Hash::Zero(), kvs);
  ASSERT_TRUE(r.ok());
  LookupStats shallow, deep;
  ASSERT_TRUE(mpt_->Get(*r, kvs.front().key, &shallow).ok());
  ASSERT_TRUE(mpt_->Get(*r, kvs.back().key, &deep).ok());
  EXPECT_GT(deep.depth, shallow.depth);
}

TEST_F(MptTest, DeleteCollapsesBranchToLeaf) {
  // Two keys diverging at the last nibble: removing one must collapse the
  // branch, restoring the exact pre-insert digest (canonical form).
  auto r1 = mpt_->Put(Hash::Zero(), "aaa1", "x");
  ASSERT_TRUE(r1.ok());
  auto r2 = mpt_->Put(*r1, "aaa2", "y");
  ASSERT_TRUE(r2.ok());
  auto r3 = mpt_->Delete(*r2, "aaa2");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, *r1);
}

TEST_F(MptTest, DeleteCollapsesThroughExtensions) {
  auto base = mpt_->PutBatch(Hash::Zero(), {{"prefix-long-a", "1"},
                                            {"prefix-long-b", "2"}});
  ASSERT_TRUE(base.ok());
  auto with = mpt_->Put(*base, "prefix-other", "3");
  ASSERT_TRUE(with.ok());
  auto restored = mpt_->Delete(*with, "prefix-other");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, *base);
}

TEST_F(MptTest, BranchValueSurvivesChildDeletion) {
  // "ab" terminates at a branch that also routes "abc".
  auto r1 = mpt_->PutBatch(Hash::Zero(), {{"ab", "vab"}, {"abc", "vabc"},
                                          {"abd", "vabd"}});
  ASSERT_TRUE(r1.ok());
  auto r2 = mpt_->DeleteBatch(*r1, {"abc", "abd"});
  ASSERT_TRUE(r2.ok());
  auto got = mpt_->Get(*r2, "ab", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "vab");
  EXPECT_EQ(Dump(*mpt_, *r2).size(), 1u);
}

TEST_F(MptTest, ScanYieldsLexicographicOrder) {
  auto r = mpt_->PutBatch(Hash::Zero(), MakeKvs(200));
  ASSERT_TRUE(r.ok());
  std::string prev;
  bool first = true;
  ASSERT_TRUE(mpt_->Scan(*r, [&](Slice k, Slice) {
    if (!first) EXPECT_LT(prev, k.ToString());
    prev = k.ToString();
    first = false;
  }).ok());
}

TEST_F(MptTest, DiffFindsExactChanges) {
  auto base = mpt_->PutBatch(Hash::Zero(), MakeKvs(300));
  ASSERT_TRUE(base.ok());
  auto changed = mpt_->PutBatch(
      *base, {{TKey(5), "new5"}, {TKey(250), "new250"}, {"brand-new", "x"}});
  ASSERT_TRUE(changed.ok());
  auto after_del = mpt_->Delete(*changed, TKey(100));
  ASSERT_TRUE(after_del.ok());

  auto diff = mpt_->Diff(*base, *after_del);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->size(), 4u);
  // Sorted by key: TKey(100) deleted, TKey(250)/TKey(5) modified, new added.
  std::map<std::string, std::pair<bool, bool>> presence;
  for (const auto& e : *diff) {
    presence[e.key] = {e.left.has_value(), e.right.has_value()};
  }
  EXPECT_EQ(presence.at(TKey(100)), std::make_pair(true, false));
  EXPECT_EQ(presence.at(TKey(5)), std::make_pair(true, true));
  EXPECT_EQ(presence.at(TKey(250)), std::make_pair(true, true));
  EXPECT_EQ(presence.at("brand-new"), std::make_pair(false, true));
}

TEST_F(MptTest, DiffAgainstEmptyListsEverything) {
  auto r = mpt_->PutBatch(Hash::Zero(), MakeKvs(50));
  ASSERT_TRUE(r.ok());
  auto diff = mpt_->Diff(Hash::Zero(), *r);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 50u);
  for (const auto& e : *diff) {
    EXPECT_FALSE(e.left.has_value());
    EXPECT_TRUE(e.right.has_value());
  }
}

TEST_F(MptTest, DiffPrunesSharedSubtrees) {
  auto base = mpt_->PutBatch(Hash::Zero(), MakeKvs(2000));
  ASSERT_TRUE(base.ok());
  auto changed = mpt_->Put(*base, TKey(1234), "changed");
  ASSERT_TRUE(changed.ok());
  store_->ResetOpCounters();
  auto diff = mpt_->Diff(*base, *changed);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 1u);
  // Pruning means the diff touched only the two divergent paths, not the
  // whole 2000-record trie.
  EXPECT_LT(store_->stats().gets, 100u);
}

TEST_F(MptTest, LongKeysWithDeepSharedPrefix) {
  const std::string prefix(60, 'p');
  std::vector<KV> kvs;
  for (int i = 0; i < 20; ++i) {
    kvs.push_back(KV{prefix + std::to_string(i), "v" + std::to_string(i)});
  }
  auto r = mpt_->PutBatch(Hash::Zero(), kvs);
  ASSERT_TRUE(r.ok());
  for (const auto& kv : kvs) {
    auto got = mpt_->Get(*r, kv.key, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, kv.value);
  }
}

TEST_F(MptTest, EmptyKeySupported) {
  auto r = mpt_->Put(Hash::Zero(), "", "empty-key-value");
  ASSERT_TRUE(r.ok());
  auto got = mpt_->Get(*r, "", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "empty-key-value");
  auto r2 = mpt_->Put(*r, "a", "x");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(mpt_->Get(*r2, "", nullptr)->has_value());
}

// The root of content built from scratch in one sorted batch.
Hash FromScratch(Mpt& mpt, const std::map<std::string, std::string>& model) {
  std::vector<KV> kvs;
  for (const auto& [k, v] : model) kvs.push_back(KV{k, v});
  auto r = mpt.PutBatch(Hash::Zero(), kvs);
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : Hash::Zero();
}

TEST_F(MptTest, RandomBatchesMatchFromScratchBuild) {
  // Short keys over a three-letter alphabet behind a few shared prefixes:
  // every batch splits leaves and extensions, lands values on branches
  // (keys that prefix other keys, the empty key included), and repeats
  // keys within a batch, where the last value must win.
  Rng rng(17);
  const char* prefixes[] = {"", "pre-", "prefix-long-"};
  auto random_key = [&] {
    std::string k = prefixes[rng.Uniform(3)];
    for (size_t n = rng.Uniform(6); n > 0; --n) {
      k.push_back("abc"[rng.Uniform(3)]);
    }
    return k;
  };
  std::map<std::string, std::string> model;
  Hash root = Hash::Zero();
  for (int round = 0; round < 40; ++round) {
    std::vector<KV> puts;
    for (size_t n = 1 + rng.Uniform(40); n > 0; --n) {
      puts.push_back(
          KV{random_key(), "v" + std::to_string(rng.Uniform(1000))});
    }
    std::vector<std::string> dels;
    for (size_t n = rng.Uniform(20); n > 0; --n) {
      // Half present keys, half (mostly) absent ones.
      if (rng.Bernoulli(0.5) && !model.empty()) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        dels.push_back(it->first);
      } else {
        dels.push_back(random_key() + "~");
      }
    }
    auto r1 = mpt_->PutBatch(root, puts);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    for (const KV& kv : puts) model[kv.key] = kv.value;
    EXPECT_EQ(*r1, FromScratch(*mpt_, model)) << "round " << round;
    auto r2 = mpt_->DeleteBatch(*r1, dels);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    for (const std::string& k : dels) model.erase(k);
    EXPECT_EQ(*r2, FromScratch(*mpt_, model)) << "round " << round;
    root = *r2;
  }
  EXPECT_EQ(Dump(*mpt_, root), model);

  // Deleting everything (plus absent keys) empties the trie.
  std::vector<std::string> all = {"absent", "prefix-"};
  for (const auto& [k, v] : model) all.push_back(k);
  auto empty = mpt_->DeleteBatch(root, all);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->IsZero());
  auto still_empty = mpt_->DeleteBatch(Hash::Zero(), {"absent"});
  ASSERT_TRUE(still_empty.ok());
  EXPECT_TRUE(still_empty->IsZero());
}

TEST_F(MptTest, DeleteCollapsesOntoUnloadedChild) {
  // Deleting "z" leaves the root branch one child, a subtree the batch has
  // not loaded: a branch ("a1"/"b1" split at their second nibble) or an
  // extension (the "key…" run). Both must re-merge into canonical form.
  for (const auto& survivors :
       {std::vector<KV>{{"a1", "1"}, {"b1", "2"}}, MakeKvs(50)}) {
    std::map<std::string, std::string> model;
    for (const KV& kv : survivors) model[kv.key] = kv.value;
    std::vector<KV> with_z = survivors;
    with_z.push_back(KV{"z", "gone"});
    auto full = mpt_->PutBatch(Hash::Zero(), with_z);
    ASSERT_TRUE(full.ok());
    auto after = mpt_->DeleteBatch(*full, {"z", "absent"});
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, FromScratch(*mpt_, model));
    EXPECT_EQ(Dump(*mpt_, *after), model);
  }
}

TEST_F(MptTest, RootDigestIsPinned) {
  // The node encoding and the canonical shape together fix the root digest
  // of a given content; a change to the mutation path must not move it.
  auto r1 = mpt_->PutBatch(Hash::Zero(), MakeKvs(300));
  ASSERT_TRUE(r1.ok());
  std::vector<std::string> dels;
  for (int i = 0; i < 300; i += 7) dels.push_back(TKey(i));
  auto r2 = mpt_->DeleteBatch(*r1, dels);
  ASSERT_TRUE(r2.ok());
  auto r3 = mpt_->PutBatch(*r2, {{"", "empty"}, {"key", "prefix"}});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1->ToHex(),
            "aa7482f77d2c7756f43fe03d1fcdd5e8e142f7c8abc085c6b2824e4e173bed91");
  EXPECT_EQ(r3->ToHex(),
            "f99682e53a9ff52f79ad05b80b5be0094c81b6f9b4054d190939f50a329cf4d1");
}

TEST_F(MptTest, MalformedPathPageIsCorruption) {
  // A leaf whose varint path count is 2^64-1, and a leaf whose odd path
  // carries a non-zero pad nibble (a second encoding of path {5}).
  std::string huge(1, 'l');
  PutVarint64(&huge, ~uint64_t{0});
  const std::string padded("l\x01\x5f\x01v", 5);
  auto good = mpt_->PutBatch(Hash::Zero(), MakeKvs(20));
  ASSERT_TRUE(good.ok());
  for (const std::string& page : {huge, padded}) {
    const Hash bad = store_->Put(page);
    auto got = mpt_->Get(bad, "k", nullptr);
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    Status scan = mpt_->Scan(bad, [](Slice, Slice) {});
    EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
    auto diff = mpt_->Diff(*good, bad);
    EXPECT_TRUE(diff.status().IsCorruption()) << diff.status().ToString();

    // Reached below a well-formed branch: slot 6 routes key "a" (0x61).
    std::string branch("n\x40\x00\x00", 4);
    branch.append(reinterpret_cast<const char*>(bad.data()), Hash::kSize);
    const Hash parent = store_->Put(branch);
    auto below = mpt_->Get(parent, "a", nullptr);
    EXPECT_TRUE(below.status().IsCorruption()) << below.status().ToString();
  }
}

}  // namespace
}  // namespace siri
