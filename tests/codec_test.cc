// Copyright (c) 2026 The siri Authors. MIT license.
//
// Node codec: canonical serialization round trips, corruption detection,
// in-node search helpers, and nibble-path encoding for MPT.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/varint.h"
#include "crypto/sha256.h"
#include "index/mbt/mbt.h"
#include "index/mpt/nibbles.h"
#include "index/ordered/node_codec.h"
#include "store/node_store.h"

namespace siri {
namespace {

TEST(NodeCodecTest, LeafRoundTrip) {
  std::vector<KV> entries = {{"a", "1"}, {"b", ""}, {"cc", std::string(500, 'x')}};
  const std::string node = EncodeLeaf(entries);
  EXPECT_TRUE(IsLeafNode(node));
  std::vector<KV> back;
  ASSERT_TRUE(DecodeLeaf(node, &back).ok());
  EXPECT_EQ(back, entries);
}

TEST(NodeCodecTest, InternalRoundTrip) {
  std::vector<ChildEntry> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back({"key" + std::to_string(i),
                       Sha256::Digest("child" + std::to_string(i))});
  }
  const std::string node = EncodeInternal(entries);
  EXPECT_FALSE(IsLeafNode(node));
  std::vector<ChildEntry> back;
  ASSERT_TRUE(DecodeInternal(node, &back).ok());
  ASSERT_EQ(back.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].key, entries[i].key);
    EXPECT_EQ(back[i].hash, entries[i].hash);
  }
}

TEST(NodeCodecTest, EmptyLeafRoundTrip) {
  const std::string node = EncodeLeaf({});
  std::vector<KV> back;
  ASSERT_TRUE(DecodeLeaf(node, &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(NodeCodecTest, EncodingIsCanonical) {
  // Equal content => equal bytes => equal digest (dedup substrate).
  std::vector<KV> entries = {{"k1", "v1"}, {"k2", "v2"}};
  EXPECT_EQ(EncodeLeaf(entries), EncodeLeaf(entries));
  EXPECT_EQ(Sha256::Digest(EncodeLeaf(entries)),
            Sha256::Digest(EncodeLeaf(entries)));
}

TEST(NodeCodecTest, SaltChangesBytes) {
  std::vector<KV> entries = {{"k", "v"}};
  EXPECT_NE(EncodeLeaf(entries, 0), EncodeLeaf(entries, 1));
  std::vector<KV> back;
  ASSERT_TRUE(DecodeLeaf(EncodeLeaf(entries, 7), &back).ok());
  EXPECT_EQ(back, entries);  // salt is ignored on decode
}

TEST(NodeCodecTest, DecodeRejectsWrongTag) {
  std::vector<KV> leaf_back;
  EXPECT_TRUE(DecodeLeaf(EncodeInternal({}), &leaf_back).IsCorruption());
  std::vector<ChildEntry> int_back;
  EXPECT_TRUE(DecodeInternal(EncodeLeaf({}), &int_back).IsCorruption());
}

// A node page whose header claims \p count entries over \p body.
std::string PageClaiming(char tag, uint64_t count, const std::string& body) {
  std::string page(1, tag);
  PutVarint64(&page, /*salt=*/0);
  PutVarint64(&page, count);
  return page + body;
}

TEST(NodeCodecTest, DecodeRejectsTruncation) {
  std::vector<KV> entries = {{"key", "value"}};
  std::string node = EncodeLeaf(entries);
  node.resize(node.size() - 2);
  std::vector<KV> back;
  EXPECT_TRUE(DecodeLeaf(node, &back).IsCorruption());

  // A lying entry count: more entries than the body could hold (a leaf
  // entry takes >= 2 bytes, an internal one >= 33) is Corruption, never
  // a huge reserve() that throws.
  const std::string body(66, '\0');
  for (uint64_t count : {uint64_t{1} << 62, ~uint64_t{0}, uint64_t{34}}) {
    SCOPED_TRACE(count);
    const std::string leaf = PageClaiming(kLeafTag, count, body);
    std::vector<LeafView> leaf_views;
    EXPECT_TRUE(DecodeLeaf(leaf, &back).IsCorruption());
    EXPECT_TRUE(DecodeLeafViews(leaf, &leaf_views).IsCorruption());
    const std::string internal = PageClaiming(kInternalTag, count, body);
    std::vector<ChildEntry> children;
    std::vector<ChildView> child_views;
    EXPECT_TRUE(DecodeInternal(internal, &children).IsCorruption());
    EXPECT_TRUE(DecodeInternalViews(internal, &child_views).IsCorruption());
  }
  // The most entries a body can hold still decode: 33 empty leaf entries
  // and 2 internal entries with empty keys and zero digests.
  const std::string internal_body(2 * (1 + Hash::kSize), '\0');
  std::vector<ChildEntry> children;
  ASSERT_TRUE(DecodeLeaf(PageClaiming(kLeafTag, 33, body), &back).ok());
  EXPECT_EQ(back.size(), 33u);
  ASSERT_TRUE(
      DecodeInternal(PageClaiming(kInternalTag, 2, internal_body), &children)
          .ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST(NodeCodecTest, MbtGetRejectsLyingChildCount) {
  // An MBT internal page is 'B' | varint n | n * 32-byte digests. With
  // n = 2^59, n * 32 wraps to 0, so an empty body must not pass as n
  // children.
  auto store = NewInMemoryNodeStore();
  Mbt mbt(store);
  std::string page(1, 'B');
  PutVarint64(&page, uint64_t{1} << 59);
  const Hash root = store->Put(page);
  auto got = mbt.Get(root, "key", nullptr);
  EXPECT_TRUE(got.status().IsCorruption());
}

TEST(NodeCodecTest, DecodeRejectsTrailingGarbage) {
  std::string node = EncodeLeaf({{"k", "v"}});
  node += "garbage";
  std::vector<KV> back;
  EXPECT_TRUE(DecodeLeaf(node, &back).IsCorruption());
}

TEST(NodeCodecTest, PayloadStreamingMatchesWholeEncode) {
  // Chunk builders accumulate entry bytes incrementally; the result must be
  // identical to encoding the vector at once.
  std::vector<KV> entries = {{"a", "1"}, {"bb", "22"}, {"ccc", "333"}};
  std::string payload;
  for (const KV& e : entries) AppendLeafEntryBytes(&payload, e.key, e.value);
  EXPECT_EQ(EncodeLeafFromPayload(entries.size(), payload), EncodeLeaf(entries));
}

TEST(NodeCodecTest, ChildIndexForPicksCoveringChild) {
  std::vector<ChildEntry> entries = {
      {"b", Hash()}, {"f", Hash()}, {"m", Hash()}};
  EXPECT_EQ(ChildIndexFor(entries, "a"), 0u);  // below first: clamp left
  EXPECT_EQ(ChildIndexFor(entries, "b"), 0u);
  EXPECT_EQ(ChildIndexFor(entries, "c"), 0u);
  EXPECT_EQ(ChildIndexFor(entries, "f"), 1u);
  EXPECT_EQ(ChildIndexFor(entries, "k"), 1u);
  EXPECT_EQ(ChildIndexFor(entries, "m"), 2u);
  EXPECT_EQ(ChildIndexFor(entries, "zzz"), 2u);
}

TEST(NodeCodecTest, LeafLowerBoundFindsExactAndInsertPoint) {
  std::vector<KV> entries = {{"b", "1"}, {"d", "2"}, {"f", "3"}};
  bool found = false;
  EXPECT_EQ(LeafLowerBound(entries, "d", &found), 1u);
  EXPECT_TRUE(found);
  EXPECT_EQ(LeafLowerBound(entries, "c", &found), 1u);
  EXPECT_FALSE(found);
  EXPECT_EQ(LeafLowerBound(entries, "a", &found), 0u);
  EXPECT_FALSE(found);
  EXPECT_EQ(LeafLowerBound(entries, "z", &found), 3u);
  EXPECT_FALSE(found);
}

TEST(NibblesTest, KeyToNibblesExpandsBytes) {
  const Nibbles n = KeyToNibbles(std::string("\x4f\xa0", 2));
  ASSERT_EQ(n.size(), 4u);
  EXPECT_EQ(n[0], 0x4);
  EXPECT_EQ(n[1], 0xf);
  EXPECT_EQ(n[2], 0xa);
  EXPECT_EQ(n[3], 0x0);
}

TEST(NibblesTest, RoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const std::string key = rng.Bytes(rng.Uniform(64));
    EXPECT_EQ(NibblesToKey(KeyToNibbles(key)), key);
  }
}

TEST(NibblesTest, NibbleOrderMatchesByteOrder) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::string a = rng.Bytes(1 + rng.Uniform(10));
    const std::string b = rng.Bytes(1 + rng.Uniform(10));
    const Nibbles na = KeyToNibbles(a), nb = KeyToNibbles(b);
    const bool byte_lt = a < b;
    const bool nib_lt = std::lexicographical_compare(na.begin(), na.end(),
                                                     nb.begin(), nb.end());
    EXPECT_EQ(byte_lt, nib_lt) << i;
  }
}

TEST(NibblesTest, PathEncodingRoundTrip) {
  Rng rng(8);
  for (size_t len : {0u, 1u, 2u, 7u, 8u, 33u}) {
    Nibbles path;
    for (size_t i = 0; i < len; ++i) {
      path.push_back(static_cast<uint8_t>(rng.Uniform(16)));
    }
    std::string buf;
    EncodeNibblePath(&buf, path.data(), path.size());
    Slice in(buf);
    Nibbles back;
    ASSERT_TRUE(DecodeNibblePath(&in, &back));
    EXPECT_EQ(back, path);
    EXPECT_TRUE(in.empty());
  }
}

TEST(NibblesTest, RejectsCountLongerThanInput) {
  // count = 2^64-1 once wrapped (count + 1) / 2 to 0 bytes and then
  // reserved 2^64-1 nibbles; any count beyond the input is malformed.
  for (uint64_t count : {~uint64_t{0}, ~uint64_t{0} - 1, uint64_t{1} << 63,
                         uint64_t{5}}) {
    std::string buf;
    PutVarint64(&buf, count);
    buf.append("\x12", 1);
    Slice in(buf);
    Nibbles out;
    EXPECT_FALSE(DecodeNibblePath(&in, &out)) << count;
  }
}

TEST(NibblesTest, RejectsNonZeroPadNibble) {
  // The odd path {5} encodes as 0x50; 0x5f must not decode to it too.
  const Nibbles path = {5};
  std::string canonical;
  EncodeNibblePath(&canonical, path.data(), path.size());
  ASSERT_EQ(canonical, std::string("\x01\x50", 2));
  Slice in(canonical);
  Nibbles out;
  ASSERT_TRUE(DecodeNibblePath(&in, &out));
  EXPECT_EQ(out, path);

  const std::string padded("\x01\x5f", 2);
  Slice bad(padded);
  EXPECT_FALSE(DecodeNibblePath(&bad, &out));
}

TEST(NibblesTest, CommonPrefixLength) {
  const Nibbles a = {1, 2, 3, 4};
  const Nibbles b = {1, 2, 9};
  EXPECT_EQ(CommonNibblePrefix(a.data(), a.size(), b.data(), b.size()), 2u);
  EXPECT_EQ(CommonNibblePrefix(a.data(), a.size(), a.data(), a.size()), 4u);
  EXPECT_EQ(CommonNibblePrefix(a.data(), 0, b.data(), b.size()), 0u);
}

}  // namespace
}  // namespace siri
