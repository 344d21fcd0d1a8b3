// Copyright (c) 2026 The siri Authors. MIT license.
//
// SHA-256 against FIPS 180-4 / NIST test vectors (through the dispatcher
// and through each block kernel directly), Hash semantics, and
// rolling-hash (buzhash) behavior including the content-defined-chunking
// locality property POS-Tree depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "crypto/hash_pool.h"
#include "crypto/rolling_hash.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace siri {
namespace {

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(Sha256::Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAVector) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(ctx.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  const std::string data = rng.Bytes(10000);
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    Sha256 ctx;
    for (size_t i = 0; i < data.size(); i += chunk) {
      ctx.Update(data.data() + i, std::min(chunk, data.size() - i));
    }
    EXPECT_EQ(ctx.Finish(), Sha256::Digest(data)) << "chunk=" << chunk;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes cross the padding edge cases.
  for (size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string data(n, 'x');
    Sha256 a;
    a.Update(data);
    Sha256 b;
    for (char c : data) b.Update(&c, 1);
    EXPECT_EQ(a.Finish(), b.Finish()) << n;
  }
}

TEST(Sha256Test, ContextReusableAfterReset) {
  Sha256 ctx;
  ctx.Update("garbage");
  (void)ctx.Finish();
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(ctx.Finish().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- Block kernels (portable and SHA-NI) ------------------------------------

using sha256_internal::CompressFn;

// SHA-256 of \p msg with its padding done here and every block compressed
// by \p compress, in runs whose lengths come from \p rng (one call for
// all blocks when rng is null), so a kernel is checked without Sha256.
Hash DigestWithKernel(CompressFn compress, const std::string& msg,
                      Rng* rng = nullptr) {
  std::string padded = msg;
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (i * 8)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* p = reinterpret_cast<const uint8_t*>(padded.data());
  size_t blocks = padded.size() / 64;
  while (blocks > 0) {
    const size_t run = rng == nullptr ? blocks : 1 + rng->Uniform(blocks);
    compress(state, p, run);
    p += run * 64;
    blocks -= run;
  }
  uint8_t out[32];
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return Hash::FromBytes(out);
}

void ExpectFipsVectors(CompressFn compress) {
  EXPECT_EQ(DigestWithKernel(compress, "").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestWithKernel(compress, "abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestWithKernel(
          compress, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestWithKernel(compress,
                             "abcdefghbcdefghicdefghijdefghijkefghijklfghijklm"
                             "ghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrs"
                             "mnopqrstnopqrstu")
                .ToHex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(DigestWithKernel(compress, std::string(1000000, 'a')).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Skips the calling test where the SHA-NI kernel cannot run.
#define SIRI_REQUIRE_SHANI()                                           \
  if (!sha256_internal::ShaNiSupported()) {                            \
    GTEST_SKIP() << "CPU lacks the SHA extensions (or is not x86)";    \
  }

// The SHA-NI kernel; null where it is compiled out (the tests using it skip
// there first).
CompressFn ShaNiKernel() {
#ifdef SIRI_SHA256_HAVE_SHANI
  return sha256_internal::CompressShaNi;
#else
  return nullptr;
#endif
}

TEST(Sha256KernelTest, PortableKernelMatchesFipsVectors) {
  ExpectFipsVectors(sha256_internal::CompressPortable);
}

TEST(Sha256KernelTest, ShaNiKernelMatchesFipsVectors) {
  SIRI_REQUIRE_SHANI();
  ExpectFipsVectors(ShaNiKernel());
}

TEST(Sha256KernelTest, DispatcherMatchesPortableAtEveryLength) {
  // Also pins Finish()'s in-buffer padding on both sides of the 56-byte
  // edge, whichever kernel the dispatcher picked.
  Rng rng(7);
  const std::string data = rng.Bytes(1100);
  for (size_t n = 0; n <= data.size(); ++n) {
    const std::string msg = data.substr(0, n);
    ASSERT_EQ(Sha256::Digest(msg),
              DigestWithKernel(sha256_internal::CompressPortable, msg))
        << "len=" << n;
  }
}

TEST(Sha256KernelTest, KernelsAgreeAtEveryLength) {
  SIRI_REQUIRE_SHANI();
  Rng rng(8);
  const std::string data = rng.Bytes(1100);
  for (size_t n = 0; n <= data.size(); ++n) {
    const std::string msg = data.substr(0, n);
    ASSERT_EQ(DigestWithKernel(ShaNiKernel(), msg),
              DigestWithKernel(sha256_internal::CompressPortable, msg))
        << "len=" << n;
  }
}

TEST(Sha256KernelTest, KernelsAgreeUnderRandomSplits) {
  SIRI_REQUIRE_SHANI();
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string msg = rng.Bytes(rng.Uniform(4096));
    const Hash want = DigestWithKernel(sha256_internal::CompressPortable, msg);
    // Random runs of blocks per kernel call ...
    EXPECT_EQ(DigestWithKernel(ShaNiKernel(), msg, &rng), want);
    EXPECT_EQ(DigestWithKernel(sha256_internal::CompressPortable, msg, &rng),
              want);
    // ... and random Update split points through the dispatcher.
    Sha256 ctx;
    for (size_t i = 0; i < msg.size();) {
      const size_t take = std::min<size_t>(rng.Uniform(200), msg.size() - i);
      ctx.Update(msg.data() + i, take);
      i += take;
    }
    EXPECT_EQ(ctx.Finish(), want) << "trial " << trial;
  }
}

TEST(Sha256KernelTest, DispatcherPicksShaNiWhenSupported) {
  if (sha256_internal::ShaNiSupported()) {
    EXPECT_STREQ(Sha256::KernelName(), "sha-ni");
  } else {
    EXPECT_STREQ(Sha256::KernelName(), "portable");
  }
}

TEST(HashTest, ZeroIsZero) {
  EXPECT_TRUE(Hash::Zero().IsZero());
  EXPECT_FALSE(Sha256::Digest("x").IsZero());
}

TEST(HashTest, OrderingAndEquality) {
  const Hash a = Sha256::Digest("a");
  const Hash b = Sha256::Digest("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_EQ(a, Sha256::Digest("a"));
}

TEST(HashTest, Prefix64Stable) {
  const Hash a = Sha256::Digest("stable");
  EXPECT_EQ(a.Prefix64(), Sha256::Digest("stable").Prefix64());
}

// --- Sha256Pool (parallel batch hashing) -----------------------------------

std::vector<std::shared_ptr<const std::string>> PoolPages(size_t n) {
  // Sizes straddle every interesting boundary: empty, sub-block, exact
  // block multiples, multi-block.
  Rng rng(0x9a9e);
  std::vector<std::shared_ptr<const std::string>> pages;
  const size_t sizes[] = {0, 1, 55, 56, 63, 64, 65, 128, 1000, 4096};
  for (size_t i = 0; i < n; ++i) {
    std::string page;
    const size_t len = sizes[i % (sizeof(sizes) / sizeof(sizes[0]))] + i / 10;
    page.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      page.push_back(static_cast<char>(rng.Uniform(256)));
    }
    pages.push_back(std::make_shared<const std::string>(std::move(page)));
  }
  return pages;
}

TEST(Sha256PoolTest, DigestsBitIdenticalToSerialPath) {
  // Large enough to engage the workers (above the inline threshold).
  const auto pages = PoolPages(300);
  Sha256Pool pool(3);
  const auto digests = pool.DigestAll(pages);
  ASSERT_EQ(digests.size(), pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(digests[i], Sha256::Digest(*pages[i])) << "page " << i;
  }
  EXPECT_GE(pool.stats().jobs, 1u);
  EXPECT_EQ(pool.stats().pages, pages.size());
}

TEST(Sha256PoolTest, SmallBatchesDigestInline) {
  const auto pages = PoolPages(4);
  Sha256Pool pool(3);
  const auto digests = pool.DigestAll(pages);
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(digests[i], Sha256::Digest(*pages[i]));
  }
  EXPECT_EQ(pool.stats().jobs, 0u);
  EXPECT_EQ(pool.stats().inline_jobs, 1u);
}

TEST(Sha256PoolTest, ZeroWorkersFallsBackToInlineEverywhere) {
  const auto pages = PoolPages(200);
  Sha256Pool pool(0);
  const auto digests = pool.DigestAll(pages);
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(digests[i], Sha256::Digest(*pages[i]));
  }
  EXPECT_EQ(pool.stats().jobs, 0u);
}

TEST(Sha256PoolTest, ConcurrentCallersShareTheWorkers) {
  Sha256Pool pool(2);
  const auto pages = PoolPages(150);
  std::vector<std::thread> callers;
  std::vector<std::vector<Hash>> results(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] { results[t] = pool.DigestAll(pages); });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(results[t].size(), pages.size());
    for (size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(results[t][i], Sha256::Digest(*pages[i]));
    }
  }
}

TEST(Sha256PoolTest, EmptyBatchIsANoOp) {
  Sha256Pool pool(2);
  EXPECT_TRUE(pool.DigestAll({}).empty());
}

TEST(RollingHashTest, PrimedAfterWindowFull) {
  RollingHash rh(8);
  for (int i = 0; i < 7; ++i) {
    rh.Roll(static_cast<uint8_t>(i));
    EXPECT_FALSE(rh.Primed());
  }
  rh.Roll(7);
  EXPECT_TRUE(rh.Primed());
}

TEST(RollingHashTest, WindowLocality) {
  // The fingerprint at position i depends only on the last W bytes, so two
  // streams sharing a W-byte suffix have equal fingerprints — the property
  // that re-synchronizes chunk boundaries after an edit.
  const size_t w = 16;
  Rng rng(3);
  const std::string shared = rng.Bytes(64);
  RollingHash a(w), b(w);
  const std::string prefix_a = rng.Bytes(33);
  const std::string prefix_b = rng.Bytes(71);
  for (char c : prefix_a) a.Roll(static_cast<uint8_t>(c));
  for (char c : prefix_b) b.Roll(static_cast<uint8_t>(c));
  uint64_t last_a = 0, last_b = 0;
  for (char c : shared) {
    last_a = a.Roll(static_cast<uint8_t>(c));
    last_b = b.Roll(static_cast<uint8_t>(c));
  }
  EXPECT_EQ(last_a, last_b);
}

TEST(RollingHashTest, ResetClearsState) {
  RollingHash rh(8);
  for (int i = 0; i < 20; ++i) rh.Roll(static_cast<uint8_t>(i));
  rh.Reset();
  EXPECT_FALSE(rh.Primed());
  EXPECT_EQ(rh.value(), 0u);
}

TEST(RollingHashTest, DeterministicAcrossInstances) {
  RollingHash a(32), b(32);
  Rng rng(4);
  const std::string data = rng.Bytes(500);
  for (char c : data) {
    EXPECT_EQ(a.Roll(static_cast<uint8_t>(c)), b.Roll(static_cast<uint8_t>(c)));
  }
}

TEST(RollingHashTest, BoundaryRateMatchesPattern) {
  // With a q-bit pattern the boundary probability per byte is 2^-q; check
  // the empirical rate is in the right ballpark.
  const int q = 8;
  const uint64_t mask = (1u << q) - 1;
  RollingHash rh(48);
  Rng rng(5);
  uint64_t hits = 0;
  const uint64_t n = 1 << 20;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t fp = rh.Roll(static_cast<uint8_t>(rng.Next() & 0xff));
    if (rh.Primed() && (fp & mask) == mask) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_GT(rate, 1.0 / (1 << q) / 2);
  EXPECT_LT(rate, 2.0 / (1 << q));
}

TEST(BuzhashTableTest, TableLooksRandom) {
  const uint64_t* t = BuzhashTable();
  // All entries distinct and bit-balanced in aggregate.
  int ones = 0;
  for (int i = 0; i < 256; ++i) {
    for (int j = i + 1; j < 256; ++j) EXPECT_NE(t[i], t[j]);
    ones += __builtin_popcountll(t[i]);
  }
  // Expect ~8192 set bits (256 * 32); allow wide slack.
  EXPECT_GT(ones, 7500);
  EXPECT_LT(ones, 8900);
}

}  // namespace
}  // namespace siri
