// Copyright (c) 2026 The siri Authors. MIT license.
//
// FileNodeStore: durability across reopen, crash-truncation recovery,
// full index operation over a disk-backed store, and the bounded page
// cache (stores larger than the cache, unsynced pages, concurrent reads
// racing appends, fsyncs and evictions).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/varint.h"
#include "crypto/sha256.h"
#include "index/pos/pos_tree.h"
#include "store/file_store.h"
#include "system/ledger.h"
#include "tests/test_util.h"
#include "version/commit.h"
#include "version/ref_log.h"

namespace siri {
namespace {

using testing_util::Dump;
using testing_util::MakeKvs;

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid AND fixture address: ctest -jN runs tests of this
    // binary as concurrent processes, and the fixture lands at the same
    // heap address in each — pid keeps their logs apart.
    path_ = ::testing::TempDir() + "/siri_store_" + std::to_string(getpid()) +
            "_" + std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FileStoreTest, PutGetRoundTrip) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  const Hash h = store->Put("disk-backed page");
  auto got = store->Get(h);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "disk-backed page");
}

TEST_F(FileStoreTest, SurvivesReopen) {
  Hash root;
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    PosTree tree(store);
    auto r = tree.PutBatch(Hash::Zero(), MakeKvs(500));
    ASSERT_TRUE(r.ok());
    root = *r;
    ASSERT_TRUE(store->Flush().ok());
  }  // store closed

  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(path_, &reopened).ok());
  EXPECT_EQ(reopened->recovered_truncations(), 0u);
  PosTree tree(reopened);
  std::map<std::string, std::string> expected;
  for (const auto& kv : MakeKvs(500)) expected[kv.key] = kv.value;
  EXPECT_EQ(Dump(tree, root), expected);
}

TEST_F(FileStoreTest, RecoversFromTruncatedTail) {
  Hash root;
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    PosTree tree(store);
    auto r = tree.PutBatch(Hash::Zero(), MakeKvs(200));
    ASSERT_TRUE(r.ok());
    root = *r;
    ASSERT_TRUE(store->Flush().ok());
  }

  // Simulate a crash mid-append: chop bytes off the end.
  FILE* f = fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  ASSERT_GT(size, 10);
  ASSERT_EQ(truncate(path_.c_str(), size - 7), 0);
  fclose(f);

  std::shared_ptr<FileNodeStore> recovered;
  ASSERT_TRUE(FileNodeStore::Open(path_, &recovered).ok());
  EXPECT_GT(recovered->recovered_truncations(), 0u);
  // The store still serves every complete page; only the torn tail page is
  // gone. New writes append cleanly after recovery.
  const Hash h = recovered->Put("fresh page after recovery");
  EXPECT_TRUE(recovered->Get(h).ok());
}

TEST_F(FileStoreTest, DeduplicatesAcrossSessions) {
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    (void)store->Put("shared page");  // digest unused: dedup is the subject
    ASSERT_TRUE(store->Flush().ok());
  }
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  const auto before = store->stats();
  (void)store->Put("shared page");  // already on disk: digest unused
  const auto after = store->stats();
  EXPECT_EQ(after.unique_nodes, before.unique_nodes);
  EXPECT_EQ(after.dup_puts, 1u);
}

// Log geometry for the white-box corruption tests below: 8-byte magic
// header, then per record `varint len | 32-byte digest | page bytes`.
// With 100-byte pages the varint is one byte, so records are 133 bytes.
constexpr long kHeaderSize = 8;
constexpr long kRecordSize = 1 + 32 + 100;
constexpr long kPayloadOffset = 1 + 32;

std::string PageOf(int i) { return std::string(100, static_cast<char>('a' + i)); }

TEST_F(FileStoreTest, DetectsBitFlipAndDropsSuffix) {
  std::vector<Hash> hashes;
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    for (int i = 0; i < 5; ++i) hashes.push_back(store->Put(PageOf(i)));
    ASSERT_TRUE(store->Flush().ok());
  }

  // Flip one byte inside the payload of record 2.
  FILE* f = fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long victim = kHeaderSize + 2 * kRecordSize + kPayloadOffset + 10;
  ASSERT_EQ(fseek(f, victim, SEEK_SET), 0);
  fputc('Z', f);
  fclose(f);

  std::shared_ptr<FileNodeStore> recovered;
  ASSERT_TRUE(FileNodeStore::Open(path_, &recovered).ok());
  // Records 2, 3, 4 are dropped: replay truncates at the first mismatch.
  EXPECT_EQ(recovered->recovered_truncations(), 3u);
  EXPECT_TRUE(recovered->Get(hashes[0]).ok());
  EXPECT_TRUE(recovered->Get(hashes[1]).ok());
  for (int i = 2; i < 5; ++i) {
    auto got = recovered->Get(hashes[i]);
    EXPECT_FALSE(got.ok()) << "corrupt/suffix page " << i << " served";
  }
  // The corrupted bytes must not be indexed under any digest: every page
  // the store serves verifies against the digest it is keyed by.
  for (const Hash& h : hashes) {
    auto got = recovered->Get(h);
    if (got.ok()) EXPECT_EQ(Sha256::Digest(**got), h);
  }
  // Appends work after recovery and survive another reopen.
  const Hash fresh = recovered->Put(PageOf(7));
  ASSERT_TRUE(recovered->Flush().ok());
  recovered.reset();
  std::shared_ptr<FileNodeStore> again;
  ASSERT_TRUE(FileNodeStore::Open(path_, &again).ok());
  EXPECT_EQ(again->recovered_truncations(), 0u);
  EXPECT_TRUE(again->Get(fresh).ok());
}

TEST_F(FileStoreTest, TruncationCountsDroppedRecords) {
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    for (int i = 0; i < 3; ++i) store->Put(PageOf(i));
    ASSERT_TRUE(store->Flush().ok());
  }
  // Tear the last record in half: exactly one page is dropped.
  ASSERT_EQ(truncate(path_.c_str(), kHeaderSize + 2 * kRecordSize + 50), 0);
  std::shared_ptr<FileNodeStore> recovered;
  ASSERT_TRUE(FileNodeStore::Open(path_, &recovered).ok());
  EXPECT_EQ(recovered->recovered_truncations(), 1u);
  EXPECT_EQ(recovered->stats().unique_nodes, 2u);
}

TEST_F(FileStoreTest, TornHeaderSelfHeals) {
  // Crash while stamping a fresh log leaves a strict prefix of the magic;
  // reopening must recover an empty store, not wedge on Corruption.
  FILE* f = fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite("SIR", 1, 3, f);
  fclose(f);
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  EXPECT_EQ(store->recovered_truncations(), 0u);
  const Hash h = store->Put(PageOf(0));
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  std::shared_ptr<FileNodeStore> again;
  ASSERT_TRUE(FileNodeStore::Open(path_, &again).ok());
  EXPECT_TRUE(again->Get(h).ok());
}

TEST_F(FileStoreTest, HugeCorruptLengthTruncatesInsteadOfCrashing) {
  std::shared_ptr<FileNodeStore> first;
  ASSERT_TRUE(FileNodeStore::Open(path_, &first).ok());
  const Hash h = first->Put(PageOf(0));
  ASSERT_TRUE(first->Flush().ok());
  first.reset();

  // Append a record whose length varint decodes near UINT64_MAX — a naive
  // `kSize + len` bounds check would wrap and read out of bounds.
  FILE* f = fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::string evil;
  PutVarint64(&evil, ~uint64_t{0});
  evil += std::string(40, '\x5a');  // fake digest + some payload
  fwrite(evil.data(), 1, evil.size(), f);
  fclose(f);

  std::shared_ptr<FileNodeStore> recovered;
  ASSERT_TRUE(FileNodeStore::Open(path_, &recovered).ok());
  EXPECT_EQ(recovered->recovered_truncations(), 1u);
  EXPECT_TRUE(recovered->Get(h).ok());
}

TEST_F(FileStoreTest, RejectsDigestlessLegacyLog) {
  // A pre-header log (or any foreign file) must fail loudly, not be
  // silently mis-framed as pages.
  FILE* f = fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string legacy = "\x05hello\x03olddata";
  fwrite(legacy.data(), 1, legacy.size(), f);
  fclose(f);
  std::shared_ptr<FileNodeStore> store;
  Status s = FileNodeStore::Open(path_, &store);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(FileStoreTest, CommittedBlockSurvivesProcessKill) {
  // Child process: append one block through the Ledger commit boundary
  // with sync_on_commit, then die without running any cleanup. The
  // acknowledged block must be readable after reopen.
  const auto kvs = MakeKvs(300);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::shared_ptr<FileNodeStore> store;
    if (!FileNodeStore::Open(path_, &store).ok()) _exit(1);
    PosTree tree(store);
    Ledger ledger(&tree, /*batch_build=*/true, /*sync_on_commit=*/true);
    if (!ledger.AppendBlock(kvs).ok()) _exit(2);
    _exit(0);  // crash: no destructors, no stdio flush-at-exit
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Same data through the same code path is content-addressed to the same
  // root, so the parent can derive the expected root independently.
  auto mem = NewInMemoryNodeStore();
  PosTree ref(mem);
  Ledger ref_ledger(&ref);
  auto expected_root = ref_ledger.AppendBlock(kvs);
  ASSERT_TRUE(expected_root.ok());

  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(path_, &reopened).ok());
  EXPECT_EQ(reopened->recovered_truncations(), 0u);
  PosTree tree(reopened);
  std::map<std::string, std::string> expected;
  for (const auto& kv : kvs) expected[kv.key] = kv.value;
  EXPECT_EQ(Dump(tree, *expected_root), expected);
}

TEST_F(FileStoreTest, OpenFailsOnBadDirectory) {
  std::shared_ptr<FileNodeStore> store;
  EXPECT_FALSE(
      FileNodeStore::Open("/no/such/dir/at/all/store.log", &store).ok());
}

// --- Batched appends (PutMany) and flush economy ---------------------------

NodeBatch BatchOf(int first, int count) {
  NodeBatch batch;
  for (int i = first; i < first + count; ++i) {
    NodeRecord rec;
    rec.bytes = std::make_shared<const std::string>(PageOf(i));
    rec.hash = Sha256::Digest(*rec.bytes);
    batch.push_back(std::move(rec));
  }
  return batch;
}

TEST_F(FileStoreTest, PutManyBatchSurvivesReopen) {
  const NodeBatch batch = BatchOf(0, 5);
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    store->PutMany(batch);
    const auto stats = store->stats();
    EXPECT_EQ(stats.puts, 5u);
    EXPECT_EQ(stats.unique_nodes, 5u);
    ASSERT_TRUE(store->Flush().ok());
  }
  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(path_, &reopened).ok());
  EXPECT_EQ(reopened->recovered_truncations(), 0u);
  for (const NodeRecord& rec : batch) {
    auto got = reopened->Get(rec.hash);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(**got, *rec.bytes);
  }
}

TEST_F(FileStoreTest, PutManySkipsResidentAndInBatchDuplicates) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  (void)store->Put(PageOf(0));  // already resident before the batch
  NodeBatch batch = BatchOf(0, 3);
  batch.push_back(batch[1]);  // duplicate digest within the batch
  store->PutMany(batch);
  const auto stats = store->stats();
  EXPECT_EQ(stats.puts, 5u);      // 1 Put + 4 batch records offered
  EXPECT_EQ(stats.dup_puts, 2u);  // resident page + in-batch duplicate
  EXPECT_EQ(stats.unique_nodes, 3u);
  // Only the three unique records ever reached the log.
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(path_, &reopened).ok());
  EXPECT_EQ(reopened->stats().unique_nodes, 3u);
}

TEST_F(FileStoreTest, TornBatchedAppendRecoversCommittedPrefix) {
  // Commit one batch (flushed), then crash in the middle of a second
  // batched append: the first batch and the complete leading records of
  // the torn batch survive, the torn record is counted and dropped.
  const NodeBatch committed = BatchOf(0, 3);
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
    store->PutMany(committed);
    ASSERT_TRUE(store->Flush().ok());
    store->PutMany(BatchOf(10, 3));
    ASSERT_TRUE(store->Flush().ok());
  }
  // Tear the log inside the second record of the second batch.
  ASSERT_EQ(truncate(path_.c_str(), kHeaderSize + 4 * kRecordSize + 40), 0);

  std::shared_ptr<FileNodeStore> recovered;
  ASSERT_TRUE(FileNodeStore::Open(path_, &recovered).ok());
  EXPECT_EQ(recovered->recovered_truncations(), 1u);
  EXPECT_EQ(recovered->stats().unique_nodes, 4u);
  for (const NodeRecord& rec : committed) {
    EXPECT_TRUE(recovered->Get(rec.hash).ok());
  }
  // Fresh batched appends after recovery survive another reopen.
  const NodeBatch fresh = BatchOf(20, 2);
  recovered->PutMany(fresh);
  ASSERT_TRUE(recovered->Flush().ok());
  recovered.reset();
  std::shared_ptr<FileNodeStore> again;
  ASSERT_TRUE(FileNodeStore::Open(path_, &again).ok());
  EXPECT_EQ(again->recovered_truncations(), 0u);
  EXPECT_TRUE(again->Get(fresh[0].hash).ok());
  EXPECT_TRUE(again->Get(fresh[1].hash).ok());
}

// --- Group fsync (wait-a-little flush coalescing) --------------------------

TEST_F(FileStoreTest, ConcurrentFlushersCoalesceIntoFewerFsyncs) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  ASSERT_TRUE(store->Flush().ok());  // header fsync out of the way
  const uint64_t fsyncs_before = store->fsync_count();

  // A generous window so every writer's append lands while the first
  // flusher is still holding the door open: K committers, each one
  // batched append + one Flush, must come out with FEWER than K fsyncs
  // (the group-commit property) while every page is durable.
  store->set_group_flush_window_micros(300000);
  constexpr int kWriters = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      store->PutMany(BatchOf(10 * t, 3));
      ASSERT_TRUE(store->Flush().ok());
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();

  const uint64_t fsyncs = store->fsync_count() - fsyncs_before;
  EXPECT_GE(fsyncs, 1u);
  EXPECT_LT(fsyncs, static_cast<uint64_t>(kWriters));
  EXPECT_GE(store->coalesced_flushes(), kWriters - fsyncs);

  // Durability was not traded away: everything survives a reopen.
  store.reset();
  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(path_, &reopened).ok());
  EXPECT_EQ(reopened->recovered_truncations(), 0u);
  EXPECT_EQ(reopened->stats().unique_nodes, 3u * kWriters);
}

TEST_F(FileStoreTest, GroupWindowOffKeepsFlushSemantics) {
  // Window 0 (the default): a dirty Flush issues its own fsync — the
  // per-commit accounting the occ tests rely on is unchanged.
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  ASSERT_TRUE(store->Flush().ok());
  const uint64_t before = store->fsync_count();
  store->PutMany(BatchOf(0, 2));
  ASSERT_TRUE(store->Flush().ok());
  store->PutMany(BatchOf(10, 2));
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->fsync_count(), before + 2);
  EXPECT_EQ(store->coalesced_flushes(), 0u);
}

// --- Cross-commit write dedup (recently-flushed digest ring) ---------------

TEST_F(FileStoreTest, RecentDigestRingSkipsPagesAConcurrentCommitterLanded) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());

  // Committer 1 lands pages 0-3; committer 2's batch shares pages 2-3
  // (the shared-key-prefix case): the ring catches the overlap.
  store->PutMany(BatchOf(0, 4));
  EXPECT_EQ(store->dedup_skips(), 0u);
  store->PutMany(BatchOf(2, 4));
  EXPECT_EQ(store->dedup_skips(), 2u);
  EXPECT_EQ(store->stats().unique_nodes, 6u);
  EXPECT_EQ(store->stats().dup_puts, 2u);

  // Single-page Put re-offering a recent page is caught too (digest
  // dropped: the skip counters are the subject).
  (void)store->Put(PageOf(5));
  EXPECT_EQ(store->dedup_skips(), 3u);
  EXPECT_EQ(store->stats().unique_nodes, 6u);
}

TEST_F(FileStoreTest, RecentDigestRingEvictsOldestDigests) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  // Push page 0, then roll the ring over completely with unique pages.
  // Digests dropped throughout: the ring/skip counters are the subject.
  (void)store->Put(PageOf(0));
  for (size_t i = 0; i < FileNodeStore::kRecentRingSize; ++i) {
    (void)store->Put("filler-" + std::to_string(i));
  }
  // Page 0 fell off the ring: re-offering it is still a dup (resident
  // map), but no longer a ring hit.
  const uint64_t skips_before = store->dedup_skips();
  (void)store->Put(PageOf(0));
  EXPECT_EQ(store->dedup_skips(), skips_before);
  EXPECT_EQ(store->stats().dup_puts, 1u);
}

// --- Branch-head persistence (sidecar ref log) -----------------------------

class RefLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // pid-keyed like FileStoreTest: concurrent ctest processes of this
    // binary must not share scratch files.
    base_ = ::testing::TempDir() + "/siri_refs_" + std::to_string(getpid()) +
            "_" + std::to_string(reinterpret_cast<uintptr_t>(this));
    log_path_ = base_ + ".sirilog";
    ref_path_ = base_ + ".refs";
    std::remove(log_path_.c_str());
    std::remove(ref_path_.c_str());
  }

  void TearDown() override {
    std::remove(log_path_.c_str());
    std::remove(ref_path_.c_str());
  }

  std::string base_, log_path_, ref_path_;
};

TEST_F(RefLogTest, LastRecordPerBranchWinsAndTombstonesDelete) {
  Hash h1 = Sha256::Digest("one"), h2 = Sha256::Digest("two");
  {
    std::shared_ptr<RefLog> log;
    ASSERT_TRUE(RefLog::Open(ref_path_, {}, &log).ok());
    ASSERT_TRUE(log->Append("main", h1).ok());
    ASSERT_TRUE(log->Append("dev", h1).ok());
    ASSERT_TRUE(log->Append("main", h2).ok());   // later record wins
    ASSERT_TRUE(log->AppendDelete("dev").ok());  // tombstone
    ASSERT_TRUE(log->Sync().ok());
  }
  std::shared_ptr<RefLog> reopened;
  ASSERT_TRUE(RefLog::Open(ref_path_, {}, &reopened).ok());
  EXPECT_EQ(reopened->recovered_truncations(), 0u);
  const auto& heads = reopened->recovered_heads();
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads.at("main"), h2);
}

TEST_F(RefLogTest, TornTailIsTruncatedNotFatal) {
  Hash h1 = Sha256::Digest("one");
  {
    std::shared_ptr<RefLog> log;
    ASSERT_TRUE(RefLog::Open(ref_path_, {}, &log).ok());
    ASSERT_TRUE(log->Append("main", h1).ok());
  }
  // Tear the file mid-way through a would-be second record.
  FILE* f = fopen(ref_path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  fwrite("\x20garbage", 1, 8, f);
  fclose(f);

  std::shared_ptr<RefLog> recovered;
  ASSERT_TRUE(RefLog::Open(ref_path_, {}, &recovered).ok());
  EXPECT_GT(recovered->recovered_truncations(), 0u);
  EXPECT_EQ(recovered->recovered_heads().at("main"), h1);
  // Appends after recovery frame cleanly.
  ASSERT_TRUE(recovered->Append("dev", h1).ok());
  recovered.reset();
  std::shared_ptr<RefLog> again;
  ASSERT_TRUE(RefLog::Open(ref_path_, {}, &again).ok());
  EXPECT_EQ(again->recovered_heads().size(), 2u);
}

TEST_F(RefLogTest, BranchHeadsSurviveProcessKill) {
  // Child: commit on two branches through a ref-logged BranchManager over
  // the durable store, then die without any cleanup. Parent: reopen both
  // logs — the branches must point at the committed heads, fully
  // readable. (Same fork/_exit pattern as CommittedBlockSurvivesProcessKill.)
  const auto kvs = MakeKvs(120);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::shared_ptr<FileNodeStore> store;
    if (!FileNodeStore::Open(log_path_, &store).ok()) _exit(1);
    BranchManager mgr(store);
    if (!mgr.AttachRefLog(ref_path_).ok()) _exit(2);
    PosTree tree(store);
    auto root = tree.PutBatch(Hash::Zero(), kvs);
    if (!root.ok()) _exit(3);
    if (!mgr.CommitOnBranch("main", *root, "child", "first").ok()) _exit(4);
    auto root2 = tree.PutBatch(*root, {{"extra/key", "extra"}});
    if (!root2.ok()) _exit(5);
    if (!mgr.CommitOnBranch("main", *root2, "child", "second").ok()) _exit(6);
    if (!mgr.CommitOnBranch("dev", *root, "child", "fork").ok()) _exit(7);
    _exit(0);  // crash: no destructors, no stdio flush-at-exit
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(log_path_, &store).ok());
  BranchManager mgr(store);
  EXPECT_FALSE(mgr.Head("main").ok());  // nothing before attach
  ASSERT_TRUE(mgr.AttachRefLog(ref_path_).ok());

  auto main_head = mgr.Head("main");
  ASSERT_TRUE(main_head.ok());
  auto main_commit = mgr.ReadCommit(*main_head);
  ASSERT_TRUE(main_commit.ok());
  EXPECT_EQ(main_commit->message, "second");
  PosTree tree(store);
  auto got = tree.Get(main_commit->root, "extra/key", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "extra");

  auto dev_head = mgr.Head("dev");
  ASSERT_TRUE(dev_head.ok());
  auto dev_commit = mgr.ReadCommit(*dev_head);
  ASSERT_TRUE(dev_commit.ok());
  std::map<std::string, std::string> expected;
  for (const auto& kv : kvs) expected[kv.key] = kv.value;
  EXPECT_EQ(Dump(tree, dev_commit->root), expected);

  // History is intact, not just the tip: the recovered head's parent
  // chain walks back to the first commit.
  auto log = mgr.Log(*main_head);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 2u);
}

TEST_F(RefLogTest, DanglingRecoveredHeadIsSkipped) {
  // Ref log knows a head whose commit never reached the page log (the
  // page log was truncated further back): attach must not resurrect a
  // dangling branch.
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(log_path_, &store).ok());
    std::shared_ptr<RefLog> log;
    ASSERT_TRUE(RefLog::Open(ref_path_, {}, &log).ok());
    ASSERT_TRUE(log->Append("ghost", Sha256::Digest("never stored")).ok());
  }
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(log_path_, &store).ok());
  BranchManager mgr(store);
  ASSERT_TRUE(mgr.AttachRefLog(ref_path_).ok());
  EXPECT_FALSE(mgr.Head("ghost").ok());
}

TEST_F(RefLogTest, DeleteBranchTombstoneSurvivesReattach) {
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(log_path_, &store).ok());
    BranchManager mgr(store);
    ASSERT_TRUE(mgr.AttachRefLog(ref_path_).ok());
    PosTree tree(store);
    auto root = tree.PutBatch(Hash::Zero(), MakeKvs(20));
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(mgr.CommitOnBranch("gone", *root, "a", "m").ok());
    ASSERT_TRUE(mgr.CommitOnBranch("kept", *root, "a", "m").ok());
    ASSERT_TRUE(mgr.DeleteBranch("gone").ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(log_path_, &store).ok());
  BranchManager mgr(store);
  ASSERT_TRUE(mgr.AttachRefLog(ref_path_).ok());
  EXPECT_FALSE(mgr.Head("gone").ok());
  EXPECT_TRUE(mgr.Head("kept").ok());
}

TEST_F(FileStoreTest, FlushSkipsFsyncWhenNothingAppended) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  ASSERT_TRUE(store->Flush().ok());  // header append -> one fsync
  const uint64_t after_header = store->fsync_count();
  EXPECT_EQ(after_header, 1u);

  // Clean store: repeated commit boundaries must not reach the syscall.
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->fsync_count(), after_header);

  // One batched commit = exactly one fsync, regardless of batch size.
  store->PutMany(BatchOf(0, 8));
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->fsync_count(), after_header + 1);

  // A fully deduplicated batch appends nothing, so its flush is free too.
  store->PutMany(BatchOf(0, 8));
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->fsync_count(), after_header + 1);
}

// --- bounded page cache ---------------------------------------------------

NodeBatch SizedBatch(int first, int count, size_t size) {
  NodeBatch batch;
  for (int i = first; i < first + count; ++i) {
    std::string bytes = "page-" + std::to_string(i) + "/";
    bytes.resize(size, static_cast<char>('A' + i % 26));
    NodeRecord rec;
    rec.bytes = std::make_shared<const std::string>(std::move(bytes));
    rec.hash = Sha256::Digest(*rec.bytes);
    batch.push_back(std::move(rec));
  }
  return batch;
}

TEST_F(FileStoreTest, ContainsAndSizeOfAnswerForEvictedPages) {
  constexpr uint64_t kCache = 2048;
  const NodeBatch batch = SizedBatch(0, 200, 100);  // 20 KB: ~10x the cache
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(
      FileNodeStore::Open(io::Env::Default(), path_, &store, kCache).ok());
  store->PutMany(batch);
  ASSERT_TRUE(store->Flush().ok());
  for (const NodeRecord& rec : batch) {
    auto got = store->Get(rec.hash);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, *rec.bytes);
  }
  const NodeCache::Stats cache = store->page_cache_stats();
  EXPECT_GT(cache.misses, 150u);  // most pages came back from the log
  EXPECT_GT(cache.evictions, 150u);
  EXPECT_LE(cache.resident_bytes, kCache);
  EXPECT_EQ(store->stats().gets, 200u);
  EXPECT_EQ(store->stats().get_bytes, 200u * 100u);
  for (const NodeRecord& rec : batch) {
    EXPECT_TRUE(store->Contains(rec.hash));
    auto size = store->SizeOf(rec.hash);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, rec.bytes->size());
  }
  // The index answered without a read through the cache.
  EXPECT_EQ(store->page_cache_stats().misses, cache.misses);
  EXPECT_EQ(store->page_cache_stats().hits, cache.hits);
  const Hash absent = Sha256::Digest("never stored");
  EXPECT_FALSE(store->Contains(absent));
  EXPECT_TRUE(store->SizeOf(absent).status().IsNotFound());
  EXPECT_TRUE(store->Get(absent).status().IsNotFound());
}

TEST_F(FileStoreTest, ZeroCapacityCacheServesUnflushedPages) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(io::Env::Default(), path_, &store, 0).ok());
  ASSERT_TRUE(store->Flush().ok());
  // Small appends stay in the append handle's buffer, where a positional
  // read cannot see them: only the unsynced pages can serve these.
  const NodeBatch batch = SizedBatch(0, 16, 64);
  store->PutMany(batch);
  const Hash single = store->Put("a single unflushed page");
  for (const NodeRecord& rec : batch) {
    auto got = store->Get(rec.hash);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, *rec.bytes);
  }
  auto got_single = store->Get(single);
  ASSERT_TRUE(got_single.ok());
  EXPECT_EQ(**got_single, "a single unflushed page");
  EXPECT_EQ(store->page_cache_stats().resident_bytes, 0u);

  // After the covering fsync the same pages are read from the log.
  ASSERT_TRUE(store->Flush().ok());
  const uint64_t misses = store->page_cache_stats().misses;
  for (const NodeRecord& rec : batch) {
    auto got = store->Get(rec.hash);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, *rec.bytes);
  }
  EXPECT_EQ(store->page_cache_stats().misses, misses + batch.size());
  EXPECT_EQ(store->page_cache_stats().resident_bytes, 0u);
}

TEST_F(FileStoreTest, PageCacheCountsHitsMissesAndEvictions) {
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  const NodeBatch batch = SizedBatch(0, 10, 200);
  store->PutMany(batch);  // write-allocated: hot before any read
  ASSERT_TRUE(store->Flush().ok());
  for (const NodeRecord& rec : batch) ASSERT_TRUE(store->Get(rec.hash).ok());
  NodeCache::Stats cache = store->page_cache_stats();
  EXPECT_EQ(cache.hits, 10u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_EQ(cache.resident_bytes, 2000u);
  store.reset();

  // A reopened store starts cold: the first read of a page misses (and
  // caches it), the second hits.
  ASSERT_TRUE(FileNodeStore::Open(path_, &store).ok());
  for (int round = 0; round < 2; ++round) {
    for (const NodeRecord& rec : batch) {
      auto got = store->Get(rec.hash);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(**got, *rec.bytes);
    }
  }
  cache = store->page_cache_stats();
  EXPECT_EQ(cache.misses, 10u);
  EXPECT_EQ(cache.hits, 10u);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_EQ(cache.resident_bytes, 2000u);
}

TEST_F(FileStoreTest, ConcurrentGetPutManyFlushWithEvictions) {
  // Writers append and fsync batches while readers fetch every published
  // page, through a cache a fraction of the data's size: hits, misses,
  // unsynced pages, evictions and the unsynced->log handoff all race.
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kBatches = 30;
  constexpr int kPerBatch = 12;
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(
      FileNodeStore::Open(io::Env::Default(), path_, &store, 4096).ok());

  Mutex mu;
  std::vector<NodeRecord> published;  // guarded by mu
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        const NodeBatch batch =
            SizedBatch((w * kBatches + b) * kPerBatch, kPerBatch, 96);
        store->PutMany(batch);
        {
          MutexLock lock(mu);
          published.insert(published.end(), batch.begin(), batch.end());
        }
        if (b % 3 == 0 && !store->Flush().ok()) bad_reads.fetch_add(1);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(r + 1);
      while (writers_left.load() > 0) {
        NodeRecord rec;
        {
          MutexLock lock(mu);
          if (published.empty()) continue;
          rec = published[rng.Uniform(published.size())];
        }
        auto got = store->Get(rec.hash);
        if (!got.ok() || **got != *rec.bytes) bad_reads.fetch_add(1);
        if (!store->Contains(rec.hash)) bad_reads.fetch_add(1);
        auto size = store->SizeOf(rec.hash);
        if (!size.ok() || *size != rec.bytes->size()) bad_reads.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_GT(store->page_cache_stats().evictions, 0u);
  EXPECT_EQ(store->stats().unique_nodes,
            static_cast<uint64_t>(kWriters * kBatches * kPerBatch));
  for (const NodeRecord& rec : published) {
    auto got = store->Get(rec.hash);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, *rec.bytes);
  }
}

}  // namespace
}  // namespace siri
