// Copyright (c) 2026 The siri Authors. MIT license.
//
// Crash-consistency harness: the page log and the ref log under simulated
// power cuts, torn tails, fsync failures, and full disks — every fault
// delivered deterministically through io::FaultEnv (io/fault_env.h).
//
// The core is a crash-point sweep: run a fixed commit workload over a
// buffered FaultEnv, make mutating-op #k fail as a power cut, reboot the
// simulated disk (dropping or tearing everything not covered by a
// completed fsync), reopen both logs, and check the cross-file invariants
//
//   1. no acked commit lost — every commit the workload saw succeed has
//      its pages byte-exact and its commit object readable after reopen;
//   2. no phantom head — the recovered branch head is an acked commit or
//      the single in-flight attempt, never anything else;
//   3. mutual consistency — whatever head the ref log recovers, its
//      commit object and root pages are present in the recovered page
//      store (the two logs never disagree).
//
// Sweeping k across every op of the workload visits every failure site in
// the write path: mid-append, between append and fsync, mid-recovery
// rewrite, between rename and directory fsync.
//
// A harness is only as good as the bugs it can see, so two tests
// deliberately reintroduce historical bug classes and assert the harness
// FAILS: the missing-parent-dir-fsync hole (set_drop_dir_syncs) and the
// fsyncgate forget-the-error hole (set_sticky_errors_for_testing(false)).
//
// The page store reads through the same simulator: a sweep reopens with a
// zero-byte page cache so every post-reboot read is a FaultEnv positional
// read, and ReadFaultTest injects read EIO and bit flips.
//
// The tail of the file leaves the simulator: a real SiriServer over a
// FaultEnv-backed store, a real SocketTransport client, and an injected
// disk fault — asserting the typed read-only degradation contract
// end-to-end over the wire.
//
// SIRI_CRASH=1 (the crash-labeled ctest entry) scales the sweep up.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "index/pos/pos_tree.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/file_store.h"
#include "store/node_store.h"
#include "system/forkbase.h"
#include "tests/test_util.h"
#include "version/commit.h"
#include "version/ref_log.h"

namespace siri {
namespace {

using io::CrashSpec;
using io::FaultEnv;
using io::IoFaultKind;
using testing_util::MakeKvs;

constexpr char kBranch[] = "main";
constexpr char kPagesPath[] = "pages.log";
constexpr char kRefsPath[] = "refs.log";

int SweepCommits() {
  const char* scaled = std::getenv("SIRI_CRASH");
  return (scaled && scaled[0] == '1') ? 20 : 8;
}

// --- the workload -------------------------------------------------------

/// One commit the workload attempted: its pages (content kept for
/// byte-exact recovery checks), its root, and — once acked — its commit
/// digest.
struct CommitRecord {
  Hash commit;
  Hash root;
  NodeBatch pages;
};

/// What the workload accomplished before the injected fault stopped it.
/// `inflight` is the attempt in progress at the stop: its ref record may
/// or may not have reached the log, so recovery may legitimately surface
/// it — but then it must be fully materialized (invariant 3).
struct WorkloadLog {
  std::vector<CommitRecord> acked;
  std::optional<CommitRecord> inflight;
  Status stopped = Status::OK();
};

NodeBatch MakePages(int commit_idx, const std::string& salt) {
  NodeBatch batch;
  for (int p = 0; p < 3; ++p) {
    std::string bytes = "page/" + salt + "/" + std::to_string(commit_idx) +
                        "/" + std::to_string(p) + "/" +
                        std::string(48, static_cast<char>(
                                            'a' + (commit_idx * 7 + p) % 26));
    NodeRecord rec;
    rec.bytes = std::make_shared<const std::string>(std::move(bytes));
    rec.hash = Sha256::Digest(*rec.bytes);
    batch.push_back(std::move(rec));
  }
  return batch;
}

/// Runs \p commits sequential commits (3 fresh pages each) through the
/// full durable stack — FileNodeStore + BranchManager + attached RefLog,
/// every byte via \p env — recording exactly which commits were acked.
/// Stops at the first error (the injected fault; the sticky latch keeps
/// later calls failing). With \p retry_failed_commit_once the workload
/// retries a failed commit with the SAME batch — the access pattern that
/// springs the fsyncgate trap when the sticky latch is disabled.
WorkloadLog RunCommitWorkload(FaultEnv* env, bool fsync_each, int commits,
                              const std::string& salt,
                              bool sticky_errors = true,
                              bool retry_failed_commit_once = false) {
  WorkloadLog log;
  std::shared_ptr<FileNodeStore> store;
  Status s = FileNodeStore::Open(env, kPagesPath, &store);
  if (!s.ok()) {
    log.stopped = s;
    return log;
  }
  store->set_sticky_errors_for_testing(sticky_errors);
  BranchManager mgr(store);
  RefLog::Options ropts;
  ropts.fsync_each = fsync_each;
  ropts.env = env;
  s = mgr.AttachRefLog(kRefsPath, ropts);
  if (!s.ok()) {
    log.stopped = s;
    return log;
  }

  for (int i = 0; i < commits; ++i) {
    CommitRecord rec;
    rec.pages = MakePages(i, salt);
    rec.root = rec.pages.back().hash;
    log.inflight = rec;
    const std::string message = salt + "-c" + std::to_string(i);
    store->PutMany(rec.pages);
    auto committed = mgr.CommitOnBranch(kBranch, rec.root, "harness", message);
    if (!committed.ok() && retry_failed_commit_once) {
      store->PutMany(rec.pages);
      committed = mgr.CommitOnBranch(kBranch, rec.root, "harness", message);
    }
    if (!committed.ok()) {
      log.stopped = committed.status();
      return log;
    }
    rec.commit = *committed;
    log.acked.push_back(rec);
    log.inflight.reset();
  }
  return log;
}

// --- the verifier -------------------------------------------------------

/// Reopens both logs through \p env and checks the three cross-file
/// invariants against what the workload recorded. \p fsync_each must
/// match the workload's ref-log mode: with per-swing fsyncs the head may
/// not roll back past the last acked commit; without them losing head
/// *position* is allowed (the pages never are).
::testing::AssertionResult VerifyRecovery(
    FaultEnv* env, bool fsync_each, const WorkloadLog& log,
    uint64_t page_cache_bytes = FileNodeStore::kDefaultPageCacheBytes) {
  std::shared_ptr<FileNodeStore> store;
  Status s = FileNodeStore::Open(env, kPagesPath, &store, page_cache_bytes);
  if (!s.ok()) {
    return ::testing::AssertionFailure()
           << "page log failed to reopen: " << s.ToString();
  }
  BranchManager mgr(store);
  RefLog::Options ropts;
  ropts.fsync_each = fsync_each;
  ropts.env = env;
  s = mgr.AttachRefLog(kRefsPath, ropts);
  if (!s.ok()) {
    return ::testing::AssertionFailure()
           << "ref log failed to reopen: " << s.ToString();
  }

  // Invariant 1: no acked commit lost.
  for (size_t i = 0; i < log.acked.size(); ++i) {
    const CommitRecord& a = log.acked[i];
    for (const NodeRecord& p : a.pages) {
      auto got = store->Get(p.hash);
      if (!got.ok()) {
        return ::testing::AssertionFailure()
               << "acked commit " << i << " lost a page after reopen: "
               << got.status().ToString();
      }
      if (**got != *p.bytes) {
        return ::testing::AssertionFailure()
               << "acked commit " << i << " page content corrupted";
      }
    }
    auto c = mgr.ReadCommit(a.commit);
    if (!c.ok()) {
      return ::testing::AssertionFailure()
             << "acked commit object " << i
             << " unreadable: " << c.status().ToString();
    }
    if (!(c->root == a.root)) {
      return ::testing::AssertionFailure()
             << "acked commit " << i << " recovered with wrong root";
    }
  }

  // Invariants 2 + 3: the recovered head.
  auto head = mgr.Head(kBranch);
  if (!head.ok()) {
    if (fsync_each && !log.acked.empty()) {
      return ::testing::AssertionFailure()
             << "fsync_each ref log lost the branch despite "
             << log.acked.size() << " acked commits";
    }
    return ::testing::AssertionSuccess();
  }

  int acked_idx = -1;
  for (size_t i = 0; i < log.acked.size(); ++i) {
    if (log.acked[i].commit == *head) acked_idx = static_cast<int>(i);
  }
  if (acked_idx >= 0) {
    if (fsync_each && acked_idx + 1 != static_cast<int>(log.acked.size())) {
      return ::testing::AssertionFailure()
             << "fsync_each head rolled back to acked commit " << acked_idx
             << " of " << log.acked.size();
    }
    return ::testing::AssertionSuccess();
  }

  // The head is not an acked commit: the only legitimate identity left is
  // the in-flight attempt — which must then be fully materialized.
  if (!log.inflight) {
    return ::testing::AssertionFailure()
           << "phantom head " << head->ToHex() << ": no commit in flight";
  }
  auto c = mgr.ReadCommit(*head);
  if (!c.ok()) {
    return ::testing::AssertionFailure()
           << "recovered head unreadable: " << c.status().ToString();
  }
  if (!(c->root == log.inflight->root)) {
    return ::testing::AssertionFailure()
           << "recovered head is neither an acked commit nor the in-flight "
              "attempt";
  }
  if (log.acked.empty()) {
    if (!c->parents.empty()) {
      return ::testing::AssertionFailure()
             << "in-flight head has a parent but nothing was acked";
    }
  } else if (c->parents.size() != 1 ||
             !(c->parents[0] == log.acked.back().commit)) {
    return ::testing::AssertionFailure()
           << "in-flight head does not chain on the last acked commit";
  }
  for (const NodeRecord& p : log.inflight->pages) {
    if (!store->Contains(p.hash)) {
      return ::testing::AssertionFailure()
             << "in-flight head is visible but its pages are not";
    }
  }
  return ::testing::AssertionSuccess();
}

// --- the sweep ----------------------------------------------------------

TEST(CrashSweepTest, EveryCrashPointRecoversConsistently) {
  const int commits = SweepCommits();
  int points = 0;
  int interrupted_runs = 0;
  for (const bool fsync_each : {true, false}) {
    // The op count of a clean run bounds the sweep.
    uint64_t total_ops = 0;
    {
      FaultEnv clean(io::Env::Default(), FaultEnv::Mode::kBuffered);
      WorkloadLog log =
          RunCommitWorkload(&clean, fsync_each, commits, "clean");
      ASSERT_EQ(log.acked.size(), static_cast<size_t>(commits))
          << log.stopped.ToString();
      total_ops = clean.op_count();
    }
    ASSERT_GE(total_ops, 40u);  // the sweep really visits the write path

    for (const auto fate : {CrashSpec::UnsyncedFate::kDrop,
                            CrashSpec::UnsyncedFate::kKeepPrefix}) {
      for (uint64_t k = 0; k <= total_ops; ++k) {
        SCOPED_TRACE("fsync_each=" + std::to_string(fsync_each) +
                     " fate=" + std::to_string(static_cast<int>(fate)) +
                     " crash_at=" + std::to_string(k));
        FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
        env.set_crash_at_op(k);
        WorkloadLog log = RunCommitWorkload(&env, fsync_each, commits, "swp");
        if (env.stats().power_cut_failures > 0) ++interrupted_runs;
        CrashSpec spec;
        spec.fate = fate;
        spec.seed = k + 1;
        env.Reboot(spec);
        EXPECT_TRUE(VerifyRecovery(&env, fsync_each, log));
        ++points;
      }
    }
  }
  // The acceptance floor: a real sweep, not a token one.
  EXPECT_GE(points, 50);
  EXPECT_GT(interrupted_runs, 0);
}

TEST(CrashSweepTest, ZeroByteCacheReopenReadsEveryPageThroughEnv) {
  // The same sweep, verified by a store that caches nothing: every page
  // and commit object the verifier checks is a positional read of the
  // recovered log through FaultEnv's random-access path.
  const int commits = SweepCommits();
  int points = 0;
  for (const bool fsync_each : {true, false}) {
    uint64_t total_ops = 0;
    {
      FaultEnv clean(io::Env::Default(), FaultEnv::Mode::kBuffered);
      WorkloadLog log =
          RunCommitWorkload(&clean, fsync_each, commits, "clean");
      ASSERT_EQ(log.acked.size(), static_cast<size_t>(commits))
          << log.stopped.ToString();
      total_ops = clean.op_count();
    }
    for (const auto fate : {CrashSpec::UnsyncedFate::kDrop,
                            CrashSpec::UnsyncedFate::kKeepPrefix}) {
      for (uint64_t k = 0; k <= total_ops; ++k) {
        SCOPED_TRACE("fsync_each=" + std::to_string(fsync_each) +
                     " fate=" + std::to_string(static_cast<int>(fate)) +
                     " crash_at=" + std::to_string(k));
        FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
        env.set_crash_at_op(k);
        WorkloadLog log = RunCommitWorkload(&env, fsync_each, commits, "tiny");
        CrashSpec spec;
        spec.fate = fate;
        spec.seed = k + 7;
        env.Reboot(spec);
        const uint64_t reads_before = env.read_count();
        EXPECT_TRUE(VerifyRecovery(&env, fsync_each, log,
                                   /*page_cache_bytes=*/0));
        if (!log.acked.empty()) {
          // 3 pages + the commit object per acked commit, all from the log.
          EXPECT_GE(env.read_count() - reads_before, 4 * log.acked.size());
        }
        ++points;
      }
    }
  }
  EXPECT_GE(points, 50);
}

// --- simultaneous torn tails (both logs at once) ------------------------

TEST(CrashSweepTest, TornTailsInBothLogsRecoverMutuallyConsistent) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  // fsync_each OFF: ref records are flushed, not fsynced, so the whole
  // record suffix is unsynced — the torn-tail generator's raw material.
  WorkloadLog log;
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
    BranchManager mgr(store);
    RefLog::Options ropts;
    ropts.env = &env;
    ASSERT_TRUE(mgr.AttachRefLog(kRefsPath, ropts).ok());
    for (int i = 0; i < 5; ++i) {
      CommitRecord rec;
      rec.pages = MakePages(i, "torn");
      rec.root = rec.pages.back().hash;
      store->PutMany(rec.pages);
      auto committed =
          mgr.CommitOnBranch(kBranch, rec.root, "harness", "torn-c" +
                                                               std::to_string(i));
      ASSERT_TRUE(committed.ok());
      rec.commit = *committed;
      log.acked.push_back(rec);
    }
    // One more batch appended but never flushed: unsynced page bytes.
    CommitRecord rec;
    rec.pages = MakePages(99, "torn");
    rec.root = rec.pages.back().hash;
    store->PutMany(rec.pages);
    log.inflight = rec;
  }

  // Pin a mid-record tear in BOTH files: the ref records are fixed-size
  // (same branch name every swing), so three-and-a-bit records lands the
  // head exactly on acked commit #2.
  const uint64_t refs_unsynced =
      *env.FileSize(kRefsPath) - *env.DurableSize(kRefsPath);
  ASSERT_EQ(refs_unsynced % 5, 0u) << "ref records unexpectedly ragged";
  const uint64_t per_record = refs_unsynced / 5;
  CrashSpec spec;
  spec.keep_unsynced[kPagesPath] = 9;  // mid-record garbage in the page log
  spec.keep_unsynced[kRefsPath] = 3 * per_record + 7;
  env.Reboot(spec);

  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
  BranchManager mgr(store);
  RefLog::Options ropts;
  ropts.env = &env;
  ASSERT_TRUE(mgr.AttachRefLog(kRefsPath, ropts).ok());

  // Both logs were genuinely torn and both truncated their tails.
  EXPECT_GE(store->recovered_truncations(), 1u);
  ASSERT_NE(mgr.ref_log(), nullptr);
  EXPECT_GE(mgr.ref_log()->recovered_truncations(), 1u);

  // The pair is mutually consistent: the head is exactly the last ref
  // record that survived whole, and everything it references is present.
  auto head = mgr.Head(kBranch);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, log.acked[2].commit);
  auto c = mgr.ReadCommit(*head);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->root, log.acked[2].root);
  for (const NodeRecord& p : log.acked[2].pages) {
    EXPECT_TRUE(store->Contains(p.hash));
  }
  // The full-invariant check agrees (head rollback is legal here: the
  // lost swings were never fsynced).
  EXPECT_TRUE(VerifyRecovery(&env, /*fsync_each=*/false, log));
}

// --- harness self-tests: reintroduced bugs must be caught ---------------

/// The double-crash scenario that exposes a missing parent-directory
/// fsync: crash #1 leaves a torn page log; reopening triggers the atomic
/// truncation rewrite (temp file + rename + SyncDir); more commits land
/// in the renamed inode; crash #2 rolls the directory back to the OLD
/// torn inode if the SyncDir never really happened — and every commit
/// fsynced into the new inode is gone.
::testing::AssertionResult RunDirFsyncScenario(bool drop_dir_syncs) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  WorkloadLog epoch1 =
      RunCommitWorkload(&env, /*fsync_each=*/true, 3, "epoch1");
  if (epoch1.acked.size() != 3) {
    return ::testing::AssertionFailure()
           << "epoch 1 did not complete: " << epoch1.stopped.ToString();
  }
  // Tear the page log: append one batch, never flush, cut keeping 7
  // garbage bytes past the durable prefix.
  {
    std::shared_ptr<FileNodeStore> store;
    Status s = FileNodeStore::Open(&env, kPagesPath, &store);
    if (!s.ok()) return ::testing::AssertionFailure() << s.ToString();
    store->PutMany(MakePages(50, "tear"));
  }
  CrashSpec crash1;
  crash1.keep_unsynced[kPagesPath] = 7;
  env.Reboot(crash1);

  // Epoch 2 reopens (running the truncation rewrite) and commits more —
  // with or without real directory fsyncs backing the rewrite's rename.
  env.set_drop_dir_syncs(drop_dir_syncs);
  WorkloadLog epoch2 =
      RunCommitWorkload(&env, /*fsync_each=*/true, 3, "epoch2");
  if (epoch2.acked.size() != 3) {
    return ::testing::AssertionFailure()
           << "epoch 2 did not complete: " << epoch2.stopped.ToString();
  }
  env.set_drop_dir_syncs(false);

  // Crash #2: nothing is in flight, so a correct stack loses nothing.
  env.Reboot();

  WorkloadLog combined;
  combined.acked = epoch1.acked;
  combined.acked.insert(combined.acked.end(), epoch2.acked.begin(),
                        epoch2.acked.end());
  return VerifyRecovery(&env, /*fsync_each=*/true, combined);
}

TEST(CrashHarnessSelfTest, CatchesMissingDirFsyncAfterRecoveryRewrite) {
  // With the fix in place the double crash loses nothing...
  EXPECT_TRUE(RunDirFsyncScenario(/*drop_dir_syncs=*/false));
  // ...and with the bug deliberately reintroduced the harness FAILS —
  // proving the sweep's dir-fsync coverage is real, not vacuous.
  EXPECT_FALSE(RunDirFsyncScenario(/*drop_dir_syncs=*/true));
}

TEST(CrashHarnessSelfTest, CatchesFsyncgateWhenStickyLatchDisabled) {
  // Sweep a single injected fsync failure across every op. The workload
  // retries each failed commit once with the same batch — the pattern
  // that loses data when the store forgets a failed fsync: the retry
  // dedups against resident-but-dropped pages and the next fsync
  // "succeeds" over a hole.
  const int commits = 4;
  uint64_t total_ops = 0;
  {
    FaultEnv clean(io::Env::Default(), FaultEnv::Mode::kBuffered);
    WorkloadLog log =
        RunCommitWorkload(&clean, /*fsync_each=*/true, commits, "fgate");
    ASSERT_EQ(log.acked.size(), static_cast<size_t>(commits));
    total_ops = clean.op_count();
  }

  for (const bool sticky : {true, false}) {
    bool caught = false;
    for (uint64_t k = 0; k < total_ops; ++k) {
      FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
      env.ScriptAt(k, {IoFaultKind::kSyncFail, 0});
      WorkloadLog log = RunCommitWorkload(&env, /*fsync_each=*/true, commits,
                                          "fgate", sticky,
                                          /*retry_failed_commit_once=*/true);
      env.Reboot();
      if (!VerifyRecovery(&env, /*fsync_each=*/true, log)) caught = true;
    }
    if (sticky) {
      // The latch holds: a store that failed an fsync never acks again,
      // so no sweep point can lose an acked commit.
      EXPECT_FALSE(caught) << "sticky latch failed to contain fsync failure";
    } else {
      // Report-once-and-forget: at least one sweep point acks a commit
      // whose pages the failed fsync already dropped — and the harness
      // sees the loss.
      EXPECT_TRUE(caught) << "harness missed the reintroduced fsyncgate bug";
    }
  }
}

// --- partial-append poisoning (the sticky-latch regression) -------------

TEST(StickyErrorTest, ShortWritePoisonsStoreAndTruncationStopsAtFirstTear) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
  const NodeBatch clean_batch = MakePages(0, "short");
  store->PutMany(clean_batch);
  ASSERT_TRUE(store->Flush().ok());

  // Tear the next batch's single log append mid-record.
  env.ScriptNext({IoFaultKind::kShortWrite, 11});
  const NodeBatch torn_batch = MakePages(1, "short");
  store->PutMany(torn_batch);
  EXPECT_FALSE(store->DiskStatus().ok());
  // Nothing of the torn batch became visible.
  for (const NodeRecord& p : torn_batch) {
    EXPECT_FALSE(store->Contains(p.hash));
  }

  // Poisoned means poisoned: no further op reaches the file, so no
  // record can land after the tear and bury it mid-file.
  const uint64_t ops = env.op_count();
  (void)store->Put(Slice("after-the-tear"));
  store->PutMany(MakePages(2, "short"));
  EXPECT_FALSE(store->Flush().ok());
  EXPECT_EQ(env.op_count(), ops);

  // Crash keeping ALL unsynced bytes (worst case: the torn prefix
  // survives verbatim); reopen truncates at the first tear and nothing
  // else.
  CrashSpec spec;
  spec.keep_unsynced[kPagesPath] = UINT64_MAX;
  env.Reboot(spec);
  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &reopened).ok());
  EXPECT_GE(reopened->recovered_truncations(), 1u);
  for (const NodeRecord& p : clean_batch) {
    EXPECT_TRUE(reopened->Contains(p.hash));
  }
  for (const NodeRecord& p : torn_batch) {
    EXPECT_FALSE(reopened->Contains(p.hash));
  }
  EXPECT_TRUE(reopened->DiskStatus().ok());  // reopen is the reset
}

TEST(StickyErrorTest, RefLogLatchesAfterFailedAppend) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  std::shared_ptr<RefLog> refs;
  RefLog::Options opts;
  opts.env = &env;
  ASSERT_TRUE(RefLog::Open(kRefsPath, opts, &refs).ok());
  const Hash h1 = Sha256::Digest(std::string("head-1"));
  ASSERT_TRUE(refs->Append("b", h1).ok());

  env.ScriptNext({IoFaultKind::kShortWrite, 5});
  EXPECT_FALSE(refs->Append("b", Sha256::Digest(std::string("head-2"))).ok());
  EXPECT_FALSE(refs->DiskStatus().ok());
  // Fail fast forever: no head record can land after a torn one.
  const uint64_t ops = env.op_count();
  EXPECT_FALSE(refs->Append("b", Sha256::Digest(std::string("head-3"))).ok());
  EXPECT_FALSE(refs->Sync().ok());
  EXPECT_EQ(env.op_count(), ops);

  // Recovery: the torn record truncates, the first head survives.
  CrashSpec spec;
  spec.keep_unsynced[kRefsPath] = UINT64_MAX;
  env.Reboot(spec);
  std::shared_ptr<RefLog> reopened;
  ASSERT_TRUE(RefLog::Open(kRefsPath, opts, &reopened).ok());
  EXPECT_GE(reopened->recovered_truncations(), 1u);
  auto it = reopened->recovered_heads().find("b");
  ASSERT_NE(it, reopened->recovered_heads().end());
  EXPECT_EQ(it->second, h1);
}

TEST(StickyErrorTest, EnospcIsStickyAndPublishIsNotAcked) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  WorkloadLog warm = RunCommitWorkload(&env, /*fsync_each=*/true, 1, "full");
  ASSERT_EQ(warm.acked.size(), 1u);

  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
  BranchManager mgr(store);
  RefLog::Options ropts;
  ropts.fsync_each = true;
  ropts.env = &env;
  ASSERT_TRUE(mgr.AttachRefLog(kRefsPath, ropts).ok());

  // The disk fills; the next commit's publish must NOT be acked.
  env.set_enospc_after_op(env.op_count());
  const NodeBatch batch = MakePages(5, "full");
  store->PutMany(batch);
  auto committed = mgr.CommitOnBranch(kBranch, batch.back().hash, "harness",
                                      "doomed");
  ASSERT_FALSE(committed.ok());
  EXPECT_TRUE(committed.status().IsResourceExhausted())
      << committed.status().ToString();
  EXPECT_TRUE(store->DiskStatus().IsResourceExhausted());
  auto head = mgr.Head(kBranch);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, warm.acked[0].commit);

  // Space coming back does not un-lie the store: the latch never resets.
  env.set_enospc_after_op(UINT64_MAX);
  EXPECT_TRUE(store->Flush().IsResourceExhausted());
  EXPECT_TRUE(store->DiskStatus().IsResourceExhausted());

  // Reopen IS the reset: a fresh handle on the freed disk works.
  std::shared_ptr<FileNodeStore> fresh;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &fresh).ok());
  EXPECT_TRUE(fresh->DiskStatus().ok());
}

TEST(StickyErrorTest, FailedFsyncNeverRetroactivelyClaimsDurability) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
  const NodeBatch batch = MakePages(0, "fsync");
  store->PutMany(batch);

  // The batch is one append op; the covering fsync is the very next
  // mutating op — fail the fsync itself.
  const uint64_t before = env.op_count();
  env.ScriptAt(before, {IoFaultKind::kSyncFail, 0});
  EXPECT_FALSE(store->Flush().ok());
  ASSERT_EQ(env.stats().sync_failures, 1u) << "script missed the fsync op";
  EXPECT_FALSE(store->DiskStatus().ok());

  // Even a flush whose appends all predate the failure fails fast — the
  // failed fsync may have discarded exactly those dirty bytes, so no
  // later OK may claim they are durable.
  EXPECT_FALSE(store->Flush().ok());
  env.Reboot();
  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &reopened).ok());
  for (const NodeRecord& p : batch) {
    EXPECT_FALSE(reopened->Contains(p.hash))
        << "unacked bytes resurrected as durable";
  }
}

// --- read faults: typed, never latched, never cached -----------------------

TEST(ReadFaultTest, ReadEioIsTypedAndDoesNotLatchTheWritePath) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store, 0).ok());
  const NodeBatch batch = MakePages(0, "eio");
  store->PutMany(batch);
  ASSERT_TRUE(store->Flush().ok());

  env.ScriptNextRead(IoFaultKind::kEIO);
  auto failed = store->Get(batch[0].hash);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(env.stats().eio, 1u);
  // A failed read says nothing about what was written: no latch.
  EXPECT_TRUE(store->DiskStatus().ok());
  const NodeBatch next = MakePages(1, "eio");
  store->PutMany(next);
  EXPECT_TRUE(store->Flush().ok());

  auto again = store->Get(batch[0].hash);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(**again, *batch[0].bytes);
}

TEST(ReadFaultTest, BitFlipIsCorruptionAndNeverCached) {
  FaultEnv env(io::Env::Default(), FaultEnv::Mode::kBuffered);
  const NodeBatch batch = MakePages(0, "flip");
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
    store->PutMany(batch);
    ASSERT_TRUE(store->Flush().ok());
  }
  // Reopened: the cache is cold, so the first read goes to the log.
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(&env, kPagesPath, &store).ok());
  env.ScriptNextRead(IoFaultKind::kBitFlip);
  auto flipped = store->Get(batch[0].hash);
  ASSERT_FALSE(flipped.ok());
  EXPECT_TRUE(flipped.status().IsCorruption()) << flipped.status().ToString();
  EXPECT_EQ(env.stats().bit_flips, 1u);
  EXPECT_EQ(store->page_cache_stats().resident_bytes, 0u);
  EXPECT_TRUE(store->DiskStatus().ok());
  EXPECT_TRUE(store->Contains(batch[0].hash));

  // The corrupt bytes were not cached: the next read goes back to the
  // log, gets clean bytes, and only those are cached.
  const uint64_t reads = env.read_count();
  auto clean = store->Get(batch[0].hash);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(**clean, *batch[0].bytes);
  EXPECT_EQ(env.read_count(), reads + 1);
  auto cached = store->Get(batch[0].hash);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(**cached, *batch[0].bytes);
  EXPECT_EQ(env.read_count(), reads + 1);  // a cache hit: no read
}

// --- server degradation over the real socket path -----------------------

class DegradedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<FaultEnv>(io::Env::Default(),
                                      FaultEnv::Mode::kBuffered);
    std::shared_ptr<FileNodeStore> fs;
    ASSERT_TRUE(FileNodeStore::Open(env_.get(), kPagesPath, &fs).ok());
    store_ = fs;
    servlet_ = std::make_unique<ForkbaseServlet>(store_);
    RefLog::Options ropts;
    ropts.env = env_.get();
    ASSERT_TRUE(servlet_->branches()->AttachRefLog(kRefsPath, ropts).ok());
    servlet_->RegisterIndex(std::make_unique<PosTree>(store_));
    net::ServerOptions opts;
    opts.worker_threads = 2;
    opts.group_flush_window_micros = 0;
    server_ = std::make_unique<net::SiriServer>(servlet_.get(), opts);
    ASSERT_TRUE(server_->Listen(0).ok());
    ASSERT_TRUE(server_->Start().ok());

    net::SocketTransport::Options topts;
    topts.rpc_timeout_ms = 10000;
    topts.retry.max_attempts = 8;
    topts.retry.backoff_init_ms = 2;
    topts.retry.backoff_max_ms = 20;
    ASSERT_TRUE(net::SocketTransport::Connect("127.0.0.1", server_->port(),
                                              &client_, topts)
                    .ok());
  }

  void TearDown() override { server_->Stop(); }

  std::unique_ptr<FaultEnv> env_;
  NodeStorePtr store_;
  std::unique_ptr<ForkbaseServlet> servlet_;
  std::unique_ptr<net::SiriServer> server_;
  std::shared_ptr<net::SocketTransport> client_;
};

TEST_F(DegradedServerTest, EnospcFlipsServerReadOnlyWithTypedRejects) {
  // Healthy baseline: one page and one published commit over the wire.
  auto resident = client_->Put(std::string("resident-page"));
  ASSERT_TRUE(resident.ok());
  PosTree index(store_);
  auto root1 = index.PutBatch(index.EmptyRoot(), MakeKvs(8));
  ASSERT_TRUE(root1.ok());
  net::PublishRequest pub1;
  pub1.structure = "pos";
  pub1.branch = kBranch;
  pub1.new_root = *root1;
  pub1.author = "crash";
  pub1.message = "healthy";
  auto head1 = client_->Publish(pub1);
  ASSERT_TRUE(head1.ok()) << head1.status().ToString();
  EXPECT_FALSE(server_->stats().degraded);

  // Build the next root while the disk is still healthy, then fill it.
  auto root2 = index.PutBatch(*root1, {{"crash/one-more", "v"}});
  ASSERT_TRUE(root2.ok());
  const uint64_t retries_before = client_->stats().retries;
  env_->set_enospc_after_op(env_->op_count());

  // The tripping publish: not acked, and the error arrives TYPED over the
  // wire — ResourceExhausted carrying the degraded-mode tag.
  net::PublishRequest pub2 = pub1;
  pub2.new_root = *root2;
  pub2.message = "doomed";
  pub2.expected_head = head1->head;
  auto published = client_->Publish(pub2);
  ASSERT_FALSE(published.ok());
  EXPECT_TRUE(published.status().IsResourceExhausted())
      << published.status().ToString();
  EXPECT_TRUE(net::IsDegradedReject(published.status()))
      << published.status().ToString();
  // A degraded reject is persistent — the client fails fast, no retry
  // storm against a full disk.
  EXPECT_EQ(client_->stats().retries, retries_before);

  // Writes of every flavor get the same typed reject...
  EXPECT_TRUE(client_->Put(std::string("rejected")).status()
                  .IsResourceExhausted());
  NodeBatch batch = MakePages(7, "rejected");
  EXPECT_TRUE(client_->PutMany(batch).IsResourceExhausted());
  EXPECT_TRUE(client_->Flush().IsResourceExhausted());

  // ...while reads keep serving resident state over the same connection.
  auto got = client_->Get(*resident);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, "resident-page");
  auto head = client_->Head(kBranch);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, head1->head);
  EXPECT_TRUE(client_->GetBranchStats(kBranch).ok());

  // The degradation is observable in server stats, with its cause.
  const auto st = server_->stats();
  EXPECT_TRUE(st.degraded);
  EXPECT_GE(st.degraded_rejects, 3u);
  EXPECT_NE(st.degraded_cause.find("enospc"), std::string::npos)
      << st.degraded_cause;

  // And the unacked publish is really not there: the head never moved.
  EXPECT_EQ(servlet_->branches()->branch_stats(kBranch).commits, 1u);
}

TEST_F(DegradedServerTest, EioOnFsyncDegradesWithUnavailableRejects) {
  auto resident = client_->Put(std::string("eio-resident"));
  ASSERT_TRUE(resident.ok());

  // Fail the fsync that the client's next Flush issues.
  env_->ScriptNext({IoFaultKind::kEIO, 0});
  const Status flushed = client_->Flush();
  ASSERT_FALSE(flushed.ok());
  EXPECT_TRUE(net::IsDegradedReject(flushed)) << flushed.ToString();

  // EIO is not out-of-space: the sticky cause maps to Unavailable.
  EXPECT_TRUE(client_->Put(std::string("x")).status().IsUnavailable());
  auto got = client_->Get(*resident);
  ASSERT_TRUE(got.ok());
  const auto st = server_->stats();
  EXPECT_TRUE(st.degraded);
  EXPECT_NE(st.degraded_cause.find("eio"), std::string::npos)
      << st.degraded_cause;
}

}  // namespace
}  // namespace siri
