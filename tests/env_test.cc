// Copyright (c) 2026 The siri Authors. MIT license.
//
// Env seam unit tests: PosixEnv round trips, and the FaultEnv model the
// crash harness (crash_test.cc) stands on. The model tests matter as much
// as the store tests — a durability simulator that is too forgiving makes
// every crash-consistency result above it vacuous, so each guarantee the
// harness leans on (sync-covered prefixes, pending-rename rollback,
// created-never-synced files vanishing, fsync failure dropping dirty
// bytes) gets its own direct assertion here, as does the positional read
// path the page store's cache misses take (and its scripted read faults).

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>

#include "io/env.h"
#include "io/fault_env.h"

namespace siri {
namespace io {
namespace {

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/siri_env_" + std::to_string(getpid()) + "_" +
         stem;
}

Status WriteAll(Env* env, const std::string& path, const std::string& data,
                bool sync) {
  std::unique_ptr<WritableFile> f;
  Status s = env->NewWritableFile(path, /*truncate=*/true, &f);
  if (!s.ok()) return s;
  s = f->Append(data);
  if (!s.ok()) return s;
  return sync ? f->Sync() : f->Flush();
}

// --- PosixEnv ----------------------------------------------------------

TEST(PosixEnvTest, AppendFlushReadRoundTrip) {
  Env* env = Env::Default();
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteAll(env, path, "hello, disk", /*sync=*/false).ok());

  std::string back;
  ASSERT_TRUE(env->ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "hello, disk");
  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, back.size());
  EXPECT_TRUE(env->FileExists(path));
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(PosixEnvTest, AppendModeExtendsExistingFile) {
  Env* env = Env::Default();
  const std::string path = TempPath("append");
  ASSERT_TRUE(WriteAll(env, path, "one", /*sync=*/true).ok());
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewWritableFile(path, /*truncate=*/false, &f).ok());
    ASSERT_TRUE(f->Append("+two").ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  std::string back;
  ASSERT_TRUE(env->ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "one+two");
  ASSERT_TRUE(env->DeleteFile(path).ok());
}

TEST(PosixEnvTest, RenameAndSyncDirReplacesAtomically) {
  Env* env = Env::Default();
  const std::string from = TempPath("rename_from");
  const std::string to = TempPath("rename_to");
  ASSERT_TRUE(WriteAll(env, from, "new contents", /*sync=*/true).ok());
  ASSERT_TRUE(WriteAll(env, to, "old contents", /*sync=*/true).ok());
  ASSERT_TRUE(env->RenameAndSyncDir(from, to).ok());
  EXPECT_FALSE(env->FileExists(from));
  std::string back;
  ASSERT_TRUE(env->ReadFileToString(to, &back).ok());
  EXPECT_EQ(back, "new contents");
  ASSERT_TRUE(env->DeleteFile(to).ok());
}

TEST(PosixEnvTest, MissingFileErrorsAreTyped) {
  Env* env = Env::Default();
  const std::string path = TempPath("missing");
  std::string back;
  EXPECT_FALSE(env->ReadFileToString(path, &back).ok());
  EXPECT_FALSE(env->FileSize(path).ok());
  EXPECT_FALSE(env->DeleteFile(path).ok());
  std::unique_ptr<SequentialFile> f;
  EXPECT_FALSE(env->NewSequentialFile(path, &f).ok());
}

// --- FaultEnv scripting -------------------------------------------------

TEST(FaultEnvTest, ScriptedFaultPinsExactMutatingOp) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());  // op 0
  env.ScriptAt(2, {IoFaultKind::kEIO, 0});
  EXPECT_TRUE(f->Append("a").ok());        // op 1
  const Status s = f->Append("b");         // op 2: injected
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected eio"), std::string::npos);
  EXPECT_TRUE(f->Append("c").ok());        // op 3: clean again
  const auto st = env.stats();
  EXPECT_EQ(st.ops, 4u);
  EXPECT_EQ(st.injected, 1u);
  EXPECT_EQ(st.eio, 1u);
}

TEST(FaultEnvTest, EnospcIsTypedResourceExhausted) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  env.ScriptNext({IoFaultKind::kENoSpc, 0});
  const Status s = f->Append("x");
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
}

TEST(FaultEnvTest, EnospcAfterOpHitsOnlyWritePathOps) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  env.set_enospc_after_op(env.op_count());
  // The full disk refuses new bytes and durability points...
  EXPECT_TRUE(f->Append("more").IsResourceExhausted());
  EXPECT_TRUE(f->Flush().IsResourceExhausted());
  EXPECT_TRUE(f->Sync().IsResourceExhausted());
  // ...but metadata ops (rename, dir fsync) still work: recovery can
  // still run its atomic-replace dance on a full disk.
  EXPECT_TRUE(env.Rename("f", "g").ok());
  EXPECT_TRUE(env.SyncDir("g").ok());
}

TEST(FaultEnvTest, ShortWriteTearsAppendTail) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  env.ScriptNext({IoFaultKind::kShortWrite, 3});
  EXPECT_FALSE(f->Append("0123456789").ok());
  auto size = env.FileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 3u);  // exactly the scripted torn prefix
}

TEST(FaultEnvTest, ReadsNeverConsumeOpIndices) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  ASSERT_TRUE(f->Append("abc").ok());
  const uint64_t ops = env.op_count();
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("f", &back).ok());
  EXPECT_TRUE(env.FileExists("f"));
  ASSERT_TRUE(env.FileSize("f").ok());
  ASSERT_TRUE(env.DurableSize("f").ok());
  // Crash points stay stable no matter how often verification re-reads.
  EXPECT_EQ(env.op_count(), ops);
}

// --- buffered durability model ------------------------------------------

TEST(FaultEnvTest, SyncAdvancesDurablePrefix) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  ASSERT_TRUE(f->Append("synced").ok());
  EXPECT_EQ(*env.DurableSize("f"), 0u);
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(*env.DurableSize("f"), 6u);
  ASSERT_TRUE(f->Append("+dirty").ok());
  EXPECT_EQ(*env.DurableSize("f"), 6u);  // Flush is not durability
  ASSERT_TRUE(f->Flush().ok());
  EXPECT_EQ(*env.DurableSize("f"), 6u);

  env.Reboot();  // default: drop everything unsynced
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("f", &back).ok());
  EXPECT_EQ(back, "synced");
}

TEST(FaultEnvTest, CreatedButNeverSyncedFileVanishesAtPowerCut) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("ghost", false, &f).ok());
  ASSERT_TRUE(f->Append("never synced").ok());
  ASSERT_TRUE(f->Flush().ok());
  env.Reboot();
  EXPECT_FALSE(env.FileExists("ghost"));
}

TEST(FaultEnvTest, KeepPrefixCutIsSeededAndOverridable) {
  auto build = [](FaultEnv* env) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewWritableFile("f", false, &f).ok());
    ASSERT_TRUE(f->Append("durable|").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Append("0123456789").ok());
  };
  // Same seed, same cut.
  uint64_t sizes[2];
  for (int i = 0; i < 2; ++i) {
    FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
    build(&env);
    CrashSpec spec;
    spec.fate = CrashSpec::UnsyncedFate::kKeepPrefix;
    spec.seed = 7;
    env.Reboot(spec);
    sizes[i] = *env.FileSize("f");
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_GE(sizes[0], 8u);   // the synced prefix always survives
  EXPECT_LE(sizes[0], 18u);  // never more than was ever written

  // The per-path override pins the tear exactly (and clamps).
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  build(&env);
  CrashSpec spec;
  spec.keep_unsynced["f"] = 4;
  env.Reboot(spec);
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("f", &back).ok());
  EXPECT_EQ(back, "durable|0123");
}

TEST(FaultEnvTest, FailedSyncDropsUnsyncedBytes) {
  // The kernel-faithful fsyncgate model: the error also invalidates the
  // dirty pages, so a later "successful" fsync covers nothing.
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());
  ASSERT_TRUE(f->Append("durable|").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("doomed").ok());
  env.ScriptNext({IoFaultKind::kSyncFail, 0});
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_EQ(*env.FileSize("f"), 8u);  // "doomed" is gone, not pending
  ASSERT_TRUE(f->Sync().ok());        // the deceitful retry "succeeds"
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("f", &back).ok());
  EXPECT_EQ(back, "durable|");
}

// --- rename + directory-fsync model -------------------------------------

TEST(FaultEnvTest, UncommittedRenameRollsBackAtPowerCut) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  ASSERT_TRUE(WriteAll(&env, "old", "OLD", /*sync=*/true).ok());
  ASSERT_TRUE(WriteAll(&env, "new", "NEW", /*sync=*/true).ok());
  ASSERT_TRUE(env.Rename("new", "old").ok());
  // Live directory sees the replacement immediately...
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("old", &back).ok());
  EXPECT_EQ(back, "NEW");
  // ...but without a SyncDir the power cut rolls the entry back.
  env.Reboot();
  back.clear();
  ASSERT_TRUE(env.ReadFileToString("old", &back).ok());
  EXPECT_EQ(back, "OLD");
  ASSERT_TRUE(env.ReadFileToString("new", &back).ok());  // restored too
}

TEST(FaultEnvTest, SyncDirCommitsRenameAcrossPowerCut) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  ASSERT_TRUE(WriteAll(&env, "old", "OLD", /*sync=*/true).ok());
  ASSERT_TRUE(WriteAll(&env, "new", "NEW", /*sync=*/true).ok());
  ASSERT_TRUE(env.RenameAndSyncDir("new", "old").ok());
  env.Reboot();
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("old", &back).ok());
  EXPECT_EQ(back, "NEW");
  EXPECT_FALSE(env.FileExists("new"));
}

TEST(FaultEnvTest, DroppedDirSyncReportsOkButCommitsNothing) {
  // The reintroduced missing-parent-dir-fsync bug: SyncDir lies. The
  // caller sees OK, the crash sees an uncommitted rename.
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  ASSERT_TRUE(WriteAll(&env, "old", "OLD", /*sync=*/true).ok());
  ASSERT_TRUE(WriteAll(&env, "new", "NEW", /*sync=*/true).ok());
  env.set_drop_dir_syncs(true);
  ASSERT_TRUE(env.RenameAndSyncDir("new", "old").ok());
  env.Reboot();
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("old", &back).ok());
  EXPECT_EQ(back, "OLD");
}

// --- power cut as an op-indexed fault ------------------------------------

TEST(FaultEnvTest, CrashAtOpFailsEveryMutatingOpUntilReboot) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", false, &f).ok());  // op 0
  ASSERT_TRUE(f->Append("a").ok());                       // op 1
  ASSERT_TRUE(f->Sync().ok());                            // op 2
  env.set_crash_at_op(3);
  EXPECT_FALSE(f->Append("b").ok());  // op 3: lights out
  EXPECT_FALSE(f->Flush().ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(env.Rename("f", "g").ok());
  EXPECT_GE(env.stats().power_cut_failures, 4u);
  env.Reboot();
  std::unique_ptr<WritableFile> g;
  ASSERT_TRUE(env.NewWritableFile("f", false, &g).ok());
  ASSERT_TRUE(g->Append("c").ok());  // back up after reboot
  std::string back;
  ASSERT_TRUE(env.ReadFileToString("f", &back).ok());
  EXPECT_EQ(back, "ac");
}

TEST(FaultEnvTest, RandomModeIsReproducibleFromSeed) {
  IoFaultRandomConfig cfg;
  cfg.fault_rate = 0.5;
  uint64_t injected[2];
  for (int i = 0; i < 2; ++i) {
    FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered, /*seed=*/42, cfg);
    std::unique_ptr<WritableFile> f;
    // At rate 0.5 the open itself may draw a fault; retrying stays
    // deterministic because the stream position is part of the state.
    while (!env.NewWritableFile("f", false, &f).ok()) {
    }
    for (int op = 0; op < 128; ++op) {
      (void)f->Append("x");
      (void)f->Sync();
    }
    injected[i] = env.stats().injected;
  }
  EXPECT_EQ(injected[0], injected[1]);
  EXPECT_GT(injected[0], 32u);  // rate 0.5 over 256 draws
  EXPECT_LT(injected[0], 224u);
}

TEST(FaultEnvTest, PassthroughModeInjectsOverARealFile) {
  const std::string path = TempPath("passthrough");
  FaultEnv env(Env::Default(), FaultEnv::Mode::kPassthrough);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(path, /*truncate=*/true, &f).ok());
  ASSERT_TRUE(f->Append("real-bytes").ok());
  ASSERT_TRUE(f->Sync().ok());
  env.ScriptNext({IoFaultKind::kENoSpc, 0});
  EXPECT_TRUE(f->Append("rejected").IsResourceExhausted());
  f.reset();
  std::string back;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "real-bytes");  // the injected op forwarded nothing
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

// --- positional reads -----------------------------------------------------

std::string ReadAt(const RandomAccessFile& f, uint64_t offset, size_t n,
                   Status* status) {
  std::string out(n, '\0');
  *status = f.Read(offset, n, out.data());
  return out;
}

TEST(PosixEnvTest, RandomAccessReadsAtOffsetsAndTypesShortReads) {
  Env* env = Env::Default();
  const std::string path = TempPath("random_access");
  ASSERT_TRUE(WriteAll(env, path, "0123456789", /*sync=*/true).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &f).ok());
  Status s;
  EXPECT_EQ(ReadAt(*f, 3, 4, &s), "3456");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ReadAt(*f, 0, 10, &s), "0123456789");
  EXPECT_TRUE(s.ok());
  ReadAt(*f, 8, 5, &s);  // runs past the end of the file
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  std::unique_ptr<RandomAccessFile> missing;
  EXPECT_TRUE(env->NewRandomAccessFile(TempPath("absent"), &missing)
                  .IsIOError());
  ASSERT_TRUE(env->DeleteFile(path).ok());
}

// An Env that decorates only the write path (forwarding the pure
// virtuals) still reads: NewRandomAccessFile defaults to POSIX.
class WritePathOnlyEnv : public Env {
 public:
  Status NewWritableFile(const std::string& path, bool truncate,
                         std::unique_ptr<WritableFile>* out) override {
    return Default()->NewWritableFile(path, truncate, out);
  }
  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    return Default()->NewSequentialFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return Default()->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return Default()->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return Default()->DeleteFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Default()->Rename(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return Default()->SyncDir(path);
  }
};

TEST(PosixEnvTest, DecoratorInheritsPosixRandomAccess) {
  WritePathOnlyEnv env;
  const std::string path = TempPath("decorated");
  ASSERT_TRUE(WriteAll(&env, path, "decorated bytes", /*sync=*/true).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile(path, &f).ok());
  Status s;
  EXPECT_EQ(ReadAt(*f, 10, 5, &s), "bytes");
  EXPECT_TRUE(s.ok());
  ASSERT_TRUE(env.DeleteFile(path).ok());
}

TEST(FaultEnvTest, RandomAccessReadsLiveInodeWithoutConsumingOpIndices) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("f", false, &w).ok());
  ASSERT_TRUE(w->Append("unsynced").ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  const uint64_t ops = env.op_count();
  Status s;
  // Appended bytes sit in the model's "OS cache": readable before a Sync.
  EXPECT_EQ(ReadAt(*f, 2, 4, &s), "sync");
  EXPECT_TRUE(s.ok());
  ASSERT_TRUE(w->Append("+more").ok());
  EXPECT_EQ(ReadAt(*f, 8, 5, &s), "+more");  // the live inode, not a snapshot
  EXPECT_TRUE(s.ok());
  ReadAt(*f, 10, 10, &s);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(env.op_count(), ops + 1);  // only the second Append
  EXPECT_EQ(env.read_count(), 3u);
  std::unique_ptr<RandomAccessFile> missing;
  EXPECT_TRUE(env.NewRandomAccessFile("absent", &missing).IsIOError());
}

TEST(FaultEnvTest, ScriptedReadFaultsHitExactReads) {
  FaultEnv env(Env::Default(), FaultEnv::Mode::kBuffered);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("f", false, &w).ok());
  ASSERT_TRUE(w->Append("abcdefgh").ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  env.ScriptReadAt(1, IoFaultKind::kEIO);
  env.ScriptReadAt(2, IoFaultKind::kBitFlip);
  Status s;
  EXPECT_EQ(ReadAt(*f, 0, 8, &s), "abcdefgh");  // read 0: clean
  EXPECT_TRUE(s.ok());
  ReadAt(*f, 0, 8, &s);  // read 1: EIO
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  const std::string flipped = ReadAt(*f, 0, 8, &s);  // read 2: bit flip
  EXPECT_TRUE(s.ok());
  ASSERT_EQ(flipped.size(), 8u);
  int bits = 0;
  for (size_t i = 0; i < flipped.size(); ++i) {
    bits += __builtin_popcount(static_cast<unsigned char>(flipped[i] ^
                                                          "abcdefgh"[i]));
  }
  EXPECT_EQ(bits, 1);
  EXPECT_EQ(ReadAt(*f, 0, 8, &s), "abcdefgh");  // read 3: clean again
  EXPECT_TRUE(s.ok());
  const FaultEnv::Stats st = env.stats();
  EXPECT_EQ(env.read_count(), 4u);
  EXPECT_EQ(st.eio, 1u);
  EXPECT_EQ(st.bit_flips, 1u);
  EXPECT_EQ(st.injected, 2u);
  EXPECT_EQ(st.ops, 2u);  // NewWritableFile + Append; reads are not ops
}

TEST(FaultEnvTest, PassthroughRandomAccessInjectsOverARealFile) {
  const std::string path = TempPath("passthrough_read");
  ASSERT_TRUE(WriteAll(Env::Default(), path, "real-bytes", true).ok());
  FaultEnv env(Env::Default(), FaultEnv::Mode::kPassthrough);
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile(path, &f).ok());
  env.ScriptNextRead(IoFaultKind::kEIO);
  Status s;
  ReadAt(*f, 0, 4, &s);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(ReadAt(*f, 5, 5, &s), "bytes");
  EXPECT_TRUE(s.ok());
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
}

}  // namespace
}  // namespace io
}  // namespace siri
