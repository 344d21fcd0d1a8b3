// Copyright (c) 2026 The siri Authors. MIT license.
//
// FaultEnv — deterministic disk-fault injection behind the io::Env seam,
// the storage twin of net::FaultInjector. Every *mutating* file-system
// operation (Append / Flush / Sync / Rename / SyncDir / DeleteFile /
// NewWritableFile) consumes one op index; a fault can be scripted at an
// exact index (ScriptAt) or drawn from a seeded distribution per op, so
// every failure site in the store's write path is reachable
// deterministically. Reads never consume those indices — crash points
// stay stable across verification re-reads. Positional reads
// (NewRandomAccessFile) count on a separate read index instead, where a
// test can script an EIO or a silent bit flip (ScriptReadAt).
//
// Two modes:
//
//   - kPassthrough: wraps a real Env (e.g. Env::Default()); injected
//     faults short-circuit or sabotage individual calls while clean ops
//     forward to the base. The fig06 ENOSPC smoke and the server
//     degradation tests run this way over a real file (or over a
//     buffered FaultEnv — FaultEnv wraps any Env).
//
//   - kBuffered: a full in-memory file system with a durability model.
//     Each file (inode) tracks the prefix covered by a completed Sync;
//     renames apply immediately but stay *pending* until a SyncDir
//     commits them. Reboot(spec) simulates a power cut: pending renames
//     roll back, and each file's unsynced suffix is dropped (kDrop) or
//     cut at a seeded random byte (kKeepPrefix — the torn-tail
//     generator). What survives is exactly what a real disk guarantees:
//     synced bytes behind committed directory entries, nothing more.
//
// Faithful-failure details the harness leans on:
//   - a failed Sync DROPS the unsynced bytes (kernels mark dirty pages
//     clean on fsync error — the fsyncgate class), so a store that
//     forgets the failure and lets a later fsync "succeed" visibly loses
//     acked data;
//   - set_drop_dir_syncs(true) makes SyncDir succeed without committing
//     pending renames — the deliberately reintroduced missing-dir-fsync
//     bug the crash harness must catch;
//   - file creation becomes durable at the file's first completed Sync
//     (journaling-fs approximation); a created-but-never-synced file
//     vanishes at the cut.

#ifndef SIRI_IO_FAULT_ENV_H_
#define SIRI_IO_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "io/env.h"

namespace siri {
namespace io {

enum class IoFaultKind : uint8_t {
  kNone = 0,
  /// Append writes only a prefix of the data (a torn record at the file
  /// tail), then fails with IOError.
  kShortWrite,
  /// The op fails with IOError; an Append writes nothing.
  kEIO,
  /// The op fails with ResourceExhausted (out of space); nothing written.
  kENoSpc,
  /// Sync fails with IOError. In buffered mode the unsynced suffix is
  /// dropped immediately (dirty pages marked clean then lost) — see
  /// set_sync_failure_drops_unsynced.
  kSyncFail,
  /// Power cut: this op and every later mutating op fail until Reboot().
  kPowerCut,
  /// Positional reads only: the read succeeds but one bit of the returned
  /// bytes is flipped (silent media corruption).
  kBitFlip,
};

const char* IoFaultKindName(IoFaultKind k);

struct IoFaultAction {
  IoFaultKind kind = IoFaultKind::kNone;
  /// kShortWrite only: bytes of the append actually written before the
  /// failure. UINT64_MAX (default) tears at half the data.
  uint64_t short_bytes = UINT64_MAX;
};

/// Random-mode configuration: each non-scripted mutating op draws one
/// fault with probability `fault_rate`, choosing among the kinds enabled
/// here that apply to the op (short writes only tear Appends, sync
/// failures only hit Syncs). Scripted entries win at their index.
struct IoFaultRandomConfig {
  double fault_rate = 0.0;
  bool short_writes = true;
  bool eio = true;
  bool enospc = true;
  bool sync_failures = true;
};

/// How a power cut treats bytes not covered by a completed Sync.
struct CrashSpec {
  enum class UnsyncedFate : uint8_t {
    kDrop,        ///< cut exactly at the synced prefix
    kKeepPrefix,  ///< keep a seeded-random prefix of the unsynced suffix
  };
  UnsyncedFate fate = UnsyncedFate::kDrop;
  uint64_t seed = 1;  ///< kKeepPrefix: per-file keep-length draw
  /// Explicit per-path override: exactly this many unsynced bytes
  /// survive (clamped). Lets a test pin torn tails in BOTH logs at once.
  std::map<std::string, uint64_t> keep_unsynced;
};

class FaultEnv : public Env {
 public:
  enum class Mode : uint8_t { kPassthrough, kBuffered };

  explicit FaultEnv(Env* base = Env::Default(),
                    Mode mode = Mode::kPassthrough, uint64_t seed = 1,
                    IoFaultRandomConfig config = IoFaultRandomConfig());

  // --- fault scripting ----------------------------------------------------

  /// Pins \p action at mutating-op \p index (0-based, lifetime-counted).
  void ScriptAt(uint64_t index, IoFaultAction action) EXCLUDES(mu_);
  /// Pins \p action at the next op index not yet consumed.
  void ScriptNext(IoFaultAction action) EXCLUDES(mu_);

  /// Pins a read fault at positional-read \p index (0-based, counted
  /// over every RandomAccessFile this env opened): kEIO fails the read
  /// with IOError, kBitFlip returns the bytes with one bit flipped.
  void ScriptReadAt(uint64_t index, IoFaultKind kind) EXCLUDES(mu_);
  /// Pins \p kind at the next positional read.
  void ScriptNextRead(IoFaultKind kind) EXCLUDES(mu_);

  /// Every mutating op with index >= \p index fails as a power cut
  /// (buffered mode; cleared by Reboot). The crash-sweep knob.
  void set_crash_at_op(uint64_t index) EXCLUDES(mu_);

  /// Every Append/Flush/Sync op with index >= \p index fails with
  /// ResourceExhausted — a disk that filled up and stays full. Works in
  /// both modes (the ENOSPC degradation knob).
  void set_enospc_after_op(uint64_t index) EXCLUDES(mu_);

  // --- power-cut machinery (kBuffered only) -------------------------------

  /// Applies the durability cut of \p spec — rolls back uncommitted
  /// renames, truncates every file to its surviving bytes, marks the
  /// survivors durable — and brings the file system back up (clears the
  /// crash point). The next open sees exactly what a real disk would
  /// show after power loss.
  void Reboot(const CrashSpec& spec = CrashSpec()) EXCLUDES(mu_);

  // --- bug-reintroduction hooks (harness self-tests) ----------------------

  /// SyncDir reports OK without committing pending renames: the
  /// missing-parent-dir-fsync bug, as a switch. The crash harness must
  /// fail when this is on.
  void set_drop_dir_syncs(bool on) EXCLUDES(mu_);

  /// Whether an injected Sync failure drops the unsynced bytes (default
  /// true, the kernel-faithful model). Buffered mode only.
  void set_sync_failure_drops_unsynced(bool on) EXCLUDES(mu_);

  // --- observability ------------------------------------------------------

  struct Stats {
    uint64_t ops = 0;       ///< mutating ops observed
    uint64_t injected = 0;  ///< ops sabotaged (any kind)
    uint64_t short_writes = 0;
    uint64_t eio = 0;
    uint64_t enospc = 0;
    uint64_t sync_failures = 0;
    uint64_t power_cut_failures = 0;
    uint64_t bit_flips = 0;  ///< positional reads returned with a flipped bit
  };
  Stats stats() const EXCLUDES(mu_);
  uint64_t op_count() const EXCLUDES(mu_);
  /// Positional reads observed so far (the next read's index).
  uint64_t read_count() const EXCLUDES(mu_);

  /// Bytes of \p path covered by a completed Sync (buffered mode).
  Result<uint64_t> DurableSize(const std::string& path) EXCLUDES(mu_);

  // --- Env ----------------------------------------------------------------

  [[nodiscard]] Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<WritableFile>* out) override EXCLUDES(mu_);
  [[nodiscard]] Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<SequentialFile>* out) override EXCLUDES(mu_);
  /// Buffered mode reads the live in-memory inode (what the OS cache
  /// would serve); passthrough forwards to the base env. Both apply the
  /// scripted read faults.
  [[nodiscard]] Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* out) override EXCLUDES(mu_);
  bool FileExists(const std::string& path) override EXCLUDES(mu_);
  [[nodiscard]] Result<uint64_t> FileSize(const std::string& path) override
      EXCLUDES(mu_);
  [[nodiscard]] Status DeleteFile(const std::string& path) override
      EXCLUDES(mu_);
  [[nodiscard]] Status Rename(const std::string& from,
                              const std::string& to) override EXCLUDES(mu_);
  [[nodiscard]] Status SyncDir(const std::string& path) override EXCLUDES(mu_);

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  /// One in-memory file. `durable` is the prefix a completed Sync
  /// covers; `created_durable` says the directory entry itself survives
  /// a crash (set by the first completed Sync).
  struct MemInode {
    std::string data;
    uint64_t durable = 0;
    bool created_durable = false;
  };
  using InodePtr = std::shared_ptr<MemInode>;

  /// A rename applied to the directory but not yet committed by SyncDir.
  /// Rolled back (in reverse order) at a power cut.
  struct PendingRename {
    std::string from;
    std::string to;
    InodePtr moved;       ///< inode now at `to`
    InodePtr displaced;   ///< inode previously at `to` (null if none)
    bool existed = false; ///< whether `to` had an entry before
  };

  /// Draws the action for the current mutating op and consumes one
  /// index. \p is_append / \p is_sync restrict which random kinds apply.
  IoFaultAction NextActionLocked(bool is_append, bool is_sync,
                                 bool is_flush) REQUIRES(mu_);
  Status PowerCutError();

  // Buffered-mode backends called by FaultWritableFile.
  Status BufferedAppend(const InodePtr& inode, const std::string& path,
                        Slice data) EXCLUDES(mu_);
  Status BufferedFlush(const std::string& path) EXCLUDES(mu_);
  Status BufferedSync(const InodePtr& inode, const std::string& path)
      EXCLUDES(mu_);
  // Passthrough-mode backends (consult the injector, then forward).
  Status ForwardAppend(WritableFile* base, const std::string& path,
                       Slice data) EXCLUDES(mu_);
  Status ForwardFlush(WritableFile* base, const std::string& path)
      EXCLUDES(mu_);
  Status ForwardSync(WritableFile* base, const std::string& path)
      EXCLUDES(mu_);
  // Positional read for both modes: from \p inode when set, else from
  // \p base; consumes one read index.
  Status ReadAt(const InodePtr& inode, const RandomAccessFile* base,
                const std::string& path, uint64_t offset, size_t n,
                char* scratch) EXCLUDES(mu_);

  Env* const base_;
  const Mode mode_;

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  IoFaultRandomConfig config_ GUARDED_BY(mu_);
  uint64_t next_index_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, IoFaultAction> script_ GUARDED_BY(mu_);
  uint64_t next_read_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, IoFaultKind> read_script_ GUARDED_BY(mu_);
  uint64_t crash_at_ GUARDED_BY(mu_) = UINT64_MAX;
  uint64_t enospc_after_ GUARDED_BY(mu_) = UINT64_MAX;
  bool drop_dir_syncs_ GUARDED_BY(mu_) = false;
  bool sync_failure_drops_unsynced_ GUARDED_BY(mu_) = true;
  Stats stats_ GUARDED_BY(mu_);

  // Buffered-mode file system.
  std::map<std::string, InodePtr> files_ GUARDED_BY(mu_);
  std::vector<PendingRename> pending_ GUARDED_BY(mu_);
};

}  // namespace io
}  // namespace siri

#endif  // SIRI_IO_FAULT_ENV_H_
