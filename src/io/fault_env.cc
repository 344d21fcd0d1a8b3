// Copyright (c) 2026 The siri Authors. MIT license.

#include "io/fault_env.h"

#include <algorithm>

namespace siri {
namespace io {

const char* IoFaultKindName(IoFaultKind k) {
  switch (k) {
    case IoFaultKind::kNone:
      return "none";
    case IoFaultKind::kShortWrite:
      return "short-write";
    case IoFaultKind::kEIO:
      return "eio";
    case IoFaultKind::kENoSpc:
      return "enospc";
    case IoFaultKind::kSyncFail:
      return "sync-fail";
    case IoFaultKind::kPowerCut:
      return "power-cut";
    case IoFaultKind::kBitFlip:
      return "bit-flip";
  }
  return "unknown";
}

namespace {

Status InjectedError(IoFaultKind kind, const std::string& path) {
  const std::string what =
      std::string("injected ") + IoFaultKindName(kind) + ": " + path;
  if (kind == IoFaultKind::kENoSpc) return Status::ResourceExhausted(what);
  return Status::IOError(what);
}

}  // namespace

/// Write handle for both modes: `inode` set in buffered mode, `base` set
/// in passthrough mode. All policy lives in the env (which outlives its
/// handles the way a file system outlives file descriptors).
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultEnv* env, std::string path,
                    std::shared_ptr<FaultEnv::MemInode> inode,
                    std::unique_ptr<WritableFile> base)
      : env_(env),
        path_(std::move(path)),
        inode_(std::move(inode)),
        base_(std::move(base)) {}

  [[nodiscard]] Status Append(Slice data) override {
    if (inode_ != nullptr) return env_->BufferedAppend(inode_, path_, data);
    return env_->ForwardAppend(base_.get(), path_, data);
  }

  [[nodiscard]] Status Flush() override {
    if (inode_ != nullptr) return env_->BufferedFlush(path_);
    return env_->ForwardFlush(base_.get(), path_);
  }

  [[nodiscard]] Status Sync() override {
    if (inode_ != nullptr) return env_->BufferedSync(inode_, path_);
    return env_->ForwardSync(base_.get(), path_);
  }

 private:
  FaultEnv* const env_;
  const std::string path_;
  std::shared_ptr<FaultEnv::MemInode> inode_;
  std::unique_ptr<WritableFile> base_;
};

/// Positional read handle for both modes, shaped like FaultWritableFile:
/// `inode` set in buffered mode, `base` set in passthrough mode.
class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultEnv* env, std::string path,
                        std::shared_ptr<FaultEnv::MemInode> inode,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env),
        path_(std::move(path)),
        inode_(std::move(inode)),
        base_(std::move(base)) {}

  [[nodiscard]] Status Read(uint64_t offset, size_t n,
                            char* scratch) const override {
    return env_->ReadAt(inode_, base_.get(), path_, offset, n, scratch);
  }

 private:
  FaultEnv* const env_;
  const std::string path_;
  std::shared_ptr<FaultEnv::MemInode> inode_;
  std::unique_ptr<RandomAccessFile> base_;
};

namespace {

/// Reads from a snapshot taken at open — matching POSIX, where a reader
/// opened before later appends still sees a consistent byte stream.
class MemSequentialFile : public SequentialFile {
 public:
  explicit MemSequentialFile(std::string data) : data_(std::move(data)) {}

  [[nodiscard]] Result<uint64_t> Read(uint64_t n,
                                      std::string* scratch) override {
    const uint64_t got = std::min<uint64_t>(n, data_.size() - pos_);
    scratch->append(data_.data() + pos_, static_cast<size_t>(got));
    pos_ += static_cast<size_t>(got);
    return got;
  }

 private:
  std::string data_;
  size_t pos_ = 0;
};

}  // namespace

FaultEnv::FaultEnv(Env* base, Mode mode, uint64_t seed,
                   IoFaultRandomConfig config)
    : base_(base), mode_(mode), rng_(seed), config_(config) {}

void FaultEnv::ScriptAt(uint64_t index, IoFaultAction action) {
  MutexLock lock(mu_);
  script_[index] = action;
}

void FaultEnv::ScriptNext(IoFaultAction action) {
  MutexLock lock(mu_);
  script_[next_index_] = action;
}

void FaultEnv::ScriptReadAt(uint64_t index, IoFaultKind kind) {
  SIRI_CHECK((kind == IoFaultKind::kEIO || kind == IoFaultKind::kBitFlip) &&
             "read faults are EIO or a bit flip");
  MutexLock lock(mu_);
  read_script_[index] = kind;
}

void FaultEnv::ScriptNextRead(IoFaultKind kind) {
  SIRI_CHECK((kind == IoFaultKind::kEIO || kind == IoFaultKind::kBitFlip) &&
             "read faults are EIO or a bit flip");
  MutexLock lock(mu_);
  read_script_[next_read_] = kind;
}

void FaultEnv::set_crash_at_op(uint64_t index) {
  MutexLock lock(mu_);
  crash_at_ = index;
}

void FaultEnv::set_enospc_after_op(uint64_t index) {
  MutexLock lock(mu_);
  enospc_after_ = index;
}

void FaultEnv::set_drop_dir_syncs(bool on) {
  MutexLock lock(mu_);
  drop_dir_syncs_ = on;
}

void FaultEnv::set_sync_failure_drops_unsynced(bool on) {
  MutexLock lock(mu_);
  sync_failure_drops_unsynced_ = on;
}

FaultEnv::Stats FaultEnv::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

uint64_t FaultEnv::op_count() const {
  MutexLock lock(mu_);
  return next_index_;
}

uint64_t FaultEnv::read_count() const {
  MutexLock lock(mu_);
  return next_read_;
}

Result<uint64_t> FaultEnv::DurableSize(const std::string& path) {
  MutexLock lock(mu_);
  SIRI_CHECK(mode_ == Mode::kBuffered && "DurableSize is buffered-mode only");
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file " + path);
  return it->second->durable;
}

Status FaultEnv::PowerCutError() {
  return Status::IOError("simulated power cut");
}

IoFaultAction FaultEnv::NextActionLocked(bool is_append, bool is_sync,
                                         bool is_flush) {
  const uint64_t idx = next_index_++;
  ++stats_.ops;
  if (idx >= crash_at_) {
    ++stats_.power_cut_failures;
    return IoFaultAction{IoFaultKind::kPowerCut, 0};
  }
  if ((is_append || is_sync || is_flush) && idx >= enospc_after_) {
    ++stats_.injected;
    ++stats_.enospc;
    return IoFaultAction{IoFaultKind::kENoSpc, 0};
  }

  IoFaultAction action;
  auto it = script_.find(idx);
  if (it != script_.end()) {
    action = it->second;
  } else if (config_.fault_rate > 0.0 && rng_.Bernoulli(config_.fault_rate)) {
    // Draw among the enabled kinds that apply to this op.
    IoFaultKind candidates[4];
    int n = 0;
    if (is_append && config_.short_writes)
      candidates[n++] = IoFaultKind::kShortWrite;
    if (is_sync && config_.sync_failures)
      candidates[n++] = IoFaultKind::kSyncFail;
    if (config_.eio) candidates[n++] = IoFaultKind::kEIO;
    if (config_.enospc) candidates[n++] = IoFaultKind::kENoSpc;
    if (n > 0) action.kind = candidates[rng_.Uniform(static_cast<uint64_t>(n))];
  }

  switch (action.kind) {
    case IoFaultKind::kShortWrite:
      ++stats_.injected;
      ++stats_.short_writes;
      break;
    case IoFaultKind::kEIO:
      ++stats_.injected;
      ++stats_.eio;
      break;
    case IoFaultKind::kENoSpc:
      ++stats_.injected;
      ++stats_.enospc;
      break;
    case IoFaultKind::kSyncFail:
      ++stats_.injected;
      ++stats_.sync_failures;
      break;
    default:
      break;
  }
  return action;
}

// --- buffered-mode write path ---------------------------------------------

Status FaultEnv::BufferedAppend(const InodePtr& inode, const std::string& path,
                                Slice data) {
  MutexLock lock(mu_);
  const IoFaultAction a = NextActionLocked(true, false, false);
  switch (a.kind) {
    case IoFaultKind::kPowerCut:
      return PowerCutError();
    case IoFaultKind::kShortWrite: {
      const uint64_t torn = a.short_bytes == UINT64_MAX
                                ? data.size() / 2
                                : std::min<uint64_t>(a.short_bytes,
                                                     data.size());
      inode->data.append(data.data(), static_cast<size_t>(torn));
      return InjectedError(a.kind, path);
    }
    case IoFaultKind::kEIO:
    case IoFaultKind::kENoSpc:
      return InjectedError(a.kind, path);
    default:
      break;
  }
  inode->data.append(data.data(), data.size());
  return Status::OK();
}

Status FaultEnv::BufferedFlush(const std::string& path) {
  MutexLock lock(mu_);
  const IoFaultAction a = NextActionLocked(false, false, true);
  if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
  if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
  // No app-buffer layer in the model: appends already sit in the "OS
  // cache" (the inode), so a clean Flush has nothing to move.
  return Status::OK();
}

Status FaultEnv::BufferedSync(const InodePtr& inode, const std::string& path) {
  MutexLock lock(mu_);
  const IoFaultAction a = NextActionLocked(false, true, false);
  if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
  if (a.kind != IoFaultKind::kNone) {
    if (a.kind == IoFaultKind::kSyncFail && sync_failure_drops_unsynced_) {
      // The kernel-faithful part of fsyncgate: the error ALSO invalidates
      // the dirty pages, so the unsynced suffix is simply gone. A store
      // that shrugs and lets the next fsync "succeed" loses acked data —
      // which is exactly what the crash harness detects.
      inode->data.resize(static_cast<size_t>(inode->durable));
    }
    return InjectedError(a.kind, path);
  }
  inode->durable = inode->data.size();
  inode->created_durable = true;
  return Status::OK();
}

// --- passthrough-mode write path ------------------------------------------

Status FaultEnv::ForwardAppend(WritableFile* base, const std::string& path,
                               Slice data) {
  IoFaultAction a;
  {
    MutexLock lock(mu_);
    a = NextActionLocked(true, false, false);
  }
  switch (a.kind) {
    case IoFaultKind::kPowerCut:
      return PowerCutError();
    case IoFaultKind::kShortWrite: {
      const uint64_t torn = a.short_bytes == UINT64_MAX
                                ? data.size() / 2
                                : std::min<uint64_t>(a.short_bytes,
                                                     data.size());
      (void)base->Append(Slice(data.data(), static_cast<size_t>(torn)));
      return InjectedError(a.kind, path);
    }
    case IoFaultKind::kEIO:
    case IoFaultKind::kENoSpc:
      return InjectedError(a.kind, path);
    default:
      return base->Append(data);
  }
}

Status FaultEnv::ForwardFlush(WritableFile* base, const std::string& path) {
  IoFaultAction a;
  {
    MutexLock lock(mu_);
    a = NextActionLocked(false, false, true);
  }
  if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
  if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
  return base->Flush();
}

Status FaultEnv::ForwardSync(WritableFile* base, const std::string& path) {
  IoFaultAction a;
  {
    MutexLock lock(mu_);
    a = NextActionLocked(false, true, false);
  }
  if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
  if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
  return base->Sync();
}

// --- positional reads (both modes) ----------------------------------------

Status FaultEnv::ReadAt(const InodePtr& inode, const RandomAccessFile* base,
                        const std::string& path, uint64_t offset, size_t n,
                        char* scratch) {
  IoFaultKind fault = IoFaultKind::kNone;
  {
    MutexLock lock(mu_);
    const uint64_t idx = next_read_++;
    auto it = read_script_.find(idx);
    if (it != read_script_.end()) {
      fault = it->second;
      read_script_.erase(it);
      ++stats_.injected;
    }
    if (fault == IoFaultKind::kEIO) {
      ++stats_.eio;
      return InjectedError(fault, path);
    }
    if (fault == IoFaultKind::kBitFlip) ++stats_.bit_flips;
    if (inode != nullptr) {
      // The live inode, not the durable prefix: like a real OS cache,
      // bytes already appended are readable before they are synced.
      const std::string& data = inode->data;
      if (offset > data.size() || n > data.size() - offset) {
        return Status::IOError("pread " + path + ": unexpected end of file");
      }
      std::copy_n(data.data() + offset, n, scratch);
    }
  }
  if (inode == nullptr) {
    Status s = base->Read(offset, n, scratch);
    if (!s.ok()) return s;
  }
  if (fault == IoFaultKind::kBitFlip && n > 0) scratch[n / 2] ^= 0x01;
  return Status::OK();
}

// --- Env surface ----------------------------------------------------------

Status FaultEnv::NewWritableFile(const std::string& path, bool truncate,
                                 std::unique_ptr<WritableFile>* out) {
  if (mode_ == Mode::kPassthrough) {
    {
      MutexLock lock(mu_);
      const IoFaultAction a = NextActionLocked(false, false, false);
      if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
      if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
    }
    std::unique_ptr<WritableFile> base_file;
    Status s = base_->NewWritableFile(path, truncate, &base_file);
    if (!s.ok()) return s;
    *out = std::make_unique<FaultWritableFile>(this, path, nullptr,
                                               std::move(base_file));
    return Status::OK();
  }

  MutexLock lock(mu_);
  const IoFaultAction a = NextActionLocked(false, false, false);
  if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
  if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
  InodePtr inode;
  auto it = files_.find(path);
  if (it == files_.end() || truncate) {
    inode = std::make_shared<MemInode>();
    // Truncating an existing file keeps the directory entry's
    // durability; the fresh content is unsynced until the next Sync.
    if (it != files_.end()) inode->created_durable = it->second->created_durable;
    files_[path] = inode;
  } else {
    inode = it->second;
  }
  *out = std::make_unique<FaultWritableFile>(this, path, inode, nullptr);
  return Status::OK();
}

Status FaultEnv::NewSequentialFile(const std::string& path,
                                   std::unique_ptr<SequentialFile>* out) {
  if (mode_ == Mode::kPassthrough) return base_->NewSequentialFile(path, out);
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("cannot open " + path);
  *out = std::make_unique<MemSequentialFile>(it->second->data);
  return Status::OK();
}

Status FaultEnv::NewRandomAccessFile(const std::string& path,
                                     std::unique_ptr<RandomAccessFile>* out) {
  if (mode_ == Mode::kPassthrough) {
    std::unique_ptr<RandomAccessFile> base_file;
    Status s = base_->NewRandomAccessFile(path, &base_file);
    if (!s.ok()) return s;
    *out = std::make_unique<FaultRandomAccessFile>(this, path, nullptr,
                                                   std::move(base_file));
    return Status::OK();
  }
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("cannot open " + path);
  *out = std::make_unique<FaultRandomAccessFile>(this, path, it->second,
                                                 nullptr);
  return Status::OK();
}

bool FaultEnv::FileExists(const std::string& path) {
  if (mode_ == Mode::kPassthrough) return base_->FileExists(path);
  MutexLock lock(mu_);
  return files_.count(path) > 0;
}

Result<uint64_t> FaultEnv::FileSize(const std::string& path) {
  if (mode_ == Mode::kPassthrough) return base_->FileSize(path);
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("stat " + path);
  return static_cast<uint64_t>(it->second->data.size());
}

Status FaultEnv::DeleteFile(const std::string& path) {
  {
    MutexLock lock(mu_);
    const IoFaultAction a = NextActionLocked(false, false, false);
    if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
    if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
    if (mode_ == Mode::kBuffered) {
      // Deletes apply immediately and are not rolled back at a crash —
      // nothing in recovery relies on un-deleting (stale temp files are
      // truncated on their next use).
      if (files_.erase(path) == 0) {
        return Status::IOError("unlink " + path);
      }
      return Status::OK();
    }
  }
  return base_->DeleteFile(path);
}

Status FaultEnv::Rename(const std::string& from, const std::string& to) {
  {
    MutexLock lock(mu_);
    const IoFaultAction a = NextActionLocked(false, false, false);
    if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
    if (a.kind != IoFaultKind::kNone) {
      return InjectedError(a.kind, from + " -> " + to);
    }
    if (mode_ == Mode::kBuffered) {
      auto it = files_.find(from);
      if (it == files_.end()) {
        return Status::IOError("rename: no such file " + from);
      }
      PendingRename p;
      p.from = from;
      p.to = to;
      p.moved = it->second;
      auto jt = files_.find(to);
      if (jt != files_.end()) {
        p.displaced = jt->second;
        p.existed = true;
      }
      files_[to] = p.moved;
      files_.erase(from);
      // Applied to the live directory, durable only once SyncDir
      // commits it — a crash before that rolls the entry back.
      pending_.push_back(std::move(p));
      return Status::OK();
    }
  }
  return base_->Rename(from, to);
}

Status FaultEnv::SyncDir(const std::string& path) {
  {
    MutexLock lock(mu_);
    const IoFaultAction a = NextActionLocked(false, false, false);
    if (a.kind == IoFaultKind::kPowerCut) return PowerCutError();
    if (a.kind != IoFaultKind::kNone) return InjectedError(a.kind, path);
    if (drop_dir_syncs_) return Status::OK();  // the reintroduced bug
    if (mode_ == Mode::kBuffered) {
      for (PendingRename& p : pending_) {
        p.moved->created_durable = true;
      }
      pending_.clear();
      return Status::OK();
    }
  }
  return base_->SyncDir(path);
}

void FaultEnv::Reboot(const CrashSpec& spec) {
  MutexLock lock(mu_);
  SIRI_CHECK(mode_ == Mode::kBuffered && "Reboot is buffered-mode only");
  // Uncommitted directory updates roll back first (newest first, so
  // chained renames unwind correctly): the directory again points at the
  // inode it held before the rename — every Sync issued against the
  // moved inode covered bytes the directory no longer reaches.
  for (auto r = pending_.rbegin(); r != pending_.rend(); ++r) {
    files_[r->from] = r->moved;
    if (r->existed) {
      files_[r->to] = r->displaced;
    } else {
      files_.erase(r->to);
    }
  }
  pending_.clear();

  Rng cut_rng(spec.seed);
  for (auto it = files_.begin(); it != files_.end();) {
    MemInode& ino = *it->second;
    if (!ino.created_durable) {
      // Created but never synced: the directory entry itself was never
      // durable, so the file vanishes.
      it = files_.erase(it);
      continue;
    }
    const uint64_t unsynced = ino.data.size() - ino.durable;
    uint64_t keep_extra = 0;
    auto ov = spec.keep_unsynced.find(it->first);
    if (ov != spec.keep_unsynced.end()) {
      keep_extra = std::min(ov->second, unsynced);
    } else if (spec.fate == CrashSpec::UnsyncedFate::kKeepPrefix) {
      keep_extra = cut_rng.Uniform(unsynced + 1);
    }
    ino.data.resize(static_cast<size_t>(ino.durable + keep_extra));
    // What survived IS the stable-storage content now.
    ino.durable = ino.data.size();
    ++it;
  }
  crash_at_ = UINT64_MAX;
}

}  // namespace io
}  // namespace siri
