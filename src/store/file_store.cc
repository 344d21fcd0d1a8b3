// Copyright (c) 2026 The siri Authors. MIT license.

#include "store/file_store.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/record_io.h"
#include "crypto/hash_pool.h"
#include "crypto/sha256.h"

namespace siri {

// Log layout: an 8-byte magic header identifying the format version,
// followed by records of `varint page-length | 32-byte SHA-256 digest |
// page bytes`. The stored digest is what Replay verifies each page
// against — a bit-flip inside a record is detected instead of being
// silently indexed under the digest of the corrupted bytes. Format
// version 1 (digest-less records, no header) is not readable; reopening
// such a log fails with Corruption.

namespace {

constexpr char kLogMagic[] = "SIRILOG\x02";
constexpr size_t kLogMagicSize = 8;

}  // namespace

FileNodeStore::FileNodeStore(io::Env* env, std::string path,
                             std::unique_ptr<io::WritableFile> file,
                             uint64_t page_cache_bytes)
    : env_(env),
      path_(std::move(path)),
      file_(std::move(file)),
      cache_(page_cache_bytes) {}

FileNodeStore::~FileNodeStore() = default;

Status FileNodeStore::RewriteLog(const char* data, size_t len) {
  const std::string tmp = path_ + ".tmp";
  std::unique_ptr<io::WritableFile> f;
  Status s = env_->NewWritableFile(tmp, /*truncate=*/true, &f);
  if (!s.ok()) return s;
  if (len > 0) s = f->Append(Slice(data, len));
  if (s.ok()) s = f->Sync();
  f.reset();
  if (!s.ok()) {
    (void)env_->DeleteFile(tmp);
    return s;
  }
  // Rename + parent-directory fsync: the rename alone is not
  // crash-durable — a power cut can roll the directory back to the OLD
  // inode, orphaning every fsync issued against this one, which silently
  // resurrects the pre-rewrite file.
  s = env_->RenameAndSyncDir(tmp, path_);
  if (!s.ok()) return s;
  std::unique_ptr<io::WritableFile> fresh;
  s = env_->NewWritableFile(path_, /*truncate=*/false, &fresh);
  if (!s.ok()) return s;
  file_ = std::move(fresh);
  return Status::OK();
}

Status FileNodeStore::Open(const std::string& path,
                           std::shared_ptr<FileNodeStore>* out) {
  return Open(io::Env::Default(), path, out);
}

Status FileNodeStore::Open(io::Env* env, const std::string& path,
                           std::shared_ptr<FileNodeStore>* out,
                           uint64_t page_cache_bytes) {
  std::unique_ptr<io::WritableFile> f;
  Status s = env->NewWritableFile(path, /*truncate=*/false, &f);
  if (!s.ok()) return s;
  std::shared_ptr<FileNodeStore> store(
      new FileNodeStore(env, path, std::move(f), page_cache_bytes));
  s = store->Replay();
  if (!s.ok()) return s;
  // Opened only now: recovery may have replaced the file at `path`.
  s = env->NewRandomAccessFile(path, &store->reader_);
  if (!s.ok()) return s;
  *out = std::move(store);
  return Status::OK();
}

// --- the digest index -------------------------------------------------------

uint32_t FileNodeStore::PageTable::TagOf(const Hash& h) {
  // The shard was picked from the digest's first bytes; tag with others.
  uint32_t tag;
  std::memcpy(&tag, h.data() + 8, sizeof(tag));
  return tag;
}

const FileNodeStore::PageLoc* FileNodeStore::PageTable::Find(
    const Hash& h) const {
  if (slots_.empty()) return nullptr;
  const uint32_t tag = TagOf(h);
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return nullptr;
    if (static_cast<uint32_t>(slot >> 32) == tag) {
      const PageLoc& loc = locs_[static_cast<uint32_t>(slot) - 1];
      if (loc.digest == h) return &loc;
    }
  }
}

void FileNodeStore::PageTable::Insert(const PageLoc& loc) {
  SIRI_CHECK(locs_.size() < UINT32_MAX);
  // Grow at 3/4 load, doubling, so probes stay short. A slot's tag is
  // enough to re-place it: growing never touches the PageLocs.
  if ((locs_.size() + 1) * 4 > slots_.size() * 3) {
    std::vector<uint64_t> old(slots_.empty() ? 64 : slots_.size() * 2);
    old.swap(slots_);
    for (const uint64_t slot : old) {
      if (slot != 0) Place(slot);
    }
  }
  locs_.push_back(loc);
  Place(uint64_t{TagOf(loc.digest)} << 32 | locs_.size());
}

void FileNodeStore::PageTable::Place(uint64_t slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(slot >> 32) & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = slot;
}

Status FileNodeStore::Replay() {
  // Replay runs once from Open(), before the store is shared — the locks
  // are uncontended and exist to satisfy the guarded-field contracts
  // (file_, the index, stats_, the generation counters).
  MutexLock lock(mu_);
  std::string contents;
  Status read = env_->ReadFileToString(path_, &contents);
  if (!read.ok()) return read;

  Slice in(contents);
  if (in.empty()) {
    // Fresh log: stamp the format header.
    Status s = file_->Append(Slice(kLogMagic, kLogMagicSize));
    if (s.ok()) s = file_->Flush();
    if (!s.ok()) return s;
    ++append_gen_;  // header not yet fsynced; first Flush pushes it down
    log_end_ = kLogMagicSize;
    return Status::OK();
  }
  if (in.size() < kLogMagicSize &&
      std::memcmp(in.data(), kLogMagic, in.size()) == 0) {
    // Torn header write (crash while stamping a fresh log): self-heal by
    // re-stamping. No pages existed yet, so nothing is dropped. (A
    // foreign sub-8-byte file that happens to be a strict prefix of the
    // magic is overwritten too — accepted: anything at this path that
    // short is ours.)
    log_end_ = kLogMagicSize;
    return RewriteLog(kLogMagic, kLogMagicSize);
  }
  if (in.size() < kLogMagicSize ||
      std::memcmp(in.data(), kLogMagic, kLogMagicSize) != 0) {
    return Status::Corruption("unrecognized log format in " + path_ +
                              " (expected SIRILOG v2 header)");
  }
  in.remove_prefix(kLogMagicSize);

  // Frame every complete record first (framing is inherently sequential),
  // then verify all page digests in one batch through the shared SHA-256
  // pool — replaying a multi-gigabyte log hashes on every core instead of
  // one. The truncation outcome is identical to a serial
  // verify-as-you-parse walk: everything from the first bad record on is
  // dropped.
  struct Framed {
    Slice page;  // points into `contents`
    Hash stored;
    const char* start;  // where this record begins inside `contents`
  };
  std::vector<Framed> records;
  bool torn_tail = false;
  while (!in.empty()) {
    Slice mark = in;
    Framed rec;
    rec.start = mark.data();
    if (!ReadDigestRecord(&in, &rec.page, &rec.stored)) {
      // Torn tail (e.g. crash mid-append): one partial record dropped.
      in = mark;
      torn_tail = true;
      break;
    }
    records.push_back(rec);
  }

  std::vector<Slice> pages;
  pages.reserve(records.size());
  for (const Framed& rec : records) pages.push_back(rec.page);
  const std::vector<Hash> digests = Sha256Pool::Shared().DigestAllSlices(pages);

  size_t first_bad = records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    if (digests[i] != records[i].stored) {
      first_bad = i;  // bit-flip: this record and everything after drops
      break;
    }
  }

  // Index the valid prefix by position; the page bytes stay in the log.
  for (size_t i = 0; i < first_bad; ++i) {
    const Framed& rec = records[i];
    IndexShard& shard = ShardFor(rec.stored);
    WriterLock index_lock(shard.mu);
    if (shard.table.Find(rec.stored) != nullptr) continue;  // logged twice
    shard.table.Insert(PageLoc{
        rec.stored, static_cast<uint64_t>(rec.page.data() - contents.data()),
        rec.page.size()});
    ++stats_.unique_nodes;
    stats_.unique_bytes += rec.page.size();
  }
  log_end_ = contents.size();

  if (first_bad < records.size() || torn_tail) {
    // Complete records past the first corruption, the corrupt record
    // itself, and a final partial tail each count as one dropped page.
    truncations_ = (records.size() - first_bad) + (torn_tail ? 1 : 0);
    const char* valid_end = first_bad < records.size()
                                ? records[first_bad].start
                                : in.data();
    // Rewrite the file to the valid prefix so future appends are clean.
    const size_t valid_bytes = static_cast<size_t>(valid_end - contents.data());
    Status s = RewriteLog(contents.data(), valid_bytes);
    if (!s.ok()) return s;
    log_end_ = valid_bytes;
  }
  return Status::OK();
}

void FileNodeStore::RememberRecentLocked(const Hash& h) {
  if (recent_ring_.size() < kRecentRingSize) {
    recent_ring_.push_back(h);
  } else {
    recent_set_.erase(recent_ring_[recent_next_]);
    recent_ring_[recent_next_] = h;
  }
  recent_set_.insert(h);
  recent_next_ = (recent_next_ + 1) % kRecentRingSize;
}

void FileNodeStore::LatchLocked(const Status& s) {
  if (!latch_errors_) return;
  if (io_error_.ok()) io_error_ = s;
  // Flushers parked on an in-flight fsync must observe the latch instead
  // of waiting for a durability point that will never come.
  sync_cv_.notify_all();
}

Hash FileNodeStore::Put(Slice bytes) {
  NodeBatch one(1);
  one[0].hash = Sha256::Digest(bytes);
  one[0].bytes = std::make_shared<const std::string>(bytes.ToString());
  PutMany(one);
  return one[0].hash;
}

void FileNodeStore::PutMany(const NodeBatch& batch) {
  std::vector<const NodeRecord*> fresh;
  {
    MutexLock lock(mu_);
    // Records of nodes already indexed are skipped (content-addressed
    // dedup); pages a concurrent committer landed within the last
    // kRecentRingSize appends are caught by the recent-digest ring and
    // surfaced as dedup_skips. The ring is consulted on the dup path
    // only, so it adds no lookup to fresh appends. An intra-batch dup
    // counts as recent by definition.
    std::unordered_set<Hash, HashHasher> staged;
    for (const NodeRecord& rec : batch) {
      ++stats_.puts;
      stats_.put_bytes += rec.bytes->size();
      const bool in_batch = staged.count(rec.hash) > 0;
      if (in_batch || Contains(rec.hash)) {
        if (in_batch || recent_set_.count(rec.hash) > 0) ++dedup_skips_;
        ++stats_.dup_puts;
        continue;
      }
      staged.insert(rec.hash);
      fresh.push_back(&rec);
    }
    // Sticky failure: nothing new becomes visible after a failed or torn
    // append — a record appended now would land after the tear and bury
    // it mid-file, beyond what replay's truncation can recover. Callers
    // learn at Flush() (the commit is not acked).
    if (fresh.empty() || !io_error_.ok()) return;

    // One serialized run of records per batch: the whole dirty path of a
    // commit goes to the log in a single append.
    std::string records;
    std::vector<uint64_t> offsets;
    offsets.reserve(fresh.size());
    for (const NodeRecord* rec : fresh) {
      AppendDigestRecord(&records, rec->hash, Slice(*rec->bytes));
      offsets.push_back(log_end_ + records.size() - rec->bytes->size());
    }
    Status s = file_->Append(records);
    if (!s.ok()) {
      // Nothing is indexed: a failed batch must leave no state a later
      // commit could dedup against without durable backing.
      LatchLocked(s);
      return;
    }
    ++append_gen_;
    log_end_ += records.size();
    for (size_t i = 0; i < fresh.size(); ++i) {
      const NodeRecord& rec = *fresh[i];
      IndexShard& shard = ShardFor(rec.hash);
      {
        WriterLock index_lock(shard.mu);
        shard.table.Insert(PageLoc{rec.hash, offsets[i], rec.bytes->size()});
        shard.unsynced.emplace(rec.hash, rec.bytes);
      }
      RememberRecentLocked(rec.hash);
      ++stats_.unique_nodes;
      stats_.unique_bytes += rec.bytes->size();
    }
  }
  // Write-allocate, outside mu_: readers of the new version and the next
  // merge touch a commit's pages first, and a store that fits the cache
  // never reads the log at all.
  for (const NodeRecord* rec : fresh) cache_.Insert(rec->hash, rec->bytes);
}

Result<std::shared_ptr<const std::string>> FileNodeStore::Get(const Hash& h) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const std::string> page = cache_.Lookup(h);
  if (page == nullptr) {
    PageLoc loc;
    {
      const IndexShard& shard = ShardFor(h);
      ReaderLock index_lock(shard.mu);
      const PageLoc* found = shard.table.Find(h);
      if (found == nullptr) return Status::NotFound("node " + h.ToHex());
      loc = *found;
      auto it = shard.unsynced.find(h);
      if (it != shard.unsynced.end()) page = it->second;
    }
    if (page == nullptr) {
      // Synced, so the bytes are in the file; read and re-digest them
      // with no lock held.
      auto bytes = std::make_shared<std::string>(loc.size, '\0');
      Status s = reader_->Read(loc.offset, loc.size, bytes->data());
      if (!s.ok()) return s;
      if (Sha256::Digest(*bytes) != h) {
        return Status::Corruption("page " + h.ToHex() + " at offset " +
                                  std::to_string(loc.offset) + " of " +
                                  path_ + " fails its digest check");
      }
      page = std::move(bytes);
      cache_.Insert(h, page);
    }
  }
  get_bytes_.fetch_add(page->size(), std::memory_order_relaxed);
  return page;
}

bool FileNodeStore::Contains(const Hash& h) const {
  const IndexShard& shard = ShardFor(h);
  ReaderLock index_lock(shard.mu);
  return shard.table.Find(h) != nullptr;
}

Result<uint64_t> FileNodeStore::SizeOf(const Hash& h) const {
  const IndexShard& shard = ShardFor(h);
  ReaderLock index_lock(shard.mu);
  const PageLoc* found = shard.table.Find(h);
  if (found == nullptr) return Status::NotFound("node " + h.ToHex());
  return found->size;
}

NodeStore::Stats FileNodeStore::stats() const {
  MutexLock lock(mu_);
  Stats out = stats_;
  // Reset-relative like every other op counter, so commits-per-flush
  // accounting behaves identically on memory- and disk-backed stores.
  // fsync_count() stays process-cumulative (crash-accounting tests
  // snapshot deltas of it).
  out.flushes = fsyncs_ - fsyncs_at_reset_;
  out.gets = gets_.load(std::memory_order_relaxed);
  out.get_bytes = get_bytes_.load(std::memory_order_relaxed);
  return out;
}

void FileNodeStore::ResetOpCounters() {
  MutexLock lock(mu_);
  stats_.puts = stats_.put_bytes = stats_.dup_puts = 0;
  gets_.store(0, std::memory_order_relaxed);
  get_bytes_.store(0, std::memory_order_relaxed);
  fsyncs_at_reset_ = fsyncs_;
}

Status FileNodeStore::DiskStatus() const {
  MutexLock lock(mu_);
  return io_error_;
}

void FileNodeStore::set_sticky_errors_for_testing(bool on) {
  MutexLock lock(mu_);
  latch_errors_ = on;
}

Status FileNodeStore::SyncLocked(MutexLock& lock,
                                 std::vector<PageMap>* released) {
  // The syscalls run with mu_ held: appends share the write handle, so a
  // concurrent append during the flush would corrupt the stream.
  // Concurrent *flushers* do not queue on the mutex, though — they wait
  // on sync_cv_ and find their generation covered when this fsync
  // finishes.
  (void)lock;
  if (!io_error_.ok()) return io_error_;
  const uint64_t covering = append_gen_;
  // Flush is the durability point acknowledged to callers (commit
  // boundaries call it), so push all the way to stable storage. A
  // failure latches: synced_gen_ must never advance past bytes the
  // failed fsync may have discarded, and no later fsync may claim them.
  Status s = file_->Sync();
  if (!s.ok()) {
    LatchLocked(s);
    return latch_errors_ ? io_error_ : s;
  }
  ++fsyncs_;
  synced_gen_ = covering;
  // Every page appended so far is in the file now, where positional reads
  // see it: the in-memory copies go.
  released->resize(kIndexShards);
  for (size_t i = 0; i < kIndexShards; ++i) {
    IndexShard& shard = shards_[i];
    WriterLock index_lock(shard.mu);
    (*released)[i].swap(shard.unsynced);
  }
  return Status::OK();
}

Status FileNodeStore::Flush() {
  // Declared before the lock, so the pages an fsync releases are freed
  // after mu_ is dropped: appenders do not wait on the deallocation.
  std::vector<PageMap> released;
  MutexLock lock(mu_);
  // A latched store fails every Flush — even one whose appends all
  // predate the failure: the failed fsync may have discarded exactly
  // those dirty bytes, so no durability claim is safe anymore.
  if (!io_error_.ok()) return io_error_;
  // Nothing appended since the last fsync: the log is already durable, so
  // skip the syscalls — back-to-back commit boundaries (or a commit whose
  // batch was fully deduplicated) cost zero fsyncs.
  if (append_gen_ == synced_gen_) return Status::OK();

  // Everything this caller appended is durable once synced_gen_ reaches
  // the generation observed here.
  const uint64_t target = append_gen_;
  for (;;) {
    if (!io_error_.ok()) return io_error_;
    if (synced_gen_ >= target) {
      // Another thread's fsync covered us: group commit in action.
      ++coalesced_flushes_;
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    // An fsync is in flight; piggyback on it instead of queuing a second
    // syscall. If it fails (or covered an older generation), the loop
    // falls through and this thread becomes the syncer.
    sync_cv_.wait(lock.native());
  }

  sync_in_progress_ = true;
  if (group_window_micros_ > 0) {
    // Wait-a-little: let concurrent committers get their appends into the
    // log so one fsync covers them all. The lock is dropped — the window
    // exists precisely so others can append during it — so the window
    // length is copied out first: reading group_window_micros_ after the
    // unlock would race set_group_flush_window_micros.
    const uint64_t window = group_window_micros_;
    lock.Unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(window));
    lock.Lock();
  }
  Status s = SyncLocked(lock, &released);
  sync_in_progress_ = false;
  sync_cv_.notify_all();
  return s;
}

void FileNodeStore::set_group_flush_window_micros(uint64_t micros) {
  MutexLock lock(mu_);
  group_window_micros_ = micros;
}

uint64_t FileNodeStore::group_flush_window_micros() const {
  MutexLock lock(mu_);
  return group_window_micros_;
}

uint64_t FileNodeStore::fsync_count() const {
  MutexLock lock(mu_);
  return fsyncs_;
}

uint64_t FileNodeStore::coalesced_flushes() const {
  MutexLock lock(mu_);
  return coalesced_flushes_;
}

uint64_t FileNodeStore::dedup_skips() const {
  MutexLock lock(mu_);
  return dedup_skips_;
}

}  // namespace siri
