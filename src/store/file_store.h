// Copyright (c) 2026 The siri Authors. MIT license.
//
// FileNodeStore — a durable content-addressed store: an append-only log of
// pages on disk, a digest -> log-position index in memory, and a bounded
// page cache. Restarting a process and reopening the log recovers every
// version ever committed (roots are just digests, so persisting the pages
// persists the versions). Every record stores the page's SHA-256 digest
// alongside the bytes; replay verifies each page against its stored digest
// (in parallel through the shared SHA-256 pool on big logs), so corrupt
// records and truncated tails are detected and cut off, recovering the
// longest valid prefix. The log starts with a format header ("SIRILOG"
// v2); older digest-less logs are rejected with Corruption rather than
// mis-read.
//
// All file I/O flows through an io::Env (io/env.h) — the seam that lets
// tests swap in io::FaultEnv to inject short writes, ENOSPC, fsync
// failures, read faults, and simulated power cuts.
//
// Memory model: the store does NOT keep its pages in memory. It keeps
//   - the index: digest -> (log offset, length), a compact hash table per
//     shard, about 64 B per page. Put/PutMany dedup, Contains and SizeOf
//     read only the index;
//   - the page cache: a NodeCache (store/node_cache.h) bounded at
//     kDefaultPageCacheBytes of page bytes unless Open says otherwise.
//     Appended pages are write-allocated into it; a miss reads the page
//     from the log with a positional read (io::RandomAccessFile),
//     re-digests it, and caches it. A page whose bytes do not match its
//     digest is Corruption and is never cached;
//   - the unsynced pages: pages appended since the last successful fsync,
//     held in memory until that fsync covers them, because the append
//     handle may still buffer them where a positional read cannot see
//     them. So a page is readable from the moment PutMany returns, even
//     with a zero-byte cache, without an extra Env op on the append path.
//     After a latched failure they stay (no later fsync will cover them).
// Replay builds the index from record offsets and keeps no page copies;
// it reads the whole log into one buffer, transiently.
//
// Failure semantics: the first failed append, fflush, or fsync latches a
// sticky error (DiskStatus()). After the latch nothing new becomes
// visible or durable — Put/PutMany stop appending and indexing, Flush
// fails fast — and a later fsync never retroactively claims durability
// for bytes that were dirty at the failure (the kernel marks those pages
// clean on fsync error, so a "successful" retry covers nothing: the
// fsyncgate bug class). A torn append (short write) therefore stays at
// the file tail where replay's truncation recovers the valid prefix; no
// record can land after a tear and bury it mid-file. A failed *read* is
// returned to its caller (IOError, or Corruption on a digest mismatch)
// and latches nothing: the write path is unaffected.
//
// Group fsync: Flush() coalesces. Appends carry a generation number and an
// fsync makes everything appended up to its covering generation durable,
// so a Flush whose data an in-flight or just-finished fsync already covers
// returns without issuing its own syscall. An optional wait-a-little
// window (set_group_flush_window_micros) makes the syncing thread pause
// briefly before the fsync so concurrent committers' appends arrive in
// time to share it — under K-writer contention, commits-per-fsync rises
// toward the batch size. fsync_count() stays exact (real syscalls only),
// which is what lets tests assert the coalescing actually happened.
//
// Locking contract (compiler-checked under SIRI_THREAD_SAFETY):
//   - mu_ orders the write path: the write handle, the log end, the
//     generation counters, the put counters and the dedup ring are
//     GUARDED_BY(mu_). Appends happen under mu_ *before* their pages enter
//     the index. The fsync runs under mu_ too (appenders share the write
//     handle), but concurrent flushers never queue behind it — they wait
//     on sync_cv_ and discover their generation covered. The wait-a-little
//     window is the one place the syncer drops mu_.
//   - the index and the unsynced pages live in kIndexShards shards, each
//     under its own SharedMutex. Writers (PutMany, and a successful fsync
//     dropping the pages it covered) hold mu_ and then one shard lock;
//     readers take only the shard lock.
//   - reads never take mu_, so Get, Contains and SizeOf never wait on an
//     append or an fsync. A cache hit takes one cache-shard lock. A miss
//     holds the index shard lock (shared) only to look the page up, then
//     reads and re-digests with no lock held. The read op counters are
//     relaxed atomics.

#ifndef SIRI_STORE_FILE_STORE_H_
#define SIRI_STORE_FILE_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "io/env.h"
#include "store/node_cache.h"
#include "store/node_store.h"

namespace siri {

/// \brief Append-only-log backed NodeStore.
class FileNodeStore : public NodeStore {
 public:
  /// Digests remembered by the recently-flushed ring (cross-commit dedup).
  static constexpr size_t kRecentRingSize = 1024;

  /// Page-cache budget when Open is not given one: 64 MiB of page bytes.
  static constexpr uint64_t kDefaultPageCacheBytes = 64ull << 20;

  /// Shards of the digest index (and of the unsynced pages).
  static constexpr size_t kIndexShards = 16;

  /// Opens (or creates) the log at \p path, replaying existing pages.
  /// \param out receives the opened store.
  static Status Open(const std::string& path,
                     std::shared_ptr<FileNodeStore>* out);

  /// Same, with every byte of I/O routed through \p env (which must
  /// outlive the store) and a page cache of \p page_cache_bytes (0 caches
  /// nothing: every read of a synced page goes to the log).
  static Status Open(io::Env* env, const std::string& path,
                     std::shared_ptr<FileNodeStore>* out,
                     uint64_t page_cache_bytes = kDefaultPageCacheBytes);

  ~FileNodeStore() override;

  [[nodiscard]] Hash Put(Slice bytes) override EXCLUDES(mu_);

  /// Appends every new node of \p batch as ONE buffered log write (a
  /// commit's whole root-to-leaf path in a single append) instead of one
  /// write per node. Durability still happens at Flush(), so a batched
  /// commit costs exactly one fsync. Duplicate pages another committer
  /// landed within the last kRecentRingSize appends are attributed by the
  /// recent-digest ring and counted in dedup_skips() — the cross-commit
  /// dedup signal under shared key prefixes. The batch becomes visible in
  /// the index only after its log append succeeded: a failed or short
  /// append latches the sticky error and indexes nothing.
  void PutMany(const NodeBatch& batch) override EXCLUDES(mu_);

  /// Cache, then unsynced pages, then a positional read of the log. A
  /// page read from the log is re-digested: IOError if the read fails,
  /// Corruption if the bytes do not match \p h (neither is cached nor
  /// latched).
  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  bool Contains(const Hash& h) const override;
  Result<uint64_t> SizeOf(const Hash& h) const override;
  Stats stats() const override EXCLUDES(mu_);
  void ResetOpCounters() override EXCLUDES(mu_);

  /// Flushes buffered appends all the way to stable storage (fsync), with
  /// group-commit coalescing: if another thread's fsync already covers (or
  /// is about to cover) everything this caller appended, the call waits on
  /// that fsync instead of issuing its own. Pages are only crash-durable
  /// once it returns OK. When nothing was appended since the last flush
  /// the syscall is skipped entirely. Once the sticky error is latched,
  /// every Flush fails fast with it — including flushes whose appends all
  /// predate the failure, because the failed fsync may have discarded
  /// exactly those dirty bytes.
  Status Flush() override EXCLUDES(mu_);

  /// The sticky disk error: OK until the first failed append/fflush/fsync,
  /// that failure's typed Status afterwards (ResourceExhausted for
  /// out-of-space, IOError otherwise). Reads keep serving resident state;
  /// writes and flushes fail fast. Never resets — a store that has lied
  /// about durability once cannot un-lie (reopen to recover).
  Status DiskStatus() const override EXCLUDES(mu_);

  /// Wait-a-little group window: before issuing an fsync, the syncing
  /// thread sleeps up to \p micros so concurrent committers' appends land
  /// in time to be covered by the same syscall. 0 (the default) disables
  /// the wait; coalescing via generations still happens. Typical
  /// contended-server settings are 100-500µs.
  void set_group_flush_window_micros(uint64_t micros) EXCLUDES(mu_);
  uint64_t group_flush_window_micros() const EXCLUDES(mu_);

  /// Number of fsyncs actually issued (skipped clean flushes and coalesced
  /// flushes excluded). Lets tests and benches assert the ≤1-fsync-per-
  /// commit and >1-commit-per-fsync properties.
  uint64_t fsync_count() const EXCLUDES(mu_);

  /// Dirty Flush() calls that were made durable by another thread's fsync
  /// instead of their own syscall (the group-commit coalescing counter).
  uint64_t coalesced_flushes() const EXCLUDES(mu_);

  /// Offered duplicate pages whose digest sat in the recently-flushed
  /// ring — i.e. a concurrent committer landed the identical page within
  /// the last kRecentRingSize appends. A subset of stats().dup_puts:
  /// the ring attributes *recent* cross-commit dedup, which the
  /// all-time index cannot.
  uint64_t dedup_skips() const EXCLUDES(mu_);

  /// Page-cache hits, misses, evictions and resident bytes since Open.
  NodeCache::Stats page_cache_stats() const { return cache_.stats(); }

  /// Number of records (pages) dropped from the recovered log: the first
  /// torn or digest-mismatching record plus everything after it — replay
  /// truncates at the first bad record.
  uint64_t recovered_truncations() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return truncations_;
  }

  /// Harness self-test hook: turns OFF the sticky-error latch, restoring
  /// the historical report-once-and-forget behavior (the fsyncgate bug).
  /// Exists so the crash-consistency harness can prove it catches that
  /// bug when deliberately reintroduced. Never use outside tests.
  void set_sticky_errors_for_testing(bool on) EXCLUDES(mu_);

  const std::string& path() const { return path_; }

 private:
  /// Where one page's bytes sit in the log.
  struct PageLoc {
    Hash digest;
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  /// Digest -> PageLoc, laid out for memory: the PageLocs sit densely in
  /// insertion order (a deque, so growing never copies them), and an
  /// open-addressing (linear probing) array of 8-byte slots finds them.
  /// A slot holds 32 digest bits, which both place it and screen probes,
  /// and 1 + the PageLoc's index (0 = empty). About 64 B per page. Pages
  /// are never removed, so there are no tombstones.
  class PageTable {
   public:
    const PageLoc* Find(const Hash& h) const;
    /// Adds \p loc, whose digest must not be present yet.
    void Insert(const PageLoc& loc);

   private:
    static uint32_t TagOf(const Hash& h);
    void Place(uint64_t slot);
    std::deque<PageLoc> locs_;
    std::vector<uint64_t> slots_;  // size 0 or a power of two
  };

  using PageMap =
      std::unordered_map<Hash, std::shared_ptr<const std::string>, HashHasher>;

  struct IndexShard {
    mutable SharedMutex mu;
    PageTable table GUARDED_BY(mu);
    /// Appended pages not yet covered by a successful fsync.
    PageMap unsynced GUARDED_BY(mu);
  };

  FileNodeStore(io::Env* env, std::string path,
                std::unique_ptr<io::WritableFile> file,
                uint64_t page_cache_bytes);
  Status Replay() EXCLUDES(mu_);

  IndexShard& ShardFor(const Hash& h) {
    return shards_[h.Prefix64() % kIndexShards];
  }
  const IndexShard& ShardFor(const Hash& h) const {
    return shards_[h.Prefix64() % kIndexShards];
  }

  /// Remembers \p h in the recent-digest ring.
  void RememberRecentLocked(const Hash& h) REQUIRES(mu_);

  /// Latches \p s as the sticky disk error (first failure wins) and wakes
  /// flushers so they observe it instead of waiting forever.
  void LatchLocked(const Status& s) REQUIRES(mu_);

  /// Issues the fsync covering everything appended so far, then hands the
  /// unsynced pages it covered to \p released: the log serves them from
  /// now on, and the caller frees them once mu_ is dropped. The caller has
  /// claimed sync_in_progress_; \p lock holds mu_ (appenders share the
  /// write handle, so the syscalls run locked — concurrent flushers wait
  /// on sync_cv_ instead of queuing on the mutex).
  Status SyncLocked(MutexLock& lock, std::vector<PageMap>* released)
      REQUIRES(mu_);

  /// Atomically replaces the log with \p len bytes of \p data (written to
  /// a temp file, fsynced, renamed over the log, parent directory
  /// fsynced) and reopens the append handle. Recovery uses this so a
  /// crash mid-rewrite can never destroy the valid prefix.
  Status RewriteLog(const char* data, size_t len) REQUIRES(mu_);

  io::Env* const env_;
  std::string path_;
  mutable Mutex mu_;
  std::unique_ptr<io::WritableFile> file_ GUARDED_BY(mu_);
  // Positional reads of the log. Opened once recovery has settled the
  // file (Open), immutable after, so readers use it without a lock.
  std::unique_ptr<io::RandomAccessFile> reader_;
  uint64_t log_end_ GUARDED_BY(mu_) = 0;  // bytes appended to the log
  Status io_error_ GUARDED_BY(mu_);
  bool latch_errors_ GUARDED_BY(mu_) = true;
  Stats stats_ GUARDED_BY(mu_);  // all but gets/get_bytes/flushes
  std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> get_bytes_{0};
  uint64_t truncations_ GUARDED_BY(mu_) = 0;

  std::array<IndexShard, kIndexShards> shards_;
  NodeCache cache_;

  // Group-commit state. An append bumps append_gen_; a successful fsync
  // records the generation it covered in synced_gen_. dirty ≡ append_gen_
  // > synced_gen_. One thread at a time owns the actual syscall
  // (sync_in_progress_); others wait on sync_cv_ and re-check whether the
  // finished fsync covered their appends.
  uint64_t append_gen_ GUARDED_BY(mu_) = 0;
  uint64_t synced_gen_ GUARDED_BY(mu_) = 0;
  bool sync_in_progress_ GUARDED_BY(mu_) = false;
  std::condition_variable sync_cv_;
  uint64_t group_window_micros_ GUARDED_BY(mu_) = 0;
  uint64_t fsyncs_ GUARDED_BY(mu_) = 0;
  // fsyncs_ at the last ResetOpCounters: stats().flushes reports the
  // difference so the Stats view is reset-relative like every other op
  // counter, while fsync_count() stays cumulative.
  uint64_t fsyncs_at_reset_ GUARDED_BY(mu_) = 0;
  uint64_t coalesced_flushes_ GUARDED_BY(mu_) = 0;

  // Recently-flushed digest ring: the last kRecentRingSize appended
  // digests, membership-indexed. Consulted on the dup path only, so
  // cross-commit duplicates are observable as dedup_skips without any
  // cost to fresh appends.
  std::vector<Hash> recent_ring_ GUARDED_BY(mu_);
  size_t recent_next_ GUARDED_BY(mu_) = 0;
  std::unordered_set<Hash, HashHasher> recent_set_ GUARDED_BY(mu_);
  uint64_t dedup_skips_ GUARDED_BY(mu_) = 0;
};

}  // namespace siri

#endif  // SIRI_STORE_FILE_STORE_H_
