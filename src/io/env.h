// Copyright (c) 2026 The siri Authors. MIT license.
//
// Env — the file-system seam every byte the system persists flows
// through. FileNodeStore and RefLog (and their recovery rewrite paths)
// take an Env instead of calling fopen/fwrite/fsync directly, so one
// interface carries the whole durability story: appends buffer, Flush()
// pushes the application buffer to the OS, Sync() pushes the OS cache to
// stable storage, and RenameAndSyncDir() makes an atomic replace durable
// (a rename is only crash-safe once the parent directory's entry update
// is itself fsynced — forgetting that is a classic torn-recovery bug).
// The page store's read path goes through the same seam: a
// RandomAccessFile serves positional reads of pages the store no longer
// keeps in memory.
//
// Env::Default() returns the process-wide PosixEnv. Tests wrap any Env in
// io::FaultEnv (fault_env.h) to inject short writes, EIO, ENOSPC, fsync
// failures, and simulated power cuts without touching a real disk.
//
// Error typing: PosixEnv maps ENOSPC/EDQUOT to Status::ResourceExhausted
// and every other failure to Status::IOError, so out-of-space keeps its
// identity all the way up to the server's degraded-mode reply.

#ifndef SIRI_IO_ENV_H_
#define SIRI_IO_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace siri {
namespace io {

/// \brief Sequential append handle to one file.
///
/// Durability tiers mirror the stdio+fsync reality the stores were built
/// on: Append lands in an application buffer (lost on process death),
/// Flush pushes it to the OS (survives process death, not power loss),
/// Sync pushes it to stable storage (survives power loss).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Buffers \p data at the end of the file. A failure may have written a
  /// prefix of \p data (a torn record) — the caller must treat the file
  /// tail as suspect and stop appending (see FileNodeStore's sticky
  /// error).
  [[nodiscard]] virtual Status Append(Slice data) = 0;

  /// Pushes buffered appends to the OS (fflush).
  [[nodiscard]] virtual Status Flush() = 0;

  /// Pushes everything appended so far to stable storage (fflush+fsync).
  /// After a FAILED Sync the unsynced bytes must be assumed gone: POSIX
  /// kernels mark the dirty pages clean on fsync error, so a later Sync
  /// returning OK covers nothing that was dirty at the failure (the
  /// fsyncgate bug class). Callers latch the error instead of retrying.
  [[nodiscard]] virtual Status Sync() = 0;
};

/// \brief Sequential read handle (replay path).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to \p n bytes, appending them to \p scratch. Returns the
  /// number of bytes read; 0 means end of file.
  [[nodiscard]] virtual Result<uint64_t> Read(uint64_t n,
                                              std::string* scratch) = 0;
};

/// \brief Positional read handle (the page store's read path).
///
/// Sees what the OS sees: bytes a WritableFile still buffers (appended
/// but not yet Flush()ed or Sync()ed) may be invisible to it.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads exactly \p n bytes at \p offset into \p scratch. A read that
  /// reaches end of file early is an IOError. Safe to call concurrently
  /// from many threads.
  [[nodiscard]] virtual Status Read(uint64_t offset, size_t n,
                                    char* scratch) const = 0;
};

/// \brief Abstract file system. Implementations must be thread-safe.
class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide POSIX environment (never null, never destroyed).
  static Env* Default();

  /// Opens \p path for appending, creating it if absent; \p truncate
  /// empties an existing file first.
  [[nodiscard]] virtual Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<WritableFile>* out) = 0;

  [[nodiscard]] virtual Status NewSequentialFile(
      const std::string& path, std::unique_ptr<SequentialFile>* out) = 0;

  /// Opens \p path for positional reads. The default is the POSIX
  /// implementation (pread on a descriptor of its own), so an Env that
  /// decorates only the write path inherits a working read path.
  [[nodiscard]] virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* out);

  /// Reads the whole file into \p out (replacing its contents).
  [[nodiscard]] virtual Status ReadFileToString(const std::string& path,
                                                std::string* out);

  virtual bool FileExists(const std::string& path) = 0;

  [[nodiscard]] virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  [[nodiscard]] virtual Status DeleteFile(const std::string& path) = 0;

  /// Atomically replaces \p to with \p from. NOT durable by itself: the
  /// directory entry update lives in the parent directory's cache until
  /// SyncDir — use RenameAndSyncDir for a crash-safe replace.
  [[nodiscard]] virtual Status Rename(const std::string& from,
                                      const std::string& to) = 0;

  /// fsyncs the parent directory of \p path, making completed renames
  /// (and file creations) of entries in that directory durable.
  [[nodiscard]] virtual Status SyncDir(const std::string& path) = 0;

  /// Rename + parent-directory fsync: the atomic-replace pattern recovery
  /// rewrites need. Without the SyncDir a power cut after the rename can
  /// roll the directory back to the OLD inode — every fsync issued
  /// against the new file covered bytes the directory no longer points
  /// at.
  [[nodiscard]] Status RenameAndSyncDir(const std::string& from,
                                        const std::string& to);
};

}  // namespace io
}  // namespace siri

#endif  // SIRI_IO_ENV_H_
