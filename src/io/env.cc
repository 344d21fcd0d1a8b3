// Copyright (c) 2026 The siri Authors. MIT license.

#include "io/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace siri {
namespace io {

namespace {

// errno -> typed Status. ENOSPC keeps its identity so the sticky cause a
// store latches (and the server's degraded-mode reply) says "out of
// space", not just "I/O error".
Status PosixError(const std::string& context, int err) {
  const std::string msg = context + ": " + strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::ResourceExhausted(msg);
  return Status::IOError(msg);
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(std::string path, FILE* file)
      : path_(std::move(path)), file_(file) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) {
      // Best-effort flush on close, matching the stdio-backed stores'
      // historical destructor behavior (survives process death; callers
      // needing stronger guarantees Sync() before destroying).
      std::fflush(file_);
      std::fclose(file_);
    }
  }

  [[nodiscard]] Status Append(Slice data) override {
    const size_t wrote = std::fwrite(data.data(), 1, data.size(), file_);
    if (wrote != data.size()) {
      return PosixError("short append to " + path_, errno);
    }
    return Status::OK();
  }

  [[nodiscard]] Status Flush() override {
    if (std::fflush(file_) != 0) {
      return PosixError("fflush " + path_, errno);
    }
    return Status::OK();
  }

  [[nodiscard]] Status Sync() override {
    if (std::fflush(file_) != 0) {
      return PosixError("fflush " + path_, errno);
    }
    if (fsync(fileno(file_)) != 0) {
      return PosixError("fsync " + path_, errno);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  explicit PosixSequentialFile(std::string path, FILE* file)
      : path_(std::move(path)), file_(file) {}

  ~PosixSequentialFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  [[nodiscard]] Result<uint64_t> Read(uint64_t n,
                                      std::string* scratch) override {
    const size_t before = scratch->size();
    scratch->resize(before + static_cast<size_t>(n));
    const size_t got =
        std::fread(scratch->data() + before, 1, static_cast<size_t>(n), file_);
    scratch->resize(before + got);
    if (got < n && std::ferror(file_)) {
      return PosixError("read " + path_, errno);
    }
    return static_cast<uint64_t>(got);
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  [[nodiscard]] Status Read(uint64_t offset, size_t n,
                            char* scratch) const override {
    size_t done = 0;
    while (done < n) {
      const ssize_t got = ::pread(fd_, scratch + done, n - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return PosixError("pread " + path_, errno);
      }
      if (got == 0) {
        return Status::IOError("pread " + path_ + ": unexpected end of file");
      }
      done += static_cast<size_t>(got);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  [[nodiscard]] Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<WritableFile>* out) override {
    FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) return PosixError("cannot open " + path, errno);
    *out = std::make_unique<PosixWritableFile>(path, f);
    return Status::OK();
  }

  [[nodiscard]] Status NewSequentialFile(
      const std::string& path, std::unique_ptr<SequentialFile>* out) override {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return PosixError("cannot open " + path, errno);
    *out = std::make_unique<PosixSequentialFile>(path, f);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  [[nodiscard]] Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return PosixError("stat " + path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  [[nodiscard]] Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return PosixError("unlink " + path, errno);
    }
    return Status::OK();
  }

  [[nodiscard]] Status Rename(const std::string& from,
                              const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  [[nodiscard]] Status SyncDir(const std::string& path) override {
    const std::string dir = ParentDir(path);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return PosixError("open dir " + dir, errno);
    Status s;
    if (fsync(fd) != 0) s = PosixError("fsync dir " + dir, errno);
    ::close(fd);
    return s;
  }
};

}  // namespace

Status Env::NewRandomAccessFile(const std::string& path,
                                std::unique_ptr<RandomAccessFile>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return PosixError("cannot open " + path, errno);
  *out = std::make_unique<PosixRandomAccessFile>(path, fd);
  return Status::OK();
}

Status Env::ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = NewSequentialFile(path, &file);
  if (!s.ok()) return s;
  for (;;) {
    auto got = file->Read(64 * 1024, out);
    if (!got.ok()) return got.status();
    if (*got == 0) return Status::OK();
  }
}

Status Env::RenameAndSyncDir(const std::string& from, const std::string& to) {
  Status s = Rename(from, to);
  if (!s.ok()) return s;
  return SyncDir(to);
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // leaked: outlives every store
  return env;
}

}  // namespace io
}  // namespace siri
