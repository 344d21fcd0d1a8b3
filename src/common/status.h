// Copyright (c) 2026 The siri Authors. MIT license.
//
// Lightweight Status / Result types for fallible operations, following the
// convention used by LevelDB/RocksDB and Apache Arrow: library code returns
// Status instead of throwing, and SIRI_CHECK guards internal invariants.

#ifndef SIRI_COMMON_STATUS_H_
#define SIRI_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace siri {

/// \brief Outcome of a fallible operation.
///
/// [[nodiscard]]: a dropped Status is a swallowed error — every caller
/// must check it, or cast to (void) with a comment saying why the error
/// genuinely cannot matter.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kConflict = 4,        // merge conflict requiring user resolution
    kNotSupported = 5,
    kIOError = 6,
    kResourceExhausted = 7,  // server over capacity; back off and retry
    kUnavailable = 8,        // retry policy exhausted; the op may not have run
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Conflict(std::string msg = "") {
    return Status(Code::kConflict, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsConflict() const { return code_ == Code::kConflict; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kNotFound: name = "NotFound"; break;
      case Code::kCorruption: name = "Corruption"; break;
      case Code::kInvalidArgument: name = "InvalidArgument"; break;
      case Code::kConflict: name = "Conflict"; break;
      case Code::kNotSupported: name = "NotSupported"; break;
      case Code::kIOError: name = "IOError"; break;
      case Code::kResourceExhausted: name = "ResourceExhausted"; break;
      case Code::kUnavailable: name = "Unavailable"; break;
    }
    return msg_.empty() ? std::string(name) : std::string(name) + ": " + msg_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

/// \brief Either a value or an error Status. [[nodiscard]] like Status:
/// dropping a Result drops the error with it.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT
  Result(Status status) : status_(std::move(status)) {  // NOLINT
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace siri

/// Aborts the process when an internal invariant is violated. These are
/// programming errors, not recoverable conditions, so there is no Status.
#define SIRI_CHECK(cond)                                                   \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "SIRI_CHECK failed at %s:%d: %s\n", __FILE__,   \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

#define SIRI_CHECK_OK(expr)                                                \
  do {                                                                     \
    const ::siri::Status _st = (expr);                                     \
    if (!_st.ok()) {                                                       \
      std::fprintf(stderr, "SIRI_CHECK_OK failed at %s:%d: %s\n",          \
                   __FILE__, __LINE__, _st.ToString().c_str());            \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

#endif  // SIRI_COMMON_STATUS_H_
