// Copyright (c) 2026 The siri Authors. MIT license.
//
// Span tracing for the end-to-end benchmark, kept entirely in the
// benchmark's own files: the library is measured through its public seams
// only. A traced run wraps three of them in timing decorators —
//
//   TracingTransport  around net::Transport (the client side of the wire),
//   TracingEnv        around io::Env (every byte the page log and the ref
//                     log write, and every fsync),
//   TracingIndex      around each server-side registered ImmutableIndex
//                     (the merges the combiner runs on the server),
//
// and the workloads open spans around their own calls into the client
// index and around each whole client operation. Spans (name, start, end,
// parent, request id) are kept in per-thread memory and written out when
// the run ends; a layer's self time is its spans' durations minus the time
// their child spans cover. The untraced run constructs none of this.

#ifndef SIRI_PERFBENCH_TRACE_H_
#define SIRI_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "index/index.h"
#include "io/env.h"
#include "net/transport.h"

namespace perfbench {

int64_t NowNanos();

struct Span {
  uint32_t name = 0;
  /// 1-based index of the enclosing span in the same thread's buffer;
  /// 0 for a root span.
  uint32_t parent = 0;
  /// Shared by every span of one client operation (0 outside one).
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief In-memory span recorder. Recording is lock-free per thread; the
/// read side (Summarize, Dump) must run after every traced thread stopped.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name (thread-safe; decorators intern at construction).
  uint32_t Intern(const std::string& name);

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span. \p new_request starts a fresh request id (a
  /// client operation); otherwise the span joins the open request.
  uint32_t Begin(uint32_t name, bool new_request);
  void End(uint32_t token);

  /// Durations and self times (duration minus child spans), in
  /// nanoseconds, of every closed span that started in [since_ns,
  /// until_ns), by span name.
  struct NameSummary {
    std::vector<double> duration_ns;
    std::vector<double> self_ns;
  };
  std::map<std::string, NameSummary> Summarize(int64_t since_ns,
                                               int64_t until_ns) const;

  uint64_t span_count() const;

  /// Writes every span as one tab-separated line: name, thread, request,
  /// parent index, start and end (ns, steady clock).
  bool Dump(const std::string& path) const;

 private:
  struct ThreadSpans {
    std::vector<Span> spans;
    std::vector<uint32_t> open;  // 1-based indices of open spans
  };
  ThreadSpans* Local();

  const uint64_t id_;
  std::atomic<uint64_t> next_request_{1};
  mutable siri::Mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_ GUARDED_BY(mu_);
  std::vector<std::string> names_ GUARDED_BY(mu_);
};

/// \brief RAII span; a no-op when \p tracer is null (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, uint32_t name, bool new_request = false)
      : tracer_(tracer),
        token_(tracer != nullptr ? tracer->Begin(name, new_request) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(token_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t token_;
};

/// \brief Client-side net::Transport decorator: one span per RPC.
class TracingTransport : public siri::net::Transport {
 public:
  TracingTransport(std::shared_ptr<siri::net::Transport> inner,
                   Tracer* tracer);

  siri::Result<std::shared_ptr<const std::string>> Get(
      const siri::Hash& h) override;
  siri::Result<bool> Contains(const siri::Hash& h) override;
  siri::Result<uint64_t> SizeOf(const siri::Hash& h) override;
  siri::Result<siri::Hash> Put(siri::Slice bytes) override;
  siri::Status PutMany(const siri::NodeBatch& batch) override;
  siri::Status Flush() override;
  siri::Result<siri::NodeStore::Stats> StoreStats() override;
  siri::Status ResetServerOpCounters() override;
  siri::Result<siri::Hash> Head(const std::string& branch) override;
  siri::Result<siri::net::PublishResult> Publish(
      const siri::net::PublishRequest& req) override;
  siri::Result<siri::BranchStats> GetBranchStats(
      const std::string& branch) override;
  siri::Result<std::vector<std::string>> ListBranches() override;
  Stats stats() const override { return inner_->stats(); }
  void SetPushSink(PushSink sink) override {
    inner_->SetPushSink(std::move(sink));
  }

 private:
  std::shared_ptr<siri::net::Transport> inner_;
  Tracer* tracer_;
  // The RPCs the per-layer metrics single out; the rest share net.other.
  uint32_t get_, put_many_, head_, publish_, other_;
};

/// \brief io::Env decorator: spans every append, flush and fsync of the
/// files the store and the ref log write, and counts appended bytes.
class TracingEnv : public siri::io::Env {
 public:
  TracingEnv(siri::io::Env* inner, Tracer* tracer);

  siri::Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<siri::io::WritableFile>* out) override;
  siri::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<siri::io::SequentialFile>* out) override {
    return inner_->NewSequentialFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  siri::Result<uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  siri::Status DeleteFile(const std::string& path) override {
    return inner_->DeleteFile(path);
  }
  siri::Status Rename(const std::string& from,
                      const std::string& to) override {
    return inner_->Rename(from, to);
  }
  siri::Status SyncDir(const std::string& path) override;

  uint64_t append_bytes() const {
    return append_bytes_.load(std::memory_order_relaxed);
  }

 private:
  class File;

  siri::io::Env* inner_;
  Tracer* tracer_;
  uint32_t append_, flush_, sync_;
  std::atomic<uint64_t> append_bytes_{0};
};

/// \brief Server-side ImmutableIndex decorator, registered in place of the
/// plain index: every index call the server makes (the combiner's and the
/// CAS-retry path's Merge3, which runs on these virtuals) becomes a span.
class TracingIndex : public siri::ImmutableIndex {
 public:
  TracingIndex(std::unique_ptr<siri::ImmutableIndex> inner, Tracer* tracer);

  std::string name() const override { return inner_->name(); }
  siri::Hash EmptyRoot() const override { return inner_->EmptyRoot(); }
  siri::Result<siri::Hash> PutBatch(const siri::Hash& root,
                                    std::vector<siri::KV> kvs) override;
  siri::Result<siri::Hash> DeleteBatch(const siri::Hash& root,
                                       std::vector<std::string> keys) override;
  siri::Result<std::optional<std::string>> Get(
      const siri::Hash& root, siri::Slice key,
      siri::LookupStats* stats) const override;
  siri::Result<siri::Proof> GetProof(const siri::Hash& root,
                                     siri::Slice key) const override;
  siri::Status CollectPages(const siri::Hash& root,
                            siri::PageSet* pages) const override;
  siri::Status Scan(
      const siri::Hash& root,
      const std::function<void(siri::Slice, siri::Slice)>& fn) const override;
  siri::Status RangeScan(
      const siri::Hash& root, siri::Slice lo, siri::Slice hi,
      const std::function<void(siri::Slice, siri::Slice)>& fn) const override;
  siri::Result<siri::DiffResult> Diff(const siri::Hash& a,
                                      const siri::Hash& b) const override;
  std::unique_ptr<siri::ImmutableIndex> WithStore(
      siri::NodeStorePtr store) const override;

 private:
  std::unique_ptr<siri::ImmutableIndex> inner_;
  Tracer* tracer_;
  uint32_t span_;
};

}  // namespace perfbench

#endif  // SIRI_PERFBENCH_TRACE_H_
