// Copyright (c) 2026 The siri Authors. MIT license.

#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

using siri::Hash;
using siri::MutexLock;
using siri::Result;
using siri::Slice;
using siri::Status;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

// The calling thread's buffer in the tracer it last recorded into; a new
// tracer (a fresh id) makes every thread register a fresh buffer.
struct ThreadSlot {
  uint64_t tracer_id = 0;
  void* spans = nullptr;
};
thread_local ThreadSlot t_slot;
thread_local uint64_t t_request = 0;

}  // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

uint32_t Tracer::Intern(const std::string& name) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

Tracer::ThreadSpans* Tracer::Local() {
  if (t_slot.tracer_id != id_) {
    auto spans = std::make_unique<ThreadSpans>();
    spans->spans.reserve(1 << 14);
    t_slot.tracer_id = id_;
    t_slot.spans = spans.get();
    MutexLock lock(mu_);
    threads_.push_back(std::move(spans));
  }
  return static_cast<ThreadSpans*>(t_slot.spans);
}

uint32_t Tracer::Begin(uint32_t name, bool new_request) {
  ThreadSpans* local = Local();
  if (new_request || local->open.empty()) {
    t_request = new_request ? next_request_.fetch_add(1) : 0;
  }
  Span span;
  span.name = name;
  span.parent = local->open.empty() ? 0 : local->open.back();
  span.request = t_request;
  span.start_ns = NowNanos();
  local->spans.push_back(span);
  const uint32_t token = static_cast<uint32_t>(local->spans.size());
  local->open.push_back(token);
  return token;
}

void Tracer::End(uint32_t token) {
  ThreadSpans* local = Local();
  local->spans[token - 1].end_ns = NowNanos();
  // Spans close in LIFO order on one thread (they are scoped).
  if (!local->open.empty() && local->open.back() == token) {
    local->open.pop_back();
  }
}

std::map<std::string, Tracer::NameSummary> Tracer::Summarize(
    int64_t since_ns, int64_t until_ns) const {
  MutexLock lock(mu_);
  std::map<std::string, NameSummary> out;
  for (const auto& thread : threads_) {
    const std::vector<Span>& spans = thread->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0 && s.end_ns != 0) {
        child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // still open: not a finished span
      if (s.start_ns < since_ns || s.start_ns >= until_ns) continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      NameSummary& summary = out[names_[s.name]];
      summary.duration_ns.push_back(dur);
      summary.self_ns.push_back(dur - child_ns[i]);
    }
  }
  return out;
}

uint64_t Tracer::span_count() const {
  MutexLock lock(mu_);
  uint64_t n = 0;
  for (const auto& thread : threads_) n += thread->spans.size();
  return n;
}

bool Tracer::Dump(const std::string& path) const {
  MutexLock lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tthread\trequest\tparent\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < threads_.size(); ++t) {
    for (const Span& s : threads_[t]->spans) {
      std::fprintf(f, "%s\t%zu\t%llu\t%u\t%lld\t%lld\n",
                   names_[s.name].c_str(), t,
                   static_cast<unsigned long long>(s.request), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TracingTransport

TracingTransport::TracingTransport(std::shared_ptr<siri::net::Transport> inner,
                                   Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      get_(tracer->Intern("net.get")),
      put_many_(tracer->Intern("net.put_many")),
      head_(tracer->Intern("net.head")),
      publish_(tracer->Intern("net.publish")),
      other_(tracer->Intern("net.other")) {}

Result<std::shared_ptr<const std::string>> TracingTransport::Get(
    const Hash& h) {
  SpanScope span(tracer_, get_);
  return inner_->Get(h);
}

Result<bool> TracingTransport::Contains(const Hash& h) {
  SpanScope span(tracer_, other_);
  return inner_->Contains(h);
}

Result<uint64_t> TracingTransport::SizeOf(const Hash& h) {
  SpanScope span(tracer_, other_);
  return inner_->SizeOf(h);
}

Result<Hash> TracingTransport::Put(Slice bytes) {
  SpanScope span(tracer_, other_);
  return inner_->Put(bytes);
}

Status TracingTransport::PutMany(const siri::NodeBatch& batch) {
  SpanScope span(tracer_, put_many_);
  return inner_->PutMany(batch);
}

Status TracingTransport::Flush() {
  SpanScope span(tracer_, other_);
  return inner_->Flush();
}

Result<siri::NodeStore::Stats> TracingTransport::StoreStats() {
  SpanScope span(tracer_, other_);
  return inner_->StoreStats();
}

Status TracingTransport::ResetServerOpCounters() {
  SpanScope span(tracer_, other_);
  return inner_->ResetServerOpCounters();
}

Result<Hash> TracingTransport::Head(const std::string& branch) {
  SpanScope span(tracer_, head_);
  return inner_->Head(branch);
}

Result<siri::net::PublishResult> TracingTransport::Publish(
    const siri::net::PublishRequest& req) {
  SpanScope span(tracer_, publish_);
  return inner_->Publish(req);
}

Result<siri::BranchStats> TracingTransport::GetBranchStats(
    const std::string& branch) {
  SpanScope span(tracer_, other_);
  return inner_->GetBranchStats(branch);
}

Result<std::vector<std::string>> TracingTransport::ListBranches() {
  SpanScope span(tracer_, other_);
  return inner_->ListBranches();
}

// ---------------------------------------------------------------------------
// TracingEnv

class TracingEnv::File : public siri::io::WritableFile {
 public:
  File(std::unique_ptr<siri::io::WritableFile> inner, TracingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  Status Append(Slice data) override {
    SpanScope span(env_->tracer_, env_->append_);
    env_->append_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->Append(data);
  }
  Status Flush() override {
    SpanScope span(env_->tracer_, env_->flush_);
    return inner_->Flush();
  }
  Status Sync() override {
    SpanScope span(env_->tracer_, env_->sync_);
    return inner_->Sync();
  }

 private:
  std::unique_ptr<siri::io::WritableFile> inner_;
  TracingEnv* env_;
};

TracingEnv::TracingEnv(siri::io::Env* inner, Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      append_(tracer->Intern("io.append")),
      flush_(tracer->Intern("io.flush")),
      sync_(tracer->Intern("io.sync")) {}

Status TracingEnv::NewWritableFile(
    const std::string& path, bool truncate,
    std::unique_ptr<siri::io::WritableFile>* out) {
  std::unique_ptr<siri::io::WritableFile> file;
  Status s = inner_->NewWritableFile(path, truncate, &file);
  if (!s.ok()) return s;
  *out = std::make_unique<File>(std::move(file), this);
  return Status::OK();
}

Status TracingEnv::SyncDir(const std::string& path) {
  SpanScope span(tracer_, sync_);
  return inner_->SyncDir(path);
}

// ---------------------------------------------------------------------------
// TracingIndex

TracingIndex::TracingIndex(std::unique_ptr<siri::ImmutableIndex> inner,
                           Tracer* tracer)
    : siri::ImmutableIndex(inner->store_ptr()),
      inner_(std::move(inner)),
      tracer_(tracer),
      span_(tracer->Intern("index.server")) {}

Result<Hash> TracingIndex::PutBatch(const Hash& root,
                                    std::vector<siri::KV> kvs) {
  SpanScope span(tracer_, span_);
  return inner_->PutBatch(root, std::move(kvs));
}

Result<Hash> TracingIndex::DeleteBatch(const Hash& root,
                                       std::vector<std::string> keys) {
  SpanScope span(tracer_, span_);
  return inner_->DeleteBatch(root, std::move(keys));
}

Result<std::optional<std::string>> TracingIndex::Get(
    const Hash& root, Slice key, siri::LookupStats* stats) const {
  SpanScope span(tracer_, span_);
  return inner_->Get(root, key, stats);
}

Result<siri::Proof> TracingIndex::GetProof(const Hash& root,
                                           Slice key) const {
  SpanScope span(tracer_, span_);
  return inner_->GetProof(root, key);
}

Status TracingIndex::CollectPages(const Hash& root,
                                  siri::PageSet* pages) const {
  SpanScope span(tracer_, span_);
  return inner_->CollectPages(root, pages);
}

Status TracingIndex::Scan(const Hash& root,
                          const std::function<void(Slice, Slice)>& fn) const {
  SpanScope span(tracer_, span_);
  return inner_->Scan(root, fn);
}

Status TracingIndex::RangeScan(
    const Hash& root, Slice lo, Slice hi,
    const std::function<void(Slice, Slice)>& fn) const {
  SpanScope span(tracer_, span_);
  return inner_->RangeScan(root, lo, hi, fn);
}

Result<siri::DiffResult> TracingIndex::Diff(const Hash& a,
                                            const Hash& b) const {
  SpanScope span(tracer_, span_);
  return inner_->Diff(a, b);
}

std::unique_ptr<siri::ImmutableIndex> TracingIndex::WithStore(
    siri::NodeStorePtr store) const {
  return std::make_unique<TracingIndex>(inner_->WithStore(std::move(store)),
                                        tracer_);
}

}  // namespace perfbench
