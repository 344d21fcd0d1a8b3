// Copyright (c) 2026 The siri Authors. MIT license.

#include "crypto/hash_pool.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace siri {

int Sha256Pool::DefaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;  // single-core host: inline hashing is optimal
  return static_cast<int>(std::min(hw - 1, 4u));
}

Sha256Pool::Sha256Pool(int workers) {
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Sha256Pool::~Sha256Pool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

Sha256Pool& Sha256Pool::Shared() {
  static Sha256Pool* pool = new Sha256Pool();  // leaked: outlives all users
  return *pool;
}

void Sha256Pool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      // Manual wait loop: a predicate lambda would hide the guarded reads
      // of stop_/queue_ from the thread-safety analysis.
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock.native());
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task.fn();
  }
}

void Sha256Pool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // One shared cursor: workers and the caller pull indexes until drained.
  // Chunked claiming (grab a run of indexes per fetch) would cut contention
  // further, but a 1 KiB page digest costs ~1µs with the SHA-NI kernel
  // and ~7µs with the portable one (BM_Sha256 / BM_Sha256Portable on an
  // x86 VM with the SHA extensions), so a relaxed fetch_add per page is
  // already noise.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto done = std::make_shared<std::atomic<size_t>>(0);
  auto done_mu = std::make_shared<std::mutex>();
  auto done_cv = std::make_shared<std::condition_variable>();

  auto drain = [next, done, done_mu, done_cv, n, fn] {
    size_t finished = 0;
    for (;;) {
      const size_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
      ++finished;
    }
    if (finished > 0 &&
        done->fetch_add(finished, std::memory_order_acq_rel) + finished == n) {
      std::lock_guard<std::mutex> lock(*done_mu);
      done_cv->notify_all();
    }
  };

  const size_t helpers = std::min(threads_.size(), n > 0 ? n - 1 : 0);
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < helpers; ++i) queue_.push_back(Task{drain});
  }
  if (helpers > 0) cv_.notify_all();

  drain();  // the caller digests its own share

  std::unique_lock<std::mutex> lock(*done_mu);
  done_cv->wait(lock, [&] { return done->load(std::memory_order_acquire) == n; });
}

std::vector<Hash> Sha256Pool::DigestAllSlices(const std::vector<Slice>& pages) {
  std::vector<Hash> out(pages.size());
  const size_t inline_threshold =
      threads_.empty() ? SIZE_MAX : kMinPagesPerWorker * 2;
  if (pages.size() < inline_threshold) {
    inline_jobs_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < pages.size(); ++i) {
      out[i] = Sha256::Digest(pages[i]);
    }
    return out;
  }
  jobs_.fetch_add(1, std::memory_order_relaxed);
  pages_.fetch_add(pages.size(), std::memory_order_relaxed);
  ParallelFor(pages.size(),
              [&](size_t i) { out[i] = Sha256::Digest(pages[i]); });
  return out;
}

std::vector<Hash> Sha256Pool::DigestAll(
    const std::vector<std::shared_ptr<const std::string>>& pages) {
  std::vector<Slice> slices;
  slices.reserve(pages.size());
  for (const auto& p : pages) slices.emplace_back(*p);
  return DigestAllSlices(slices);
}

Sha256Pool::Stats Sha256Pool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.inline_jobs = inline_jobs_.load(std::memory_order_relaxed);
  s.pages = pages_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace siri
