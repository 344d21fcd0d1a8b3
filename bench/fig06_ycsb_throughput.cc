// Copyright (c) 2026 The siri Authors. MIT license.
//
// Figure 6 (a–i) — YCSB throughput grid: Zipfian θ ∈ {0, 0.5, 0.9} ×
// write-ratio ∈ {0, 0.5, 1}, dataset sizes sweeping upward, for POS-Tree,
// MBT, MPT and the MVMB+-Tree baseline.
// Shape to reproduce (paper): throughput of every index decreases with N;
// MBT reads start far ahead (shallow fixed path) and degrade below the
// others as buckets grow; POS ≈ baseline and ahead of MPT everywhere;
// write-heavy workloads are ~10x slower than read-only across the board;
// skew (θ) changes almost nothing.

#include "bench/bench_common.h"
#include "crypto/sha256.h"
#include "store/staging_store.h"

using namespace siri;
using namespace siri::bench;

namespace {

// Sharded vs unsharded NodeCache under reader contention: K threads doing
// hot-set Lookups against one cache. With one shard every Lookup serializes
// on a single mutex (the pre-sharding design, made safe); with the default
// shard count most acquisitions are uncontended.
void RunCacheShardSection(const std::vector<int>& thread_counts,
                          bool smoke = false) {
  constexpr int kHotKeys = 256;
  const int kLookupsPerThread = smoke ? 5000 : 100000;

  printf("\n[node-cache lock scaling] %d-key hot set, aggregate Mops/s\n",
         kHotKeys);
  printf("%8s %12s %12s\n", "threads", "1shard",
         (std::to_string(NodeCache::kDefaultShards) + "shards").c_str());

  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (int shards : {1, NodeCache::kDefaultShards}) {
      NodeCache cache(8 << 20, shards);
      std::vector<Hash> keys;
      for (int i = 0; i < kHotKeys; ++i) {
        const std::string payload(1024, 'a' + (i % 26));
        const Hash h = Sha256::Digest(payload + std::to_string(i));
        cache.Insert(h, std::make_shared<const std::string>(payload));
        keys.push_back(h);
      }

      const double secs = RunTimedWorkers(threads, [&](int t) {
        for (int i = 0; i < kLookupsPerThread; ++i) {
          SIRI_CHECK(cache.Lookup(keys[(i + t) % kHotKeys]) != nullptr);
        }
      });
      printf(" %12.2f",
             Ratio(static_cast<double>(kLookupsPerThread) * threads, secs) /
                 1e6);
      fflush(stdout);
    }
    printf("\n");
  }
}

// Sharded vs unsharded InMemoryNodeStore under writer contention: K
// threads each flushing staged 64-node batches into one shared store.
// With one shard every batch serializes on a single mutex (the
// pre-sharding write path, made safe); with the default shard count a
// batch takes each shard lock once and different writers rarely collide.
void RunStoreShardSection(const std::vector<int>& thread_counts,
                          bool smoke = false) {
  const int kBatchesPerThread = smoke ? 40 : 400;
  constexpr int kBatchNodes = 64;

  printf("\n[node-store write lock scaling] %d-node staged batches,"
         " aggregate K nodes/s\n",
         kBatchNodes);
  printf("%8s %12s %12s\n", "threads", "1shard",
         (std::to_string(InMemoryNodeStore::kDefaultShards) + "shards").c_str());

  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (int shards : {1, InMemoryNodeStore::kDefaultShards}) {
      auto store = NewInMemoryNodeStore(shards);
      const double secs = RunTimedWorkers(threads, [&](int t) {
        for (int b = 0; b < kBatchesPerThread; ++b) {
          StagingNodeStore staging(store.get());
          for (int i = 0; i < kBatchNodes; ++i) {
            std::string node(192, 'a' + (i % 26));
            node += std::to_string(t * 1000000 + b * 1000 + i);
            // Fire-and-forget staging: the bench measures batched write
            // throughput, the digests are never re-read.
            (void)staging.Put(node);
          }
          staging.FlushBatch();
        }
      });
      printf(" %12.1f",
             Ratio(static_cast<double>(kBatchesPerThread) * kBatchNodes *
                       threads,
                   secs) /
                 1e3);
      fflush(stdout);
    }
    printf("\n");
  }
}

// Multi-client write scaling: K writer threads, each with its own client
// store, committing staged write batches (one upload RPC per commit)
// against one servlet over a sharded server store. Reported per
// structure: aggregate write kops/s and upload RPCs per commit (≤ 1.0
// means every commit batched its whole dirty path into one round trip).
void RunWriteScalingSection(uint64_t scale,
                            const std::vector<int>& thread_counts,
                            bool smoke = false) {
  const uint64_t n = (smoke ? 2000 : 20000) * scale;
  const uint64_t num_ops = smoke ? 200 : 1000;

  printf("\n[multi-client write scaling] n=%llu write-only commit=20"
         " rtt=2ms(sleep,1/commit) cache=1MB/client\n",
         static_cast<unsigned long long>(n));
  printf("%8s %15s %15s %15s %15s\n", "threads", "pos(kops|rpc)",
         "mbt(kops|rpc)", "mpt(kops|rpc)", "mvmb(kops|rpc)");

  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(n);
  auto ops = gen.GenerateOps(num_ops, n, /*write_ratio=*/1.0, /*theta=*/0.0);

  auto server_store = NewInMemoryNodeStore();
  siri::ForkbaseServlet servlet(server_store);
  auto indexes = MakeAllIndexes(server_store, smoke ? 1024 : 8192);
  const std::vector<Hash> roots = LoadAll(indexes, records);

  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (size_t i = 0; i < indexes.size(); ++i) {
      ConcurrentWriteConfig cfg;
      cfg.threads = threads;
      auto result = RunConcurrentWrites(&servlet, *indexes[i].index, roots[i],
                                        ops, cfg);
      printf("   %8.2f|%4.2f", result.kops, result.RpcsPerCommit());
      fflush(stdout);
    }
    printf("\n");
  }
}

// Multi-writer-same-branch contention: K writer threads racing commits
// onto ONE branch through the servlet's BranchManager — optimistic head
// CAS, lost races retried as two-parent merge commits (version/occ.h).
// Reported per structure: aggregate landed commits/s and lost head races
// per commit; the run aborts if any committed key is missing at the
// final head, because the whole point is zero lost updates under
// contention.
// Shape: the chunk uploads of a commit's body overlap across writers;
// only the publish (head CAS + one flushed batch) serializes per branch,
// so structures with batched write paths (POS, and the B+-tree baseline)
// scale ~2.5-3x from 1 to 4 writers. MPT — and to a lesser degree MBT —
// falls off at 4 writers instead: its per-key top-down write path makes
// the Merge3 of a retry cost ~divergence x per-key-rebuild (the same
// write asymmetry the paper's Figure 7b measures), and on a contended
// branch that work grows with the writer count.
void RunBranchCommitSection(uint64_t scale,
                            const std::vector<int>& thread_counts,
                            bool smoke = false) {
  RunBranchCommitTable((smoke ? 1000 : 8000) * scale,
                       /*mbt_buckets=*/smoke ? 256 : 2048, thread_counts,
                       /*commits_per_writer=*/smoke ? 4 : 24,
                       /*uploads_per_commit=*/smoke ? 2 : 5);
}

// Group-commit publish pipeline: the same contended-branch regime, swept
// over {group commit off, on}. The commit bodies are small (publish-bound
// cells) because the combiner's whole point is the publish ceiling: with
// per-commit publishes, one hot branch lands at most one commit per
// (merge CPU + flush); the combining queue batches K waiting committers
// into one merged publish, so commits-per-fsync rises toward K and
// throughput scales with the batch size instead.
void RunGroupCommitSection(uint64_t scale,
                           const std::vector<int>& thread_counts,
                           bool smoke = false) {
  RunGroupCommitTable((smoke ? 1000 : 8000) * scale,
                      /*mbt_buckets=*/smoke ? 256 : 2048, thread_counts,
                      /*commits_per_writer=*/smoke ? 4 : 48,
                      /*uploads_per_commit=*/1,
                      /*window_micros=*/500);
}

// Multi-client read scaling: K client threads, each with its own cache,
// reading through one servlet. Reported per structure: aggregate kops/s
// and mean cache hit ratio at each thread count.
void RunThreadedSection(uint64_t scale, const std::vector<int>& thread_counts,
                        bool smoke = false) {
  const uint64_t n = (smoke ? 2000 : 20000) * scale;
  const uint64_t num_ops = smoke ? 500 : 3000;

  printf("\n[multi-client read scaling] n=%llu read-only θ=0 "
         "rtt=20us(sleep) cache=1MB/client\n",
         static_cast<unsigned long long>(n));
  printf("%8s %15s %15s %15s %15s\n", "threads", "pos(kops|hit)",
         "mbt(kops|hit)", "mpt(kops|hit)", "mvmb(kops|hit)");

  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(n);
  auto ops = gen.GenerateOps(num_ops, n, /*write_ratio=*/0.0, /*theta=*/0.0);

  auto server_store = NewInMemoryNodeStore();
  siri::ForkbaseServlet servlet(server_store);
  auto indexes = MakeAllIndexes(server_store);
  const std::vector<Hash> roots = LoadAll(indexes, records);

  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (size_t i = 0; i < indexes.size(); ++i) {
      ConcurrentReadConfig cfg;
      cfg.threads = threads;
      auto result = RunConcurrentReads(&servlet, *indexes[i].index, roots[i],
                                       ops, cfg);
      printf("   %8.1f|%4.2f", result.kops, result.hit_ratio);
      fflush(stdout);
    }
    printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t scale = ParseScale(argc, argv);
  const std::vector<int> thread_counts = ParseThreadCounts(argc, argv);
  const std::vector<int> write_threads = ParseWriteThreadCounts(argc, argv);
  const bool threads_only = HasFlag(argc, argv, "--threads-only");
  const bool write_scaling_only = HasFlag(argc, argv, "--write-scaling-only");
  const bool branch_commits_only = HasFlag(argc, argv, "--branch-commits-only");
  const bool group_commit_only = HasFlag(argc, argv, "--group-commit-only");
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string transport = ParseTransportFlag(argc, argv);
  const std::string socket_table = ParseSocketTable(argc, argv);
  std::vector<uint64_t> sizes;
  for (uint64_t n : {10000, 20000, 40000, 80000}) sizes.push_back(n * scale);
  const uint64_t num_ops = 3000;
  const double thetas[] = {0.0, 0.5, 0.9};
  const double write_ratios[] = {0.0, 0.5, 1.0};

  PrintHeader("Figure 6", "YCSB throughput (kops/s) across θ and write ratio");

  if (transport == "socket") {
    // The socket boundary is its own measurement regime (real loopback
    // TCP, real fsyncs): it runs alone so its numbers can never be read
    // as one series with the slept-RTT in-process sections.
    const uint64_t n = (smoke ? 500 : 4000) * scale;
    const int writers = write_threads.back();
    const int commits_per_writer = smoke ? 3 : 16;
    const uint64_t window_micros = 500;
    if (socket_table == "disk-fault") {
      // A healthy publish phase, then ENOSPC on every further write op:
      // every post-trip write must fail with the typed degraded reject
      // (no retry burn), reads keep serving, and zero acked commits are
      // lost — the run aborts otherwise.
      RunSocketDiskFaultTable(n, writers, commits_per_writer, window_micros);
    } else if (socket_table == "chaos") {
      // Acked-commit goodput under client-side fault injection at a swept
      // rate; the run aborts on any lost or duplicated acked commit.
      RunSocketChaosTable(n, writers, commits_per_writer,
                          smoke ? std::vector<double>{0.0, 0.05}
                                : std::vector<double>{0.0, 0.02, 0.05, 0.10},
                          window_micros);
    } else if (socket_table == "pipeline") {
      // Writers sharing ONE connection, swept over the pipelining depth
      // (depth 1 = the serialized baseline) plus a cache-push row at the
      // deepest depth. The acceptance read: depth >= 4 shows higher
      // commits/s and strictly lower syscalls/commit than depth 1.
      RunSocketPipelineTable(n, writers, commits_per_writer,
                             smoke ? std::vector<int>{1, 8}
                                   : std::vector<int>{1, 4, 8},
                             window_micros);
    } else {
      // The group-commit regime per structure: measured commits/s,
      // bytes/RPC, syscalls per commit, and real commits-per-fsync.
      RunSocketCommitTable(n, /*mbt_buckets=*/smoke ? 256 : 2048,
                           write_threads,
                           /*commits_per_writer=*/smoke ? 3 : 24,
                           window_micros);
    }
    return 0;
  }
  if (socket_table != "commit") {
    fprintf(stderr,
            "%s: --%s requires --transport=socket (it measures the real "
            "wire)\n",
            argv[0], socket_table.c_str());
    return 2;
  }

  if (smoke) {
    // Tiny end-to-end pass over every threaded section — the TSan CI
    // smoke: races only reachable at bench-scale contention surface here.
    // The group-commit sweep runs both off and on, so the combiner's
    // lanes, window waits, and combined merges all execute under TSan.
    RunThreadedSection(scale, thread_counts, /*smoke=*/true);
    RunWriteScalingSection(scale, write_threads, /*smoke=*/true);
    RunBranchCommitSection(scale, write_threads, /*smoke=*/true);
    RunGroupCommitSection(scale, write_threads, /*smoke=*/true);
    RunCacheShardSection(thread_counts, /*smoke=*/true);
    RunStoreShardSection(write_threads, /*smoke=*/true);
    return 0;
  }
  if (threads_only || write_scaling_only || branch_commits_only ||
      group_commit_only) {
    if (threads_only) {
      RunThreadedSection(scale, thread_counts);
      RunCacheShardSection(thread_counts);
    }
    if (write_scaling_only) {
      RunWriteScalingSection(scale, write_threads);
      RunStoreShardSection(write_threads);
    }
    if (branch_commits_only) {
      RunBranchCommitSection(scale, write_threads);
    }
    if (group_commit_only) {
      RunGroupCommitSection(scale, write_threads);
    }
    return 0;
  }

  for (double theta : thetas) {
    for (double wr : write_ratios) {
      printf("\n[θ=%.1f write_ratio=%.1f]\n", theta, wr);
      printf("%10s %10s %10s %10s %10s\n", "#records", "pos", "mbt", "mpt",
             "mvmb");
      for (uint64_t n : sizes) {
        printf("%10llu", static_cast<unsigned long long>(n));
        YcsbGenerator gen(1);
        auto records = gen.GenerateRecords(n);
        auto ops = gen.GenerateOps(num_ops, n, wr, theta);
        for (auto& [name, index] : MakeAllIndexes(NewInMemoryNodeStore())) {
          Hash root = LoadRecords(index.get(), records);
          const double kops = RunOps(index.get(), &root, ops, WriteBatchFor(name, 100));
          printf(" %10.1f", kops);
          fflush(stdout);
        }
        printf("\n");
      }
    }
  }

  RunThreadedSection(scale, thread_counts);
  RunWriteScalingSection(scale, write_threads);
  RunBranchCommitSection(scale, write_threads);
  RunGroupCommitSection(scale, write_threads);
  RunCacheShardSection(thread_counts);
  RunStoreShardSection(write_threads);
  return 0;
}
