// Copyright (c) 2026 The siri Authors. MIT license.
//
// Figure 21 — system-level throughput with the indexes integrated behind a
// Forkbase-style servlet: reads go through a client-side node cache over
// an accounted remote boundary; writes run server-side.
// Shape to reproduce: read ranking shifts with the cache hit ratio — MBT
// suffers at small N (fixed-entry nodes yield fewer repeated reads) and at
// very large N (bucket scans), POS ≈ baseline; write ranking matches the
// index-level experiment.

#include "bench/bench_common.h"
#include "system/forkbase.h"

using namespace siri;
using namespace siri::bench;

int main(int argc, char** argv) {
  const uint64_t scale = ParseScale(argc, argv);
  const std::vector<int> thread_counts = ParseThreadCounts(argc, argv);
  // fig21's series are all simulated-RTT in-process numbers; a socket
  // variant would be a different quantity. Refuse rather than mislabel
  // (fig06 owns the socket regime).
  if (ParseTransportFlag(argc, argv) != "inproc") {
    fprintf(stderr,
            "%s: --transport=socket is not supported by this figure; "
            "use fig06_ycsb_throughput --transport=socket\n",
            argv[0]);
    return 2;
  }
  std::vector<uint64_t> sizes;
  for (uint64_t n : {10000, 40000, 160000}) sizes.push_back(n * scale);
  const uint64_t num_ops = 3000;
  const uint64_t rtt_nanos = 20000;  // 20us simulated round trip
  const uint64_t cache_bytes = 4 << 20;

  PrintHeader("Figure 21", "Forkbase-integrated throughput (kops/s)");

  for (const char* phase : {"read", "write"}) {
    printf("\n[%s workload, rtt=%lluus, cache=%lluMB]\n", phase,
           static_cast<unsigned long long>(rtt_nanos / 1000),
           static_cast<unsigned long long>(cache_bytes >> 20));
    printf("%10s %18s %18s %18s %18s\n", "#records", "pos(kops|hit)",
           "mbt(kops|hit)", "mpt(kops|hit)", "mvmb(kops|hit)");
    for (uint64_t n : sizes) {
      printf("%10llu", static_cast<unsigned long long>(n));
      YcsbGenerator gen(1);
      auto records = gen.GenerateRecords(n);
      const bool is_read = strcmp(phase, "read") == 0;
      auto ops = gen.GenerateOps(num_ops, n, is_read ? 0.0 : 1.0, 0.0);

      auto server_store = NewInMemoryNodeStore();
      ForkbaseServlet servlet(server_store);
      for (auto& [name, server_index] : MakeAllIndexes(server_store)) {
        // Server builds the dataset.
        Hash root = LoadRecords(server_index.get(), records);
        if (is_read) {
          // Client reads through its cache.
          auto client_store = std::make_shared<ForkbaseClientStore>(
              &servlet, cache_bytes, rtt_nanos);
          auto client_index = server_index->WithStore(client_store);
          Hash client_root = root;
          const double kops = RunOps(client_index.get(), &client_root, ops);
          printf("   %9.1f|%4.2f", kops,
                 client_store->remote_stats().HitRatio());
        } else {
          // Writes run fully server-side (no cache involvement).
          const double kops = RunOps(server_index.get(), &root, ops, WriteBatchFor(name, 100));
          printf("   %9.1f|----", kops);
        }
        fflush(stdout);
      }
      printf("\n");
    }
  }

  // Multi-client scaling: K concurrent clients, each with a private cache,
  // against one servlet. Overlapped (slept) round trips make aggregate read
  // throughput scale with the client count — the regime the paper's system
  // experiment targets.
  {
    const uint64_t n = 40000 * scale;
    printf("\n[multi-client read scaling] n=%llu read-only rtt=%lluus(sleep) "
           "cache=%lluMB/client\n",
           static_cast<unsigned long long>(n),
           static_cast<unsigned long long>(rtt_nanos / 1000),
           static_cast<unsigned long long>(cache_bytes >> 20));
    printf("%8s %18s %18s %18s %18s\n", "threads", "pos(kops|hit)",
           "mbt(kops|hit)", "mpt(kops|hit)", "mvmb(kops|hit)");

    YcsbGenerator gen(1);
    auto records = gen.GenerateRecords(n);
    auto ops = gen.GenerateOps(num_ops, n, 0.0, 0.0);

    auto server_store = NewInMemoryNodeStore();
    ForkbaseServlet servlet(server_store);
    auto indexes = MakeAllIndexes(server_store);
    const std::vector<Hash> roots = LoadAll(indexes, records);

    for (int threads : thread_counts) {
      printf("%8d", threads);
      for (size_t i = 0; i < indexes.size(); ++i) {
        ConcurrentReadConfig cfg;
        cfg.threads = threads;
        cfg.cache_bytes = cache_bytes;
        cfg.rtt_nanos = rtt_nanos;
        auto result = RunConcurrentReads(&servlet, *indexes[i].index, roots[i],
                                         ops, cfg);
        printf("   %11.1f|%4.2f", result.kops, result.hit_ratio);
        fflush(stdout);
      }
      printf("\n");
    }
  }

  // Multi-client write scaling: K writer clients committing staged batches
  // against the servlet, one chunk-upload RPC (slept round trip) per
  // commit. Like the read path, aggregate write throughput scales with the
  // client count because the round trips overlap; the rpc column certifies
  // that every commit shipped its whole dirty path in ≤ 1 RTT.
  {
    const std::vector<int> write_threads = ParseWriteThreadCounts(argc, argv);
    const uint64_t n = 40000 * scale;
    printf("\n[multi-client write scaling] n=%llu write-only commit=20 "
           "rtt=2ms(sleep,1/commit) cache=%lluMB/client\n",
           static_cast<unsigned long long>(n),
           static_cast<unsigned long long>(cache_bytes >> 20));
    printf("%8s %18s %18s %18s %18s\n", "threads", "pos(kops|rpc)",
           "mbt(kops|rpc)", "mpt(kops|rpc)", "mvmb(kops|rpc)");

    YcsbGenerator gen(1);
    auto records = gen.GenerateRecords(n);
    auto ops = gen.GenerateOps(num_ops, n, /*write_ratio=*/1.0, 0.0);

    auto server_store = NewInMemoryNodeStore();
    ForkbaseServlet servlet(server_store);
    auto indexes = MakeAllIndexes(server_store);
    const std::vector<Hash> roots = LoadAll(indexes, records);

    for (int threads : write_threads) {
      printf("%8d", threads);
      for (size_t i = 0; i < indexes.size(); ++i) {
        ConcurrentWriteConfig cfg;
        cfg.threads = threads;
        cfg.cache_bytes = cache_bytes;
        auto result = RunConcurrentWrites(&servlet, *indexes[i].index,
                                          roots[i], ops, cfg);
        printf("   %11.2f|%4.2f", result.kops, result.RpcsPerCommit());
        fflush(stdout);
      }
      printf("\n");
    }
  }

  // Multi-writer-same-branch contention: the collaborative regime — K
  // writer clients racing commits onto ONE shared branch through the
  // servlet's BranchManager. Head movement is an optimistic CAS; a lost
  // race is retried as a two-parent merge commit (version/occ.h) whose
  // staged batch costs nothing unless it wins. The retry column is lost
  // head races per landed commit; every writer's every key must be
  // readable at the final head (zero lost updates) or the run aborts.
  {
    const std::vector<int> write_threads = ParseWriteThreadCounts(argc, argv);
    RunBranchCommitTable(8000 * scale, /*mbt_buckets=*/2048, write_threads,
                         /*commits_per_writer=*/24, /*uploads_per_commit=*/5);
    // Group-commit publish pipeline over the same contended regime:
    // {off, on} sweep with publish-bound commit bodies, so the combining
    // queue's batch-size win (commits-per-fsync > 1, throughput scaling
    // past the per-commit ceiling) is visible next to the per-commit
    // table above.
    RunGroupCommitTable(8000 * scale, /*mbt_buckets=*/2048, write_threads,
                        /*commits_per_writer=*/24, /*uploads_per_commit=*/1,
                        /*window_micros=*/500);
  }
  return 0;
}
