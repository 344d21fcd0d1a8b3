// Copyright (c) 2026 The siri Authors. MIT license.
//
// Shared scaffolding for the per-figure benchmark binaries. Every binary
// prints the same series the corresponding paper figure/table plots, at a
// laptop-scale default that preserves the figure's *shape* (who wins, by
// what factor, where the crossovers are). Pass --scale=K to multiply the
// dataset sizes, e.g. --scale=8 approaches the paper's full sizes.

#ifndef SIRI_BENCH_BENCH_COMMON_H_
#define SIRI_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/timer.h"
#include "crypto/sha256.h"
#include "index/index.h"
#include "io/fault_env.h"
#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "store/file_store.h"
#include "store/node_store.h"
#include "system/forkbase.h"
#include "version/occ.h"
#include "version/transfer.h"
#include "workload/ycsb.h"

namespace siri {
namespace bench {

/// Every flag any figure bench understands. Entries ending in '=' are
/// prefix flags (take a value); the rest match exactly.
inline const char* const kKnownBenchFlags[] = {
    "--scale=",
    "--threads=",
    "--write-threads=",
    "--help",
    "--threads-only",
    "--write-scaling-only",
    "--branch-commits-only",
    "--group-commit-only",
    "--smoke",
    "--transport=",
    "--chaos",
    "--pipeline",
    "--disk-fault=",
};

/// Returns the first argv entry matching no known bench flag, or nullptr
/// when every argument is recognized. Pure (no exit, no I/O) so
/// tests/bench_flags_test.cc can cover the matching rules directly.
inline const char* FirstUnknownFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    for (const char* flag : kKnownBenchFlags) {
      const size_t len = strlen(flag);
      known = flag[len - 1] == '=' ? strncmp(argv[i], flag, len) == 0
                                   : strcmp(argv[i], flag) == 0;
      if (known) break;
    }
    if (!known) return argv[i];
  }
  return nullptr;
}

/// Parses --scale=K (default 1) and --help from argv. Rejects anything
/// not in kKnownBenchFlags up front (exit 2 with a message), so a typo'd
/// flag (--sclae=8, --thread=4) aborts the run instead of silently
/// benchmarking the defaults and poisoning a recorded trajectory.
inline uint64_t ParseScale(int argc, char** argv) {
  if (const char* bad = FirstUnknownFlag(argc, argv)) {
    fprintf(stderr, "%s: unrecognized argument '%s' (see --help)\n", argv[0],
            bad);
    exit(2);
  }
  uint64_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--scale=", 8) == 0) {
      scale = strtoull(argv[i] + 8, nullptr, 10);
      if (scale == 0) scale = 1;
    } else if (strcmp(argv[i], "--help") == 0) {
      printf("usage: %s [--scale=K]\n"
             "  YCSB benches (fig06/fig10/fig21) also take"
             " [--threads=K[,K...]] [--write-threads=K[,K...]]\n"
             "  fig06 also takes [--threads-only] [--write-scaling-only]"
             " [--branch-commits-only] [--smoke]\n"
             "  fig06 --transport=socket also takes one of [--chaos]"
             " (goodput under injected wire faults), [--pipeline] (depth"
             " sweep of writers sharing one connection) or"
             " [--disk-fault=enospc] (read-only degradation)\n",
             argv[0]);
      exit(0);
    }
  }
  return scale;
}

/// Parses a K[,K...] thread-count list from \p flag (e.g. "--threads=").
/// Default: the paper-style 1/2/4/8 sweep. Every element must be a
/// positive decimal count that fits an int; anything else exits 2, like
/// --transport: a typo'd count must not run a different sweep under the
/// intended label.
inline std::vector<int> ParseThreadList(int argc, char** argv,
                                        const char* flag) {
  const size_t flag_len = strlen(flag);
  std::vector<int> counts;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], flag, flag_len) != 0) continue;
    counts.clear();
    const char* p = argv[i] + flag_len;
    for (;;) {
      // strtol alone would accept a sign or leading blanks; a count starts
      // with a digit.
      char* end = const_cast<char*>(p);
      errno = 0;
      const long v =
          isdigit(static_cast<unsigned char>(*p)) ? strtol(p, &end, 10) : 0;
      if (v <= 0 || v > INT_MAX || errno == ERANGE ||
          (*end != ',' && *end != '\0')) {
        fprintf(stderr, "%s: %s wants positive counts K[,K...], got '%s'\n",
                argv[0], flag, argv[i] + flag_len);
        exit(2);
      }
      counts.push_back(static_cast<int>(v));
      if (*end == '\0') break;
      p = end + 1;
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

/// --threads=K[,K...] — client-thread counts for the multi-client read
/// sections of the YCSB benches.
inline std::vector<int> ParseThreadCounts(int argc, char** argv) {
  return ParseThreadList(argc, argv, "--threads=");
}

/// --write-threads=K[,K...] — writer-thread counts for the write-scaling
/// sections.
inline std::vector<int> ParseWriteThreadCounts(int argc, char** argv) {
  return ParseThreadList(argc, argv, "--write-threads=");
}

/// --transport=inproc|socket (default inproc). Rejects anything else with
/// exit 2: a misspelled transport must not silently fall back to the
/// in-process path and record its numbers under the wrong label.
inline std::string ParseTransportFlag(int argc, char** argv) {
  std::string transport = "inproc";
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--transport=", 12) == 0) transport = argv[i] + 12;
  }
  if (transport != "inproc" && transport != "socket") {
    fprintf(stderr, "%s: --transport must be 'inproc' or 'socket', got '%s'\n",
            argv[0], transport.c_str());
    exit(2);
  }
  return transport;
}

/// --disk-fault=enospc (default none). Rejects anything else with exit 2
/// for the same reason as --transport: a misspelled fault kind must not
/// silently run the healthy benchmark and report it as a fault run.
inline std::string ParseDiskFaultFlag(int argc, char** argv) {
  std::string fault = "none";
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--disk-fault=", 13) == 0) fault = argv[i] + 13;
  }
  if (fault != "none" && fault != "enospc") {
    fprintf(stderr, "%s: --disk-fault must be 'enospc', got '%s'\n", argv[0],
            fault.c_str());
    exit(2);
  }
  return fault;
}

/// True if \p flag (e.g. "--threads-only") was passed.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Which fig06 socket table the flags select: "disk-fault"
/// (--disk-fault=enospc), "chaos" (--chaos), "pipeline" (--pipeline), or
/// "commit" when none is given. Each table is its own run, so naming more
/// than one exits 2 instead of silently running only one of them.
inline std::string ParseSocketTable(int argc, char** argv) {
  std::vector<std::string> picked;
  if (ParseDiskFaultFlag(argc, argv) == "enospc") {
    picked.push_back("disk-fault");
  }
  if (HasFlag(argc, argv, "--chaos")) picked.push_back("chaos");
  if (HasFlag(argc, argv, "--pipeline")) picked.push_back("pipeline");
  if (picked.size() > 1) {
    fprintf(stderr, "%s: --%s and --%s select different socket tables; "
            "pass at most one\n",
            argv[0], picked[0].c_str(), picked[1].c_str());
    exit(2);
  }
  return picked.empty() ? "commit" : picked[0];
}

struct NamedIndex {
  std::string name;
  std::unique_ptr<ImmutableIndex> index;
};

/// The paper's four structures, node sizes tuned to ~1 KB (§5).
/// \param mbt_buckets bucket count; the paper picks it per experiment.
inline std::vector<NamedIndex> MakeAllIndexes(const NodeStorePtr& store,
                                              uint64_t mbt_buckets = 8192) {
  std::vector<NamedIndex> out;
  out.push_back({"pos", std::make_unique<PosTree>(store)});
  MbtOptions mbt_opt;
  mbt_opt.num_buckets = mbt_buckets;
  mbt_opt.fanout = 32;
  out.push_back({"mbt", std::make_unique<Mbt>(store, mbt_opt)});
  out.push_back({"mpt", std::make_unique<Mpt>(store)});
  out.push_back({"mvmb", std::make_unique<MvmbTree>(store)});
  return out;
}

/// Loads records in batches; returns the resulting version root.
inline Hash LoadRecords(ImmutableIndex* index, const std::vector<KV>& records,
                        size_t batch_size = 4000) {
  Hash root = index->EmptyRoot();
  for (size_t i = 0; i < records.size(); i += batch_size) {
    std::vector<KV> batch(
        records.begin() + i,
        records.begin() + std::min(i + batch_size, records.size()));
    auto next = index->PutBatch(root, batch);
    SIRI_CHECK(next.ok());
    root = *next;
  }
  return root;
}

/// LoadRecords into each of \p indexes; returns their roots in order.
inline std::vector<Hash> LoadAll(const std::vector<NamedIndex>& indexes,
                                 const std::vector<KV>& records) {
  std::vector<Hash> roots;
  for (const NamedIndex& named : indexes) {
    roots.push_back(LoadRecords(named.index.get(), records));
  }
  return roots;
}

/// \p num / \p den, or 0 when \p den is 0 (an empty cell reports 0).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Starts \p threads threads that wait on one go flag, releases them
/// together, and returns the seconds until the last one finishes
/// body(t) — thread start-up is never timed.
template <typename Body>
double RunTimedWorkers(int threads, const Body& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  Timer timer;
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  return timer.ElapsedSeconds();
}

/// Runs an op stream (reads point-lookup, writes batched per
/// \p write_batch) and returns throughput in kops/s.
inline double RunOps(ImmutableIndex* index, Hash* root,
                     const std::vector<YcsbOp>& ops, size_t write_batch = 1) {
  Timer timer;
  std::vector<KV> pending;
  pending.reserve(write_batch);
  uint64_t done = 0;
  for (const YcsbOp& op : ops) {
    if (op.type == YcsbOp::Type::kRead) {
      auto got = index->Get(*root, op.key, nullptr);
      SIRI_CHECK(got.ok());
    } else {
      pending.push_back(KV{op.key, op.value});
      if (pending.size() >= write_batch) {
        auto next = index->PutBatch(*root, std::move(pending));
        SIRI_CHECK(next.ok());
        *root = *next;
        pending.clear();
      }
    }
    ++done;
  }
  if (!pending.empty()) {
    auto next = index->PutBatch(*root, std::move(pending));
    SIRI_CHECK(next.ok());
    *root = *next;
  }
  return Ratio(static_cast<double>(done), timer.ElapsedSeconds()) / 1000.0;
}

/// Write batch granularity per structure, mirroring the paper's
/// implementations (§5.2): POS-Tree "applies batching techniques, taking
/// advantage of the bottom-up build order"; MBT groups a batch by bucket.
/// The MPT port and the MVMB+-Tree baseline apply operations individually
/// (Ethereum's trie and a classic B+-tree have no batch write path).
inline size_t WriteBatchFor(const std::string& name, size_t batch) {
  if (name == "pos" || name == "prolly" || name == "mbt") return batch;
  return 1;
}

/// Paper §5.4.2 collaboration setup: every party initializes the same base
/// dataset, then runs its own insert workload. An `overlap` fraction of
/// the inserted records (key AND value) is common to all parties and lives
/// under a shared key namespace (collaborative datasets partition key
/// space by ownership); the rest is party-private. All intermediate
/// versions are retained, as an immutable store does. Returns the version
/// roots per party.
struct CollaborationConfig {
  uint64_t base_records = 4000;
  uint64_t insert_records = 16000;  ///< workload size per party
  int parties = 10;
  double overlap = 0.5;
  size_t batch_size = 1000;
  bool shuffle_order = true;   ///< party-specific op order (SI stressor)
  bool all_versions = true;    ///< collect every intermediate version
};

inline std::vector<std::vector<Hash>> RunCollaboration(
    ImmutableIndex* index, const CollaborationConfig& cfg,
    YcsbGenerator* gen) {
  auto base = gen->GenerateRecords(cfg.base_records, "base");
  const uint64_t shared_records =
      static_cast<uint64_t>(cfg.insert_records * cfg.overlap);

  std::vector<std::vector<Hash>> roots_per_party;
  for (int p = 0; p < cfg.parties; ++p) {
    const std::string ns = "party" + std::to_string(p);
    std::vector<KV> ops;
    ops.reserve(cfg.insert_records);
    for (uint64_t j = 0; j < shared_records; ++j) {
      ops.push_back(KV{"shared/" + gen->KeyOf(j, "shared"),
                       gen->ValueOf(j, 0, "shared")});
    }
    for (uint64_t j = shared_records; j < cfg.insert_records; ++j) {
      ops.push_back(KV{ns + "/" + gen->KeyOf(j, ns), gen->ValueOf(j, 0, ns)});
    }
    if (cfg.shuffle_order) {
      Rng rng(0xc0ffee + p);
      for (size_t i = ops.size(); i > 1; --i) {
        std::swap(ops[i - 1], ops[rng.Uniform(i)]);
      }
    }

    std::vector<Hash> roots;
    Hash root = LoadRecords(index, base, cfg.batch_size);
    if (cfg.all_versions) roots.push_back(root);
    for (size_t i = 0; i < ops.size(); i += cfg.batch_size) {
      std::vector<KV> batch(ops.begin() + i,
                            ops.begin() +
                                std::min(i + cfg.batch_size, ops.size()));
      auto next = index->PutBatch(root, batch);
      SIRI_CHECK(next.ok());
      root = *next;
      if (cfg.all_versions) roots.push_back(root);
    }
    if (!cfg.all_versions) roots.push_back(root);
    roots_per_party.push_back(std::move(roots));
  }
  return roots_per_party;
}

/// Multi-client read path (§5.6 at K clients): one ForkbaseServlet serves
/// \p threads ForkbaseClientStore clients, each on its own thread with a
/// private node cache. The simulated round trip uses RttModel::kSleep so
/// concurrent clients overlap their round trips — aggregate throughput then
/// scales with the client count the way networked clients do, even on a
/// small core count.
struct ConcurrentReadConfig {
  int threads = 1;
  uint64_t cache_bytes = 1 << 20;  ///< per client
  uint64_t rtt_nanos = 20000;      ///< 20us simulated round trip
  bool record_latency = false;
};

struct ConcurrentReadResult {
  double kops = 0;         ///< aggregate ops/s across all clients, in kops
  double hit_ratio = 0;    ///< mean per-client cache hit ratio
  uint64_t remote_gets = 0;
  Histogram latencies_us;  ///< per-op read latencies (when recorded)
};

inline ConcurrentReadResult RunConcurrentReads(ForkbaseServlet* servlet,
                                               const ImmutableIndex& proto,
                                               const Hash& root,
                                               const std::vector<YcsbOp>& ops,
                                               const ConcurrentReadConfig& cfg) {
  std::vector<std::shared_ptr<ForkbaseClientStore>> stores;
  std::vector<std::unique_ptr<ImmutableIndex>> indexes;
  for (int t = 0; t < cfg.threads; ++t) {
    stores.push_back(std::make_shared<ForkbaseClientStore>(
        servlet, cfg.cache_bytes, cfg.rtt_nanos, RttModel::kSleep));
    indexes.push_back(proto.WithStore(stores.back()));
  }

  uint64_t reads_per_client = 0;
  for (const YcsbOp& op : ops) reads_per_client += op.type == YcsbOp::Type::kRead;

  std::vector<Histogram> lat(cfg.threads);
  const double secs = RunTimedWorkers(cfg.threads, [&](int t) {
    const ImmutableIndex* index = indexes[t].get();
    for (const YcsbOp& op : ops) {
      if (op.type != YcsbOp::Type::kRead) continue;
      if (cfg.record_latency) {
        Timer lt;
        auto got = index->Get(root, op.key, nullptr);
        lat[t].Record(lt.ElapsedMicros());
        SIRI_CHECK(got.ok());
      } else {
        auto got = index->Get(root, op.key, nullptr);
        SIRI_CHECK(got.ok());
      }
    }
  });

  ConcurrentReadResult out;
  const uint64_t total_reads = reads_per_client * cfg.threads;
  out.kops = Ratio(static_cast<double>(total_reads), secs) / 1000.0;
  for (const auto& s : stores) {
    const auto stats = s->remote_stats();
    out.hit_ratio += stats.HitRatio() / cfg.threads;
    out.remote_gets += stats.remote_gets;
  }
  for (const Histogram& h : lat) out.latencies_us.Merge(h);
  return out;
}

/// Multi-client write path: K writer clients, each on its own thread with
/// its own ForkbaseClientStore, committing batches of writes against a
/// shared servlet. Every commit stages its dirty root-to-leaf nodes and
/// ships them in ONE PutMany upload RPC (one slept round trip), so — as
/// with the read path — aggregate throughput scales with the client count
/// because the clients' round trips overlap. Writers derive independent
/// version lineages from the shared base root (copy-on-write needs no
/// coordination beyond the store).
struct ConcurrentWriteConfig {
  int threads = 1;
  size_t commit_kvs = 20;          ///< writes per commit (one PutBatch)
  uint64_t cache_bytes = 1 << 20;  ///< per client
  uint64_t rtt_nanos = 2000000;    ///< 2ms simulated upload round trip
};

struct ConcurrentWriteResult {
  double kops = 0;           ///< aggregate writes/s across clients, in kops
  uint64_t commits = 0;      ///< total commits across clients
  uint64_t upload_rpcs = 0;  ///< total write RPCs (sum of remote_puts)
  /// Upload RPCs per commit: 1.0 when every commit batched into one RPC.
  double RpcsPerCommit() const {
    return commits == 0 ? 0 : static_cast<double>(upload_rpcs) / commits;
  }
};

inline ConcurrentWriteResult RunConcurrentWrites(
    ForkbaseServlet* servlet, const ImmutableIndex& proto,
    const Hash& base_root, const std::vector<YcsbOp>& ops,
    const ConcurrentWriteConfig& cfg) {
  std::vector<std::shared_ptr<ForkbaseClientStore>> stores;
  std::vector<std::unique_ptr<ImmutableIndex>> indexes;
  for (int t = 0; t < cfg.threads; ++t) {
    stores.push_back(std::make_shared<ForkbaseClientStore>(
        servlet, cfg.cache_bytes, cfg.rtt_nanos, RttModel::kSleep));
    indexes.push_back(proto.WithStore(stores.back()));
    // Index construction may upload a skeleton (MBT's empty tree); that is
    // setup, not steady-state commit traffic.
    stores.back()->ResetOpCounters();
  }

  std::vector<std::vector<KV>> commits;  // shared op stream, pre-batched
  for (const YcsbOp& op : ops) {
    if (op.type != YcsbOp::Type::kWrite) continue;
    if (commits.empty() || commits.back().size() >= cfg.commit_kvs) {
      commits.emplace_back();
    }
    commits.back().push_back(KV{op.key, op.value});
  }

  uint64_t writes_per_client = 0;
  for (const auto& c : commits) writes_per_client += c.size();

  const double secs = RunTimedWorkers(cfg.threads, [&](int t) {
    ImmutableIndex* index = indexes[t].get();
    Hash root = base_root;
    for (const auto& commit : commits) {
      // Writer-private key prefix: every client builds its own lineage.
      std::vector<KV> batch;
      batch.reserve(commit.size());
      for (const KV& kv : commit) {
        batch.push_back(KV{"w" + std::to_string(t) + "/" + kv.key, kv.value});
      }
      auto next = index->PutBatch(root, std::move(batch));
      SIRI_CHECK(next.ok());
      root = *next;
    }
  });

  ConcurrentWriteResult out;
  const uint64_t total_writes = writes_per_client * cfg.threads;
  out.kops = Ratio(static_cast<double>(total_writes), secs) / 1000.0;
  out.commits = commits.size() * cfg.threads;
  for (const auto& s : stores) out.upload_rpcs += s->remote_stats().remote_puts;
  return out;
}

/// Multi-writer-same-branch contention (the collaborative regime of
/// §2.1/§5.6): K writer clients, ONE branch, optimistic head CAS with
/// auto-merge retries. Each writer reads the branch head, builds a commit
/// of disjoint writer-private keys on the head's root through its own
/// client store, and lands it with CommitWithMerge — a lost head race is
/// retried as a two-parent merge commit whose staged batch costs nothing
/// unless it wins. Afterward every writer's every key must be readable at
/// the final head (zero lost updates).
struct BranchContentionConfig {
  int threads = 1;
  int commits_per_writer = 24;
  /// Publish through the servlet's group-commit combiner instead of
  /// per-commit CommitWithMerge: K racing committers batch into one
  /// combined merge + one staged flush + one head swing. The combiner's
  /// window/batch knobs come from the servlet's GroupCommitOptions.
  bool group_commit = false;
  /// Chunk uploads per commit: a branch commit publishes a body of work
  /// built through several staged batches (each one upload RPC), the way
  /// a collaborative writer accumulates changes before committing. The
  /// uploads overlap across writers; only the publish (head CAS + flush)
  /// serializes per branch, so the upload:publish ratio is what aggregate
  /// commit throughput scales with.
  int uploads_per_commit = 5;
  size_t upload_kvs = 10;           ///< writer-private keys per chunk upload
  uint64_t cache_bytes = 32 << 20;  ///< shared client cache (holds the base
                                    ///< version of every structure + churn)
  uint64_t rtt_nanos = 2000000;     ///< 2ms simulated round trip (sleep)
};

/// The writer-private key scheme RunBranchContention commits and its
/// lost-update verifier re-reads — one definition so the two sides can
/// never drift apart.
inline std::string BranchContentionKey(int writer, int commit, int upload,
                                       size_t kv) {
  return "w" + std::to_string(writer) + "/c" + std::to_string(commit) + "/u" +
         std::to_string(upload) + "/k" + std::to_string(kv);
}

/// Counts the BranchContentionKey keys that \p writers x
/// \p commits_per_writer commits wrote — uploads [first_upload,
/// first_upload + uploads), \p upload_kvs keys each — and that are missing
/// at \p root: the zero-lost-updates check of every contention table.
inline uint64_t MissingKeys(const ImmutableIndex& index, const Hash& root,
                            int writers, int commits_per_writer,
                            int first_upload, int uploads, size_t upload_kvs) {
  uint64_t missing = 0;
  for (int t = 0; t < writers; ++t) {
    for (int c = 0; c < commits_per_writer; ++c) {
      for (int u = first_upload; u < first_upload + uploads; ++u) {
        for (size_t k = 0; k < upload_kvs; ++k) {
          auto got = index.Get(root, BranchContentionKey(t, c, u, k), nullptr);
          if (!got.ok() || !got->has_value()) ++missing;
        }
      }
    }
  }
  return missing;
}

struct BranchContentionResult {
  double commits_per_sec = 0;  ///< aggregate landed commits/s
  uint64_t commits = 0;        ///< landed commits (threads x per-writer)
  uint64_t cas_failures = 0;   ///< head races lost (branch_stats)
  uint64_t merge_commits = 0;  ///< merge/combined commits written
  uint64_t combined_commits = 0;  ///< commits landed in ≥2-member batches
  uint64_t flushes = 0;        ///< server-store durability points paid
  bool lost_update = false;    ///< any committed key missing at final head

  /// Lost head races per landed commit: 0 single-writer, grows with K.
  double RetriesPerCommit() const {
    return commits == 0 ? 0 : static_cast<double>(cas_failures) / commits;
  }

  /// Landed commits per server-store flush (fsync on a disk-backed
  /// deployment): 1.0 per-commit publishes, > 1 when group commit
  /// amortizes the durability point across a batch.
  double CommitsPerFlush() const {
    return flushes == 0 ? 0 : static_cast<double>(commits) / flushes;
  }
};

inline BranchContentionResult RunBranchContention(
    ForkbaseServlet* servlet, const ImmutableIndex& proto,
    const Hash& base_root, const std::string& branch,
    const BranchContentionConfig& cfg) {
  BranchManager* mgr = servlet->branches();
  {
    auto init = mgr->CommitOnBranch(branch, base_root, "init", "base");
    SIRI_CHECK(init.ok());
  }

  // One client app, K writer worker threads (PR 2's shared-client model):
  // every upload (PutMany) write-allocates into the shared cache, so each
  // writer reads the evolving head — and a merge retry reads base, ours
  // and theirs — almost entirely locally. Per-commit cost is then
  // dominated by the slept upload RPCs, which concurrent writers overlap,
  // and a winning merge retry ships its whole staged batch (merged pages
  // + both commit objects) in exactly one more upload RPC.
  auto client_store = std::make_shared<ForkbaseClientStore>(
      servlet, cfg.cache_bytes, cfg.rtt_nanos, RttModel::kSleep);
  auto client_index = proto.WithStore(client_store);
  // Steady-state collaboration: the client holds the shared base version
  // before the race starts, delivered the way a replica receives one — as
  // a version-transfer pack landed in a single batched PutMany (which
  // write-allocates the whole version into the shared cache). From here
  // on every node a commit or a merge retry reads is either cached base
  // state or a peer's upload; the measured round trips are the uploads
  // themselves, which concurrent writers overlap.
  {
    auto pack = PackVersions(proto, {base_root});
    SIRI_CHECK(pack.ok());
    SIRI_CHECK(UnpackVersions(*pack, client_store.get()).ok());
  }

  std::atomic<uint64_t> merge_commits{0};
  const uint64_t flushes_before = servlet->store()->stats().flushes;
  const double secs = RunTimedWorkers(cfg.threads, [&](int t) {
    ImmutableIndex* index = client_index.get();
    MergeCommitOptions opts;
    // The bench must never abandon a commit: at 8 writers on one branch
    // a streak of 64+ lost races is possible, so the cap is effectively
    // removed (backoff still bounds the retry rate).
    opts.max_retries = std::numeric_limits<int>::max();
    for (int c = 0; c < cfg.commits_per_writer; ++c) {
      auto head = mgr->Head(branch);
      SIRI_CHECK(head.ok());
      auto head_commit = mgr->ReadCommit(*head);
      SIRI_CHECK(head_commit.ok());
      // Build the commit's body: several chained chunk uploads on top
      // of the head root (each PutBatch stages its dirty path and ships
      // it as one upload RPC).
      Hash root = head_commit->root;
      for (int u = 0; u < cfg.uploads_per_commit; ++u) {
        std::vector<KV> batch;
        batch.reserve(cfg.upload_kvs);
        for (size_t k = 0; k < cfg.upload_kvs; ++k) {
          batch.push_back(KV{BranchContentionKey(t, c, u, k),
                             "v" + std::to_string(c)});
        }
        auto next = index->PutBatch(root, std::move(batch));
        SIRI_CHECK(next.ok());
        root = *next;
      }
      if (cfg.group_commit) {
        // Publish through the combining commit queue: racing committers
        // batch into one combined merge + one flush + one head swing.
        PublishSpec spec;
        spec.index = index;
        spec.branch = branch;
        spec.new_root = root;
        spec.author = "w" + std::to_string(t);
        spec.message = "c" + std::to_string(c);
        spec.expected_head = *head;
        auto landed = servlet->combiner()->Publish(spec);
        SIRI_CHECK(landed.ok());
        merge_commits.fetch_add(landed->merge_commits,
                                std::memory_order_relaxed);
      } else {
        auto landed = CommitWithMerge(mgr, index, branch, root,
                                      "w" + std::to_string(t),
                                      "c" + std::to_string(c), *head, opts);
        SIRI_CHECK(landed.ok());
        merge_commits.fetch_add(landed->merge_commits,
                                std::memory_order_relaxed);
      }
    }
  });

  BranchContentionResult out;
  out.commits =
      static_cast<uint64_t>(cfg.threads) * cfg.commits_per_writer;
  out.commits_per_sec = Ratio(static_cast<double>(out.commits), secs);
  const BranchStats stats = mgr->branch_stats(branch);
  out.cas_failures = stats.cas_failures;
  out.merge_commits = merge_commits.load();
  out.combined_commits = stats.combined_commits;
  out.flushes = servlet->store()->stats().flushes - flushes_before;

  // Zero lost updates: every writer's every key is readable at the final
  // head (server-side reads — verification, not measured traffic).
  auto head = mgr->Head(branch);
  SIRI_CHECK(head.ok());
  auto head_commit = mgr->ReadCommit(*head);
  SIRI_CHECK(head_commit.ok());
  out.lost_update =
      MissingKeys(proto, head_commit->root, cfg.threads,
                  cfg.commits_per_writer, /*first_upload=*/0,
                  cfg.uploads_per_commit, cfg.upload_kvs) > 0;
  return out;
}

/// Drives and prints one [multi-writer branch commits] table: the four
/// structures behind one servlet at \p n preloaded records, swept over
/// \p thread_counts writer counts, one contended branch per cell (fresh
/// branch per cell so the per-branch stats isolate that cell). Shared by
/// fig06 and fig21 so the two figures cannot drift; aborts on any lost
/// update because zero lost updates is the section's whole claim.
inline void RunBranchCommitTable(uint64_t n, uint64_t mbt_buckets,
                                 const std::vector<int>& thread_counts,
                                 int commits_per_writer,
                                 int uploads_per_commit) {
  const BranchContentionConfig defaults;
  printf("\n[multi-writer branch commits] one branch, head CAS + merge "
         "retry, n=%llu records, commits of %dx%zu-KV uploads, "
         "rtt=%llums(sleep) warm shared-cache=%lluMB\n",
         static_cast<unsigned long long>(n), uploads_per_commit,
         defaults.upload_kvs,
         static_cast<unsigned long long>(defaults.rtt_nanos / 1000000),
         static_cast<unsigned long long>(defaults.cache_bytes >> 20));
  printf("%8s %17s %17s %17s %17s\n", "threads", "pos(cmt/s|retry)",
         "mbt(cmt/s|retry)", "mpt(cmt/s|retry)", "mvmb(cmt/s|retry)");

  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(n);

  auto server_store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(server_store);
  auto indexes = MakeAllIndexes(server_store, mbt_buckets);
  const std::vector<Hash> roots = LoadAll(indexes, records);

  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (size_t i = 0; i < indexes.size(); ++i) {
      BranchContentionConfig cfg;
      cfg.threads = threads;
      cfg.commits_per_writer = commits_per_writer;
      cfg.uploads_per_commit = uploads_per_commit;
      const std::string branch =
          indexes[i].name + "-k" + std::to_string(threads);
      auto result = RunBranchContention(&servlet, *indexes[i].index, roots[i],
                                        branch, cfg);
      SIRI_CHECK(!result.lost_update);
      printf("   %8.1f|%5.2f", result.commits_per_sec,
             result.RetriesPerCommit());
      fflush(stdout);
    }
    printf("\n");
  }
}

/// Drives and prints one [group-commit publish pipeline] table: the four
/// structures behind one servlet, swept over writer counts x {group
/// commit off, on} on ONE contended branch per cell. The body of each
/// commit is deliberately small (uploads_per_commit low) so the cell is
/// publish-bound — exactly the single-branch ceiling the combiner lifts.
/// Also emits one machine-readable `#json` line per cell so run_bench.sh
/// can record commits_per_fsync and the publish-window size in the bench
/// trajectory. Shared by fig06 and fig21. Aborts on any lost update.
inline void RunGroupCommitTable(uint64_t n, uint64_t mbt_buckets,
                                const std::vector<int>& thread_counts,
                                int commits_per_writer, int uploads_per_commit,
                                uint64_t window_micros,
                                uint64_t rtt_nanos = 4000000) {
  const BranchContentionConfig defaults;
  printf("\n[group-commit publish pipeline] one branch, combining commit "
         "queue, n=%llu records, commits of %dx%zu-KV uploads, "
         "window=%lluus, rtt=%llums(sleep)\n",
         static_cast<unsigned long long>(n), uploads_per_commit,
         defaults.upload_kvs, static_cast<unsigned long long>(window_micros),
         static_cast<unsigned long long>(rtt_nanos / 1000000));
  printf("%8s %4s %19s %19s %19s %19s\n", "threads", "gc",
         "pos(cmt/s|rty|cpf)", "mbt(cmt/s|rty|cpf)", "mpt(cmt/s|rty|cpf)",
         "mvmb(cmt/s|rty|cpf)");

  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(n);

  GroupCommitOptions gc;
  gc.window_micros = window_micros;
  // The bench must never abandon a commit (matching the per-commit path's
  // uncapped retries).
  gc.merge.max_retries = std::numeric_limits<int>::max();
  auto server_store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(server_store, gc);
  auto indexes = MakeAllIndexes(server_store, mbt_buckets);
  const std::vector<Hash> roots = LoadAll(indexes, records);

  std::vector<std::string> machine_lines;
  for (int threads : thread_counts) {
    for (bool group_commit : {false, true}) {
      printf("%8d %4s", threads, group_commit ? "on" : "off");
      for (size_t i = 0; i < indexes.size(); ++i) {
        BranchContentionConfig cfg;
        cfg.threads = threads;
        cfg.commits_per_writer = commits_per_writer;
        cfg.uploads_per_commit = uploads_per_commit;
        cfg.group_commit = group_commit;
        // The sweep's subject is the publish ceiling, so the round trip
        // is slower than the contention table's default: the costs the
        // combiner amortizes (upload + durability point per publish)
        // dominate single-host scheduling noise, for both modes alike.
        cfg.rtt_nanos = rtt_nanos;
        const std::string branch = indexes[i].name + "-gc" +
                                   (group_commit ? "on" : "off") + "-k" +
                                   std::to_string(threads);
        auto result = RunBranchContention(&servlet, *indexes[i].index,
                                          roots[i], branch, cfg);
        SIRI_CHECK(!result.lost_update);
        printf("   %7.1f|%4.2f|%3.1f", result.commits_per_sec,
               result.RetriesPerCommit(), result.CommitsPerFlush());
        fflush(stdout);
        char line[256];
        snprintf(line, sizeof(line),
                 "#json group_commit structure=%s threads=%d gc=%s "
                 "transport=inproc "
                 "commits_per_sec=%.1f commits_per_fsync=%.2f "
                 "combined_commits=%llu window_us=%llu",
                 indexes[i].name.c_str(), threads,
                 group_commit ? "on" : "off", result.commits_per_sec,
                 result.CommitsPerFlush(),
                 static_cast<unsigned long long>(result.combined_commits),
                 static_cast<unsigned long long>(window_micros));
        machine_lines.emplace_back(line);
      }
      printf("\n");
    }
  }
  // Machine-readable trajectory lines (run_bench.sh lifts
  // commits_per_fsync and the window size into the bench JSON).
  for (const std::string& line : machine_lines) printf("%s\n", line.c_str());
}

/// POS-Tree alone: for the socket tables whose subject is the boundary,
/// not the index.
inline std::vector<NamedIndex> MakePosIndex(const NodeStorePtr& store) {
  std::vector<NamedIndex> out;
  out.push_back({"pos", std::make_unique<PosTree>(store)});
  return out;
}

/// The resilient client the fault tables use: a 10 s RPC deadline and up
/// to 10 attempts with 2–50 ms jittered backoff.
inline net::SocketTransport::Options RetryingOptions(uint64_t jitter_seed) {
  net::SocketTransport::Options opts;
  opts.rpc_timeout_ms = 10000;
  opts.retry.max_attempts = 10;
  opts.retry.backoff_init_ms = 2;
  opts.retry.backoff_max_ms = 50;
  opts.retry.jitter_seed = jitter_seed;
  return opts;
}

/// The real wire boundary every socket table drives: an in-process
/// SiriServer on an ephemeral loopback port over a file-backed server
/// store (real fsyncs, through \p env — e.g. an io::FaultEnv), serving the
/// structures \p make_indexes builds on that store, each loaded with \p n
/// records. The combiner and the server's group flush share one publish
/// window.
///
/// A table runs cells: Connect picks a structure, creates a fresh branch
/// at its loaded root and connects warm clients; RunPublishLoop lands the
/// commits; TransportTotals, store() and MissingAtHead read what the cell
/// cost and whether every acked key survived.
///
/// Honesty rules for these numbers: the in-process tables *simulate*
/// their round trips (slept RTTs), the socket tables *measure* loopback
/// TCP — the two are different quantities and must never be read as one
/// series. So every socket cell reports what only a real transport can
/// measure — bytes per RPC and syscalls per commit — and the `#json` lines
/// carry `transport=socket` so the recorded trajectory can never silently
/// mix the regimes.
class SocketScenario {
 public:
  struct Client {
    std::shared_ptr<net::SocketTransport> transport;
    std::shared_ptr<ForkbaseClientStore> store;
    std::unique_ptr<ImmutableIndex> index;
  };

  /// \param tag names the store file, /tmp/siri_bench_<tag>_<pid>.log.
  SocketScenario(const std::string& tag, uint64_t n, uint64_t window_micros,
                 const std::function<std::vector<NamedIndex>(
                     const NodeStorePtr&)>& make_indexes,
                 io::Env* env = io::Env::Default())
      : path_("/tmp/siri_bench_" + tag + "_" + std::to_string(getpid()) +
              ".log") {
    std::remove(path_.c_str());
    SIRI_CHECK(FileNodeStore::Open(env, path_, &store_).ok());
    GroupCommitOptions gc;
    gc.window_micros = window_micros;
    // The bench must never abandon a commit.
    gc.merge.max_retries = std::numeric_limits<int>::max();
    servlet_ = std::make_unique<ForkbaseServlet>(store_, gc);

    YcsbGenerator gen(1);
    const auto records = gen.GenerateRecords(n);
    indexes_ = make_indexes(store_);
    roots_ = LoadAll(indexes_, records);
    // The server serves Publish RPCs for each structure: same store, same
    // geometry as the loaded index.
    for (auto& named : make_indexes(store_)) {
      servlet_->RegisterIndex(std::move(named.index));
    }

    net::ServerOptions sopts;
    sopts.group_flush_window_micros = window_micros;
    server_ = std::make_unique<net::SiriServer>(servlet_.get(), sopts);
    SIRI_CHECK(server_->Listen(0).ok());
    SIRI_CHECK(server_->Start().ok());
  }

  ~SocketScenario() {
    clients_.clear();
    server_->Stop();
    std::remove(path_.c_str());
  }

  /// Starts a cell on \p structure: closes the previous cell's
  /// connections, creates \p branch at the structure's loaded root, and
  /// connects one client per entry of \p per_client. Every client is
  /// warmed BEFORE any timer with the base version as one version-transfer
  /// pack (cache write-allocation), exactly like the in-process tables.
  void Connect(size_t structure, const std::string& branch,
               const std::vector<net::SocketTransport::Options>& per_client) {
    clients_.clear();
    structure_ = structure;
    branch_ = branch;
    SIRI_CHECK(servlet_->branches()
                   ->CommitOnBranch(branch, roots_[structure], "init", "base")
                   .ok());
    auto pack = PackVersions(index(), {roots_[structure]});
    SIRI_CHECK(pack.ok());
    clients_.resize(per_client.size());
    for (size_t t = 0; t < per_client.size(); ++t) {
      Client& cl = clients_[t];
      SIRI_CHECK(net::SocketTransport::Connect("127.0.0.1", server_->port(),
                                               &cl.transport, per_client[t])
                     .ok());
      cl.store = std::make_shared<ForkbaseClientStore>(cl.transport, 32 << 20);
      cl.index = index().WithStore(cl.store);
      SIRI_CHECK(UnpackVersions(*pack, cl.store.get()).ok());
    }
  }

  /// The one socket publish loop: \p writers threads, mapped onto the
  /// clients round-robin, each land \p commits_per_writer commits on the
  /// cell's branch. A commit reads the head, fetches and decodes the head
  /// commit, builds a batch of writer-private keys (upload \p key_row of
  /// BranchContentionKey) on its root, and publishes it against the head
  /// it read; every publish must be acked. Returns commits/s.
  double RunPublishLoop(int writers, int commits_per_writer, int key_row) {
    const size_t upload_kvs = BranchContentionConfig().upload_kvs;
    const double secs = RunTimedWorkers(writers, [&](int t) {
      Client& cl = clients_[t % clients_.size()];
      for (int c = 0; c < commits_per_writer; ++c) {
        auto head = cl.transport->Head(branch_);
        SIRI_CHECK(head.ok());
        auto node = cl.store->Get(*head);
        SIRI_CHECK(node.ok());
        auto head_commit = Commit::Decode(**node);
        SIRI_CHECK(head_commit.ok());
        std::vector<KV> batch;
        batch.reserve(upload_kvs);
        for (size_t k = 0; k < upload_kvs; ++k) {
          batch.push_back(KV{BranchContentionKey(t, c, key_row, k),
                             "v" + std::to_string(c)});
        }
        auto next = cl.index->PutBatch(head_commit->root, std::move(batch));
        SIRI_CHECK(next.ok());
        net::PublishRequest pub;
        pub.structure = indexes_[structure_].name;
        pub.branch = branch_;
        pub.new_root = *next;
        pub.author = "w" + std::to_string(t);
        pub.message = "c" + std::to_string(c);
        pub.expected_head = *head;
        SIRI_CHECK(cl.transport->Publish(pub).ok());
      }
    });
    return Ratio(static_cast<double>(writers) * commits_per_writer, secs);
  }

  /// The cell's transport counters, summed over its clients.
  net::Transport::Stats TransportTotals() const {
    net::Transport::Stats sum;
    for (const Client& cl : clients_) {
      const auto s = cl.transport->stats();
      sum.rpcs += s.rpcs;
      sum.bytes_sent += s.bytes_sent;
      sum.bytes_received += s.bytes_received;
      sum.syscalls += s.syscalls;
      sum.retries += s.retries;
      sum.reconnects += s.reconnects;
      sum.deadline_misses += s.deadline_misses;
      sum.pushed_nodes += s.pushed_nodes;
      sum.pushed_bytes += s.pushed_bytes;
    }
    return sum;
  }

  /// The cell branch's head, read server-side.
  Hash Head() const {
    auto head = servlet_->branches()->Head(branch_);
    SIRI_CHECK(head.ok());
    return *head;
  }

  /// Keys RunPublishLoop(writers, commits_per_writer, key_row) committed
  /// that are missing at the cell branch's head — read server-side, so it
  /// is verification, not measured traffic.
  uint64_t MissingAtHead(int writers, int commits_per_writer,
                         int key_row) const {
    auto head_commit = servlet_->branches()->ReadCommit(Head());
    SIRI_CHECK(head_commit.ok());
    return MissingKeys(index(), head_commit->root, writers,
                       commits_per_writer, key_row, /*uploads=*/1,
                       BranchContentionConfig().upload_kvs);
  }

  const std::vector<NamedIndex>& indexes() const { return indexes_; }
  std::vector<Client>& clients() { return clients_; }
  ForkbaseServlet& servlet() { return *servlet_; }
  net::SiriServer& server() { return *server_; }
  FileNodeStore& store() { return *store_; }

 private:
  const ImmutableIndex& index() const { return *indexes_[structure_].index; }

  std::string path_;
  std::shared_ptr<FileNodeStore> store_;
  std::unique_ptr<ForkbaseServlet> servlet_;
  std::vector<NamedIndex> indexes_;
  std::vector<Hash> roots_;
  std::unique_ptr<net::SiriServer> server_;
  std::vector<Client> clients_;
  size_t structure_ = 0;
  std::string branch_;
};

/// Drives and prints one [socket commit pipeline] table: the
/// contended-branch group-commit regime through the real boundary, the
/// four structures, K writer clients each owning its own connection.
inline void RunSocketCommitTable(uint64_t n, uint64_t mbt_buckets,
                                 const std::vector<int>& thread_counts,
                                 int commits_per_writer,
                                 uint64_t window_micros) {
  printf("\n[socket commit pipeline] REAL loopback TCP via in-process "
         "siri-server, file-backed store (real fsyncs), n=%llu records, "
         "window=%lluus — measured bytes/RPC + syscalls/commit, NOT "
         "comparable with the slept-RTT tables above\n",
         static_cast<unsigned long long>(n),
         static_cast<unsigned long long>(window_micros));
  printf("%8s %24s %24s %24s %24s\n", "threads",
         "pos(cmt/s|B/rpc|sys|cpf)", "mbt(cmt/s|B/rpc|sys|cpf)",
         "mpt(cmt/s|B/rpc|sys|cpf)", "mvmb(cmt/s|B/rpc|sys|cpf)");

  SocketScenario s("socket", n, window_micros,
                   [mbt_buckets](const NodeStorePtr& store) {
                     return MakeAllIndexes(store, mbt_buckets);
                   });
  std::vector<std::string> machine_lines;
  for (int threads : thread_counts) {
    printf("%8d", threads);
    for (size_t i = 0; i < s.indexes().size(); ++i) {
      const std::string& name = s.indexes()[i].name;
      s.Connect(i, name + "-sock-k" + std::to_string(threads),
                std::vector<net::SocketTransport::Options>(threads));
      // Snapshot after warmup so the reported traffic is the commits'.
      const net::Transport::Stats warm = s.TransportTotals();
      const uint64_t fsyncs_before = s.store().stats().flushes;
      const double commits_per_sec =
          s.RunPublishLoop(threads, commits_per_writer, /*key_row=*/0);
      const net::Transport::Stats total = s.TransportTotals();
      const double commits =
          static_cast<double>(threads) * commits_per_writer;
      const double bytes_per_rpc =
          Ratio(total.bytes_sent + total.bytes_received - warm.bytes_sent -
                    warm.bytes_received,
                total.rpcs - warm.rpcs);
      const double syscalls_per_commit =
          Ratio(total.syscalls - warm.syscalls, commits);
      const double commits_per_fsync =
          Ratio(commits, s.store().stats().flushes - fsyncs_before);
      // Zero lost updates across real connections.
      SIRI_CHECK(s.MissingAtHead(threads, commits_per_writer, 0) == 0);

      printf("  %8.1f|%6.0f|%4.1f|%4.1f", commits_per_sec, bytes_per_rpc,
             syscalls_per_commit, commits_per_fsync);
      fflush(stdout);
      char line[320];
      snprintf(line, sizeof(line),
               "#json socket_commit structure=%s threads=%d gc=on "
               "transport=socket commits_per_sec=%.1f bytes_per_rpc=%.0f "
               "syscalls_per_commit=%.2f commits_per_fsync=%.2f "
               "window_us=%llu",
               name.c_str(), threads, commits_per_sec, bytes_per_rpc,
               syscalls_per_commit, commits_per_fsync,
               static_cast<unsigned long long>(window_micros));
      machine_lines.emplace_back(line);
    }
    printf("\n");
  }
  for (const std::string& line : machine_lines) printf("%s\n", line.c_str());
}

/// The pipelined wire boundary, isolated: K writer threads SHARING ONE
/// SocketTransport, swept over the pipelining depth (max_inflight) and
/// the combiner-aware cache push. The depth-1 row is the serialized
/// baseline — one outstanding RPC, exactly the pre-pipelining channel —
/// so the sweep reads as "what did depth buy on the same connection":
/// commits/s up, syscalls/commit down (the reader drains batched
/// responses per recv, the server flushes coalesced writev rounds).
/// The push rows additionally report pushed nodes per commit and the
/// losing-committer Get RPCs they displaced (remote_gets/commit).
/// Structure: pos only — the boundary, not the index, is under test.
inline void RunSocketPipelineTable(uint64_t n, int threads,
                                   int commits_per_writer,
                                   const std::vector<int>& depths,
                                   uint64_t window_micros) {
  printf("\n[socket pipeline] REAL loopback TCP, %d writers sharing ONE "
         "connection, n=%llu records, window=%lluus — depth 1 is the "
         "serialized baseline\n",
         threads, static_cast<unsigned long long>(n),
         static_cast<unsigned long long>(window_micros));
  printf("%8s %6s %10s %10s %10s %10s %10s\n", "depth", "push", "cmt/s",
         "B/rpc", "sys/cmt", "push/cmt", "rget/cmt");

  SocketScenario s("pipeline", n, window_micros, MakePosIndex);

  // Cells: every depth with push off, plus the deepest depth with push on
  // (push is flag-gated precisely so the off rows reproduce the
  // pre-push baseline series).
  std::vector<std::pair<int, bool>> cells;
  for (int d : depths) cells.push_back({d, false});
  if (!depths.empty()) cells.push_back({depths.back(), true});

  std::vector<std::string> machine_lines;
  for (const auto& [depth, push] : cells) {
    net::SocketTransport::Options topts;
    topts.max_inflight = depth;
    topts.cache_push = push;
    s.Connect(0,
              std::string("pipe-d") + std::to_string(depth) +
                  (push ? "-push" : ""),
              {topts});
    const ForkbaseClientStore& client_store = *s.clients()[0].store;
    const net::Transport::Stats warm = s.TransportTotals();
    const uint64_t warm_gets = client_store.remote_stats().remote_gets;
    const double commits_per_sec =
        s.RunPublishLoop(threads, commits_per_writer, /*key_row=*/0);
    const net::Transport::Stats total = s.TransportTotals();
    const double commits = static_cast<double>(threads) * commits_per_writer;
    const double bytes_per_rpc =
        Ratio(total.bytes_sent + total.bytes_received - warm.bytes_sent -
                  warm.bytes_received,
              total.rpcs - warm.rpcs);
    const double syscalls_per_commit =
        Ratio(total.syscalls - warm.syscalls, commits);
    const double pushed_per_commit =
        Ratio(total.pushed_nodes - warm.pushed_nodes, commits);
    const double rgets_per_commit = Ratio(
        client_store.remote_stats().remote_gets - warm_gets, commits);
    // Zero lost updates on the shared pipelined connection, verified
    // before the numbers are reported.
    SIRI_CHECK(s.MissingAtHead(threads, commits_per_writer, 0) == 0);

    printf("%8d %6s %10.1f %10.0f %10.2f %10.2f %10.2f\n", depth,
           push ? "on" : "off", commits_per_sec, bytes_per_rpc,
           syscalls_per_commit, pushed_per_commit, rgets_per_commit);
    fflush(stdout);
    char line[360];
    snprintf(line, sizeof(line),
             "#json socket_pipeline structure=pos threads=%d "
             "transport=socket max_inflight=%d cache_push=%s "
             "commits_per_sec=%.1f bytes_per_rpc=%.0f "
             "syscalls_per_commit=%.2f pushed_nodes_per_commit=%.2f "
             "remote_gets_per_commit=%.2f window_us=%llu",
             threads, depth, push ? "on" : "off", commits_per_sec,
             bytes_per_rpc, syscalls_per_commit, pushed_per_commit,
             rgets_per_commit, static_cast<unsigned long long>(window_micros));
    machine_lines.emplace_back(line);
  }
  for (const std::string& line : machine_lines) printf("%s\n", line.c_str());
}

/// Goodput under injected wire faults: the socket commit pipeline re-run
/// with a client-side FaultInjector (net/fault.h) sabotaging a swept
/// fraction of wire attempts — resets before/after send, torn frames,
/// bit flips, delays — while the resilient transport retries, reconnects,
/// and replays lost publish acks (the server dedups a replay whose
/// original landed). Two honesty rules:
///
///   - the row at rate 0.00 is the healthy baseline; every other row's
///     commits/s is GOODPUT (acked commits only) and is expected to sag
///     as the rate climbs — the interesting number is how gracefully;
///   - the retry/reconnect/deadline-miss counters are printed next to the
///     goodput because nonzero values are the flag that faults shaped the
///     numbers (net/transport.h); the run aborts if any acked commit's
///     keys are missing at the final head or the executed-publish
///     accounting disagrees with the acked count (a lost or duplicated
///     commit is a correctness bug, not a slow cell).
inline void RunSocketChaosTable(uint64_t n, int threads,
                                int commits_per_writer,
                                const std::vector<double>& fault_rates,
                                uint64_t window_micros) {
  printf("\n[socket chaos goodput] REAL loopback TCP via in-process "
         "siri-server, file-backed store, pos structure, %d writers x %d "
         "commits, n=%llu, window=%lluus — client-side fault injection, "
         "acked-commit goodput\n",
         threads, commits_per_writer, static_cast<unsigned long long>(n),
         static_cast<unsigned long long>(window_micros));
  printf("%10s %12s %10s %10s %12s %10s\n", "fault_rate", "goodput(c/s)",
         "retries", "reconnects", "ddl_misses", "injected");

  SocketScenario s("chaos", n, window_micros, MakePosIndex);
  // Publishes the combiner executed: solo, combined, and individual
  // fallbacks (a deduplicated replay counts in none of them).
  auto executed_publishes = [&s] {
    const auto st = s.servlet().combiner()->stats();
    return st.solo_commits + st.combined_commits + st.fallbacks;
  };
  std::vector<std::string> machine_lines;
  for (size_t row = 0; row < fault_rates.size(); ++row) {
    const double rate = fault_rates[row];
    std::vector<std::shared_ptr<net::FaultInjector>> faults;
    std::vector<net::SocketTransport::Options> per_client;
    for (int t = 0; t < threads; ++t) {
      net::FaultInjector::RandomConfig cfg;
      cfg.fault_rate = rate;
      cfg.delay_micros = 1000;
      faults.push_back(std::make_shared<net::FaultInjector>(
          /*seed=*/0x5151u + row * 64 + static_cast<uint64_t>(t), cfg));
      per_client.push_back(
          RetryingOptions(0x7e57u + static_cast<uint64_t>(t)));
      per_client.back().fault = faults.back();
    }
    s.Connect(0, "pos-chaos-r" + std::to_string(row), per_client);
    const uint64_t executed_before = executed_publishes();

    const int key_row = static_cast<int>(row);
    const double goodput =
        s.RunPublishLoop(threads, commits_per_writer, key_row);
    const net::Transport::Stats total = s.TransportTotals();
    uint64_t injected = 0;
    for (const auto& f : faults) injected += f->stats().injected;

    // Zero lost acked updates, and exactly-once execution: the combiner's
    // executed-publish accounting must equal the acked count — a replayed
    // lost-ack publish that double-applied would push it past.
    SIRI_CHECK(s.MissingAtHead(threads, commits_per_writer, key_row) == 0);
    SIRI_CHECK(executed_publishes() - executed_before ==
               static_cast<uint64_t>(threads) * commits_per_writer);

    printf("%10.2f %12.1f %10llu %10llu %12llu %10llu\n", rate, goodput,
           static_cast<unsigned long long>(total.retries),
           static_cast<unsigned long long>(total.reconnects),
           static_cast<unsigned long long>(total.deadline_misses),
           static_cast<unsigned long long>(injected));
    fflush(stdout);
    char line[320];
    snprintf(line, sizeof(line),
             "#json socket_chaos structure=pos threads=%d transport=socket "
             "fault_rate=%.2f goodput_cps=%.1f retries=%llu reconnects=%llu "
             "deadline_misses=%llu injected=%llu window_us=%llu",
             threads, rate, goodput,
             static_cast<unsigned long long>(total.retries),
             static_cast<unsigned long long>(total.reconnects),
             static_cast<unsigned long long>(total.deadline_misses),
             static_cast<unsigned long long>(injected),
             static_cast<unsigned long long>(window_micros));
    machine_lines.emplace_back(line);
  }
  for (const std::string& line : machine_lines) printf("%s\n", line.c_str());
}

/// Read-only degradation under a disk fault: the socket commit pipeline
/// with the server's file-backed store sitting on an io::FaultEnv. Phase 1
/// runs the healthy publish loop; then the "disk fills" (every further
/// write op returns ENOSPC) and phase 2 asserts the failure semantics
/// end-to-end over the real wire:
///
///   - every write a client attempts after the trip fails with the TYPED
///     degraded reject (net::IsDegradedReject) — never a raw store error,
///     and never an ack;
///   - degraded rejects fail FAST: the transport's retry counter must not
///     move after the trip (retrying a full disk only burns the window);
///   - reads keep serving — Head and node fetches succeed throughout
///     phase 2 against the degraded server;
///   - zero lost acked commits: the head recorded at the trip never moves
///     again, and every key acked in phase 1 is still readable under it.
inline void RunSocketDiskFaultTable(uint64_t n, int threads,
                                    int commits_per_writer,
                                    uint64_t window_micros) {
  printf("\n[socket disk-fault degradation] REAL loopback TCP via "
         "in-process siri-server, file-backed store on a FaultEnv, pos "
         "structure, %d writers x %d commits then ENOSPC, n=%llu, "
         "window=%lluus\n",
         threads, commits_per_writer, static_cast<unsigned long long>(n),
         static_cast<unsigned long long>(window_micros));
  printf("%10s %12s %14s %16s %12s\n", "acked", "goodput(c/s)",
         "typed_rejects", "degraded_rejects", "lost_acked");

  // Declared before the scenario: the store must not outlive its Env.
  io::FaultEnv fault_env(io::Env::Default(), io::FaultEnv::Mode::kPassthrough);
  SocketScenario s("diskfault", n, window_micros, MakePosIndex, &fault_env);
  std::vector<net::SocketTransport::Options> per_client;
  for (int t = 0; t < threads; ++t) {
    per_client.push_back(RetryingOptions(0xd15cu + static_cast<uint64_t>(t)));
  }
  const std::string branch = "pos-diskfault";
  s.Connect(0, branch, per_client);

  // Phase 1: the healthy publish loop — every commit here must be acked.
  const double goodput =
      s.RunPublishLoop(threads, commits_per_writer, /*key_row=*/0);
  const uint64_t acked = static_cast<uint64_t>(threads) * commits_per_writer;

  // The trip: from the next mutating op on, the disk is full. The head at
  // this instant is the last acked state — it must never move again.
  const Hash acked_head = s.Head();
  const uint64_t retries_at_trip = s.TransportTotals().retries;
  fault_env.set_enospc_after_op(fault_env.op_count());

  // Phase 2: every client keeps trying to write against the full disk.
  // The writes go through the raw transport, NOT ForkbaseClientStore —
  // the client store treats a failed upload as fatal (NodeStore::Put has
  // no failure channel), which is exactly right for an application but
  // wrong for a harness that wants to LOOK at the reject. Order matters:
  // a bare upload is fire-and-forget (durability is only claimed at
  // publish), so the op that TRIPS the latch must be a Publish — its
  // group flush fails, the raw ENOSPC is remapped by the server, and
  // every write after it (publish or upload alike) is rejected up front.
  // All of them must surface as the SAME typed degraded reject. Reads
  // interleave and must keep working.
  std::atomic<uint64_t> typed_rejects{0};
  RunTimedWorkers(threads, [&](int t) {
    auto& cl = s.clients()[t];
    auto expect_degraded = [&](const Status& failure) {
      SIRI_CHECK(!failure.ok());  // a full disk must never ack
      SIRI_CHECK(failure.IsResourceExhausted());
      SIRI_CHECK(net::IsDegradedReject(failure));
      typed_rejects.fetch_add(1, std::memory_order_relaxed);
    };
    for (int a = 0; a < 2; ++a) {
      auto head = cl.transport->Head(branch);
      SIRI_CHECK(head.ok());  // reads serve while degraded
      auto node = cl.store->Get(*head);
      SIRI_CHECK(node.ok());
      auto head_commit = Commit::Decode(**node);
      SIRI_CHECK(head_commit.ok());

      net::PublishRequest pub;
      pub.structure = "pos";
      pub.branch = branch;
      pub.new_root = head_commit->root;
      pub.author = "w" + std::to_string(t);
      pub.message = "overflow";
      pub.expected_head = *head;
      expect_degraded(cl.transport->Publish(pub).status());

      // By now this client has seen a degraded reject, so the sticky
      // latch is set server-side: even a fire-and-forget upload is
      // answered with the typed reject instead of silently dropped.
      const std::string payload = "overflow-" + std::to_string(t) + "-" +
                                  std::to_string(a);
      NodeBatch batch;
      batch.push_back(NodeRecord{
          Sha256::Digest(payload),
          std::make_shared<const std::string>(payload)});
      expect_degraded(cl.transport->PutMany(batch));
    }
  });

  // Degraded rejects fail fast: retrying a full disk cannot help, so the
  // transports' retry counters must not have moved during phase 2.
  SIRI_CHECK(s.TransportTotals().retries == retries_at_trip);

  // Zero lost acked commits: the head never moved past the trip point and
  // every phase-1 key is still readable under it, server-side.
  SIRI_CHECK(s.Head() == acked_head);
  const uint64_t lost = s.MissingAtHead(threads, commits_per_writer, 0);
  SIRI_CHECK(lost == 0);

  const auto st = s.server().stats();
  SIRI_CHECK(st.degraded);
  SIRI_CHECK(st.degraded_cause.find("enospc") != std::string::npos);
  SIRI_CHECK(st.degraded_rejects >= 1);

  printf("%10llu %12.1f %14llu %16llu %12llu\n",
         static_cast<unsigned long long>(acked), goodput,
         static_cast<unsigned long long>(typed_rejects.load()),
         static_cast<unsigned long long>(st.degraded_rejects),
         static_cast<unsigned long long>(lost));
  printf("#json socket_disk_fault structure=pos threads=%d transport=socket "
         "fault=enospc acked=%llu goodput_cps=%.1f typed_rejects=%llu "
         "degraded_rejects=%llu lost_acked=%llu window_us=%llu\n",
         threads, static_cast<unsigned long long>(acked), goodput,
         static_cast<unsigned long long>(typed_rejects.load()),
         static_cast<unsigned long long>(st.degraded_rejects),
         static_cast<unsigned long long>(lost),
         static_cast<unsigned long long>(window_micros));
}

/// Printf a header line like the paper's figure captions.
inline void PrintHeader(const char* fig, const char* title) {
  printf("==============================================================\n");
  printf("%s — %s\n", fig, title);
  printf("==============================================================\n");
}

}  // namespace bench
}  // namespace siri

#endif  // SIRI_BENCH_BENCH_COMMON_H_
