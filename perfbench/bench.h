// Copyright (c) 2026 The siri Authors. MIT license.
//
// The benchmark's harness: a siri-server deployment wired exactly as
// src/net/siri_server_main.cc wires the daemon (durable FileNodeStore with
// real fsyncs, an attached RefLog, all four indexes registered, default
// ServerOptions), its socket clients, and the per-thread tallies the
// workloads fill during the timed phase.

#ifndef SIRI_PERFBENCH_BENCH_H_
#define SIRI_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/mbt/mbt.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "perfbench/trace.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "version/commit.h"

namespace perfbench {

/// A wrong answer is a benchmark failure, not a slow op: report and stop
/// without printing a result line.
[[noreturn]] void Abort(const std::string& why);

/// MBT geometry shared by the server registration and every client (the
/// siri-server default, --mbt-buckets=8192, fanout 32).
siri::MbtOptions ServerMbtOptions();

/// One connected client: its socket (wrapped in a TracingTransport in a
/// traced run) and the caching client store over it.
struct Client {
  std::shared_ptr<siri::net::Transport> transport;
  std::shared_ptr<siri::ForkbaseClientStore> store;
};

/// \brief One in-process siri-server on an ephemeral loopback port, with
/// its durable store under \p dir. Not copyable; destruction closes the
/// clients' server side and joins every server thread.
class Deployment {
 public:
  /// \p tracer non-null = traced run: the store and ref log write through
  /// a TracingEnv, the registered indexes are TracingIndex wrappers, and
  /// Connect wraps each socket in a TracingTransport.
  Deployment(const std::string& dir, Tracer* tracer);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A fresh socket connection (default SocketTransport options) and a
  /// ForkbaseClientStore with a \p cache_bytes node cache over it.
  Client Connect(uint64_t cache_bytes);

  /// Stops the server (joins its threads); idempotent.
  void Stop();

  siri::ForkbaseServlet* servlet() { return servlet_.get(); }
  siri::FileNodeStore* store() { return store_.get(); }
  /// The registered server-side index of \p structure (verification and
  /// the dedup computation run on it in-process, after the timed phase).
  siri::ImmutableIndex* index(const std::string& structure) {
    return servlet_->IndexFor(structure);
  }
  Tracer* tracer() const { return tracer_; }
  TracingEnv* tracing_env() const { return env_.get(); }
  /// Page-log plus ref-log bytes on disk.
  uint64_t DiskBytes() const;

 private:
  std::string dir_;
  Tracer* tracer_;
  std::unique_ptr<TracingEnv> env_;
  std::shared_ptr<siri::FileNodeStore> store_;
  std::unique_ptr<siri::ForkbaseServlet> servlet_;
  std::unique_ptr<siri::net::SiriServer> server_;
  bool stopped_ = false;
};

/// Latency samples of one operation kind, each with its completion time.
struct Samples {
  std::vector<double> values;
  std::vector<int64_t> done_ns;
  void Add(double v) {
    values.push_back(v);
    done_ns.push_back(NowNanos());
  }
};

/// \brief What one client thread did in the timed phase. Each thread owns
/// one; they are merged after the threads joined.
struct Tally {
  Samples commit_ms, read_us, diff_ms, merge_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t publishes = 0;   ///< acked Publish RPCs
  uint64_t user_bytes = 0;  ///< key + value bytes of acked writes
  /// Client index Get instrumentation (LookupStats), summed.
  uint64_t lookups = 0, lookup_nodes = 0, lookup_bytes = 0;

  void Merge(const Tally& o);
};

/// Index spans the workloads open around their client-side index calls.
struct ClientSpans {
  explicit ClientSpans(Tracer* t);
  Tracer* tracer;
  uint32_t op_commit, op_read, op_diff, op_merge, op_sync, index_put_batch,
      index_get, index_diff, index_merge3;
};

/// Commit root of a commit digest, read through \p store.
siri::Result<siri::Hash> RootOf(siri::NodeStore* store, const siri::Hash& commit);

/// \p count (>= 2) evenly spaced entries of \p versions, first and last
/// included.
std::vector<siri::Hash> EvenlySpaced(const std::vector<siri::Hash>& versions,
                                     size_t count);

/// \brief One of the three workloads. Generate once per run; then each
/// deployment gets Setup (preload + warm: the timed set-up), Run (the
/// closed-loop timed phase), and Verify (final-head checks).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Index structure name the workload commits ("mpt", "pos", "mbt").
  virtual std::string structure() const = 0;
  /// Builds every input from the seed. Not timed.
  virtual void Generate(uint64_t seed, bool tiny) = 0;
  /// Preloads and warms a fresh deployment; resets every per-deployment
  /// piece of state. Returns nanoseconds spent generating inputs inside
  /// the call, which set-up time excludes.
  virtual int64_t Setup(Deployment* dep) = 0;
  /// The timed phase: closed loop for \p seconds; fills \p total and
  /// returns the wall seconds until the last client thread finished.
  virtual double Run(double seconds, Tally* total) = 0;
  /// Every acked write readable at the final heads; aborts on a miss.
  virtual void Verify(Deployment* dep) = 0;
  /// Retained versions for the dedup ratio, oldest first.
  virtual std::vector<siri::Hash> Versions() const = 0;
  /// User key+value bytes written by the preload.
  virtual uint64_t preload_user_bytes() const = 0;
  /// Timed-phase user bytes after which store growth is sampled (0 = the
  /// workload writes nothing while timed).
  virtual uint64_t store_probe_bytes() const = 0;
  /// User bytes of the writes acked so far in the timed phase; the
  /// store-growth probe reads it while the phase runs.
  std::atomic<uint64_t> acked_user_bytes{0};
  /// One line naming the regime: structure, user data against client
  /// cache bytes, client threads and connections.
  virtual std::string Regime() const = 0;
  /// Every connected client, for the per-layer counters.
  virtual std::vector<Client> Clients() const = 0;
  /// Drops the clients (before the deployment is destroyed).
  virtual void Teardown() = 0;
};

std::unique_ptr<Workload> MakeEthLedger();
std::unique_ptr<Workload> MakeWikiCollab();
std::unique_ptr<Workload> MakeYcsbColdRead();

}  // namespace perfbench

#endif  // SIRI_PERFBENCH_BENCH_H_
