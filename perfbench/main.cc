// Copyright (c) 2026 The siri Authors. MIT license.
//
// perfbench — the end-to-end regression benchmark of siri-server.
//
//   perfbench --workload=eth-ledger|wiki-collab|ycsb-cold-read --seed=N
//             --seconds=S --trace=0|1 --dir=DIR [--size=full|tiny]
//
// Untraced (--trace=0): sets up a fresh deployment kSetupReps times (the
// median is setup_s), runs the closed-loop timed phase on the last one,
// verifies every acked write at the final heads, and prints each
// end-to-end metric. Traced (--trace=1): runs the timed phase once
// without decorators and once with them (half the seconds each), prints
// the per-layer metrics of the traced half, each layer's self time per
// op, and the tracing overhead, and writes the spans to DIR/spans.tsv.
//
// Every metric is printed as `metric <name> <value> <unit> n=<samples>`;
// the last line of stdout is one JSON object with the gated metrics.
// Wiping DIR is part of every run, so point it at scratch space.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <malloc.h>

#include "crypto/hash_pool.h"
#include "metrics/dedup.h"
#include "perfbench/bench.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr size_t kDedupVersions = 8;
// The dedup ratio compares versions from a fixed-length prefix of history
// (set-up versions first), so a faster run does not compare older against
// newer versions than a slower one.
constexpr size_t kDedupHorizon = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 --dir=DIR [--size=full|tiny]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) Usage(("bad flag: " + arg).c_str());
    const std::string key = arg.substr(0, eq), val = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') Usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      a.trace = val == "1";
    } else if (key == "--size" && (val == "full" || val == "tiny")) {
      a.tiny = val == "tiny";
    } else if (key == "--dir" && !val.empty()) {
      a.dir = val;
    } else {
      Usage(("bad flag: " + arg).c_str());
    }
  }
  if (a.dir.empty()) Usage("--dir is required");
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "eth-ledger") return MakeEthLedger();
  if (name == "wiki-collab") return MakeWikiCollab();
  if (name == "ycsb-cold-read") return MakeYcsbColdRead();
  Usage(("unknown workload: " + name).c_str());
}

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Starts a fresh peak-RSS window: hands freed heap back to the kernel, so
/// set-up repetitions' garbage is not counted, and resets VmHWM to the
/// current RSS.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Per-window throughput and percentiles of one sample set, over kWindows
/// equal windows of [start, start + seconds).
struct Windows {
  static constexpr int kWindows = 10;
  std::vector<double> rate, p50, p99;

  Windows(const Samples& s, int64_t start_ns, double seconds) {
    const double width_ns = seconds * 1e9 / kWindows;
    std::vector<std::vector<double>> by(kWindows);
    for (size_t i = 0; i < s.values.size(); ++i) {
      const double k = (s.done_ns[i] - start_ns) / width_ns;
      if (k >= 0 && k < kWindows) by[static_cast<int>(k)].push_back(s.values[i]);
    }
    for (const auto& w : by) {
      rate.push_back(w.size() / (width_ns / 1e9));
      p50.push_back(Percentile(w, 0.50));
      p99.push_back(Percentile(w, 0.99));
    }
  }
  static double Median(const std::vector<double>& v) {
    return Percentile(v, 0.5);
  }
};

/// Every metric a run prints, in order, with the sample count behind it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    std::printf("metric %s %.6g %s n=%llu\n", name.c_str(), value,
                unit.c_str(), static_cast<unsigned long long>(samples));
    rows_.push_back({name, value, unit});
  }

  /// The median and the 99th percentile of \p s under \p stem.
  void AddLatency(const std::string& stem, const Samples& s,
                  const std::string& unit) {
    Add(stem + "_p50_" + unit, Percentile(s.values, 0.50), unit,
        s.values.size());
    Add(stem + "_p99_" + unit, Percentile(s.values, 0.99), unit,
        s.values.size());
  }

  /// The JSON result line over the named subset of the metrics.
  void PrintResult(uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& names) const {
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : names) {
      for (const Row& r : rows_) {
        if (r.name != name) continue;
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", r.value);
        out += std::string(first ? "" : ", ") + "\"" + r.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + r.unit + "\"}";
        first = false;
      }
    }
    std::printf("%s}}\n", out.c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// The end-to-end metrics every workload has; the regression gate.
const std::vector<std::string> kGatedEndToEnd = {
    "setup_s",       "reads_per_s",       "read_p50_us",
    "read_p99_us",   "store_bytes_per_user_byte", "dedup_ratio",
    "rss_peak_mb"};

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::string FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) Abort("cannot create " + dir + ": " + ec.message());
  return dir;
}

void PrintRegime(const Args& a, const Workload& w) {
  std::printf("regime %s %s loop=closed fsync=real group_flush_window_us=%llu "
              "ref_log=flush_per_head_swing,fsync_at_drain\n",
              a.workload.c_str(), w.Regime().c_str(),
              static_cast<unsigned long long>(
                  siri::net::ServerOptions{}.group_flush_window_micros));
}

int RunUntraced(const Args& a, Workload* w) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (dep != nullptr) {
      w->Teardown();
      dep.reset();
      RemoveDir(dir);
    }
    dir = FreshDir(a.dir + "/rep" + std::to_string(rep));
    const int64_t start = NowNanos();
    dep = std::make_unique<Deployment>(dir, nullptr);
    const int64_t gen_ns = w->Setup(dep.get());
    setup_s.push_back((NowNanos() - start - gen_ns) / 1e9);
  }

  ResetPeakRss();
  // Store growth is sampled once the timed phase has acked a fixed amount
  // of user data, so the figure covers the same work however fast the run.
  const uint64_t disk_before = dep->DiskBytes();
  w->acked_user_bytes = 0;
  std::atomic<bool> running{true};
  uint64_t probe_disk = 0, probe_user = 0;
  std::thread probe([&] {
    const uint64_t want = w->store_probe_bytes();
    while (want > 0 && running.load()) {
      const uint64_t user = w->acked_user_bytes.load();
      if (user >= want) {
        probe_disk = dep->DiskBytes();
        probe_user = user;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Tally t;
  const int64_t run_start = NowNanos();
  const double elapsed = w->Run(a.seconds, &t);
  running = false;
  probe.join();
  const double rss_peak_mb = PeakRssMb();
  w->Verify(dep.get());
  std::vector<siri::Hash> versions = w->Versions();
  if (versions.size() > kDedupHorizon) versions.resize(kDedupHorizon);
  auto dedup = siri::ComputeDedupStatsForRoots(
      *dep->index(w->structure()), EvenlySpaced(versions, kDedupVersions));
  if (!dedup.ok()) Abort("dedup: " + dedup.status().ToString());
  // Store growth per user byte over the writes the workload measures: the
  // probed prefix of the timed phase where it writes (all of it if the
  // probe was not reached), the preload where it only reads.
  const uint64_t disk_after = dep->DiskBytes();
  if (probe_user == 0) {
    probe_user = t.user_bytes;
    probe_disk = disk_after;
  }
  const bool timed_writes = probe_user > 0;
  const uint64_t user_bytes = timed_writes ? probe_user : w->preload_user_bytes();
  const uint64_t disk_bytes = timed_writes ? probe_disk - disk_before : disk_after;
  w->Teardown();
  dep.reset();
  RemoveDir(dir);

  Report r;
  PrintRegime(a, *w);
  std::printf("workload %s seed=%llu seconds=%.3f elapsed=%.3f\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, elapsed);
  r.Add("setup_s", Percentile(setup_s, 0.5), "s", setup_s.size());
  // Reads are gated, so they are reported as medians over kWindows equal
  // windows of the timed phase: a stall in one window moves one of ten
  // values, not the run's figure.
  const Windows reads(t.read_us, run_start, a.seconds);
  r.Add("reads_per_s", reads.Median(reads.rate), "1/s",
        t.read_us.values.size());
  r.Add("read_p50_us", reads.Median(reads.p50), "us", t.read_us.values.size());
  r.Add("read_p99_us", reads.Median(reads.p99), "us", t.read_us.values.size());
  if (!t.commit_ms.values.empty()) {
    r.Add("commits_per_s", t.commit_ms.values.size() / elapsed, "1/s",
          t.commit_ms.values.size());
    r.AddLatency("commit", t.commit_ms, "ms");
  }
  if (!t.diff_ms.values.empty()) r.AddLatency("diff", t.diff_ms, "ms");
  if (!t.merge_ms.values.empty()) r.AddLatency("merge", t.merge_ms, "ms");
  r.Add("store_bytes_per_user_byte", Ratio(disk_bytes, user_bytes), "B/B",
        user_bytes);
  r.Add("dedup_ratio", dedup->DeduplicationRatio(), "ratio",
        std::min(versions.size(), kDedupVersions));
  r.Add("rss_peak_mb", rss_peak_mb, "MB", 1);
  r.Add("failed_op_ratio", Ratio(t.failed, t.attempted), "ratio", t.attempted);
  std::fflush(stdout);
  r.PrintResult(t.attempted, t.failed, kGatedEndToEnd);
  return 0;
}

/// Snapshot of every counter the per-layer metrics difference.
struct Counters {
  siri::Sha256Pool::Stats pool;
  siri::ForkbaseClientStore::RemoteStats remote;
  siri::net::Transport::Stats wire;
  uint64_t wire_bytes = 0;  // sent plus received
  siri::NodeStore::Stats store;
  uint64_t fsyncs = 0, coalesced_flushes = 0, dedup_skips = 0;
  siri::BranchStats branches;
  siri::CommitCombiner::Stats combiner;
  uint64_t append_bytes = 0;
};

Counters Snapshot(Deployment* dep, const Workload& w) {
  Counters c;
  c.pool = siri::Sha256Pool::Shared().stats();
  for (const Client& cl : w.Clients()) {
    const auto r = cl.store->remote_stats();
    c.remote.remote_gets += r.remote_gets;
    c.remote.cache_hits += r.cache_hits;
    c.remote.coalesced_gets += r.coalesced_gets;
    c.remote.remote_puts += r.remote_puts;
    const auto s = cl.transport->stats();
    c.wire.rpcs += s.rpcs;
    c.wire_bytes += s.bytes_sent + s.bytes_received;
    c.wire.syscalls += s.syscalls;
    c.wire.retries += s.retries;
  }
  c.store = dep->store()->stats();
  c.fsyncs = dep->store()->fsync_count();
  c.coalesced_flushes = dep->store()->coalesced_flushes();
  c.dedup_skips = dep->store()->dedup_skips();
  siri::BranchManager* branches = dep->servlet()->branches();
  for (const std::string& b : branches->ListBranches()) {
    const siri::BranchStats s = branches->branch_stats(b);
    c.branches.commits += s.commits;
    c.branches.cas_failures += s.cas_failures;
    c.branches.merge_retries += s.merge_retries;
  }
  c.combiner = dep->servlet()->combiner()->stats();
  c.append_bytes = dep->tracing_env() ? dep->tracing_env()->append_bytes() : 0;
  return c;
}

int RunTraced(const Args& a, Workload* w) {
  // Untraced half: the same phase with no decorators, for the overhead.
  double untraced_ops_per_s = 0;
  {
    Deployment dep(FreshDir(a.dir + "/untraced"), nullptr);
    w->Setup(&dep);
    Tally t;
    const double elapsed = w->Run(a.seconds / 2, &t);
    w->Verify(&dep);
    untraced_ops_per_s = t.attempted / elapsed;
    w->Teardown();
  }
  RemoveDir(a.dir + "/untraced");

  Tracer tracer;
  auto dep = std::make_unique<Deployment>(FreshDir(a.dir + "/traced"), &tracer);
  w->Setup(dep.get());
  const Counters before = Snapshot(dep.get(), *w);
  const int64_t since = NowNanos();
  Tally t;
  const double elapsed = w->Run(a.seconds / 2, &t);
  const int64_t until = NowNanos();
  const Counters after = Snapshot(dep.get(), *w);
  w->Verify(dep.get());
  w->Teardown();
  dep->Stop();  // every traced thread has stopped before spans are read

  const auto spans = tracer.Summarize(since, until);
  auto span = [&](const std::string& name) -> const Tracer::NameSummary& {
    static const Tracer::NameSummary kNone;
    auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  };
  auto scaled = [](std::vector<double> v, double div) {
    for (double& x : v) x /= div;
    return v;
  };
  const double ops = t.attempted;
  const double commits = t.publishes;

  Report r;
  PrintRegime(a, *w);
  std::printf("workload %s seed=%llu traced seconds=%.3f elapsed=%.3f\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds / 2, elapsed);
  std::vector<std::string> names;
  auto add = [&](const std::string& name, double value, const char* unit,
                 uint64_t n) {
    r.Add(name, value, unit, n);
    names.push_back(name);
  };
  auto self_p50 = [&](const std::string& metric, const std::string& span_name,
                      const char* unit, double div) {
    const auto& s = span(span_name).self_ns;
    add(metric, Percentile(scaled(s, div), 0.5), unit, s.size());
  };
  auto dur_pct = [&](const std::string& metric, const std::string& span_name,
                     double q, const char* unit, double div) {
    const auto& s = span(span_name).duration_ns;
    add(metric, Percentile(scaled(s, div), q), unit, s.size());
  };

  // index
  self_p50("index.put_batch_self_ms.p50", "index.put_batch", "ms", 1e6);
  self_p50("index.get_self_us.p50", "index.get", "us", 1e3);
  add("index.nodes_per_lookup", Ratio(t.lookup_nodes, t.lookups), "count",
      t.lookups);
  add("index.bytes_per_lookup", Ratio(t.lookup_bytes, t.lookups), "B",
      t.lookups);
  self_p50("index.diff_self_ms.p50", "index.diff", "ms", 1e6);
  self_p50("index.merge3_self_ms.p50", "index.merge3", "ms", 1e6);
  add("index.server_merge_ms_per_commit",
      Ratio(Sum(span("index.server").self_ns) / 1e6, commits), "ms",
      t.publishes);
  // crypto
  add("crypto.pool_pages_per_commit",
      Ratio(after.pool.pages - before.pool.pages, commits), "count",
      t.publishes);
  add("crypto.pool_jobs_per_commit",
      Ratio(after.pool.jobs - before.pool.jobs, commits), "count",
      t.publishes);
  // system (the client store)
  const double hits = (after.remote.cache_hits - before.remote.cache_hits) +
                      (after.remote.coalesced_gets - before.remote.coalesced_gets);
  const double remote_gets =
      after.remote.remote_gets - before.remote.remote_gets;
  add("system.cache_hit_ratio", Ratio(hits, hits + remote_gets), "ratio",
      static_cast<uint64_t>(hits + remote_gets));
  add("system.coalesced_gets_per_op",
      Ratio(after.remote.coalesced_gets - before.remote.coalesced_gets, ops),
      "count", t.attempted);
  add("system.remote_gets_per_op", Ratio(remote_gets, ops), "count",
      t.attempted);
  add("system.remote_puts_per_commit",
      Ratio(after.remote.remote_puts - before.remote.remote_puts, commits),
      "count", t.publishes);
  // net
  dur_pct("net.put_many_us.p50", "net.put_many", 0.5, "us", 1e3);
  dur_pct("net.get_us.p50", "net.get", 0.5, "us", 1e3);
  dur_pct("net.get_us.p99", "net.get", 0.99, "us", 1e3);
  dur_pct("net.head_us.p50", "net.head", 0.5, "us", 1e3);
  dur_pct("net.publish_us.p50", "net.publish", 0.5, "us", 1e3);
  dur_pct("net.publish_us.p99", "net.publish", 0.99, "us", 1e3);
  add("net.rpcs_per_op", Ratio(after.wire.rpcs - before.wire.rpcs, ops),
      "count", t.attempted);
  add("net.bytes_per_op",
      Ratio(after.wire_bytes - before.wire_bytes, ops), "B",
      t.attempted);
  add("net.syscalls_per_op",
      Ratio(after.wire.syscalls - before.wire.syscalls, ops), "count",
      t.attempted);
  add("net.retries_per_op", Ratio(after.wire.retries - before.wire.retries, ops),
      "count", t.attempted);
  // version (branch table + combiner)
  const double swings = after.branches.commits - before.branches.commits;
  const double cas_failures =
      after.branches.cas_failures - before.branches.cas_failures;
  add("version.commits_per_head_swing", Ratio(commits, swings), "count",
      static_cast<uint64_t>(swings));
  add("version.merge_retries_per_commit",
      Ratio(after.branches.merge_retries - before.branches.merge_retries,
            commits),
      "count", t.publishes);
  add("version.cas_success_ratio", Ratio(swings, swings + cas_failures),
      "ratio", static_cast<uint64_t>(swings + cas_failures));
  add("version.fallbacks", after.combiner.fallbacks - before.combiner.fallbacks,
      "count", t.publishes);
  add("version.max_batch", after.combiner.max_batch_seen, "count",
      after.combiner.publishes);
  // store (the server's FileNodeStore)
  add("store.flushes_per_commit", Ratio(after.fsyncs - before.fsyncs, commits),
      "count", t.publishes);
  add("store.coalesced_flushes_per_commit",
      Ratio(after.coalesced_flushes - before.coalesced_flushes, commits),
      "count", t.publishes);
  const double puts = after.store.puts - before.store.puts;
  add("store.dup_put_ratio",
      Ratio(after.store.dup_puts - before.store.dup_puts, puts), "ratio",
      static_cast<uint64_t>(puts));
  add("store.dedup_skips_per_commit",
      Ratio(after.dedup_skips - before.dedup_skips, commits), "count",
      t.publishes);
  add("store.gets_per_op", Ratio(after.store.gets - before.store.gets, ops),
      "count", t.attempted);
  // io (the Env under the page log and the ref log)
  dur_pct("io.sync_ms.p50", "io.sync", 0.5, "ms", 1e6);
  dur_pct("io.sync_ms.p99", "io.sync", 0.99, "ms", 1e6);
  add("io.syncs_per_commit", Ratio(span("io.sync").duration_ns.size(), commits),
      "count", t.publishes);
  add("io.append_bytes_per_commit",
      Ratio(after.append_bytes - before.append_bytes, commits), "B",
      t.publishes);
  // Self time per op of each layer: the client's own work in its op spans,
  // the client index, the wire, and the server's index and disk.
  for (const char* layer : {"op", "index", "net", "io"}) {
    double self = 0;
    uint64_t n = 0;
    for (const auto& [name, s] : spans) {
      if (name.rfind(std::string(layer) + ".", 0) != 0) continue;
      self += Sum(s.self_ns);
      n += s.self_ns.size();
    }
    add(std::string(layer == std::string("op") ? "client" : layer) +
            ".self_ms_per_op",
        Ratio(self / 1e6, ops), "ms", n);
  }
  const double traced_ops_per_s = t.attempted / elapsed;
  add("trace.overhead_pct",
      (Ratio(untraced_ops_per_s, traced_ops_per_s) - 1) * 100, "%",
      t.attempted);
  add("trace.spans", tracer.span_count(), "count", 1);

  if (!tracer.Dump(a.dir + "/spans.tsv")) Abort("cannot write spans");
  dep.reset();
  RemoveDir(a.dir + "/traced");
  std::fflush(stdout);
  r.PrintResult(t.attempted, t.failed, names);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = Parse(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(a.workload);
  w->Generate(a.seed, a.tiny);
  return a.trace ? RunTraced(a, w.get()) : RunUntraced(a, w.get());
}
