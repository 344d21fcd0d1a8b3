// Copyright (c) 2026 The siri Authors. MIT license.
//
// siri-server — the standalone daemon that serves one ForkbaseServlet to
// K client processes over the framed wire protocol (src/net/wire.h).
//
// Quickstart:
//   siri-server --port=4433 --data=/var/lib/siri   # durable, group-fsync on
//   siri-server --port=4433                        # in-memory (testing)
//   siri-server --port=4433 --data=DIR --page-cache-bytes=268435456
//
// Clients connect with net::SocketTransport and wrap it in a
// ForkbaseClientStore; `fig06_ycsb_throughput --transport=socket` is the
// reference workload.

#include <signal.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"
#include "net/server.h"
#include "store/file_store.h"
#include "store/node_store.h"
#include "system/forkbase.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{false};

void HandleStop(int) { g_stop.store(true); }

// SIGTERM is the orderly-shutdown signal: drain in-flight RPCs, flush,
// then exit. SIGINT stays the fast path.
void HandleTerm(int) {
  g_drain.store(true);
  g_stop.store(true);
}

// --flag=value parser; exits with usage on anything unrecognized so a
// typo'd flag cannot silently run a misconfigured server.
struct Flags {
  int port = 4433;
  std::string data;             // empty = in-memory store
  uint64_t window_micros = 200; // server-mode group-fsync window
  int workers = 4;
  uint64_t mbt_buckets = 8192;  // must match committing clients
  int max_connections = 0;      // 0 = unlimited
  int idle_timeout_ms = 0;      // 0 = never reap idle connections
  uint64_t page_cache_bytes = siri::FileNodeStore::kDefaultPageCacheBytes;
};

// An MBT's empty skeleton holds num_buckets digests at construction, so the
// bucket count is capped to keep a typo from exhausting memory at start.
constexpr uint64_t kMaxMbtBuckets = 1ull << 20;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port=N] [--data=DIR] [--window-micros=N]\n"
               "          [--workers=N] [--mbt-buckets=N] "
               "[--max-connections=N]\n"
               "          [--idle-timeout-ms=N] [--page-cache-bytes=N]\n"
               "  --port=N           TCP port on 127.0.0.1 (0 = ephemeral, "
               "printed at start)\n"
               "  --data=DIR         durable FileNodeStore + ref log under "
               "DIR (default: in-memory)\n"
               "  --window-micros=N  group-fsync wait-a-little window "
               "(default 200; 0 = off)\n"
               "  --workers=N        request worker threads (default 4)\n"
               "  --mbt-buckets=N    MBT bucket count; must match clients "
               "(default 8192, at most 1048576)\n"
               "  --max-connections=N  reject Hellos beyond N open "
               "connections (default 0 = unlimited)\n"
               "  --idle-timeout-ms=N  reap connections idle this long "
               "(default 0 = never)\n"
               "  --page-cache-bytes=N  page cache of the --data store, in "
               "bytes (default 67108864)\n",
               argv0);
  std::exit(2);
}

// Decimal digits only: strtoull alone would accept a sign or leading
// space, and wrap "-1" to 2^64-1.
bool ParseUint(const char* s, uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

Flags Parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string key = eq ? std::string(arg, eq - arg) : std::string(arg);
    const char* val = eq ? eq + 1 : "";
    uint64_t n = 0;
    if (key == "--port" && ParseUint(val, &n) && n <= 65535) {
      f.port = static_cast<int>(n);
    } else if (key == "--data" && *val) {
      f.data = val;
    } else if (key == "--window-micros" && ParseUint(val, &n)) {
      f.window_micros = n;
    } else if (key == "--workers" && ParseUint(val, &n) && n >= 1 && n <= 64) {
      f.workers = static_cast<int>(n);
    } else if (key == "--mbt-buckets" && ParseUint(val, &n) && n >= 1 &&
               n <= kMaxMbtBuckets) {
      f.mbt_buckets = n;
    } else if (key == "--max-connections" && ParseUint(val, &n) &&
               n <= 1000000) {
      f.max_connections = static_cast<int>(n);
    } else if (key == "--idle-timeout-ms" && ParseUint(val, &n) &&
               n <= INT32_MAX) {
      f.idle_timeout_ms = static_cast<int>(n);
    } else if (key == "--page-cache-bytes" && ParseUint(val, &n)) {
      f.page_cache_bytes = n;
    } else {
      std::fprintf(stderr, "siri-server: bad flag: %s\n", arg);
      Usage(argv[0]);
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace siri;
  const Flags flags = Parse(argc, argv);

  NodeStorePtr store;
  std::shared_ptr<FileNodeStore> file_store;
  if (!flags.data.empty()) {
    const Status opened =
        FileNodeStore::Open(io::Env::Default(), flags.data + "/pages.log",
                            &file_store, flags.page_cache_bytes);
    if (!opened.ok()) {
      std::fprintf(stderr, "siri-server: open %s: %s\n", flags.data.c_str(),
                   opened.ToString().c_str());
      return 1;
    }
    store = file_store;
  } else {
    store = std::make_shared<InMemoryNodeStore>();
  }

  ForkbaseServlet servlet(store);
  if (!flags.data.empty()) {
    const Status refs = servlet.branches()->AttachRefLog(flags.data + "/refs.log");
    if (!refs.ok()) {
      std::fprintf(stderr, "siri-server: ref log: %s\n",
                   refs.ToString().c_str());
      return 1;
    }
  }

  // Every structure a client may commit must be registered with the same
  // construction geometry the client uses (see ForkbaseServlet::RegisterIndex).
  servlet.RegisterIndex(std::make_unique<PosTree>(store));
  MbtOptions mbt_opt;
  mbt_opt.num_buckets = flags.mbt_buckets;
  mbt_opt.fanout = 32;
  servlet.RegisterIndex(std::make_unique<Mbt>(store, mbt_opt));
  servlet.RegisterIndex(std::make_unique<Mpt>(store));
  servlet.RegisterIndex(std::make_unique<MvmbTree>(store));

  net::ServerOptions opts;
  opts.group_flush_window_micros = flags.window_micros;
  opts.worker_threads = flags.workers;
  opts.max_connections = flags.max_connections;
  opts.idle_timeout_ms = flags.idle_timeout_ms;
  net::SiriServer server(&servlet, opts);
  Status s = server.Listen(flags.port);
  if (!s.ok()) {
    std::fprintf(stderr, "siri-server: listen: %s\n", s.ToString().c_str());
    return 1;
  }
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "siri-server: start: %s\n", s.ToString().c_str());
    return 1;
  }

  // A client that vanishes mid-response must surface as an EPIPE errno on
  // the worker's send, never as a process-killing SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = HandleStop;
  sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = HandleTerm;
  sigaction(SIGTERM, &sa, nullptr);

  std::printf("siri-server: listening on 127.0.0.1:%d (%s, window=%lluus, "
              "workers=%d)\n",
              server.port(), flags.data.empty() ? "in-memory" : "durable",
              static_cast<unsigned long long>(flags.window_micros),
              flags.workers);
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (g_drain.load()) {
    const auto drained = server.Drain();
    std::printf("siri-server: drained. connections_closed=%llu "
                "inflight_completed=%llu flushed=yes\n",
                static_cast<unsigned long long>(drained.connections_closed),
                static_cast<unsigned long long>(drained.inflight_completed));
  } else {
    server.Stop();
  }
  const auto st = server.stats();
  std::printf("siri-server: stopped. connections=%llu requests=%llu "
              "frame_errors=%llu overload_rejects=%llu idle_reaped=%llu "
              "degraded_rejects=%llu",
              static_cast<unsigned long long>(st.connections),
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.frame_errors),
              static_cast<unsigned long long>(st.overload_rejects),
              static_cast<unsigned long long>(st.idle_reaped),
              static_cast<unsigned long long>(st.degraded_rejects));
  if (file_store != nullptr) {
    const auto cache = file_store->page_cache_stats();
    std::printf(" page_cache_hits=%llu page_cache_misses=%llu "
                "page_cache_evictions=%llu page_cache_resident_bytes=%llu",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.resident_bytes));
  }
  std::printf("\n");
  if (st.degraded) {
    // An operator reading the shutdown log must learn the server spent
    // its final stretch read-only, and why.
    std::printf("siri-server: DEGRADED (read-only): %s\n",
                st.degraded_cause.c_str());
  }
  return 0;
}
