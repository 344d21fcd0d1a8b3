// Copyright (c) 2026 The siri Authors. MIT license.
//
// SocketTransport — the Transport implementation that talks to a
// siri-server process over TCP.
//
// Pipelining. The transport keeps up to Options::max_inflight RPCs
// outstanding on the one connection. Each wire attempt carries a fresh
// correlation id; responses are matched by id, so caller threads' RPCs
// overlap on the wire instead of queuing behind each other's round trips.
// Internally: one *sender* at a time owns the write side (frames never
// interleave), and whichever waiting thread finds the read side free
// becomes the *reader*, dispatching every decoded response to its waiter
// by id until its own arrives, then handing the role to another waiter.
//
// Where InProcessTransport *simulates* its round trip, this transport
// *measures* it: stats() reports real serialized bytes and real
// send/recv/poll syscall counts, which is what the socket benches report
// next to the slept-RTT numbers.
//
// Deadlines. Options::rpc_timeout_ms is a monotonic budget for one whole
// wire attempt — admission wait + (re)connect + send + receive all draw
// from the same deadline, so a server that dribbles one byte per poll
// interval still times out on schedule. Retry backoff sleeps between
// attempts are NOT counted against it: each attempt starts a fresh
// budget. An attempt that misses its deadline after its frame was fully
// sent abandons just its own correlation id (the connection — and every
// other in-flight RPC on it — stays healthy; the late response is
// discarded on arrival); a miss mid-send must close the connection,
// because a torn stream position cannot be resynced.
//
// Exactly-once. When the wire fails, a capped-exponential RetryPolicy
// with automatic reconnect + fresh Hello handshake replays the RPC — any
// RPC, Publish included. The node surface is content-addressed: a replay
// re-stores identical bytes under identical digests. A Publish replay is
// deduped by the server: the content commit a publish writes is
// deterministic in (root, expected head, author, message), and a publish
// whose content commit is already reachable from the branch head is acked
// with that landing instead of executing again (CommitAlreadyApplied in
// version/occ.h). So a lost ack costs one reconnect and one replay, never
// a duplicate commit.
//
// When the policy is exhausted without an answer the RPC fails with a
// typed Status::Unavailable — "the op may not have run" — never with a
// silently wrong success. Faults can be injected deterministically via
// Options::fault (net/fault.h); every wire exchange, handshakes included,
// consumes one injector index.
//
// Fetched nodes. Get re-digests the server's bytes and answers a
// mismatch with Status::Corruption — not retried, so the caller (and its
// cache) never sees bytes that do not hash to the digest it asked for.
// GetPath (kGetPath) returns a lookup path's nodes without digests — the
// requester knows only the first one it wants — so the verification is
// the caller's: ForkbaseClientStore re-digests every node, caches each
// under its own digest, and falls back to Get when no node hashes to the
// digest it missed on.
//
// Cache push. With Options::cache_push set, Publish requests ask the
// server to attach the publish's staged batch — merged index pages and
// commit objects, exactly the nodes a losing committer re-reads next
// round — to the ack. Pushed nodes are re-digested client-side (the
// socket is a trust boundary; a mismatched record is dropped, never
// cached) and handed to the sink installed with SetPushSink
// (ForkbaseClientStore write-allocates them into NodeCache).

#ifndef SIRI_NET_SOCKET_TRANSPORT_H_
#define SIRI_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "net/fault.h"
#include "net/transport.h"
#include "net/wire.h"

namespace siri {
namespace net {

/// Capped exponential backoff with deterministic jitter, applied between
/// wire attempts of one RPC. Attempt k (k >= 1) sleeps roughly
/// backoff_init_ms * 2^(k-1), capped at backoff_max_ms, jittered to
/// [delay/2, delay] so a fleet of clients does not retry in lockstep.
struct RetryPolicy {
  /// Total wire attempts per RPC. 1 = no retry: a failed attempt returns
  /// its own wire error rather than Unavailable.
  int max_attempts = 5;
  int backoff_init_ms = 10;
  int backoff_max_ms = 500;
  uint64_t jitter_seed = 0x5eedu;  ///< per-transport jitter stream seed
};

class SocketTransport : public Transport {
 public:
  struct Options {
    uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Total time to keep retrying the initial connect, for clients that
    /// race a server still binding (0 = single attempt).
    int connect_retry_ms = 2000;
    /// Whole-attempt deadline: a monotonic budget covering one wire
    /// attempt end to end — admission wait, any reconnect, send, and
    /// receive. An attempt that misses it is abandoned (counted in
    /// stats().deadline_misses) and retried under the policy; backoff
    /// sleeps between attempts start a fresh budget. 0 = none.
    int rpc_timeout_ms = 30000;
    /// RPCs outstanding on the connection at once (request pipelining).
    /// Clamped to >= 1.
    int max_inflight = 8;
    /// Ask the server to attach combined-publish staged batches to
    /// Publish acks (combiner-aware cache push). Off by default so
    /// baseline bench rows stay reproducible.
    bool cache_push = false;
    RetryPolicy retry;
    /// Optional deterministic saboteur for chaos tests and the chaos
    /// bench; every wire exchange consumes one injector index.
    std::shared_ptr<FaultInjector> fault;
  };

  /// Connects to 127.0.0.1:\p port (or \p host) and runs the Hello
  /// version handshake (net/wire.h); a non-siri server fails here, not
  /// on the first real RPC. Transient handshake failures (IO, overload)
  /// are retried under the policy; typed application rejects — a server
  /// speaking another wire version above all ("wire version mismatch")
  /// — fail fast, with no retry.
  [[nodiscard]] static Status Connect(const std::string& host, int port,
                                      std::shared_ptr<SocketTransport>* out,
                                      Options opts);
  [[nodiscard]] static Status Connect(const std::string& host, int port,
                                      std::shared_ptr<SocketTransport>* out) {
    return Connect(host, port, out, Options());
  }

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  Result<bool> Contains(const Hash& h) override;
  Result<uint64_t> SizeOf(const Hash& h) override;
  /// One kGetPath RPC, replayed under the retry policy like any read.
  Result<std::vector<std::shared_ptr<const std::string>>> GetPath(
      const std::string& structure, const Hash& root, Slice key,
      uint64_t skip) override;
  Result<Hash> Put(Slice bytes) override;
  Status PutMany(const NodeBatch& batch) override;
  Status Flush() override;
  Result<NodeStore::Stats> StoreStats() override;
  Status ResetServerOpCounters() override;

  Result<Hash> Head(const std::string& branch) override;
  Result<PublishResult> Publish(const PublishRequest& req) override;
  Result<BranchStats> GetBranchStats(const std::string& branch) override;
  Result<std::vector<std::string>> ListBranches() override;

  Stats stats() const override;

  /// Installs the consumer of publish-ack cache pushes (pass an empty
  /// function to uninstall). Pushed records reach the sink already
  /// digest-verified.
  void SetPushSink(PushSink sink) override;

  /// Closes the connection permanently; every later RPC fails with
  /// IOError (no reconnect — an explicit Close is an instruction, not a
  /// fault). Safe to call concurrently with RPCs.
  void Close() EXCLUDES(mu_);

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One RPC attempt in flight on the connection, owned by the calling
  /// thread's stack and registered in pending_ under its correlation id
  /// until the owner deregisters it.
  struct PendingRpc {
    uint64_t corr = 0;
    /// The whole frame left the socket: a deadline miss can abandon just
    /// this id instead of closing the connection.
    bool sent_fully = false;
    bool done = false;        ///< response arrived (app/body valid)
    bool failed = false;      ///< transport-level failure (error valid)
    Status app;
    std::string body;
    Status error;
  };

  /// One wire attempt's outcome, for the retry layer.
  struct AttemptResult {
    bool responded = false;  ///< a clean response arrived
    Status app;              ///< application status (responded)
    std::string body;        ///< response body (responded && app.ok())
    Status error;            ///< transport error (!responded): replayable
    /// Explicitly Close()d: fail fast, no retry.
    bool permanent = false;
  };

  SocketTransport(std::string host, int port, int fd, Options opts);

  TimePoint DeadlineFromNow() const;

  /// Fails every in-flight RPC with \p error, closes the fd, resets the
  /// decoder, and bumps the connection epoch. Each waiter classifies its
  /// own failure by its own sent_fully flag.
  void CloseAndFailAllLocked(const Status& error) REQUIRES(mu_);
  void CloseLocked() REQUIRES(mu_);

  // The helpers below temporarily release mu_ around blocking syscalls
  // (poll) and sleeps — the scoped-capability analysis cannot express a
  // mid-scope release performed by a callee, so they opt out and document
  // the contract: called with mu_ held, returns with mu_ held, and every
  // reacquisition re-validates the connection epoch.

  /// Blocks until \p fd is ready for \p events or \p deadline passes,
  /// with mu_ (held via \p lock) released for the duration of the poll.
  Status PollUnlocked(MutexLock& lock, int fd, short events,
                      TimePoint deadline) NO_THREAD_SAFETY_ANALYSIS;
  /// Releases mu_ for a fault-injected delay.
  void SleepUnlocked(MutexLock& lock, uint64_t micros)
      NO_THREAD_SAFETY_ANALYSIS;
  /// Sends frame[0, limit) on the current connection; the caller must be
  /// the active sender. Checks the whole-attempt deadline every
  /// iteration (dribble-proof) and re-validates the epoch after every
  /// poll. Does NOT close on failure — the caller decides.
  Status SendFrameLocked(MutexLock& lock, const std::string& frame,
                         size_t limit, TimePoint deadline)
      NO_THREAD_SAFETY_ANALYSIS;
  /// The reader role: decode + dispatch responses by correlation id until
  /// \p self is done/failed or the wire breaks. Caller set reader_active_.
  void ReadLoopLocked(MutexLock& lock, PendingRpc* self, TimePoint deadline)
      NO_THREAD_SAFETY_ANALYSIS;
  /// Reads exactly one response payload during the pre-pipelining
  /// handshake (exclusive connection access via connecting_).
  Status ReadHandshakeResponseLocked(MutexLock& lock, std::string* payload,
                                     TimePoint deadline)
      NO_THREAD_SAFETY_ANALYSIS;

  /// A deadline miss for \p self: with the frame fully sent the single
  /// correlation id is abandoned (connection stays up, late response
  /// discarded); otherwise the stream position is lost and the connection
  /// closes, failing everything in flight.
  void HandleDeadlineMissLocked(PendingRpc* self) REQUIRES(mu_);

  /// Hello on a freshly dialed fd_ + version check (shares the
  /// fault/deadline machinery; one injector index per hello attempt).
  Status HandshakeLocked(MutexLock& lock) REQUIRES(mu_);
  /// Re-dial + handshake; bumps stats().reconnects on success. Caller
  /// must have set connecting_.
  Status ReconnectLocked(MutexLock& lock) REQUIRES(mu_);

  /// One attempt: admission (slot + sender token), connect if needed,
  /// send, await the matching response. \p req->corr_id is assigned
  /// here.
  AttemptResult CallOnce(Request* req) EXCLUDES(mu_);

  /// The retry loop every RPC runs through: replays any failed attempt
  /// (see "Exactly-once" above), Unavailable after exhaustion.
  Result<std::string> CallIdempotent(Request* req) EXCLUDES(mu_);

  /// Sleeps the jittered backoff before wire attempt \p attempt (>= 1).
  void BackoffSleep(int attempt) EXCLUDES(mu_);

  /// Digest-verifies \p pushed (dropping mismatches) and hands the
  /// surviving records to the push sink; counts stats().pushed_*.
  void DeliverPush(const NodeBatch& pushed) EXCLUDES(mu_);

  const Options opts_;
  const std::string host_;
  const int port_;

  mutable Mutex mu_;
  std::condition_variable cv_;  ///< any channel state change
  int fd_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;  ///< explicit Close(): no reconnect
  FrameDecoder decoder_ GUARDED_BY(mu_);
  Rng jitter_rng_ GUARDED_BY(mu_);
  /// Bumped on every close; stale-epoch observers know their attempt was
  /// failed for them while they slept.
  uint64_t conn_epoch_ GUARDED_BY(mu_) = 0;
  uint64_t next_corr_ GUARDED_BY(mu_) = 1;
  bool sender_active_ GUARDED_BY(mu_) = false;
  bool reader_active_ GUARDED_BY(mu_) = false;
  bool connecting_ GUARDED_BY(mu_) = false;
  int inflight_ GUARDED_BY(mu_) = 0;
  std::unordered_map<uint64_t, PendingRpc*> pending_ GUARDED_BY(mu_);

  mutable Mutex sink_mu_;
  PushSink push_sink_ GUARDED_BY(sink_mu_);

  std::atomic<uint64_t> rpcs_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> syscalls_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> pushed_nodes_{0};
  std::atomic<uint64_t> pushed_bytes_{0};
};

}  // namespace net
}  // namespace siri

#endif  // SIRI_NET_SOCKET_TRANSPORT_H_
