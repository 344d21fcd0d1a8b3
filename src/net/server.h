// Copyright (c) 2026 The siri Authors. MIT license.
//
// SiriServer — the epoll server that puts a ForkbaseServlet behind a
// real socket. K client *processes* connect over loopback/TCP, speak the
// framed wire protocol (net/wire.h), and share one servlet: one node
// store, one branch table, one group-commit combiner — so commits from
// different processes batch into combined publishes and share fsyncs
// exactly as in-process committers do.
//
// Shape: a small pool of workers shares one epoll set. Every connection
// (and the listen socket) is armed EPOLLONESHOT, so each readiness event
// goes to exactly one worker's epoll_wait, and that worker serves the
// connection inline and re-arms it: no thread hands a request to another.
// Events carry a per-connection id, not the fd, so an event for a
// connection closed by the idle sweep can never reach a newer connection
// that reused its fd number. A connection processes its requests strictly
// in order — wire-v2 clients may keep many requests in flight
// (pipelining), but responses are executed and answered in arrival order,
// each tagged with its request's correlation id — so per-connection state
// needs no locking: a connection is owned either by the epoll set or by
// exactly one worker, never both. Concurrency across connections is what
// feeds the combiner its batches; pipelining concentrates it per
// connection. A worker drains a wakeup's worth of frames with vectored
// reads (readv) and flushes all their responses in one coalesced writev
// burst.
//
// Malformed input never kills the server: a frame that cannot
// resynchronize (oversized length, garbled varint, digest mismatch — the
// typed errors FrameDecoder distinguishes from "need more bytes") gets a
// best-effort typed error response and the connection is closed; every
// other connection is untouched.

#ifndef SIRI_NET_SERVER_H_
#define SIRI_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/wire.h"

namespace siri {

class ForkbaseServlet;

namespace net {

/// \brief Server-mode configuration, and the documented home of the
/// group-fsync policy split:
///
/// A FileNodeStore constructed directly (embedded deployment) has its
/// wait-a-little window OFF — `set_group_flush_window_micros` defaults to
/// 0 — because an embedded committer is usually alone and the tests that
/// account exact fsyncs-per-commit rely on undelayed flushes. A
/// `siri-server` serves K independent client processes whose commits
/// *should* share durability points, so server mode turns the window ON
/// by default: SiriServer::Start applies `group_flush_window_micros` to
/// the servlet's store when it is file-backed. Pass 0 to keep server-side
/// flushes undelayed.
struct ServerOptions {
  /// Group-fsync wait-a-little window applied at Start (file-backed
  /// stores only). Default ON in server mode; embedded default is OFF.
  uint64_t group_flush_window_micros = 200;

  /// Threads that wait on the epoll set and serve the connection each
  /// event names. More workers = more concurrent publishes feeding the
  /// combiner; connections never share a worker mid-request.
  int worker_threads = 4;

  /// Frames beyond this are rejected as corrupt (see net/wire.h).
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// listen(2) backlog: connections queued before accept. Forked client
  /// processes may all connect before the server thread first runs.
  int listen_backlog = 64;

  /// Re-digest every node a PutMany uploads and reject the batch on any
  /// mismatch. The in-process boundary trusts its caller (same address
  /// space); a socket is a trust boundary.
  bool verify_uploads = true;

  /// Connection cap (0 = unlimited). Enforced at Hello time, not accept
  /// time: the reject travels as a typed ResourceExhausted *response*
  /// before the close, so the client sees a clean "back off and retry"
  /// instead of a RST that may discard the explanation.
  int max_connections = 0;

  /// Connections with no traffic for this long are reaped by the periodic
  /// sweep one worker claims per tick (0 = never). A connection a worker
  /// is serving is never reaped mid-request.
  int idle_timeout_ms = 0;

  /// Per-connection cap on bytes buffered but not yet executed (0 = one
  /// max-size frame plus header room). A client that streams requests
  /// faster than the worker drains them is paused at this bound instead
  /// of growing the connection's buffer without limit.
  uint64_t max_buffered_bytes = 0;

  /// Byte budget for the combiner-aware cache push: when a client asks
  /// (`want_push`), a Publish ack carries the combined publish's
  /// staged batch — merged index pages and commit objects, the nodes a
  /// losing committer re-reads next round — up to this many node bytes
  /// (0 disables the push server-wide). Records are dropped from the
  /// push, never from the publish: the cap shapes ack size only.
  uint64_t cache_push_max_bytes = 4ull << 20;
};

/// \brief Epoll server for one ForkbaseServlet. Not copyable. The servlet
/// must outlive the server; Stop() (or destruction) joins every thread.
class SiriServer {
 public:
  struct Stats {
    uint64_t connections = 0;   ///< accepted over the lifetime
    uint64_t requests = 0;      ///< frames decoded and executed
    uint64_t frame_errors = 0;  ///< connections dropped on malformed input
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t overload_rejects = 0;  ///< Hellos refused at max_connections
    uint64_t idle_reaped = 0;       ///< connections closed by the idle sweep
    uint64_t pushed_nodes = 0;      ///< nodes attached to Publish acks
    /// Write requests answered with the typed degraded-mode reject
    /// (kDegradedPrefix) because the store or ref log holds a sticky
    /// disk error.
    uint64_t degraded_rejects = 0;
    /// True while the servlet's store or ref log reports a sticky disk
    /// error: writes are rejected, reads keep serving resident state.
    bool degraded = false;
    /// The sticky cause when degraded (empty otherwise) — what the
    /// shutdown summary line prints.
    std::string degraded_cause;
  };

  /// What a graceful Drain() accomplished, for the shutdown log line.
  struct DrainSummary {
    uint64_t connections_closed = 0;   ///< open connections at drain start
    uint64_t inflight_completed = 0;   ///< requests executed during the drain
  };

  explicit SiriServer(ForkbaseServlet* servlet, ServerOptions opts = {});
  ~SiriServer();

  SiriServer(const SiriServer&) = delete;
  SiriServer& operator=(const SiriServer&) = delete;

  /// Binds 127.0.0.1:\p port (0 = ephemeral; read the choice back with
  /// port()). Call once, before Start.
  [[nodiscard]] Status Listen(int port);

  /// Adopts an already-bound, already-listening socket instead of binding
  /// one. The multi-process tests use this: the parent binds, forks, and
  /// the server child adopts — clients that connected before the child
  /// started sit in the backlog.
  [[nodiscard]] Status AdoptListener(int listen_fd);

  /// The bound port (after Listen/AdoptListener).
  int port() const { return port_; }

  /// Applies the server-mode group-flush window and spawns the workers.
  /// Call once, after Listen/AdoptListener.
  [[nodiscard]] Status Start();

  /// Stops accepting, joins every thread, closes every connection.
  /// Idempotent; in-flight requests finish first.
  void Stop();

  /// Graceful shutdown: stop accepting, let every in-flight request run
  /// to completion and its response flush, close the drained connections,
  /// then push the store and ref log to their durability points — so
  /// every response the server ever acked is on disk when this returns.
  /// Finishes with Stop(). Idempotent with it; safe after Stop (no-op).
  DrainSummary Drain() EXCLUDES(mu_);

  Stats stats() const;

 private:
  struct Connection {
    explicit Connection(int fd_in, uint64_t max_frame, int64_t now_ms)
        : fd(fd_in), decoder(max_frame), last_activity_ms(now_ms) {}
    int fd;
    FrameDecoder decoder;  // touched only by the owning worker
    /// Set by a successful Hello. Until then rejects go out in the
    /// id-less Hello layout (net/wire.h) — the only one the peer's
    /// handshake reads. Touched only by the owning worker.
    bool greeted = false;
    /// Wall of the connection's last traffic, for the idle sweep.
    /// Guarded by SiriServer::mu_.
    int64_t last_activity_ms;
    /// True from the moment a worker claims the connection's event until
    /// it re-arms the fd: the sweeps must not close a connection a worker
    /// is serving. Guarded by SiriServer::mu_ — the claim and the sweep
    /// both hold it, so a connection the sweep sees idle stays idle until
    /// it is closed.
    bool busy = false;
  };

  /// One worker: waits on the shared epoll set and serves whatever event
  /// it receives inline, until Stop.
  void WorkerLoop();
  /// Accepts every queued connection, then re-arms the listen socket.
  void AcceptAll() EXCLUDES(mu_);
  /// Claims connection \p id (dropping a stale event for one already
  /// closed), serves it, and re-arms or closes it.
  void Serve(uint64_t id) EXCLUDES(mu_);
  /// Reads, decodes, and executes everything \p conn has ready; returns
  /// false when the connection must be closed. Responses for one wakeup
  /// accumulate in an outbox and flush coalesced (one writev burst per
  /// round) instead of one send per frame.
  bool ProcessConnection(Connection* conn);
  /// Degraded-mode gate around ExecuteOp: write requests (Put / PutMany /
  /// Flush / Publish) are rejected with the typed kDegradedPrefix error
  /// while DiskHealth() reports a sticky fault; reads pass through. The
  /// very request that *trips* the fault gets its raw store error
  /// remapped to the same typed reject, so clients see one error shape.
  void Execute(const Request& req, Status* app, std::string* body);
  void ExecuteOp(const Request& req, Status* app, std::string* body);
  /// The sticky disk health across everything the servlet persists: the
  /// node store first, then the attached ref log (if any).
  Status DiskHealth() const;
  /// Writes every queued response frame with writev (gathering across
  /// frame boundaries, IOV-chunked); false when the peer is unwritable.
  /// Clears \p outbox on success.
  bool FlushOutbox(Connection* conn, std::vector<std::string>* outbox);
  /// Queues \p reject — id-less until \p conn is greeted — behind the
  /// responses already in \p outbox, flushes best-effort, and returns
  /// false: the connection must close.
  bool RejectAndClose(Connection* conn, const Status& reject,
                      std::vector<std::string>* outbox);
  /// Closes every connection no worker is serving: the idle ones (\p
  /// idle_only, on the tick a worker claims) or all of them (drain).
  void SweepConnections(bool idle_only) REQUIRES(mu_);
  size_t ActiveConnections() const EXCLUDES(mu_);

  ForkbaseServlet* servlet_;
  ServerOptions opts_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;
  /// Wall time at which the next idle sweep falls due; the worker whose
  /// compare-exchange advances it runs that sweep.
  std::atomic<int64_t> next_sweep_ms_{0};

  mutable Mutex mu_;
  std::condition_variable drain_cv_;  ///< signaled when conns_ empties
  /// Open connections by id, the key their epoll events carry. Ids are
  /// never reused; 0 and 1 tag the listen socket and the wake eventfd.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_
      GUARDED_BY(mu_);
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 2;
  bool draining_ GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;

  /// Test seam, null outside tests: runs in a worker between epoll_wait
  /// returning a connection's event and the worker's claim of it under
  /// mu_. Set only through SiriServerTestPeer, before Start.
  std::function<void()> event_hook_;
  friend class SiriServerTestPeer;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> overload_rejects_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> pushed_nodes_{0};
  std::atomic<uint64_t> degraded_rejects_{0};
};

}  // namespace net
}  // namespace siri

#endif  // SIRI_NET_SERVER_H_
