// Copyright (c) 2026 The siri Authors. MIT license.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/varint.h"
#include "crypto/hash_pool.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "version/group_commit.h"

namespace siri {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A frame-layer reject: the request inside was never executed, and the
// kBadFramePrefix tells the client's retry layer exactly that (replay is
// safe, even for a Publish).
Status BadFrame(const Status& s) {
  return Status::Corruption(std::string(kBadFramePrefix) + s.message());
}

// epoll_event.data.u64 tags of the two fds that are not connections
// (SiriServer::next_conn_id_ starts above them).
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

// How often an idle sweep falls due, and so the longest a worker sleeps
// in epoll_wait before it checks for one.
constexpr int kTickMs = 100;

// One-shot arming, for connections and the listen socket alike: after an
// event is delivered the fd stays silent until its worker re-arms it.
epoll_event OneShot(uint64_t id) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  ev.data.u64 = id;
  return ev;
}

// writev gather width per call. IOV_MAX is at least 1024 everywhere we
// run, but a modest cap keeps the stack iovec array small; the flush
// loop simply issues another writev for the remainder.
constexpr int kMaxIov = 64;

}  // namespace

SiriServer::SiriServer(ForkbaseServlet* servlet, ServerOptions opts)
    : servlet_(servlet), opts_(opts) {}

SiriServer::~SiriServer() { Stop(); }

Status SiriServer::Listen(int port) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already listening");
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("bind");
    close(fd);
    return s;
  }
  if (listen(fd, opts_.listen_backlog) != 0) {
    const Status s = Errno("listen");
    close(fd);
    return s;
  }
  return AdoptListener(fd);
}

Status SiriServer::AdoptListener(int listen_fd) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already listening");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  // The accept loop drains the backlog until EAGAIN; a blocking listen
  // socket (which an adopted pre-bound fd usually is) would wedge a
  // worker on the accept after the last queued connection.
  const int fl = fcntl(listen_fd, F_GETFL, 0);
  if (fl < 0 || fcntl(listen_fd, F_SETFL, fl | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  listen_fd_ = listen_fd;
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status SiriServer::Start() {
  if (listen_fd_ < 0) return Status::InvalidArgument("Listen first");
  if (started_) return Status::InvalidArgument("already started");

  // The server-mode half of the group-fsync policy split (ServerOptions):
  // a file-backed store gets the wait-a-little window turned on here, so
  // commits from independent client processes share fsyncs. Embedded
  // users never reach this line and keep the window-off default.
  if (auto* fs = dynamic_cast<FileNodeStore*>(servlet_->store())) {
    fs->set_group_flush_window_micros(opts_.group_flush_window_micros);
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");

  // The listen socket is one-shot like a connection: one worker at a time
  // drains the accept queue. The wake eventfd is level-triggered and never
  // read: once Stop writes it, every epoll_wait returns at once.
  epoll_event ev = OneShot(kListenId);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  const int workers = opts_.worker_threads < 1 ? 1 : opts_.worker_threads;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void SiriServer::Stop() {
  if (!started_) return;
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    const uint64_t one = 1;
    // Best-effort: a worker also wakes on its epoll tick timeout.
    (void)!write(wake_fd_, &one, sizeof(one));
  }
  // A worker serving a connection finishes it first, then sees running_.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    MutexLock lock(mu_);
    for (auto& [id, conn] : conns_) close(conn->fd);
    conns_.clear();
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
  started_ = false;
}

SiriServer::DrainSummary SiriServer::Drain() {
  DrainSummary out;
  if (!started_) return out;
  const uint64_t requests_before = requests_.load(std::memory_order_relaxed);
  // Stop accepting. A worker draining the accept queue right now re-arms
  // into ENOENT, and closes what it accepts: draining_ is set below.
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  {
    // Close every connection no worker is serving. A worker closes the one
    // it serves once the response flushes — it checks draining_ under mu_
    // before re-arming — so no connection outlives this wait, and the
    // last close signals drain_cv_.
    MutexLock lock(mu_);
    out.connections_closed = conns_.size();
    draining_ = true;
    SweepConnections(/*idle_only=*/false);
    while (!conns_.empty()) drain_cv_.wait(lock.native());
  }
  // Quiesced. Push everything acked to its durability point before the
  // process exits: acked-implies-durable must survive a graceful SIGTERM.
  // Best-effort by design — there is no one left to report a late IO
  // error to, and the store's own fsync discipline already covered every
  // publish ack.
  (void)servlet_->store()->Flush();
  (void)servlet_->branches()->SyncRefs();
  out.inflight_completed =
      requests_.load(std::memory_order_relaxed) - requests_before;
  Stop();
  return out;
}

SiriServer::Stats SiriServer::stats() const {
  Stats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.overload_rejects = overload_rejects_.load(std::memory_order_relaxed);
  out.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  out.pushed_nodes = pushed_nodes_.load(std::memory_order_relaxed);
  out.degraded_rejects = degraded_rejects_.load(std::memory_order_relaxed);
  const Status disk = DiskHealth();
  out.degraded = !disk.ok();
  if (!disk.ok()) out.degraded_cause = disk.ToString();
  return out;
}

size_t SiriServer::ActiveConnections() const {
  MutexLock lock(mu_);
  return conns_.size();
}

void SiriServer::SweepConnections(bool idle_only) {
  // Safe from any thread: a worker claims a connection (sets busy) under
  // mu_, so a connection seen un-busy here stays unclaimed while it is
  // closed. A worker that already received its event finds the id gone.
  const int64_t now = NowMs();
  for (auto it = conns_.begin(); it != conns_.end();) {
    const Connection& conn = *it->second;
    if (conn.busy ||
        (idle_only && now - conn.last_activity_ms < opts_.idle_timeout_ms)) {
      ++it;
      continue;
    }
    if (idle_only) idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    close(conn.fd);  // also removes the fd from the epoll set
    it = conns_.erase(it);
  }
  if (conns_.empty()) drain_cv_.notify_all();
}

void SiriServer::WorkerLoop() {
  while (running_.load(std::memory_order_acquire)) {
    epoll_event ev{};
    const int n = epoll_wait(epoll_fd_, &ev, 1, kTickMs);
    if (n < 0 && errno != EINTR) return;  // epoll fd gone: shutting down
    if (n == 1 && ev.data.u64 == kListenId) {
      AcceptAll();
    } else if (n == 1 && ev.data.u64 != kWakeId) {
      if (event_hook_) event_hook_();
      Serve(ev.data.u64);
    }
    if (opts_.idle_timeout_ms <= 0) continue;
    // The idle sweep, run by whichever worker advances the tick.
    const int64_t now = NowMs();
    int64_t due = next_sweep_ms_.load(std::memory_order_relaxed);
    if (now >= due &&
        next_sweep_ms_.compare_exchange_strong(due, now + kTickMs)) {
      MutexLock lock(mu_);
      SweepConnections(/*idle_only=*/true);
    }
  }
}

void SiriServer::AcceptAll() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN: drained the backlog
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Registered under mu_: a worker that receives the new connection's
    // first event looks it up under the same lock.
    MutexLock lock(mu_);
    const uint64_t id = next_conn_id_;
    epoll_event ev = OneShot(id);
    if (draining_ || epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    ++next_conn_id_;
    conns_[id] =
        std::make_unique<Connection>(fd, opts_.max_frame_bytes, NowMs());
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
  // Fails with ENOENT once a drain removed the listen socket: stays off.
  epoll_event ev = OneShot(kListenId);
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
}

void SiriServer::Serve(uint64_t id) {
  Connection* conn = nullptr;
  {
    MutexLock lock(mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // closed after its event fired
    conn = it->second.get();
    conn->busy = true;
  }
  // The connection is exclusively this worker's until it is re-armed or
  // closed: EPOLLONESHOT keeps its next event back, and busy keeps the
  // sweeps away.
  const bool keep = ProcessConnection(conn);
  MutexLock lock(mu_);
  // A drain closes the connection once its in-flight work is answered.
  if (keep && !draining_) {
    // Clear busy and re-arm under the lock: the sweep must never see an
    // un-busy connection in the gap before the fd is back in epoll.
    conn->last_activity_ms = NowMs();
    epoll_event ev = OneShot(id);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->busy = false;
      return;
    }
  }
  close(conn->fd);
  conns_.erase(id);
  if (conns_.empty()) drain_cv_.notify_all();
}

bool SiriServer::ProcessConnection(Connection* conn) {
  // Per-connection in-flight memory bound: the connection's buffer never
  // grows past one maximum frame (plus header room) before the frames in
  // it are executed and their memory reclaimed. A cap below one max frame
  // could never make progress, so it is floored there.
  const uint64_t buffer_cap =
      opts_.max_buffered_bytes > 0
          ? std::max(opts_.max_buffered_bytes, opts_.max_frame_bytes + 64)
          : opts_.max_frame_bytes + 1024;
  bool peer_closed = false;
  bool would_block = false;
  std::string payload;
  std::vector<std::string> outbox;
  while (!peer_closed && !would_block) {
    // Fill until the socket runs dry, the peer hangs up, or the buffer
    // bound is reached (then: execute first, read more after). Vectored:
    // a pipelining client lands many adjacent frames per wakeup, so give
    // the kernel two pages of gather space per syscall.
    while (conn->decoder.buffered() < buffer_cap) {
      char buf0[64 * 1024];
      char buf1[64 * 1024];
      iovec iov[2];
      iov[0].iov_base = buf0;
      iov[0].iov_len = sizeof(buf0);
      iov[1].iov_base = buf1;
      iov[1].iov_len = sizeof(buf1);
      const ssize_t n = readv(conn->fd, iov, 2);
      if (n > 0) {
        const size_t got = static_cast<size_t>(n);
        conn->decoder.Append(buf0, std::min(got, sizeof(buf0)));
        if (got > sizeof(buf0)) {
          conn->decoder.Append(buf1, got - sizeof(buf0));
        }
        bytes_in_.fetch_add(got, std::memory_order_relaxed);
        continue;
      }
      if (n == 0) {
        // A client that half-closed after sending still gets its final
        // responses: fall through and drain what arrived.
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        would_block = true;
        break;
      }
      if (errno == EINTR) continue;
      return false;  // connection error
    }

    // Execute every complete frame buffered so far. Responses queue in
    // the outbox and flush coalesced after the batch — one writev burst
    // per round instead of one send per request.
    for (;;) {
      auto next = conn->decoder.Next(&payload);
      if (!next.ok()) {
        // Unresynchronizable stream: say why with the bad-frame marker
        // (the request was never executed), then hang up.
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        return RejectAndClose(conn, BadFrame(next.status()), &outbox);
      }
      if (!*next) break;
      Request req;
      const Status decoded = DecodeRequest(payload, &req);
      if (!decoded.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        return RejectAndClose(conn, BadFrame(decoded), &outbox);
      }
      if (req.type == MsgType::kHello) {
        if (opts_.max_connections > 0 &&
            ActiveConnections() > static_cast<size_t>(opts_.max_connections)) {
          // Over capacity: shed this connection with a typed reject the
          // client's retry layer understands (back off, re-dial),
          // delivered as a clean response + FIN rather than an
          // accept-time RST that could discard the explanation.
          overload_rejects_.fetch_add(1, std::memory_order_relaxed);
          return RejectAndClose(
              conn,
              Status::ResourceExhausted("server at connection capacity (max " +
                                        std::to_string(opts_.max_connections) +
                                        ")"),
              &outbox);
        }
        // The version handshake, handled inline because it writes
        // per-connection state. A peer speaking any other version has no
        // common dialect: typed reject, then hang up.
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (req.version != kWireVersion) {
          return RejectAndClose(
              conn,
              Status::InvalidArgument(
                  "wire version mismatch: client speaks v" +
                  std::to_string(req.version) + ", server speaks v" +
                  std::to_string(kWireVersion)),
              &outbox);
        }
        conn->greeted = true;
        std::string body;
        PutVarint64(&body, kWireVersion);
        outbox.push_back(EncodeFrame(EncodeHelloResponse(Status::OK(), body)));
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      Status app;
      std::string body;
      Execute(req, &app, &body);
      outbox.push_back(EncodeFrame(EncodeResponse(app, body, req.corr_id)));
    }
    if (!outbox.empty() && !FlushOutbox(conn, &outbox)) return false;
  }
  return !peer_closed;
}

namespace {

bool IsWriteRequest(MsgType type) {
  return type == MsgType::kPut || type == MsgType::kPutMany ||
         type == MsgType::kFlush || type == MsgType::kPublish;
}

/// The typed reject a degraded server answers writes with: the sticky
/// cause keeps its ResourceExhausted identity (out of space), everything
/// else maps to Unavailable. The kDegradedPrefix is what lets the client
/// fail fast instead of treating the reject as a transient overload.
Status DegradedReject(const Status& cause) {
  const std::string msg = std::string(kDegradedPrefix) + cause.ToString();
  if (cause.IsResourceExhausted()) return Status::ResourceExhausted(msg);
  return Status::Unavailable(msg);
}

Status NoIndexFor(const std::string& structure) {
  return Status::NotFound("no server-side index registered for structure '" +
                          structure + "'");
}

}  // namespace

Status SiriServer::DiskHealth() const {
  Status s = servlet_->store()->DiskStatus();
  if (!s.ok()) return s;
  if (RefLog* refs = servlet_->branches()->ref_log()) return refs->DiskStatus();
  return Status::OK();
}

void SiriServer::Execute(const Request& req, Status* app, std::string* body) {
  const bool is_write = IsWriteRequest(req.type);
  if (is_write) {
    // Read-only degraded mode: once the store (or ref log) latched a
    // sticky disk error, no write can be made durable — answer with the
    // typed reject instead of letting the request fail deep in the
    // store. Reads keep serving resident state below.
    Status disk = DiskHealth();
    if (!disk.ok()) {
      degraded_rejects_.fetch_add(1, std::memory_order_relaxed);
      *app = DegradedReject(disk);
      body->clear();
      return;
    }
  }
  ExecuteOp(req, app, body);
  if (is_write && !app->ok()) {
    // This request may be the one that tripped the disk fault: its error
    // surfaced raw from the store (e.g. IOError("fsync ...")). Remap it
    // to the same typed shape every later write will get, so clients see
    // one degraded-mode error, not two.
    Status disk = DiskHealth();
    if (!disk.ok()) *app = DegradedReject(disk);
  }
}

void SiriServer::ExecuteOp(const Request& req, Status* app,
                           std::string* body) {
  *app = Status::OK();
  body->clear();
  switch (req.type) {
    case MsgType::kGet: {
      auto bytes = servlet_->store()->Get(req.hash);
      if (!bytes.ok()) {
        *app = bytes.status();
        return;
      }
      body->assign(**bytes);
      return;
    }
    case MsgType::kGetPath: {
      // A point lookup's whole root-to-leaf path in one reply: the
      // registered index's Merkle proof, minus the nodes the client
      // already walked through. The client re-digests every node.
      ImmutableIndex* index = servlet_->IndexFor(req.structure);
      if (index == nullptr) {
        *app = NoIndexFor(req.structure);
        return;
      }
      auto proof = index->GetProof(req.hash, req.key);
      if (!proof.ok()) {
        *app = proof.status();
        return;
      }
      const size_t skip = std::min<uint64_t>(req.skip, proof->nodes.size());
      proof->nodes.erase(proof->nodes.begin(), proof->nodes.begin() + skip);
      *body = EncodePathBody(proof->nodes);
      return;
    }
    case MsgType::kContains:
      body->push_back(servlet_->store()->Contains(req.hash) ? 1 : 0);
      return;
    case MsgType::kSizeOf: {
      auto size = servlet_->store()->SizeOf(req.hash);
      if (!size.ok()) {
        *app = size.status();
        return;
      }
      PutVarint64(body, *size);
      return;
    }
    case MsgType::kPut:
      PutHash(body, servlet_->store()->Put(req.bytes));
      return;
    case MsgType::kPutMany: {
      if (opts_.verify_uploads) {
        // The socket is a trust boundary: re-digest every uploaded node
        // (in parallel — batches are exactly Sha256Pool's regime) and
        // reject the whole batch on any mismatch, before the store sees
        // it. A corrupted upload must not land in the content-addressed
        // store under a digest it does not hash to.
        std::vector<std::shared_ptr<const std::string>> pages;
        pages.reserve(req.batch.size());
        for (const NodeRecord& rec : req.batch) pages.push_back(rec.bytes);
        const std::vector<Hash> digests = Sha256Pool::Shared().DigestAll(pages);
        for (size_t i = 0; i < req.batch.size(); ++i) {
          if (digests[i] != req.batch[i].hash) {
            *app = Status::InvalidArgument(
                "uploaded node digest mismatch at batch index " +
                std::to_string(i));
            return;
          }
        }
      }
      servlet_->store()->PutMany(req.batch);
      return;
    }
    case MsgType::kFlush:
      *app = servlet_->store()->Flush();
      return;
    case MsgType::kHead: {
      auto head = servlet_->branches()->Head(req.branch);
      if (!head.ok()) {
        *app = head.status();
        return;
      }
      PutHash(body, *head);
      return;
    }
    case MsgType::kPublish: {
      ImmutableIndex* index = servlet_->IndexFor(req.structure);
      if (index == nullptr) {
        *app = NoIndexFor(req.structure);
        return;
      }
      PublishSpec spec;
      spec.index = index;
      spec.branch = req.branch;
      spec.new_root = req.new_root;
      spec.author = req.author;
      spec.message = req.message;
      spec.expected_head = req.expected_head;
      auto landed = servlet_->combiner()->Publish(spec);
      if (!landed.ok()) {
        *app = landed.status();
        return;
      }
      WirePublishResult out;
      out.head = landed->head;
      out.commit = landed->commit;
      out.cas_failures = static_cast<uint64_t>(landed->cas_failures);
      out.merge_commits = static_cast<uint64_t>(landed->merge_commits);
      if (req.want_push && opts_.cache_push_max_bytes > 0 &&
          landed->staged != nullptr) {
        // Combiner-aware cache push: attach the staged batch this publish
        // landed with — merged index pages and commit objects, exactly
        // the nodes a losing committer would Get back one round trip at a
        // time — to the ack, up to the byte budget. Over-budget records
        // are simply not pushed (the client fetches them the old way);
        // the publish itself is unaffected.
        uint64_t budget = opts_.cache_push_max_bytes;
        for (const NodeRecord& rec : *landed->staged) {
          if (rec.bytes == nullptr || rec.bytes->size() > budget) continue;
          budget -= rec.bytes->size();
          out.pushed.push_back(rec);
        }
        pushed_nodes_.fetch_add(out.pushed.size(), std::memory_order_relaxed);
      }
      *body = EncodePublishResultBody(out);
      return;
    }
    case MsgType::kBranchStats:
      *body =
          EncodeBranchStatsBody(servlet_->branches()->branch_stats(req.branch));
      return;
    case MsgType::kStoreStats:
      *body = EncodeStoreStatsBody(servlet_->store()->stats());
      return;
    case MsgType::kResetCounters:
      servlet_->store()->ResetOpCounters();
      return;
    case MsgType::kListBranches:
      *body = EncodeStringListBody(servlet_->branches()->ListBranches());
      return;
    case MsgType::kHello:  // handled inline in ProcessConnection
    case MsgType::kResponse:
      break;
  }
  *app = Status::InvalidArgument("request type not servable");
}

bool SiriServer::RejectAndClose(Connection* conn, const Status& reject,
                                std::vector<std::string>* outbox) {
  // Earlier queued responses flush with the reject: they answer requests
  // that DID execute. Best-effort — the peer may not be reading.
  outbox->push_back(EncodeFrame(conn->greeted
                                    ? EncodeResponse(reject, Slice())
                                    : EncodeHelloResponse(reject, Slice())));
  (void)FlushOutbox(conn, outbox);
  return false;
}

bool SiriServer::FlushOutbox(Connection* conn,
                             std::vector<std::string>* outbox) {
  // One gathered write for the whole round's responses: adjacent frames
  // share syscalls on the way out exactly as readv shares them on the
  // way in. `idx`/`off` mark the first unwritten byte across the frame
  // list; each writev call gathers from there, chunked at kMaxIov.
  size_t idx = 0;
  size_t off = 0;
  int stalls = 0;
  while (idx < outbox->size()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    size_t skip = off;
    for (size_t i = idx; i < outbox->size() && cnt < kMaxIov; ++i) {
      const std::string& f = (*outbox)[i];
      iov[cnt].iov_base = const_cast<char*>(f.data() + skip);
      iov[cnt].iov_len = f.size() - skip;
      ++cnt;
      skip = 0;
    }
    const ssize_t n = writev(conn->fd, iov, cnt);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0) {
        const size_t left = (*outbox)[idx].size() - off;
        if (advanced >= left) {
          advanced -= left;
          ++idx;
          off = 0;
        } else {
          off += advanced;
          advanced = 0;
        }
      }
      continue;
    }
    if (n == 0) {
      // writev(2) never reports 0 for a nonzero byte count on a healthy
      // stream socket; treating it as retriable would spin. Unwritable.
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The peer's receive window is full. Wait for writability, bounded:
      // a client that stopped reading must not wedge a worker forever.
      if (++stalls > 300) return false;  // ~30s of 100ms waits
      pollfd pfd{conn->fd, POLLOUT, 0};
      (void)poll(&pfd, 1, 100);
      continue;
    }
    return false;
  }
  outbox->clear();
  return true;
}

}  // namespace net
}  // namespace siri
