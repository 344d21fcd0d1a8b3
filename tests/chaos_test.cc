// Copyright (c) 2026 The siri Authors. MIT license.
//
// Chaos suite: the resilient RPC stack under deterministic sabotage.
// A FaultInjector (net/fault.h) tears, garbles, resets, and delays the
// transport's own traffic while the tests assert the three invariants the
// retry layer promises:
//
//   1. no lost acked update — every RPC the client saw succeed really
//      happened and survives;
//   2. no duplicated commit — a replayed Publish never lands twice, even
//      when the ack was lost after the server applied it;
//   3. bounded latency — a faulted RPC resolves (success or typed
//      Unavailable) within the retry policy's budget, never hangs.
//
// The scripted tests pin one fault kind at one exact wire attempt, so
// every failure branch (torn send, bad frame, lost ack replayed into the
// server's dedup, policy exhaustion) is hit deterministically. ChaosProcessTest forks
// real client processes with seeded random fault streams — the
// chaos-labeled ctest entry re-runs it scaled up via SIRI_CHAOS=1.
// Forked tests are excluded from the TSan job (ctest -E) like the other
// multi-process suites.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/varint.h"
#include "crypto/sha256.h"
#include "index/pos/pos_tree.h"
#include "net/fault.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "tests/test_util.h"
#include "version/commit.h"

namespace siri {
namespace net {

/// Test access to SiriServer's private event seam and connection table.
class SiriServerTestPeer {
 public:
  explicit SiriServerTestPeer(SiriServer* server) : server_(server) {}

  /// Installs the hook a worker runs between epoll_wait returning a
  /// connection's event and its claim of that connection. Before Start.
  void SetEventHook(std::function<void()> hook) {
    server_->event_hook_ = std::move(hook);
  }

  /// Closes every connection no worker has claimed, as a drain's sweep.
  void ReapUnclaimed() {
    MutexLock lock(server_->mu_);
    server_->SweepConnections(/*idle_only=*/false);
  }

  /// The server-side fd of every open connection.
  std::vector<int> ConnectionFds() {
    MutexLock lock(server_->mu_);
    std::vector<int> fds;
    for (const auto& [id, conn] : server_->conns_) fds.push_back(conn->fd);
    return fds;
  }

 private:
  SiriServer* server_;
};

}  // namespace net

namespace {

using net::FaultAction;
using net::FaultInjector;
using net::FaultKind;
using testing_util::MakeKvs;

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// --- the injector itself ----------------------------------------------

TEST(FaultInjectorTest, ScriptedFaultsPinExactAttempts) {
  FaultInjector inj;  // default config: random mode off
  inj.ScriptAt(2, {FaultKind::kCorruptFrame, 0});
  EXPECT_EQ(inj.Next().kind, FaultKind::kNone);
  EXPECT_EQ(inj.Next().kind, FaultKind::kNone);
  EXPECT_EQ(inj.Next().kind, FaultKind::kCorruptFrame);
  EXPECT_EQ(inj.Next().kind, FaultKind::kNone);
  const auto st = inj.stats();
  EXPECT_EQ(st.attempts, 4u);
  EXPECT_EQ(st.injected, 1u);
  EXPECT_EQ(st.corrupt_frames, 1u);
}

TEST(FaultInjectorTest, ScriptNextFaultsTheUpcomingAttempt) {
  FaultInjector inj;
  EXPECT_EQ(inj.Next().kind, FaultKind::kNone);
  inj.ScriptNext({FaultKind::kResetAfterSend, 0});
  EXPECT_EQ(inj.Next().kind, FaultKind::kResetAfterSend);
  EXPECT_EQ(inj.Next().kind, FaultKind::kNone);
}

TEST(FaultInjectorTest, RandomModeIsReproducibleFromSeed) {
  FaultInjector::RandomConfig cfg;
  cfg.fault_rate = 0.5;
  FaultInjector a(42, cfg);
  FaultInjector b(42, cfg);
  for (int i = 0; i < 128; ++i) {
    const FaultAction fa = a.Next();
    const FaultAction fb = b.Next();
    EXPECT_EQ(fa.kind, fb.kind) << "diverged at attempt " << i;
  }
  // At rate 0.5 over 128 draws, both tails are astronomically unlikely.
  EXPECT_GT(a.stats().injected, 16u);
  EXPECT_LT(a.stats().injected, 112u);
}

TEST(FaultInjectorTest, StreamPositionIgnoresEnabledKindSet) {
  // Disabling kinds must not shift the random stream: attempt N draws the
  // same inject/pick pair regardless of which kinds are selectable.
  FaultInjector::RandomConfig all;
  all.fault_rate = 0.5;
  FaultInjector::RandomConfig resets_only = all;
  resets_only.short_write = false;
  resets_only.corrupt_frame = false;
  resets_only.reset_after_send = false;
  resets_only.delays = false;
  FaultInjector a(7, all);
  FaultInjector b(7, resets_only);
  for (int i = 0; i < 128; ++i) {
    const bool a_injected = a.Next().kind != FaultKind::kNone;
    const bool b_injected = b.Next().kind != FaultKind::kNone;
    EXPECT_EQ(a_injected, b_injected) << "Bernoulli diverged at " << i;
  }
}

// --- loopback fixture --------------------------------------------------

/// Fast-converging retry policy for tests: same shape as production, two
/// orders of magnitude quicker.
net::SocketTransport::Options FastRetryOptions() {
  net::SocketTransport::Options opts;
  opts.rpc_timeout_ms = 10000;
  opts.retry.max_attempts = 8;
  opts.retry.backoff_init_ms = 2;
  opts.retry.backoff_max_ms = 20;
  return opts;
}

class ChaosServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    servlet_ = std::make_unique<ForkbaseServlet>(store_);
    servlet_->RegisterIndex(std::make_unique<PosTree>(store_));
    net::ServerOptions opts;
    opts.worker_threads = 2;
    opts.group_flush_window_micros = 0;
    server_ = std::make_unique<net::SiriServer>(servlet_.get(), opts);
    ASSERT_TRUE(server_->Listen(0).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  std::shared_ptr<net::SocketTransport> Connect(
      net::SocketTransport::Options opts) {
    std::shared_ptr<net::SocketTransport> t;
    Status s =
        net::SocketTransport::Connect("127.0.0.1", server_->port(), &t, opts);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return t;
  }

  /// Every commit reachable from \p head, decoded.
  std::vector<Commit> History(const Hash& head) {
    std::vector<Commit> out;
    std::deque<Hash> frontier{head};
    std::set<std::string> seen{head.ToHex()};
    while (!frontier.empty()) {
      const Hash h = frontier.front();
      frontier.pop_front();
      auto c = servlet_->branches()->ReadCommit(h);
      if (!c.ok()) {
        ADD_FAILURE() << "unreadable commit in history: " << c.status().ToString();
        break;
      }
      for (const Hash& p : c->parents) {
        if (seen.insert(p.ToHex()).second) frontier.push_back(p);
      }
      out.push_back(*c);
    }
    return out;
  }

  /// How many commits in \p head's history carry \p message — the
  /// duplicate detector: every acked publish must score exactly 1.
  int MessageCount(const Hash& head, const std::string& message) {
    int n = 0;
    for (const Commit& c : History(head)) {
      if (c.message == message) ++n;
    }
    return n;
  }

  NodeStorePtr store_;
  std::unique_ptr<ForkbaseServlet> servlet_;
  std::unique_ptr<net::SiriServer> server_;
};

// --- idempotent surface under every fault kind ------------------------

TEST_F(ChaosServerTest, IdempotentOpsSurviveEveryDestructiveFaultKind) {
  const FaultKind kinds[] = {FaultKind::kResetBeforeSend,
                             FaultKind::kShortWrite, FaultKind::kCorruptFrame,
                             FaultKind::kResetAfterSend};
  for (const FaultKind kind : kinds) {
    SCOPED_TRACE(net::FaultKindName(kind));
    auto fault = std::make_shared<FaultInjector>();
    auto opts = FastRetryOptions();
    opts.fault = fault;
    auto t = Connect(opts);
    ASSERT_NE(t, nullptr);

    const std::string payload =
        std::string("chaos-") + net::FaultKindName(kind);
    auto put = t->Put(payload);
    ASSERT_TRUE(put.ok()) << put.status().ToString();

    fault->ScriptNext({kind, 0});
    auto got = t->Get(*put);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, payload);

    const auto ts = t->stats();
    EXPECT_GE(ts.retries, 1u);
    EXPECT_GE(ts.reconnects, 1u);
    EXPECT_EQ(fault->stats().injected, 1u);
  }
  // The corrupt frames were counted (and survived) server-side too.
  EXPECT_GE(server_->stats().frame_errors, 1u);
}

TEST_F(ChaosServerTest, DelayFaultsSlowButNeverFail) {
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);
  auto put = t->Put(std::string(64, 'd'));
  ASSERT_TRUE(put.ok());
  fault->ScriptNext({FaultKind::kDelaySend, 3000});
  auto got = t->Get(*put);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  fault->ScriptNext({FaultKind::kDelayRecv, 3000});
  got = t->Get(*put);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // A delay is not a failure: no retry, no reconnect.
  EXPECT_EQ(t->stats().retries, 0u);
  EXPECT_EQ(t->stats().reconnects, 0u);
  EXPECT_EQ(fault->stats().delays, 2u);
}

TEST_F(ChaosServerTest, PutManySurvivesLostAckWithoutDataLoss) {
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  NodeBatch batch;
  for (int i = 0; i < 8; ++i) {
    auto bytes = std::make_shared<const std::string>(
        "chaos-batch-" + std::to_string(i) + std::string(128, 'p'));
    batch.push_back({Sha256::Digest(*bytes), bytes});
  }
  // Lost ack on the upload: PutMany is content-addressed, so the replay
  // re-stores identical bytes under identical digests — the ambiguity is
  // harmless by construction.
  fault->ScriptNext({FaultKind::kResetAfterSend, 0});
  ASSERT_TRUE(t->PutMany(batch).ok());
  for (const auto& rec : batch) {
    EXPECT_TRUE(store_->Contains(rec.hash));
  }
  EXPECT_GE(t->stats().retries, 1u);
}

// --- publish idempotency (the satellite-4 unit tests) ------------------

TEST_F(ChaosServerTest, PublishTornSendIsReplayedExactlyOnce) {
  // A torn frame never executes (the length prefix keeps the server
  // waiting for bytes that never come), so the replay is the FIRST
  // execution — one commit, not two.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root.ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "chaos";
  pub.message = "torn-send";
  fault->ScriptNext({FaultKind::kShortWrite, 0});
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_GE(t->stats().retries, 1u);

  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 1u);
  EXPECT_EQ(MessageCount(published->head, "torn-send"), 1);
}

TEST_F(ChaosServerTest, PublishCorruptFrameIsReplayedExactlyOnce) {
  // A bit-flipped frame draws the server's typed "bad frame" reject —
  // provably not executed, so the replay cannot double-apply.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root.ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "chaos";
  pub.message = "corrupt-frame";
  fault->ScriptNext({FaultKind::kCorruptFrame, 0});
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 1u);
  EXPECT_EQ(MessageCount(published->head, "corrupt-frame"), 1);
  EXPECT_GE(server_->stats().frame_errors, 1u);
}

TEST_F(ChaosServerTest, PublishLostAckResolvesAsAppliedWithoutDuplicate) {
  // The classic lost ack: the full publish frame reached the server (which
  // applied it), but the connection died before the response. The
  // transport reconnects and replays; the server finds the replay's
  // content commit already in history and acks the commit it actually
  // wrote instead of landing a second, degenerate merge commit.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  PosTree index(store_);
  auto root1 = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root1.ok());
  net::PublishRequest first;
  first.structure = "pos";
  first.branch = "main";
  first.new_root = *root1;
  first.author = "chaos";
  first.message = "first";
  auto head0 = t->Publish(first);
  ASSERT_TRUE(head0.ok());

  auto root2 = index.PutBatch(*root1, {{"chaos/second", "v"}});
  ASSERT_TRUE(root2.ok());
  net::PublishRequest second;
  second.structure = "pos";
  second.branch = "main";
  second.new_root = *root2;
  second.author = "chaos";
  second.message = "second";
  second.expected_head = head0->head;

  fault->ScriptNext({FaultKind::kResetAfterSend, 0});
  const uint64_t rpcs_before = t->stats().rpcs;
  auto published = t->Publish(second);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(fault->stats().resets_after_send, 1u);
  // The original attempt, one reconnect Hello, one replay — no Head or
  // Get probes of the branch.
  EXPECT_EQ(t->stats().rpcs - rpcs_before, 3u);

  // The ack carries the very commit the server wrote: commits are
  // content-addressed, so the digest is decidable client-side.
  Commit want;
  want.root = *root2;
  want.parents.push_back(head0->head);
  want.author = "chaos";
  want.message = "second";
  want.sequence = 1;
  EXPECT_EQ(published->commit, Sha256::Digest(want.Encode()));

  // Exactly two commits on the branch, each message exactly once: the
  // applied-but-unacked publish was NOT replayed.
  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 2u);
  EXPECT_EQ(MessageCount(published->head, "first"), 1);
  EXPECT_EQ(MessageCount(published->head, "second"), 1);

  // And the acked state is really there.
  auto head = t->Head("main");
  ASSERT_TRUE(head.ok());
  auto commit = servlet_->branches()->ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  auto got = index.Get(commit->root, "chaos/second", nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
}

TEST_F(ChaosServerTest, PublishLostAckOnBranchCreationResolves) {
  // Lost ack on the very first commit of a branch (no expected_head): the
  // server's dedup must recognise the replayed creation too.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(5));
  ASSERT_TRUE(root.ok());
  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "fresh";
  pub.new_root = *root;
  pub.author = "chaos";
  pub.message = "genesis";
  fault->ScriptNext({FaultKind::kResetAfterSend, 0});
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(servlet_->branches()->branch_stats("fresh").commits, 1u);
  EXPECT_EQ(MessageCount(published->head, "genesis"), 1);
}

TEST_F(ChaosServerTest, CorruptHelloGetsReadableBadFrameReject) {
  // A garbled Hello is rejected before the connection is greeted, so the
  // reject must come back in the id-less Hello layout — the only one the
  // client's handshake reads. Connect surfaces it typed, unretried.
  auto fault = std::make_shared<FaultInjector>();
  fault->ScriptAt(0, {FaultKind::kCorruptFrame, 0});
  auto opts = FastRetryOptions();
  opts.fault = fault;
  std::shared_ptr<net::SocketTransport> t;
  const Status s =
      net::SocketTransport::Connect("127.0.0.1", server_->port(), &t, opts);
  EXPECT_TRUE(net::IsBadFrameReject(s)) << s.ToString();
  EXPECT_EQ(fault->stats().attempts, 1u);
  EXPECT_EQ(server_->stats().frame_errors, 1u);

  // Mid-life, a garbled reconnect Hello is just one more failed attempt:
  // reset the next RPC (attempt 2), garble the Hello that follows
  // (attempt 3), and the third try lands.
  fault = std::make_shared<FaultInjector>();
  opts.fault = fault;
  t = Connect(opts);
  ASSERT_NE(t, nullptr);
  auto put = t->Put("corrupt-hello");
  ASSERT_TRUE(put.ok());
  fault->ScriptNext({FaultKind::kResetBeforeSend, 0});
  fault->ScriptAt(fault->stats().attempts + 1, {FaultKind::kCorruptFrame, 0});
  auto got = t->Get(*put);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, "corrupt-hello");
  EXPECT_EQ(t->stats().retries, 2u);
  EXPECT_EQ(t->stats().reconnects, 1u);
  EXPECT_EQ(server_->stats().frame_errors, 2u);
}

// --- typed exhaustion and deadlines ------------------------------------

TEST_F(ChaosServerTest, RetryExhaustionIsTypedUnavailableAndBounded) {
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.retry.max_attempts = 3;
  opts.fault = fault;
  auto t = Connect(opts);  // handshake is attempt 0, unscripted
  ASSERT_NE(t, nullptr);
  // Every later wire attempt — exchanges and reconnect handshakes alike —
  // is reset before a byte moves.
  for (uint64_t i = 1; i < 64; ++i) {
    fault->ScriptAt(i, {FaultKind::kResetBeforeSend, 0});
  }
  const auto start = std::chrono::steady_clock::now();
  auto got = t->Get(Sha256::Digest("unreachable"));
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  // Bounded: 3 attempts x tiny backoff, not a hang.
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_GE(t->stats().retries, 2u);
}

TEST_F(ChaosServerTest, ExplicitCloseIsPermanentNotRetried) {
  auto t = Connect(FastRetryOptions());
  ASSERT_NE(t, nullptr);
  t->Close();
  const auto start = std::chrono::steady_clock::now();
  auto got = t->Get(Sha256::Digest("closed"));
  EXPECT_EQ(got.status().code(), Status::Code::kIOError)
      << got.status().ToString();
  // Fail-fast: an instruction, not a fault — no backoff was spent.
  EXPECT_LT(ElapsedMs(start), 1000);
  EXPECT_EQ(t->stats().retries, 0u);
}

/// Binds 127.0.0.1:ephemeral and returns {fd, port} (same helper shape as
/// net_process_test.cc).
void BindLoopback(int* fd, int* port) {
  *fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(*fd, 0);
  const int one = 1;
  setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(*fd, 64), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(*fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
}

TEST(DeadlineTest, StalledServerMissesDeadlineTypedAndCounted) {
  // A hand-rolled peer that completes the Hello, then goes silent: the
  // next RPC can only end by deadline.
  int listen_fd = -1;
  int port = 0;
  BindLoopback(&listen_fd, &port);
  std::thread stall([listen_fd] {
    const int c = accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    net::FrameDecoder dec;
    char buf[4096];
    std::string payload;
    for (;;) {
      auto next = dec.Next(&payload);
      if (!next.ok()) break;
      if (*next) break;
      const ssize_t n = recv(c, buf, sizeof(buf), 0);
      if (n <= 0) {
        close(c);
        return;
      }
      dec.Append(buf, static_cast<size_t>(n));
    }
    std::string body;
    PutVarint64(&body, net::kWireVersion);
    const std::string resp =
        net::EncodeFrame(net::EncodeHelloResponse(Status::OK(), body));
    (void)send(c, resp.data(), resp.size(), MSG_NOSIGNAL);
    // Swallow everything else without ever answering, until the client
    // hangs up.
    while (recv(c, buf, sizeof(buf), 0) > 0) {
    }
    close(c);
  });

  net::SocketTransport::Options opts;
  opts.rpc_timeout_ms = 150;
  opts.retry.max_attempts = 1;  // surface the miss directly, no retry
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(net::SocketTransport::Connect("127.0.0.1", port, &t, opts).ok());

  const auto start = std::chrono::steady_clock::now();
  auto got = t->Get(Sha256::Digest("stalled"));
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_EQ(got.status().code(), Status::Code::kIOError)
      << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("deadline"), std::string::npos)
      << got.status().ToString();
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 5000);
  EXPECT_EQ(t->stats().deadline_misses, 1u);

  t->Close();  // EOF unblocks the stall thread
  stall.join();
  close(listen_fd);
}

TEST(DeadlineTest, DribblingServerCannotResetTheWholeAttemptDeadline) {
  // The sharper regression: a server that trickles ONE response byte per
  // poll interval. Under a per-poll timeout every poll sees progress and
  // the attempt never ends; rpc_timeout_ms is a *whole-attempt* monotonic
  // budget, so the dribble must still miss it on time.
  int listen_fd = -1;
  int port = 0;
  BindLoopback(&listen_fd, &port);
  std::atomic<bool> stop{false};
  std::thread dribble([listen_fd, &stop] {
    const int c = accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    net::FrameDecoder dec;
    char buf[4096];
    std::string payload;
    // Round 1: complete the Hello honestly.
    auto read_frame = [&]() -> bool {
      for (;;) {
        auto next = dec.Next(&payload);
        if (!next.ok()) return false;
        if (*next) return true;
        const ssize_t n = recv(c, buf, sizeof(buf), 0);
        if (n <= 0) return false;
        dec.Append(buf, static_cast<size_t>(n));
      }
    };
    if (!read_frame()) {
      close(c);
      return;
    }
    std::string body;
    PutVarint64(&body, net::kWireVersion);
    const std::string hello =
        net::EncodeFrame(net::EncodeHelloResponse(Status::OK(), body));
    (void)send(c, hello.data(), hello.size(), MSG_NOSIGNAL);
    // Round 2: read the request, then answer it one byte at a time — a
    // steady trickle of real protocol bytes, never a stall, never an end.
    if (!read_frame()) {
      close(c);
      return;
    }
    net::Request req;
    if (net::DecodeRequest(payload, &req).ok()) {
      const std::string resp = net::EncodeFrame(
          net::EncodeResponse(Status::NotFound("not here"), "", req.corr_id));
      for (size_t i = 0; i < resp.size() && !stop.load(); ++i) {
        if (send(c, resp.data() + i, 1, MSG_NOSIGNAL) != 1) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    close(c);
  });

  net::SocketTransport::Options opts;
  opts.rpc_timeout_ms = 200;
  opts.retry.max_attempts = 1;
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(net::SocketTransport::Connect("127.0.0.1", port, &t, opts).ok());

  const auto start = std::chrono::steady_clock::now();
  auto got = t->Get(Sha256::Digest("dribbled"));
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_EQ(got.status().code(), Status::Code::kIOError)
      << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("deadline"), std::string::npos)
      << got.status().ToString();
  // The response is tens of bytes: at one byte per 25ms a per-poll budget
  // would have let the dribble run for seconds. The whole-attempt budget
  // ends it at ~200ms.
  EXPECT_GE(elapsed, 150);
  EXPECT_LT(elapsed, 2000);
  EXPECT_GE(t->stats().deadline_misses, 1u);

  stop.store(true);
  t->Close();
  dribble.join();
  close(listen_fd);
}

// --- short-write offset boundaries -------------------------------------

TEST_F(ChaosServerTest, ShortWriteAtEveryOffsetBoundaryRecovers) {
  // kShortWrite with a scripted cut offset, swept across the exact frame
  // boundaries: nothing sent, one byte, mid-frame, one byte short, and the
  // full frame (a "short" write that actually delivered everything). Every
  // case must classify, close, replay, and succeed — never spin.
  const std::string payload = "short-write-sweep";
  const Hash h = Sha256::Digest(payload);
  // The Get request frame size is deterministic while corr ids stay
  // 1-byte varints: type | corr | 32-byte hash, framed.
  net::Request probe;
  probe.type = net::MsgType::kGet;
  probe.corr_id = 1;
  probe.hash = h;
  const uint64_t frame_size =
      net::EncodeFrame(net::EncodeRequest(probe)).size();

  const uint64_t offsets[] = {0, 1, frame_size / 2, frame_size - 1,
                              frame_size};
  for (const uint64_t off : offsets) {
    SCOPED_TRACE("cut offset " + std::to_string(off));
    auto fault = std::make_shared<FaultInjector>();
    auto opts = FastRetryOptions();
    opts.fault = fault;
    auto t = Connect(opts);
    ASSERT_NE(t, nullptr);
    auto put = t->Put(payload);
    ASSERT_TRUE(put.ok());

    fault->ScriptNext({FaultKind::kShortWrite, 0, off});
    auto got = t->Get(h);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(**got, payload);
    const auto ts = t->stats();
    EXPECT_GE(ts.retries, 1u);
    EXPECT_GE(ts.reconnects, 1u);
    EXPECT_EQ(fault->stats().injected, 1u);
  }
}

TEST_F(ChaosServerTest, PublishShortWriteOneByteShortIsTornNotExecuted) {
  // Cut one byte before the end: the server never sees a complete frame,
  // so the publish provably did not execute and the replay is the first
  // execution — exactly one commit.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  // Build the index server-side so the publish is the transport's first
  // RPC (corr id 1 → the frame size is computable client-side).
  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root.ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "chaos";
  pub.message = "torn-boundary";
  net::Request probe;
  probe.type = net::MsgType::kPublish;
  probe.corr_id = 1;
  probe.structure = pub.structure;
  probe.branch = pub.branch;
  probe.new_root = pub.new_root;
  probe.author = pub.author;
  probe.message = pub.message;
  const uint64_t frame_size =
      net::EncodeFrame(net::EncodeRequest(probe)).size();

  fault->ScriptNext({FaultKind::kShortWrite, 0, frame_size - 1});
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_GE(t->stats().retries, 1u);
  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 1u);
  EXPECT_EQ(MessageCount(published->head, "torn-boundary"), 1);
  // Exactly one server-side execution: torn frames are replayed, and the
  // replay is the only run.
  const CommitCombiner::Stats cs = servlet_->combiner()->stats();
  EXPECT_EQ(cs.solo_commits + cs.combined_commits + cs.fallbacks, 1u);
}

TEST_F(ChaosServerTest, PublishShortWriteOfFullFrameIsAmbiguousNotReplayed) {
  // Cut *at* the frame size: every byte was delivered before the close, so
  // the server executed the publish and only the ack was lost. The client
  // replays it, and the server must not execute it a second time.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root.ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "chaos";
  pub.message = "delivered-boundary";
  net::Request probe;
  probe.type = net::MsgType::kPublish;
  probe.corr_id = 1;
  probe.structure = pub.structure;
  probe.branch = pub.branch;
  probe.new_root = pub.new_root;
  probe.author = pub.author;
  probe.message = pub.message;
  const uint64_t frame_size =
      net::EncodeFrame(net::EncodeRequest(probe)).size();

  fault->ScriptNext({FaultKind::kShortWrite, 0, frame_size});
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 1u);
  EXPECT_EQ(MessageCount(published->head, "delivered-boundary"), 1);
  // ONE execution: the replay is acked by the server's dedup. A second
  // execution would score 2 here.
  const CommitCombiner::Stats cs = servlet_->combiner()->stats();
  EXPECT_EQ(cs.solo_commits + cs.combined_commits + cs.fallbacks, 1u);
}

// --- pipelining × chaos ------------------------------------------------

TEST_F(ChaosServerTest, PublishLostAckResolvesUnderPipelinedConcurrentTraffic) {
  // The lost-ack replay rerun with the connection pipelined and busy:
  // concurrent readers share the transport before and after the faulted
  // publish, and exactly-once must still hold.
  auto fault = std::make_shared<FaultInjector>();
  auto opts = FastRetryOptions();
  opts.max_inflight = 8;
  opts.fault = fault;
  auto t = Connect(opts);
  ASSERT_NE(t, nullptr);

  constexpr int kThreads = 4;
  constexpr int kGetsPerThread = 16;
  std::vector<Hash> hashes;
  for (int i = 0; i < kGetsPerThread; ++i) {
    const std::string payload = "pipelined-chaos-" + std::to_string(i);
    auto put = t->Put(payload);
    ASSERT_TRUE(put.ok());
    hashes.push_back(*put);
  }
  auto hammer = [&]() {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        for (const Hash& h : hashes) {
          auto got = t->Get(h);
          if (!got.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    return failures.load();
  };
  ASSERT_EQ(hammer(), 0);  // pipelined traffic is healthy pre-fault

  PosTree index(store_);
  auto root1 = index.PutBatch(index.EmptyRoot(), MakeKvs(10));
  ASSERT_TRUE(root1.ok());
  net::PublishRequest first;
  first.structure = "pos";
  first.branch = "main";
  first.new_root = *root1;
  first.author = "chaos";
  first.message = "pipelined-first";
  auto head0 = t->Publish(first);
  ASSERT_TRUE(head0.ok());

  auto root2 = index.PutBatch(*root1, {{"pipelined/second", "v"}});
  ASSERT_TRUE(root2.ok());
  net::PublishRequest second;
  second.structure = "pos";
  second.branch = "main";
  second.new_root = *root2;
  second.author = "chaos";
  second.message = "pipelined-second";
  second.expected_head = head0->head;
  fault->ScriptNext({FaultKind::kResetAfterSend, 0});
  auto published = t->Publish(second);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(fault->stats().resets_after_send, 1u);

  // Exactly-once under pipelining: two commits, each message once.
  EXPECT_EQ(servlet_->branches()->branch_stats("main").commits, 2u);
  EXPECT_EQ(MessageCount(published->head, "pipelined-first"), 1);
  EXPECT_EQ(MessageCount(published->head, "pipelined-second"), 1);

  ASSERT_EQ(hammer(), 0);  // and the channel recovered to full depth
}

// --- in-order per-branch sequencing ------------------------------------

/// Every commit reachable from \p head must carry a sequence strictly
/// greater than each of its parents' — the per-branch in-order invariant
/// the pipelined channel must not break.
void ExpectMonotonicSequences(BranchManager* branches, const Hash& head) {
  std::deque<Hash> frontier{head};
  std::set<std::string> seen{head.ToHex()};
  while (!frontier.empty()) {
    const Hash h = frontier.front();
    frontier.pop_front();
    auto c = branches->ReadCommit(h);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    for (const Hash& p : c->parents) {
      auto parent = branches->ReadCommit(p);
      ASSERT_TRUE(parent.ok()) << parent.status().ToString();
      EXPECT_LT(parent->sequence, c->sequence)
          << "commit " << h.ToHex() << " does not dominate parent "
          << p.ToHex();
      if (seen.insert(p.ToHex()).second) frontier.push_back(p);
    }
  }
}

TEST(ServerDegradationTest, MaxConnectionsRejectIsTypedAndRecovers) {
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  servlet.RegisterIndex(std::make_unique<PosTree>(store));
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.group_flush_window_micros = 0;
  sopts.max_connections = 1;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());

  std::shared_ptr<net::SocketTransport> first;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server.port(), &first).ok());
  ASSERT_TRUE(first->Flush().ok());

  // Over capacity: the reject is a typed ResourceExhausted response, not
  // a bare RST — the client knows to back off, and after its (short)
  // policy it reports the server's own words.
  auto opts = FastRetryOptions();
  opts.retry.max_attempts = 2;
  std::shared_ptr<net::SocketTransport> second;
  const Status rejected =
      net::SocketTransport::Connect("127.0.0.1", server.port(), &second, opts);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_GE(server.stats().overload_rejects, 1u);

  // Capacity freed, the same client gets in (the server notices the close
  // when a worker next receives the connection's hang-up event).
  first->Close();
  Status admitted = Status::Unavailable("never tried");
  const auto start = std::chrono::steady_clock::now();
  while (ElapsedMs(start) < 10000) {
    admitted = net::SocketTransport::Connect("127.0.0.1", server.port(),
                                             &second, opts);
    if (admitted.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(admitted.ok()) << admitted.ToString();
  EXPECT_TRUE(second->Flush().ok());
  server.Stop();
}

TEST(ServerDegradationTest, IdleConnectionsAreReapedAndClientRecovers) {
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  servlet.RegisterIndex(std::make_unique<PosTree>(store));
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.group_flush_window_micros = 0;
  sopts.idle_timeout_ms = 100;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());

  auto opts = FastRetryOptions();
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server.port(), &t, opts).ok());
  auto put = t->Put(std::string(32, 'i'));
  ASSERT_TRUE(put.ok());

  // Go idle past the timeout; the idle sweep a worker runs on its tick
  // reaps the connection.
  const auto start = std::chrono::steady_clock::now();
  while (server.stats().idle_reaped == 0 && ElapsedMs(start) < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(server.stats().idle_reaped, 1u);

  // The reap is invisible to the client: the next RPC reconnects and
  // succeeds (Get is idempotent, so even an ambiguous first attempt on
  // the dead fd is replayed).
  auto got = t->Get(*put);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(t->stats().reconnects, 1u);
  server.Stop();
}

TEST(ServerDegradationTest, DrainPersistsEveryAckedCommit) {
  const std::string base = ::testing::TempDir() + "/siri_chaos_drain_" +
                           std::to_string(getpid());
  const std::string pages = base + "_pages.log";
  const std::string refs = base + "_refs.log";
  std::remove(pages.c_str());
  std::remove(refs.c_str());

  std::vector<Hash> acked_heads;
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(pages, &store).ok());
    ForkbaseServlet servlet(store);
    ASSERT_TRUE(servlet.branches()->AttachRefLog(refs).ok());
    servlet.RegisterIndex(std::make_unique<PosTree>(store));
    net::SiriServer server(&servlet);
    ASSERT_TRUE(server.Listen(0).ok());
    ASSERT_TRUE(server.Start().ok());

    std::shared_ptr<net::SocketTransport> t;
    ASSERT_TRUE(
        net::SocketTransport::Connect("127.0.0.1", server.port(), &t).ok());
    auto client_store = std::make_shared<ForkbaseClientStore>(t, 8 << 20);
    PosTree index(client_store);
    Hash root = index.EmptyRoot();
    std::optional<Hash> expected;
    for (int c = 0; c < 3; ++c) {
      auto next = index.PutBatch(
          root, {{"drain/k" + std::to_string(c), "v" + std::to_string(c)}});
      ASSERT_TRUE(next.ok());
      ASSERT_TRUE(client_store->Flush().ok());
      net::PublishRequest pub;
      pub.structure = "pos";
      pub.branch = "main";
      pub.new_root = *next;
      pub.author = "drainer";
      pub.message = "c" + std::to_string(c);
      pub.expected_head = expected;
      auto published = t->Publish(pub);
      ASSERT_TRUE(published.ok()) << published.status().ToString();
      acked_heads.push_back(published->head);
      expected = published->head;
      root = *next;
    }

    // Graceful drain with the client still connected: the open connection
    // is closed once idle, the store and ref log reach their durability
    // points, and the summary reports what happened.
    const auto summary = server.Drain();
    EXPECT_GE(summary.connections_closed, 1u);
  }  // server, servlet, store all torn down — the files are all that's left

  std::shared_ptr<FileNodeStore> reopened;
  ASSERT_TRUE(FileNodeStore::Open(pages, &reopened).ok());
  BranchManager mgr(reopened);
  ASSERT_TRUE(mgr.AttachRefLog(refs).ok());
  auto head = mgr.Head("main");
  ASSERT_TRUE(head.ok()) << "acked head lost by drain";
  EXPECT_EQ(*head, acked_heads.back());
  auto commit = mgr.ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  PosTree recovered(reopened);
  for (int c = 0; c < 3; ++c) {
    auto got = recovered.Get(commit->root, "drain/k" + std::to_string(c),
                             nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, "v" + std::to_string(c));
  }
  std::remove(pages.c_str());
  std::remove(refs.c_str());
}

TEST(ServerDegradationTest, ReapedAndRedialedConnectionsNeverCrossWires) {
  // The idle sweep closes connections while busy clients keep the workers
  // serving and new connections reuse the freed fd numbers. An event
  // still in flight for a swept connection must be dropped, not served on
  // whichever newer connection now holds its fd: every RPC gets its own
  // bytes back and no frame ever garbles.
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.group_flush_window_micros = 0;
  sopts.idle_timeout_ms = 50;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> wrong{0};
  // One Put and one Get of a page unique to (client, step); false when
  // either RPC failed or answered with anything but that page's bytes.
  auto round_trip = [](net::SocketTransport* t, const std::string& page) {
    auto put = t->Put(page);
    if (!put.ok() || *put != Sha256::Digest(page)) return false;
    auto got = t->Get(*put);
    return got.ok() && **got == page;
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::shared_ptr<net::SocketTransport> t;
      if (!net::SocketTransport::Connect("127.0.0.1", server.port(), &t,
                                         FastRetryOptions())
               .ok()) {
        wrong.fetch_add(1);
        return;
      }
      for (int i = 0; i < 150; ++i) {
        const std::string page = "busy" + std::to_string(c) + "/" +
                                 std::to_string(i) + std::string(40, 'b');
        if (!round_trip(t.get(), page)) wrong.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 6; ++r) {
        std::shared_ptr<net::SocketTransport> t;
        if (!net::SocketTransport::Connect("127.0.0.1", server.port(), &t,
                                           FastRetryOptions())
                 .ok()) {
          wrong.fetch_add(1);
          continue;
        }
        const std::string tag =
            "idle" + std::to_string(c) + "/" + std::to_string(r);
        if (!round_trip(t.get(), tag + "/first")) wrong.fetch_add(1);
        // Idle for 30–155 ms: some rounds wake just as the sweep reaps
        // the connection, the rest long after; the next RPC redials.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(30 + 25 * ((r + c) % 6)));
        if (!round_trip(t.get(), tag + "/after-idle")) wrong.fetch_add(1);
        t->Close();
      }
    });
  }
  for (auto& th : clients) th.join();

  EXPECT_EQ(wrong.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_GE(stats.idle_reaped, 1u);
  EXPECT_GE(stats.connections, 3u + 2u * 6u);
  server.Stop();
}

TEST(ServerDegradationTest, StaleEventOfAReapedConnectionNeverServesItsFdHeir) {
  // Pins the window the churn test above can only hope to hit: a worker
  // holds connection A's event between epoll_wait and its claim while A is
  // reaped and a new connection B takes A's fd number. The held event must
  // be dropped. B is answered through its own event only, so nothing may
  // reach B while that event is still held.
  auto store = NewInMemoryNodeStore();
  const std::string page = "the page B asks for";
  const Hash page_hash = store->Put(page);
  ForkbaseServlet servlet(store);
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.group_flush_window_micros = 0;
  net::SiriServer server(&servlet, sopts);
  net::SiriServerTestPeer peer(&server);

  // The first two connection events park their workers until released.
  std::mutex mu;
  std::condition_variable cv;
  int events = 0;
  int released = 0;
  peer.SetEventHook([&] {
    std::unique_lock<std::mutex> lock(mu);
    const int mine = ++events;
    cv.notify_all();
    cv.wait(lock, [&] { return mine > 2 || released >= mine; });
  });
  auto await_events = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return events >= n; });
  };
  auto release = [&](int n) {
    std::lock_guard<std::mutex> lock(mu);
    released = n;
    cv.notify_all();
  };
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  net::Request hello;
  hello.type = net::MsgType::kHello;
  const std::string hello_frame =
      net::EncodeFrame(net::EncodeRequest(hello));

  const int a = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_EQ(connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(send(a, hello_frame.data(), hello_frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello_frame.size()));
  ASSERT_TRUE(await_events(1)) << "no worker received A's event";
  const std::vector<int> a_fds = peer.ConnectionFds();
  ASSERT_EQ(a_fds.size(), 1u);

  // B's client end is made before the reap, so the server's accept is
  // what takes A's freed fd number.
  const int b = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  peer.ReapUnclaimed();
  ASSERT_TRUE(peer.ConnectionFds().empty());
  ASSERT_EQ(connect(b, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<int> b_fds;
  for (int i = 0; i < 500 && b_fds.empty(); ++i) {
    b_fds = peer.ConnectionFds();
    if (b_fds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(b_fds, a_fds) << "B did not inherit A's fd number";

  net::Request get;
  get.type = net::MsgType::kGet;
  get.corr_id = 1;
  get.hash = page_hash;
  const std::string b_frames =
      hello_frame + net::EncodeFrame(net::EncodeRequest(get));
  ASSERT_EQ(send(b, b_frames.data(), b_frames.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(b_frames.size()));
  ASSERT_TRUE(await_events(2)) << "no worker received B's event";

  release(1);  // A's stale event goes on to the claim
  pollfd pfd{b, POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, 300), 0)
      << "A's stale event served B, the connection that reused its fd";

  release(2);  // B's own event: B's answers arrive now
  timeval tv{};
  tv.tv_sec = 5;
  (void)setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  net::FrameDecoder dec;
  std::vector<std::string> payloads;
  char buf[4096];
  while (payloads.size() < 2) {
    std::string payload;
    auto next = dec.Next(&payload);
    ASSERT_TRUE(next.ok());
    if (*next) {
      payloads.push_back(std::move(payload));
      continue;
    }
    const ssize_t n = recv(b, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "B's answers never arrived";
    dec.Append(buf, static_cast<size_t>(n));
  }
  Status app;
  std::string body;
  ASSERT_TRUE(net::DecodeHelloResponse(payloads[0], &app, &body).ok());
  EXPECT_TRUE(app.ok()) << app.ToString();
  uint64_t corr = 0;
  ASSERT_TRUE(net::DecodeResponse(payloads[1], &app, &body, &corr).ok());
  EXPECT_TRUE(app.ok()) << app.ToString();
  EXPECT_EQ(corr, 1u);
  EXPECT_EQ(body, page);
  EXPECT_EQ(server.stats().frame_errors, 0u);

  close(a);
  close(b);
  server.Stop();
}

TEST(ServerDegradationTest, ParkedPublishDoesNotHoldUpOtherConnections) {
  // Workers serve connections inline: while one worker waits out a
  // publish's group-flush window, another keeps answering a second
  // connection's reads.
  const std::string base = ::testing::TempDir() + "/siri_chaos_hol_" +
                           std::to_string(getpid());
  const std::string pages = base + "_pages.log";
  std::remove(pages.c_str());
  {
    std::shared_ptr<FileNodeStore> store;
    ASSERT_TRUE(FileNodeStore::Open(pages, &store).ok());
    ForkbaseServlet servlet(store);
    servlet.RegisterIndex(std::make_unique<PosTree>(store));
    net::ServerOptions sopts;
    sopts.worker_threads = 2;
    sopts.group_flush_window_micros = 600 * 1000;
    net::SiriServer server(&servlet, sopts);
    ASSERT_TRUE(server.Listen(0).ok());
    ASSERT_TRUE(server.Start().ok());

    std::shared_ptr<net::SocketTransport> reader;
    ASSERT_TRUE(
        net::SocketTransport::Connect("127.0.0.1", server.port(), &reader)
            .ok());
    const std::string page(64, 'r');
    auto put = reader->Put(page);
    ASSERT_TRUE(put.ok());

    std::shared_ptr<net::SocketTransport> writer;
    ASSERT_TRUE(
        net::SocketTransport::Connect("127.0.0.1", server.port(), &writer)
            .ok());
    auto client_store = std::make_shared<ForkbaseClientStore>(writer, 8 << 20);
    PosTree index(client_store);
    auto root = index.PutBatch(index.EmptyRoot(), {{"hol/k", "v"}});
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(client_store->Flush().ok());

    std::atomic<bool> published{false};
    std::thread publisher([&] {
      net::PublishRequest pub;
      pub.structure = "pos";
      pub.branch = "main";
      pub.new_root = *root;
      pub.author = "hol";
      pub.message = "parked";
      auto landed = writer->Publish(pub);
      EXPECT_TRUE(landed.ok()) << landed.status().ToString();
      published.store(true);
    });
    // Let the publish reach the server and park in the flush window.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) {
      auto got = reader->Get(*put);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(**got, page);
    }
    EXPECT_FALSE(published.load())
        << "reads waited for the parked publish on another connection";
    EXPECT_LT(ElapsedMs(start), 300);
    publisher.join();
    server.Stop();
  }
  std::remove(pages.c_str());
}

TEST(ServerDegradationTest, DrainWithAnIdleConnectionReturnsPromptly) {
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  net::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.group_flush_window_micros = 0;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server.port(), &t).ok());
  ASSERT_TRUE(t->Put(std::string(32, 'd')).ok());

  // The connection sits idle in the epoll set: the drain closes it at
  // once instead of waiting for traffic or a timeout.
  const auto start = std::chrono::steady_clock::now();
  const auto summary = server.Drain();
  EXPECT_LT(ElapsedMs(start), 500);
  EXPECT_EQ(summary.connections_closed, 1u);
}

TEST(ServerDegradationTest, StopWithNoConnectionsJoinsPromptly) {
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  net::ServerOptions sopts;
  sopts.worker_threads = 4;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  // Every worker is asleep in epoll_wait; Stop must wake them all.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(ElapsedMs(start), 250);
}

// --- forked chaos stress -----------------------------------------------

/// Scaled up by the chaos-labeled ctest entry (SIRI_CHAOS=1); the default
/// suite runs the small shape.
bool ChaosHeavy() {
  const char* e = std::getenv("SIRI_CHAOS");
  return e != nullptr && e[0] == '1';
}

/// One forked client committing through a seeded random fault stream.
/// Exit codes identify the failing step; exit 17 = a publish blew the
/// latency bound (the "bounded latency" invariant).
void RunChaosClient(int port, int id, int commits, double fault_rate) {
  FaultInjector::RandomConfig cfg;
  cfg.fault_rate = fault_rate;
  cfg.delay_micros = 1000;
  net::SocketTransport::Options topts;
  topts.connect_retry_ms = 10000;
  topts.rpc_timeout_ms = 10000;
  topts.retry.max_attempts = 10;
  topts.retry.backoff_init_ms = 2;
  topts.retry.backoff_max_ms = 50;
  topts.retry.jitter_seed = 0x1000u + static_cast<uint64_t>(id);
  topts.fault =
      std::make_shared<FaultInjector>(0x2000u + static_cast<uint64_t>(id), cfg);
  std::shared_ptr<net::SocketTransport> t;
  if (!net::SocketTransport::Connect("127.0.0.1", port, &t, topts).ok()) {
    _exit(10);
  }
  auto client_store = std::make_shared<ForkbaseClientStore>(t, 8 << 20);
  PosTree index(client_store);
  for (int c = 0; c < commits; ++c) {
    const auto started = std::chrono::steady_clock::now();
    Hash base = index.EmptyRoot();
    std::optional<Hash> expected;
    auto head = t->Head("main");
    if (head.ok()) {
      auto node = client_store->Get(*head);
      if (!node.ok()) _exit(16);
      auto commit = Commit::Decode(**node);
      if (!commit.ok()) _exit(11);
      base = commit->root;
      expected = *head;
    } else if (!head.status().IsNotFound()) {
      _exit(12);
    }
    const std::string key =
        "chaos" + std::to_string(id) + "/k" + std::to_string(c);
    auto root = index.PutBatch(base, {{key, "v" + std::to_string(c)}});
    if (!root.ok()) _exit(13);
    if (!client_store->Flush().ok()) _exit(14);
    net::PublishRequest pub;
    pub.structure = "pos";
    pub.branch = "main";
    pub.new_root = *root;
    pub.author = "chaos" + std::to_string(id);
    pub.message = key;
    pub.expected_head = expected;
    auto published = t->Publish(pub);
    if (!published.ok()) _exit(15);
    if (ElapsedMs(started) > 30000) _exit(17);
  }
  _exit(0);
}

TEST(ChaosProcessTest, ForkedClientsCommitThroughRandomFaults) {
  const int kClients = ChaosHeavy() ? 4 : 2;
  const int kCommitsEach = ChaosHeavy() ? 10 : 4;
  const double kFaultRate = ChaosHeavy() ? 0.15 : 0.08;

  int listen_fd = -1;
  int port = 0;
  BindLoopback(&listen_fd, &port);

  // Fork the clients BEFORE the parent spawns server threads (same rule
  // as net_process_test.cc: fork in a multithreaded parent only
  // reproduces the forking thread).
  std::vector<pid_t> pids;
  for (int id = 0; id < kClients; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(listen_fd);
      RunChaosClient(port, id, kCommitsEach, kFaultRate);
    }
    pids.push_back(pid);
  }

  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  servlet.RegisterIndex(std::make_unique<PosTree>(store));
  net::SiriServer server(&servlet);
  ASSERT_TRUE(server.AdoptListener(listen_fd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "chaos client failed";
  }

  // Invariant 1 — zero lost acked updates: every client exited 0, so
  // every one of its publishes was acked; every acked key must be in the
  // final version.
  auto head = servlet.branches()->Head("main");
  ASSERT_TRUE(head.ok());
  auto commit = servlet.branches()->ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  PosTree index(store);
  for (int id = 0; id < kClients; ++id) {
    for (int c = 0; c < kCommitsEach; ++c) {
      const std::string key =
          "chaos" + std::to_string(id) + "/k" + std::to_string(c);
      auto got = index.Get(commit->root, key, nullptr);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->has_value()) << "lost acked update: " << key;
    }
  }

  // Invariant 2 — zero duplicated commits: each acked publish executed on
  // the server exactly once. A lost-ack replay that double-applied would
  // push the combiner's executed-publish count past the acked count; a
  // wrongly-suppressed replay would fall short (and show up above as a
  // lost update).
  const uint64_t acked = static_cast<uint64_t>(kClients * kCommitsEach);
  const CommitCombiner::Stats cs = servlet.combiner()->stats();
  EXPECT_EQ(cs.solo_commits + cs.combined_commits + cs.fallbacks, acked);

  // Invariant 3 — in-order per-branch sequencing: every commit dominates
  // its parents.
  ExpectMonotonicSequences(servlet.branches(), *head);
  server.Stop();
}

/// The pipelined variant of RunChaosClient: one forked process, ONE
/// transport with max_inflight depth, and two threads committing through
/// it concurrently against the same seeded random fault stream. Exit
/// codes match RunChaosClient's.
void RunPipelinedChaosClient(int port, int id, int commits_per_thread,
                             double fault_rate) {
  FaultInjector::RandomConfig cfg;
  cfg.fault_rate = fault_rate;
  cfg.delay_micros = 1000;
  net::SocketTransport::Options topts;
  topts.connect_retry_ms = 10000;
  topts.rpc_timeout_ms = 10000;
  topts.max_inflight = 8;
  topts.retry.max_attempts = 10;
  topts.retry.backoff_init_ms = 2;
  topts.retry.backoff_max_ms = 50;
  topts.retry.jitter_seed = 0x3000u + static_cast<uint64_t>(id);
  topts.fault =
      std::make_shared<FaultInjector>(0x4000u + static_cast<uint64_t>(id), cfg);
  std::shared_ptr<net::SocketTransport> t;
  if (!net::SocketTransport::Connect("127.0.0.1", port, &t, topts).ok()) {
    _exit(10);
  }
  auto client_store = std::make_shared<ForkbaseClientStore>(t, 8 << 20);
  std::atomic<int> first_error{0};
  auto fail = [&first_error](int code) {
    int expected = 0;
    first_error.compare_exchange_strong(expected, code);
  };
  auto worker = [&](int tid) {
    PosTree index(client_store);
    for (int c = 0; c < commits_per_thread && first_error.load() == 0; ++c) {
      const auto started = std::chrono::steady_clock::now();
      Hash base = index.EmptyRoot();
      std::optional<Hash> expected;
      auto head = t->Head("main");
      if (head.ok()) {
        auto node = client_store->Get(*head);
        if (!node.ok()) return fail(16);
        auto commit = Commit::Decode(**node);
        if (!commit.ok()) return fail(11);
        base = commit->root;
        expected = *head;
      } else if (!head.status().IsNotFound()) {
        return fail(12);
      }
      const std::string key = "chaos" + std::to_string(id) + "t" +
                              std::to_string(tid) + "/k" + std::to_string(c);
      auto root = index.PutBatch(base, {{key, "v" + std::to_string(c)}});
      if (!root.ok()) return fail(13);
      if (!client_store->Flush().ok()) return fail(14);
      net::PublishRequest pub;
      pub.structure = "pos";
      pub.branch = "main";
      pub.new_root = *root;
      pub.author = "chaos" + std::to_string(id);
      pub.message = key;
      pub.expected_head = expected;
      auto published = t->Publish(pub);
      if (!published.ok()) return fail(15);
      if (ElapsedMs(started) > 30000) return fail(17);
    }
  };
  std::thread a(worker, 0), b(worker, 1);
  a.join();
  b.join();
  _exit(first_error.load());
}

TEST(ChaosProcessTest, ForkedPipelinedClientsCommitThroughRandomFaults) {
  // Satellite: the random-fault stress rerun with max_inflight > 1 and
  // intra-process concurrency on the shared connection. Same three
  // invariants — zero lost, zero duplicated, bounded — plus per-branch
  // sequence monotonicity.
  const int kClients = ChaosHeavy() ? 3 : 2;
  const int kCommitsPerThread = ChaosHeavy() ? 6 : 3;
  const double kFaultRate = ChaosHeavy() ? 0.12 : 0.06;
  constexpr int kThreadsPerClient = 2;

  int listen_fd = -1;
  int port = 0;
  BindLoopback(&listen_fd, &port);

  std::vector<pid_t> pids;
  for (int id = 0; id < kClients; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(listen_fd);
      RunPipelinedChaosClient(port, id, kCommitsPerThread, kFaultRate);
    }
    pids.push_back(pid);
  }

  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  servlet.RegisterIndex(std::make_unique<PosTree>(store));
  net::SiriServer server(&servlet);
  ASSERT_TRUE(server.AdoptListener(listen_fd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "pipelined chaos client failed";
  }

  auto head = servlet.branches()->Head("main");
  ASSERT_TRUE(head.ok());
  auto commit = servlet.branches()->ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  PosTree index(store);
  for (int id = 0; id < kClients; ++id) {
    for (int tid = 0; tid < kThreadsPerClient; ++tid) {
      for (int c = 0; c < kCommitsPerThread; ++c) {
        const std::string key = "chaos" + std::to_string(id) + "t" +
                                std::to_string(tid) + "/k" + std::to_string(c);
        auto got = index.Get(commit->root, key, nullptr);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->has_value()) << "lost acked update: " << key;
      }
    }
  }

  const uint64_t acked =
      static_cast<uint64_t>(kClients * kThreadsPerClient * kCommitsPerThread);
  const CommitCombiner::Stats cs = servlet.combiner()->stats();
  EXPECT_EQ(cs.solo_commits + cs.combined_commits + cs.fallbacks, acked);
  ExpectMonotonicSequences(servlet.branches(), *head);
  server.Stop();
}

}  // namespace
}  // namespace siri
