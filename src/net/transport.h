// Copyright (c) 2026 The siri Authors. MIT license.
//
// Transport — the client/server boundary as an interface. It is exactly
// the RPC surface ForkbaseClientStore always used against the in-process
// ForkbaseServlet (node Get/Contains/SizeOf, Put, the batched PutMany
// upload, branch head/publish/stats), extracted so the same client code
// runs over two implementations:
//
//   InProcessTransport — the servlet lives in this address space; calls
//     forward directly and a *simulated* round trip (busy-wait or sleep,
//     the RTT models the benches always charged) stands in for the wire.
//     This preserves the embedded deployment and every existing test and
//     bench semantic, including the 1-upload-RPC-per-commit accounting.
//
//   SocketTransport (net/socket_transport.h) — the servlet lives in a
//     siri-server process; calls serialize through net/wire.h and the
//     cost is *measured* (real bytes, real syscalls), not simulated.
//
// Every transport counts rpcs/bytes/syscalls so benches can report
// measured socket cost next to — never silently comparable with — the
// slept-RTT in-process numbers.

#ifndef SIRI_NET_TRANSPORT_H_
#define SIRI_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/hash.h"
#include "store/node_store.h"
#include "version/commit.h"

namespace siri {

class ForkbaseServlet;

/// How the simulated round trip is charged on a remote access
/// (InProcessTransport only; a socket pays real round trips).
enum class RttModel {
  kBusyWait,  ///< burn the core — accurate single-client cost accounting
  kSleep,     ///< yield the core — round trips of concurrent clients overlap
};

namespace net {

/// One commit publish: everything the server needs to land new_root on
/// branch through its group-commit combiner, merging through the
/// server-side index registered under `structure`.
struct PublishRequest {
  std::string structure;  ///< index name ("pos", "mbt", ...) to merge with
  std::string branch;
  Hash new_root;
  std::string author;
  std::string message;
  std::optional<Hash> expected_head;  ///< head the committer built on
};

/// What a publish returned (MergeCommitResult across the boundary).
struct PublishResult {
  Hash head;    ///< branch head containing the commit
  Hash commit;  ///< the author's content commit
  uint64_t cas_failures = 0;
  uint64_t merge_commits = 0;
};

/// \brief The client/server boundary. Thread-safe: one transport may be
/// shared by every reader/writer thread of a client process.
class Transport {
 public:
  /// Cost accounting, for bench honesty: in-process transports count rpcs
  /// only (nothing is serialized, no syscalls happen); a socket transport
  /// measures real bytes and send/recv syscalls.
  struct Stats {
    uint64_t rpcs = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t syscalls = 0;  ///< send+recv calls issued
    // Resilience counters (socket transports only; an in-process call has
    // nothing to retry). Zero on a healthy wire, so any nonzero value in a
    // bench report is a flag that faults shaped the numbers.
    uint64_t retries = 0;          ///< wire attempts beyond the first, per RPC
    uint64_t reconnects = 0;       ///< re-dial + fresh handshake cycles
    uint64_t deadline_misses = 0;  ///< attempts abandoned at the RPC deadline
    // Combiner-aware cache push (socket transports, opt-in):
    // nodes a Publish ack carried back and the push sink accepted — each
    // one a Get round trip a losing committer no longer pays.
    uint64_t pushed_nodes = 0;
    uint64_t pushed_bytes = 0;
  };

  /// Consumer of publish-ack cache pushes: receives digest-verified node
  /// batches the server attached to Publish responses. Transports without
  /// a push path (in-process: the cache already shares the address space)
  /// ignore the sink.
  using PushSink = std::function<void(const NodeBatch&)>;

  virtual ~Transport() = default;

  // --- node store surface ---------------------------------------------
  virtual Result<std::shared_ptr<const std::string>> Get(const Hash& h) = 0;
  virtual Result<bool> Contains(const Hash& h) = 0;
  virtual Result<uint64_t> SizeOf(const Hash& h) = 0;
  /// A point lookup's path in one round trip: the nodes the \p structure
  /// index visits looking \p key up under \p root, in path order, minus
  /// the first \p skip. The nodes come back unverified — the caller
  /// re-digests each and follows its own digests from the root. Default:
  /// NotSupported, and the caller walks the path one Get per node.
  virtual Result<std::vector<std::shared_ptr<const std::string>>> GetPath(
      const std::string& structure, const Hash& root, Slice key,
      uint64_t skip) {
    (void)structure, (void)root, (void)key, (void)skip;
    return Status::NotSupported("transport has no GetPath");
  }
  virtual Result<Hash> Put(Slice bytes) = 0;
  /// The chunk-upload call: a whole staged commit in one round trip.
  [[nodiscard]] virtual Status PutMany(const NodeBatch& batch) = 0;
  [[nodiscard]] virtual Status Flush() = 0;
  virtual Result<NodeStore::Stats> StoreStats() = 0;
  [[nodiscard]] virtual Status ResetServerOpCounters() = 0;

  // --- branch surface -------------------------------------------------
  virtual Result<Hash> Head(const std::string& branch) = 0;
  virtual Result<PublishResult> Publish(const PublishRequest& req) = 0;
  virtual Result<BranchStats> GetBranchStats(const std::string& branch) = 0;
  virtual Result<std::vector<std::string>> ListBranches() = 0;

  virtual Stats stats() const = 0;

  /// Installs (or, with an empty function, uninstalls) the cache-push
  /// sink. Default: no-op — only transports with a real wire have
  /// something to push.
  virtual void SetPushSink(PushSink sink) { (void)sink; }
};

/// \brief Transport over a servlet in this address space.
///
/// Forwards every call directly (Get returns the servlet's shared bytes
/// without a copy) and charges the configured simulated round trip first,
/// exactly where ForkbaseClientStore used to charge it: Put, non-empty
/// PutMany, Get, Contains, SizeOf. Publishes route through the servlet's
/// group-commit combiner via the server-side index registry.
class InProcessTransport : public Transport {
 public:
  /// \param rtt_nanos simulated per-RPC round-trip cost (0 = count only),
  ///        charged per \p rtt_model so throughput numbers include it.
  explicit InProcessTransport(ForkbaseServlet* servlet, uint64_t rtt_nanos = 0,
                              RttModel rtt_model = RttModel::kBusyWait);

  Result<std::shared_ptr<const std::string>> Get(const Hash& h) override;
  Result<bool> Contains(const Hash& h) override;
  Result<uint64_t> SizeOf(const Hash& h) override;
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

  ForkbaseServlet* servlet() { return servlet_; }

 private:
  void ChargeRoundTrip() const;

  ForkbaseServlet* servlet_;
  uint64_t rtt_nanos_;
  RttModel rtt_model_;
  mutable std::atomic<uint64_t> rpcs_{0};
};

}  // namespace net
}  // namespace siri

#endif  // SIRI_NET_TRANSPORT_H_
