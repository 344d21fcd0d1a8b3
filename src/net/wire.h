// Copyright (c) 2026 The siri Authors. MIT license.
//
// Wire protocol for the client/server boundary: the RPC surface
// ForkbaseClientStore uses (node Get/Contains/SizeOf, the one-round-trip
// lookup path GetPath, Put, the batched PutMany upload, branch
// head/publish/stats), serialized as one framed message per request and
// per response.
//
// Frame = the digest-verified record format both append-only logs already
// use (common/record_io.h): `varint payload-len | 32-byte SHA-256(payload)
// | payload`. The sender digests the payload it frames; the receiver
// re-digests and drops the connection on mismatch, so a flipped bit
// anywhere in transit surfaces as a typed Corruption instead of a
// misparsed message. FrameDecoder reuses ReadDigestRecord/GetVarint64 for
// the bounds logic (a corrupt varint can decode to a length near
// UINT64_MAX; the wrap-safe check lives in record_io.h, not here).
//
// Payload = `u8 message-type | type-specific body`, built from the same
// varint / length-prefixed primitives as the node codecs. Responses carry
// a status code + message first, then a body the requester interprets by
// the type of the call it made.
//
// Pipelining. Every non-Hello request carries a varint correlation id
// right after the type byte, and every non-Hello response echoes it, so a
// client may keep several requests in flight on one connection and match
// responses out of band (the server answers in order; the ids make
// abandoning one RPC, e.g. on a deadline miss, safe without
// desynchronizing the stream).
//
// Version handshake. A connection opens with a Hello carrying the
// client's kWireVersion. The Hello exchange has no correlation id in
// either direction — that fixed layout is what lets any build, older or
// newer, read a peer's version. A server answers a matching version with
// its own version as a varint body; any other version gets a typed
// InvalidArgument ("wire version mismatch ...") and the connection closes.

#ifndef SIRI_NET_WIRE_H_
#define SIRI_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/record_io.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "store/node_store.h"
#include "version/commit.h"

namespace siri {
namespace net {

/// The one protocol version this build speaks: per-frame correlation ids
/// (request pipelining) and the combiner-aware cache push on Publish
/// acks. A Hello advertising anything else is rejected, typed.
constexpr uint32_t kWireVersion = 2;

/// Frames larger than this are rejected as corrupt before any allocation:
/// an honest PutMany of a staged commit is a few MB, so a length beyond
/// this bound is a garbled varint or a hostile peer, not a real message.
constexpr uint64_t kDefaultMaxFrameBytes = 64ull << 20;

enum class MsgType : uint8_t {
  kHello = 1,      ///< version handshake, first message on a connection
  kGet = 2,        ///< body: hash
  kContains = 3,   ///< body: hash
  kSizeOf = 4,     ///< body: hash
  kPut = 5,        ///< body: length-prefixed node bytes
  kPutMany = 6,    ///< body: varint count, then (hash | lp bytes) each
  kFlush = 7,      ///< empty body
  kHead = 8,       ///< body: length-prefixed branch name
  kPublish = 9,    ///< body: see EncodeRequest
  kBranchStats = 10,    ///< body: length-prefixed branch name
  kStoreStats = 11,     ///< empty body
  kResetCounters = 12,  ///< empty body
  kListBranches = 13,   ///< empty body
  /// body: lp structure | root hash | lp key | varint skip. Reply body:
  /// varint count | lp node bytes each — the lookup path of key under
  /// root (the registered index's GetProof nodes), minus its first
  /// `skip` nodes. No digests: the client computes them.
  kGetPath = 14,
  kResponse = 64,  ///< body: u8 status code | lp message | result body
};

/// One decoded request, fields populated per `type` (see MsgType).
struct Request {
  MsgType type = MsgType::kHello;
  uint32_t version = kWireVersion;       ///< kHello
  /// Pipelining correlation id (every type but kHello): echoed on the
  /// response so a client with several RPCs in flight matches them up.
  uint64_t corr_id = 0;
  /// kGet / kContains / kSizeOf: the node; kGetPath: the version root.
  Hash hash;
  std::string bytes;                     ///< kPut node payload
  NodeBatch batch;                       ///< kPutMany
  std::string branch;                    ///< kHead / kBranchStats / kPublish
  std::string structure;  ///< kPublish / kGetPath: server-side index name
  std::string key;                       ///< kGetPath: the looked-up key
  uint64_t skip = 0;  ///< kGetPath: path nodes the client already holds
  Hash new_root;                         ///< kPublish
  std::string author;                    ///< kPublish
  std::string message;                   ///< kPublish
  std::optional<Hash> expected_head;     ///< kPublish
  /// kPublish: client asks the server to attach the publish's staged
  /// batch to the ack (combiner-aware cache push).
  bool want_push = false;                ///< kPublish
};

/// Serializes \p req into a frame payload (not yet framed).
std::string EncodeRequest(const Request& req);

/// Parses a frame payload into \p out. Corruption on anything that does
/// not decode exactly (unknown type, short body, trailing garbage) — the
/// connection that produced it must be dropped.
[[nodiscard]] Status DecodeRequest(Slice payload, Request* out);

/// Serializes a response payload: \p app is the application-level outcome
/// (shipped as code + message), \p body the type-specific result bytes
/// (empty on error), \p corr_id echoed from the request.
std::string EncodeResponse(const Status& app, Slice body,
                           uint64_t corr_id = 0);

/// Parses a response payload. The returned Status is the *protocol*
/// outcome (Corruption = drop the connection); \p app receives the
/// application-level status, \p body the result bytes, \p corr_id the
/// echoed correlation id (when non-null).
[[nodiscard]] Status DecodeResponse(Slice payload, Status* app,
                                    std::string* body,
                                    uint64_t* corr_id = nullptr);

/// The response layout without a correlation id: the answer to a Hello,
/// and any reject a server sends before the Hello completed.
std::string EncodeHelloResponse(const Status& app, Slice body);
[[nodiscard]] Status DecodeHelloResponse(Slice payload, Status* app,
                                         std::string* body);

/// Rebuilds a Status from a wire code + message (unknown codes map to
/// IOError so a skewed peer cannot smuggle an OK).
Status StatusFromWire(uint8_t code, std::string message);

/// Message prefix on the Corruption response a server sends when a
/// *request frame* could not be decoded (garbled length, digest mismatch,
/// undecodable payload): the request was never executed. No id could be
/// read, so the reject carries correlation id 0 (the id-less Hello form
/// before the Hello completed), and the server drops the connection after
/// it. Server-side storage corruption surfaced by an
/// executed request never carries this prefix.
constexpr const char kBadFramePrefix[] = "bad frame: ";

/// True when \p s is a server-side reject of an undecodable request frame
/// (see kBadFramePrefix): the request was not executed.
bool IsBadFrameReject(const Status& s);

/// Message prefix on the typed reject a *degraded* (read-only) server
/// answers write requests with after its store latched a sticky disk
/// error (ENOSPC -> ResourceExhausted, other I/O failures ->
/// Unavailable; the rest of the message is the sticky cause). The prefix
/// lets the client's retry layer tell a persistent degraded-store reject
/// (fail fast to the caller — retrying cannot help until an operator
/// intervenes) from a transient overload shed (back off and retry).
constexpr const char kDegradedPrefix[] = "store degraded (read-only): ";

/// True when \p s is a degraded-store write reject (see kDegradedPrefix).
bool IsDegradedReject(const Status& s);

// --- type-specific response bodies -----------------------------------

void PutHash(std::string* dst, const Hash& h);
[[nodiscard]] bool GetHash(Slice* in, Hash* h);

/// What a publish RPC returns (mirrors MergeCommitResult). The body may
/// carry `pushed` — the publish's staged batch (merged index
/// pages, content commits, the combined commit), size-capped server-side —
/// which is exactly the node set a losing committer re-reads next round;
/// the client write-allocates it into its NodeCache instead of paying
/// per-node Get round trips (the combiner-aware cache push).
struct WirePublishResult {
  Hash head;    ///< branch head after the publish
  Hash commit;  ///< the author's content commit
  uint64_t cas_failures = 0;
  uint64_t merge_commits = 0;
  NodeBatch pushed;  ///< cache push (empty when push is off)
};

std::string EncodePublishResultBody(const WirePublishResult& r);
[[nodiscard]] Status DecodePublishResultBody(Slice body,
                                             WirePublishResult* r);

std::string EncodeBranchStatsBody(const BranchStats& s);
[[nodiscard]] Status DecodeBranchStatsBody(Slice body, BranchStats* s);

std::string EncodeStoreStatsBody(const NodeStore::Stats& s);
[[nodiscard]] Status DecodeStoreStatsBody(Slice body, NodeStore::Stats* s);

/// The kGetPath reply: root-to-leaf path nodes, in path order.
std::string EncodePathBody(const std::vector<std::string>& nodes);
/// Decodes each node straight into its own shared buffer (the pages the
/// client caches). A count larger than the bytes left is rejected before
/// anything is reserved.
[[nodiscard]] Status DecodePathBody(
    Slice body, std::vector<std::shared_ptr<const std::string>>* nodes);

std::string EncodeStringListBody(const std::vector<std::string>& v);
[[nodiscard]] Status DecodeStringListBody(Slice body,
                                          std::vector<std::string>* v);

// --- framing ----------------------------------------------------------

/// Wraps a payload in the record_io frame: varint len | sha256 | payload.
std::string EncodeFrame(Slice payload);

/// \brief Incremental frame reassembly over a byte stream.
///
/// Append() buffers whatever the socket produced; Next() extracts the
/// next complete, digest-verified payload. The three outcomes are kept
/// distinct because they demand different connection handling:
///   - ok(true): a verified payload was extracted;
///   - ok(false): the buffered bytes frame no complete record yet — read
///     more (a peer that hangs up here simply tore its last frame);
///   - error (Corruption): the stream can never resynchronize — a frame
///     length exceeding max_frame_bytes, a malformed length varint, or a
///     payload whose digest does not match. Drop the connection.
///
/// Not thread-safe; each connection owns one decoder.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint64_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t n) { buf_.append(data, n); }

  [[nodiscard]] Result<bool> Next(std::string* payload);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered() const { return buf_.size() - off_; }

 private:
  uint64_t max_frame_bytes_;
  std::string buf_;
  size_t off_ = 0;  // consumed prefix of buf_, compacted lazily
};

}  // namespace net
}  // namespace siri

#endif  // SIRI_NET_WIRE_H_
