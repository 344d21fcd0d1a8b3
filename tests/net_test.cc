// Copyright (c) 2026 The siri Authors. MIT license.
//
// Wire protocol and client/server boundary: codec round-trips, frame
// decoder hardening against malformed input (truncated, oversized,
// bit-flipped, garbled — the server must never crash on a hostile or
// broken peer), and the SiriServer + SocketTransport loopback path
// end-to-end against a real ForkbaseServlet.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "crypto/sha256.h"
#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "tests/test_util.h"

namespace siri {
namespace {

using net::FrameDecoder;
using net::MsgType;
using net::Request;
using testing_util::MakeKvs;

// --- request codec round-trips ---------------------------------------

Request RoundTrip(const Request& in) {
  const std::string payload = net::EncodeRequest(in);
  Request out;
  EXPECT_TRUE(net::DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.type, in.type);
  return out;
}

TEST(WireCodecTest, HelloRoundTrips) {
  Request in;
  in.type = MsgType::kHello;
  in.version = 7;
  EXPECT_EQ(RoundTrip(in).version, 7u);
}

TEST(WireCodecTest, HashRequestsRoundTrip) {
  for (MsgType t : {MsgType::kGet, MsgType::kContains, MsgType::kSizeOf}) {
    Request in;
    in.type = t;
    in.hash = Sha256::Digest("node");
    EXPECT_EQ(RoundTrip(in).hash, in.hash);
  }
}

TEST(WireCodecTest, PutRoundTripsArbitraryBytes) {
  Request in;
  in.type = MsgType::kPut;
  in.bytes = std::string("\x00\xff payload \x01", 12);
  EXPECT_EQ(RoundTrip(in).bytes, in.bytes);
}

TEST(WireCodecTest, PutManyRoundTripsBatch) {
  Request in;
  in.type = MsgType::kPutMany;
  for (int i = 0; i < 5; ++i) {
    auto bytes = std::make_shared<const std::string>(
        std::string(100 + i, static_cast<char>('a' + i)));
    in.batch.push_back({Sha256::Digest(*bytes), bytes});
  }
  Request out = RoundTrip(in);
  ASSERT_EQ(out.batch.size(), in.batch.size());
  for (size_t i = 0; i < in.batch.size(); ++i) {
    EXPECT_EQ(out.batch[i].hash, in.batch[i].hash);
    EXPECT_EQ(*out.batch[i].bytes, *in.batch[i].bytes);
  }
}

TEST(WireCodecTest, PublishRoundTripsWithAndWithoutExpectedHead) {
  Request in;
  in.type = MsgType::kPublish;
  in.structure = "pos";
  in.branch = "feature/x";
  in.new_root = Sha256::Digest("root");
  in.author = "alice";
  in.message = "commit message with spaces";
  Request out = RoundTrip(in);
  EXPECT_EQ(out.structure, "pos");
  EXPECT_EQ(out.branch, "feature/x");
  EXPECT_EQ(out.new_root, in.new_root);
  EXPECT_EQ(out.author, "alice");
  EXPECT_EQ(out.message, in.message);
  EXPECT_FALSE(out.expected_head.has_value());

  in.expected_head = Sha256::Digest("head");
  out = RoundTrip(in);
  ASSERT_TRUE(out.expected_head.has_value());
  EXPECT_EQ(*out.expected_head, *in.expected_head);
}

TEST(WireCodecTest, EmptyBodyRequestsRoundTrip) {
  for (MsgType t : {MsgType::kFlush, MsgType::kStoreStats,
                    MsgType::kResetCounters, MsgType::kListBranches}) {
    Request in;
    in.type = t;
    RoundTrip(in);
  }
}

TEST(WireCodecTest, DecodeRejectsUnknownTypeAndTrailingGarbage) {
  Request out;
  std::string unknown(1, static_cast<char>(200));
  EXPECT_TRUE(net::DecodeRequest(unknown, &out).IsCorruption());

  Request valid;
  valid.type = MsgType::kFlush;
  std::string trailing = net::EncodeRequest(valid) + "x";
  EXPECT_TRUE(net::DecodeRequest(trailing, &out).IsCorruption());

  EXPECT_TRUE(net::DecodeRequest(Slice(), &out).IsCorruption());
}

TEST(WireCodecTest, PutManyRejectsCountBeyondPayload) {
  // A count claiming more records than the payload could hold must be
  // rejected up front, not drive a giant reserve or a long decode loop.
  std::string payload(1, static_cast<char>(MsgType::kPutMany));
  PutVarint64(&payload, 1u << 30);
  Request out;
  EXPECT_TRUE(net::DecodeRequest(payload, &out).IsCorruption());
}

TEST(WireCodecTest, GetPathRequestAndReplyRoundTrip) {
  Request in;
  in.type = MsgType::kGetPath;
  in.corr_id = 9;
  in.structure = "mpt";
  in.hash = Sha256::Digest("root");
  in.key = std::string("k\x00ey", 4);
  in.skip = 3;
  Request out = RoundTrip(in);
  EXPECT_EQ(out.corr_id, 9u);
  EXPECT_EQ(out.structure, "mpt");
  EXPECT_EQ(out.hash, in.hash);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.skip, 3u);

  for (const std::vector<std::string>& path :
       {std::vector<std::string>{},
        std::vector<std::string>{"root node", "", std::string(300, 'l')}}) {
    std::vector<std::shared_ptr<const std::string>> nodes;
    ASSERT_TRUE(net::DecodePathBody(net::EncodePathBody(path), &nodes).ok());
    ASSERT_EQ(nodes.size(), path.size());
    for (size_t i = 0; i < path.size(); ++i) EXPECT_EQ(*nodes[i], path[i]);
  }
}

TEST(WireCodecTest, GetPathRejectsMalformedBodies) {
  // Request: every field is required, and nothing may trail the skip.
  Request in;
  in.type = MsgType::kGetPath;
  in.structure = "pos";
  in.hash = Sha256::Digest("root");
  in.key = "key";
  in.skip = 1;
  const std::string payload = net::EncodeRequest(in);
  Request out;
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    EXPECT_TRUE(net::DecodeRequest(payload.substr(0, cut), &out).IsCorruption())
        << "cut at " << cut;
  }
  EXPECT_TRUE(net::DecodeRequest(payload + "x", &out).IsCorruption());

  // Reply: a count beyond the bytes left is refused before any reserve, a
  // node longer than the body is refused, and so are trailing bytes.
  std::vector<std::shared_ptr<const std::string>> nodes;
  std::string lying_count;
  PutVarint64(&lying_count, uint64_t{1} << 62);
  lying_count += "\x01x";
  EXPECT_TRUE(net::DecodePathBody(lying_count, &nodes).IsCorruption());
  EXPECT_TRUE(nodes.empty());
  std::string long_node;
  PutVarint64(&long_node, 1);
  PutVarint64(&long_node, 100);
  long_node += "short";
  EXPECT_TRUE(net::DecodePathBody(long_node, &nodes).IsCorruption());
  EXPECT_TRUE(
      net::DecodePathBody(net::EncodePathBody({"node"}) + "x", &nodes)
          .IsCorruption());
  EXPECT_TRUE(net::DecodePathBody(Slice(), &nodes).IsCorruption());
}

TEST(WireCodecTest, ResponseRoundTripsStatusAndBody) {
  const std::string payload =
      net::EncodeResponse(Status::OK(), Slice("result-bytes"));
  Status app;
  std::string body;
  ASSERT_TRUE(net::DecodeResponse(payload, &app, &body).ok());
  EXPECT_TRUE(app.ok());
  EXPECT_EQ(body, "result-bytes");

  const std::string err =
      net::EncodeResponse(Status::NotFound("no such node"), Slice());
  ASSERT_TRUE(net::DecodeResponse(err, &app, &body).ok());
  EXPECT_TRUE(app.IsNotFound());
  EXPECT_NE(app.ToString().find("no such node"), std::string::npos);
  EXPECT_TRUE(body.empty());
}

TEST(WireCodecTest, EveryStatusCodeSurvivesTheWire) {
  const std::vector<Status> all = {
      Status::OK(),
      Status::NotFound("a"),
      Status::Corruption("b"),
      Status::InvalidArgument("c"),
      Status::Conflict("d"),
      Status::NotSupported("e"),
      Status::IOError("f"),
      Status::ResourceExhausted("g"),
      Status::Unavailable("h"),
  };
  for (const Status& s : all) {
    const std::string payload = net::EncodeResponse(s, Slice());
    Status app;
    std::string body;
    ASSERT_TRUE(net::DecodeResponse(payload, &app, &body).ok());
    EXPECT_EQ(app.ok(), s.ok());
    EXPECT_EQ(app.IsNotFound(), s.IsNotFound());
    EXPECT_EQ(app.IsCorruption(), s.IsCorruption());
    EXPECT_EQ(app.IsConflict(), s.IsConflict());
    EXPECT_EQ(app.IsResourceExhausted(), s.IsResourceExhausted());
    EXPECT_EQ(app.IsUnavailable(), s.IsUnavailable());
  }
}

TEST(WireCodecTest, BadFrameRejectIsDistinguishable) {
  // The "bad frame: " marker is the replay-safety contract: only a
  // frame-layer reject (request never executed) carries it.
  EXPECT_TRUE(net::IsBadFrameReject(
      Status::Corruption(std::string(net::kBadFramePrefix) +
                         "frame digest mismatch")));
  EXPECT_FALSE(net::IsBadFrameReject(Status::Corruption("page log torn")));
  EXPECT_FALSE(net::IsBadFrameReject(
      Status::IOError(std::string(net::kBadFramePrefix) + "x")));
  EXPECT_FALSE(net::IsBadFrameReject(Status::OK()));
}

TEST(WireCodecTest, ResultBodiesRoundTrip) {
  net::WirePublishResult pub;
  pub.head = Sha256::Digest("head");
  pub.commit = Sha256::Digest("commit");
  pub.cas_failures = 3;
  pub.merge_commits = 2;
  net::WirePublishResult pub2;
  ASSERT_TRUE(
      net::DecodePublishResultBody(net::EncodePublishResultBody(pub), &pub2)
          .ok());
  EXPECT_EQ(pub2.head, pub.head);
  EXPECT_EQ(pub2.commit, pub.commit);
  EXPECT_EQ(pub2.cas_failures, 3u);
  EXPECT_EQ(pub2.merge_commits, 2u);

  BranchStats bs;
  bs.commits = 10;
  bs.cas_failures = 4;
  bs.merge_retries = 2;
  bs.combined_commits = 6;
  BranchStats bs2;
  ASSERT_TRUE(
      net::DecodeBranchStatsBody(net::EncodeBranchStatsBody(bs), &bs2).ok());
  EXPECT_EQ(bs2.commits, 10u);
  EXPECT_EQ(bs2.combined_commits, 6u);

  NodeStore::Stats ss;
  ss.puts = 1;
  ss.put_bytes = 2;
  ss.dup_puts = 3;
  ss.gets = 4;
  ss.get_bytes = 5;
  ss.unique_nodes = 6;
  ss.unique_bytes = 7;
  ss.flushes = 8;
  NodeStore::Stats ss2;
  ASSERT_TRUE(
      net::DecodeStoreStatsBody(net::EncodeStoreStatsBody(ss), &ss2).ok());
  EXPECT_EQ(ss2.puts, 1u);
  EXPECT_EQ(ss2.flushes, 8u);
  EXPECT_EQ(ss2.unique_bytes, 7u);

  const std::vector<std::string> branches = {"main", "", "feature/long-name"};
  std::vector<std::string> branches2;
  ASSERT_TRUE(
      net::DecodeStringListBody(net::EncodeStringListBody(branches), &branches2)
          .ok());
  EXPECT_EQ(branches2, branches);
}

// --- correlation ids, want_push, pushed batches, the id-less Hello ----

TEST(WireCodecTest, CorrelationIdRoundTrips) {
  Request req;
  req.type = MsgType::kGet;
  req.hash = Sha256::Digest("corr");
  req.corr_id = 0x1234567u;

  Request out;
  ASSERT_TRUE(net::DecodeRequest(net::EncodeRequest(req), &out).ok());
  EXPECT_EQ(out.corr_id, 0x1234567u);
  EXPECT_EQ(out.hash, req.hash);
}

TEST(WireCodecTest, ResponseCorrelationIdRoundTripsUnderV2) {
  const std::string payload =
      net::EncodeResponse(Status::OK(), Slice("pipelined"), 0x42u);
  Status app;
  std::string body;
  uint64_t corr = 0;
  ASSERT_TRUE(net::DecodeResponse(payload, &app, &body, &corr).ok());
  EXPECT_TRUE(app.ok());
  EXPECT_EQ(body, "pipelined");
  EXPECT_EQ(corr, 0x42u);
}

TEST(WireCodecTest, HelloIsAlwaysV1ShapedRegardlessOfRequestedVersion) {
  // The Hello layout — type byte, version varint, no correlation id — is
  // the one every build has spoken since v1, which is what lets a server
  // read any peer's version and answer a mismatch with a typed reject.
  for (const uint32_t version : {0u, 1u, net::kWireVersion,
                                 net::kWireVersion + 1}) {
    Request hello;
    hello.type = MsgType::kHello;
    hello.version = version;
    hello.corr_id = 7;  // must be ignored: Hello has no corr slot
    std::string want(1, static_cast<char>(MsgType::kHello));
    PutVarint64(&want, version);
    EXPECT_EQ(net::EncodeRequest(hello), want);
    EXPECT_EQ(RoundTrip(hello).version, version);
  }

  // Its answer omits the id too.
  std::string body;
  PutVarint64(&body, net::kWireVersion);
  Status app;
  std::string got;
  ASSERT_TRUE(net::DecodeHelloResponse(
                  net::EncodeHelloResponse(Status::OK(), body), &app, &got)
                  .ok());
  EXPECT_TRUE(app.ok());
  EXPECT_EQ(got, body);
}

TEST(WireCodecTest, WantPushRoundTripsUnderV2Only) {
  Request pub;
  pub.type = MsgType::kPublish;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = Sha256::Digest("root");
  pub.author = "a";
  pub.message = "m";
  for (const bool want : {true, false}) {
    pub.want_push = want;
    EXPECT_EQ(RoundTrip(pub).want_push, want);
  }
}

TEST(WireCodecTest, PublishResultPushedBatchRoundTripsUnderV2) {
  net::WirePublishResult pub;
  pub.head = Sha256::Digest("head");
  pub.commit = Sha256::Digest("commit");
  auto page = std::make_shared<const std::string>(std::string(256, 'p'));
  auto node = std::make_shared<const std::string>("commit-object-bytes");
  pub.pushed.push_back({Sha256::Digest(*page), page});
  pub.pushed.push_back({Sha256::Digest(*node), node});

  net::WirePublishResult out;
  ASSERT_TRUE(
      net::DecodePublishResultBody(net::EncodePublishResultBody(pub), &out)
          .ok());
  ASSERT_EQ(out.pushed.size(), 2u);
  EXPECT_EQ(out.pushed[0].hash, pub.pushed[0].hash);
  EXPECT_EQ(*out.pushed[0].bytes, *page);
  EXPECT_EQ(*out.pushed[1].bytes, *node);
  EXPECT_EQ(out.head, pub.head);
}

// --- golden bytes ------------------------------------------------------

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

Hash FilledHash(char byte) {
  const std::string bytes(Hash::kSize, byte);
  return Hash::FromBytes(bytes.data());
}

TEST(WireCodecTest, HealthyPathBytesArePinned) {
  // Literal payload bytes of the healthy-path messages. Any codec change
  // that moves a byte on the wire fails here, not in a peer.
  const std::string h11(64, '1'), h22(64, '2'), h33(64, '3'), h44(64, '4'),
      h55(64, '5'), h66(64, '6');

  Request hello;
  hello.type = MsgType::kHello;
  hello.version = net::kWireVersion;
  EXPECT_EQ(ToHex(net::EncodeRequest(hello)), "0102");
  std::string version;
  PutVarint64(&version, net::kWireVersion);
  EXPECT_EQ(ToHex(net::EncodeHelloResponse(Status::OK(), version)),
            "40000002");
  EXPECT_EQ(ToHex(net::EncodeFrame(net::EncodeRequest(hello))),
            "02a12871fee210fb8619291eaea194581cbd2531e4b23759d225f6806923f632"
            "220102");

  Request get;
  get.type = MsgType::kGet;
  get.corr_id = 7;
  get.hash = FilledHash('\x11');
  EXPECT_EQ(ToHex(net::EncodeRequest(get)), "0207" + h11);

  // type 14 | corr 8 | "mpt" | root | "k" | skip 2.
  Request path;
  path.type = MsgType::kGetPath;
  path.corr_id = 8;
  path.structure = "mpt";
  path.hash = FilledHash('\x11');
  path.key = "k";
  path.skip = 2;
  EXPECT_EQ(ToHex(net::EncodeRequest(path)),
            "0e08" "036d7074" + h11 + "016b" "02");
  // count 2 | "ab" | "c".
  EXPECT_EQ(ToHex(net::EncodePathBody({"ab", "c"})), "02" "026162" "0163");

  // type | corr 300 | "pos" | "main" | root | "a" | "m" | expected head
  // flag + head | want_push.
  Request pub;
  pub.type = MsgType::kPublish;
  pub.corr_id = 300;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = FilledHash('\x22');
  pub.author = "a";
  pub.message = "m";
  pub.expected_head = FilledHash('\x33');
  pub.want_push = true;
  EXPECT_EQ(ToHex(net::EncodeRequest(pub)),
            "09ac02" "03706f73" "046d61696e" + h22 + "0161" "016d" "01" +
                h33 + "01");

  // kResponse | corr 300 | NotFound | "no" | body "xy".
  EXPECT_EQ(ToHex(net::EncodeResponse(Status::NotFound("no"), Slice("xy"),
                                      300)),
            "40ac0201026e6f7879");

  // head | commit | cas_failures 1 | merge_commits 2 | one pushed record.
  net::WirePublishResult result;
  result.head = FilledHash('\x44');
  result.commit = FilledHash('\x55');
  result.cas_failures = 1;
  result.merge_commits = 2;
  result.pushed.push_back(
      {FilledHash('\x66'), std::make_shared<const std::string>("node")});
  EXPECT_EQ(ToHex(net::EncodePublishResultBody(result)),
            h44 + h55 + "0102" "01" + h66 + "046e6f6465");
}

// --- frame decoder hardening ------------------------------------------

TEST(FrameDecoderTest, ExtractsFrameDeliveredByteByByte) {
  const std::string payload = "hello frame";
  const std::string frame = net::EncodeFrame(payload);
  FrameDecoder dec;
  std::string out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.Append(&frame[i], 1);
    auto r = dec.Next(&out);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(*r) << "complete frame before the last byte arrived";
  }
  dec.Append(&frame[frame.size() - 1], 1);
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, ExtractsBackToBackFrames) {
  FrameDecoder dec;
  std::string stream;
  for (int i = 0; i < 10; ++i) {
    stream += net::EncodeFrame("payload-" + std::to_string(i));
  }
  dec.Append(stream.data(), stream.size());
  std::string out;
  for (int i = 0; i < 10; ++i) {
    auto r = dec.Next(&out);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r);
    EXPECT_EQ(out, "payload-" + std::to_string(i));
  }
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(FrameDecoderTest, TruncatedFrameIsNeedMoreNotError) {
  const std::string frame = net::EncodeFrame(std::string(1000, 'x'));
  FrameDecoder dec;
  dec.Append(frame.data(), frame.size() / 2);
  std::string out;
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // a torn frame is a hung-up peer, not corruption
}

TEST(FrameDecoderTest, OversizedLengthIsCorruption) {
  FrameDecoder dec(/*max_frame_bytes=*/1024);
  std::string frame;
  PutVarint64(&frame, 1 << 20);  // claims 1 MB against a 1 KB bound
  frame.append(32, '\0');
  dec.Append(frame.data(), frame.size());
  std::string out;
  auto r = dec.Next(&out);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(FrameDecoderTest, PayloadAtExactCapDecodes) {
  // The cap bounds the *payload* length, inclusively: a payload of
  // exactly max_frame_bytes is legal and must decode. (Off-by-one here
  // would make the largest advertised frame size unusable.)
  constexpr uint64_t kCap = 4096;
  const std::string payload(kCap, 'm');
  const std::string frame = net::EncodeFrame(payload);
  FrameDecoder dec(/*max_frame_bytes=*/kCap);
  dec.Append(frame.data(), frame.size());
  std::string out;
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(*r);
  EXPECT_EQ(out, payload);
}

TEST(FrameDecoderTest, PayloadOneOverCapIsTypedCorruptionNotNeedMore) {
  // One byte past the cap must be a typed Corruption the moment the
  // length varint is readable — not "need more bytes", which would leave
  // the reader waiting for a frame it will never accept. Only the length
  // prefix is appended here to pin exactly that: classification must not
  // require the (oversized) body to arrive.
  constexpr uint64_t kCap = 4096;
  std::string prefix;
  PutVarint64(&prefix, kCap + 1);
  FrameDecoder dec(/*max_frame_bytes=*/kCap);
  dec.Append(prefix.data(), prefix.size());
  std::string out;
  auto r = dec.Next(&out);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("oversized frame"), std::string::npos);
}

TEST(FrameDecoderTest, MalformedLengthVarintIsCorruption) {
  // Ten continuation bytes: no valid varint64 is that long, and more
  // input can never fix it — must be typed corruption, not need-more.
  FrameDecoder dec;
  const std::string evil(10, '\xff');
  dec.Append(evil.data(), evil.size());
  std::string out;
  auto r = dec.Next(&out);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(FrameDecoderTest, BitFlipAnywhereIsCorruptionNeverWrongPayload) {
  const std::string payload = "sensitive payload bytes";
  const std::string frame = net::EncodeFrame(payload);
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string flipped = frame;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      FrameDecoder dec(/*max_frame_bytes=*/1 << 16);
      dec.Append(flipped.data(), flipped.size());
      std::string out;
      auto r = dec.Next(&out);
      // A flipped bit may make the frame corrupt (length/digest damage)
      // or incomplete (length now claims more bytes). What it must NEVER
      // do is deliver a payload different from what was framed.
      if (r.ok() && *r) {
        EXPECT_EQ(out, payload)
            << "bit flip at byte " << i << " delivered a wrong payload";
      }
    }
  }
}

TEST(FrameDecoderTest, FuzzedGarbageNeverCrashesAndNeverDeliversJunk) {
  // Deterministic xorshift fuzz: random mutations of valid frames plus
  // pure-garbage streams, delivered in random chunk sizes. The decoder
  // must never crash, never loop forever, and never hand back a payload
  // that was not framed intact.
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 300; ++round) {
    std::string stream;
    const int pieces = 1 + next_rand() % 4;
    std::vector<std::string> intact;
    for (int p = 0; p < pieces; ++p) {
      std::string payload(next_rand() % 200, ' ');
      for (char& c : payload) c = static_cast<char>(next_rand());
      std::string frame = net::EncodeFrame(payload);
      const bool mutate = next_rand() % 2 == 0;
      if (mutate) {
        const int flips = 1 + next_rand() % 4;
        for (int f = 0; f < flips; ++f) {
          frame[next_rand() % frame.size()] ^=
              static_cast<char>(1 << (next_rand() % 8));
        }
      } else {
        intact.push_back(payload);
      }
      stream += frame;
    }
    FrameDecoder dec(/*max_frame_bytes=*/1 << 16);
    size_t fed = 0;
    size_t delivered = 0;
    bool dead = false;
    while (fed < stream.size() && !dead) {
      const size_t chunk =
          std::min(stream.size() - fed, 1 + next_rand() % 97);
      dec.Append(stream.data() + fed, chunk);
      fed += chunk;
      for (;;) {
        std::string out;
        auto r = dec.Next(&out);
        if (!r.ok()) {
          dead = true;  // real connection would drop here
          break;
        }
        if (!*r) break;
        // Everything delivered before the first mutation point must be an
        // intact payload, verbatim.
        if (delivered < intact.size()) {
          EXPECT_EQ(out, intact[delivered]);
        }
        ++delivered;
      }
    }
  }
}

// --- loopback server + socket transport -------------------------------

class LoopbackServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    servlet_ = std::make_unique<ForkbaseServlet>(store_);
    servlet_->RegisterIndex(std::make_unique<PosTree>(store_));
    net::ServerOptions opts;
    opts.worker_threads = 2;
    opts.group_flush_window_micros = 0;  // in-memory store: no-op anyway
    server_ = std::make_unique<net::SiriServer>(servlet_.get(), opts);
    ASSERT_TRUE(server_->Listen(0).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  std::shared_ptr<net::SocketTransport> Connect() {
    std::shared_ptr<net::SocketTransport> t;
    Status s = net::SocketTransport::Connect("127.0.0.1", server_->port(), &t);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return t;
  }

  NodeStorePtr store_;
  std::unique_ptr<ForkbaseServlet> servlet_;
  std::unique_ptr<net::SiriServer> server_;
};

TEST_F(LoopbackServerTest, NodeOpsRoundTrip) {
  auto t = Connect();
  ASSERT_NE(t, nullptr);

  const std::string payload(500, 'n');
  auto put = t->Put(payload);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(*put, Sha256::Digest(payload));

  auto got = t->Get(*put);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, payload);

  auto contains = t->Contains(*put);
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  auto absent = t->Contains(Sha256::Digest("never stored"));
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);

  auto size = t->SizeOf(*put);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());

  auto missing = t->Get(Sha256::Digest("never stored"));
  EXPECT_TRUE(missing.status().IsNotFound());

  EXPECT_TRUE(t->Flush().ok());

  auto stats = t->StoreStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->puts, 1u);
  EXPECT_GE(stats->gets, 1u);

  // Real measured traffic, not simulated RTTs.
  const auto ts = t->stats();
  EXPECT_GT(ts.rpcs, 0u);
  EXPECT_GT(ts.bytes_sent, payload.size());
  EXPECT_GT(ts.bytes_received, payload.size());
  EXPECT_GT(ts.syscalls, 0u);
}

TEST_F(LoopbackServerTest, PutManyStoresWholeBatch) {
  auto t = Connect();
  ASSERT_NE(t, nullptr);
  NodeBatch batch;
  for (int i = 0; i < 20; ++i) {
    auto bytes = std::make_shared<const std::string>(
        "node-" + std::to_string(i) + std::string(200, 'b'));
    batch.push_back({Sha256::Digest(*bytes), bytes});
  }
  ASSERT_TRUE(t->PutMany(batch).ok());
  for (const auto& rec : batch) {
    EXPECT_TRUE(store_->Contains(rec.hash));
  }
}

TEST_F(LoopbackServerTest, PutManyRejectsDigestMismatch) {
  // A socket is a trust boundary: the server re-digests uploads and a
  // batch whose claimed hash does not match its bytes is rejected whole.
  auto t = Connect();
  ASSERT_NE(t, nullptr);
  NodeBatch batch;
  auto good = std::make_shared<const std::string>(std::string(100, 'g'));
  auto evil = std::make_shared<const std::string>(std::string(100, 'e'));
  batch.push_back({Sha256::Digest(*good), good});
  batch.push_back({Sha256::Digest("some other bytes"), evil});
  const Status s = t->PutMany(batch);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The lying record was not stored under its claimed digest.
  EXPECT_FALSE(store_->Contains(Sha256::Digest("some other bytes")));
  // The connection survives an application-level rejection.
  EXPECT_TRUE(t->Flush().ok());
}

TEST_F(LoopbackServerTest, BranchOpsRoundTrip) {
  auto t = Connect();
  ASSERT_NE(t, nullptr);

  auto missing = t->Head("main");
  EXPECT_TRUE(missing.status().IsNotFound());

  // Build a version server-side, then publish through the socket.
  PosTree index(store_);
  auto root = index.PutBatch(index.EmptyRoot(), MakeKvs(50));
  ASSERT_TRUE(root.ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "tester";
  pub.message = "first";
  auto published = t->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  auto head = t->Head("main");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, published->head);
  auto commit = servlet_->branches()->ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->root, *root);
  EXPECT_EQ(commit->author, "tester");

  auto bs = t->GetBranchStats("main");
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ(bs->commits, 1u);

  auto branches = t->ListBranches();
  ASSERT_TRUE(branches.ok());
  ASSERT_EQ(branches->size(), 1u);
  EXPECT_EQ((*branches)[0], "main");

  // Unregistered structure: typed NotFound, not a dead connection.
  pub.structure = "mpt";
  auto unknown = t->Publish(pub);
  EXPECT_TRUE(unknown.status().IsNotFound());
  EXPECT_TRUE(t->Flush().ok());
}

TEST_F(LoopbackServerTest, GarbageConnectionDiesAloneServerSurvives) {
  auto healthy = Connect();
  ASSERT_NE(healthy, nullptr);

  // A raw socket spews garbage at the server.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string garbage(64, '\xff');
  ASSERT_EQ(send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // The garbage connection is closed by the server (recv sees EOF).
  char buf[256];
  ssize_t n;
  for (;;) {
    n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // typed error response bytes, then close
  }
  EXPECT_EQ(n, 0);
  close(fd);

  // The healthy client is untouched, and the error was counted.
  auto put = healthy->Put(std::string(10, 'h'));
  EXPECT_TRUE(put.ok());
  EXPECT_GE(server_->stats().frame_errors, 1u);
  EXPECT_GE(server_->stats().connections, 2u);
}

namespace {

/// Hand-rolls one Hello advertising \p version against \p port and
/// returns the server's application verdict; on success, \p answered
/// receives the version the server answered with. When \p closed is
/// non-null it reports whether the server hung up after answering.
Status HandRolledHello(int port, uint64_t version, uint64_t* answered,
                       bool* closed = nullptr) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IOError("connect");
  }
  // Bounds the wait for a hang-up that never comes.
  timeval tv{};
  tv.tv_sec = 5;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  Request hello;
  hello.type = MsgType::kHello;
  hello.version = static_cast<uint32_t>(version);
  const std::string frame = net::EncodeFrame(net::EncodeRequest(hello));
  if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    close(fd);
    return Status::IOError("send");
  }
  FrameDecoder dec;
  std::string payload;
  bool got_response = false;
  char buf[4096];
  for (;;) {
    auto r = dec.Next(&payload);
    if (!r.ok()) break;
    if (*r) {
      got_response = true;
      break;
    }
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    dec.Append(buf, static_cast<size_t>(n));
  }
  if (got_response && closed != nullptr) {
    *closed = dec.buffered() == 0 && recv(fd, buf, sizeof(buf), 0) == 0;
  }
  close(fd);
  if (!got_response) return Status::IOError("no response");
  Status app;
  std::string body;
  const Status decoded = net::DecodeHelloResponse(payload, &app, &body);
  if (!decoded.ok()) return decoded;
  if (!app.ok()) return app;
  Slice in(body);
  if (!GetVarint64(&in, answered) || !in.empty()) {
    return Status::Corruption("hello body");
  }
  return Status::OK();
}

/// Expects the typed mismatch reject for a Hello advertising \p version,
/// and that the server hangs up after sending it.
void ExpectVersionMismatchRejectAndClose(int port, uint64_t version) {
  SCOPED_TRACE("hello v" + std::to_string(version));
  uint64_t answered = 0;
  bool closed = false;
  const Status s = HandRolledHello(port, version, &answered, &closed);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("wire version mismatch"), std::string::npos);
  EXPECT_TRUE(closed);
}

}  // namespace

TEST_F(LoopbackServerTest, HelloNegotiatesFutureAndCurrentVersionsDown) {
  // There is one dialect, so nothing is negotiated down any more: the
  // current version is answered with itself ...
  uint64_t answered = 0;
  ASSERT_TRUE(
      HandRolledHello(server_->port(), net::kWireVersion, &answered).ok());
  EXPECT_EQ(answered, net::kWireVersion);

  // ... and a future version draws the typed mismatch reject, after which
  // the server hangs up, instead of being answered with min(client, server).
  ExpectVersionMismatchRejectAndClose(server_->port(), net::kWireVersion + 1);
}

TEST_F(LoopbackServerTest, VersionSkewBelowFloorFailsHandshakeTyped) {
  // Every older version — 0, and the retired v1 dialect — draws the typed
  // mismatch reject, and the server hangs up after sending it.
  ExpectVersionMismatchRejectAndClose(server_->port(), 0);
  ExpectVersionMismatchRejectAndClose(server_->port(), 1);
}

TEST_F(LoopbackServerTest, ConnectFailsOnVersionMismatchRejectWithoutRetry) {
  // Client side: Connect to a peer that sends this reject (a build that
  // speaks another version) returns it at once — one Hello, no retry.
  int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::atomic<int> hellos{0};
  std::thread peer([listen_fd, &hellos] {
    const int c = accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    FrameDecoder dec;
    std::string payload;
    char buf[4096];
    for (;;) {
      auto next = dec.Next(&payload);
      if (!next.ok()) break;
      if (*next) {
        hellos.fetch_add(1);
        const std::string reject = net::EncodeFrame(net::EncodeHelloResponse(
            Status::InvalidArgument(
                "wire version mismatch: client speaks v2, server speaks v3"),
            Slice()));
        (void)send(c, reject.data(), reject.size(), MSG_NOSIGNAL);
        break;
      }
      const ssize_t n = recv(c, buf, sizeof(buf), 0);
      if (n <= 0) break;
      dec.Append(buf, static_cast<size_t>(n));
    }
    close(c);
  });

  auto fault = std::make_shared<net::FaultInjector>();  // counts attempts
  net::SocketTransport::Options opts;
  opts.fault = fault;
  std::shared_ptr<net::SocketTransport> t;
  const Status s =
      net::SocketTransport::Connect("127.0.0.1", ntohs(addr.sin_port), &t,
                                    opts);
  peer.join();
  close(listen_fd);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("wire version mismatch"), std::string::npos);
  EXPECT_EQ(t, nullptr);
  // A retry would have spent a second wire attempt.
  EXPECT_EQ(fault->stats().attempts, 1u);
  EXPECT_EQ(hellos.load(), 1);
}

TEST_F(LoopbackServerTest, GetRejectsBytesThatDoNotHashToTheDigest) {
  // A lying peer: a correct handshake, then every Get answered with a
  // well-framed body that is not the requested node. The client must
  // refuse it with a typed Corruption — no retry, and nothing cached.
  int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::atomic<int> gets{0};
  std::thread peer([listen_fd, &gets] {
    const int c = accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    timeval tv{};
    tv.tv_sec = 5;
    (void)setsockopt(c, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    FrameDecoder dec;
    std::string payload;
    char buf[4096];
    for (;;) {
      auto next = dec.Next(&payload);
      if (!next.ok()) break;
      if (*next) {
        Request req;
        if (!net::DecodeRequest(payload, &req).ok()) break;
        std::string reply;
        if (req.type == MsgType::kHello) {
          std::string body;
          PutVarint64(&body, net::kWireVersion);
          reply = net::EncodeFrame(net::EncodeHelloResponse(Status::OK(), body));
        } else if (req.type == MsgType::kGet) {
          gets.fetch_add(1);
          reply = net::EncodeFrame(
              net::EncodeResponse(Status::OK(), "not the node", req.corr_id));
        } else {
          break;
        }
        (void)send(c, reply.data(), reply.size(), MSG_NOSIGNAL);
        continue;
      }
      const ssize_t n = recv(c, buf, sizeof(buf), 0);
      if (n <= 0) break;
      dec.Append(buf, static_cast<size_t>(n));
    }
    close(c);
  });

  auto fault = std::make_shared<net::FaultInjector>();  // counts attempts
  net::SocketTransport::Options opts;
  opts.fault = fault;
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(net::SocketTransport::Connect("127.0.0.1", ntohs(addr.sin_port),
                                            &t, opts)
                  .ok());
  auto client_store = std::make_shared<ForkbaseClientStore>(t, 1 << 20);
  const Hash wanted = Sha256::Digest("the real node");
  for (int i = 0; i < 2; ++i) {
    auto got = client_store->Get(wanted);
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }
  // The second Get went back to the wire: the lie was not cached. Hello +
  // two Gets, one attempt each: the mismatch was not retried either.
  EXPECT_EQ(gets.load(), 2);
  EXPECT_EQ(client_store->remote_stats().cache_hits, 0u);
  EXPECT_EQ(client_store->remote_stats().remote_gets, 0u);
  EXPECT_EQ(fault->stats().attempts, 3u);
  client_store.reset();
  t->Close();
  t.reset();
  peer.join();
  close(listen_fd);
}

// --- kGetPath: one round trip per lookup, and no trust in the reply ----

// How the hand-rolled peer below lies on kGetPath.
enum class PathLie {
  kWrongNode,        // the path of a stale version, not the one asked for
  kShortPath,        // the honest path with one node missing
  kExtraNode,        // the honest path plus an off-path node
  kCountBeyondBody,  // a node count the body cannot hold
  kTypedError,       // a typed error instead of a path
};

// A peer that serves kGet honestly from `index`'s store but answers every
// kGetPath with `lie`. One connection, until the client hangs up.
class LyingPathPeer {
 public:
  LyingPathPeer(const Mpt* index, Hash stale_root, PathLie lie)
      : index_(index), stale_root_(stale_root), lie_(lie) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~LyingPathPeer() {
    thread_.join();
    close(listen_fd_);
  }

  int port() const { return port_; }
  int gets() const { return gets_.load(); }
  int paths() const { return paths_.load(); }

 private:
  std::string Reply(const Request& req) {
    if (req.type == MsgType::kGet) {
      gets_.fetch_add(1);
      auto bytes = index_->store()->Get(req.hash);
      if (!bytes.ok()) {
        return net::EncodeResponse(bytes.status(), Slice(), req.corr_id);
      }
      return net::EncodeResponse(Status::OK(), **bytes, req.corr_id);
    }
    paths_.fetch_add(1);
    const Hash root = lie_ == PathLie::kWrongNode ? stale_root_ : req.hash;
    auto proof = index_->GetProof(root, req.key);
    EXPECT_TRUE(proof.ok());
    std::vector<std::string> nodes = proof->nodes;
    nodes.erase(nodes.begin(),
                nodes.begin() + std::min<size_t>(req.skip, nodes.size()));
    std::string body;
    switch (lie_) {
      case PathLie::kWrongNode:
        body = net::EncodePathBody(nodes);
        break;
      case PathLie::kShortPath:
        if (!nodes.empty()) nodes.erase(nodes.begin() + nodes.size() / 2);
        body = net::EncodePathBody(nodes);
        break;
      case PathLie::kExtraNode: {
        // A genuine node, just not on this path: the stale version's root.
        auto off_path = index_->store()->Get(stale_root_);
        EXPECT_TRUE(off_path.ok());
        nodes.insert(nodes.begin() + std::min<size_t>(1, nodes.size()),
                     **off_path);
        body = net::EncodePathBody(nodes);
        break;
      }
      case PathLie::kCountBeyondBody:
        PutVarint64(&body, uint64_t{1} << 40);
        PutLengthPrefixed(&body, "x");
        break;
      case PathLie::kTypedError:
        return net::EncodeResponse(Status::Corruption("path unavailable"),
                                   Slice(), req.corr_id);
    }
    return net::EncodeResponse(Status::OK(), body, req.corr_id);
  }

  void Serve() {
    const int c = accept(listen_fd_, nullptr, nullptr);
    if (c < 0) return;
    timeval tv{};
    tv.tv_sec = 5;
    (void)setsockopt(c, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    FrameDecoder dec;
    std::string payload;
    char buf[4096];
    for (;;) {
      auto next = dec.Next(&payload);
      if (!next.ok()) break;
      if (*next) {
        Request req;
        if (!net::DecodeRequest(payload, &req).ok()) break;
        std::string reply;
        if (req.type == MsgType::kHello) {
          std::string body;
          PutVarint64(&body, net::kWireVersion);
          reply = net::EncodeHelloResponse(Status::OK(), body);
        } else if (req.type == MsgType::kGet ||
                   req.type == MsgType::kGetPath) {
          reply = Reply(req);
        } else {
          break;
        }
        const std::string frame = net::EncodeFrame(reply);
        (void)send(c, frame.data(), frame.size(), MSG_NOSIGNAL);
        continue;
      }
      const ssize_t n = recv(c, buf, sizeof(buf), 0);
      if (n <= 0) break;
      dec.Append(buf, static_cast<size_t>(n));
    }
    close(c);
  }

  const Mpt* index_;
  const Hash stale_root_;
  const PathLie lie_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<int> gets_{0};
  std::atomic<int> paths_{0};
  std::thread thread_;
};

TEST(GetPathTest, LyingPeerNeverYieldsAWrongValueOrAMislabeledPage) {
  auto store = NewInMemoryNodeStore();
  Mpt index(store);
  auto stale = index.PutBatch(Hash::Zero(), MakeKvs(300, /*version=*/0));
  ASSERT_TRUE(stale.ok());
  auto root = index.PutBatch(*stale, MakeKvs(300, /*version=*/1));
  ASSERT_TRUE(root.ok());

  for (PathLie lie : {PathLie::kWrongNode, PathLie::kShortPath,
                      PathLie::kExtraNode, PathLie::kCountBeyondBody,
                      PathLie::kTypedError}) {
    SCOPED_TRACE(static_cast<int>(lie));
    LyingPathPeer peer(&index, *stale, lie);
    std::shared_ptr<net::SocketTransport> t;
    ASSERT_TRUE(
        net::SocketTransport::Connect("127.0.0.1", peer.port(), &t).ok());
    auto client_store = std::make_shared<ForkbaseClientStore>(t, 16 << 20);
    Mpt client_index(client_store);
    for (int i : {0, 17, 123, 299}) {
      const std::string key = testing_util::TKey(i);
      // The lookup walks by its own digests from the root it holds, so
      // it reads the asked-for version's value or fails typed.
      auto got = client_index.Get(*root, key, nullptr);
      if (!got.ok()) {
        EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
        continue;
      }
      ASSERT_TRUE(got->has_value());
      EXPECT_EQ(**got, testing_util::TVal(i, 1));
      // Whatever the client holds under a path digest — cached from the
      // lie or fetched now — hashes to that digest.
      auto proof = index.GetProof(*root, key);
      ASSERT_TRUE(proof.ok());
      for (const std::string& node : proof->nodes) {
        const Hash d = Sha256::Digest(node);
        auto held = client_store->Get(d);
        ASSERT_TRUE(held.ok()) << held.status().ToString();
        EXPECT_EQ(Sha256::Digest(**held), d);
      }
    }
    if (lie == PathLie::kExtraNode) {
      // Every path still held the nodes asked for: one round trip per
      // lookup at most, and no per-node fallback.
      EXPECT_LE(peer.paths(), 4);
      EXPECT_EQ(peer.gets(), 0);
    } else if (lie == PathLie::kShortPath) {
      // The gap is a miss of its own: at least one more round trip.
      EXPECT_GT(peer.paths(), 4);
    } else {
      EXPECT_GT(peer.gets(), 0);  // the per-node fallback served the misses
    }
    client_store.reset();
    t->Close();
  }
}

// A server with every structure registered, and clients over sockets.
class GetPathServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = NewInMemoryNodeStore();
    servlet_ = std::make_unique<ForkbaseServlet>(store_);
    MbtOptions mbt;
    mbt.num_buckets = 256;
    mbt.fanout = 4;
    std::vector<std::unique_ptr<ImmutableIndex>> indexes;
    indexes.push_back(std::make_unique<Mpt>(store_));
    indexes.push_back(std::make_unique<Mbt>(store_, mbt));
    indexes.push_back(std::make_unique<PosTree>(store_));
    indexes.push_back(std::make_unique<MvmbTree>(store_));
    for (auto& index : indexes) {
      auto root = index->PutBatch(index->EmptyRoot(), MakeKvs(kKeys));
      ASSERT_TRUE(root.ok());
      roots_.push_back(*root);
      servers_.push_back(index.get());
      servlet_->RegisterIndex(std::move(index));
    }
    net::ServerOptions opts;
    opts.worker_threads = 2;
    opts.group_flush_window_micros = 0;
    server_ = std::make_unique<net::SiriServer>(servlet_.get(), opts);
    ASSERT_TRUE(server_->Listen(0).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  std::shared_ptr<net::SocketTransport> Connect() {
    std::shared_ptr<net::SocketTransport> t;
    Status s = net::SocketTransport::Connect("127.0.0.1", server_->port(), &t);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return t;
  }

  static constexpr int kKeys = 2000;
  NodeStorePtr store_;
  std::unique_ptr<ForkbaseServlet> servlet_;
  std::vector<ImmutableIndex*> servers_;
  std::vector<Hash> roots_;
  std::unique_ptr<net::SiriServer> server_;
};

TEST_F(GetPathServerTest, ColdLookupIsOneRpcAndWarmLookupIsNone) {
  for (size_t s = 0; s < servers_.size(); ++s) {
    SCOPED_TRACE(servers_[s]->name());
    auto t = Connect();
    ASSERT_NE(t, nullptr);
    auto client_store = std::make_shared<ForkbaseClientStore>(t, 16 << 20);
    auto client_index = servers_[s]->WithStore(client_store);
    for (int i : {7, 1234}) {
      const std::string key = testing_util::TKey(i);
      auto want = servers_[s]->Get(roots_[s], key, nullptr);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(want->has_value());

      const uint64_t before = t->stats().rpcs;
      auto got = client_index->Get(roots_[s], key, nullptr);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want);
      const uint64_t cold = t->stats().rpcs - before;
      // The first lookup misses on the root: one round trip fetches the
      // whole path. Later lookups miss below cached nodes: still one.
      if (i == 7) {
        EXPECT_EQ(cold, 1u);
      } else {
        EXPECT_LE(cold, 1u);
      }

      const uint64_t warm_before = t->stats().rpcs;
      got = client_index->Get(roots_[s], key, nullptr);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, *want);
      EXPECT_EQ(t->stats().rpcs - warm_before, 0u);
    }
    EXPECT_EQ(client_store->remote_stats().remote_gets, 2u)
        << "one remote_get per kGetPath";
  }
}

TEST_F(GetPathServerTest, ThreadsSharingOneSmallCacheReadCorrectValues) {
  // The ycsb-cold-read shape: several reader threads, one pipelined
  // connection, a cache far smaller than the data.
  for (size_t s = 0; s < servers_.size(); ++s) {
    SCOPED_TRACE(servers_[s]->name());
    auto t = Connect();
    ASSERT_NE(t, nullptr);
    auto client_store = std::make_shared<ForkbaseClientStore>(t, 32 << 10);
    auto client_index = servers_[s]->WithStore(client_store);
    std::atomic<int> wrong{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&, r] {
        for (int n = 0; n < 150; ++n) {
          const int i = (r * 7919 + n * 104729) % kKeys;
          auto got =
              client_index->Get(roots_[s], testing_util::TKey(i), nullptr);
          if (!got.ok() || !got->has_value() ||
              **got != testing_util::TVal(i)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(wrong.load(), 0);
  }
}

TEST_F(LoopbackServerTest, ClientStoreOverSocketReadsAndCommits) {
  // The full stack: ForkbaseClientStore on a SocketTransport, index reads
  // through the node cache, and a commit published over the wire.
  auto t = Connect();
  ASSERT_NE(t, nullptr);
  auto client_store = std::make_shared<ForkbaseClientStore>(t, 16 << 20);

  PosTree server_index(store_);
  auto base = server_index.PutBatch(server_index.EmptyRoot(), MakeKvs(200));
  ASSERT_TRUE(base.ok());

  PosTree client_index(client_store);
  auto got = client_index.Get(*base, testing_util::TKey(21), nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());

  auto root = client_index.PutBatch(*base, {{"socket/key", "socket/value"}});
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(client_store->Flush().ok());

  net::PublishRequest pub;
  pub.structure = "pos";
  pub.branch = "main";
  pub.new_root = *root;
  pub.author = "socket-client";
  pub.message = "over the wire";
  auto published = client_store->transport()->Publish(pub);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  // Server-side visibility of the client's commit.
  auto head = servlet_->branches()->Head("main");
  ASSERT_TRUE(head.ok());
  auto commit = servlet_->branches()->ReadCommit(*head);
  ASSERT_TRUE(commit.ok());
  auto val = server_index.Get(commit->root, "socket/key", nullptr);
  ASSERT_TRUE(val.ok());
  ASSERT_TRUE(val->has_value());
  EXPECT_EQ(**val, "socket/value");
}

// --- pipelining --------------------------------------------------------

TEST_F(LoopbackServerTest, PipelinedThreadsShareOneConnectionWithoutCrosstalk) {
  // Many threads, ONE transport, max_inflight deep: every response must
  // come back to the thread whose correlation id it carries. Each key
  // stores distinct bytes, so any misrouted response would surface as a
  // wrong-value failure, not a flake.
  net::SocketTransport::Options opts;
  opts.max_inflight = 8;
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server_->port(), &t, opts)
          .ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::vector<std::vector<std::pair<Hash, std::string>>> stored(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    for (int j = 0; j < kOpsPerThread; ++j) {
      const std::string payload =
          "pipelined-" + std::to_string(i) + "-" + std::to_string(j) +
          std::string(64 + (i * kOpsPerThread + j) % 128, 'q');
      stored[i].push_back({Sha256::Digest(payload), payload});
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (const auto& [hash, payload] : stored[i]) {
        auto put = t->Put(payload);
        if (!put.ok() || *put != hash) {
          failures.fetch_add(1);
          continue;
        }
        auto got = t->Get(hash);
        if (!got.ok() || **got != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto ts = t->stats();
  EXPECT_EQ(ts.retries, 0u);
  EXPECT_EQ(ts.reconnects, 0u);
  // 1 handshake + 2 RPCs per op, all down one connection.
  EXPECT_EQ(ts.rpcs, 1u + 2u * kThreads * kOpsPerThread);
  EXPECT_EQ(server_->stats().connections, 1u);
}

TEST(ServerFrameCapTest, RequestAtExactCapExecutesOneOverIsRejected) {
  // The decoder-boundary tests, replayed through the real server: a
  // request payload of exactly the server's max_frame_bytes executes; one
  // byte more draws the typed bad-frame reject (provably not executed)
  // and the connection drop.
  auto store = NewInMemoryNodeStore();
  ForkbaseServlet servlet(store);
  net::ServerOptions sopts;
  sopts.worker_threads = 1;
  sopts.group_flush_window_micros = 0;
  sopts.max_frame_bytes = 8192;
  net::SiriServer server(&servlet, sopts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());

  net::SocketTransport::Options copts;
  // The client's own frame cap must admit the response AND its request:
  // give it headroom so the server's bound is the one under test.
  copts.max_frame_bytes = 1 << 20;
  copts.retry.max_attempts = 1;
  std::shared_ptr<net::SocketTransport> t;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server.port(), &t, copts)
          .ok());

  // A kPut request payload is `type | corr varint | len varint | bytes`:
  // solve for the user bytes that land the payload exactly on the
  // server's cap. The first post-handshake RPC draws corr id 1 (a 1-byte
  // varint), and a ~8KB length is a 2-byte varint.
  const size_t overhead = 1 /*type*/ + 1 /*corr*/ + 2 /*len varint*/;
  const std::string at_cap(sopts.max_frame_bytes - overhead, 'z');
  auto put = t->Put(at_cap);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(*put, Sha256::Digest(at_cap));

  const std::string over_cap(sopts.max_frame_bytes - overhead + 1, 'z');
  auto rejected = t->Put(over_cap);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(server.stats().frame_errors, 1u);
  server.Stop();
}

// --- combiner-aware cache push -----------------------------------------

TEST_F(LoopbackServerTest, CachePushCutsLosingCommitterRoundTrips) {
  // Writer A lands a commit; writer B (push enabled) publishes against a
  // stale expectation and loses — the server merges, and the ack carries
  // the staged batch (merged pages + commit objects) back to B. B's next
  // reads of exactly those nodes must be cache hits, not Get RPCs.
  auto ta = Connect();
  ASSERT_NE(ta, nullptr);
  auto store_a = std::make_shared<ForkbaseClientStore>(ta, 16 << 20);

  net::SocketTransport::Options bopts;
  bopts.cache_push = true;
  bopts.max_inflight = 8;
  std::shared_ptr<net::SocketTransport> tb;
  ASSERT_TRUE(
      net::SocketTransport::Connect("127.0.0.1", server_->port(), &tb, bopts)
          .ok());
  auto store_b = std::make_shared<ForkbaseClientStore>(tb, 16 << 20);

  PosTree index_a(store_a);
  auto root_a = index_a.PutBatch(index_a.EmptyRoot(), MakeKvs(50));
  ASSERT_TRUE(root_a.ok());
  ASSERT_TRUE(store_a->Flush().ok());
  net::PublishRequest first;
  first.structure = "pos";
  first.branch = "main";
  first.new_root = *root_a;
  first.author = "a";
  first.message = "first";
  ASSERT_TRUE(ta->Publish(first).ok());

  // B builds from the empty root, unaware of A's commit: its publish
  // takes the contended merge path, which is exactly the path that
  // captures a staged batch to push.
  PosTree index_b(store_b);
  auto root_b = index_b.PutBatch(index_b.EmptyRoot(), {{"push/key", "v"}});
  ASSERT_TRUE(root_b.ok());
  ASSERT_TRUE(store_b->Flush().ok());
  net::PublishRequest second;
  second.structure = "pos";
  second.branch = "main";
  second.new_root = *root_b;
  second.author = "b";
  second.message = "second";
  auto published = tb->Publish(second);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  // The push arrived, digest-verified, at every layer's counter.
  const auto ts = tb->stats();
  ASSERT_GT(ts.pushed_nodes, 0u);
  EXPECT_GT(ts.pushed_bytes, 0u);
  EXPECT_GT(server_->stats().pushed_nodes, 0u);
  EXPECT_EQ(store_b->remote_stats().pushed_nodes, ts.pushed_nodes);

  // The merged head commit was in the staged batch: reading it back costs
  // B zero remote fetches.
  const uint64_t gets_before = store_b->remote_stats().remote_gets;
  auto head_commit = store_b->Get(published->head);
  ASSERT_TRUE(head_commit.ok());
  auto decoded = Commit::Decode(**head_commit);
  ASSERT_TRUE(decoded.ok());
  auto merged_root = store_b->Get(decoded->root);
  ASSERT_TRUE(merged_root.ok());
  EXPECT_EQ(store_b->remote_stats().remote_gets, gets_before)
      << "pushed nodes should have been cache hits";

  // Push is opt-in: A never asked, A never received.
  EXPECT_EQ(ta->stats().pushed_nodes, 0u);
  EXPECT_EQ(store_a->remote_stats().pushed_nodes, 0u);
}

// --- server options ----------------------------------------------------

TEST(ServerOptionsTest, GroupFsyncWindowOnByDefaultInServerMode) {
  // The policy split this struct documents: embedded stores default the
  // window OFF; a server turns it ON at Start.
  EXPECT_EQ(net::ServerOptions{}.group_flush_window_micros, 200u);

  const std::string path = ::testing::TempDir() + "/siri_server_opts_" +
                           std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path, &store).ok());
  EXPECT_EQ(store->group_flush_window_micros(), 0u)  // embedded default: OFF
      << "FileNodeStore must not delay flushes unless a server asks it to";

  ForkbaseServlet servlet(store);
  net::SiriServer server(&servlet);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(store->group_flush_window_micros(), 200u);  // server mode: ON
  server.Stop();
  std::remove(path.c_str());
}

TEST(ServerOptionsTest, ZeroWindowKeepsFlushesUndelayed) {
  const std::string path = ::testing::TempDir() + "/siri_server_opts0_" +
                           std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  std::shared_ptr<FileNodeStore> store;
  ASSERT_TRUE(FileNodeStore::Open(path, &store).ok());
  ForkbaseServlet servlet(store);
  net::ServerOptions opts;
  opts.group_flush_window_micros = 0;
  net::SiriServer server(&servlet, opts);
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(store->group_flush_window_micros(), 0u);
  server.Stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace siri
