// Copyright (c) 2026 The siri Authors. MIT license.

#include "net/wire.h"

#include "common/varint.h"
#include "crypto/sha256.h"

namespace siri {
namespace net {

namespace {

// A varint is at most 10 bytes; if that many are buffered and none
// terminates the length, the stream is garbage, not merely short.
constexpr size_t kMaxVarintBytes = 10;

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed wire message: ") + what);
}

// Every decode must consume the body exactly: trailing bytes mean the two
// sides disagree about the message layout, which is unrecoverable.
Status CheckDrained(const Slice& in) {
  return in.empty() ? Status::OK() : Malformed("trailing bytes");
}

}  // namespace

void PutHash(std::string* dst, const Hash& h) {
  dst->append(reinterpret_cast<const char*>(h.data()), Hash::kSize);
}

bool GetHash(Slice* in, Hash* h) {
  if (in->size() < Hash::kSize) return false;
  *h = Hash::FromBytes(in->data());
  in->remove_prefix(Hash::kSize);
  return true;
}

std::string EncodeRequest(const Request& req) {
  std::string out;
  out.push_back(static_cast<char>(req.type));
  // Every request but the id-less Hello opens with the correlation id its
  // response must echo.
  if (req.type != MsgType::kHello) {
    PutVarint64(&out, req.corr_id);
  }
  switch (req.type) {
    case MsgType::kHello:
      PutVarint64(&out, req.version);
      break;
    case MsgType::kGet:
    case MsgType::kContains:
    case MsgType::kSizeOf:
      PutHash(&out, req.hash);
      break;
    case MsgType::kPut:
      PutLengthPrefixed(&out, req.bytes);
      break;
    case MsgType::kPutMany:
      PutVarint64(&out, req.batch.size());
      for (const NodeRecord& rec : req.batch) {
        PutHash(&out, rec.hash);
        PutLengthPrefixed(&out, *rec.bytes);
      }
      break;
    case MsgType::kHead:
    case MsgType::kBranchStats:
      PutLengthPrefixed(&out, req.branch);
      break;
    case MsgType::kPublish:
      PutLengthPrefixed(&out, req.structure);
      PutLengthPrefixed(&out, req.branch);
      PutHash(&out, req.new_root);
      PutLengthPrefixed(&out, req.author);
      PutLengthPrefixed(&out, req.message);
      out.push_back(req.expected_head.has_value() ? 1 : 0);
      if (req.expected_head.has_value()) PutHash(&out, *req.expected_head);
      out.push_back(req.want_push ? 1 : 0);
      break;
    case MsgType::kGetPath:
      PutLengthPrefixed(&out, req.structure);
      PutHash(&out, req.hash);
      PutLengthPrefixed(&out, req.key);
      PutVarint64(&out, req.skip);
      break;
    case MsgType::kFlush:
    case MsgType::kStoreStats:
    case MsgType::kResetCounters:
    case MsgType::kListBranches:
      break;  // empty body
    case MsgType::kResponse:
      break;  // never encoded as a request
  }
  return out;
}

Status DecodeRequest(Slice payload, Request* out) {
  if (payload.empty()) return Malformed("empty payload");
  const uint8_t type = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  *out = Request{};
  out->type = static_cast<MsgType>(type);
  if (out->type != MsgType::kHello) {
    if (!GetVarint64(&payload, &out->corr_id)) {
      return Malformed("correlation id");
    }
  }
  switch (out->type) {
    case MsgType::kHello: {
      uint64_t v = 0;
      if (!GetVarint64(&payload, &v) || v > UINT32_MAX) {
        return Malformed("hello version");
      }
      out->version = static_cast<uint32_t>(v);
      break;
    }
    case MsgType::kGet:
    case MsgType::kContains:
    case MsgType::kSizeOf:
      if (!GetHash(&payload, &out->hash)) return Malformed("hash");
      break;
    case MsgType::kPut:
      if (!GetLengthPrefixed(&payload, &out->bytes)) {
        return Malformed("put bytes");
      }
      break;
    case MsgType::kPutMany: {
      uint64_t count = 0;
      if (!GetVarint64(&payload, &count)) return Malformed("batch count");
      // Each record needs at least a digest + a length byte, so an honest
      // count never exceeds the remaining bytes — reject before reserving.
      if (count > payload.size()) return Malformed("batch count");
      out->batch.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        NodeRecord rec;
        std::string bytes;
        if (!GetHash(&payload, &rec.hash) ||
            !GetLengthPrefixed(&payload, &bytes)) {
          return Malformed("batch record");
        }
        rec.bytes = std::make_shared<const std::string>(std::move(bytes));
        out->batch.push_back(std::move(rec));
      }
      break;
    }
    case MsgType::kHead:
    case MsgType::kBranchStats:
      if (!GetLengthPrefixed(&payload, &out->branch)) {
        return Malformed("branch name");
      }
      break;
    case MsgType::kPublish: {
      if (!GetLengthPrefixed(&payload, &out->structure) ||
          !GetLengthPrefixed(&payload, &out->branch) ||
          !GetHash(&payload, &out->new_root) ||
          !GetLengthPrefixed(&payload, &out->author) ||
          !GetLengthPrefixed(&payload, &out->message) || payload.empty()) {
        return Malformed("publish");
      }
      const uint8_t has_expected = static_cast<uint8_t>(payload[0]);
      payload.remove_prefix(1);
      if (has_expected > 1) return Malformed("publish expected flag");
      if (has_expected) {
        Hash h;
        if (!GetHash(&payload, &h)) return Malformed("publish expected head");
        out->expected_head = h;
      }
      if (payload.empty()) return Malformed("publish want-push flag");
      const uint8_t want = static_cast<uint8_t>(payload[0]);
      payload.remove_prefix(1);
      if (want > 1) return Malformed("publish want-push flag");
      out->want_push = want != 0;
      break;
    }
    case MsgType::kGetPath:
      if (!GetLengthPrefixed(&payload, &out->structure) ||
          !GetHash(&payload, &out->hash) ||
          !GetLengthPrefixed(&payload, &out->key) ||
          !GetVarint64(&payload, &out->skip)) {
        return Malformed("get path");
      }
      break;
    case MsgType::kFlush:
    case MsgType::kStoreStats:
    case MsgType::kResetCounters:
    case MsgType::kListBranches:
      break;
    default:
      return Malformed("unknown request type");
  }
  return CheckDrained(payload);
}

Status StatusFromWire(uint8_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(message));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kConflict:
      return Status::Conflict(std::move(message));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Status::Code::kIOError:
      return Status::IOError(std::move(message));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(message));
  }
  return Status::IOError("unknown wire status code: " + std::move(message));
}

bool IsBadFrameReject(const Status& s) {
  return s.IsCorruption() &&
         s.message().compare(0, sizeof(kBadFramePrefix) - 1, kBadFramePrefix) ==
             0;
}

bool IsDegradedReject(const Status& s) {
  return (s.IsResourceExhausted() || s.IsUnavailable()) &&
         s.message().compare(0, sizeof(kDegradedPrefix) - 1, kDegradedPrefix) ==
             0;
}

namespace {

// Every response shares one layout; the Hello form just omits the id.
std::string EncodeResponseImpl(const Status& app, Slice body, bool has_corr,
                               uint64_t corr_id) {
  std::string out;
  out.push_back(static_cast<char>(MsgType::kResponse));
  if (has_corr) PutVarint64(&out, corr_id);
  out.push_back(static_cast<char>(app.code()));
  PutLengthPrefixed(&out, app.message());
  out.append(body.data(), body.size());
  return out;
}

Status DecodeResponseImpl(Slice payload, Status* app, std::string* body,
                          bool has_corr, uint64_t* corr_id) {
  if (payload.empty() ||
      static_cast<MsgType>(payload[0]) != MsgType::kResponse) {
    return Malformed("not a response");
  }
  payload.remove_prefix(1);
  uint64_t corr = 0;
  if (has_corr && !GetVarint64(&payload, &corr)) {
    return Malformed("response correlation id");
  }
  if (corr_id != nullptr) *corr_id = corr;
  if (payload.empty()) return Malformed("response code");
  const uint8_t code = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  std::string message;
  if (!GetLengthPrefixed(&payload, &message)) {
    return Malformed("response message");
  }
  *app = StatusFromWire(code, std::move(message));
  body->assign(payload.data(), payload.size());
  return Status::OK();
}

}  // namespace

std::string EncodeResponse(const Status& app, Slice body, uint64_t corr_id) {
  return EncodeResponseImpl(app, body, /*has_corr=*/true, corr_id);
}

Status DecodeResponse(Slice payload, Status* app, std::string* body,
                      uint64_t* corr_id) {
  return DecodeResponseImpl(payload, app, body, /*has_corr=*/true, corr_id);
}

std::string EncodeHelloResponse(const Status& app, Slice body) {
  return EncodeResponseImpl(app, body, /*has_corr=*/false, 0);
}

Status DecodeHelloResponse(Slice payload, Status* app, std::string* body) {
  return DecodeResponseImpl(payload, app, body, /*has_corr=*/false, nullptr);
}

std::string EncodePublishResultBody(const WirePublishResult& r) {
  std::string out;
  PutHash(&out, r.head);
  PutHash(&out, r.commit);
  PutVarint64(&out, r.cas_failures);
  PutVarint64(&out, r.merge_commits);
  PutVarint64(&out, r.pushed.size());
  for (const NodeRecord& rec : r.pushed) {
    PutHash(&out, rec.hash);
    PutLengthPrefixed(&out, *rec.bytes);
  }
  return out;
}

Status DecodePublishResultBody(Slice body, WirePublishResult* r) {
  if (!GetHash(&body, &r->head) || !GetHash(&body, &r->commit) ||
      !GetVarint64(&body, &r->cas_failures) ||
      !GetVarint64(&body, &r->merge_commits)) {
    return Malformed("publish result");
  }
  r->pushed.clear();
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) return Malformed("push count");
  // Each pushed record needs at least a digest + a length byte, so an
  // honest count never exceeds the remaining bytes.
  if (count > body.size()) return Malformed("push count");
  r->pushed.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    NodeRecord rec;
    std::string bytes;
    if (!GetHash(&body, &rec.hash) || !GetLengthPrefixed(&body, &bytes)) {
      return Malformed("pushed record");
    }
    rec.bytes = std::make_shared<const std::string>(std::move(bytes));
    r->pushed.push_back(std::move(rec));
  }
  return CheckDrained(body);
}

std::string EncodeBranchStatsBody(const BranchStats& s) {
  std::string out;
  PutVarint64(&out, s.commits);
  PutVarint64(&out, s.cas_failures);
  PutVarint64(&out, s.merge_retries);
  PutVarint64(&out, s.combined_commits);
  return out;
}

Status DecodeBranchStatsBody(Slice body, BranchStats* s) {
  if (!GetVarint64(&body, &s->commits) ||
      !GetVarint64(&body, &s->cas_failures) ||
      !GetVarint64(&body, &s->merge_retries) ||
      !GetVarint64(&body, &s->combined_commits)) {
    return Malformed("branch stats");
  }
  return CheckDrained(body);
}

std::string EncodeStoreStatsBody(const NodeStore::Stats& s) {
  std::string out;
  PutVarint64(&out, s.puts);
  PutVarint64(&out, s.put_bytes);
  PutVarint64(&out, s.dup_puts);
  PutVarint64(&out, s.gets);
  PutVarint64(&out, s.get_bytes);
  PutVarint64(&out, s.unique_nodes);
  PutVarint64(&out, s.unique_bytes);
  PutVarint64(&out, s.flushes);
  return out;
}

Status DecodeStoreStatsBody(Slice body, NodeStore::Stats* s) {
  if (!GetVarint64(&body, &s->puts) || !GetVarint64(&body, &s->put_bytes) ||
      !GetVarint64(&body, &s->dup_puts) || !GetVarint64(&body, &s->gets) ||
      !GetVarint64(&body, &s->get_bytes) ||
      !GetVarint64(&body, &s->unique_nodes) ||
      !GetVarint64(&body, &s->unique_bytes) ||
      !GetVarint64(&body, &s->flushes)) {
    return Malformed("store stats");
  }
  return CheckDrained(body);
}

std::string EncodePathBody(const std::vector<std::string>& nodes) {
  std::string out;
  PutVarint64(&out, nodes.size());
  for (const std::string& n : nodes) PutLengthPrefixed(&out, n);
  return out;
}

Status DecodePathBody(Slice body,
                      std::vector<std::shared_ptr<const std::string>>* nodes) {
  uint64_t count = 0;
  // Each node needs at least its length byte, so an honest count never
  // exceeds the bytes left — reject before reserving.
  if (!GetVarint64(&body, &count) || count > body.size()) {
    return Malformed("path count");
  }
  nodes->clear();
  nodes->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!GetVarint64(&body, &len) || len > body.size()) {
      return Malformed("path node");
    }
    nodes->push_back(std::make_shared<const std::string>(body.data(), len));
    body.remove_prefix(len);
  }
  return CheckDrained(body);
}

std::string EncodeStringListBody(const std::vector<std::string>& v) {
  std::string out;
  PutVarint64(&out, v.size());
  for (const std::string& s : v) PutLengthPrefixed(&out, s);
  return out;
}

Status DecodeStringListBody(Slice body, std::vector<std::string>* v) {
  uint64_t count = 0;
  if (!GetVarint64(&body, &count) || count > body.size()) {
    return Malformed("string list count");
  }
  v->clear();
  v->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    if (!GetLengthPrefixed(&body, &s)) return Malformed("string list entry");
    v->push_back(std::move(s));
  }
  return CheckDrained(body);
}

std::string EncodeFrame(Slice payload) {
  std::string out;
  AppendDigestRecord(&out, Sha256::Digest(payload), payload);
  return out;
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  Slice in(buf_.data() + off_, buf_.size() - off_);
  if (in.empty()) return false;

  // Peek the length first so oversized / garbled lengths surface as typed
  // errors instead of "need more bytes" forever. The wrap-safe arithmetic
  // stays in record_io.h; this probe only classifies.
  Slice probe = in;
  uint64_t len = 0;
  if (!GetVarint64(&probe, &len)) {
    if (in.size() >= kMaxVarintBytes) {
      return Status::Corruption("malformed frame length varint");
    }
    return false;  // the varint itself may still be arriving
  }
  if (len > max_frame_bytes_) {
    return Status::Corruption("oversized frame: " + std::to_string(len) +
                              " bytes exceeds limit of " +
                              std::to_string(max_frame_bytes_));
  }

  Slice rec = in;
  Hash stored;
  if (!ReadDigestRecord(&rec, payload, &stored)) {
    return false;  // torn: the rest of the frame has not arrived yet
  }
  if (Sha256::Digest(*payload) != stored) {
    payload->clear();
    return Status::Corruption("frame digest mismatch");
  }
  off_ += in.size() - rec.size();
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer does not grow without bound.
  if (off_ > 4096 && off_ >= buf_.size() / 2) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return true;
}

}  // namespace net
}  // namespace siri
