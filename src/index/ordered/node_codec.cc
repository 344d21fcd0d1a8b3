// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/ordered/node_codec.h"

#include "common/varint.h"

namespace siri {

namespace {

// The fewest bytes one encoded entry can take: a leaf entry is two
// length prefixes (one byte each at least), an internal entry a length
// prefix and a child digest. A page claiming more entries than its body
// could hold is corrupt; rejecting it before reserve() keeps a lying
// count from asking for terabytes.
constexpr uint64_t kMinLeafEntryBytes = 2;
constexpr uint64_t kMinInternalEntryBytes = 1 + Hash::kSize;

}  // namespace

void AppendLeafEntryBytes(std::string* out, Slice key, Slice value) {
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, value);
}

void AppendChildEntryBytes(std::string* out, Slice key, const Hash& h) {
  PutLengthPrefixed(out, key);
  out->append(reinterpret_cast<const char*>(h.data()), Hash::kSize);
}

std::string EncodeLeafFromPayload(uint64_t entry_count, Slice payload,
                                  uint64_t salt) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.push_back(kLeafTag);
  PutVarint64(&out, salt);
  PutVarint64(&out, entry_count);
  out.append(payload.data(), payload.size());
  return out;
}

std::string EncodeInternalFromPayload(uint64_t entry_count, Slice payload,
                                      uint64_t salt) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.push_back(kInternalTag);
  PutVarint64(&out, salt);
  PutVarint64(&out, entry_count);
  out.append(payload.data(), payload.size());
  return out;
}

std::string EncodeLeaf(const std::vector<KV>& entries, uint64_t salt) {
  std::string payload;
  for (const KV& e : entries) AppendLeafEntryBytes(&payload, e.key, e.value);
  return EncodeLeafFromPayload(entries.size(), payload, salt);
}

std::string EncodeInternal(const std::vector<ChildEntry>& entries,
                           uint64_t salt) {
  std::string payload;
  for (const ChildEntry& e : entries) {
    AppendChildEntryBytes(&payload, e.key, e.hash);
  }
  return EncodeInternalFromPayload(entries.size(), payload, salt);
}

bool IsLeafNode(Slice node) { return !node.empty() && node[0] == kLeafTag; }

Status DecodeLeaf(Slice node, std::vector<KV>* entries) {
  if (node.empty() || node[0] != kLeafTag) {
    return Status::Corruption("not a leaf node");
  }
  node.remove_prefix(1);
  uint64_t salt = 0;
  if (!GetVarint64(&node, &salt)) return Status::Corruption("bad leaf salt");
  uint64_t n = 0;
  if (!GetVarint64(&node, &n)) return Status::Corruption("bad leaf count");
  if (n > node.size() / kMinLeafEntryBytes) {
    return Status::Corruption("leaf count exceeds page");
  }
  entries->clear();
  entries->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    KV kv;
    if (!GetLengthPrefixed(&node, &kv.key) ||
        !GetLengthPrefixed(&node, &kv.value)) {
      return Status::Corruption("truncated leaf entry");
    }
    entries->push_back(std::move(kv));
  }
  if (!node.empty()) return Status::Corruption("trailing bytes in leaf");
  return Status::OK();
}

Status DecodeInternal(Slice node, std::vector<ChildEntry>* entries) {
  if (node.empty() || node[0] != kInternalTag) {
    return Status::Corruption("not an internal node");
  }
  node.remove_prefix(1);
  uint64_t salt = 0;
  if (!GetVarint64(&node, &salt)) {
    return Status::Corruption("bad internal salt");
  }
  uint64_t n = 0;
  if (!GetVarint64(&node, &n)) return Status::Corruption("bad internal count");
  if (n > node.size() / kMinInternalEntryBytes) {
    return Status::Corruption("internal count exceeds page");
  }
  entries->clear();
  entries->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChildEntry e;
    if (!GetLengthPrefixed(&node, &e.key)) {
      return Status::Corruption("truncated internal key");
    }
    if (node.size() < Hash::kSize) {
      return Status::Corruption("truncated child digest");
    }
    e.hash = Hash::FromBytes(node.data());
    node.remove_prefix(Hash::kSize);
    entries->push_back(std::move(e));
  }
  if (!node.empty()) return Status::Corruption("trailing bytes in internal");
  return Status::OK();
}

size_t ChildIndexFor(const std::vector<ChildEntry>& entries, Slice key) {
  // Last entry with entry.key <= key; 0 when key sorts before everything.
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Slice(entries[mid].key).compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

size_t LeafLowerBound(const std::vector<KV>& entries, Slice key, bool* found) {
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Slice(entries[mid].key).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < entries.size() && Slice(entries[lo].key) == key;
  return lo;
}

namespace {

// Parses a length-prefixed field as a view into the input.
bool GetLengthPrefixedView(Slice* in, Slice* out) {
  uint64_t len = 0;
  if (!GetVarint64(in, &len)) return false;
  if (in->size() < len) return false;
  *out = Slice(in->data(), len);
  in->remove_prefix(len);
  return true;
}

}  // namespace

Status DecodeLeafViews(Slice node, std::vector<LeafView>* entries) {
  if (node.empty() || node[0] != kLeafTag) {
    return Status::Corruption("not a leaf node");
  }
  node.remove_prefix(1);
  uint64_t salt = 0, n = 0;
  if (!GetVarint64(&node, &salt) || !GetVarint64(&node, &n)) {
    return Status::Corruption("bad leaf header");
  }
  if (n > node.size() / kMinLeafEntryBytes) {
    return Status::Corruption("leaf count exceeds page");
  }
  entries->clear();
  entries->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LeafView v;
    if (!GetLengthPrefixedView(&node, &v.key) ||
        !GetLengthPrefixedView(&node, &v.value)) {
      return Status::Corruption("truncated leaf entry");
    }
    entries->push_back(v);
  }
  if (!node.empty()) return Status::Corruption("trailing bytes in leaf");
  return Status::OK();
}

Status DecodeInternalViews(Slice node, std::vector<ChildView>* entries) {
  if (node.empty() || node[0] != kInternalTag) {
    return Status::Corruption("not an internal node");
  }
  node.remove_prefix(1);
  uint64_t salt = 0, n = 0;
  if (!GetVarint64(&node, &salt) || !GetVarint64(&node, &n)) {
    return Status::Corruption("bad internal header");
  }
  if (n > node.size() / kMinInternalEntryBytes) {
    return Status::Corruption("internal count exceeds page");
  }
  entries->clear();
  entries->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChildView v;
    if (!GetLengthPrefixedView(&node, &v.key)) {
      return Status::Corruption("truncated internal key");
    }
    if (node.size() < Hash::kSize) {
      return Status::Corruption("truncated child digest");
    }
    v.hash = Slice(node.data(), Hash::kSize);
    node.remove_prefix(Hash::kSize);
    entries->push_back(v);
  }
  if (!node.empty()) return Status::Corruption("trailing bytes in internal");
  return Status::OK();
}

size_t ChildIndexForViews(const std::vector<ChildView>& entries, Slice key) {
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (entries[mid].key.compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

size_t LeafLowerBoundViews(const std::vector<LeafView>& entries, Slice key,
                           bool* found) {
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (entries[mid].key.compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < entries.size() && entries[lo].key == key;
  return lo;
}

}  // namespace siri
