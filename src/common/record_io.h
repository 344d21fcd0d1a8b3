// Copyright (c) 2026 The siri Authors. MIT license.
//
// Shared framing of digest-carrying log records: `varint payload-length |
// 32-byte SHA-256 digest | payload`. Both append-only logs — the page log
// (store/file_store.cc) and the branch-head ref log (version/ref_log.cc)
// — use this exact frame, so the subtle bounds logic (a corrupt varint
// can decode to a length near UINT64_MAX, and a naive `kSize + len` check
// would wrap) lives in one place. Digest *verification* stays with the
// caller: the page log verifies against the payload, the ref log verifies
// inline during replay.

#ifndef SIRI_COMMON_RECORD_IO_H_
#define SIRI_COMMON_RECORD_IO_H_

#include <string>

#include "common/slice.h"
#include "common/varint.h"
#include "crypto/hash.h"

namespace siri {

/// Parses one framed record from *in (advancing it); *payload points into
/// the input, so it is valid only as long as the input bytes are. Returns
/// false when the remaining bytes do not frame a whole record (torn tail /
/// corrupt length). Does NOT verify the digest.
inline bool ReadDigestRecord(Slice* in, Slice* payload, Hash* stored) {
  uint64_t len = 0;
  if (!GetVarint64(in, &len)) return false;
  if (in->size() < Hash::kSize || in->size() - Hash::kSize < len) return false;
  *stored = Hash::FromBytes(in->data());
  in->remove_prefix(Hash::kSize);
  *payload = Slice(in->data(), static_cast<size_t>(len));
  in->remove_prefix(static_cast<size_t>(len));
  return true;
}

/// Same, copying the payload into *payload.
inline bool ReadDigestRecord(Slice* in, std::string* payload, Hash* stored) {
  Slice view;
  if (!ReadDigestRecord(in, &view, stored)) return false;
  payload->assign(view.data(), view.size());
  return true;
}

/// Serializes one `varint len | digest | payload` record into \p out.
inline void AppendDigestRecord(std::string* out, const Hash& digest,
                               Slice payload) {
  PutVarint64(out, payload.size());
  out->append(reinterpret_cast<const char*>(digest.data()), Hash::kSize);
  out->append(payload.data(), payload.size());
}

}  // namespace siri

#endif  // SIRI_COMMON_RECORD_IO_H_
