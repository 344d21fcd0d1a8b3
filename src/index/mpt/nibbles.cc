// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/mpt/nibbles.h"

#include "common/status.h"
#include "common/varint.h"

namespace siri {

Nibbles KeyToNibbles(Slice key) {
  Nibbles out;
  out.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); ++i) {
    const uint8_t b = static_cast<uint8_t>(key[i]);
    out.push_back(b >> 4);
    out.push_back(b & 0xf);
  }
  return out;
}

std::string NibblesToKey(const Nibbles& nibbles) {
  SIRI_CHECK(nibbles.size() % 2 == 0);
  std::string out;
  out.reserve(nibbles.size() / 2);
  for (size_t i = 0; i < nibbles.size(); i += 2) {
    out.push_back(static_cast<char>((nibbles[i] << 4) | nibbles[i + 1]));
  }
  return out;
}

size_t CommonNibblePrefix(const uint8_t* a, size_t alen, const uint8_t* b,
                          size_t blen) {
  const size_t n = alen < blen ? alen : blen;
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

void EncodeNibblePath(std::string* out, const uint8_t* nibbles, size_t count) {
  PutVarint64(out, count);
  uint8_t cur = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      cur = static_cast<uint8_t>(nibbles[i] << 4);
      if (i + 1 == count) out->push_back(static_cast<char>(cur));
    } else {
      cur |= nibbles[i];
      out->push_back(static_cast<char>(cur));
    }
  }
}

bool DecodeNibblePath(Slice* in, Nibbles* out) {
  uint64_t count = 0;
  if (!GetVarint64(in, &count)) return false;
  // Bound the count before any arithmetic: (count + 1) wraps at UINT64_MAX.
  if (count > 2 * static_cast<uint64_t>(in->size())) return false;
  const size_t bytes = (count + 1) / 2;
  if (in->size() < bytes) return false;
  // An odd path's pad nibble must be zero, or one path has two encodings.
  if (count % 2 == 1 && (static_cast<uint8_t>((*in)[bytes - 1]) & 0xf) != 0) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t b = static_cast<uint8_t>((*in)[i / 2]);
    out->push_back(i % 2 == 0 ? (b >> 4) : (b & 0xf));
  }
  in->remove_prefix(bytes);
  return true;
}

}  // namespace siri
