// Copyright (c) 2026 The siri Authors. MIT license.
//
// Nibble (4-bit character) utilities for the Merkle Patricia Trie. MPT
// splits each key byte into two nibbles, high first, so lexicographic
// order over nibble sequences equals lexicographic order over byte keys
// (§3.4.1's "the key is split into sequential characters, namely nibbles").

#ifndef SIRI_INDEX_MPT_NIBBLES_H_
#define SIRI_INDEX_MPT_NIBBLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace siri {

using Nibbles = std::vector<uint8_t>;

/// Expands a byte key into its nibble sequence (2 nibbles per byte).
Nibbles KeyToNibbles(Slice key);

/// Packs an even-length nibble sequence back into bytes. SIRI_CHECKs that
/// the length is even (every complete key has an even nibble count).
std::string NibblesToKey(const Nibbles& nibbles);

/// Length of the longest common prefix of two nibble spans.
size_t CommonNibblePrefix(const uint8_t* a, size_t alen, const uint8_t* b,
                          size_t blen);

/// Appends a compact path encoding: varint count followed by packed nibble
/// bytes (the equivalent of Ethereum's hex-prefix encoding).
void EncodeNibblePath(std::string* out, const uint8_t* nibbles, size_t count);

/// Parses a compact path encoding, advancing \p in. Returns false on
/// malformed input: a count longer than the input, or a non-zero pad
/// nibble after an odd-length path (so every path has one encoding).
bool DecodeNibblePath(Slice* in, Nibbles* out);

}  // namespace siri

#endif  // SIRI_INDEX_MPT_NIBBLES_H_
