// Copyright (c) 2026 The siri Authors. MIT license.
//
// SHA-256 block-compression kernels behind Sha256's runtime dispatch.
// Exposed only so tests can run each kernel directly and check them against
// each other; everything else goes through Sha256.

#ifndef SIRI_CRYPTO_SHA256_INTERNAL_H_
#define SIRI_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define SIRI_SHA256_HAVE_SHANI 1
#endif

namespace siri {
namespace sha256_internal {

/// Compresses \p nblocks consecutive 64-byte blocks into \p state.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks);

/// FIPS 180-4 reference rounds in plain C++; runs everywhere.
void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t nblocks);

#ifdef SIRI_SHA256_HAVE_SHANI
/// x86 SHA extensions kernel. Only call it when ShaNiSupported().
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t nblocks);
#endif

/// True when CPUID reports SHA, SSSE3 and SSE4.1 (always false off x86).
bool ShaNiSupported();

}  // namespace sha256_internal
}  // namespace siri

#endif  // SIRI_CRYPTO_SHA256_INTERNAL_H_
