// Copyright (c) 2026 The siri Authors. MIT license.
//
// Clean-room SHA-256 (FIPS 180-4). This is the tamper-evidence substrate:
// every index node is serialized and digested through this module, and a
// version's root digest commits to the entire tree.
//
// Block compression is dispatched at run time. On x86 CPUs whose CPUID
// reports SHA, SSSE3 and SSE4.1 it runs the SHA extensions kernel
// (sha256rnds2/msg1/msg2; 3x the portable kernel's speed on a 32-byte
// message, 6-8x from 512 bytes up); everywhere else it runs the portable
// C++ kernel. Both give bit-identical digests. The CPU is probed once, at
// static init; there is no option to force a kernel.
//
// The x86 kernel is compiled with __attribute__((target("sha,sse4.1,ssse3")))
// rather than a per-file -msha flag: perfbench/ compiles src/*.cc with its
// own flags, and an attribute travels with the source into every build,
// while keeping the rest of the file (and the binary) baseline x86. Other
// architectures compile only the portable kernel.

#ifndef SIRI_CRYPTO_SHA256_H_
#define SIRI_CRYPTO_SHA256_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "crypto/hash.h"

namespace siri {

/// \brief Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(Slice s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the digest. The context must be Reset() before
  /// reuse.
  Hash Finish();

  /// One-shot convenience.
  static Hash Digest(Slice data);

  /// The block kernel the dispatcher chose: "sha-ni" or "portable".
  static const char* KernelName();

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace siri

#endif  // SIRI_CRYPTO_SHA256_H_
