// Copyright (c) 2026 The siri Authors. MIT license.

#include "crypto/sha256.h"

#include <cstring>

#include "common/hex.h"
#include "crypto/sha256_internal.h"

#ifdef SIRI_SHA256_HAVE_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace siri {

std::string Hash::ToHex() const { return HexEncode(AsSlice()); }

namespace sha256_internal {
namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void CompressPortable(uint32_t state[8], const uint8_t* p, size_t nblocks) {
  for (; nblocks > 0; --nblocks, p += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(p[i * 4]) << 24) |
             (static_cast<uint32_t>(p[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(p[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(p[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef SIRI_SHA256_HAVE_SHANI

// The kernel is compiled for the SHA extensions by attribute, not by a
// -msha flag, so every build of src/ (whatever its flags) carries it and
// the dispatcher decides at run time whether it may be called.
#define SIRI_SHANI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

namespace {

// Four rounds: the schedule words of group \p g plus their constants. The
// state is held as ABEF/CDGH, the layout sha256rnds2 works on.
SIRI_SHANI_TARGET inline void Rounds4(__m128i* abef, __m128i* cdgh, __m128i w,
                                      size_t g) {
  const __m128i msg = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, msg);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

// Finishes the schedule word group after \p cur: \p next already holds
// msg1 of its inputs; add the W[t-7] terms and apply msg2.
SIRI_SHANI_TARGET inline __m128i NextWords(__m128i next, __m128i cur,
                                           __m128i prev) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
}

}  // namespace

SIRI_SHANI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t* p,
                                     size_t nblocks) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(p);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);

    Rounds4(&abef, &cdgh, w0, 0);
    Rounds4(&abef, &cdgh, w1, 1);
    w0 = _mm_sha256msg1_epu32(w0, w1);
    Rounds4(&abef, &cdgh, w2, 2);
    w1 = _mm_sha256msg1_epu32(w1, w2);
    Rounds4(&abef, &cdgh, w3, 3);
    w0 = NextWords(w0, w3, w2);
    w2 = _mm_sha256msg1_epu32(w2, w3);
    // Groups 4..15 rotate through w0..w3. Group g's words finish group
    // g+1 (msg2, through group 15) and start group g+3 (msg1, likewise).
    for (size_t g = 4; g < 16; g += 4) {
      Rounds4(&abef, &cdgh, w0, g);
      w1 = NextWords(w1, w0, w3);
      w3 = _mm_sha256msg1_epu32(w3, w0);
      Rounds4(&abef, &cdgh, w1, g + 1);
      w2 = NextWords(w2, w1, w0);
      if (g < 12) w0 = _mm_sha256msg1_epu32(w0, w1);
      Rounds4(&abef, &cdgh, w2, g + 2);
      w3 = NextWords(w3, w2, w1);
      if (g < 12) w1 = _mm_sha256msg1_epu32(w1, w2);
      Rounds4(&abef, &cdgh, w3, g + 3);
      if (g < 12) {
        w0 = NextWords(w0, w3, w2);
        w2 = _mm_sha256msg1_epu32(w2, w3);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool ShaNiSupported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#else

bool ShaNiSupported() { return false; }

#endif  // SIRI_SHA256_HAVE_SHANI

}  // namespace sha256_internal

namespace {

struct Kernel {
  sha256_internal::CompressFn compress;
  const char* name;
};

// Chosen once, on first use. A function-local static (rather than a
// namespace-scope one) keeps digests computed during other translation
// units' static initialization safe.
const Kernel& ActiveKernel() {
  static const Kernel kernel = [] {
#ifdef SIRI_SHA256_HAVE_SHANI
    if (sha256_internal::ShaNiSupported()) {
      return Kernel{sha256_internal::CompressShaNi, "sha-ni"};
    }
#endif
    return Kernel{sha256_internal::CompressPortable, "portable"};
  }();
  return kernel;
}

// Resolve at static init so the first digest does not pay for CPUID.
[[maybe_unused]] const Kernel& kResolvedAtStartup = ActiveKernel();

}  // namespace

const char* Sha256::KernelName() { return ActiveKernel().name; }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  const sha256_internal::CompressFn compress = ActiveKernel().compress;

  if (buffer_len_ > 0) {
    const size_t need = 64 - buffer_len_;
    const size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Every full block in one kernel call.
  const size_t nblocks = len / 64;
  if (nblocks > 0) {
    compress(state_, p, nblocks);
    p += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash Sha256::Finish() {
  const sha256_internal::CompressFn compress = ActiveKernel().compress;
  // 0x80, zero fill to 56 mod 64, then the 64-bit big-endian bit length —
  // written straight into the buffer (one extra block if the 0x80 and the
  // length do not both fit).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - i * 8));
  }
  compress(state_, buffer_, 1);
  buffer_len_ = 0;

  uint8_t out[32];
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return Hash::FromBytes(out);
}

Hash Sha256::Digest(Slice data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

}  // namespace siri
