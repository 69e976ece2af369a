#include "crypto/aes_ni.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace securecloud::crypto::detail {

#if defined(__x86_64__)

// Every function using the intrinsics carries this attribute, so the
// translation unit builds with the project's ordinary flags and the
// instructions only execute after cpu_has_aes_ni() said they exist.
#define SC_AESNI __attribute__((target("aes,pclmul,sse4.1")))

namespace {

constexpr int kStripe = 8;  // blocks in flight per CTR / GHASH step
constexpr std::size_t kStripeBytes = 16 * kStripe;

SC_AESNI inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

SC_AESNI inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// Aes keeps its schedule as native 32-bit words; AESENC wants each
// word's bytes in big-endian (FIPS-197 byte) order.
SC_AESNI inline __m128i load_round_key(const std::uint32_t* round_keys, int r) {
  const __m128i words = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 4 * r));
  const __m128i bswap32 = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  return _mm_shuffle_epi8(words, bswap32);
}

SC_AESNI inline void load_keys(const std::uint32_t* round_keys, int rounds, __m128i k[15]) {
  for (int r = 0; r <= rounds; ++r) k[r] = load_round_key(round_keys, r);
}

// Eight independent blocks through the rounds together, so each AESENC
// issues while the previous ones are still in the pipeline. The stripe
// loops are unrolled at every optimisation level so the blocks stay in
// registers.
SC_AESNI inline void encrypt8(const __m128i k[15], int rounds, __m128i b[kStripe]) {
  #pragma GCC unroll 8
  for (int j = 0; j < kStripe; ++j) b[j] = _mm_xor_si128(b[j], k[0]);
  for (int r = 1; r < rounds; ++r) {
    #pragma GCC unroll 8
    for (int j = 0; j < kStripe; ++j) b[j] = _mm_aesenc_si128(b[j], k[r]);
  }
  #pragma GCC unroll 8
  for (int j = 0; j < kStripe; ++j) b[j] = _mm_aesenclast_si128(b[j], k[rounds]);
}

// Counter blocks iv[0..12) || be32(c + j) for j < 8; uint32 arithmetic
// gives inc32's wrap mod 2^32.
SC_AESNI inline void counter_blocks(__m128i iv, std::uint32_t c, __m128i b[kStripe]) {
  #pragma GCC unroll 8
  for (int j = 0; j < kStripe; ++j) {
    const std::uint32_t counter = c + static_cast<std::uint32_t>(j);
    b[j] = _mm_insert_epi32(iv, static_cast<int>(__builtin_bswap32(counter)), 3);
  }
}

// Encrypts the last n < 128 bytes: one stripe of keystream, n bytes used.
SC_AESNI inline void ctr_tail(const __m128i k[15], int rounds, __m128i iv, std::uint32_t c,
                              const std::uint8_t* in, std::uint8_t* out, std::size_t n) {
  __m128i b[kStripe];
  counter_blocks(iv, c, b);
  encrypt8(k, rounds, b);
  std::uint8_t keystream[kStripeBytes];
  #pragma GCC unroll 8
  for (int j = 0; j < kStripe; ++j) store(keystream + 16 * j, b[j]);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(in[i] ^ keystream[i]);
}

// GHASH works on byte-reversed blocks: read as a little-endian 128-bit
// integer, the reversed block has the x^0 coefficient in its top bit,
// which is the bit-reflected order PCLMULQDQ multiplies in.
SC_AESNI inline __m128i bswap128(__m128i x) {
  return _mm_shuffle_epi8(x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// Unreduced 256-bit carry-less product, accumulated by XOR so a stripe of
// products is reduced once.
struct Wide {
  __m128i lo, mid, hi;
};

SC_AESNI inline void mul_acc(Wide& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                                 _mm_clmulepi64_si128(a, b, 0x01)));
}

// Reduces a reflected 256-bit product mod x^128 + x^7 + x^2 + x + 1
// (Gueron & Kounavis, "Intel Carry-Less Multiplication Instruction and
// its Usage for Computing the GCM Mode"): first a one-bit left shift,
// since the product of two reflected operands is reflected over 255
// bits, then the two-phase shift-and-XOR reduction.
SC_AESNI inline __m128i reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));

  __m128i t = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                            _mm_slli_epi32(lo, 25));
  const __m128i t_high = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  t = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                    _mm_srli_epi32(lo, 7));
  t = _mm_xor_si128(t, t_high);
  return _mm_xor_si128(hi, _mm_xor_si128(lo, t));
}

SC_AESNI inline __m128i gf_mul(__m128i a, __m128i b) {
  Wide acc{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
  mul_acc(acc, a, b);
  return reduce(acc);
}

// y ← (…((y ⊕ x_0)·H ⊕ x_1)·H … ⊕ x_{m-1})·H for 1 <= m <= 8, computed as
// Σ x'_j·H^{m-j} with one reduction; p[i] holds H^{i+1}.
SC_AESNI inline __m128i ghash_blocks(const __m128i p[kStripe], __m128i y, const __m128i* x,
                                     int m) {
  Wide acc{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
  mul_acc(acc, _mm_xor_si128(y, x[0]), p[m - 1]);
  #pragma GCC unroll 8
  for (int j = 1; j < m; ++j) mul_acc(acc, x[j], p[m - 1 - j]);
  return reduce(acc);
}

// Absorbs n bytes into y, zero-padding the last partial block.
SC_AESNI inline __m128i ghash_absorb(const __m128i p[kStripe], __m128i y,
                                     const std::uint8_t* data, std::size_t n) {
  __m128i x[kStripe];
  std::size_t off = 0;
  for (; off + kStripeBytes <= n; off += kStripeBytes) {
    #pragma GCC unroll 8
    for (int j = 0; j < kStripe; ++j) x[j] = bswap128(load(data + off + 16 * j));
    y = ghash_blocks(p, y, x, kStripe);
  }
  if (off < n) {
    std::uint8_t tail[kStripeBytes] = {};
    std::memcpy(tail, data + off, n - off);
    const int m = static_cast<int>((n - off + 15) / 16);
    for (int j = 0; j < m; ++j) x[j] = bswap128(load(tail + 16 * j));
    y = ghash_blocks(p, y, x, m);
  }
  return y;
}

SC_AESNI inline void load_powers(const std::uint8_t powers[128], __m128i p[kStripe]) {
  for (int i = 0; i < kStripe; ++i) p[i] = load(powers + 16 * i);
}

// Folds in the length block (64-bit bit-lengths of AAD and ciphertext)
// and writes S in GCM byte order.
SC_AESNI inline void ghash_finish(const __m128i p[kStripe], __m128i y, std::size_t aad_bytes,
                                  std::size_t ct_bytes, std::uint8_t s[16]) {
  const __m128i lengths = _mm_set_epi64x(static_cast<long long>(aad_bytes * 8),
                                         static_cast<long long>(ct_bytes * 8));
  store(s, bswap128(gf_mul(_mm_xor_si128(y, lengths), p[0])));
}

}  // namespace

bool cpu_has_aes_ni() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

SC_AESNI void aesni_encrypt_block(const std::uint32_t* round_keys, int rounds,
                                  const std::uint8_t in[16], std::uint8_t out[16]) {
  __m128i b = _mm_xor_si128(load(in), load_round_key(round_keys, 0));
  for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, load_round_key(round_keys, r));
  store(out, _mm_aesenclast_si128(b, load_round_key(round_keys, rounds)));
}

SC_AESNI void aesni_ctr_xor(const std::uint32_t* round_keys, int rounds,
                            const std::uint8_t iv16[16], const std::uint8_t* in,
                            std::uint8_t* out, std::size_t n) {
  __m128i k[15];
  load_keys(round_keys, rounds, k);
  const __m128i iv = load(iv16);
  std::uint32_t c = load_be32(ByteView(iv16 + 12, 4));
  std::size_t off = 0;
  for (; off + kStripeBytes <= n; off += kStripeBytes, c += kStripe) {
    __m128i b[kStripe];
    counter_blocks(iv, c, b);
    encrypt8(k, rounds, b);
    #pragma GCC unroll 8
    for (int j = 0; j < kStripe; ++j) {
      store(out + off + 16 * j, _mm_xor_si128(b[j], load(in + off + 16 * j)));
    }
  }
  if (off < n) ctr_tail(k, rounds, iv, c, in + off, out + off, n - off);
}

SC_AESNI void pclmul_ghash_powers(const std::uint8_t h[16], std::uint8_t powers[128]) {
  const __m128i h1 = bswap128(load(h));
  __m128i hi = h1;
  store(powers, h1);
  for (int i = 1; i < kStripe; ++i) {
    hi = gf_mul(hi, h1);
    store(powers + 16 * i, hi);
  }
}

SC_AESNI void pclmul_ghash(const std::uint8_t powers[128], ByteView aad, ByteView ciphertext,
                           std::uint8_t s[16]) {
  __m128i p[kStripe];
  load_powers(powers, p);
  __m128i y = ghash_absorb(p, _mm_setzero_si128(), aad.data(), aad.size());
  y = ghash_absorb(p, y, ciphertext.data(), ciphertext.size());
  ghash_finish(p, y, aad.size(), ciphertext.size(), s);
}

SC_AESNI void aesni_gcm_encrypt(const std::uint32_t* round_keys, int rounds,
                                const std::uint8_t powers[128], const std::uint8_t ctr16[16],
                                ByteView aad, const std::uint8_t* in, std::uint8_t* out,
                                std::size_t n, std::uint8_t s[16]) {
  __m128i k[15];
  load_keys(round_keys, rounds, k);
  __m128i p[kStripe];
  load_powers(powers, p);
  __m128i y = ghash_absorb(p, _mm_setzero_si128(), aad.data(), aad.size());

  const __m128i iv = load(ctr16);
  std::uint32_t c = load_be32(ByteView(ctr16 + 12, 4));
  std::size_t off = 0;
  for (; off + kStripeBytes <= n; off += kStripeBytes, c += kStripe) {
    __m128i b[kStripe];
    counter_blocks(iv, c, b);
    encrypt8(k, rounds, b);
    #pragma GCC unroll 8
    for (int j = 0; j < kStripe; ++j) {
      b[j] = _mm_xor_si128(b[j], load(in + off + 16 * j));
      store(out + off + 16 * j, b[j]);
      b[j] = bswap128(b[j]);
    }
    y = ghash_blocks(p, y, b, kStripe);
  }
  if (off < n) {
    ctr_tail(k, rounds, iv, c, in + off, out + off, n - off);
    y = ghash_absorb(p, y, out + off, n - off);
  }
  ghash_finish(p, y, aad.size(), n, s);
}

#else  // not x86-64: cpu_has_aes_ni() is false, so nothing below runs.

bool cpu_has_aes_ni() { return false; }
void aesni_encrypt_block(const std::uint32_t*, int, const std::uint8_t*, std::uint8_t*) {
  std::abort();
}
void aesni_ctr_xor(const std::uint32_t*, int, const std::uint8_t*, const std::uint8_t*,
                   std::uint8_t*, std::size_t) {
  std::abort();
}
void pclmul_ghash_powers(const std::uint8_t*, std::uint8_t*) { std::abort(); }
void pclmul_ghash(const std::uint8_t*, ByteView, ByteView, std::uint8_t*) { std::abort(); }
void aesni_gcm_encrypt(const std::uint32_t*, int, const std::uint8_t*, const std::uint8_t*,
                       ByteView, const std::uint8_t*, std::uint8_t*, std::size_t,
                       std::uint8_t*) {
  std::abort();
}

#endif

}  // namespace securecloud::crypto::detail
