#include "crypto/gcm.hpp"

#include <bit>

#include "crypto/aes_ni.hpp"
#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"  // constant_time_equal

namespace securecloud::crypto {

namespace {

using Gf128Pair = std::pair<std::uint64_t, std::uint64_t>;

// One multiply by x in GF(2^128), GCM bit order (bit 0 = MSB): shift the
// element right one bit and reduce by the GCM polynomial when the x^127
// coefficient falls off. See SP 800-38D §6.3.
template <typename Gf>
Gf gf_shift_reduce(Gf v) {
  const bool lsb = (v.lo & 1) != 0;
  v.lo = (v.lo >> 1) | (v.hi << 63);
  v.hi >>= 1;
  if (lsb) v.hi ^= 0xe100000000000000ULL;  // reduction polynomial
  return v;
}

// Reduction constants for the byte-at-a-time multiply: rtab[b] is the
// high word of (b as coefficients of x^120..x^127) · x^8 — i.e. what the
// 8 bits shifted off the low end fold back into after reduction. Key
// independent, computed once.
const std::array<std::uint64_t, 256>& reduction_table() {
  struct Lo8 {
    std::uint64_t hi, lo;
  };
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::size_t b = 0; b < 256; ++b) {
      Lo8 v{0, b};
      for (int i = 0; i < 8; ++i) v = gf_shift_reduce(v);
      t[b] = v.hi;  // v.lo is zero: the shifted-out bits reduce into hi
    }
    return t;
  }();
  return table;
}

// J0 = nonce || 0x00000001 for 96-bit nonces; encryption counters start at
// J0 + 1.
void initial_counters(const GcmNonce& nonce, std::uint8_t j0[16], std::uint8_t ctr[16]) {
  std::memcpy(j0, nonce.data(), kGcmNonceSize);
  store_be32(MutableByteView(j0 + 12, 4), 1);
  std::memcpy(ctr, j0, 16);
  ctr[15] = 2;
}

}  // namespace

AesGcm::AesGcm(ByteView key) : AesGcm(Aes(key)) {}

AesGcm::AesGcm(ByteView key, detail::Portable portable) : AesGcm(Aes(key, portable)) {}

AesGcm::AesGcm(const Aes& aes) : aes_(aes) {
  std::uint8_t zero[16] = {};
  std::uint8_t h[16];
  aes_.encrypt_block(zero, h);
  if (aes_.uses_aes_ni()) {
    detail::pclmul_ghash_powers(h, h_powers_.data());
    return;
  }

  // h_table_[b] = (Σ_j b_j·x^j) · H for the 8 bits of b (MSB = x^0),
  // filled in by linearity from the 8 single-bit products H·x^j.
  Gf128 basis[8];
  basis[0] = Gf128{load_be64(ByteView(h, 8)), load_be64(ByteView(h + 8, 8))};
  for (int j = 1; j < 8; ++j) basis[j] = gf_shift_reduce(basis[j - 1]);
  h_table_.resize(256);
  for (std::size_t b = 1; b < 256; ++b) {
    const int bit = std::countr_zero(b);  // lowest set bit = highest power
    const Gf128& rest = h_table_[b & (b - 1)];
    h_table_[b].hi = rest.hi ^ basis[7 - bit].hi;
    h_table_[b].lo = rest.lo ^ basis[7 - bit].lo;
  }
}

// GF(2^128) multiply by the hash subkey H via the per-key 8-bit table:
// Horner over the 16 bytes of x (x = Σ_B byte_B·x^{8B}), multiplying by
// x^8 per step as a word shift plus one reduction-table lookup. Validated
// against the NIST GCM vectors in the test suite.
AesGcm::Gf128 AesGcm::gf_mul_h(Gf128 x) const {
  const auto& rtab = reduction_table();
  const auto byte_of = [&x](int i) -> std::size_t {
    return i < 8 ? (x.hi >> (56 - 8 * i)) & 0xff : (x.lo >> (120 - 8 * i)) & 0xff;
  };
  Gf128 z = h_table_[byte_of(15)];
  for (int i = 14; i >= 0; --i) {
    const std::size_t rem = z.lo & 0xff;
    z.lo = (z.lo >> 8) | (z.hi << 56);
    z.hi = (z.hi >> 8) ^ rtab[rem];
    const Gf128& m = h_table_[byte_of(i)];
    z.hi ^= m.hi;
    z.lo ^= m.lo;
  }
  return z;
}

void AesGcm::ghash(ByteView aad, ByteView ciphertext, std::uint8_t s[16]) const {
  if (aes_.uses_aes_ni()) {
    detail::pclmul_ghash(h_powers_.data(), aad, ciphertext, s);
    return;
  }
  Gf128 y;

  auto absorb = [&](ByteView data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take = std::min<std::size_t>(16, data.size() - offset);
      std::uint8_t block[16] = {};
      std::memcpy(block, data.data() + offset, take);
      y.hi ^= load_be64(ByteView(block, 8));
      y.lo ^= load_be64(ByteView(block + 8, 8));
      y = gf_mul_h(y);
      offset += take;
    }
  };

  absorb(aad);
  absorb(ciphertext);

  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  y.hi ^= static_cast<std::uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<std::uint64_t>(ciphertext.size()) * 8;
  y = gf_mul_h(y);
  store_be64(MutableByteView(s, 8), y.hi);
  store_be64(MutableByteView(s + 8, 8), y.lo);
}

void AesGcm::tag_from_ghash(const std::uint8_t j0[16], const std::uint8_t s[16],
                            std::uint8_t* tag) const {
  std::uint8_t ekj0[16];
  aes_.encrypt_block(j0, ekj0);
  for (std::size_t i = 0; i < kGcmTagSize; ++i) {
    tag[i] = static_cast<std::uint8_t>(ekj0[i] ^ s[i]);
  }
}

void AesGcm::seal_into(const GcmNonce& nonce, ByteView aad, ByteView plaintext,
                       std::uint8_t* ciphertext, std::uint8_t* tag) const {
  std::uint8_t j0[16], ctr[16], s[16];
  initial_counters(nonce, j0, ctr);
  if (aes_.uses_aes_ni()) {
    detail::aesni_gcm_encrypt(aes_.round_keys(), aes_.rounds(), h_powers_.data(), ctr, aad,
                              plaintext.data(), ciphertext, plaintext.size(), s);
  } else {
    const MutableByteView ct(ciphertext, plaintext.size());
    aes_ctr_xor(aes_, ctr, plaintext, ct);
    ghash(aad, ct, s);
  }
  tag_from_ghash(j0, s, tag);
}

Bytes AesGcm::seal(const GcmNonce& nonce, ByteView aad, ByteView plaintext,
                   GcmTag& tag) const {
  Bytes ciphertext(plaintext.size());
  seal_into(nonce, aad, plaintext, ciphertext.data(), tag.data());
  return ciphertext;
}

Result<Bytes> AesGcm::open(const GcmNonce& nonce, ByteView aad, ByteView ciphertext,
                           const GcmTag& tag) const {
  std::uint8_t j0[16], ctr[16], s[16];
  initial_counters(nonce, j0, ctr);
  ghash(aad, ciphertext, s);
  GcmTag expected;
  tag_from_ghash(j0, s, expected.data());
  if (!constant_time_equal(expected, tag)) {
    return Error::integrity("GCM tag verification failed");
  }
  return aes_ctr(aes_, ctr, ciphertext);
}

Bytes AesGcm::seal_combined(const GcmNonce& nonce, ByteView aad, ByteView plaintext) const {
  Bytes out;
  seal_combined(nonce, aad, plaintext, out);
  return out;
}

void AesGcm::seal_combined(const GcmNonce& nonce, ByteView aad, ByteView plaintext,
                           Bytes& out) const {
  const std::size_t at = out.size();
  out.resize(at + kGcmNonceSize + plaintext.size() + kGcmTagSize);
  std::uint8_t* p = out.data() + at;
  std::memcpy(p, nonce.data(), kGcmNonceSize);
  seal_into(nonce, aad, plaintext, p + kGcmNonceSize, p + kGcmNonceSize + plaintext.size());
}

Result<Bytes> AesGcm::open_combined(ByteView aad, ByteView combined) const {
  if (combined.size() < kGcmNonceSize + kGcmTagSize) {
    return Error::protocol("combined GCM buffer too short");
  }
  GcmNonce nonce;
  std::memcpy(nonce.data(), combined.data(), kGcmNonceSize);
  GcmTag tag;
  std::memcpy(tag.data(), combined.data() + combined.size() - kGcmTagSize, kGcmTagSize);
  const ByteView ct = combined.subspan(kGcmNonceSize,
                                       combined.size() - kGcmNonceSize - kGcmTagSize);
  return open(nonce, aad, ct, tag);
}

GcmNonce nonce_from_counter(std::uint64_t counter, std::uint32_t domain) {
  GcmNonce nonce{};
  store_be32(MutableByteView(nonce.data(), 4), domain);
  store_be64(MutableByteView(nonce.data() + 4, 8), counter);
  return nonce;
}

}  // namespace securecloud::crypto
