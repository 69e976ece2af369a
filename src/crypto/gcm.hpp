// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// The project's AEAD: protects file chunks (SCONE shielded FS), EPC pages
// evicted from the simulated enclave, secure-channel records, SCBR
// publications/subscriptions, and sealed blobs. 96-bit nonces, 128-bit
// tags.
//
// When the CPU has AES-NI and PCLMULQDQ (see aes.hpp), sealing is one
// pass of 8-block CTR stripes, each hashed by GHASH over H^1..H^8 while
// still in registers. Otherwise CTR and GHASH run on the portable S-box
// and Shoup-table code. The bytes are the same either way.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/aes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kGcmNonceSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;

using GcmNonce = std::array<std::uint8_t, kGcmNonceSize>;
using GcmTag = std::array<std::uint8_t, kGcmTagSize>;

/// AES-GCM context bound to one key (16- or 32-byte). Stateless across
/// calls: callers supply a unique nonce per (key, message). The const
/// methods touch no mutable state, so one instance may be shared across
/// threads.
class AesGcm {
 public:
  explicit AesGcm(ByteView key);
  /// Portable S-box / Shoup-table instance: the reference the AES-NI path
  /// is tested against. Same bytes, slower.
  AesGcm(ByteView key, detail::Portable);

  /// Encrypts `plaintext`, authenticating `aad` as associated data.
  /// Returns ciphertext (same length as plaintext); writes the tag.
  Bytes seal(const GcmNonce& nonce, ByteView aad, ByteView plaintext, GcmTag& tag) const;

  /// Decrypts and verifies. Returns kIntegrityViolation on tag mismatch
  /// without exposing any plaintext.
  Result<Bytes> open(const GcmNonce& nonce, ByteView aad, ByteView ciphertext,
                     const GcmTag& tag) const;

  /// Wire-format helpers: nonce || ciphertext || tag in a single buffer.
  Bytes seal_combined(const GcmNonce& nonce, ByteView aad, ByteView plaintext) const;
  /// Appends nonce || ciphertext || tag to `out`, encrypting straight into
  /// it. `aad` and `plaintext` must not view `out`, which may reallocate.
  void seal_combined(const GcmNonce& nonce, ByteView aad, ByteView plaintext, Bytes& out) const;
  Result<Bytes> open_combined(ByteView aad, ByteView combined) const;

  bool uses_aes_ni() const { return aes_.uses_aes_ni(); }

 private:
  struct Gf128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
  };

  explicit AesGcm(const Aes& aes);

  /// The one sealing routine: ciphertext into `ciphertext` (plaintext.size()
  /// bytes), tag into `tag` (16 bytes).
  void seal_into(const GcmNonce& nonce, ByteView aad, ByteView plaintext,
                 std::uint8_t* ciphertext, std::uint8_t* tag) const;
  /// s = GHASH_H(aad, ciphertext) in GCM byte order.
  void ghash(ByteView aad, ByteView ciphertext, std::uint8_t s[16]) const;
  /// tag = AES_K(J0) XOR s.
  void tag_from_ghash(const std::uint8_t j0[16], const std::uint8_t s[16],
                      std::uint8_t* tag) const;
  Gf128 gf_mul_h(Gf128 x) const;

  Aes aes_;
  /// AES-NI path: H^1..H^8 for GHASH over 8-block stripes, byte-reversed
  /// for PCLMULQDQ. Unused on the portable path.
  std::array<std::uint8_t, 128> h_powers_{};
  /// Portable path only (empty on the AES-NI path): the Shoup 8-bit table,
  /// h_table_[b] = (b placed in the first byte) · H. gf_mul_h then runs 16
  /// table lookups + shifts per block instead of a 128-iteration bitwise
  /// multiply.
  std::vector<Gf128> h_table_;
};

/// Deterministic nonce construction from a 64-bit counter. Safe as long
/// as each key's counter never repeats (the secure channel and EPC pager
/// guarantee this by construction).
GcmNonce nonce_from_counter(std::uint64_t counter, std::uint32_t domain = 0);

}  // namespace securecloud::crypto
