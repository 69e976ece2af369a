// AES-NI + PCLMULQDQ kernels behind Aes, aes_ctr_xor and AesGcm.
//
// Private to src/crypto. Every function except cpu_has_aes_ni() executes
// AES-NI/PCLMULQDQ/SSE4.1 instructions, so callers reach them only from
// an Aes built while cpu_has_aes_ni() held. Results are byte-identical
// to the portable S-box and Shoup-table code, which tests compare them
// against (see the crypto::detail::kPortable constructors).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto::detail {

/// True when the CPU has AES-NI, PCLMULQDQ and SSE4.1; probed once per
/// process. Always false off x86-64.
bool cpu_has_aes_ni();

/// `round_keys` is Aes's FIPS-197 key schedule, 4 * (rounds + 1) words.
void aesni_encrypt_block(const std::uint32_t* round_keys, int rounds,
                         const std::uint8_t in[16], std::uint8_t out[16]);

/// out = in XOR the CTR keystream from `iv16`, incrementing the last 32
/// bits big-endian per block (inc32, wrapping mod 2^32), 8 blocks at a
/// time. `in` and `out` may be the same buffer.
void aesni_ctr_xor(const std::uint32_t* round_keys, int rounds, const std::uint8_t iv16[16],
                   const std::uint8_t* in, std::uint8_t* out, std::size_t n);

/// Fills `powers` with H^1..H^8 (16 bytes each, in the byte-reversed
/// form the PCLMULQDQ multiply takes) for hash subkey `h` (GCM byte order).
void pclmul_ghash_powers(const std::uint8_t h[16], std::uint8_t powers[128]);

/// s = GHASH_H(aad, ciphertext), including the length block, in GCM byte
/// order. `powers` comes from pclmul_ghash_powers.
void pclmul_ghash(const std::uint8_t powers[128], ByteView aad, ByteView ciphertext,
                  std::uint8_t s[16]);

/// One-pass GCM encryption: CTR from `ctr16` (J0 + 1) over `in` into
/// `out`, hashing each 8-block stripe of ciphertext while it is still in
/// registers; s = GHASH over aad and the ciphertext, as pclmul_ghash.
void aesni_gcm_encrypt(const std::uint32_t* round_keys, int rounds,
                       const std::uint8_t powers[128], const std::uint8_t ctr16[16],
                       ByteView aad, const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                       std::uint8_t s[16]);

}  // namespace securecloud::crypto::detail
