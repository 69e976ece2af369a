// AES-CTR keystream cipher (NIST SP 800-38A).
//
// Used for non-authenticated stream transforms (e.g. keystream tests and
// as the confidentiality half of GCM). Application data in SecureCloud is
// always protected with AES-GCM; bare CTR is internal.
#pragma once

#include "common/bytes.hpp"
#include "crypto/aes.hpp"

namespace securecloud::crypto {

/// out = in XOR the AES-CTR keystream for (key, iv16). The 16-byte IV is
/// the full initial counter block; the final 32 bits are incremented
/// big-endian per block, wrapping mod 2^32 (GCM's inc32). Precondition:
/// out.size() == in.size(); they may be the same buffer.
void aes_ctr_xor(const Aes& aes, const std::uint8_t iv16[16], ByteView in,
                 MutableByteView out);

/// XORs `data` in place with the keystream.
inline void aes_ctr_xor(const Aes& aes, const std::uint8_t iv16[16], MutableByteView data) {
  aes_ctr_xor(aes, iv16, data, data);
}

/// Convenience returning a transformed copy.
Bytes aes_ctr(const Aes& aes, const std::uint8_t iv16[16], ByteView data);

}  // namespace securecloud::crypto
