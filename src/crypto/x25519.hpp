// X25519 Diffie–Hellman (RFC 7748).
//
// Key agreement for: SCF delivery channels (enclave <-> configuration
// service), SCBR key-exchange, and attested secure channels. The
// implementation is RFC 7748's Montgomery ladder on the radix-2^51 field
// of field25519.hpp, with constant-time conditional swaps. The earlier
// TweetNaCl port is kept under tests/ as the oracle it is checked against.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// Computes n * P where P is a point encoded as u-coordinate.
/// The scalar is clamped per RFC 7748 before use.
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// Computes the public key n * basepoint(9).
X25519Key x25519_base(const X25519Key& scalar);

struct X25519KeyPair {
  X25519Key private_key;
  X25519Key public_key;
};

/// Derives a keypair from 32 bytes of entropy.
X25519KeyPair x25519_keypair(const X25519Key& entropy);

}  // namespace securecloud::crypto
