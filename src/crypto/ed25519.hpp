// Ed25519 signatures (RFC 8032).
//
// Signing roles in SecureCloud:
//  - the simulated Quoting Enclave signs attestation quotes,
//  - image creators sign FS protection files (integrity without
//    confidentiality, enabling image customization per the paper §V-A),
//  - the SCBR key service signs authorization grants.
//
// RFC 8032 Ed25519 (detached form) on the radix-2^51 field of
// field25519.hpp. Key generation and signing multiply the base point
// through a precomputed table with constant-time lookups; verification
// runs a variable-time double-scalar multiply, its inputs being public.
// Checked against RFC 8032 vectors and against the earlier TweetNaCl port,
// kept under tests/ as the oracle.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey public_key;
};

/// Derives a keypair from a 32-byte seed (deterministic).
Ed25519KeyPair ed25519_keypair(const Ed25519Seed& seed);

/// Detached signature over `message`.
Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message);

/// Verifies a detached signature, accepting exactly what TweetNaCl's
/// crypto_sign_open accepts: A's y is taken mod p, R must equal the
/// canonical encoding of [S]B - [k]A, and S is used with all 256 bits
/// (S >= L is not rejected).
bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig);

}  // namespace securecloud::crypto
