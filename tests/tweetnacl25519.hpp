// TweetNaCl X25519 and Ed25519: the test oracle for src/crypto.
//
// The library's curve code runs on a radix-2^51 field with a fixed-base
// table and a variable-time double-scalar verify. This is the earlier
// port of the public-domain TweetNaCl routines (Bernstein et al.: 16 x
// 16-bit limbs, one unified addition, bit-by-bit ladders), kept only so
// the crypto tests can check that the fast code computes the same bytes
// and accepts exactly the same signatures. Nothing under src/ links it.
#pragma once

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/x25519.hpp"

namespace securecloud::crypto::oracle {

X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message);

bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig);

}  // namespace securecloud::crypto::oracle
