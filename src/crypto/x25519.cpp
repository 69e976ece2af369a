#include "crypto/x25519.hpp"

#include <cstring>

#include "crypto/field25519.hpp"

namespace securecloud::crypto {

namespace f = f25519;

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t k[32] = {};
  std::memcpy(k, scalar.data(), 32);
  // RFC 7748 clamping.
  k[31] = static_cast<std::uint8_t>((k[31] & 127) | 64);
  k[0] &= 248;

  // RFC 7748 section 5 ladder: (x2:z2) = [n]u, (x3:z3) = [n+1]u. The
  // same field operations run for every bit; the bit only drives cswap.
  const f::Fe x1 = f::from_bytes(point.data());
  f::Fe x2 = f::kOne, z2 = f::kZero, x3 = x1, z3 = f::kOne;
  f::u64 swap = 0;
  for (int t = 254; t >= 0; --t) {
    const f::u64 k_t = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= k_t;
    f::cswap(x2, x3, swap);
    f::cswap(z2, z3, swap);
    swap = k_t;

    const f::Fe a = f::add(x2, z2);
    const f::Fe aa = f::square(a);
    const f::Fe b = f::sub(x2, z2);
    const f::Fe bb = f::square(b);
    const f::Fe e = f::sub(aa, bb);
    const f::Fe c = f::add(x3, z3);
    const f::Fe d = f::sub(x3, z3);
    const f::Fe da = f::mul(d, a);
    const f::Fe cb = f::mul(c, b);
    x3 = f::square(f::add(da, cb));
    z3 = f::mul(x1, f::square(f::sub(da, cb)));
    x2 = f::mul(aa, bb);
    z2 = f::mul(e, f::add(aa, f::mul_small(e, 121665)));
  }
  f::cswap(x2, x3, swap);
  f::cswap(z2, z3, swap);

  X25519Key out{};
  f::to_bytes(out.data(), f::mul(x2, f::invert(z2)));
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

X25519KeyPair x25519_keypair(const X25519Key& entropy) {
  X25519KeyPair kp;
  kp.private_key = entropy;
  kp.public_key = x25519_base(kp.private_key);
  return kp;
}

}  // namespace securecloud::crypto
