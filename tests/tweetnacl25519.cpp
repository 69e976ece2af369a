// TweetNaCl X25519 and Ed25519 (see tweetnacl25519.hpp), unchanged apart
// from its namespace and the API it answers to.
#include "tweetnacl25519.hpp"

#include <array>
#include <cstdint>
#include <cstring>

#include "crypto/sha512.hpp"

namespace securecloud::crypto::oracle {

namespace f25519 {

using i64 = std::int64_t;
using Gf = std::array<i64, 16>;

inline constexpr Gf kGf0{};
inline constexpr Gf kGf1 = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
inline constexpr Gf k121665 = {0xDB41, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};

inline void carry(Gf& o) {
  for (int i = 0; i < 16; ++i) {
    o[static_cast<std::size_t>(i)] += (i64{1} << 16);
    const i64 c = o[static_cast<std::size_t>(i)] >> 16;
    o[static_cast<std::size_t>((i + 1) * (i < 15 ? 1 : 0))] +=
        c - 1 + 37 * (c - 1) * (i == 15 ? 1 : 0);
    o[static_cast<std::size_t>(i)] -= c << 16;
  }
}

/// Constant-time conditional swap when b == 1.
inline void cswap(Gf& p, Gf& q, int b) {
  const i64 c = ~static_cast<i64>(b - 1);
  for (std::size_t i = 0; i < 16; ++i) {
    const i64 t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

inline void pack(std::uint8_t o[32], const Gf& n) {
  Gf t = n;
  carry(t);
  carry(t);
  carry(t);
  Gf m{};
  for (int j = 0; j < 2; ++j) {
    m[0] = t[0] - 0xffed;
    for (std::size_t i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    const int b = static_cast<int>((m[15] >> 16) & 1);
    m[14] &= 0xffff;
    cswap(t, m, 1 - b);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<std::uint8_t>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<std::uint8_t>(t[i] >> 8);
  }
}

inline void unpack(Gf& o, const std::uint8_t n[32]) {
  for (std::size_t i = 0; i < 16; ++i) {
    o[i] = n[2 * i] + (static_cast<i64>(n[2 * i + 1]) << 8);
  }
  o[15] &= 0x7fff;
}

inline void add(Gf& o, const Gf& a, const Gf& b) {
  for (std::size_t i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

inline void sub(Gf& o, const Gf& a, const Gf& b) {
  for (std::size_t i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

inline void mul(Gf& o, const Gf& a, const Gf& b) {
  std::array<i64, 31> t{};
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (std::size_t i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (std::size_t i = 0; i < 16; ++i) o[i] = t[i];
  carry(o);
  carry(o);
}

inline void square(Gf& o, const Gf& a) { mul(o, a, a); }

/// Fermat inversion: a^(p-2).
inline void invert(Gf& o, const Gf& in) {
  Gf c = in;
  for (int a = 253; a >= 0; --a) {
    square(c, c);
    if (a != 2 && a != 4) mul(c, c, in);
  }
  o = c;
}

/// a^((p-5)/8), used for square roots in Ed25519 point decompression.
inline void pow2523(Gf& o, const Gf& in) {
  Gf c = in;
  for (int a = 250; a >= 0; --a) {
    square(c, c);
    if (a != 1) mul(c, c, in);
  }
  o = c;
}

/// Low bit of the canonical encoding (sign of the x-coordinate).
inline std::uint8_t parity(const Gf& a) {
  std::uint8_t d[32];
  pack(d, a);
  return d[0] & 1;
}

/// Non-constant-time inequality of canonical encodings (used on public
/// values only: point decompression of a received public key).
inline bool neq(const Gf& a, const Gf& b) {
  std::uint8_t ap[32], bp[32];
  pack(ap, a);
  pack(bp, b);
  return std::memcmp(ap, bp, 32) != 0;
}

}  // namespace f25519

namespace {

namespace f = f25519;
using f::Gf;
using i64 = f::i64;

// Edwards curve constants (TweetNaCl): d, 2d, basepoint (X, Y), sqrt(-1).
constexpr Gf kD = {0x78a3, 0x1359, 0x4dca, 0x75eb, 0xd8ab, 0x4141, 0x0a4d, 0x0070,
                   0xe898, 0x7779, 0x4079, 0x8cc7, 0xfe73, 0x2b6f, 0x6cee, 0x5203};
constexpr Gf kD2 = {0xf159, 0x26b2, 0x9b94, 0xebd6, 0xb156, 0x8283, 0x149a, 0x00e0,
                    0xd130, 0xeef3, 0x80f2, 0x198e, 0xfce7, 0x56df, 0xd9dc, 0x2406};
constexpr Gf kX = {0xd51a, 0x8f25, 0x2d60, 0xc956, 0xa7b2, 0x9525, 0xc760, 0x692c,
                   0xdc5c, 0xfdd6, 0xe231, 0xc0a4, 0x53fe, 0xcd6e, 0x36d3, 0x2169};
constexpr Gf kY = {0x6658, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
                   0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666};
constexpr Gf kI = {0xa0b0, 0x4a0e, 0x1b27, 0xc4ee, 0xe478, 0xad2f, 0x1806, 0x2f43,
                   0xd7a7, 0x3dfb, 0x0099, 0x2b4d, 0xdf0b, 0x4fc1, 0x2480, 0x2b83};

// Group order L = 2^252 + 27742317777372353535851937790883648493.
constexpr std::uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                  0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                  0,    0,    0,    0,    0,    0,    0,    0,
                                  0,    0,    0,    0,    0,    0,    0,    0x10};

using Point = std::array<Gf, 4>;  // extended coordinates (X, Y, Z, T)

/// Unified Edwards point addition: p += q.
void point_add(Point& p, const Point& q) {
  Gf a, b, c, d, t, e, ff, g, h;
  f::sub(a, p[1], p[0]);
  f::sub(t, q[1], q[0]);
  f::mul(a, a, t);
  f::add(b, p[0], p[1]);
  f::add(t, q[0], q[1]);
  f::mul(b, b, t);
  f::mul(c, p[3], q[3]);
  f::mul(c, c, kD2);
  f::mul(d, p[2], q[2]);
  f::add(d, d, d);
  f::sub(e, b, a);
  f::sub(ff, d, c);
  f::add(g, d, c);
  f::add(h, b, a);
  f::mul(p[0], e, ff);
  f::mul(p[1], h, g);
  f::mul(p[2], g, ff);
  f::mul(p[3], e, h);
}

void point_cswap(Point& p, Point& q, int b) {
  for (std::size_t i = 0; i < 4; ++i) f::cswap(p[i], q[i], b);
}

void point_pack(std::uint8_t r[32], const Point& p) {
  Gf tx, ty, zi;
  f::invert(zi, p[2]);
  f::mul(tx, p[0], zi);
  f::mul(ty, p[1], zi);
  f::pack(r, ty);
  r[31] ^= static_cast<std::uint8_t>(f::parity(tx) << 7);
}

/// Constant-time scalar multiplication p = s * q (s: 32-byte scalar).
void point_scalarmult(Point& p, Point& q, const std::uint8_t* s) {
  p[0] = f::kGf0;
  p[1] = f::kGf1;
  p[2] = f::kGf1;
  p[3] = f::kGf0;
  for (int i = 255; i >= 0; --i) {
    const int b = (s[i / 8] >> (i & 7)) & 1;
    point_cswap(p, q, b);
    point_add(q, p);
    point_add(p, p);
    point_cswap(p, q, b);
  }
}

void point_scalarbase(Point& p, const std::uint8_t* s) {
  Point q;
  q[0] = kX;
  q[1] = kY;
  q[2] = f::kGf1;
  f::mul(q[3], kX, kY);
  point_scalarmult(p, q, s);
}

/// Reduces a 512-bit little-endian integer mod L into r[0..31].
void mod_l(std::uint8_t r[32], i64 x[64]) {
  i64 carry;
  for (i64 i = 63; i >= 32; --i) {
    carry = 0;
    i64 j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * static_cast<i64>(kL[j - (i - 32)]);
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (i64 j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * static_cast<i64>(kL[j]);
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (i64 j = 0; j < 32; ++j) x[j] -= carry * static_cast<i64>(kL[j]);
  for (i64 i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<std::uint8_t>(x[i] & 255);
  }
}

/// Reduces a 64-byte value (e.g. a SHA-512 digest) mod L in place.
void reduce(std::uint8_t r[64]) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = static_cast<i64>(r[i]);
  for (int i = 0; i < 64; ++i) r[i] = 0;
  mod_l(r, x);
}

/// Decompresses a public key into -A (negated, as verification needs).
/// Returns false for points not on the curve.
bool point_unpack_neg(Point& r, const std::uint8_t p[32]) {
  Gf t, chk, num, den, den2, den4, den6;
  r[2] = f::kGf1;
  f::unpack(r[1], p);
  f::square(num, r[1]);
  f::mul(den, num, kD);
  f::sub(num, num, r[2]);
  f::add(den, r[2], den);

  f::square(den2, den);
  f::square(den4, den2);
  f::mul(den6, den4, den2);
  f::mul(t, den6, num);
  f::mul(t, t, den);

  f::pow2523(t, t);
  f::mul(t, t, num);
  f::mul(t, t, den);
  f::mul(t, t, den);
  f::mul(r[0], t, den);

  f::square(chk, r[0]);
  f::mul(chk, chk, den);
  if (f::neq(chk, num)) f::mul(r[0], r[0], kI);

  f::square(chk, r[0]);
  f::mul(chk, chk, den);
  if (f::neq(chk, num)) return false;

  if (f::parity(r[0]) == (p[31] >> 7)) f::sub(r[0], f::kGf0, r[0]);

  f::mul(r[3], r[0], r[1]);
  return true;
}

Sha512Digest hash3(ByteView a, ByteView b, ByteView c) {
  Sha512 h;
  h.update(a);
  h.update(b);
  h.update(c);
  return h.finish();
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t z[32];
  std::memcpy(z, scalar.data(), 32);
  // RFC 7748 clamping.
  z[31] = static_cast<std::uint8_t>((z[31] & 127) | 64);
  z[0] &= 248;

  f::Gf x;
  f::unpack(x, point.data());

  f::Gf a{}, b = x, c{}, d{};
  a[0] = 1;
  d[0] = 1;

  // Montgomery ladder: a constant sequence of field ops per scalar bit.
  for (int i = 254; i >= 0; --i) {
    const int r = (z[i >> 3] >> (i & 7)) & 1;
    f::cswap(a, b, r);
    f::cswap(c, d, r);
    f::Gf e, ff;
    f::add(e, a, c);
    f::sub(a, a, c);
    f::add(c, b, d);
    f::sub(b, b, d);
    f::square(d, e);
    f::square(ff, a);
    f::mul(a, c, a);
    f::mul(c, b, e);
    f::add(e, a, c);
    f::sub(a, a, c);
    f::square(b, a);
    f::sub(c, d, ff);
    f::mul(a, c, f::k121665);
    f::add(a, a, d);
    f::mul(c, c, a);
    f::mul(a, d, ff);
    f::mul(d, b, x);
    f::square(b, e);
    f::cswap(a, b, r);
    f::cswap(c, d, r);
  }

  f::invert(c, c);
  f::mul(a, a, c);

  X25519Key out;
  f::pack(out.data(), a);
  return out;
}

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  Sha512Digest d = Sha512::hash(seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  Point p;
  point_scalarbase(p, d.data());

  Ed25519PublicKey pk;
  point_pack(pk.data(), p);
  return pk;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message) {
  Sha512Digest d = Sha512::hash(kp.seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  // r = SHA512(prefix || M) mod L
  Sha512Digest r_digest;
  {
    Sha512 h;
    h.update(ByteView(d.data() + 32, 32));
    h.update(message);
    r_digest = h.finish();
  }
  reduce(r_digest.data());

  Point p;
  point_scalarbase(p, r_digest.data());
  Ed25519Signature sig{};
  point_pack(sig.data(), p);

  // k = SHA512(R || A || M) mod L
  Sha512Digest k = hash3(ByteView(sig.data(), 32), kp.public_key, message);
  reduce(k.data());

  // S = (r + k * s) mod L
  i64 x[64] = {};
  for (int i = 0; i < 32; ++i) x[i] = static_cast<i64>(r_digest[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(k[static_cast<std::size_t>(i)]) *
                  static_cast<i64>(d[static_cast<std::size_t>(j)]);
    }
  }
  mod_l(sig.data() + 32, x);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig) {
  Point q;
  if (!point_unpack_neg(q, pk.data())) return false;

  Sha512Digest k = hash3(ByteView(sig.data(), 32), pk, message);
  reduce(k.data());

  Point p;
  point_scalarmult(p, q, k.data());

  Point b;
  point_scalarbase(b, sig.data() + 32);
  point_add(p, b);

  std::uint8_t t[32];
  point_pack(t, p);
  return std::memcmp(sig.data(), t, 32) == 0;
}

}  // namespace securecloud::crypto::oracle
