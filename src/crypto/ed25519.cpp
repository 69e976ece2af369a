#include "crypto/ed25519.hpp"

#include <cstring>

#include "crypto/field25519.hpp"
#include "crypto/sha512.hpp"

namespace securecloud::crypto {

namespace {

namespace f = f25519;
using f::Fe;
using i64 = std::int64_t;

// Edwards curve constants, radix 2^51: d = -121665/121666, 2d, sqrt(-1)
// = 2^((p-1)/4), and the base point B = (x, 4/5) with x even.
constexpr Fe kD = {0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029, 0x739c663a03cbb,
                   0x52036cee2b6ff};
constexpr Fe kD2 = {0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052, 0x6738cc7407977,
                    0x2406d9dc56dff};
constexpr Fe kSqrtM1 = {0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60, 0x78595a6804c9e,
                        0x2b8324804fc1d};
constexpr Fe kBx = {0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe,
                    0x216936d3cd6e5};
constexpr Fe kBy = {0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333,
                    0x6666666666666};

// Group order L = 2^252 + 27742317777372353535851937790883648493.
constexpr std::uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                  0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                  0,    0,    0,    0,    0,    0,    0,    0,
                                  0,    0,    0,    0,    0,    0,    0,    0x10};

// Point representations (Hisil-Wong-Carter-Dawson, "Twisted Edwards
// Curves Revisited", with a = -1; the ref10 layout):
struct P2 {  // projective: x = X/Z, y = Y/Z
  Fe x, y, z;
};
struct P3 {  // extended: additionally T = XY/Z
  Fe x, y, z, t;
};
struct P1P1 {  // completed: x = X/Z, y = Y/T
  Fe x, y, z, t;
};
struct Cached {  // an addend: (Y+X, Y-X, Z, 2dT)
  Fe y_plus_x, y_minus_x, z, t2d;
};
struct Precomp {  // an affine addend: (y+x, y-x, 2dxy)
  Fe y_plus_x, y_minus_x, xy2d;
};

constexpr P3 kIdentity = {f::kZero, f::kOne, f::kOne, f::kZero};
constexpr Precomp kIdentityPrecomp = {f::kOne, f::kOne, f::kZero};

P2 to_p2(const P1P1& p) { return {f::mul(p.x, p.t), f::mul(p.y, p.z), f::mul(p.z, p.t)}; }

P3 to_p3(const P1P1& p) {
  return {f::mul(p.x, p.t), f::mul(p.y, p.z), f::mul(p.z, p.t), f::mul(p.x, p.y)};
}

Cached to_cached(const P3& p) {
  return {f::add(p.y, p.x), f::sub(p.y, p.x), p.z, f::mul(p.t, kD2)};
}

/// 2p (dbl-2008-hwcd).
P1P1 dbl(const P2& p) {
  const Fe xx = f::square(p.x);
  const Fe yy = f::square(p.y);
  const Fe zz = f::square(p.z);
  const Fe zz2 = f::add(zz, zz);
  const Fe xy2 = f::square(f::add(p.x, p.y));
  const Fe yy_plus_xx = f::add(yy, xx);
  const Fe yy_minus_xx = f::sub(yy, xx);
  return {f::sub(xy2, yy_plus_xx), yy_plus_xx, yy_minus_xx, f::sub(zz2, yy_minus_xx)};
}

P1P1 dbl(const P3& p) { return dbl(P2{p.x, p.y, p.z}); }

/// p + q, or p - q when `negate` (add-2008-hwcd-3). q's (Y+X, Y-X) trade
/// places and 2dT changes sign under negation.
P1P1 add(const P3& p, const Cached& q, bool negate = false) {
  const Fe a = f::mul(f::add(p.y, p.x), negate ? q.y_minus_x : q.y_plus_x);
  const Fe b = f::mul(f::sub(p.y, p.x), negate ? q.y_plus_x : q.y_minus_x);
  const Fe c = f::mul(q.t2d, p.t);
  const Fe zz = f::mul(p.z, q.z);
  const Fe d = f::add(zz, zz);
  return {f::sub(a, b), f::add(a, b), negate ? f::sub(d, c) : f::add(d, c),
          negate ? f::add(d, c) : f::sub(d, c)};
}

/// p + q for an affine q (madd-2008-hwcd-3: Z2 = 1 saves a multiply).
P1P1 madd(const P3& p, const Precomp& q, bool negate = false) {
  const Fe a = f::mul(f::add(p.y, p.x), negate ? q.y_minus_x : q.y_plus_x);
  const Fe b = f::mul(f::sub(p.y, p.x), negate ? q.y_plus_x : q.y_minus_x);
  const Fe c = f::mul(q.xy2d, p.t);
  const Fe d = f::add(p.z, p.z);
  return {f::sub(a, b), f::add(a, b), negate ? f::sub(d, c) : f::add(d, c),
          negate ? f::add(d, c) : f::sub(d, c)};
}

/// Canonical encoding: y, with the sign of x in bit 255.
void encode(std::uint8_t s[32], const Fe& x, const Fe& y, const Fe& z) {
  const Fe zi = f::invert(z);
  f::to_bytes(s, f::mul(y, zi));
  s[31] ^= static_cast<std::uint8_t>(f::is_negative(f::mul(x, zi)) << 7);
}

// The base-point tables, built on first use (thread-safe static init).
struct BaseTables {
  Precomp fixed[32][8];  // fixed[i][j] = (j + 1) * 256^i * B, for signing
  Precomp odd[8];        // odd[j] = (2j + 1) * B, for verify
};

BaseTables build_base_tables() {
  constexpr std::size_t kFixed = 32 * 8;
  P3 points[kFixed + 8] = {};
  P3 row = {kBx, kBy, f::kOne, f::mul(kBx, kBy)};  // 256^i * B
  for (std::size_t i = 0; i < 32; ++i) {
    const Cached step = to_cached(row);
    points[8 * i] = row;
    for (std::size_t j = 1; j < 8; ++j) {
      points[8 * i + j] = to_p3(add(points[8 * i + j - 1], step));
    }
    for (int k = 0; k < 8; ++k) row = to_p3(dbl(row));
  }
  const P3 b = points[0];
  const Cached b2 = to_cached(to_p3(dbl(b)));
  points[kFixed] = b;
  for (std::size_t j = 1; j < 8; ++j) {
    points[kFixed + j] = to_p3(add(points[kFixed + j - 1], b2));
  }

  // Affine coordinates with one inversion (Montgomery's batch trick).
  constexpr std::size_t n = kFixed + 8;
  Fe prefix[n] = {};
  prefix[0] = points[0].z;
  for (std::size_t i = 1; i < n; ++i) prefix[i] = f::mul(prefix[i - 1], points[i].z);
  Fe inv = f::invert(prefix[n - 1]);
  BaseTables tables{};
  for (std::size_t i = n; i-- > 0;) {
    const Fe zi = i > 0 ? f::mul(inv, prefix[i - 1]) : inv;
    inv = f::mul(inv, points[i].z);
    const Fe x = f::mul(points[i].x, zi);
    const Fe y = f::mul(points[i].y, zi);
    Precomp& out = i < kFixed ? tables.fixed[i / 8][i % 8] : tables.odd[i - kFixed];
    out = {f::carry(f::add(y, x)), f::sub(y, x), f::mul(f::mul(x, y), kD2)};
  }
  return tables;
}

const BaseTables& base_tables() {
  static const BaseTables tables = build_base_tables();
  return tables;
}

/// Constant-time: 1 when b == c (both in [0, 255]).
f::u64 equal(int b, int c) { return (static_cast<f::u64>(b ^ c) - 1) >> 63; }

/// fixed[pos][|b| - 1], negated when b < 0, the identity when b == 0;
/// every entry of the row is read whatever b is.
Precomp select(std::size_t pos, std::int8_t b) {
  const f::u64 negative = static_cast<f::u64>(static_cast<std::int64_t>(b)) >> 63;
  const int babs = b - 2 * (-static_cast<int>(negative) & b);
  Precomp t = kIdentityPrecomp;
  const Precomp* row = base_tables().fixed[pos];
  for (std::size_t j = 0; j < 8; ++j) {
    const f::u64 hit = equal(babs, static_cast<int>(j + 1));
    f::cmov(t.y_plus_x, row[j].y_plus_x, hit);
    f::cmov(t.y_minus_x, row[j].y_minus_x, hit);
    f::cmov(t.xy2d, row[j].xy2d, hit);
  }
  f::cswap(t.y_plus_x, t.y_minus_x, negative);
  f::cmov(t.xy2d, f::neg(t.xy2d), negative);
  return t;
}

/// Constant-time [a]B for a < 2^255 (a[31] <= 127): signed radix-16
/// digits, one table row per digit pair, four doublings in all.
P3 scalarmult_base(const std::uint8_t a[32]) {
  std::int8_t e[64] = {};
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  // Recode digits from [0, 15] to [-8, 7]; the top digit ends in [0, 8].
  int carry = 0;
  for (std::size_t i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // sum e[i] 16^i B = 16 * (sum over odd i) + (sum over even i), where
  // e[i] 16^i B for i = 2k or 2k + 1 reads row k (256^k B).
  P3 h = kIdentity;
  for (std::size_t i = 1; i < 64; i += 2) h = to_p3(madd(h, select(i / 2, e[i])));
  P2 s = to_p2(dbl(h));
  s = to_p2(dbl(s));
  s = to_p2(dbl(s));
  h = to_p3(dbl(s));
  for (std::size_t i = 0; i < 64; i += 2) h = to_p3(madd(h, select(i / 2, e[i])));
  return h;
}

/// Sliding-window recoding of a 256-bit scalar (ref10's slide): sum
/// r[i] 2^i = a with every digit 0 or odd in [-15, 15], each nonzero digit
/// absorbing up to six higher bits. A carry out of bit 255 lands in
/// r[256], so every 256-bit value is represented exactly.
void slide(std::int8_t r[257], const std::uint8_t a[32]) {
  for (std::size_t i = 0; i < 256; ++i) {
    r[i] = static_cast<std::int8_t>((a[i >> 3] >> (i & 7)) & 1);
  }
  r[256] = 0;
  for (std::size_t i = 0; i < 257; ++i) {
    if (r[i] == 0) continue;
    for (std::size_t b = 1; b <= 6 && i + b < 257; ++b) {
      if (r[i + b] == 0) continue;
      const int shifted = r[i + b] * (1 << b);
      if (r[i] + shifted <= 15) {
        r[i] = static_cast<std::int8_t>(r[i] + shifted);
        r[i + b] = 0;
      } else if (r[i] - shifted >= -15) {
        r[i] = static_cast<std::int8_t>(r[i] - shifted);
        for (std::size_t k = i + b; k < 257; ++k) {
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

/// Variable-time [a]A + [b]B (Straus/Shamir: one shared doubling chain,
/// sliding windows over both scalars). Inputs are public.
P2 double_scalarmult_vartime(const std::uint8_t a[32], const P3& point_a,
                             const std::uint8_t b[32]) {
  std::int8_t a_digits[257] = {};
  std::int8_t b_digits[257] = {};
  slide(a_digits, a);
  slide(b_digits, b);

  Cached a_odd[8] = {};  // (2j + 1) * A
  a_odd[0] = to_cached(point_a);
  const P3 a2 = to_p3(dbl(point_a));
  for (std::size_t j = 1; j < 8; ++j) a_odd[j] = to_cached(to_p3(add(a2, a_odd[j - 1])));
  const Precomp* b_odd = base_tables().odd;

  P2 r = {f::kZero, f::kOne, f::kOne};
  int i = 256;
  while (i >= 0 && a_digits[i] == 0 && b_digits[i] == 0) --i;
  for (; i >= 0; --i) {
    P1P1 t = dbl(r);
    const int da = a_digits[i], db = b_digits[i];
    if (da != 0) t = add(to_p3(t), a_odd[(da > 0 ? da : -da) / 2], da < 0);
    if (db != 0) t = madd(to_p3(t), b_odd[(db > 0 ? db : -db) / 2], db < 0);
    r = to_p2(t);
  }
  return r;
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

/// Decodes a public key into -A (negated, as verification needs), with
/// TweetNaCl's acceptance set: y is taken mod p (a y >= p is accepted),
/// and x = 0 with the sign bit set decodes to the point with x = 0.
/// Returns false for points not on the curve.
bool decode_neg(P3& r, const std::uint8_t s[32]) {
  r.y = f::from_bytes(s);
  r.z = f::kOne;
  const Fe yy = f::square(r.y);
  const Fe u = f::sub(yy, f::kOne);            // y^2 - 1
  const Fe v = f::add(f::mul(yy, kD), f::kOne);  // d y^2 + 1
  const Fe v3 = f::mul(f::square(v), v);
  // x = (u v^7)^((p-5)/8) * u v^3: a square root of u/v when one exists.
  Fe x = f::pow22523(f::mul(f::mul(f::square(v3), v), u));
  x = f::mul(f::mul(x, v3), u);
  const Fe vxx = f::mul(f::square(x), v);
  if (!f::eq(vxx, u)) {
    if (!f::eq(vxx, f::neg(u))) return false;
    x = f::mul(x, kSqrtM1);
  }
  if (f::is_negative(x) == (s[31] >> 7)) x = f::neg(x);
  r.x = x;
  r.t = f::mul(x, r.y);
  return true;
}

Sha512Digest hash3(ByteView a, ByteView b, ByteView c) {
  Sha512 h;
  h.update(a);
  h.update(b);
  h.update(c);
  return h.finish();
}

/// The clamped secret scalar: the first half of SHA-512(seed).
Sha512Digest expand_seed(const Ed25519Seed& seed) {
  Sha512Digest d = Sha512::hash(seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;
  return d;
}

void encode(std::uint8_t s[32], const P3& p) { encode(s, p.x, p.y, p.z); }

}  // namespace

Ed25519KeyPair ed25519_keypair(const Ed25519Seed& seed) {
  const Sha512Digest d = expand_seed(seed);
  Ed25519KeyPair kp;
  kp.seed = seed;
  encode(kp.public_key.data(), scalarmult_base(d.data()));
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message) {
  const Sha512Digest d = expand_seed(kp.seed);

  // r = SHA512(prefix || M) mod L
  Sha512Digest r_digest;
  {
    Sha512 h;
    h.update(ByteView(d.data() + 32, 32));
    h.update(message);
    r_digest = h.finish();
  }
  reduce(r_digest.data());

  Ed25519Signature sig{};
  encode(sig.data(), scalarmult_base(r_digest.data()));

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
  P3 neg_a{};
  if (!decode_neg(neg_a, pk.data())) return false;

  Sha512Digest k = hash3(ByteView(sig.data(), 32), pk, message);
  reduce(k.data());

  // R' = [k](-A) + [S]B, with all 256 bits of S (no S < L check).
  const P2 r = double_scalarmult_vartime(k.data(), neg_a, sig.data() + 32);
  std::uint8_t t[32] = {};
  encode(t, r.x, r.y, r.z);
  return std::memcmp(sig.data(), t, 32) == 0;
}

}  // namespace securecloud::crypto
