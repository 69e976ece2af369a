// GF(2^255 - 19) field arithmetic shared by X25519 and Ed25519.
//
// Internal header (not part of the public API). Representation: radix
// 2^51, five unsigned 64-bit limbs, value = sum l[i] * 2^(51 i), with
// unsigned __int128 products (the donna-c64 / ref10 "51-bit" layout).
//
// Limb bounds. carry, mul, square, sub, mul_small and from_bytes return
// "reduced" elements: every limb < 2^51 + 2^18 < 2^52. add does not
// carry. mul and square accept limbs < 2^54 (a sum of up to four reduced
// elements) and sub a subtrahend with limbs < 2^55 - 2^9, so sums feed
// them directly. to_bytes freezes to the unique encoding in [0, p).
//
// Nothing here branches on or indexes by limb values, except eq, which
// compares encodings with memcmp and is for public values only.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace securecloud::crypto::f25519 {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Fe = std::array<u64, 5>;

inline constexpr u64 kMask51 = (u64{1} << 51) - 1;

inline constexpr Fe kZero{};
inline constexpr Fe kOne = {1, 0, 0, 0, 0};

/// Carries every limb into the next (the top one wraps times 19).
/// Accepts any limbs; returns reduced limbs.
inline Fe carry(const Fe& a) {
  const u64 c0 = a[0] >> 51, c1 = a[1] >> 51, c2 = a[2] >> 51;
  const u64 c3 = a[3] >> 51, c4 = a[4] >> 51;
  return {(a[0] & kMask51) + c4 * 19, (a[1] & kMask51) + c0, (a[2] & kMask51) + c1,
          (a[3] & kMask51) + c2, (a[4] & kMask51) + c3};
}

inline Fe add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

/// a - b, computed as a + 16p - b so no limb underflows.
inline Fe sub(const Fe& a, const Fe& b) {
  constexpr u64 k16p0 = 16 * ((u64{1} << 51) - 19);
  constexpr u64 k16p = 16 * ((u64{1} << 51) - 1);
  return carry({a[0] + k16p0 - b[0], a[1] + k16p - b[1], a[2] + k16p - b[2],
                a[3] + k16p - b[3], a[4] + k16p - b[4]});
}

inline Fe neg(const Fe& a) { return sub(kZero, a); }

/// Carry chain over five 128-bit column sums. With inputs < 2^54 each
/// column is < 77 * 2^108 < 2^115, so every carry fits in 64 bits.
inline Fe carry_wide(u128 c0, u128 c1, u128 c2, u128 c3, u128 c4) {
  c1 += static_cast<u64>(c0 >> 51);
  c2 += static_cast<u64>(c1 >> 51);
  c3 += static_cast<u64>(c2 >> 51);
  c4 += static_cast<u64>(c3 >> 51);
  // The top carry times 19 may exceed 64 bits; fold it in 128.
  const u128 r0 = (static_cast<u64>(c0) & kMask51) + (c4 >> 51) * 19;
  return {static_cast<u64>(r0) & kMask51,
          (static_cast<u64>(c1) & kMask51) + static_cast<u64>(r0 >> 51),
          static_cast<u64>(c2) & kMask51, static_cast<u64>(c3) & kMask51,
          static_cast<u64>(c4) & kMask51};
}

inline u128 m(u64 a, u64 b) { return static_cast<u128>(a) * b; }

inline Fe mul(const Fe& a, const Fe& b) {
  // 2^255 = 19 (mod p): limb products that land at 2^(51*k), k >= 5,
  // fold back times 19.
  const u64 b1 = b[1] * 19, b2 = b[2] * 19, b3 = b[3] * 19, b4 = b[4] * 19;
  return carry_wide(
      m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
      m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
      m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
      m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
      m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]));
}

inline Fe square(const Fe& a) {
  const u64 d0 = a[0] * 2, d1 = a[1] * 2;
  const u64 a3_19 = a[3] * 19, a4_19 = a[4] * 19;
  return carry_wide(m(a[0], a[0]) + m(d1, a4_19) + m(a[2] * 2, a3_19),
                    m(d0, a[1]) + m(a[2] * 2, a4_19) + m(a[3], a3_19),
                    m(d0, a[2]) + m(a[1], a[1]) + m(a[3] * 2, a4_19),
                    m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19),
                    m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]));
}

/// a^(2^n).
inline Fe square_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = square(a);
  return a;
}

/// a * k for a small constant k < 2^32.
inline Fe mul_small(const Fe& a, std::uint32_t k) {
  return carry_wide(m(a[0], k), m(a[1], k), m(a[2], k), m(a[3], k), m(a[4], k));
}

/// Loads 32 little-endian bytes, ignoring bit 255. Values in [p, 2^255)
/// are kept as they are (not reduced), as RFC 7748 and 8032 decoding
/// require; every operation treats them mod p.
inline Fe from_bytes(const std::uint8_t s[32]) {
  u64 w[4] = {};
  for (int i = 0; i < 4; ++i) {
    for (int j = 7; j >= 0; --j) w[i] = (w[i] << 8) | s[8 * i + j];
  }
  return {w[0] & kMask51, ((w[0] >> 51) | (w[1] << 13)) & kMask51,
          ((w[1] >> 38) | (w[2] << 26)) & kMask51, ((w[2] >> 25) | (w[3] << 39)) & kMask51,
          (w[3] >> 12) & kMask51};
}

/// Canonical little-endian encoding of a mod p.
inline void to_bytes(std::uint8_t s[32], const Fe& a) {
  Fe t = carry(carry(a));  // limbs <= 2^51 + 19, so value < 2p
  // q = 1 exactly when t >= p: t + 19 then carries out of bit 255.
  u64 q = (t[0] + 19) >> 51;
  q = (t[1] + q) >> 51;
  q = (t[2] + q) >> 51;
  q = (t[3] + q) >> 51;
  q = (t[4] + q) >> 51;
  // t - q*p = t + 19q - q*2^255: add 19q and drop the carry out of limb 4.
  t[0] += 19 * q;
  t[1] += t[0] >> 51;
  t[0] &= kMask51;
  t[2] += t[1] >> 51;
  t[1] &= kMask51;
  t[3] += t[2] >> 51;
  t[2] &= kMask51;
  t[4] += t[3] >> 51;
  t[3] &= kMask51;
  t[4] &= kMask51;
  const u64 w[4] = {t[0] | (t[1] << 51), (t[1] >> 13) | (t[2] << 38),
                    (t[2] >> 26) | (t[3] << 25), (t[3] >> 39) | (t[4] << 12)};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) s[8 * i + j] = static_cast<std::uint8_t>(w[i] >> (8 * j));
  }
}

/// Constant-time: a = b when flag == 1, unchanged when flag == 0.
inline void cmov(Fe& a, const Fe& b, u64 flag) {
  const u64 mask = u64{0} - flag;
  for (std::size_t i = 0; i < 5; ++i) a[i] ^= mask & (a[i] ^ b[i]);
}

/// Constant-time swap when flag == 1.
inline void cswap(Fe& a, Fe& b, u64 flag) {
  const u64 mask = u64{0} - flag;
  for (std::size_t i = 0; i < 5; ++i) {
    const u64 t = mask & (a[i] ^ b[i]);
    a[i] ^= t;
    b[i] ^= t;
  }
}

/// Low bit of the canonical encoding (the "sign" of an x-coordinate).
inline std::uint8_t is_negative(const Fe& a) {
  std::uint8_t s[32] = {};
  to_bytes(s, a);
  return s[0] & 1;
}

/// Equality mod p; variable time (public values only).
inline bool eq(const Fe& a, const Fe& b) {
  std::uint8_t sa[32] = {};
  std::uint8_t sb[32] = {};
  to_bytes(sa, a);
  to_bytes(sb, b);
  return std::memcmp(sa, sb, 32) == 0;
}

/// Shared prefix of the inversion and square-root chains (ref10):
/// returns z^(2^250 - 1) and sets z11 = z^11.
inline Fe pow_2_250_1(const Fe& z, Fe& z11) {
  const Fe z2 = square(z);
  const Fe z9 = mul(square_n(z2, 2), z);
  z11 = mul(z9, z2);
  const Fe z_5_0 = mul(square(z11), z9);                 // 2^5 - 1
  const Fe z_10_0 = mul(square_n(z_5_0, 5), z_5_0);      // 2^10 - 1
  const Fe z_20_0 = mul(square_n(z_10_0, 10), z_10_0);   // 2^20 - 1
  const Fe z_40_0 = mul(square_n(z_20_0, 20), z_20_0);   // 2^40 - 1
  const Fe z_50_0 = mul(square_n(z_40_0, 10), z_10_0);   // 2^50 - 1
  const Fe z_100_0 = mul(square_n(z_50_0, 50), z_50_0);  // 2^100 - 1
  const Fe z_200_0 = mul(square_n(z_100_0, 100), z_100_0);
  return mul(square_n(z_200_0, 50), z_50_0);  // 2^250 - 1
}

/// Fermat inversion: z^(p-2) = z^(2^255 - 21); maps 0 to 0.
inline Fe invert(const Fe& z) {
  Fe z11{};
  const Fe t = pow_2_250_1(z, z11);
  return mul(square_n(t, 5), z11);
}

/// z^((p-5)/8) = z^(2^252 - 3), used for square roots in decompression.
inline Fe pow22523(const Fe& z) {
  Fe z11{};
  const Fe t = pow_2_250_1(z, z11);
  return mul(square_n(t, 2), z);
}

}  // namespace securecloud::crypto::f25519
