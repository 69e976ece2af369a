// AES-128/AES-256 block cipher (FIPS 197).
//
// The project's only block cipher; CTR and GCM modes are layered on top.
// Encryption runs on AES-NI when the CPU has AES-NI, PCLMULQDQ and
// SSE4.1 (probed once per process via cpuid), and otherwise on a
// portable S-box implementation. Both give the same bytes; the portable
// code is also the oracle the tests compare the hardware path against
// (construct with crypto::detail::kPortable). Only the *encrypt*
// direction is needed by CTR/GCM; decrypt is portable-only, provided for
// completeness and tested against FIPS vectors.
//
// Note on side channels: AES-NI is constant-time. The table-based
// portable fallback is not; it only runs on CPUs without AES-NI.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace securecloud::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

namespace detail {
/// Selects the portable S-box / Shoup-table code even on a CPU with
/// AES-NI: the reference the hardware path is tested against.
struct Portable {
  explicit Portable() = default;
};
inline constexpr Portable kPortable{};
}  // namespace detail

class Aes {
 public:
  /// Precondition: key.size() is 16 (AES-128) or 32 (AES-256).
  explicit Aes(ByteView key);
  Aes(ByteView key, detail::Portable);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  AesBlock encrypt_block(const AesBlock& in) const {
    AesBlock out;
    encrypt_block(in.data(), out.data());
    return out;
  }

  int rounds() const { return rounds_; }
  bool uses_aes_ni() const { return aes_ni_; }
  /// The FIPS-197 key schedule, 4 * (rounds + 1) words.
  const std::uint32_t* round_keys() const { return round_keys_.data(); }

 private:
  int rounds_;                                  // 10 (AES-128) or 14 (AES-256)
  bool aes_ni_ = false;                         // encrypt on AES-NI, not the S-box code
  std::array<std::uint32_t, 60> round_keys_{};  // 4 * (rounds + 1) words
};

}  // namespace securecloud::crypto
