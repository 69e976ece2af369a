#include "crypto/ctr.hpp"

#include "crypto/aes_ni.hpp"

namespace securecloud::crypto {

namespace {
inline void increment_counter(std::uint8_t block[16]) {
  // Increment the last 32 bits big-endian (GCM counter convention).
  for (int i = 15; i >= 12; --i) {
    if (++block[i] != 0) break;
  }
}
}  // namespace

void aes_ctr_xor(const Aes& aes, const std::uint8_t iv16[16], ByteView in,
                 MutableByteView out) {
  if (aes.uses_aes_ni()) {
    detail::aesni_ctr_xor(aes.round_keys(), aes.rounds(), iv16, in.data(), out.data(),
                          in.size());
    return;
  }
  std::uint8_t counter[16];
  std::memcpy(counter, iv16, 16);
  std::uint8_t keystream[16];
  std::size_t offset = 0;
  while (offset < in.size()) {
    aes.encrypt_block(counter, keystream);
    const std::size_t take = std::min<std::size_t>(16, in.size() - offset);
    for (std::size_t i = 0; i < take; ++i) {
      out[offset + i] = static_cast<std::uint8_t>(in[offset + i] ^ keystream[i]);
    }
    offset += take;
    increment_counter(counter);
  }
}

Bytes aes_ctr(const Aes& aes, const std::uint8_t iv16[16], ByteView data) {
  Bytes out(data.size());
  aes_ctr_xor(aes, iv16, data, out);
  return out;
}

}  // namespace securecloud::crypto
