// Crypto layer tests: RFC/NIST vectors for every primitive plus
// property-style round-trip and tamper-rejection sweeps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/aes.hpp"
#include "crypto/ctr.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/entropy.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secure_channel.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/x25519.hpp"
#include "tweetnacl25519.hpp"

namespace securecloud::crypto {
namespace {

std::string hex(ByteView b) { return hex_encode(b); }

template <std::size_t N>
std::array<std::uint8_t, N> from_hex(std::string_view h) {
  const Bytes b = hex_decode(h);
  EXPECT_EQ(b.size(), N);
  std::array<std::uint8_t, N> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtAllSplitPoints) {
  const Bytes msg = to_bytes(
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef");
  const auto expected = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(ByteView(msg.data(), split));
    h.update(ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(hex(Sha512::hash(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, StreamingMatchesOneShot) {
  Bytes msg(777);
  Rng rng(1);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  const auto expected = Sha512::hash(msg);
  Sha512 h;
  h.update(ByteView(msg.data(), 100));
  h.update(ByteView(msg.data() + 100, 28));
  h.update(ByteView(msg.data() + 128, msg.size() - 128));
  EXPECT_EQ(h.finish(), expected);
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(HmacSha256::mac(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex(HmacSha256::mac(to_bytes("Jefe"),
                                to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex(HmacSha256::mac(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash "
                              "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

// ------------------------------------------------------------------ HKDF

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");

  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandProducesRequestedLengths) {
  const Bytes prk = Bytes(32, 0x42);
  for (std::size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 255u, 8160u}) {
    EXPECT_EQ(hkdf_expand(prk, to_bytes("info"), len).size(), len);
  }
}

TEST(Hkdf, DistinctInfoGivesDistinctKeys) {
  const Bytes ikm = Bytes(32, 0x01);
  EXPECT_NE(hkdf({}, ikm, to_bytes("key-a"), 32), hkdf({}, ikm, to_bytes("key-b"), 32));
}

// ------------------------------------------------------------------- AES

TEST(Aes, Fips197Aes128) {
  const Aes aes(hex_decode("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");

  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex(ByteView(back, 16)), hex(pt));
}

TEST(Aes, Fips197Aes256) {
  const Aes aes(hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");

  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex(ByteView(back, 16)), hex(pt));
}

TEST(Aes, EncryptDecryptInverseProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes key(trial % 2 == 0 ? 16 : 32);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const Aes aes(key);
    std::uint8_t pt[16], ct[16], back[16];
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    aes.encrypt_block(pt, ct);
    aes.decrypt_block(ct, back);
    EXPECT_EQ(std::memcmp(pt, back, 16), 0);
  }
}

// ------------------------------------------------------------------- CTR

TEST(Ctr, XorTwiceIsIdentity) {
  const Aes aes(Bytes(16, 0x55));
  std::uint8_t iv[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 1};
  Bytes data = to_bytes("counter mode round trips at any length, even odd ones");
  const Bytes orig = data;
  aes_ctr_xor(aes, iv, data);
  EXPECT_NE(data, orig);
  aes_ctr_xor(aes, iv, data);
  EXPECT_EQ(data, orig);
}

// ------------------------------------------------------------------- GCM

TEST(Gcm, NistCase1EmptyPlaintext) {
  const AesGcm gcm(Bytes(16, 0x00));
  GcmNonce nonce{};
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, {}, {}, tag);
  EXPECT_TRUE(ct.empty());
  EXPECT_EQ(hex(tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Gcm, NistCase2SingleBlock) {
  const AesGcm gcm(Bytes(16, 0x00));
  GcmNonce nonce{};
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, {}, Bytes(16, 0x00), tag);
  EXPECT_EQ(hex(ct), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(hex(tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, NistCase3FourBlocks) {
  const AesGcm gcm(hex_decode("feffe9928665731c6d6a8f9467308308"));
  const auto nonce = from_hex<12>("cafebabefacedbaddecaf888");
  const Bytes pt = hex_decode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, {}, pt, tag);
  EXPECT_EQ(hex(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(hex(tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, NistCase4WithAad) {
  const AesGcm gcm(hex_decode("feffe9928665731c6d6a8f9467308308"));
  const auto nonce = from_hex<12>("cafebabefacedbaddecaf888");
  const Bytes pt = hex_decode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hex_decode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, aad, pt, tag);
  EXPECT_EQ(hex(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex(tag), "5bc94fbc3221a5db94fae95ae7121a47");

  // And the decryption path verifies and round-trips.
  auto back = gcm.open(nonce, aad, ct, tag);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(Gcm, RejectsTamperedCiphertext) {
  const AesGcm gcm(Bytes(16, 0x11));
  const GcmNonce nonce = nonce_from_counter(1);
  GcmTag tag;
  Bytes ct = gcm.seal(nonce, to_bytes("aad"), to_bytes("secret payload"), tag);
  ct[3] ^= 0x01;
  auto r = gcm.open(nonce, to_bytes("aad"), ct, tag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Gcm, RejectsTamperedAad) {
  const AesGcm gcm(Bytes(16, 0x11));
  const GcmNonce nonce = nonce_from_counter(2);
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, to_bytes("aad"), to_bytes("payload"), tag);
  auto r = gcm.open(nonce, to_bytes("axd"), ct, tag);
  EXPECT_FALSE(r.ok());
}

TEST(Gcm, RejectsWrongNonce) {
  const AesGcm gcm(Bytes(16, 0x11));
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce_from_counter(3), {}, to_bytes("payload"), tag);
  EXPECT_FALSE(gcm.open(nonce_from_counter(4), {}, ct, tag).ok());
}

TEST(Gcm, CombinedFormatRoundTrip) {
  const AesGcm gcm(Bytes(32, 0x99));  // AES-256 path
  const Bytes wire = gcm.seal_combined(nonce_from_counter(7), to_bytes("hdr"),
                                       to_bytes("the payload"));
  auto r = gcm.open_combined(to_bytes("hdr"), wire);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "the payload");
}

TEST(Gcm, CombinedFormatRejectsShortBuffer) {
  const AesGcm gcm(Bytes(16, 0x01));
  auto r = gcm.open_combined({}, Bytes(10, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kProtocolError);
}

// Property sweep: round-trip across message sizes crossing block
// boundaries, both key sizes.
class GcmRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmRoundTrip, SealOpenIdentity) {
  Rng rng(GetParam() * 1000 + 17);
  for (const std::size_t key_size : {16u, 32u}) {
    Bytes key(key_size);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const AesGcm gcm(key);
    Bytes pt(GetParam());
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    Bytes aad(GetParam() % 37);
    for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());

    GcmTag tag;
    const GcmNonce nonce = nonce_from_counter(GetParam());
    const Bytes ct = gcm.seal(nonce, aad, pt, tag);
    ASSERT_EQ(ct.size(), pt.size());
    auto back = gcm.open(nonce, aad, ct, tag);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 63, 64,
                                           65, 255, 256, 1000, 4096));

// ------------------------------------------------- AES-NI vs portable

// The AES-NI/PCLMULQDQ path must reproduce the portable S-box and
// Shoup-table code byte for byte: every golden, wire byte and sim-time
// figure elsewhere rests on it. Probed here independently of the
// library's own dispatch, so a dispatch that wrongly falls back fails
// instead of comparing the portable path with itself.
bool cpu_has_aes_ni_and_pclmul() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

class AesNiCrossCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cpu_has_aes_ni_and_pclmul()) GTEST_SKIP() << "CPU lacks AES-NI or PCLMULQDQ";
  }
};

TEST_F(AesNiCrossCheck, BlockCipherMatchesPortable) {
  Rng rng(1501);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes key = random_bytes(rng, trial % 2 == 0 ? 16 : 32);
    const Aes hw(key);
    const Aes portable(key, detail::kPortable);
    ASSERT_TRUE(hw.uses_aes_ni());
    ASSERT_FALSE(portable.uses_aes_ni());
    const Bytes pt = random_bytes(rng, 16);
    std::uint8_t a[16], b[16];
    hw.encrypt_block(pt.data(), a);
    portable.encrypt_block(pt.data(), b);
    ASSERT_EQ(hex(ByteView(a, 16)), hex(ByteView(b, 16))) << "trial " << trial;
  }
}

TEST_F(AesNiCrossCheck, GcmMatchesPortable) {
  Rng rng(1502);
  std::vector<std::size_t> lengths = {0, 1, 15, 16, 17, 127, 128, 129, 1100};
  for (int i = 0; i < 12; ++i) lengths.push_back(rng.next() % 3000);

  std::uint64_t counter = 0;
  for (const std::size_t key_size : {16u, 32u}) {
    const Bytes key = random_bytes(rng, key_size);
    const AesGcm hw(key);
    const AesGcm portable(key, detail::kPortable);
    ASSERT_TRUE(hw.uses_aes_ni());
    ASSERT_FALSE(portable.uses_aes_ni());
    for (std::size_t aad_len = 0; aad_len <= 80; ++aad_len) {
      for (const std::size_t len : lengths) {
        SCOPED_TRACE("key " + std::to_string(key_size) + " aad " + std::to_string(aad_len) +
                     " pt " + std::to_string(len));
        const Bytes aad = random_bytes(rng, aad_len);
        const Bytes pt = random_bytes(rng, len);
        const GcmNonce nonce = nonce_from_counter(++counter, 0x5eed);

        GcmTag hw_tag, portable_tag;
        const Bytes hw_ct = hw.seal(nonce, aad, pt, hw_tag);
        const Bytes portable_ct = portable.seal(nonce, aad, pt, portable_tag);
        ASSERT_EQ(hw_ct, portable_ct);
        ASSERT_EQ(hw_tag, portable_tag);
        for (const AesGcm* gcm : {&hw, &portable}) {
          auto back = gcm->open(nonce, aad, hw_ct, hw_tag);
          ASSERT_TRUE(back.ok());
          ASSERT_EQ(*back, pt);
        }

        const Bytes wire = hw.seal_combined(nonce, aad, pt);
        ASSERT_EQ(wire, portable.seal_combined(nonce, aad, pt));
        Bytes appended = to_bytes("hdr");
        hw.seal_combined(nonce, aad, pt, appended);
        ASSERT_EQ(Bytes(appended.begin() + 3, appended.end()), wire);

        // A flipped bit anywhere past the nonce — ciphertext or tag — and
        // a flipped AAD bit are rejected by both paths.
        Bytes tampered = wire;
        tampered[kGcmNonceSize + (counter * 7) % (len + kGcmTagSize)] ^= 0x20;
        Bytes wrong_aad = aad;
        if (!wrong_aad.empty()) wrong_aad[counter % aad_len] ^= 0x01;
        for (const AesGcm* gcm : {&hw, &portable}) {
          auto back = gcm->open_combined(aad, wire);
          ASSERT_TRUE(back.ok());
          ASSERT_EQ(*back, pt);
          auto bad = gcm->open_combined(aad, tampered);
          ASSERT_FALSE(bad.ok());
          ASSERT_EQ(bad.error().code, ErrorCode::kIntegrityViolation);
          if (!wrong_aad.empty()) {
            ASSERT_FALSE(gcm->open_combined(wrong_aad, wire).ok());
          }
        }
      }
    }
  }
}

// The counter is inc32: the last 32 bits wrap to zero without carrying
// into the nonce. An IV ending ff ff ff f9 wraps inside the first 8-block
// stripe; the expected keystream is built block by block from the
// portable cipher.
TEST_F(AesNiCrossCheck, CtrMatchesPortableAcrossInc32Wrap) {
  Rng rng(1503);
  for (const std::size_t key_size : {16u, 32u}) {
    const Bytes key = random_bytes(rng, key_size);
    const Aes hw(key);
    const Aes portable(key, detail::kPortable);
    std::uint8_t iv[16];
    const Bytes prefix = random_bytes(rng, 12);
    std::memcpy(iv, prefix.data(), 12);
    store_be32(MutableByteView(iv + 12, 4), 0xfffffff9u);

    for (const std::size_t len : {16u * 7, 16u * 8, 16u * 8 + 1, 16u * 20 + 5, 16u * 40}) {
      const Bytes data = random_bytes(rng, len);
      Bytes expected = data;
      for (std::size_t block = 0; block * 16 < len; ++block) {
        std::uint8_t ctr[16], ks[16];
        std::memcpy(ctr, iv, 12);
        store_be32(MutableByteView(ctr + 12, 4),
                   static_cast<std::uint32_t>(0xfffffff9u + block));
        portable.encrypt_block(ctr, ks);
        for (std::size_t i = 0; i < 16 && block * 16 + i < len; ++i) {
          expected[block * 16 + i] ^= ks[i];
        }
      }
      Bytes hw_out = data;
      aes_ctr_xor(hw, iv, hw_out);
      Bytes portable_out = data;
      aes_ctr_xor(portable, iv, portable_out);
      EXPECT_EQ(hw_out, expected) << "len " << len;
      EXPECT_EQ(portable_out, expected) << "len " << len;
      EXPECT_EQ(aes_ctr(hw, iv, data), expected) << "len " << len;
    }
  }
}

// ---------------------------------------------------------------- X25519

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = from_hex<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const auto alice_priv = from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv = from_hex<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  const auto alice_pub = x25519_base(alice_priv);
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const auto k1 = x25519(alice_priv, bob_pub);
  const auto k2 = x25519(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, AgreementPropertyOverRandomKeys) {
  DeterministicEntropy entropy(42);
  for (int i = 0; i < 10; ++i) {
    const auto a = x25519_keypair(entropy.array<32>());
    const auto b = x25519_keypair(entropy.array<32>());
    EXPECT_EQ(x25519(a.private_key, b.public_key),
              x25519(b.private_key, a.public_key));
  }
}

// --------------------------------------------------------------- Ed25519

TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  const auto seed = from_hex<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(hex(kp.public_key),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");

  const auto sig = ed25519_sign(kp, {});
  EXPECT_EQ(hex(sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  const auto seed = from_hex<32>(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(hex(kp.public_key),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");

  const Bytes msg = hex_decode("72");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(hex(sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, RejectsTamperedMessage) {
  DeterministicEntropy entropy(1);
  const auto kp = ed25519_keypair(entropy.array<32>());
  const Bytes msg = to_bytes("sign me");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, to_bytes("sign mE"), sig));
}

TEST(Ed25519, RejectsTamperedSignature) {
  DeterministicEntropy entropy(2);
  const auto kp = ed25519_keypair(entropy.array<32>());
  const Bytes msg = to_bytes("message");
  auto sig = ed25519_sign(kp, msg);
  sig[10] ^= 0x40;
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, sig));
}

TEST(Ed25519, RejectsWrongKey) {
  DeterministicEntropy entropy(3);
  const auto kp1 = ed25519_keypair(entropy.array<32>());
  const auto kp2 = ed25519_keypair(entropy.array<32>());
  const Bytes msg = to_bytes("message");
  const auto sig = ed25519_sign(kp1, msg);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, SignVerifyPropertyOverMessageSizes) {
  DeterministicEntropy entropy(4);
  const auto kp = ed25519_keypair(entropy.array<32>());
  Rng rng(9);
  for (std::size_t len : {0u, 1u, 32u, 63u, 64u, 65u, 100u, 1000u}) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(ed25519_verify(kp.public_key, msg, ed25519_sign(kp, msg)));
  }
}

// ------------------------------------ Curve25519 against the TweetNaCl oracle
//
// The library's radix-2^51 X25519 and Ed25519 must produce the bytes the
// TweetNaCl port produces and accept exactly the signatures it accepts.

constexpr const char* kL =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

// The eight points of order dividing 8, canonically encoded.
constexpr const char* kSmallOrderPoints[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",  // identity
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // (0, -1)
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
};

// Non-canonical point encodings: y >= p, and x = 0 with the sign bit set.
constexpr const char* kNonCanonicalPoints[] = {
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p + 1
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // ... sign set
    "efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p + 2
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = 2^255 - 1
    "0100000000000000000000000000000000000000000000000000000000000080",  // (0, 1), sign set
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // (0, -1), sign set
};

// X25519 u-coordinates of small order, and u >= p.
constexpr const char* kEdgeU[] = {
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0100000000000000000000000000000000000000000000000000000000000000",
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p - 1
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p + 1
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // 2^255 - 1
};

// Little-endian a + b over 32 bytes; false when the sum needs 257 bits.
bool add_256(std::array<std::uint8_t, 32>& a, const std::array<std::uint8_t, 32>& b) {
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    carry += static_cast<unsigned>(a[i]) + b[i];
    a[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  return carry == 0;
}

Ed25519Signature make_sig(const std::array<std::uint8_t, 32>& r,
                          const std::array<std::uint8_t, 32>& s) {
  Ed25519Signature sig{};
  std::copy(r.begin(), r.end(), sig.begin());
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

// A public key together with its secret scalar a (A = [a]B): (A, a) is a
// signature that verifies exactly when [k]A' = [a]B - A for the key A'.
struct KnownScalarKey {
  Ed25519PublicKey a_point;
  std::array<std::uint8_t, 32> a_scalar;
};

KnownScalarKey known_scalar_key(const Ed25519Seed& seed) {
  const Sha512Digest d = Sha512::hash(seed);
  KnownScalarKey k;
  std::copy(d.begin(), d.begin() + 32, k.a_scalar.begin());
  k.a_scalar[0] &= 248;
  k.a_scalar[31] &= 127;
  k.a_scalar[31] |= 64;
  k.a_point = ed25519_keypair(seed).public_key;
  return k;
}

void expect_verify_matches_oracle(const Ed25519PublicKey& pk, ByteView msg,
                                  const Ed25519Signature& sig, const std::string& what) {
  EXPECT_EQ(ed25519_verify(pk, msg, sig), oracle::ed25519_verify(pk, msg, sig))
      << what << " pk=" << hex(pk) << " sig=" << hex(sig);
}

TEST(CurveOracle, X25519MatchesOracleOnSeededInputs) {
  DeterministicEntropy entropy(24);
  const X25519Key base = from_hex<32>(
      "0900000000000000000000000000000000000000000000000000000000000000");
  for (int i = 0; i < 48; ++i) {
    const auto scalar = entropy.array<32>();
    const auto point = entropy.array<32>();  // bit 255 set half the time
    EXPECT_EQ(x25519(scalar, point), oracle::x25519(scalar, point)) << i;
    EXPECT_EQ(x25519_base(scalar), oracle::x25519(scalar, base)) << i;
  }
}

TEST(CurveOracle, X25519MatchesOracleOnSmallOrderAndNonCanonicalU) {
  DeterministicEntropy entropy(25);
  for (const char* u_hex : kEdgeU) {
    for (const std::uint8_t top : {0x00, 0x80}) {
      auto u = from_hex<32>(u_hex);
      u[31] |= top;  // bit 255 is ignored
      for (int i = 0; i < 4; ++i) {
        const auto scalar = entropy.array<32>();
        EXPECT_EQ(x25519(scalar, u), oracle::x25519(scalar, u)) << u_hex;
      }
    }
  }
}

TEST(CurveOracle, Ed25519KeysAndSignaturesMatchOracle) {
  DeterministicEntropy entropy(26);
  Rng rng(26);
  for (int i = 0; i < 32; ++i) {
    const auto kp = ed25519_keypair(entropy.array<32>());
    ASSERT_EQ(kp.public_key, oracle::ed25519_public_key(kp.seed)) << i;
    Bytes msg(rng.uniform(300));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_EQ(sig, oracle::ed25519_sign(kp, msg)) << i;
    EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig)) << i;
  }
}

TEST(CurveOracle, VerifyMatchesOracleOnSmallOrderAndNonCanonicalPoints) {
  std::vector<std::string> edge(std::begin(kSmallOrderPoints), std::end(kSmallOrderPoints));
  edge.insert(edge.end(), std::begin(kNonCanonicalPoints), std::end(kNonCanonicalPoints));
  DeterministicEntropy entropy(27);
  const KnownScalarKey known = known_scalar_key(entropy.array<32>());
  const auto kp = ed25519_keypair(entropy.array<32>());
  const std::array<std::uint8_t, 32> zero{};
  int accepted = 0;
  for (const std::string& point_hex : edge) {
    const auto point = from_hex<32>(point_hex);
    for (int m = 0; m < 4; ++m) {
      const Bytes msg = to_bytes("edge message " + std::to_string(m));
      // As A: R = [a]B, S = a verifies exactly when [k]A is the identity.
      const auto as_a = make_sig(known.a_point, known.a_scalar);
      expect_verify_matches_oracle(point, msg, as_a, "A=" + point_hex);
      accepted += ed25519_verify(point, msg, as_a) ? 1 : 0;
      // As A and as R, with S = 0: R' = [k](-A).
      for (const char* r_hex : kSmallOrderPoints) {
        expect_verify_matches_oracle(point, msg, make_sig(from_hex<32>(r_hex), zero),
                                     std::string("R=") + r_hex + " A=" + point_hex);
      }
      // As R of an otherwise valid signature.
      auto as_r = ed25519_sign(kp, msg);
      std::copy(point.begin(), point.end(), as_r.begin());
      expect_verify_matches_oracle(kp.public_key, msg, as_r, "R=" + point_hex);
    }
  }
  // A = identity, in each of its four encodings, accepts every (A, a)
  // signature.
  EXPECT_GE(accepted, 4 * 4);
}

TEST(CurveOracle, VerifyUsesAllOf256BitSAsOracleDoes) {
  DeterministicEntropy entropy(28);
  const auto l = from_hex<32>(kL);
  for (int i = 0; i < 8; ++i) {
    const auto kp = ed25519_keypair(entropy.array<32>());
    const Bytes msg = to_bytes("S >= L " + std::to_string(i));
    const auto sig = ed25519_sign(kp, msg);
    std::array<std::uint8_t, 32> s{};
    std::copy(sig.begin() + 32, sig.end(), s.begin());
    std::array<std::uint8_t, 32> r{};
    std::copy(sig.begin(), sig.begin() + 32, r.begin());
    // S + mL names the same [S]B, so both accept it; m = 8 and up set bit 255.
    std::array<std::uint8_t, 32> s_plus = s;
    for (int m = 1; m <= 15; ++m) {
      if (!add_256(s_plus, l)) break;
      const auto big = make_sig(r, s_plus);
      EXPECT_TRUE(oracle::ed25519_verify(kp.public_key, msg, big)) << m;
      EXPECT_TRUE(ed25519_verify(kp.public_key, msg, big)) << m;
    }
    // Bit 255 flipped on its own changes the value: both reject.
    std::array<std::uint8_t, 32> s_top = s;
    s_top[31] ^= 0x80;
    expect_verify_matches_oracle(kp.public_key, msg, make_sig(r, s_top), "S|2^255");
    std::array<std::uint8_t, 32> s_max;
    s_max.fill(0xff);
    expect_verify_matches_oracle(kp.public_key, msg, make_sig(r, s_max), "S=2^256-1");
  }
}

TEST(CurveOracle, VerifyMatchesOracleOnSingleBitFlips) {
  DeterministicEntropy entropy(29);
  Rng rng(29);
  constexpr int kFlips = 256;
  int accepted = 0;
  for (int i = 0; i < kFlips; ++i) {
    const auto kp = ed25519_keypair(entropy.array<32>());
    Bytes msg(1 + rng.uniform(64));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    auto pk = kp.public_key;
    auto sig = ed25519_sign(kp, msg);
    // One bit anywhere in pk || msg || sig.
    const std::size_t bit = rng.uniform(8 * (pk.size() + msg.size() + sig.size()));
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    std::size_t byte = bit / 8;
    if (byte < pk.size()) {
      pk[byte] ^= mask;
    } else if ((byte -= pk.size()) < msg.size()) {
      msg[byte] ^= mask;
    } else {
      sig[byte - msg.size()] ^= mask;
    }
    const bool got = ed25519_verify(pk, msg, sig);
    EXPECT_EQ(got, oracle::ed25519_verify(pk, msg, sig)) << "flip " << i << " bit " << bit;
    accepted += got ? 1 : 0;
  }
  // No single-bit flip keeps a signature valid (S changes by 2^j, not a
  // multiple of L; any other flip changes k or A).
  EXPECT_EQ(accepted, 0);
}

TEST(CurveOracle, FixedBaseTableFirstUseFromPoolThreads) {
  // The base-point tables are built on first use; here that first use
  // comes from several pool threads at once (publish_batch verifies on
  // pool threads). scripts/tsan_check.sh runs this test alone.
  constexpr std::size_t kTasks = 16;
  std::vector<Ed25519Seed> seeds(kTasks);
  DeterministicEntropy entropy(30);
  for (auto& seed : seeds) seed = entropy.array<32>();
  std::vector<Ed25519KeyPair> keys(kTasks);
  std::vector<Ed25519Signature> sigs(kTasks);
  std::vector<int> verified(kTasks, 0);
  {
    common::ThreadPool pool(4);
    common::run_indexed(&pool, kTasks, [&](std::size_t i) {
      keys[i] = ed25519_keypair(seeds[i]);
      sigs[i] = ed25519_sign(keys[i], to_bytes("pool"));
      verified[i] = ed25519_verify(keys[i].public_key, to_bytes("pool"), sigs[i]) ? 1 : 0;
    });
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(keys[i].public_key, oracle::ed25519_public_key(seeds[i])) << i;
    EXPECT_EQ(sigs[i], oracle::ed25519_sign(keys[i], to_bytes("pool"))) << i;
    EXPECT_EQ(verified[i], 1) << i;
  }
}

// ---------------------------------------------------------- SecureChannel

// Helper performing the one-round-trip handshake between two endpoints.
std::pair<SecureChannel, SecureChannel> make_channel_pair(std::uint64_t seed) {
  DeterministicEntropy entropy(seed);
  ChannelHandshake client(ChannelHandshake::Role::kInitiator, entropy);
  ChannelHandshake server(ChannelHandshake::Role::kResponder, entropy);
  const X25519Key client_pub = client.local_public_key();
  const X25519Key server_pub = server.local_public_key();
  auto c = std::move(client).complete(server_pub);
  auto s = std::move(server).complete(client_pub);
  EXPECT_TRUE(c.ok() && s.ok());
  return {std::move(*c), std::move(*s)};
}

TEST(SecureChannel, RejectsAllZeroSharedSecret) {
  // RFC 7748 §6.1 contributory behavior: an all-zero peer point (and any
  // low-order point) forces the X25519 output to zero, keying the channel
  // on material the attacker already knows. complete() must refuse.
  DeterministicEntropy entropy(99);
  ChannelHandshake victim(ChannelHandshake::Role::kInitiator, entropy);
  const X25519Key zero_point{};  // the all-zero u-coordinate
  auto channel = std::move(victim).complete(zero_point);
  ASSERT_FALSE(channel.ok());
  EXPECT_EQ(channel.error().code, ErrorCode::kProtocolError);
}

TEST(SecureChannel, HandshakeAndBidirectionalTraffic) {
  auto [client, server] = make_channel_pair(5);

  const Bytes wire1 = client.seal(to_bytes("hello from client"));
  auto r1 = server.open(wire1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(to_string(*r1), "hello from client");

  const Bytes wire2 = server.seal(to_bytes("hello from server"));
  auto r2 = client.open(wire2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(to_string(*r2), "hello from server");
}

TEST(SecureChannel, TranscriptHashesAgree) {
  auto [client, server] = make_channel_pair(6);
  EXPECT_EQ(client.transcript_hash(), server.transcript_hash());
}

TEST(SecureChannel, WireIsNotPlaintext) {
  auto [client, server] = make_channel_pair(7);
  const Bytes msg = to_bytes("sensitive smart meter reading: 4.2 kWh");
  const Bytes wire = client.seal(msg);
  // The plaintext must not appear anywhere in the record.
  const std::string w(wire.begin(), wire.end());
  EXPECT_EQ(w.find("smart meter"), std::string::npos);
}

TEST(SecureChannel, RejectsReplay) {
  auto [client, server] = make_channel_pair(8);
  const Bytes wire = client.seal(to_bytes("msg"));
  ASSERT_TRUE(server.open(wire).ok());
  auto replay = server.open(wire);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, ErrorCode::kProtocolError);
}

TEST(SecureChannel, RejectsReorder) {
  auto [client, server] = make_channel_pair(9);
  const Bytes w1 = client.seal(to_bytes("first"));
  const Bytes w2 = client.seal(to_bytes("second"));
  EXPECT_FALSE(server.open(w2).ok());  // out of order
  EXPECT_TRUE(server.open(w1).ok());   // still in sequence
}

TEST(SecureChannel, RejectsTampering) {
  auto [client, server] = make_channel_pair(10);
  Bytes wire = client.seal(to_bytes("payload"));
  wire[wire.size() / 2] ^= 0x80;
  auto r = server.open(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);
}

TEST(SecureChannel, RejectsTruncatedRecord) {
  auto [client, server] = make_channel_pair(11);
  EXPECT_FALSE(server.open(Bytes(5, 0)).ok());
}

TEST(SecureChannel, DirectionsUseIndependentKeys) {
  auto [client, server] = make_channel_pair(12);
  const Bytes from_client = client.seal(to_bytes("same text"));
  const Bytes from_server = server.seal(to_bytes("same text"));
  EXPECT_NE(from_client, from_server);
  // A client record must not decrypt as a server->client record.
  EXPECT_FALSE(client.open(from_client).ok());
}

}  // namespace
}  // namespace securecloud::crypto
