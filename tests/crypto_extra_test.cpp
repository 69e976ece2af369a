// Additional crypto vectors and adversarial edge cases beyond the core
// suite: more FIPS/NIST/RFC vectors, boundary-length messages, and
// cross-primitive consistency properties.
#include <gtest/gtest.h>

#include "common/rng.hpp"
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
#include "sha2_length_vectors.hpp"

namespace securecloud::crypto {
namespace {

std::string hex(ByteView b) { return hex_encode(b); }

// --------------------------------------------------- more SHA-2 vectors

TEST(Sha2Extra, Sha256SingleByte) {
  // NIST CAVP short message: one byte 0xbd.
  EXPECT_EQ(hex(Sha256::hash(Bytes{0xbd})),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(Sha2Extra, Sha256ExactBlockBoundaries) {
  // Messages of exactly 55/56/64 bytes cross the padding boundary cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 'a');
    Sha256 split;
    split.update(ByteView(msg.data(), len / 2));
    split.update(ByteView(msg.data() + len / 2, len - len / 2));
    EXPECT_EQ(split.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

// m_n of sha2_length_vectors.hpp.
Bytes length_pattern(std::size_t n) {
  Bytes m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = static_cast<std::uint8_t>(7 * i + 1);
  return m;
}

// Every length 0..130 hashed in one shot and split in two at every
// offset, against digests from Python's hashlib.
template <typename Hash>
void expect_every_length_and_split(const char* const* expected) {
  for (std::size_t n = 0; n <= testvec::kShaMaxLength; ++n) {
    const Bytes m = length_pattern(n);
    EXPECT_EQ(hex(Hash::hash(m)), expected[n]) << "len=" << n;
    for (std::size_t cut = 0; cut <= n; ++cut) {
      Hash h;
      h.update(ByteView(m.data(), cut));
      h.update(ByteView(m.data() + cut, n - cut));
      EXPECT_EQ(hex(h.finish()), expected[n]) << "len=" << n << " cut=" << cut;
    }
  }
}

TEST(Sha2Extra, Sha256EveryLengthAndSplitMatchesHashlib) {
  expect_every_length_and_split<Sha256>(testvec::kSha256OfLength);
}

TEST(Sha2Extra, Sha512EveryLengthAndSplitMatchesHashlib) {
  expect_every_length_and_split<Sha512>(testvec::kSha512OfLength);
}

TEST(Sha2Extra, Sha512TwoBlockVector) {
  // FIPS 180-4 example: 896-bit message.
  EXPECT_EQ(
      hex(Sha512::hash(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha2Extra, Sha512BlockBoundaries) {
  for (const std::size_t len : {111u, 112u, 127u, 128u, 129u, 240u}) {
    const Bytes msg(len, 'z');
    Sha512 split;
    split.update(ByteView(msg.data(), len / 3));
    split.update(ByteView(msg.data() + len / 3, len - len / 3));
    EXPECT_EQ(split.finish(), Sha512::hash(msg)) << "len=" << len;
  }
}

// ------------------------------------------------------ more HMAC vectors

TEST(HmacExtra, Rfc4231Case3) {
  // key = 20 x 0xaa, data = 50 x 0xdd.
  EXPECT_EQ(hex(HmacSha256::mac(Bytes(20, 0xaa), Bytes(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacExtra, Rfc4231Case4) {
  const Bytes key = hex_decode("0102030405060708090a0b0c0d0e0f10111213141516171819");
  EXPECT_EQ(hex(HmacSha256::mac(key, Bytes(50, 0xcd))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacExtra, StreamingEqualsOneShot) {
  Rng rng(1);
  Bytes key(32), data(1000);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  HmacSha256 h(key);
  h.update(ByteView(data.data(), 100));
  h.update(ByteView(data.data() + 100, 900));
  EXPECT_EQ(h.finish(), HmacSha256::mac(key, data));
}

// ----------------------------------------------------------- HKDF case 2

TEST(HkdfExtra, Rfc5869Case2LongInputs) {
  Bytes ikm(80), salt(80), info(80);
  for (std::size_t i = 0; i < 80; ++i) {
    ikm[i] = static_cast<std::uint8_t>(i);
    salt[i] = static_cast<std::uint8_t>(0x60 + i);
    info[i] = static_cast<std::uint8_t>(0xb0 + i);
  }
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(hex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HkdfExtra, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  EXPECT_EQ(hex(hkdf({}, ikm, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ------------------------------------------------------- AES-CTR vectors

TEST(CtrExtra, NistSp80038aAes128Ctr) {
  // SP 800-38A F.5.1 CTR-AES128.Encrypt.
  const Aes aes(hex_decode("2b7e151628aed2a6abf7158809cf4f3c"));
  std::uint8_t iv[16];
  const Bytes iv_bytes = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv);
  const Bytes pt = hex_decode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes ct = aes_ctr(aes, iv, pt);
  EXPECT_EQ(hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

// -------------------------------------------------- GCM corner behaviours

TEST(GcmExtra, AadOnlyMessage) {
  const AesGcm gcm(Bytes(16, 0x01));
  const GcmNonce nonce = nonce_from_counter(1);
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, to_bytes("only authenticated data"), {}, tag);
  EXPECT_TRUE(ct.empty());
  EXPECT_TRUE(gcm.open(nonce, to_bytes("only authenticated data"), {}, tag).ok());
  EXPECT_FALSE(gcm.open(nonce, to_bytes("only authenticated datA"), {}, tag).ok());
}

TEST(GcmExtra, TagDependsOnNonceDomain) {
  const AesGcm gcm(Bytes(16, 0x02));
  GcmTag t1, t2;
  (void)gcm.seal(nonce_from_counter(5, 1), {}, to_bytes("m"), t1);
  (void)gcm.seal(nonce_from_counter(5, 2), {}, to_bytes("m"), t2);
  EXPECT_NE(t1, t2);
}

TEST(GcmExtra, EverySingleBitFlipInTagDetected) {
  const AesGcm gcm(Bytes(16, 0x03));
  const GcmNonce nonce = nonce_from_counter(9);
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce, {}, to_bytes("integrity matters"), tag);
  for (std::size_t byte = 0; byte < tag.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      GcmTag corrupted = tag;
      corrupted[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_FALSE(gcm.open(nonce, {}, ct, corrupted).ok());
    }
  }
}

// ------------------------------------------------- X25519 special points

TEST(X25519Extra, Rfc7748Vector2) {
  X25519Key scalar{}, point{};
  const Bytes s = hex_decode(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const Bytes u = hex_decode(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  EXPECT_EQ(hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519Extra, IteratedVectorOneThousand) {
  // RFC 7748 iteration test: after 1,000 iterations of k = X25519(k, u).
  X25519Key k{}, u{};
  k[0] = 9;
  u[0] = 9;
  for (int i = 0; i < 1000; ++i) {
    const X25519Key next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// ----------------------------------------------------- Ed25519 RFC case 3

TEST(Ed25519Extra, Rfc8032Test3TwoBytes) {
  const Bytes seed_bytes = hex_decode(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  Ed25519Seed seed{};
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(hex(kp.public_key),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg = hex_decode("af82");
  EXPECT_EQ(hex(ed25519_sign(kp, msg)),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
}

TEST(Ed25519Extra, SignatureIsDeterministic) {
  DeterministicEntropy entropy(5);
  const auto kp = ed25519_keypair(entropy.array<32>());
  const Bytes msg = to_bytes("same input, same signature");
  EXPECT_EQ(ed25519_sign(kp, msg), ed25519_sign(kp, msg));
}

// ----------------------------------------------- channel stress behaviour

TEST(ChannelExtra, ManyMessagesBothDirections) {
  DeterministicEntropy entropy(6);
  ChannelHandshake client(ChannelHandshake::Role::kInitiator, entropy);
  ChannelHandshake server(ChannelHandshake::Role::kResponder, entropy);
  const X25519Key cpk = client.local_public_key();
  const X25519Key spk = server.local_public_key();
  auto cr = std::move(client).complete(spk);
  auto sr = std::move(server).complete(cpk);
  ASSERT_TRUE(cr.ok() && sr.ok());
  auto& c = *cr;
  auto& s = *sr;

  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Bytes msg(rng.uniform(200));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    auto up = s.open(c.seal(msg));
    ASSERT_TRUE(up.ok());
    EXPECT_EQ(*up, msg);
    auto down = c.open(s.seal(msg));
    ASSERT_TRUE(down.ok());
    EXPECT_EQ(*down, msg);
  }
}

TEST(ChannelExtra, MismatchedHandshakeKeysFail) {
  DeterministicEntropy entropy(8);
  ChannelHandshake client(ChannelHandshake::Role::kInitiator, entropy);
  ChannelHandshake server(ChannelHandshake::Role::kResponder, entropy);
  ChannelHandshake mitm(ChannelHandshake::Role::kResponder, entropy);
  const X25519Key cpk = client.local_public_key();

  // Client completes against the MITM's key; server against the client.
  auto cr = std::move(client).complete(mitm.local_public_key());
  auto sr = std::move(server).complete(cpk);
  ASSERT_TRUE(cr.ok() && sr.ok());
  // Keys disagree: records cannot cross.
  EXPECT_FALSE(sr->open(cr->seal(to_bytes("hello"))).ok());
  EXPECT_NE(cr->transcript_hash(), sr->transcript_hash());
}

// ------------------------------------------------ record-layer abuse suite
//
// What an on-path attacker can do to a record stream once the handshake
// is done: replay, reorder, truncate, and reflect. Every manipulation
// must surface as a typed error, and the channel must keep working for
// the still-valid direction where the protocol allows it.

struct ChannelPair {
  SecureChannel client;
  SecureChannel server;
};

ChannelPair make_abuse_pair(std::uint64_t seed) {
  DeterministicEntropy entropy(seed);
  ChannelHandshake client(ChannelHandshake::Role::kInitiator, entropy);
  ChannelHandshake server(ChannelHandshake::Role::kResponder, entropy);
  const X25519Key cpk = client.local_public_key();
  const X25519Key spk = server.local_public_key();
  auto c = std::move(client).complete(spk);
  auto s = std::move(server).complete(cpk);
  EXPECT_TRUE(c.ok() && s.ok());
  return {std::move(*c), std::move(*s)};
}

TEST(ChannelAbuse, ReplayAfterInterveningTraffic) {
  auto [client, server] = make_abuse_pair(41);
  const Bytes first = client.seal(to_bytes("one"));
  ASSERT_TRUE(server.open(first).ok());
  ASSERT_TRUE(server.open(client.seal(to_bytes("two"))).ok());
  // Replaying the *first* record long after it was consumed must still
  // fail (the window never reopens).
  auto replay = server.open(first);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, ErrorCode::kProtocolError);
}

TEST(ChannelAbuse, ReorderIsRejectedButStreamSurvives) {
  auto [client, server] = make_abuse_pair(42);
  const Bytes w1 = client.seal(to_bytes("first"));
  const Bytes w2 = client.seal(to_bytes("second"));
  const Bytes w3 = client.seal(to_bytes("third"));
  EXPECT_FALSE(server.open(w3).ok());  // skipped ahead
  EXPECT_FALSE(server.open(w2).ok());  // still not the expected sequence
  // The in-order record remains acceptable: rejects consume no state.
  auto r1 = server.open(w1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(to_string(*r1), "first");
}

TEST(ChannelAbuse, TruncationAtEveryBoundaryFails) {
  auto [client, server] = make_abuse_pair(43);
  const Bytes wire = client.seal(to_bytes("do not shorten me"));
  for (std::size_t keep : {std::size_t{0}, std::size_t{1}, wire.size() / 2,
                           wire.size() - 17, wire.size() - 1}) {
    const Bytes cut(wire.begin(),
                    wire.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(keep, wire.size())));
    EXPECT_FALSE(server.open(cut).ok()) << "accepted truncation to " << keep;
  }
  // Untouched record still opens: failed attempts burned no sequence.
  EXPECT_TRUE(server.open(wire).ok());
}

TEST(ChannelAbuse, ReflectionAcrossDirectionsFails) {
  auto [client, server] = make_abuse_pair(44);
  // Reflecting a record back at its own sender must fail even at equal
  // sequence numbers — the two directions run domain-separated nonces
  // and independent keys.
  const Bytes from_client = client.seal(to_bytes("bounce me"));
  auto reflected = client.open(from_client);
  ASSERT_FALSE(reflected.ok());
  EXPECT_EQ(reflected.error().code, ErrorCode::kIntegrityViolation);
  // And the legitimate receiver still accepts it afterwards.
  EXPECT_TRUE(server.open(from_client).ok());
}

TEST(ChannelAbuse, TranscriptHashesAgreeAndBindBothKeys) {
  auto [client, server] = make_abuse_pair(45);
  EXPECT_EQ(client.transcript_hash(), server.transcript_hash());
  // A different handshake (different ephemerals) yields a different
  // transcript — the value is session-unique, which is what lets the
  // attestation layer bind a quote to one live channel.
  auto [client2, server2] = make_abuse_pair(46);
  EXPECT_NE(client.transcript_hash(), client2.transcript_hash());
}

}  // namespace
}  // namespace securecloud::crypto
