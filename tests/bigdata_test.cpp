// Big-data layer tests: secure KV store, codecs, secure transfer, and the
// secure map/reduce framework.
#include <gtest/gtest.h>

#include "bigdata/codec.hpp"
#include "bigdata/kvstore.hpp"
#include "bigdata/mapreduce.hpp"
#include "bigdata/transfer.hpp"
#include "common/fault_injector.hpp"

namespace securecloud::bigdata {
namespace {

using crypto::DeterministicEntropy;

// ----------------------------------------------------------------- KvStore

struct KvFixture {
  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy{3};
  SecureKvStore store{storage, Bytes(16, 0x2a), "test", entropy};
};

TEST(KvStore, PutGetRemove) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("meter-1", to_bytes("reading=5")).ok());
  auto v = fx.store.get("meter-1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(to_string(*v), "reading=5");
  EXPECT_TRUE(fx.store.contains("meter-1"));
  ASSERT_TRUE(fx.store.remove("meter-1").ok());
  EXPECT_FALSE(fx.store.get("meter-1").ok());
  EXPECT_FALSE(fx.store.remove("meter-1").ok());
}

TEST(KvStore, OverwriteBumpsVersion) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("k", to_bytes("v1")).ok());
  ASSERT_TRUE(fx.store.put("k", to_bytes("v2")).ok());
  auto v = fx.store.get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(to_string(*v), "v2");
}

TEST(KvStore, StorageHoldsOnlyCiphertextAndHashedNames) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("customer-secret-key", to_bytes("SENSITIVE-VALUE")).ok());
  for (const auto& path : fx.storage.list()) {
    EXPECT_EQ(path.find("customer"), std::string::npos) << "key name leaked";
    const auto content = fx.storage.read_file(path);
    const std::string s(content->begin(), content->end());
    EXPECT_EQ(s.find("SENSITIVE"), std::string::npos) << "value leaked";
  }
}

TEST(KvStore, DetectsValueTampering) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("k", to_bytes("honest value")).ok());
  for (const auto& path : fx.storage.list()) {
    (*fx.storage.raw(path))[20] ^= 1;
  }
  auto v = fx.store.get("k");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, ErrorCode::kIntegrityViolation);
}

TEST(KvStore, DetectsRollback) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("k", to_bytes("v1")).ok());
  // Attacker snapshots the v1 blob.
  Bytes snapshot;
  for (const auto& p : fx.storage.list()) snapshot = *fx.storage.raw(p);
  ASSERT_TRUE(fx.store.put("k", to_bytes("v2")).ok());
  // Replay v1 over whatever the store currently references (puts write
  // versioned paths, so the stale blob must be planted at the live one).
  for (const auto& p : fx.storage.list()) *fx.storage.raw(p) = snapshot;
  auto v = fx.store.get("k");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, ErrorCode::kIntegrityViolation);
}

// Regression: a torn/failed storage write used to leave the half-written
// blob at the committed path, so the *next get()* of the old value blew
// up as a spurious kIntegrityViolation. Write-then-commit keeps the
// committed version untouched and reports the failure distinctly.
TEST(KvStore, FailedWriteKeepsCommittedValueReadable) {
  KvFixture fx;
  common::FaultInjector faults(42);
  fx.storage.set_fault_injector(&faults);

  ASSERT_TRUE(fx.store.put("k", to_bytes("v1")).ok());

  faults.arm(common::FaultKind::kIoError,
             common::FaultArm{.probability = 1.0, .max_fires = 1});
  auto failed = fx.store.put("k", to_bytes("v2 that never lands"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(failed.error().message.find("storage write failed"), std::string::npos)
      << "failure must be reported as a write failure, not an integrity violation";

  // The committed value is fully intact — not torn, not gone.
  auto v = fx.store.get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(to_string(*v), "v1");

  // Once the fault clears, the overwrite goes through normally.
  ASSERT_TRUE(fx.store.put("k", to_bytes("v2")).ok());
  auto v2 = fx.store.get("k");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(to_string(*v2), "v2");
}

// A failed storage delete during remove() stays best-effort (the index
// entry is gone either way) but is now counted instead of vanishing.
TEST(KvStore, FailedStorageRemoveIsCounted) {
  KvFixture fx;
  common::FaultInjector faults(42);
  fx.storage.set_fault_injector(&faults);
  obs::Registry registry;
  fx.store.set_obs(&registry);

  ASSERT_TRUE(fx.store.put("k", to_bytes("v")).ok());
  faults.arm(common::FaultKind::kIoError,
             common::FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(fx.store.remove("k").ok());
  EXPECT_FALSE(fx.store.contains("k"));
  EXPECT_EQ(registry.snapshot().counters.at("kvstore_storage_remove_failures_total"),
            1u);
}

TEST(KvStore, DetectsCrossKeySwap) {
  KvFixture fx;
  ASSERT_TRUE(fx.store.put("a", to_bytes("value-a")).ok());
  ASSERT_TRUE(fx.store.put("b", to_bytes("value-b")).ok());
  auto paths = fx.storage.list();
  ASSERT_EQ(paths.size(), 2u);
  std::swap(*fx.storage.raw(paths[0]), *fx.storage.raw(paths[1]));
  EXPECT_FALSE(fx.store.get("a").ok());
  EXPECT_FALSE(fx.store.get("b").ok());
}

TEST(KvStore, ScansComeFromTrustedIndex) {
  KvFixture fx;
  for (const std::string key : {"meter-1", "meter-2", "meter-10", "feeder-1"}) {
    ASSERT_TRUE(fx.store.put(key, to_bytes("x")).ok());
  }
  const auto meters = fx.store.scan_prefix("meter-");
  EXPECT_EQ(meters.size(), 3u);
  const auto range = fx.store.scan_range("feeder-1", "meter-1");
  EXPECT_EQ(range, (std::vector<std::string>{"feeder-1", "meter-1"}));
}

TEST(KvStore, SealedIndexRestoresAcrossRestart) {
  sgx::Platform platform;
  sgx::EnclaveImage image;
  image.name = "kv";
  image.code = to_bytes("kv-code");
  DeterministicEntropy signer(5);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());

  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy(6);
  const Bytes key(16, 0x2a);
  Bytes sealed_index;
  {
    SecureKvStore store(storage, key, "ns", entropy);
    ASSERT_TRUE(store.put("persisted", to_bytes("survives restart")).ok());
    sealed_index = store.seal_index(**enclave);
  }
  {
    SecureKvStore store(storage, key, "ns", entropy);
    EXPECT_FALSE(store.contains("persisted"));  // fresh instance: empty index
    ASSERT_TRUE(store.restore_index(**enclave, sealed_index).ok());
    auto v = store.get("persisted");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(to_string(*v), "survives restart");
  }
}

TEST(KvStore, DifferentEnclaveCannotRestoreIndex) {
  sgx::Platform platform;
  auto make = [&](const std::string& name, std::uint64_t seed) {
    sgx::EnclaveImage image;
    image.name = name;
    image.code = to_bytes("code-" + name);
    DeterministicEntropy signer(seed);
    sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
    return platform.create_enclave(image);
  };
  auto e1 = make("kv-a", 5);
  auto e2 = make("kv-b", 5);
  ASSERT_TRUE(e1.ok() && e2.ok());

  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy(6);
  SecureKvStore store(storage, Bytes(16, 1), "ns", entropy);
  ASSERT_TRUE(store.put("k", to_bytes("v")).ok());
  const Bytes sealed = store.seal_index(**e1);
  SecureKvStore other(storage, Bytes(16, 1), "ns", entropy);
  EXPECT_FALSE(other.restore_index(**e2, sealed).ok());
}

// ------------------------------------------------------------------ Codec

TEST(Codec, VarintRoundTrip) {
  const std::vector<std::uint64_t> values = {0, 1, 127, 128, 300, 1ull << 32,
                                             UINT64_MAX};
  for (const std::uint64_t v : values) {
    Bytes b;
    put_varint(b, v);
    ByteReader r(b);
    std::uint64_t back = 0;
    ASSERT_TRUE(get_varint(r, back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, ZigzagRoundTrip) {
  const std::vector<std::int64_t> values = {0, 1, -1, 2, -2, INT64_MAX, INT64_MIN};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  EXPECT_EQ(zigzag_encode(-1), 1u);  // small magnitudes stay small
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Codec, SeriesRoundTrip) {
  const std::vector<std::int64_t> series = {1000, 1003, 1001, 998, 998, 1500, -20};
  auto back = decode_series(encode_series(series));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, series);
}

TEST(Codec, SeriesCompressesSmoothData) {
  // Meter-like series: large absolute values, small deltas.
  std::vector<std::int64_t> series;
  std::int64_t v = 100'000;
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    v += rng.uniform_in(-5, 5);
    series.push_back(v);
  }
  const Bytes encoded = encode_series(series);
  EXPECT_LT(encoded.size(), series.size() * 2);  // < 2 bytes/sample vs 8 raw
}

TEST(Codec, SeriesRejectsGarbage) {
  EXPECT_FALSE(decode_series(Bytes{}).ok());
  Bytes claims_many;
  put_varint(claims_many, 1'000'000);
  EXPECT_FALSE(decode_series(claims_many).ok());
}

// ---------------------------------------------------------------- Transfer

constexpr std::size_t kNackBudget = 8;

/// Feeds `chunks` to `receiver` in order; returns every payload it
/// delivered, in delivery order.
std::vector<Bytes> deliver(SecureTransferReceiver& receiver,
                           const std::vector<Bytes>& chunks) {
  std::vector<Bytes> delivered;
  for (const auto& chunk : chunks) {
    auto r = receiver.receive(chunk);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) break;
    for (Bytes& payload : *r) delivered.push_back(std::move(payload));
  }
  return delivered;
}

TEST(Transfer, RoundTripMultiChunk) {
  const Bytes key(16, 0x44);
  SimClock clock;
  SecureTransferSender sender(key, /*stream_id=*/1, /*chunk_size=*/1024);
  SecureTransferReceiver receiver(key, 1, clock, kNackBudget);

  Bytes payload;
  for (int i = 0; i < 100; ++i) {
    payload.insert(payload.end(), 100, static_cast<std::uint8_t>(i));
  }
  const auto chunks = sender.send(payload);
  EXPECT_GT(chunks.size(), 0u);

  EXPECT_EQ(deliver(receiver, chunks), std::vector<Bytes>{payload});
}

TEST(Transfer, WireLengthIndependentOfContent) {
  // The host sees every chunk, so chunk count and sizes must be a
  // function of the payload length alone: an all-zero payload and a
  // random one of the same length look the same on the wire.
  constexpr std::size_t kChunk = 1024;
  // 8-byte sequence, 1-byte last flag, 12-byte nonce, 16-byte tag.
  constexpr std::size_t kOverhead = 8 + 1 + 12 + 16;
  const Bytes key(16, 0x45);
  Rng rng(5);
  for (const std::size_t length : {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk,
                                   3 * kChunk + 5}) {
    Bytes random(length);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
    SecureTransferSender zero_sender(key, 1, kChunk);
    SecureTransferSender random_sender(key, 1, kChunk);
    const auto zero_chunks = zero_sender.send(Bytes(length, 0));
    const auto random_chunks = random_sender.send(random);

    const std::size_t expected_chunks = length == 0 ? 1 : (length + kChunk - 1) / kChunk;
    ASSERT_EQ(zero_chunks.size(), expected_chunks) << "length " << length;
    ASSERT_EQ(random_chunks.size(), expected_chunks) << "length " << length;
    for (std::size_t i = 0; i < expected_chunks; ++i) {
      const std::size_t take = std::min(kChunk, length - i * kChunk);
      EXPECT_EQ(zero_chunks[i].size(), take + kOverhead) << "length " << length;
      EXPECT_EQ(random_chunks[i].size(), take + kOverhead) << "length " << length;
    }
  }
}

TEST(Transfer, DetectsTamperedChunk) {
  const Bytes key(16, 0x44);
  SimClock clock;
  SecureTransferSender sender(key, 2);
  SecureTransferReceiver receiver(key, 2, clock, kNackBudget);
  const auto chunks = sender.send(Bytes(1000, 0x11));
  ASSERT_EQ(chunks.size(), 1u);
  Bytes tampered = chunks[0];
  tampered[tampered.size() / 2] ^= 1;

  // Not delivered, counted corrupt, and its sequence becomes a gap.
  EXPECT_TRUE(deliver(receiver, {tampered}).empty());
  EXPECT_EQ(receiver.recovery_stats().corrupt, 1u);
  EXPECT_TRUE(receiver.has_pending_gaps());
  // The genuine chunk still repairs the stream.
  EXPECT_EQ(deliver(receiver, chunks), std::vector<Bytes>{Bytes(1000, 0x11)});
  EXPECT_FALSE(receiver.has_pending_gaps());
}

TEST(Transfer, ReorderedChunksDeliverOnceInOrder) {
  const Bytes key(16, 0x44);
  SimClock clock;
  SecureTransferSender sender(key, 3, /*chunk_size=*/64);
  SecureTransferReceiver receiver(key, 3, clock, kNackBudget);
  Rng rng(4);
  std::vector<Bytes> payloads(2, Bytes(1000));
  std::vector<Bytes> chunks;
  for (Bytes& payload : payloads) {
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    for (Bytes& chunk : sender.send(payload)) chunks.push_back(std::move(chunk));
  }
  ASSERT_GE(chunks.size(), 4u);

  // Every chunk arrives, last first: nothing is delivered until chunk 0
  // fills the front, then both payloads, in order.
  std::vector<Bytes> reversed(chunks.rbegin(), chunks.rend());
  reversed.pop_back();
  EXPECT_TRUE(deliver(receiver, reversed).empty());
  EXPECT_EQ(receiver.buffered_depth(), chunks.size() - 1);
  EXPECT_EQ(deliver(receiver, {chunks[0]}), payloads);

  // A replay of the whole stream delivers nothing again.
  EXPECT_TRUE(deliver(receiver, chunks).empty());
  EXPECT_EQ(receiver.recovery_stats().duplicates, chunks.size());
  EXPECT_EQ(receiver.recovery_stats().accepted, chunks.size());
}

TEST(Transfer, MultipleMessagesOverOneStream) {
  const Bytes key(16, 0x44);
  SimClock clock;
  SecureTransferSender sender(key, 4);
  SecureTransferReceiver receiver(key, 4, clock, kNackBudget);
  for (int m = 0; m < 5; ++m) {
    const Bytes payload(100 + m, static_cast<std::uint8_t>(m));
    EXPECT_EQ(deliver(receiver, sender.send(payload)), std::vector<Bytes>{payload});
  }
}

// --------------------------------------------------------------- MapReduce

struct MrFixture {
  sgx::Platform platform;
  DeterministicEntropy entropy{12};
  SecureMapReduce mapreduce{platform, entropy};
};

TEST(MapReduce, WordCountStyleJob) {
  MrFixture fx;
  std::vector<std::vector<Bytes>> partitions;
  partitions.push_back(fx.mapreduce.encrypt_partition(
      {to_bytes("a b a"), to_bytes("b c")}));
  partitions.push_back(fx.mapreduce.encrypt_partition({to_bytes("c c a")}));

  auto map_fn = [](ByteView record) {
    std::vector<KeyValue> out;
    std::string word;
    for (const char c : std::string(record.begin(), record.end()) + " ") {
      if (c == ' ') {
        if (!word.empty()) out.push_back({word, 1.0});
        word.clear();
      } else {
        word.push_back(c);
      }
    }
    return out;
  };
  auto reduce_fn = [](const std::string&, const std::vector<double>& values) {
    double sum = 0;
    for (const double v : values) sum += v;
    return sum;
  };

  auto result = fx.mapreduce.run({.num_mappers = 2, .num_reducers = 2}, partitions,
                                 map_fn, reduce_fn);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->output.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(result->output.at("b"), 2.0);
  EXPECT_DOUBLE_EQ(result->output.at("c"), 3.0);
  EXPECT_EQ(result->stats.input_records, 3u);
  EXPECT_EQ(result->stats.intermediate_pairs, 8u);
  EXPECT_GT(result->stats.enclave_transitions, 0u);
  EXPECT_GT(result->stats.shuffle_bytes, 0u);
}

TEST(MapReduce, CombinerShrinksShuffleWithoutChangingResults) {
  MrFixture fx;
  // Skewed input: many repeated words per partition => combiner gold.
  std::vector<Bytes> records;
  for (int i = 0; i < 50; ++i) records.push_back(to_bytes("a b a b a"));
  std::vector<std::vector<Bytes>> partitions;
  partitions.push_back(fx.mapreduce.encrypt_partition(records));

  auto map_fn = [](ByteView record) {
    std::vector<KeyValue> out;
    std::string word;
    for (const char c : std::string(record.begin(), record.end()) + " ") {
      if (c == ' ') {
        if (!word.empty()) out.push_back({word, 1.0});
        word.clear();
      } else {
        word.push_back(c);
      }
    }
    return out;
  };
  auto sum_fn = [](const std::string&, const std::vector<double>& values) {
    double sum = 0;
    for (const double v : values) sum += v;
    return sum;
  };

  auto plain = fx.mapreduce.run({.num_mappers = 2, .num_reducers = 2}, partitions,
                                map_fn, sum_fn);
  MrFixture fx2;
  std::vector<std::vector<Bytes>> partitions2;
  partitions2.push_back(fx2.mapreduce.encrypt_partition(records));
  auto combined = fx2.mapreduce.run(
      {.num_mappers = 2, .num_reducers = 2, .enable_combiner = true}, partitions2,
      map_fn, sum_fn);
  ASSERT_TRUE(plain.ok() && combined.ok());
  EXPECT_EQ(plain->output, combined->output);
  EXPECT_DOUBLE_EQ(combined->output.at("a"), 150.0);
  // 250 intermediate pairs collapse to 2 (one per key).
  EXPECT_EQ(plain->stats.intermediate_pairs, 250u);
  EXPECT_EQ(combined->stats.intermediate_pairs, 2u);
  EXPECT_LT(combined->stats.shuffle_bytes, plain->stats.shuffle_bytes / 10);
}

TEST(MapReduce, TamperedInputRecordAbortsJob) {
  MrFixture fx;
  auto partition = fx.mapreduce.encrypt_partition({to_bytes("record")});
  partition[0][partition[0].size() / 2] ^= 1;
  auto result = fx.mapreduce.run(
      {.num_mappers = 1, .num_reducers = 1}, {partition},
      [](ByteView) { return std::vector<KeyValue>{}; },
      [](const std::string&, const std::vector<double>&) { return 0.0; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kIntegrityViolation);
}

// A hostile pair count is a typed error, never an allocation sized
// from the wire.
TEST(MapReduce, PairBlockRejectsHugeCount) {
  const auto pairs = deserialize_pairs(Bytes{0xff, 0xff, 0xff, 0xff});
  ASSERT_FALSE(pairs.ok());
  EXPECT_EQ(pairs.error().code, ErrorCode::kProtocolError);
}

TEST(MapReduce, EncryptedPartitionsLeakNoPlaintext) {
  MrFixture fx;
  const auto partition =
      fx.mapreduce.encrypt_partition({to_bytes("household-7 consumed 4.2kWh")});
  for (const auto& record : partition) {
    const std::string s(record.begin(), record.end());
    EXPECT_EQ(s.find("household"), std::string::npos);
  }
}

TEST(MapReduce, ZeroWorkersRejected) {
  MrFixture fx;
  auto result = fx.mapreduce.run(
      {.num_mappers = 0, .num_reducers = 1}, {},
      [](ByteView) { return std::vector<KeyValue>{}; },
      [](const std::string&, const std::vector<double>&) { return 0.0; });
  EXPECT_FALSE(result.ok());
}

TEST(MapReduce, EmptyInputYieldsEmptyOutput) {
  MrFixture fx;
  auto result = fx.mapreduce.run(
      {.num_mappers = 2, .num_reducers = 2}, {},
      [](ByteView) { return std::vector<KeyValue>{}; },
      [](const std::string&, const std::vector<double>&) { return 0.0; });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.empty());
}

}  // namespace
}  // namespace securecloud::bigdata
