// SCONE runtime tests: untrusted FS, SPSC ring, syscall shielding,
// FS protection (tamper/rollback), SCF delivery, stdio, user threading,
// and the full runtime startup flow.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "scone/fs_protection.hpp"
#include "scone/ring_buffer.hpp"
#include "scone/runtime.hpp"
#include "scone/scf.hpp"
#include "scone/stdio.hpp"
#include "scone/syscall.hpp"
#include "scone/untrusted_fs.hpp"
#include "scone/uthread.hpp"
#include "sgx/platform.hpp"

namespace securecloud::scone {
namespace {

using crypto::DeterministicEntropy;

// ------------------------------------------------------ UntrustedFileSystem

TEST(UntrustedFs, BasicCrud) {
  UntrustedFileSystem fs;
  ASSERT_TRUE(fs.write_file("/a", to_bytes("hello")).ok());
  EXPECT_TRUE(fs.exists("/a"));
  auto r = fs.read_file("/a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "hello");
  ASSERT_TRUE(fs.rename("/a", "/b").ok());
  EXPECT_FALSE(fs.exists("/a"));
  ASSERT_TRUE(fs.remove("/b").ok());
  EXPECT_EQ(fs.file_count(), 0u);
}

TEST(UntrustedFs, ReadMissingFileFails) {
  UntrustedFileSystem fs;
  EXPECT_EQ(fs.read_file("/nope").error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(fs.remove("/nope").ok());
  EXPECT_FALSE(fs.rename("/nope", "/x").ok());
}

TEST(UntrustedFs, PartialReadWrite) {
  UntrustedFileSystem fs;
  ASSERT_TRUE(fs.write_at("/f", 4, to_bytes("data")).ok());
  auto size = fs.size_of("/f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 8u);
  auto head = fs.read_at("/f", 0, 4);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, Bytes(4, 0));  // zero-filled hole
  auto tail = fs.read_at("/f", 4, 100);  // clamped
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(to_string(*tail), "data");
}

TEST(UntrustedFs, ListByPrefix) {
  UntrustedFileSystem fs;
  (void)fs.write_file("/image/a", to_bytes("1"));
  (void)fs.write_file("/image/b", to_bytes("2"));
  (void)fs.write_file("/other/c", to_bytes("3"));
  EXPECT_EQ(fs.list("/image/").size(), 2u);
  EXPECT_EQ(fs.list().size(), 3u);
}

// ------------------------------------------------------------------ SpscRing

TEST(SpscRing, PushPopOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, WrapsAround) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.try_push(round));
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 200'000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t received = 0;
    while (received < kCount) {
      auto v = ring.try_pop();
      if (v) {
        sum += *v;
        ++received;
      }
    }
  });
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    while (!ring.try_push(i)) {
    }
  }
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  // A capacity of 3 must not alias slot 3 onto slot 0 through the index
  // mask: the constructor rounds up (minimum 2) instead.
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);

  SpscRing<int> ring(3);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full at the rounded capacity
  for (int i = 0; i < 4; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(SpscRing, SizeNeverUnderflowsUnderConcurrentPops) {
  // Regression: size() used to load head_ before tail_, so a pop landing
  // between the two loads made head - tail wrap to ~SIZE_MAX. Loading
  // the consumer cursor first can only miscount racing ops, never
  // underflow — so any observed size in the SIZE_MAX/2 range is the bug.
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kCount = 10'000;
  std::atomic<bool> underflow{false};
  std::atomic<bool> done{false};

  // The observer hammers size() in a tight loop — deliberately no yield,
  // so on any core count a preemption can land *between* the two cursor
  // loads while the consumer advances tail_ (the pre-fix failure mode).
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (ring.size() > SIZE_MAX / 2) {
        underflow.store(true, std::memory_order_relaxed);
      }
    }
  });
  std::thread consumer([&] {
    std::uint64_t received = 0;
    while (received < kCount) {
      if (ring.try_pop()) {
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  done.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_FALSE(underflow.load());
}

// ------------------------------------------------------------------ Syscalls

TEST(Syscalls, SyncExecutesAndChargesTransition) {
  UntrustedFileSystem fs;
  SyscallBackend backend(fs);
  SimClock clock;
  sgx::CostModel cost;
  SyncSyscalls sys(backend, clock, cost);

  SyscallRequest w;
  w.op = SyscallOp::kWrite;
  w.path = "/f";
  w.data = to_bytes("abc");
  auto wr = sys.call(w);
  EXPECT_EQ(wr.error, 0);
  EXPECT_EQ(clock.cycles(), cost.ocall_cycles);

  SyscallRequest r;
  r.op = SyscallOp::kRead;
  r.path = "/f";
  r.length = 3;
  auto rr = sys.call(r);
  EXPECT_EQ(rr.error, 0);
  EXPECT_EQ(to_string(rr.data), "abc");
  EXPECT_EQ(clock.cycles(), 2 * cost.ocall_cycles);
}

TEST(Syscalls, AsyncMuchCheaperThanSyncInSimulatedCycles) {
  UntrustedFileSystem fs;
  SyscallBackend backend(fs);
  sgx::CostModel cost;

  SimClock sync_clock, async_clock;
  SyncSyscalls sync_sys(backend, sync_clock, cost);
  {
    AsyncSyscalls async_sys(backend, async_clock);
    for (int i = 0; i < 100; ++i) {
      SyscallRequest nop;
      nop.op = SyscallOp::kNop;
      sync_sys.call(nop);
      async_sys.call(nop);
    }
  }
  EXPECT_GT(sync_clock.cycles(), 10 * async_clock.cycles());
}

TEST(Syscalls, AsyncReturnsCorrectResults) {
  UntrustedFileSystem fs;
  SyscallBackend backend(fs);
  SimClock clock;
  AsyncSyscalls sys(backend, clock);

  SyscallRequest w;
  w.op = SyscallOp::kWrite;
  w.path = "/data";
  w.data = to_bytes("async payload");
  EXPECT_EQ(sys.call(w).error, 0);

  SyscallRequest r;
  r.op = SyscallOp::kRead;
  r.path = "/data";
  r.length = 100;
  auto rr = sys.call(r);
  EXPECT_EQ(rr.error, 0);
  EXPECT_EQ(to_string(rr.data), "async payload");

  SyscallRequest e;
  e.op = SyscallOp::kExists;
  e.path = "/data";
  EXPECT_EQ(sys.call(e).value, 1u);

  SyscallRequest s;
  s.op = SyscallOp::kFileSize;
  s.path = "/data";
  EXPECT_EQ(sys.call(s).value, 13u);
}

TEST(Syscalls, AsyncSubmitPollOverlap) {
  UntrustedFileSystem fs;
  (void)fs.write_file("/f", Bytes(100, 0x55));
  SyscallBackend backend(fs);
  SimClock clock;
  AsyncSyscalls sys(backend, clock);

  // Submit a batch, then poll for all completions.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    SyscallRequest r;
    r.op = SyscallOp::kRead;
    r.path = "/f";
    r.offset = static_cast<std::uint64_t>(i) * 10;
    r.length = 10;
    auto id = sys.submit(r);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  std::size_t received = 0;
  while (received < ids.size()) {
    if (auto response = sys.poll()) {
      EXPECT_EQ(response->error, 0);
      EXPECT_EQ(response->data.size(), 10u);
      ++received;
    }
  }
}

TEST(Syscalls, ShieldClampsOversizedKernelReply) {
  // A malicious kernel returning more bytes than requested must not be
  // able to overflow the enclave-side buffer.
  UntrustedFileSystem fs;
  SyscallBackend backend(fs);
  SyscallRequest request;
  request.op = SyscallOp::kRead;
  request.length = 4;

  struct Shim : SyscallInterface {
    SyscallResponse call(SyscallRequest r) override {
      SyscallResponse evil;
      evil.id = 999;              // wrong id
      evil.error = -77;           // negative error
      evil.data = Bytes(64, 0xee);  // 16x the requested bytes
      return shield(r, std::move(evil));
    }
  } shim;

  auto shielded = shim.call(request);
  EXPECT_EQ(shielded.id, request.id);
  EXPECT_GE(shielded.error, 0);
  EXPECT_LE(shielded.data.size(), 4u);
}

TEST(Syscalls, ShieldStripsPayloadFromNonReadOps) {
  struct Shim : SyscallInterface {
    SyscallResponse call(SyscallRequest r) override {
      SyscallResponse evil;
      evil.data = Bytes(32, 0xaa);  // write ops must not inject data
      return shield(r, std::move(evil));
    }
  } shim;
  SyscallRequest w;
  w.op = SyscallOp::kWrite;
  EXPECT_TRUE(shim.call(w).data.empty());
}

// ------------------------------------------------------------- FsProtection

struct ProtectedFixture {
  UntrustedFileSystem host;
  DeterministicEntropy entropy{42};

  ShieldedFileSystem make(std::uint32_t chunk_size = 64) {
    FsProtectionBuilder builder(host, entropy, chunk_size);
    return ShieldedFileSystem(host, std::move(builder).take(), entropy);
  }
};

TEST(FsProtection, BuildReadRoundTrip) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(1);
  FsProtectionBuilder builder(host, entropy, 64);
  const Bytes content = to_bytes(std::string(1000, 'x') + "END");
  ASSERT_TRUE(builder.protect_file("/app/config", content).ok());

  ShieldedFileSystem fs(host, std::move(builder).take(), entropy);
  auto read = fs.read_all("/app/config");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
}

TEST(FsProtection, HostSeesOnlyCiphertext) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(2);
  FsProtectionBuilder builder(host, entropy, 4096);
  const std::string secret = "TOP-SECRET smart meter aggregation key";
  ASSERT_TRUE(builder.protect_file("/keys", to_bytes(secret)).ok());

  // No stored file contains the plaintext.
  for (const auto& path : host.list()) {
    const auto content = host.read_file(path);
    ASSERT_TRUE(content.ok());
    const std::string haystack(content->begin(), content->end());
    EXPECT_EQ(haystack.find("TOP-SECRET"), std::string::npos) << path;
  }
}

TEST(FsProtection, DetectsChunkTampering) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(3);
  FsProtectionBuilder builder(host, entropy, 64);
  ASSERT_TRUE(builder.protect_file("/f", Bytes(300, 0x7a)).ok());
  ShieldedFileSystem fs(host, std::move(builder).take(), entropy);

  // Attacker flips one ciphertext byte of chunk 2.
  Bytes* raw = host.raw("/f.chunk.2");
  ASSERT_NE(raw, nullptr);
  (*raw)[10] ^= 0x01;

  auto r = fs.read_all("/f");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);

  // Other chunks are still readable.
  EXPECT_TRUE(fs.read("/f", 0, 64).ok());
}

TEST(FsProtection, DetectsChunkRollback) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(4);
  FsProtectionBuilder builder(host, entropy, 64);
  ASSERT_TRUE(builder.protect_file("/f", Bytes(64, 0x01)).ok());
  ShieldedFileSystem fs(host, std::move(builder).take(), entropy);

  // Attacker snapshots the (valid) v1 ciphertext...
  const Bytes old_ct = *host.raw("/f.chunk.0");
  // ...the enclave overwrites the chunk (v2)...
  ASSERT_TRUE(fs.write("/f", 0, Bytes(64, 0x02)).ok());
  // ...and the attacker replays the old ciphertext.
  *host.raw("/f.chunk.0") = old_ct;

  auto r = fs.read("/f", 0, 64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);
}

TEST(FsProtection, DetectsCrossChunkSwap) {
  // Two chunks of the same file swapped in place: AAD binds the index.
  UntrustedFileSystem host;
  DeterministicEntropy entropy(5);
  FsProtectionBuilder builder(host, entropy, 64);
  ASSERT_TRUE(builder.protect_file("/f", Bytes(128, 0x11)).ok());
  ShieldedFileSystem fs(host, std::move(builder).take(), entropy);

  std::swap(*host.raw("/f.chunk.0"), *host.raw("/f.chunk.1"));
  EXPECT_FALSE(fs.read_all("/f").ok());
}

TEST(FsProtection, DetectsCrossFileSwap) {
  // Identical plaintexts in two files still produce unswappable chunks
  // (per-file keys + path in AAD).
  UntrustedFileSystem host;
  DeterministicEntropy entropy(6);
  FsProtectionBuilder builder(host, entropy, 64);
  ASSERT_TRUE(builder.protect_file("/a", Bytes(64, 0x33)).ok());
  ASSERT_TRUE(builder.protect_file("/b", Bytes(64, 0x33)).ok());
  ShieldedFileSystem fs(host, std::move(builder).take(), entropy);

  std::swap(*host.raw("/a.chunk.0"), *host.raw("/b.chunk.0"));
  EXPECT_FALSE(fs.read_all("/a").ok());
  EXPECT_FALSE(fs.read_all("/b").ok());
}

TEST(FsProtection, WriteReadBackAcrossChunkBoundaries) {
  ProtectedFixture fx;
  auto fs = fx.make(64);
  ASSERT_TRUE(fs.create("/state").ok());

  ASSERT_TRUE(fs.write("/state", 0, Bytes(200, 0xaa)).ok());
  // Overwrite spanning chunks 0-2 at an unaligned offset.
  ASSERT_TRUE(fs.write("/state", 50, to_bytes(std::string(100, 'Z'))).ok());

  auto all = fs.read_all("/state");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 200u);
  EXPECT_EQ((*all)[49], 0xaa);
  EXPECT_EQ((*all)[50], 'Z');
  EXPECT_EQ((*all)[149], 'Z');
  EXPECT_EQ((*all)[150], 0xaa);
}

TEST(FsProtection, WritePastEofZeroFills) {
  ProtectedFixture fx;
  auto fs = fx.make(64);
  ASSERT_TRUE(fs.create("/sparse").ok());
  ASSERT_TRUE(fs.write("/sparse", 0, to_bytes("head")).ok());
  ASSERT_TRUE(fs.write("/sparse", 300, to_bytes("tail")).ok());

  auto size = fs.size_of("/sparse");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 304u);

  auto gap = fs.read("/sparse", 100, 50);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(*gap, Bytes(50, 0));

  auto tail = fs.read("/sparse", 300, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(to_string(*tail), "tail");
}

TEST(FsProtection, WriteAllTruncates) {
  ProtectedFixture fx;
  auto fs = fx.make(64);
  ASSERT_TRUE(fs.create("/t").ok());
  ASSERT_TRUE(fs.write_all("/t", Bytes(500, 0x01)).ok());
  ASSERT_TRUE(fs.write_all("/t", to_bytes("short")).ok());
  auto all = fs.read_all("/t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(to_string(*all), "short");
}

TEST(FsProtection, RemoveDeletesChunksFromHost) {
  ProtectedFixture fx;
  auto fs = fx.make(64);
  ASSERT_TRUE(fs.create("/tmp").ok());
  ASSERT_TRUE(fs.write_all("/tmp", Bytes(300, 0x5c)).ok());
  EXPECT_GT(fx.host.file_count(), 0u);
  ASSERT_TRUE(fs.remove("/tmp").ok());
  EXPECT_EQ(fx.host.list("/tmp.chunk.").size(), 0u);
  EXPECT_FALSE(fs.exists("/tmp"));
}

TEST(FsProtection, SerializationRoundTrip) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(7);
  FsProtectionBuilder builder(host, entropy, 128);
  ASSERT_TRUE(builder.protect_file("/x", Bytes(1000, 0x0f)).ok());
  ASSERT_TRUE(builder.protect_file("/y", to_bytes("small")).ok());
  const FsProtection original = std::move(builder).take();

  auto parsed = FsProtection::deserialize(original.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->files.size(), 2u);
  EXPECT_EQ(parsed->files.at("/x").file_size, 1000u);
  EXPECT_EQ(parsed->files.at("/x").chunk_tags, original.files.at("/x").chunk_tags);
}

TEST(FsProtection, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FsProtection::deserialize(Bytes{}).ok());
  EXPECT_FALSE(FsProtection::deserialize(to_bytes("not an fspf")).ok());
  // Truncated valid prefix.
  UntrustedFileSystem host;
  DeterministicEntropy entropy(8);
  FsProtectionBuilder builder(host, entropy);
  ASSERT_TRUE(builder.protect_file("/x", Bytes(100, 1)).ok());
  Bytes wire = builder.protection().serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(FsProtection::deserialize(wire).ok());
}

// A hostile chunk count is a typed error, never an allocation sized
// from untrusted storage.
TEST(FsProtection, DeserializeRejectsHugeChunkCount) {
  Bytes wire;
  put_str(wire, "SCFSPF1");
  put_u32(wire, 1);  // one file entry
  put_str(wire, "/x");
  put_u64(wire, 0);              // file_size
  put_u32(wire, 64);             // chunk_size
  put_blob(wire, Bytes(16, 0));  // file_key
  put_u32(wire, 0xffffffff);     // chunks
  const auto parsed = FsProtection::deserialize(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kProtocolError);
}

TEST(FsProtection, SealedFspfRoundTripAndWrongKey) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(9);
  FsProtectionBuilder builder(host, entropy);
  ASSERT_TRUE(builder.protect_file("/x", Bytes(10, 1)).ok());
  const FsProtection protection = std::move(builder).take();

  const Bytes key = entropy.bytes(32);
  const Bytes sealed = seal_protection_file(protection, key, entropy);
  auto opened = open_protection_file(sealed, key);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->files.size(), 1u);

  const Bytes wrong_key = entropy.bytes(32);
  EXPECT_FALSE(open_protection_file(sealed, wrong_key).ok());
}

TEST(FsProtection, SignedFspfVerifiesAndDetectsTampering) {
  UntrustedFileSystem host;
  DeterministicEntropy entropy(10);
  FsProtectionBuilder builder(host, entropy);
  ASSERT_TRUE(builder.protect_file("/x", Bytes(10, 1)).ok());
  const FsProtection protection = std::move(builder).take();

  const auto signer = crypto::ed25519_keypair(entropy.array<32>());
  Bytes signed_blob = sign_protection_file(protection, signer);
  auto verified = verify_protection_file(signed_blob, signer.public_key);
  ASSERT_TRUE(verified.ok());

  signed_blob[signed_blob.size() / 2] ^= 1;
  EXPECT_FALSE(verify_protection_file(signed_blob, signer.public_key).ok());
}

// -------------------------------------------------------------------- Stdio

TEST(Stdio, WriterReaderRoundTrip) {
  const Bytes key(16, 0x21);
  ProtectedStreamWriter writer(key);
  ProtectedStreamReader reader(key);
  auto r1 = reader.read(writer.write(to_bytes("line one")));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(to_string(*r1), "line one");
  auto r2 = reader.read(writer.write(to_bytes("line two")));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(to_string(*r2), "line two");
}

TEST(Stdio, RejectsReplayAndReorder) {
  const Bytes key(16, 0x21);
  ProtectedStreamWriter writer(key);
  ProtectedStreamReader reader(key);
  const Bytes w1 = writer.write(to_bytes("1"));
  const Bytes w2 = writer.write(to_bytes("2"));
  EXPECT_FALSE(reader.read(w2).ok());  // reorder
  EXPECT_TRUE(reader.read(w1).ok());
  EXPECT_FALSE(reader.read(w1).ok());  // replay
}

TEST(Stdio, WrongKeyFails) {
  ProtectedStreamWriter writer(Bytes(16, 0x01));
  ProtectedStreamReader reader(Bytes(16, 0x02));
  EXPECT_FALSE(reader.read(writer.write(to_bytes("x"))).ok());
}

TEST(Stdio, PipeDeliversInOrder) {
  ProtectedPipe pipe;
  ProtectedStreamWriter writer(Bytes(16, 0x03));
  pipe.push(writer.write(to_bytes("a")));
  pipe.push(writer.write(to_bytes("b")));
  EXPECT_EQ(pipe.pending(), 2u);
  ProtectedStreamReader reader(Bytes(16, 0x03));
  EXPECT_EQ(to_string(*reader.read(*pipe.pop())), "a");
  EXPECT_EQ(to_string(*reader.read(*pipe.pop())), "b");
  EXPECT_FALSE(pipe.pop().has_value());
}

// ----------------------------------------------------------------- UThreads

TEST(UserScheduler, RunsTasksToCompletion) {
  SimClock clock;
  UserScheduler scheduler(clock);
  int a_steps = 0, b_steps = 0;
  scheduler.spawn([&] { return ++a_steps < 3 ? StepResult::kYield : StepResult::kDone; });
  scheduler.spawn([&] { return ++b_steps < 5 ? StepResult::kYield : StepResult::kDone; });
  scheduler.run();
  EXPECT_EQ(a_steps, 3);
  EXPECT_EQ(b_steps, 5);
  EXPECT_EQ(scheduler.runnable(), 0u);
}

TEST(UserScheduler, InterleavesFairly) {
  SimClock clock;
  UserScheduler scheduler(clock);
  std::string trace;
  scheduler.spawn([&] {
    trace += 'a';
    return trace.size() < 6 ? StepResult::kYield : StepResult::kDone;
  });
  scheduler.spawn([&] {
    trace += 'b';
    return trace.size() < 6 ? StepResult::kYield : StepResult::kDone;
  });
  scheduler.run();
  EXPECT_EQ(trace.substr(0, 4), "abab");  // round-robin
}

TEST(UserScheduler, InEnclaveSwitchesFarCheaperThanKernel) {
  SimClock user_clock, kernel_clock;
  UserScheduler user(user_clock, /*in_enclave=*/true);
  UserScheduler kernel(kernel_clock, /*in_enclave=*/false);
  for (int t = 0; t < 4; ++t) {
    auto count = std::make_shared<int>(0);
    user.spawn([count] { return ++*count < 100 ? StepResult::kYield : StepResult::kDone; });
  }
  for (int t = 0; t < 4; ++t) {
    auto count = std::make_shared<int>(0);
    kernel.spawn([count] { return ++*count < 100 ? StepResult::kYield : StepResult::kDone; });
  }
  const auto user_switches = user.run();
  const auto kernel_switches = kernel.run();
  EXPECT_EQ(user_switches, kernel_switches);
  EXPECT_GT(kernel_clock.cycles(), 100 * user_clock.cycles());
}

// ----------------------------------------------------------- SCF + runtime

struct RuntimeFixture {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  DeterministicEntropy entropy{77};
  UntrustedFileSystem host;

  RuntimeFixture() { platform.provision(attestation); }

  sgx::EnclaveImage image(const std::string& name) {
    sgx::EnclaveImage img;
    img.name = name;
    img.code = to_bytes("code:" + name);
    DeterministicEntropy signer_entropy(500);
    sign_image(img, crypto::ed25519_keypair(signer_entropy.array<32>()));
    return img;
  }

  /// Builds a protected image in the host FS + SCF registered for it.
  StartupConfig build_image(const sgx::Measurement& mrenclave,
                            ConfigurationService& service,
                            const std::map<std::string, Bytes>& files) {
    FsProtectionBuilder builder(host, entropy, 256);
    for (const auto& [path, content] : files) {
      EXPECT_TRUE(builder.protect_file(path, content).ok());
    }
    StartupConfig scf;
    scf.fs_protection_key = entropy.bytes(32);
    scf.stdin_key = entropy.bytes(16);
    scf.stdout_key = entropy.bytes(16);
    scf.args = {"--mode=test"};
    scf.env = {{"REGION", "eu-central"}};

    const Bytes sealed =
        seal_protection_file(builder.protection(), scf.fs_protection_key, entropy);
    EXPECT_TRUE(host.write_file(SconeRuntime::kFspfPath, sealed).ok());
    scf.fs_protection_hash = crypto::Sha256::hash(sealed);
    service.register_scf(mrenclave, scf);
    return scf;
  }
};

TEST(Scf, SerializationRoundTrip) {
  StartupConfig scf;
  scf.fs_protection_key = Bytes(32, 0x01);
  scf.fs_protection_hash.fill(0xab);
  scf.stdin_key = Bytes(16, 0x02);
  scf.stdout_key = Bytes(16, 0x03);
  scf.args = {"a", "b"};
  scf.env = {{"K", "V"}};
  auto parsed = StartupConfig::deserialize(scf.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->fs_protection_key, scf.fs_protection_key);
  EXPECT_EQ(parsed->fs_protection_hash, scf.fs_protection_hash);
  EXPECT_EQ(parsed->args, scf.args);
  EXPECT_EQ(parsed->env.at("K"), "V");
}

TEST(Scf, DeliveredOnlyToAttestedEnclave) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  fx.build_image((*enclave)->mrenclave(), service, {});

  auto scf = fetch_scf(**enclave, service, fx.platform.entropy());
  ASSERT_TRUE(scf.ok());
  EXPECT_EQ(scf->args.front(), "--mode=test");
}

TEST(Scf, UnregisteredEnclaveDenied) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("unknown-svc"));
  ASSERT_TRUE(enclave.ok());
  // No SCF registered for this measurement.
  auto scf = fetch_scf(**enclave, service, fx.platform.entropy());
  ASSERT_FALSE(scf.ok());
  EXPECT_EQ(scf.error().code, ErrorCode::kPermissionDenied);
}

TEST(Scf, UnprovisionedPlatformDenied) {
  sgx::Platform rogue;  // never provisioned with the attestation service
  sgx::AttestationService attestation;
  DeterministicEntropy entropy(1);
  ConfigurationService service(attestation, entropy);

  sgx::EnclaveImage img;
  img.name = "svc";
  img.code = to_bytes("code");
  DeterministicEntropy se(2);
  sign_image(img, crypto::ed25519_keypair(se.array<32>()));
  auto enclave = rogue.create_enclave(img);
  ASSERT_TRUE(enclave.ok());

  auto scf = fetch_scf(**enclave, service, rogue.entropy());
  ASSERT_FALSE(scf.ok());
  EXPECT_EQ(scf.error().code, ErrorCode::kAttestationFailure);
}

TEST(Scf, QuoteMustBindChannelKey) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  fx.build_image((*enclave)->mrenclave(), service, {});

  // MITM: valid quote, but the channel key is the attacker's.
  crypto::ChannelHandshake attacker(crypto::ChannelHandshake::Role::kInitiator,
                                    fx.entropy);
  const auto report = (*enclave)->create_report(
      sgx::report_data_from_hash(crypto::Sha256::hash(to_bytes("something else"))));
  auto quote = fx.platform.quote(report);
  ASSERT_TRUE(quote.ok());
  auto r = service.request_scf(quote->serialize(), attacker.local_public_key());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kAttestationFailure);
}

TEST(Runtime, EndToEndRunWithShieldedState) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  const StartupConfig scf = fx.build_image(
      (*enclave)->mrenclave(), service,
      {{"/app/input", to_bytes("7 11 13")}});

  auto outcome = SconeRuntime::run(
      **enclave, fx.host, service, [](AppContext& ctx) -> Result<Bytes> {
        auto input = ctx.fs.read_all("/app/input");
        if (!input.ok()) return input.error();
        ctx.out.print("processing " + to_string(*input));
        // Persist derived state through the shielded FS.
        SC_RETURN_IF_ERROR(ctx.fs.create("/app/output"));
        SC_RETURN_IF_ERROR(ctx.fs.write_all("/app/output", to_bytes("sum=31")));
        return to_bytes("ok:" + ctx.args.front());
      });
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(to_string(outcome->app_result), "ok:--mode=test");

  // stdout records decrypt with the SCF key, in order.
  ProtectedStreamReader reader(scf.stdout_key);
  ASSERT_EQ(outcome->stdout_records.size(), 1u);
  auto line = reader.read(outcome->stdout_records[0]);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(to_string(*line), "processing 7 11 13");

  // The output file exists on the host only as ciphertext.
  bool found_plaintext = false;
  for (const auto& path : fx.host.list()) {
    auto content = fx.host.read_file(path);
    const std::string s(content->begin(), content->end());
    if (s.find("sum=31") != std::string::npos) found_plaintext = true;
  }
  EXPECT_FALSE(found_plaintext);
}

TEST(Runtime, EncryptedStdinDelivered) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  const StartupConfig scf = fx.build_image((*enclave)->mrenclave(), service, {});

  // The image owner encrypts stdin records with the SCF stdin key.
  ProtectedStreamWriter stdin_writer(scf.stdin_key);
  std::vector<Bytes> stdin_records;
  stdin_records.push_back(stdin_writer.write(to_bytes("first line")));
  stdin_records.push_back(stdin_writer.write(to_bytes("second line")));

  auto outcome = SconeRuntime::run(
      **enclave, fx.host, service,
      [](AppContext& ctx) -> Result<Bytes> {
        std::string all;
        for (;;) {
          auto record = ctx.in.read();
          if (!record.ok()) return record.error();
          if (!record->has_value()) break;
          all += to_string(**record) + "|";
        }
        return to_bytes(all);
      },
      stdin_records);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(to_string(outcome->app_result), "first line|second line|");
}

TEST(Runtime, TamperedStdinRejectedInsideEnclave) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  const StartupConfig scf = fx.build_image((*enclave)->mrenclave(), service, {});

  ProtectedStreamWriter stdin_writer(scf.stdin_key);
  std::vector<Bytes> stdin_records;
  stdin_records.push_back(stdin_writer.write(to_bytes("rm -rf /")));
  stdin_records[0][stdin_records[0].size() / 2] ^= 1;  // host tampers

  auto outcome = SconeRuntime::run(
      **enclave, fx.host, service,
      [](AppContext& ctx) -> Result<Bytes> {
        auto record = ctx.in.read();
        if (!record.ok()) return record.error();  // must hit this path
        return Error::internal("tampered input was delivered");
      },
      stdin_records);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Runtime, AbortsOnFspfSubstitution) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  fx.build_image((*enclave)->mrenclave(), service, {{"/f", to_bytes("data")}});

  // Attacker swaps the FSPF for an older/different (even validly
  // encrypted) copy: hash check must fail.
  Bytes* fspf = fx.host.raw(SconeRuntime::kFspfPath);
  ASSERT_NE(fspf, nullptr);
  (*fspf)[fspf->size() - 1] ^= 1;

  auto outcome = SconeRuntime::run(**enclave, fx.host, service,
                                   [](AppContext&) -> Result<Bytes> { return Bytes{}; });
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Runtime, UpdatedFspfHashReflectsWrites) {
  RuntimeFixture fx;
  ConfigurationService service(fx.attestation, fx.entropy);
  auto enclave = fx.platform.create_enclave(fx.image("svc"));
  ASSERT_TRUE(enclave.ok());
  const StartupConfig scf =
      fx.build_image((*enclave)->mrenclave(), service, {{"/f", to_bytes("v1")}});

  auto outcome = SconeRuntime::run(
      **enclave, fx.host, service, [](AppContext& ctx) -> Result<Bytes> {
        SC_RETURN_IF_ERROR(ctx.fs.write_all("/f", to_bytes("v2")));
        return Bytes{};
      });
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->new_fspf_hash, scf.fs_protection_hash);

  // The stored FSPF matches the returned hash (owner can re-register).
  auto stored = fx.host.read_file(SconeRuntime::kFspfPath);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(crypto::Sha256::hash(*stored), outcome->new_fspf_hash);
}

}  // namespace
}  // namespace securecloud::scone
