// Supporting benchmark: crypto primitive throughput.
//
// These numbers bound the simulator's MEE/paging cost model: EPC page
// eviction performs one AES-GCM pass over 4 KiB, so the paging costs
// charged by sgx::CostModel should be consistent with the measured AEAD
// throughput. AES-GCM runs on AES-NI/PCLMULQDQ when the CPU has them and
// on the portable code otherwise; the BM_AesGcm*Portable rows time the
// portable path on any CPU.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/entropy.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace {

using namespace securecloud;
using namespace securecloud::crypto;

// Set by --threads N (default 1); sizes the pool for the bulk benchmarks.
int g_threads = 1;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto d = Sha256::hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(32, 2);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto d = HmacSha256::mac(key, data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_AesGcmSeal(benchmark::State& state) {
  const AesGcm gcm(random_bytes(16, 4));
  const Bytes pt = random_bytes(static_cast<std::size_t>(state.range(0)), 5);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    GcmTag tag;
    auto ct = gcm.seal(nonce_from_counter(counter++), {}, pt, tag);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_AesGcmSealPortable(benchmark::State& state) {
  const AesGcm gcm(random_bytes(16, 4), detail::kPortable);
  const Bytes pt = random_bytes(static_cast<std::size_t>(state.range(0)), 5);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    GcmTag tag;
    auto ct = gcm.seal(nonce_from_counter(counter++), {}, pt, tag);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmSealPortable)->Arg(1024)->Arg(4096);

void BM_AesGcmOpen(benchmark::State& state) {
  const AesGcm gcm(random_bytes(16, 6));
  const Bytes pt = random_bytes(static_cast<std::size_t>(state.range(0)), 7);
  GcmTag tag;
  const Bytes ct = gcm.seal(nonce_from_counter(1), {}, pt, tag);
  for (auto _ : state) {
    auto back = gcm.open(nonce_from_counter(1), {}, ct, tag);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(4096);

// Bulk sealing across the work-stealing pool (the encrypt_partition /
// transfer pattern): nonces are pre-assigned per buffer, so the output
// is identical at any --threads value; only wall-clock changes.
void BM_AesGcmSealBulk(benchmark::State& state) {
  const AesGcm gcm(random_bytes(16, 13));
  const std::size_t pieces = 256;
  const auto piece_bytes = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> pts;
  pts.reserve(pieces);
  for (std::size_t i = 0; i < pieces; ++i) pts.push_back(random_bytes(piece_bytes, 100 + i));

  common::ThreadPool pool(static_cast<std::size_t>(g_threads));
  common::ThreadPool* p = g_threads > 1 ? &pool : nullptr;
  std::vector<Bytes> out(pieces);
  for (auto _ : state) {
    common::run_indexed(p, pieces, [&](std::size_t i) {
      out[i] = gcm.seal_combined(nonce_from_counter(i + 1, 0x42), {}, pts[i]);
    });
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * pieces) *
                          state.range(0));
  state.counters["threads"] = static_cast<double>(g_threads);
}
BENCHMARK(BM_AesGcmSealBulk)->Arg(4096)->Arg(65536);

void BM_X25519(benchmark::State& state) {
  DeterministicEntropy entropy(8);
  const auto a = x25519_keypair(entropy.array<32>());
  const auto b = x25519_keypair(entropy.array<32>());
  for (auto _ : state) {
    auto shared = x25519(a.private_key, b.public_key);
    benchmark::DoNotOptimize(shared);
  }
}
BENCHMARK(BM_X25519);

void BM_Ed25519Sign(benchmark::State& state) {
  DeterministicEntropy entropy(9);
  const auto kp = ed25519_keypair(entropy.array<32>());
  const Bytes msg = random_bytes(256, 10);
  for (auto _ : state) {
    auto sig = ed25519_sign(kp, msg);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  DeterministicEntropy entropy(11);
  const auto kp = ed25519_keypair(entropy.array<32>());
  const Bytes msg = random_bytes(256, 12);
  const auto sig = ed25519_sign(kp, msg);
  for (auto _ : state) {
    bool ok = ed25519_verify(kp.public_key, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Ed25519Verify);

}  // namespace

// Plain BENCHMARK_MAIN plus a --threads N flag (stripped before the
// benchmark library parses the remainder).
int main(int argc, char** argv) {
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = std::max(1, std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::max(1, std::atoi(argv[i] + 10));
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
