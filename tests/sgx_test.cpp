// SGX simulator tests: cache model, EPC residency + secure paging,
// memory models, measurement, enclave lifecycle, sealing, attestation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sgx/attestation.hpp"
#include "sgx/cache_model.hpp"
#include "sgx/enclave.hpp"
#include "sgx/epc.hpp"
#include "sgx/memory_model.hpp"
#include "sgx/platform.hpp"

namespace securecloud::sgx {
namespace {

using crypto::DeterministicEntropy;

// ------------------------------------------------------------- CacheModel

TEST(CacheModel, HitAfterFill) {
  CacheModel cache(64 * 16 * 4, 64, 16);  // 4 sets
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheModel, LruEvictionWithinSet) {
  CacheModel cache(64 * 2 * 1, 64, 2);  // 1 set, 2 ways
  cache.access(0);
  cache.access(64);
  cache.access(0);        // refresh line 0
  cache.access(128);      // evicts line 64 (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(64));
}

TEST(CacheModel, WorkingSetLargerThanCacheAlwaysMisses) {
  CacheModel cache(1024, 64, 4);  // 16 lines total
  // Stream over 64 lines twice: second pass must still miss everywhere
  // in a strict-LRU cache (cyclic access defeats LRU).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t line = 0; line < 64; ++line) {
      cache.access(line * 64);
    }
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 128u);
}

TEST(CacheModel, InvalidateRangeDropsLines) {
  CacheModel cache(64 * 16 * 4, 64, 16);
  cache.access(0);
  cache.access(64);
  cache.access(4096);
  cache.invalidate_range(0, 4096);  // first page only
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(64));
  EXPECT_TRUE(cache.access(4096));
}

TEST(CacheModel, InvalidateAndClearBeforeFirstAccess) {
  // The ways are allocated by the first access; invalidate and clear on a
  // model never accessed are no-ops that leave it working.
  CacheModel cache(64 * 16 * 4, 64, 16);
  cache.invalidate_range(0, 4096);
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.access(128));
  EXPECT_TRUE(cache.access(128));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ------------------------------------------------------------- EpcManager

CostModel small_epc_cost() {
  CostModel cost;
  cost.epc_size_bytes = 16 * 4096;
  cost.epc_metadata_bytes = 0;
  return cost;
}

TEST(EpcManager, ResidentPagesDoNotFault) {
  const CostModel cost = small_epc_cost();
  SimClock clock;
  EpcManager epc(cost, clock);
  EXPECT_TRUE(epc.touch(0));        // first touch faults
  EXPECT_FALSE(epc.touch(0));       // now resident
  EXPECT_FALSE(epc.touch(100));     // same page
  EXPECT_EQ(epc.stats().faults, 1u);
}

TEST(EpcManager, EvictsLruWhenFull) {
  const CostModel cost = small_epc_cost();  // 16 pages
  SimClock clock;
  EpcManager epc(cost, clock);
  for (std::uint64_t p = 0; p < 16; ++p) epc.touch(p * 4096);
  EXPECT_EQ(epc.resident_pages(), 16u);

  epc.touch(0);            // refresh page 0
  epc.touch(16 * 4096);    // must evict page 1 (LRU), not page 0
  EXPECT_EQ(epc.stats().evictions, 1u);
  ASSERT_EQ(epc.last_evicted().size(), 1u);
  EXPECT_EQ(epc.last_evicted()[0], 1u);

  EXPECT_FALSE(epc.touch(0));      // page 0 still resident
  EXPECT_TRUE(epc.touch(1 * 4096));  // page 1 was evicted
}

TEST(EpcManager, FaultsChargeCycles) {
  const CostModel cost = small_epc_cost();
  SimClock clock;
  EpcManager epc(cost, clock);
  epc.touch(0);
  EXPECT_EQ(clock.cycles(), cost.epc_fault_cycles);
  epc.touch(0);
  EXPECT_EQ(clock.cycles(), cost.epc_fault_cycles);  // hit: free
}

TEST(EpcManager, DirtyEvictionCostsMore) {
  const CostModel cost = small_epc_cost();
  SimClock clean_clock, dirty_clock;
  {
    EpcManager epc(cost, clean_clock);
    for (std::uint64_t p = 0; p <= 16; ++p) epc.touch(p * 4096, /*write=*/false);
  }
  {
    EpcManager epc(cost, dirty_clock);
    for (std::uint64_t p = 0; p <= 16; ++p) epc.touch(p * 4096, /*write=*/true);
  }
  EXPECT_GT(dirty_clock.cycles(), clean_clock.cycles());
}

TEST(EpcManager, RemoveRangeFreesPages) {
  const CostModel cost = small_epc_cost();
  SimClock clock;
  EpcManager epc(cost, clock);
  for (std::uint64_t p = 0; p < 8; ++p) epc.touch(p * 4096);
  epc.remove_range(0, 4 * 4096);
  EXPECT_EQ(epc.resident_pages(), 4u);
}

// -------------------------------------------------------- SecurePageStore

TEST(SecurePageStore, EvictLoadRoundTrip) {
  SecurePageStore store(Bytes(16, 0x42));
  const Bytes page(4096, 0xab);
  store.evict(7, page);
  auto loaded = store.load(7);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, page);
}

TEST(SecurePageStore, DetectsTampering) {
  SecurePageStore store(Bytes(16, 0x42));
  store.evict(7, Bytes(4096, 0xab));
  ASSERT_TRUE(store.tamper_with(7, 100));
  auto loaded = store.load(7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kIntegrityViolation);
}

TEST(SecurePageStore, DetectsRollback) {
  SecurePageStore store(Bytes(16, 0x42));
  store.evict(7, Bytes(4096, 0x01));  // version 1
  store.evict(7, Bytes(4096, 0x02));  // version 2 (current)
  ASSERT_TRUE(store.rollback_to_previous(7));
  auto loaded = store.load(7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kProtocolError);
}

TEST(SecurePageStore, DistinctPagesIndependent) {
  SecurePageStore store(Bytes(16, 0x42));
  store.evict(1, Bytes(4096, 0x01));
  store.evict(2, Bytes(4096, 0x02));
  ASSERT_TRUE(store.tamper_with(1, 0));
  EXPECT_FALSE(store.load(1).ok());
  auto ok = store.load(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0], 0x02);
}

TEST(SecurePageStore, NeverEvictedPageNotFound) {
  SecurePageStore store(Bytes(16, 0x42));
  EXPECT_EQ(store.load(99).error().code, ErrorCode::kNotFound);
}

// ------------------------------------------------------------ MemoryModel

TEST(MemoryModel, EnclaveAccessWithinEpcCostsMoreThanPlainOnlyOnMisses) {
  CostModel cost;
  cost.epc_size_bytes = 1024 * 4096;
  cost.epc_metadata_bytes = 0;
  SimClock plain_clock, enclave_clock;
  PlainMemory plain(cost, plain_clock);
  EnclaveMemory enclave(cost, enclave_clock);

  // Working set fits both LLC and EPC: after warmup, costs are equal
  // (cache hits cost the same inside and outside).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
      plain.access(addr, 8);
      enclave.access(addr, 8);
    }
  }
  // First pass misses make the enclave slower overall...
  EXPECT_GT(enclave_clock.cycles(), plain_clock.cycles());

  // ...but a hot second pass costs the same per access.
  const std::uint64_t p0 = plain_clock.cycles(), e0 = enclave_clock.cycles();
  for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
    plain.access(addr, 8);
    enclave.access(addr, 8);
  }
  EXPECT_EQ(plain_clock.cycles() - p0, enclave_clock.cycles() - e0);
}

TEST(MemoryModel, WorkingSetBeyondEpcCausesPaging) {
  CostModel cost;
  cost.epc_size_bytes = 64 * 4096;  // tiny EPC: 64 pages
  cost.epc_metadata_bytes = 0;
  SimClock clock;
  EnclaveMemory mem(cost, clock);

  // Stream 128 pages cyclically: every page access faults (LRU thrash).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t p = 0; p < 128; ++p) {
      mem.access(p * 4096, 8);
    }
  }
  EXPECT_EQ(mem.epc_stats().faults, 256u);
}

TEST(MemoryModel, EnclaveOverheadGrowsWithWorkingSet) {
  // The Fig. 3 mechanism in miniature: inside/outside cost ratio is
  // modest while the working set fits the EPC and large once it spills.
  CostModel cost;
  cost.epc_size_bytes = 256 * 4096;  // 1 MiB EPC
  cost.epc_metadata_bytes = 0;
  cost.llc_size_bytes = 64 * 1024;   // 64 KiB LLC so DRAM dominates

  auto measure_ratio = [&](std::size_t working_set_pages) {
    SimClock pc, ec;
    PlainMemory plain(cost, pc);
    EnclaveMemory enclave(cost, ec);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t addr = rng.uniform(working_set_pages * 4096);
      plain.access(addr, 8);
      enclave.access(addr, 8);
    }
    return static_cast<double>(ec.cycles()) / static_cast<double>(pc.cycles());
  };

  const double fits = measure_ratio(128);     // within EPC
  const double spills = measure_ratio(1024);  // 4x the EPC
  EXPECT_LT(fits, 8.0);
  EXPECT_GT(spills, 2.0 * fits);
}

TEST(MemoryModel, ComputeCyclesChargedEqually) {
  CostModel cost;
  SimClock pc, ec;
  PlainMemory plain(cost, pc);
  EnclaveMemory enclave(cost, ec);
  plain.compute(1000);
  enclave.compute(1000);
  EXPECT_EQ(pc.cycles(), ec.cycles());
}

// ------------------------------------------------------------ Measurement

TEST(Measurement, DeterministicForSameImage) {
  MeasurementBuilder a(8192), b(8192);
  const Bytes page(4096, 0x11);
  a.add_page(0, PageType::kCode, page);
  b.add_page(0, PageType::kCode, page);
  EXPECT_EQ(std::move(a).finalize(), std::move(b).finalize());
}

TEST(Measurement, SensitiveToContentOffsetTypeAndSize) {
  const Bytes page(4096, 0x11);
  Bytes page2 = page;
  page2[0] ^= 1;

  MeasurementBuilder base(8192);
  base.add_page(0, PageType::kCode, page);
  const auto m_base = std::move(base).finalize();

  MeasurementBuilder diff_content(8192);
  diff_content.add_page(0, PageType::kCode, page2);
  EXPECT_NE(std::move(diff_content).finalize(), m_base);

  MeasurementBuilder diff_offset(8192);
  diff_offset.add_page(4096, PageType::kCode, page);
  EXPECT_NE(std::move(diff_offset).finalize(), m_base);

  MeasurementBuilder diff_type(8192);
  diff_type.add_page(0, PageType::kData, page);
  EXPECT_NE(std::move(diff_type).finalize(), m_base);

  MeasurementBuilder diff_size(16384);
  diff_size.add_page(0, PageType::kCode, page);
  EXPECT_NE(std::move(diff_size).finalize(), m_base);
}

// ---------------------------------------------------------------- Enclave

PlatformConfig named_platform(const std::string& id, std::uint64_t seed) {
  PlatformConfig config;
  config.platform_id = id;
  config.entropy_seed = seed;
  return config;
}

EnclaveImage make_test_image(const std::string& name, std::uint64_t key_seed = 1000) {
  EnclaveImage image;
  image.name = name;
  image.code = to_bytes("pretend machine code for " + name);
  image.initial_data = to_bytes("initial data");
  image.heap_size = 64 * 4096;
  DeterministicEntropy entropy(key_seed);
  sign_image(image, crypto::ed25519_keypair(entropy.array<32>()));
  return image;
}

TEST(Enclave, CreateRequiresValidSignature) {
  Platform platform;
  EnclaveImage image = make_test_image("svc");
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());
  EXPECT_EQ((*enclave)->name(), "svc");

  // Tampering with the code after signing must be rejected (EINIT).
  image.code[0] ^= 0xff;
  auto bad = platform.create_enclave(image);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kAttestationFailure);
}

TEST(Enclave, MeasurementIdentifiesImage) {
  Platform platform;
  auto e1 = platform.create_enclave(make_test_image("svc-a"));
  auto e2 = platform.create_enclave(make_test_image("svc-a"));
  auto e3 = platform.create_enclave(make_test_image("svc-b"));
  ASSERT_TRUE(e1.ok() && e2.ok() && e3.ok());
  EXPECT_EQ((*e1)->mrenclave(), (*e2)->mrenclave());
  EXPECT_NE((*e1)->mrenclave(), (*e3)->mrenclave());
}

TEST(Enclave, EcallDispatchAndUnknownId) {
  Platform platform;
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  Enclave& e = **enclave;

  e.register_ecall(1, [](ByteView arg) -> Result<Bytes> {
    Bytes out(arg.begin(), arg.end());
    std::reverse(out.begin(), out.end());
    return out;
  });

  auto r = e.ecall(1, to_bytes("abc"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "cba");

  EXPECT_FALSE(e.ecall(99, {}).ok());
}

TEST(Enclave, TransitionsChargeCycles) {
  Platform platform;
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  Enclave& e = **enclave;
  e.register_ecall(1, [](ByteView) -> Result<Bytes> { return Bytes{}; });

  const std::uint64_t before = platform.clock().cycles();
  ASSERT_TRUE(e.ecall(1, {}).ok());
  EXPECT_EQ(platform.clock().cycles() - before, platform.cost().ecall_cycles);
  EXPECT_EQ(e.transition_count(), 1u);

  bool ran = false;
  e.ocall([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.transition_count(), 2u);
}

// ---------------------------------------------------------------- Sealing

TEST(Sealing, RoundTripSameEnclave) {
  Platform platform;
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  const Bytes blob = (*enclave)->seal(to_bytes("secret"), SealPolicy::kMrEnclave);
  auto back = (*enclave)->unseal(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(*back), "secret");
}

TEST(Sealing, MrEnclavePolicyRejectsDifferentEnclave) {
  Platform platform;
  auto e1 = platform.create_enclave(make_test_image("svc-a", 1000));
  auto e2 = platform.create_enclave(make_test_image("svc-b", 1000));
  ASSERT_TRUE(e1.ok() && e2.ok());
  const Bytes blob = (*e1)->seal(to_bytes("secret"), SealPolicy::kMrEnclave);
  EXPECT_FALSE((*e2)->unseal(blob).ok());
}

TEST(Sealing, MrSignerPolicyAllowsSameSigner) {
  Platform platform;
  auto e1 = platform.create_enclave(make_test_image("svc-a", 1000));
  auto e2 = platform.create_enclave(make_test_image("svc-b", 1000));  // same signer
  auto e3 = platform.create_enclave(make_test_image("svc-c", 2000));  // other signer
  ASSERT_TRUE(e1.ok() && e2.ok() && e3.ok());

  const Bytes blob = (*e1)->seal(to_bytes("shared secret"), SealPolicy::kMrSigner);
  auto ok = (*e2)->unseal(blob);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(to_string(*ok), "shared secret");
  EXPECT_FALSE((*e3)->unseal(blob).ok());
}

TEST(Sealing, SealedBlobNotPortableAcrossPlatforms) {
  Platform p1(named_platform("p1", 1));
  Platform p2(named_platform("p2", 2));
  auto e1 = p1.create_enclave(make_test_image("svc"));
  auto e2 = p2.create_enclave(make_test_image("svc"));  // identical enclave!
  ASSERT_TRUE(e1.ok() && e2.ok());
  ASSERT_EQ((*e1)->mrenclave(), (*e2)->mrenclave());

  const Bytes blob = (*e1)->seal(to_bytes("secret"), SealPolicy::kMrEnclave);
  EXPECT_FALSE((*e2)->unseal(blob).ok());  // fuse keys differ
}

TEST(Sealing, RejectsMalformedBlob) {
  Platform platform;
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  EXPECT_FALSE((*enclave)->unseal(Bytes{}).ok());
  EXPECT_FALSE((*enclave)->unseal(Bytes(3, 0x07)).ok());
  Bytes blob = (*enclave)->seal(to_bytes("x"), SealPolicy::kMrEnclave);
  blob[blob.size() - 1] ^= 1;  // corrupt tag
  EXPECT_FALSE((*enclave)->unseal(blob).ok());
}

// ------------------------------------------------------------ Attestation

TEST(Attestation, EndToEndQuoteVerification) {
  Platform platform(named_platform("cloud-host-7", 1));
  AttestationService ias;
  platform.provision(ias);

  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());

  const ReportData rd = report_data_from_hash(crypto::Sha256::hash(to_bytes("channel")));
  const Report report = (*enclave)->create_report(rd);
  auto quote = platform.quote(report);
  ASSERT_TRUE(quote.ok());

  // Relying party verifies via the service and checks identity.
  auto verified = ias.verify(*quote);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->mrenclave, (*enclave)->mrenclave());
  EXPECT_EQ(verified->report_data, rd);
}

TEST(Attestation, QuoteSurvivesSerialization) {
  Platform platform;
  AttestationService ias;
  platform.provision(ias);
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  auto quote = platform.quote((*enclave)->create_report(ReportData{}));
  ASSERT_TRUE(quote.ok());

  const Bytes wire = quote->serialize();
  auto verified = ias.verify_wire(wire);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->mrenclave, (*enclave)->mrenclave());
}

TEST(Attestation, RejectsTamperedQuote) {
  Platform platform;
  AttestationService ias;
  platform.provision(ias);
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  auto quote = platform.quote((*enclave)->create_report(ReportData{}));
  ASSERT_TRUE(quote.ok());

  Quote tampered = *quote;
  tampered.report.mrenclave[0] ^= 1;  // claim to be a different enclave
  EXPECT_FALSE(ias.verify(tampered).ok());
}

TEST(Attestation, RejectsUnknownPlatform) {
  Platform rogue(named_platform("rogue", 666));
  AttestationService ias;  // rogue never provisioned
  auto enclave = rogue.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  auto quote = rogue.quote((*enclave)->create_report(ReportData{}));
  ASSERT_TRUE(quote.ok());
  auto r = ias.verify(*quote);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kAttestationFailure);
}

TEST(Attestation, RevokedPlatformRejected) {
  Platform platform(named_platform("p", 1));
  AttestationService ias;
  platform.provision(ias);
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  auto quote = platform.quote((*enclave)->create_report(ReportData{}));
  ASSERT_TRUE(quote.ok());
  ASSERT_TRUE(ias.verify(*quote).ok());
  ias.revoke_platform("p");
  EXPECT_FALSE(ias.verify(*quote).ok());
}

TEST(Attestation, QuotingEnclaveRejectsForeignReport) {
  // A report MAC'd on platform A cannot be quoted by platform B.
  Platform pa(named_platform("a", 1));
  Platform pb(named_platform("b", 2));
  auto enclave = pa.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  const Report report = (*enclave)->create_report(ReportData{});
  auto r = pb.quote(report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kAttestationFailure);
}

TEST(Attestation, MalformedQuoteWireRejected) {
  AttestationService ias;
  EXPECT_FALSE(ias.verify_wire(Bytes{}).ok());
  EXPECT_FALSE(ias.verify_wire(to_bytes("garbage data")).ok());
}

// ---------------------------------------------------------------- Platform

TEST(Platform, EnclaveDestructionFreesEpc) {
  PlatformConfig config;
  config.cost.epc_size_bytes = 256 * 4096;
  config.cost.epc_metadata_bytes = 0;
  Platform platform(config);
  auto enclave = platform.create_enclave(make_test_image("svc"));
  ASSERT_TRUE(enclave.ok());
  const std::uint64_t id = (*enclave)->id();
  EXPECT_GT(platform.memory().epc().resident_pages(), 0u);
  platform.destroy_enclave(id);
  EXPECT_EQ(platform.find_enclave(id), nullptr);
}

TEST(Platform, EnclavesGetDisjointHeaps) {
  Platform platform;
  auto e1 = platform.create_enclave(make_test_image("a"));
  auto e2 = platform.create_enclave(make_test_image("b"));
  ASSERT_TRUE(e1.ok() && e2.ok());
  const auto b1 = (*e1)->heap_base(), s1 = (*e1)->heap_size();
  const auto b2 = (*e2)->heap_base();
  EXPECT_GE(b2, b1 + s1);
}

}  // namespace
}  // namespace securecloud::sgx
