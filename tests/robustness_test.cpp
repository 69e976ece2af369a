// Robustness suite: adversarial and pathological corners across layers
// that the per-module suites do not reach.
#include <gtest/gtest.h>

#include "bigdata/kvstore.hpp"
#include "bigdata/transfer.hpp"
#include "container/engine.hpp"
#include "microservice/service.hpp"
#include "genpack/simulator.hpp"
#include "scbr/overlay.hpp"
#include "sgx/platform.hpp"

namespace securecloud {
namespace {

using crypto::DeterministicEntropy;

// ----------------------------------------------------------- quote attacks

TEST(Robustness, QuotePlatformIdSwapRejected) {
  // Two genuine platforms; a quote signed by A but re-labeled as B must
  // fail (B's key does not verify A's signature).
  sgx::PlatformConfig ca, cb;
  ca.platform_id = "a";
  ca.entropy_seed = 1;
  cb.platform_id = "b";
  cb.entropy_seed = 2;
  sgx::Platform pa(ca), pb(cb);
  sgx::AttestationService ias;
  pa.provision(ias);
  pb.provision(ias);

  sgx::EnclaveImage image;
  image.name = "svc";
  image.code = to_bytes("code");
  DeterministicEntropy signer(3);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = pa.create_enclave(image);
  ASSERT_TRUE(enclave.ok());

  auto quote = pa.quote((*enclave)->create_report(sgx::ReportData{}));
  ASSERT_TRUE(quote.ok());
  ASSERT_TRUE(ias.verify(*quote).ok());

  sgx::Quote relabeled = *quote;
  relabeled.platform_id = "b";
  auto r = ias.verify(relabeled);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kAttestationFailure);
}

TEST(Robustness, QuoteReportDataTamperRejected) {
  sgx::Platform platform;
  sgx::AttestationService ias;
  platform.provision(ias);
  sgx::EnclaveImage image;
  image.name = "svc";
  image.code = to_bytes("code");
  DeterministicEntropy signer(4);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());

  auto quote = platform.quote((*enclave)->create_report(
      sgx::report_data_from_hash(crypto::Sha256::hash(to_bytes("honest")))));
  ASSERT_TRUE(quote.ok());
  sgx::Quote tampered = *quote;
  tampered.report.report_data[0] ^= 1;  // rebind to a different channel
  EXPECT_FALSE(ias.verify(tampered).ok());
}

// ------------------------------------------------------- event bus bounds

TEST(Robustness, DrainBoundsInfinitePingPong) {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  platform.provision(attestation);
  DeterministicEntropy entropy(5);
  scbr::KeyService keys(attestation, entropy);
  sgx::EnclaveImage image;
  image.name = "bus";
  image.code = to_bytes("bus");
  DeterministicEntropy signer(6);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());
  keys.authorize_router((*enclave)->mrenclave());

  microservice::EventBus bus(**enclave, keys);
  microservice::MicroService ping(bus, "ping");
  microservice::MicroService pong(bus, "pong");
  ASSERT_TRUE(bus.start().ok());

  // Mutual subscriptions that re-publish forever.
  scbr::Filter pings, pongs;
  pings.where("kind", scbr::Op::kEq, scbr::Value::of(std::string("ping")));
  pongs.where("kind", scbr::Op::kEq, scbr::Value::of(std::string("pong")));
  int handled = 0;
  ASSERT_TRUE(pong.on(pings, [&](const scbr::Event&) {
                    ++handled;
                    scbr::Event e;
                    e.set("kind", "pong");
                    (void)pong.emit(e);
                  })
                  .ok());
  ASSERT_TRUE(ping.on(pongs, [&](const scbr::Event&) {
                    ++handled;
                    scbr::Event e;
                    e.set("kind", "ping");
                    (void)ping.emit(e);
                  })
                  .ok());

  scbr::Event first;
  first.set("kind", "ping");
  ASSERT_TRUE(ping.emit(first).ok());
  // An unbounded cascade must terminate at the round bound.
  const std::size_t invocations = bus.drain(/*max_rounds=*/10);
  EXPECT_EQ(invocations, 10u);
  EXPECT_EQ(handled, 10);
}

// ---------------------------------------------------- overlay stats/shape

TEST(Robustness, OverlayStarForwardingCounts) {
  scbr::BrokerOverlay overlay(4, {{0, 1}, {0, 2}, {0, 3}});
  scbr::Filter f;
  f.where("x", scbr::Op::kGe, scbr::Value::of(std::int64_t{0}));
  ASSERT_TRUE(overlay.subscribe(1, 1, f).ok());
  // Propagates 1->0, then 0->2 and 0->3: three forwards.
  EXPECT_EQ(overlay.stats().subscriptions_forwarded, 3u);
  EXPECT_EQ(overlay.remote_entries(0), 1u);  // learned via link to 1
  EXPECT_EQ(overlay.remote_entries(2), 1u);
}

// -------------------------------------------------------- container paths

TEST(Robustness, ExitedContainerCanRunAgain) {
  container::Registry registry;
  container::ContainerMonitor monitor;
  container::ContainerEngine engine(registry, monitor);
  container::Layer layer;
  layer.files["/state"] = to_bytes("0");
  container::ImageManifest manifest;
  manifest.name = "restartable";
  manifest.layer_digests.push_back(registry.push_layer(layer));
  ASSERT_TRUE(registry.push_manifest(manifest).ok());

  auto cont = engine.create("restartable:latest");
  ASSERT_TRUE(cont.ok());
  auto bump = [](scone::UntrustedFileSystem& fs) -> Result<Bytes> {
    auto v = fs.read_file("/state");
    if (!v.ok()) return v.error();
    const int n = std::stoi(securecloud::to_string(*v)) + 1;
    SC_RETURN_IF_ERROR(fs.write_file("/state", to_bytes(std::to_string(n))));
    return to_bytes(std::to_string(n));
  };
  auto r1 = engine.run(**cont, bump);
  auto r2 = engine.run(**cont, bump);  // rootfs persists across runs
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(securecloud::to_string(*r2), "2");
}

TEST(Robustness, WhiteoutThenReAddInLaterLayer) {
  container::Layer base, mid, top;
  base.files["/cfg"] = to_bytes("v1");
  mid.whiteouts.push_back("/cfg");
  top.files["/cfg"] = to_bytes("v3");
  scone::UntrustedFileSystem rootfs;
  container::materialize_rootfs({base, mid, top}, rootfs);
  auto v = rootfs.read_file("/cfg");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(securecloud::to_string(*v), "v3");
}

// ------------------------------------------------------------ data layers

TEST(Robustness, KvStoreEmptyValueRoundTrip) {
  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy(7);
  bigdata::SecureKvStore store(storage, Bytes(16, 1), "ns", entropy);
  ASSERT_TRUE(store.put("empty", {}).ok());
  auto v = store.get("empty");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
}

TEST(Robustness, TransferEmptyPayload) {
  SimClock clock;
  bigdata::SecureTransferSender sender(Bytes(16, 2), 9);
  bigdata::SecureTransferReceiver receiver(Bytes(16, 2), 9, clock, 8);
  const auto chunks = sender.send({});
  ASSERT_EQ(chunks.size(), 1u);  // single (empty) final chunk
  auto r = receiver.receive(chunks[0]);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);  // delivered once...
  EXPECT_TRUE((*r)[0].empty());  // ...and empty
}

TEST(Robustness, TransferCrossStreamReplayRejected) {
  SimClock clock;
  bigdata::SecureTransferSender sender_a(Bytes(16, 3), 1);
  bigdata::SecureTransferReceiver receiver_b(Bytes(16, 3), 2, clock, 8);  // stream 2
  const auto chunks = sender_a.send(Bytes(100, 0x11));
  // Same key, wrong stream id: AAD binding rejects, the chunk is dropped
  // as corrupt and nothing is delivered.
  auto r = receiver_b.receive(chunks[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(receiver_b.recovery_stats().corrupt, 1u);
  EXPECT_EQ(receiver_b.next_expected(), 0u);
}

// ----------------------------------------------------------- genpack edges

TEST(Robustness, TraceWithoutBatchJobs) {
  genpack::TraceConfig config;
  config.batch_arrivals_per_hour = 0;
  config.system_containers = 2;
  config.service_containers = 3;
  const auto trace = genpack::generate_trace(config, 1);
  EXPECT_EQ(trace.size(), 5u);
  genpack::FirstFitScheduler ff;
  const auto report = genpack::ClusterSimulator(4).run(trace, ff);
  EXPECT_EQ(report.placed, 5u);
  EXPECT_DOUBLE_EQ(report.interference_container_hours, 0.0);
}

TEST(Robustness, SingleServerClusterGenPackStillWorks) {
  genpack::GenPackScheduler genpack(1);
  genpack::ClusterSimulator sim(1);
  genpack::TraceConfig config;
  config.system_containers = 1;
  config.service_containers = 2;
  config.batch_arrivals_per_hour = 5;
  config.max_cpu_cores = 1.0;
  config.max_mem_gb = 1.0;
  const auto trace = genpack::generate_trace(config, 2);
  const auto report = sim.run(trace, genpack);
  EXPECT_GT(report.placed, 0u);  // overflow path places on the only host
}

}  // namespace
}  // namespace securecloud
