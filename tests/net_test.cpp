// Cluster fabric tests: deterministic event ordering, link modelling,
// fault behaviour, attested sessions, reliable flows, and the headline
// acceptance property — a distributed MapReduce job over a lossy,
// reordering, partitioning network is bit-identical (output, JobStats,
// and every obs counter) for a fixed fault seed at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>

#include "bigdata/distributed_mapreduce.hpp"
#include "bigdata/flow.hpp"
#include "bigdata/mapreduce.hpp"
#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "net/session.hpp"
#include "obs/registry.hpp"
#include "scbr/overlay.hpp"

namespace securecloud {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

Bytes patterned(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return out;
}

// ------------------------------------------------------------------ Fabric

TEST(Fabric, DeliversWithLatencyAndSerializationDelay) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.latency_ns = 1000;
  link.bandwidth_bytes_per_sec = 1'000'000'000;  // 1 byte per ns
  ASSERT_TRUE(fabric.connect(a, b, link).ok());

  std::vector<std::pair<std::uint64_t, Bytes>> got;
  ASSERT_TRUE(fabric
                  .set_handler(b, 7,
                               [&](const net::Message& m) {
                                 got.emplace_back(fabric.now_ns(), m.payload);
                                 EXPECT_EQ(m.src, a);
                                 EXPECT_EQ(m.dst, b);
                                 EXPECT_EQ(m.channel, 7u);
                               })
                  .ok());

  const Bytes payload = patterned(500, 1);
  ASSERT_TRUE(fabric.send(a, b, 7, payload).ok());
  fabric.run_until_idle();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1500u);  // latency 1000 + 500 bytes at 1 B/ns
  EXPECT_EQ(got[0].second, payload);
  EXPECT_EQ(fabric.stats().messages_sent, 1u);
  EXPECT_EQ(fabric.stats().messages_delivered, 1u);
  EXPECT_EQ(fabric.stats().frames_sent, 1u);
  EXPECT_EQ(fabric.stats().bytes_sent, 500u);
  EXPECT_EQ(fabric.stats().bytes_delivered, 500u);
  // Simulated time landed in the shared clock.
  EXPECT_GE(clock.cycles(), 1u);
}

TEST(Fabric, SimultaneousDeliveriesKeepSendOrder) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  std::vector<char> order;
  ASSERT_TRUE(fabric
                  .set_handler(b, 1,
                               [&](const net::Message& m) {
                                 order.push_back(static_cast<char>(m.payload[0]));
                               })
                  .ok());
  // Equal sizes on separate back-to-back sends: identical delivery times;
  // the enqueue sequence must break the tie in send order.
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("A")).ok());
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("B")).ok());
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("C")).ok());
  fabric.run_until_idle();
  EXPECT_EQ((std::vector<char>{'A', 'B', 'C'}), order);
}

TEST(Fabric, RejectsBadTopologyAndUnroutableSends) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  const net::NodeId c = fabric.add_node("c");

  EXPECT_FALSE(fabric.connect(a, 99).ok());
  EXPECT_FALSE(fabric.connect(a, a).ok());
  ASSERT_TRUE(fabric.connect(a, b).ok());
  EXPECT_FALSE(fabric.connect(b, a).ok());  // duplicate (normalized) link

  EXPECT_FALSE(fabric.send(a, 99, 1, bytes_of("x")).ok());  // unknown node
  EXPECT_FALSE(fabric.send(a, c, 1, bytes_of("x")).ok());   // no link
  EXPECT_FALSE(fabric.set_handler(99, 1, [](const net::Message&) {}).ok());
  EXPECT_FALSE(fabric.set_partitioned(a, c, true).ok());
}

TEST(Fabric, FragmentsAndReassemblesAboveMtu) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.mtu_bytes = 100;
  ASSERT_TRUE(fabric.connect(a, b, link).ok());

  Bytes got;
  ASSERT_TRUE(
      fabric.set_handler(b, 2, [&](const net::Message& m) { got = m.payload; })
          .ok());
  const Bytes payload = patterned(250, 3);
  ASSERT_TRUE(fabric.send(a, b, 2, payload).ok());
  fabric.run_until_idle();

  EXPECT_EQ(got, payload);
  EXPECT_EQ(fabric.stats().frames_sent, 3u);  // 100 + 100 + 50
  EXPECT_EQ(fabric.stats().messages_delivered, 1u);
}

TEST(Fabric, LoopbackNeedsNoLink) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  int delivered = 0;
  ASSERT_TRUE(
      fabric.set_handler(a, 5, [&](const net::Message&) { ++delivered; }).ok());
  ASSERT_TRUE(fabric.send(a, a, 5, bytes_of("self")).ok());
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(fabric.now_ns(), 0u);  // loopback is free
}

TEST(Fabric, TimersShareTheEventQueueOrder) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.latency_ns = 1000;
  ASSERT_TRUE(fabric.connect(a, b, link).ok());

  std::vector<std::string> order;
  ASSERT_TRUE(fabric
                  .set_handler(b, 1,
                               [&](const net::Message&) { order.push_back("msg"); })
                  .ok());
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("m")).ok());  // arrives ~1000
  fabric.schedule(100, [&] { order.push_back("t100"); });
  fabric.schedule(50, [&] { order.push_back("t50"); });
  fabric.run_until_idle();

  EXPECT_EQ((std::vector<std::string>{"t50", "t100", "msg"}), order);
  EXPECT_EQ(fabric.stats().timers_fired, 2u);
}

TEST(Fabric, PartitionDropsUntilHealed) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  int delivered = 0;
  ASSERT_TRUE(
      fabric.set_handler(b, 1, [&](const net::Message&) { ++delivered; }).ok());

  ASSERT_TRUE(fabric.set_partitioned(a, b, true).ok());
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("lost")).ok());
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.stats().messages_dropped, 1u);

  ASSERT_TRUE(fabric.set_partitioned(a, b, false).ok());
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("ok")).ok());
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 1);
}

TEST(Fabric, NetLossKillsTheWholeMessage) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(7, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.mtu_bytes = 100;
  ASSERT_TRUE(fabric.connect(a, b, link).ok());
  int delivered = 0;
  ASSERT_TRUE(
      fabric.set_handler(b, 1, [&](const net::Message&) { ++delivered; }).ok());

  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(fabric.send(a, b, 1, patterned(250, 9)).ok());  // 3 frames
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 0);  // one lost fragment loses the message
  EXPECT_EQ(fabric.stats().frames_dropped, 1u);
  EXPECT_EQ(fabric.stats().messages_dropped, 1u);

  ASSERT_TRUE(fabric.send(a, b, 1, patterned(250, 9)).ok());  // fires spent
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 1);
}

TEST(Fabric, NetDuplicateDeliversExactlyOnce) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(7, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  int delivered = 0;
  ASSERT_TRUE(
      fabric.set_handler(b, 1, [&](const net::Message&) { ++delivered; }).ok());

  faults.arm(FaultKind::kNetDuplicate,
             FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("once")).ok());
  fabric.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(fabric.stats().frames_duplicated, 1u);
}

TEST(Fabric, NetReorderDelaysAFrame) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(7, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  std::vector<char> order;
  ASSERT_TRUE(fabric
                  .set_handler(b, 1,
                               [&](const net::Message& m) {
                                 order.push_back(static_cast<char>(m.payload[0]));
                               })
                  .ok());

  faults.arm(FaultKind::kNetReorder, FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("A")).ok());  // reordered: +2x latency
  ASSERT_TRUE(fabric.send(a, b, 1, bytes_of("B")).ok());
  fabric.run_until_idle();
  EXPECT_EQ((std::vector<char>{'B', 'A'}), order);
  EXPECT_EQ(fabric.stats().frames_reordered, 1u);
}

TEST(Fabric, UnhandledMessagesAreCounted) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  ASSERT_TRUE(fabric.send(a, b, 42, bytes_of("nobody home")).ok());
  fabric.run_until_idle();
  EXPECT_EQ(fabric.stats().messages_unhandled, 1u);
}

// One chaotic scenario: same seed => same delivery log, stats, counters.
TEST(Fabric, FaultScheduleIsReproducible) {
  auto run = [](std::uint64_t seed) {
    SimClock clock;
    net::Fabric fabric(clock);
    FaultInjector faults(seed, &clock);
    fabric.set_fault_injector(&faults);
    obs::Registry registry;
    fabric.set_obs(&registry);
    const net::NodeId a = fabric.add_node("a");
    const net::NodeId b = fabric.add_node("b");
    net::LinkConfig link;
    link.mtu_bytes = 64;
    EXPECT_TRUE(fabric.connect(a, b, link).ok());

    std::ostringstream log;
    EXPECT_TRUE(fabric
                    .set_handler(b, 1,
                                 [&](const net::Message& m) {
                                   log << fabric.now_ns() << ':'
                                       << static_cast<int>(m.payload[0]) << ';';
                                 })
                    .ok());
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3});
    faults.arm(FaultKind::kNetDuplicate, FaultArm{.probability = 0.3});
    faults.arm(FaultKind::kNetReorder, FaultArm{.probability = 0.3});
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          fabric.send(a, b, 1, patterned(32 + (i % 5) * 60, static_cast<std::uint8_t>(i)))
              .ok());
    }
    fabric.run_until_idle();
    log << "|stats:" << fabric.stats().messages_delivered << ','
        << fabric.stats().frames_dropped << ',' << fabric.stats().frames_duplicated
        << ',' << fabric.stats().frames_reordered;
    return std::make_pair(log.str(), registry.snapshot());
  };

  const auto first = run(0xFEED);
  const auto second = run(0xFEED);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// --------------------------------------------------------- AttestedSession

struct SessionRig {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  std::unique_ptr<sgx::Platform> platform_a;
  std::unique_ptr<sgx::Platform> platform_b;
  sgx::Enclave* enclave_a = nullptr;
  sgx::Enclave* enclave_b = nullptr;
  net::NodeId a = 0;
  net::NodeId b = 0;

  SessionRig() {
    a = fabric.add_node("a");
    b = fabric.add_node("b");
    EXPECT_TRUE(fabric.connect(a, b).ok());
    sgx::PlatformConfig ca;
    ca.platform_id = "platform-a";
    ca.entropy_seed = 11;
    sgx::PlatformConfig cb;
    cb.platform_id = "platform-b";
    cb.entropy_seed = 22;
    platform_a = std::make_unique<sgx::Platform>(ca);
    platform_b = std::make_unique<sgx::Platform>(cb);
    const sgx::EnclaveImage image = bigdata::mapreduce_worker_image();
    enclave_a = platform_a->create_enclave(image).value();
    enclave_b = platform_b->create_enclave(image).value();
  }

  net::AttestedSession::Config config(net::NodeId self, net::NodeId peer,
                                      sgx::Platform& platform,
                                      sgx::Enclave* enclave) {
    net::AttestedSession::Config c;
    c.fabric = &fabric;
    c.self = self;
    c.peer = peer;
    c.enclave = enclave;
    c.platform = &platform;
    c.attestation = &service;
    return c;
  }
};

TEST(AttestedSession, EstablishesAndExchangesRecords) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);
  obs::Registry registry;

  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  net::AttestedSession initiator(
      net::AttestedSession::Role::kInitiator,
      rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a));
  responder.set_obs(&registry);
  initiator.set_obs(&registry);
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());

  // Records are queued only after establishment.
  EXPECT_EQ(initiator.send(bytes_of("early")).error().code,
            ErrorCode::kUnavailable);

  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();

  ASSERT_TRUE(initiator.established()) << initiator.failure().error().message;
  ASSERT_TRUE(responder.established()) << responder.failure().error().message;
  EXPECT_EQ(initiator.transcript_hash(), responder.transcript_hash());

  Bytes at_responder, at_initiator;
  responder.set_on_record([&](Bytes p) { at_responder = std::move(p); });
  initiator.set_on_record([&](Bytes p) { at_initiator = std::move(p); });
  ASSERT_TRUE(initiator.send(bytes_of("ping")).ok());
  ASSERT_TRUE(responder.send(bytes_of("pong")).ok());
  rig.fabric.run_until_idle();
  EXPECT_EQ(at_responder, bytes_of("ping"));
  EXPECT_EQ(at_initiator, bytes_of("pong"));
}

TEST(AttestedSession, UnknownPlatformFailsAttestation) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);  // responder's platform NOT provisioned

  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  net::AttestedSession initiator(
      net::AttestedSession::Role::kInitiator,
      rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a));
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());
  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();

  EXPECT_EQ(initiator.state(), net::AttestedSession::State::kFailed);
  EXPECT_EQ(initiator.failure().error().code, ErrorCode::kAttestationFailure);
  EXPECT_FALSE(responder.established());
}

TEST(AttestedSession, MrenclavePinRejectsWrongCodeIdentity) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);

  auto initiator_config = rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a);
  sgx::Measurement wrong{};
  wrong.fill(0x42);
  initiator_config.expected_peer_mrenclave = wrong;

  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  net::AttestedSession initiator(net::AttestedSession::Role::kInitiator,
                                 initiator_config);
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());
  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();

  EXPECT_EQ(initiator.state(), net::AttestedSession::State::kFailed);
  EXPECT_EQ(initiator.failure().error().code, ErrorCode::kAttestationFailure);
}

// End-to-end regression for the contributory-behaviour check: a Hello
// carrying the all-zero X25519 point must fail the handshake (the
// shared secret would be all-zero — RFC 7748 §6.1), not establish a
// channel keyed on attacker-chosen zeros.
TEST(AttestedSession, RejectsAllZeroClientPublicKey) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);

  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  ASSERT_TRUE(responder.bind().ok());

  Bytes hello;
  put_u8(hello, 1);  // kHello
  put_blob(hello, Bytes(crypto::kX25519KeySize, 0x00));
  ASSERT_TRUE(rig.fabric.send(rig.a, rig.b, 1, std::move(hello)).ok());
  rig.fabric.run_until_idle();

  EXPECT_EQ(responder.state(), net::AttestedSession::State::kFailed);
  EXPECT_EQ(responder.failure().error().code, ErrorCode::kProtocolError);
}

TEST(AttestedSession, RetransmitSurvivesHandshakeLoss) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);
  FaultInjector faults(5, &rig.clock);
  rig.fabric.set_fault_injector(&faults);
  obs::Registry registry;

  auto config_a = rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a);
  auto config_b = rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b);
  config_a.retry = {.retransmit_timeout_ns = 1'000'000, .max_retries = 8};
  config_b.retry = config_a.retry;
  net::AttestedSession responder(net::AttestedSession::Role::kResponder, config_b);
  net::AttestedSession initiator(net::AttestedSession::Role::kInitiator, config_a);
  responder.set_obs(&registry);
  initiator.set_obs(&registry);
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());

  // The first two frames on the wire are handshake frames, both lost.
  // Without the retransmit timer the handshake hangs silently forever.
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 2});
  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();

  ASSERT_TRUE(initiator.established()) << initiator.failure().error().message;
  ASSERT_TRUE(responder.established()) << responder.failure().error().message;
  EXPECT_GE(registry.counter("net_session_handshake_retransmits_total").value(), 2u);

  // The channel works despite the rocky start.
  Bytes at_responder;
  responder.set_on_record([&](Bytes p) { at_responder = std::move(p); });
  ASSERT_TRUE(initiator.send(bytes_of("after-loss")).ok());
  rig.fabric.run_until_idle();
  EXPECT_EQ(at_responder, bytes_of("after-loss"));
}

TEST(AttestedSession, RetransmitBudgetExhaustsAsTypedFailure) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);

  auto config_a = rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a);
  config_a.retry = {.retransmit_timeout_ns = 1'000'000, .max_retries = 3};
  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  net::AttestedSession initiator(net::AttestedSession::Role::kInitiator, config_a);
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());

  // Total blackout: every retransmit is swallowed. The budget must
  // exhaust into a *typed* failure with the fabric idle — not an
  // infinite retransmit storm, not a silent hang.
  ASSERT_TRUE(rig.fabric.set_partitioned(rig.a, rig.b, true).ok());
  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();

  EXPECT_EQ(initiator.state(), net::AttestedSession::State::kFailed);
  EXPECT_EQ(initiator.failure().error().code, ErrorCode::kUnavailable);
  EXPECT_TRUE(rig.fabric.idle());
}

// The host can inject a Hello with a key of its own into an established
// session. The responder answered its initiator's key once; any other
// key is dropped, so the session neither restarts nor fails, and records
// keep flowing under the keys the handshake agreed.
TEST(AttestedSession, ForeignHelloLeavesEstablishedResponderUp) {
  SessionRig rig;
  rig.platform_a->provision(rig.service);
  rig.platform_b->provision(rig.service);

  net::AttestedSession responder(
      net::AttestedSession::Role::kResponder,
      rig.config(rig.b, rig.a, *rig.platform_b, rig.enclave_b));
  net::AttestedSession initiator(
      net::AttestedSession::Role::kInitiator,
      rig.config(rig.a, rig.b, *rig.platform_a, rig.enclave_a));
  ASSERT_TRUE(responder.bind().ok());
  ASSERT_TRUE(initiator.bind().ok());
  ASSERT_TRUE(initiator.start().ok());
  rig.fabric.run_until_idle();
  ASSERT_TRUE(responder.established());
  const crypto::Sha256Digest transcript = responder.transcript_hash();

  const crypto::ChannelHandshake foreign(crypto::ChannelHandshake::Role::kInitiator,
                                         rig.platform_a->entropy());
  Bytes hello;
  put_u8(hello, 1);  // kHello
  put_blob(hello, foreign.local_public_key());
  ASSERT_TRUE(rig.fabric.send(rig.a, rig.b, 1, std::move(hello)).ok());
  rig.fabric.run_until_idle();

  EXPECT_EQ(responder.state(), net::AttestedSession::State::kEstablished)
      << responder.failure().error().message;
  EXPECT_EQ(responder.transcript_hash(), transcript);
  EXPECT_TRUE(initiator.established());

  Bytes at_responder;
  responder.set_on_record([&](Bytes p) { at_responder = std::move(p); });
  ASSERT_TRUE(initiator.send(bytes_of("still-keyed")).ok());
  rig.fabric.run_until_idle();
  EXPECT_EQ(at_responder, bytes_of("still-keyed"));
}

// ---------------------------------------------------------------- FlowNode

TEST(Flow, RecoversEveryPayloadOverLossyLink) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(1234, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.latency_ns = 20'000;
  ASSERT_TRUE(fabric.connect(a, b, link).ok());

  const Bytes key(16, 0xAB);
  bigdata::FlowConfig fc;
  fc.chunk_size = 1024;
  bigdata::FlowNode sender(fabric, a, key, fc);
  bigdata::FlowNode receiver(fabric, b, key, fc);

  std::vector<Bytes> got;
  receiver.set_on_payload([&](net::NodeId from, Bytes p, obs::TraceContext) {
    EXPECT_EQ(from, a);
    got.push_back(std::move(p));
  });

  // First four frames on the wire are chunk frames: guaranteed losses,
  // all of which NACK/retransmit recovery must repair.
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 4});

  const std::vector<Bytes> payloads = {patterned(5000, 1), patterned(3000, 2),
                                       patterned(4000, 3)};
  for (const Bytes& p : payloads) ASSERT_TRUE(sender.send(b, p).ok());
  fabric.run_until_idle();

  EXPECT_EQ(got, payloads);  // exact, in order, despite 4 lost chunks
  EXPECT_TRUE(sender.health().ok());
  EXPECT_TRUE(receiver.health().ok());
  EXPECT_TRUE(sender.settled());
  EXPECT_TRUE(receiver.settled());
  EXPECT_EQ(receiver.stats().payloads_delivered, 3u);
  EXPECT_GE(sender.stats().retransmits, 4u);
  EXPECT_GE(receiver.stats().nacks_sent, 4u);
}

TEST(Flow, AbandonedGapSurfacesAsTypedFailure) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(99, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  const Bytes key(16, 0xCD);
  bigdata::FlowConfig fc;
  fc.chunk_size = 512;
  fc.retransmit_buffer_chunks = 1;  // retransmit requests will miss
  fc.max_nacks_per_gap = 3;
  bigdata::FlowNode sender(fabric, a, key, fc);
  bigdata::FlowNode receiver(fabric, b, key, fc);
  std::vector<Bytes> got;
  receiver.set_on_payload(
      [&](net::NodeId, Bytes p, obs::TraceContext) { got.push_back(std::move(p)); });

  // Lose chunk 0; with a one-chunk retransmit buffer the sender cannot
  // repair it, so the receiver's NACK budget exhausts and the stream
  // dies as a *typed* failure — and, critically, the fabric still idles
  // (the kDead control stops the sender's beacons).
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(sender.send(b, patterned(4096, 7)).ok());
  fabric.run_until_idle();

  EXPECT_TRUE(got.empty());
  ASSERT_FALSE(receiver.health().ok());
  EXPECT_EQ(receiver.health().error().code, ErrorCode::kUnavailable);
  ASSERT_FALSE(sender.health().ok());
  EXPECT_EQ(sender.health().error().code, ErrorCode::kUnavailable);
  EXPECT_TRUE(fabric.idle());
}

TEST(Flow, DepthGaugesTrackBacklogAndDrainToZero) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(42, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.latency_ns = 20'000;
  ASSERT_TRUE(fabric.connect(a, b, link).ok());

  const Bytes key(16, 0x5A);
  bigdata::FlowConfig fc;
  fc.chunk_size = 512;
  bigdata::FlowNode sender(fabric, a, key, fc);
  bigdata::FlowNode receiver(fabric, b, key, fc);
  obs::Registry sender_obs;
  sender.set_obs(&sender_obs);
  receiver.set_on_payload([](net::NodeId, Bytes, obs::TraceContext) {});

  // Lose the first chunk: the other seven arrive out of order and must
  // sit in the receiver's reorder buffer until the NACK repairs the gap.
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(sender.send(b, patterned(4096, 6)).ok());

  // send() put every chunk on the wire before any ack can exist, and
  // the aggregate, per-peer, and gauge views must agree on the depth.
  const std::uint64_t launched = sender.stats().chunks_in_flight;
  EXPECT_GE(launched, 8u);  // 4096 bytes over 512-byte chunks
  EXPECT_EQ(sender.peer_depth(b).in_flight, launched);
  EXPECT_EQ(sender_obs.gauge("net_flow_chunks_in_flight").value(),
            static_cast<std::int64_t>(launched));

  // Step the fabric one event at a time and watch the depths move: the
  // reorder buffer must visibly fill behind the gap, then fully drain.
  std::uint64_t max_queued = 0;
  while (fabric.run_until_idle(1) > 0) {
    max_queued = std::max(max_queued, receiver.stats().chunks_queued);
  }
  EXPECT_GE(max_queued, 7u);

  // Settled means empty: no chunk in flight, nothing buffered, mirrored
  // by the gauges and the per-peer view.
  EXPECT_TRUE(sender.settled());
  EXPECT_EQ(sender.stats().chunks_in_flight, 0u);
  EXPECT_EQ(receiver.stats().chunks_queued, 0u);
  EXPECT_EQ(sender.peer_depth(b), (bigdata::FlowDepth{}));
  EXPECT_EQ(receiver.peer_depth(a), (bigdata::FlowDepth{}));
  EXPECT_EQ(sender_obs.gauge("net_flow_chunks_in_flight").value(), 0);
  EXPECT_EQ(receiver.stats().payloads_delivered, 1u);
}

TEST(Flow, QuiesceStopsCountersAndNotifiesPeers) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  const Bytes key(16, 0x77);
  bigdata::FlowNode sender(fabric, a, key);
  bigdata::FlowNode receiver(fabric, b, key);
  receiver.set_on_payload([](net::NodeId, Bytes, obs::TraceContext) {});
  ASSERT_TRUE(sender.send(b, patterned(2000, 3)).ok());
  fabric.run_until_idle();
  ASSERT_EQ(receiver.stats().payloads_delivered, 1u);

  // b's process dies: last-gasp kDead, then total silence.
  net::NodeId pronounced_dead = 0;
  sender.set_on_peer_dead([&](net::NodeId peer) { pronounced_dead = peer; });
  const bigdata::FlowStats frozen = receiver.stats();
  receiver.quiesce();
  EXPECT_TRUE(receiver.quiesced());
  fabric.run_until_idle();

  // The kDead reached a: peer declared dead exactly once, sends fail typed.
  EXPECT_EQ(pronounced_dead, b);
  EXPECT_EQ(sender.send(b, patterned(64, 1)).error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(sender.health().error().code, ErrorCode::kUnavailable);

  // Frames aimed at the dead node are not parsed and bump NOTHING — the
  // counter bit-identity guarantee for chaos runs.
  (void)fabric.send(a, b, bigdata::FlowNode::kChunkChannel, patterned(128, 9));
  (void)fabric.send(a, b, bigdata::FlowNode::kControlChannel, patterned(9, 1));
  fabric.run_until_idle();
  EXPECT_EQ(receiver.stats(), frozen);
  EXPECT_TRUE(fabric.idle());

  // Abandoning the dead peer clears the sender's health.
  sender.abandon_peer(b);
  EXPECT_TRUE(sender.health().ok());
}

// The chunk envelope's high-water mark and a kBeacon's value sit outside
// the AEAD. A host that forges either must not size the receiver's gap
// table: one forged frame costs at most the reorder window in gaps, and
// the window times the NACK budget in NACKs.
TEST(Flow, ForgedHighWaterMarkCannotSizeTheGapTable) {
  const std::size_t window = bigdata::SecureTransferReceiver::kMaxBufferedChunks;
  const bigdata::FlowConfig fc;
  // Small value first: a receiver without the bound fails on the count
  // here, before the 2^40 case could exhaust memory.
  for (const std::uint64_t forged_mark : {std::uint64_t{16} * window, std::uint64_t{1} << 40}) {
    for (const bool as_beacon : {false, true}) {
      SCOPED_TRACE(std::to_string(forged_mark) + (as_beacon ? " beacon" : " envelope"));
      SimClock clock;
      net::Fabric fabric(clock);
      const net::NodeId a = fabric.add_node("a");
      const net::NodeId b = fabric.add_node("b");
      ASSERT_TRUE(fabric.connect(a, b).ok());
      bigdata::FlowNode sender(fabric, a, Bytes(16, 0x3C), fc);
      bigdata::FlowNode receiver(fabric, b, Bytes(16, 0x3C), fc);
      receiver.set_on_payload([](net::NodeId, Bytes, obs::TraceContext) {
        ADD_FAILURE() << "a forged frame delivered a payload";
      });

      // One frame "from" a: a beacon (kBeacon = 3), or a chunk envelope
      // whose 40-byte chunk fails the AEAD.
      Bytes forged;
      if (as_beacon) {
        put_u8(forged, 3);
        put_u64(forged, forged_mark);
      } else {
        put_u64(forged, forged_mark);
        obs::put_trace_context(forged, {});
        put_blob(forged, Bytes(40, 0x5C));
      }
      ASSERT_TRUE(fabric
                      .send(a, b, as_beacon ? bigdata::FlowNode::kControlChannel : bigdata::FlowNode::kChunkChannel,
                            std::move(forged))
                      .ok());

      // The first timer round NACKs every registered gap at once.
      while (receiver.stats().nacks_sent == 0 && fabric.run_until_idle(1) > 0) {
      }
      ASSERT_GT(receiver.stats().nacks_sent, 0u);
      ASSERT_LE(receiver.stats().nacks_sent, window);
      fabric.run_until_idle();
      ASSERT_LE(receiver.stats().nacks_sent, window * fc.max_nacks_per_gap);
      // Nothing the sender holds can fill the gaps, so the stream dies
      // typed and the fabric idles.
      EXPECT_EQ(receiver.health().error().code, ErrorCode::kUnavailable);
      EXPECT_TRUE(fabric.idle());
    }
  }
}

// Acks are unauthenticated too: a forged cumulative ack past everything
// sent must not wrap the in-flight depth.
TEST(Flow, ForgedAckCannotWrapInFlightDepth) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  const bigdata::FlowConfig fc;
  bigdata::FlowNode sender(fabric, a, Bytes(16, 0x3D), fc);
  bigdata::FlowNode receiver(fabric, b, Bytes(16, 0x3D), fc);
  obs::Registry sender_obs;
  sender.set_obs(&sender_obs);
  std::vector<Bytes> got;
  receiver.set_on_payload(
      [&](net::NodeId, Bytes p, obs::TraceContext) { got.push_back(std::move(p)); });

  const Bytes payload = patterned(20'000, 4);
  ASSERT_TRUE(sender.send(b, payload).ok());
  const std::uint64_t launched = sender.stats().chunks_sent;
  ASSERT_GT(launched, 1u);
  // An ack (kAck = 2) "from" b, 1000 chunks past the sender's high water.
  Bytes forged;
  put_u8(forged, 2);
  put_u64(forged, launched + 1000);
  ASSERT_TRUE(fabric.send(b, a, bigdata::FlowNode::kControlChannel, std::move(forged)).ok());
  fabric.run_until_idle();

  EXPECT_EQ(got, std::vector<Bytes>{payload});
  EXPECT_EQ(sender.stats().chunks_in_flight, 0u);
  EXPECT_EQ(sender.peer_depth(b).in_flight, 0u);
  EXPECT_EQ(sender_obs.gauge("net_flow_chunks_in_flight").value(), 0);
}

// A cumulative ack retires the chunks below it: a later NACK for one of
// them finds nothing to resend, the same as an evicted chunk.
TEST(Flow, NackBelowAckRetransmitsNothing) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  bigdata::FlowConfig fc;
  fc.chunk_size = 1024;
  bigdata::FlowNode sender(fabric, a, Bytes(16, 0x4E), fc);
  bigdata::FlowNode receiver(fabric, b, Bytes(16, 0x4E), fc);
  std::vector<Bytes> got;
  receiver.set_on_payload(
      [&](net::NodeId, Bytes p, obs::TraceContext) { got.push_back(std::move(p)); });

  const Bytes payload = patterned(5000, 6);
  ASSERT_TRUE(sender.send(b, payload).ok());
  fabric.run_until_idle();
  ASSERT_EQ(got, std::vector<Bytes>{payload});
  ASSERT_TRUE(sender.settled());
  const std::uint64_t chunks = sender.stats().chunks_sent;

  // A NACK (kNack = 1) "from" b for chunk 0, which b has acked.
  Bytes nack;
  put_u8(nack, 1);
  put_u64(nack, 0);
  ASSERT_TRUE(fabric.send(b, a, bigdata::FlowNode::kControlChannel, std::move(nack)).ok());
  fabric.run_until_idle();

  EXPECT_EQ(sender.stats().retransmits, 0u);
  EXPECT_EQ(sender.stats().chunks_sent, chunks);
  EXPECT_EQ(got.size(), 1u);
}

TEST(Flow, BeaconThresholdDetectsSilentPeer) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  const Bytes key(16, 0x31);
  bigdata::FlowConfig fc;
  fc.beacon_death_threshold = 3;
  bigdata::FlowNode sender(fabric, a, key, fc);
  // No flow endpoint on b at all: the peer is silently gone — no kDead
  // will ever arrive, only the beacon threshold can catch it.
  net::NodeId pronounced_dead = 0;
  sender.set_on_peer_dead([&](net::NodeId peer) { pronounced_dead = peer; });

  ASSERT_TRUE(sender.send(b, patterned(4096, 2)).ok());
  fabric.run_until_idle();  // must terminate: beacons are bounded

  EXPECT_EQ(pronounced_dead, b);
  ASSERT_FALSE(sender.health().ok());
  EXPECT_EQ(sender.health().error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(sender.stats().beacons_sent, 3u);
  EXPECT_TRUE(fabric.idle());
}

// --------------------------------------------- BrokerOverlay over the fabric

TEST(Overlay, HopsChargeSimulatedNetworkTime) {
  SimClock clock;
  net::Fabric fabric(clock);
  std::vector<net::NodeId> broker_node;
  for (int i = 0; i < 3; ++i) {
    broker_node.push_back(fabric.add_node("broker-" + std::to_string(i)));
  }
  net::LinkConfig link;
  link.latency_ns = 50'000;
  ASSERT_TRUE(fabric.connect(broker_node[0], broker_node[1], link).ok());
  ASSERT_TRUE(fabric.connect(broker_node[1], broker_node[2], link).ok());
  for (net::NodeId n : broker_node) {
    ASSERT_TRUE(fabric.set_handler(n, 9, [](const net::Message&) {}).ok());
  }

  scbr::BrokerOverlay overlay(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(overlay.topology().ok());
  overlay.set_hop_transport([&](scbr::BrokerId from, scbr::BrokerId to,
                                std::size_t bytes) {
    ASSERT_TRUE(
        fabric.send(broker_node[from], broker_node[to], 9, Bytes(bytes, 0)).ok());
  });

  scbr::Filter hot;
  hot.where("temp", scbr::Op::kGe, scbr::Value::of(std::int64_t{30}));
  ASSERT_TRUE(overlay.subscribe(2, 7, hot).ok());  // propagates 2->1->0

  scbr::Event event;
  event.set("temp", std::int64_t{35});
  auto matches = overlay.publish(0, event);  // routes 0->1->2
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0], 7u);

  fabric.run_until_idle();
  // Every overlay link crossing became exactly one fabric message...
  EXPECT_EQ(fabric.stats().messages_sent,
            overlay.stats().subscriptions_forwarded + overlay.stats().publication_hops);
  EXPECT_EQ(fabric.stats().messages_delivered, fabric.stats().messages_sent);
  // ...and the hops charged real simulated time into the shared clock.
  EXPECT_GE(fabric.now_ns(), link.latency_ns);
  EXPECT_GT(clock.cycles(), 0u);
}

// ------------------------------------------------- Distributed MapReduce

std::vector<std::vector<Bytes>> word_partitions() {
  const std::vector<std::vector<std::string>> raw = {
      {"the quick brown fox", "jumps over the lazy dog"},
      {"secure map reduce in the untrusted cloud", "the cloud is untrusted"},
      {"attest then trust", "trust but verify", "verify the quote"},
      {"shuffle the encrypted blocks", "reduce the shuffled blocks"},
      {"latency bandwidth and loss", "loss duplication and reorder"},
      {"the fabric is deterministic", "the schedule is a pure function"},
      {"seeds make chaos reproducible", "the same seed the same run"},
      {"counters must match bit for bit", "or the test fails"},
  };
  std::vector<std::vector<Bytes>> partitions;
  for (const auto& lines : raw) {
    std::vector<Bytes> records;
    for (const std::string& line : lines) records.push_back(bytes_of(line));
    partitions.push_back(std::move(records));
  }
  return partitions;
}

std::map<std::string, double> expected_word_counts() {
  std::map<std::string, double> expect;
  for (const auto& partition : word_partitions()) {
    for (const Bytes& record : partition) {
      std::istringstream in(std::string(record.begin(), record.end()));
      std::string word;
      while (in >> word) expect[word] += 1.0;
    }
  }
  return expect;
}

bigdata::SecureMapReduce::MapFn word_count_map() {
  return [](ByteView record) {
    std::vector<bigdata::KeyValue> out;
    std::istringstream in(std::string(record.begin(), record.end()));
    std::string word;
    while (in >> word) out.push_back({word, 1.0});
    return out;
  };
}

bigdata::SecureMapReduce::ReduceFn sum_reduce() {
  return [](const std::string&, const std::vector<double>& values) {
    double total = 0;
    for (double v : values) total += v;
    return total;
  };
}

struct DistRun {
  bigdata::JobResult result;
  obs::Snapshot metrics;
  std::uint64_t fabric_now_ns = 0;
};

DistRun run_distributed_job(std::uint64_t seed, std::size_t threads,
                            bool with_faults) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(seed, &clock);
  obs::Registry registry;
  obs::Tracer tracer(clock);  // spans are wall-time-stamped: kept out of
                              // the determinism comparison by design
  fabric.set_obs(&registry, &tracer);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.enable_combiner = true;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.set_obs(&registry, &tracer);

  Status setup = driver.setup(service);
  EXPECT_TRUE(setup.ok()) << (setup.ok() ? "" : setup.error().message);

  // Arm chaos only after setup: handshakes are the setup phase; data
  // flows carry the recovery machinery.
  fabric.set_fault_injector(&faults);
  if (with_faults) {
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
    faults.arm(FaultKind::kNetReorder,
               FaultArm{.probability = 0.2, .max_fires = 15});
    faults.arm(FaultKind::kNetPartition,
               FaultArm{.probability = 0.05, .max_fires = 4});
  }

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }

  common::ThreadPool pool(threads);
  driver.set_pool(threads <= 1 ? nullptr : &pool);

  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  DistRun out;
  if (result.ok()) out.result = std::move(*result);
  out.metrics = registry.snapshot();
  out.fabric_now_ns = fabric.now_ns();
  return out;
}

TEST(DistributedMapReduce, ComputesWordCountAcrossTheCluster) {
  const DistRun run = run_distributed_job(0xC0FFEE, 1, /*with_faults=*/false);
  EXPECT_EQ(run.result.output, expected_word_counts());
  EXPECT_EQ(run.result.stats.input_records, 17u);
  EXPECT_GT(run.result.stats.intermediate_pairs, 0u);
  EXPECT_GT(run.result.stats.shuffle_bytes, 0u);
  EXPECT_GT(run.result.stats.enclave_transitions, 0u);
  EXPECT_GT(run.result.stats.simulated_cycles, 0u);  // network time charged
  EXPECT_GT(run.fabric_now_ns, 0u);
}

TEST(DistributedMapReduce, BackToBackJobsStayCorrect) {
  // Same driver, two epochs: shuffle/result nonces must not collide.
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  bigdata::DistributedMapReduce driver(fabric, config);
  ASSERT_TRUE(driver.setup(service).ok());

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  auto first = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto second = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(first->output, expected_word_counts());
  EXPECT_EQ(first->output, second->output);
}

// THE acceptance property: with loss, reorder, AND partition faults
// armed, the distributed job over a 5-node cluster produces
// bit-identical output, JobStats, and obs counters for a fixed seed —
// at 1 thread vs 8 threads, and across repeated runs — and that output
// equals the fault-free result (faults recover, never diverge).
TEST(DistributedMapReduce, ControlDecodersBoundHostileCounts) {
  // kMapTask: epoch, task, then a record count of 0xffffffff and nothing
  // behind it. The worker fails with this typed error instead of sizing
  // a four-billion-entry vector.
  Bytes task;
  put_u64(task, 1);
  put_u64(task, 0);
  put_u32(task, 0xffffffffu);
  auto map_task = bigdata::decode_map_task(task);
  ASSERT_FALSE(map_task.ok());
  EXPECT_EQ(map_task.error().code, ErrorCode::kProtocolError);

  // kAssign with a hostile dead-node count, then with a sane dead list and
  // owner table but a hostile reassignment count.
  Bytes dead;
  put_u64(dead, 1);
  put_u32(dead, 0xffffffffu);
  auto hostile_dead = bigdata::decode_assignment(dead);
  ASSERT_FALSE(hostile_dead.ok());
  EXPECT_EQ(hostile_dead.error().code, ErrorCode::kProtocolError);

  Bytes reassign;
  put_u64(reassign, 1);
  put_u32(reassign, 0);  // no dead nodes
  put_u32(reassign, 1);  // one owner
  put_u64(reassign, 7);
  put_u32(reassign, 0xffffffffu);
  auto hostile_reassign = bigdata::decode_assignment(reassign);
  ASSERT_FALSE(hostile_reassign.ok());
  EXPECT_EQ(hostile_reassign.error().code, ErrorCode::kProtocolError);

  // The same shapes with honest counts decode.
  Bytes honest = task;
  honest.resize(honest.size() - 4);
  put_u32(honest, 1);
  put_blob(honest, bytes_of("record"));
  auto ok_task = bigdata::decode_map_task(honest);
  ASSERT_TRUE(ok_task.ok());
  EXPECT_EQ(ok_task->records, std::vector<Bytes>{bytes_of("record")});
  Bytes honest_assign = reassign;
  honest_assign.resize(honest_assign.size() - 4);
  put_u32(honest_assign, 1);
  put_u64(honest_assign, 2);
  put_u64(honest_assign, 9);
  auto ok_assign = bigdata::decode_assignment(honest_assign);
  ASSERT_TRUE(ok_assign.ok());
  EXPECT_EQ(ok_assign->owners, std::vector<net::NodeId>{7});
  ASSERT_EQ(ok_assign->reassigns.size(), 1u);
  EXPECT_EQ(ok_assign->reassigns[0], (std::pair<std::uint64_t, net::NodeId>{2, 9}));
}

TEST(DistributedMapReduce, DeterministicUnderFaultsAtAnyThreadCount) {
  const std::uint64_t seed = 42;
  const DistRun serial = run_distributed_job(seed, 1, /*with_faults=*/true);
  const DistRun pooled = run_distributed_job(seed, 8, /*with_faults=*/true);
  const DistRun repeat = run_distributed_job(seed, 1, /*with_faults=*/true);
  const DistRun clean = run_distributed_job(seed, 1, /*with_faults=*/false);

  // Output: correct, and bit-identical across thread counts and runs.
  EXPECT_EQ(serial.result.output, expected_word_counts());
  EXPECT_EQ(serial.result.output, pooled.result.output);
  EXPECT_EQ(serial.result.output, repeat.result.output);
  EXPECT_EQ(serial.result.output, clean.result.output);

  // JobStats: every field identical.
  EXPECT_EQ(serial.result.stats.input_records, pooled.result.stats.input_records);
  EXPECT_EQ(serial.result.stats.intermediate_pairs,
            pooled.result.stats.intermediate_pairs);
  EXPECT_EQ(serial.result.stats.shuffle_bytes, pooled.result.stats.shuffle_bytes);
  EXPECT_EQ(serial.result.stats.enclave_transitions,
            pooled.result.stats.enclave_transitions);
  EXPECT_EQ(serial.result.stats.simulated_cycles,
            pooled.result.stats.simulated_cycles);

  // The whole observability surface — net_*, net_flow_*, transfer_*,
  // net_session_*, dist_mapreduce_* — value for value.
  EXPECT_EQ(serial.metrics, pooled.metrics);
  EXPECT_EQ(serial.metrics, repeat.metrics);
  EXPECT_EQ(serial.fabric_now_ns, pooled.fabric_now_ns);

  // Sanity: chaos actually happened in the faulted runs (they took
  // longer in simulated time than the clean run) yet converged.
  EXPECT_GT(serial.fabric_now_ns, clean.fabric_now_ns);
}

// ------------------------------------------------------ FabricConcurrency
// Memory-safety hammers for scripts/tsan_check.sh: concurrent send()
// while another thread drains. (Schedule determinism is NOT claimed for
// concurrent producers — see the fabric header contract.)

TEST(FabricConcurrency, ParallelSendersAreRaceFree) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(fabric
                  .set_handler(b, 1,
                               [&](const net::Message&) {
                                 received.fetch_add(1, std::memory_order_relaxed);
                               })
                  .ok());

  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      fabric.run_until_idle();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerSender; ++i) {
        ASSERT_TRUE(
            fabric.send(a, b, 1, patterned(64, static_cast<std::uint8_t>(t))).ok());
      }
    });
  }
  for (auto& s : senders) s.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  fabric.run_until_idle();  // drain the tail

  const auto total = static_cast<std::uint64_t>(kSenders) * kPerSender;
  EXPECT_EQ(fabric.stats().messages_sent, total);
  EXPECT_EQ(fabric.stats().messages_delivered, total);
  EXPECT_EQ(received.load(), total);
}

TEST(FabricConcurrency, ConcurrentTimersAndSendsConserveEvents) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());
  std::atomic<std::uint64_t> fired{0};
  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(fabric
                  .set_handler(b, 1,
                               [&](const net::Message&) {
                                 received.fetch_add(1, std::memory_order_relaxed);
                               })
                  .ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        fabric.schedule(static_cast<std::uint64_t>(i + 1) * 10, [&] {
          fired.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_TRUE(fabric.send(a, b, 1, patterned(16, 5)).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  fabric.run_until_idle();

  const auto each = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(fired.load(), each);
  EXPECT_EQ(received.load(), each);
  EXPECT_EQ(fabric.stats().timers_fired, each);
  EXPECT_TRUE(fabric.idle());
}

// ------------------------------------------- distributed tracing (obs v2)

TEST(Fabric, TraceContextRidesFrameEnvelope) {
  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  const obs::TraceContext ctx{0xABCDull, 0x1234ull};
  std::vector<obs::TraceContext> seen;
  ASSERT_TRUE(fabric
                  .set_handler(b, 3,
                               [&](const net::Message& m) { seen.push_back(m.trace); })
                  .ok());
  ASSERT_TRUE(fabric.send(a, b, 3, patterned(100, 1), ctx).ok());
  ASSERT_TRUE(fabric.send(a, b, 3, patterned(100, 2)).ok());  // untraced
  fabric.run_until_idle();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], ctx);
  EXPECT_FALSE(seen[1].valid());

  const auto& log = fabric.deliveries();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].src, a);
  EXPECT_EQ(log[0].dst, b);
  EXPECT_EQ(log[0].channel, 3u);
  EXPECT_EQ(log[0].bytes, 100u);
  EXPECT_EQ(log[0].trace_id, ctx.trace_id);
  EXPECT_GT(log[0].deliver_cycles, log[0].send_cycles);
  EXPECT_EQ(log[1].trace_id, 0u);  // untraced message logs trace 0
}

TEST(Fabric, ComputeSkewScalesNodeCompute) {
  SimClock clock;
  net::Fabric fabric(clock);
  const net::NodeId fast = fabric.add_node("fast");
  const net::NodeId slow = fabric.add_node("slow");
  const net::NodeId half = fabric.add_node("half");

  EXPECT_EQ(fabric.scaled_compute_ns(fast, 1000), 1000u);  // identity default
  ASSERT_TRUE(fabric.set_compute_skew(slow, 4).ok());
  ASSERT_TRUE(fabric.set_compute_skew(half, 3, 2).ok());
  EXPECT_EQ(fabric.scaled_compute_ns(slow, 1000), 4000u);
  EXPECT_EQ(fabric.scaled_compute_ns(half, 1000), 1500u);
  EXPECT_EQ(fabric.scaled_compute_ns(fast, 1000), 1000u);

  EXPECT_FALSE(fabric.set_compute_skew(99, 2).ok());      // unknown node
  EXPECT_FALSE(fabric.set_compute_skew(slow, 1, 0).ok());  // div by zero
}

TEST(Flow, TraceContextSurvivesChunkingAndLoss) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(777, &clock);
  fabric.set_fault_injector(&faults);
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  ASSERT_TRUE(fabric.connect(a, b).ok());

  const Bytes key(16, 0x5A);
  bigdata::FlowConfig fc;
  fc.chunk_size = 1024;
  bigdata::FlowNode sender(fabric, a, key, fc);
  bigdata::FlowNode receiver(fabric, b, key, fc);

  std::vector<obs::TraceContext> seen;
  receiver.set_on_payload(
      [&](net::NodeId, Bytes, obs::TraceContext ctx) { seen.push_back(ctx); });

  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.4, .max_fires = 6});
  const obs::TraceContext ctx{42, 43};
  ASSERT_TRUE(sender.send(b, patterned(10'000, 9), ctx).ok());
  fabric.run_until_idle();

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], ctx);  // the context rode every chunk, loss repaired
  EXPECT_TRUE(sender.settled());
}

struct TracedRun {
  bigdata::JobResult result;
  std::string obs_v2;
  std::string trace_v2;
  std::string critical_path_json;
  std::string critical_path_text;
  std::string dominant_node;
};

/// Distributed word count in cluster-obs mode: per-node registries /
/// tracers / flight recorders, fabric delivery log, optional chaos and
/// an optional compute-skew straggler; returns the merged v2 exports
/// and the critical-path report.
TracedRun run_traced_job(std::uint64_t seed, std::size_t threads, bool with_faults,
                         std::size_t straggler_index, std::uint32_t straggler_skew) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(seed, &clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.enable_combiner = true;
  // Heavy per-record compute: the straggler's skewed map work must
  // dominate even the multi-millisecond retransmit-backoff stalls a
  // chaos run inserts (which the analyzer rightly charges to whichever
  // node sat waiting).
  config.map_compute_ns_per_record = 1'000'000;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();

  Status setup = driver.setup(service);
  EXPECT_TRUE(setup.ok()) << (setup.ok() ? "" : setup.error().message);
  fabric.enable_delivery_log();
  if (straggler_skew > 1) {
    EXPECT_TRUE(
        fabric.set_compute_skew(driver.worker_node(straggler_index), straggler_skew)
            .ok());
  }
  fabric.set_fault_injector(&faults);
  if (with_faults) {
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
    faults.arm(FaultKind::kNetReorder,
               FaultArm{.probability = 0.2, .max_fires = 15});
    faults.arm(FaultKind::kNetPartition,
               FaultArm{.probability = 0.05, .max_fires = 4});
  }

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  common::ThreadPool pool(threads);
  driver.set_pool(threads <= 1 ? nullptr : &pool);

  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);

  TracedRun out;
  if (result.ok()) out.result = std::move(*result);

  auto snapshot = driver.collect_cluster_snapshot();
  EXPECT_TRUE(snapshot.ok()) << (snapshot.ok() ? "" : snapshot.error().message);
  if (!snapshot.ok()) return out;
  out.obs_v2 = snapshot->to_obs_json();
  out.trace_v2 = snapshot->to_trace_json();

  const std::vector<std::string> names = fabric.node_names();
  obs::CriticalPathOptions opts;
  opts.deliveries = &fabric.deliveries();
  opts.node_names = &names;
  auto report = obs::critical_path(*snapshot, opts);
  EXPECT_TRUE(report.ok()) << (report.ok() ? "" : report.error().message);
  if (report.ok()) {
    out.critical_path_json = report->to_json();
    out.critical_path_text = report->to_text();
    out.dominant_node = report->dominant_node;
  }
  return out;
}

TEST(DistributedTrace, WorkerSpansParentToCoordinatorJobSpan) {
  const TracedRun run =
      run_traced_job(0xBEEF, 1, /*with_faults=*/false, 0, /*skew=*/1);
  EXPECT_EQ(run.result.output, expected_word_counts());
  // The merged trace carries node-labelled worker spans in the job trace.
  EXPECT_NE(run.trace_v2.find("\"schema\":\"securecloud.trace.v2\""),
            std::string::npos);
  EXPECT_NE(run.trace_v2.find("dist_mapreduce.job"), std::string::npos);
  EXPECT_NE(run.trace_v2.find("dist_mapreduce.map_task"), std::string::npos);
  EXPECT_NE(run.trace_v2.find("dist_mapreduce.reduce"), std::string::npos);
  EXPECT_NE(run.trace_v2.find("\"node\":\"worker-2\""), std::string::npos);
  EXPECT_NE(run.obs_v2.find("\"schema\":\"securecloud.obs.v2\""),
            std::string::npos);
  EXPECT_NE(run.obs_v2.find("\"coordinator\""), std::string::npos);
  // The critical path reaches into worker map compute.
  EXPECT_NE(run.critical_path_text.find("dist_mapreduce.map_task"),
            std::string::npos);
}

TEST(DistributedTrace, StragglerDominatesCriticalPath) {
  // Worker 2 computes 4x slower: the analyzer must name it as the
  // dominant node and route the path through its map task.
  const TracedRun run =
      run_traced_job(0xBEEF, 1, /*with_faults=*/false, 2, /*skew=*/4);
  EXPECT_EQ(run.result.output, expected_word_counts());
  EXPECT_EQ(run.dominant_node, "worker-2");
  EXPECT_NE(run.critical_path_text.find("worker-2/dist_mapreduce.map_task"),
            std::string::npos);
}

TEST(DistributedTrace, MergedExportsAreThreadCountInvariant) {
  // Chaos + straggler, 1 thread vs 8 threads vs a repeat: the merged
  // obs/trace exports and the critical-path report must be
  // byte-identical — every stamp comes from the serial fabric loop.
  const TracedRun one = run_traced_job(42, 1, /*with_faults=*/true, 1, 4);
  const TracedRun eight = run_traced_job(42, 8, /*with_faults=*/true, 1, 4);
  const TracedRun again = run_traced_job(42, 8, /*with_faults=*/true, 1, 4);

  EXPECT_EQ(one.result.output, expected_word_counts());
  EXPECT_EQ(one.dominant_node, "worker-1");  // named even under chaos
  EXPECT_EQ(one.obs_v2, eight.obs_v2);
  EXPECT_EQ(one.trace_v2, eight.trace_v2);
  EXPECT_EQ(one.critical_path_json, eight.critical_path_json);
  EXPECT_EQ(one.critical_path_text, eight.critical_path_text);
  EXPECT_EQ(eight.obs_v2, again.obs_v2);
  EXPECT_EQ(eight.trace_v2, again.trace_v2);
  EXPECT_EQ(eight.critical_path_json, again.critical_path_json);
  EXPECT_FALSE(one.trace_v2.empty());
}

// The cluster's obs travels on no fabric channel: a host-run node linked
// to a worker that sends a snapshot request ({1}) on raw channel 9 gets
// nothing back.
TEST(DistributedTrace, WorkerAnswersNoRawObsRequest) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 2;
  config.num_reducers = 2;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  ASSERT_TRUE(driver.setup(service).ok());

  constexpr std::uint32_t kRawObsChannel = 9;
  const net::NodeId rogue = fabric.add_node("rogue");
  ASSERT_TRUE(fabric.connect(rogue, driver.worker_node(0)).ok());
  std::size_t replies = 0;
  ASSERT_TRUE(fabric
                  .set_handler(rogue, kRawObsChannel,
                               [&](const net::Message&) { ++replies; })
                  .ok());
  ASSERT_TRUE(
      fabric.send(rogue, driver.worker_node(0), kRawObsChannel, Bytes{1}).ok());
  fabric.run_until_idle();
  EXPECT_EQ(replies, 0u);
}

// Collection reads the bundles where they live: no message, no fabric time.
TEST(DistributedTrace, SnapshotLeavesTheFabricUntouched) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 3;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  ASSERT_TRUE(driver.setup(service).ok());
  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  ASSERT_TRUE(driver.run(encrypted, word_count_map(), sum_reduce()).ok());

  const net::FabricStats before = fabric.stats();
  const std::uint64_t now_ns = fabric.now_ns();
  auto snapshot = driver.collect_cluster_snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
  EXPECT_EQ(snapshot->nodes.size(), 4u);
  EXPECT_EQ(fabric.stats(), before);
  EXPECT_EQ(fabric.now_ns(), now_ns);
}

std::string run_postmortem_job(std::size_t threads) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(99, &clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 3;
  // Small chunks (tasks span several) + one-chunk retransmit buffer +
  // tiny NACK budget: the first lost chunk is unrepairable, so the
  // stream dies as a typed failure and the fabric still idles (a total
  // blackout would beacon forever).
  config.flow.chunk_size = 256;
  config.flow.retransmit_buffer_chunks = 1;
  config.flow.max_nacks_per_gap = 3;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  Status setup = driver.setup(service);
  EXPECT_TRUE(setup.ok()) << (setup.ok() ? "" : setup.error().message);

  // Mirror fault-injector decisions into the coordinator's flight
  // recorder so the postmortem shows *why* the stream died.
  faults.set_observer([&](const common::FaultEvent& ev) {
    driver.coordinator_obs()->flight.record(
        "fault", std::string(common::to_string(ev.kind)) + " op=" +
                     std::to_string(ev.op));
  });
  fabric.set_fault_injector(&faults);
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 1});

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  common::ThreadPool pool(threads);
  driver.set_pool(threads <= 1 ? nullptr : &pool);
  // This test *wants* the typed failure: recovery would re-execute the
  // lost task and rescue the job, so every worker dies early in the run.
  for (std::size_t w = 0; w < config.num_workers; ++w) {
    driver.schedule_worker_kill(w, 100'000 * (w + 1));
  }

  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  EXPECT_FALSE(result.ok());  // all workers dead; job cannot complete
  EXPECT_TRUE(fabric.idle());
  return driver.last_postmortem();
}

TEST(DistributedTrace, PostmortemFlightDumpIsDeterministic) {
  const std::string one = run_postmortem_job(1);
  ASSERT_FALSE(one.empty());
  EXPECT_NE(one.find("\"schema\":\"securecloud.flight.v2\""), std::string::npos);
  EXPECT_NE(one.find("net-loss"), std::string::npos);  // observer-mirrored
  EXPECT_NE(one.find("dead_stream"), std::string::npos);  // flow's own event
  EXPECT_EQ(one, run_postmortem_job(4));
}

// ------------------------------------- worker-death recovery / speculation

struct ChaosRun {
  bool ok = false;
  std::string error;
  bigdata::JobResult result;
  std::string obs_v2;
  std::uint64_t worker_deaths = 0;
  std::uint64_t tasks_reexecuted = 0;
};

/// Word count in cluster-obs mode with loss+reorder armed and (optionally)
/// worker 1 killed at a fixed point of fabric time mid-job.
ChaosRun run_chaos_kill_job(std::uint64_t seed, std::size_t threads,
                            std::uint64_t kill_delay_ns, bool with_faults) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(seed, &clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.enable_combiner = true;
  // Stretch map and reduce across enough fabric time that the kill
  // delays below land mid-map / mid-shuffle deterministically.
  config.map_compute_ns_per_record = 500'000;
  config.reduce_compute_ns_per_pair = 50'000;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  Status setup = driver.setup(service);
  EXPECT_TRUE(setup.ok()) << (setup.ok() ? "" : setup.error().message);

  fabric.set_fault_injector(&faults);
  if (with_faults) {
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.3, .max_fires = 25});
    faults.arm(FaultKind::kNetReorder,
               FaultArm{.probability = 0.2, .max_fires = 15});
  }

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  common::ThreadPool pool(threads);
  driver.set_pool(threads <= 1 ? nullptr : &pool);
  if (kill_delay_ns > 0) driver.schedule_worker_kill(1, kill_delay_ns);

  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  ChaosRun out;
  out.ok = result.ok();
  if (result.ok()) {
    out.result = std::move(*result);
  } else {
    out.error = result.error().message;
  }
  out.worker_deaths = driver.coordinator_obs()
                          ->registry.counter("dist_mapreduce_worker_deaths_total")
                          .value();
  out.tasks_reexecuted =
      driver.coordinator_obs()
          ->registry.counter("dist_mapreduce_tasks_reexecuted_total")
          .value();
  auto snapshot = driver.collect_cluster_snapshot();
  EXPECT_TRUE(snapshot.ok()) << (snapshot.ok() ? "" : snapshot.error().message);
  if (snapshot.ok()) out.obs_v2 = snapshot->to_obs_json();
  return out;
}

void expect_chaos_runs_identical(const ChaosRun& a, const ChaosRun& b) {
  EXPECT_EQ(a.result.output, b.result.output);
  EXPECT_EQ(a.result.stats.input_records, b.result.stats.input_records);
  EXPECT_EQ(a.result.stats.intermediate_pairs, b.result.stats.intermediate_pairs);
  EXPECT_EQ(a.result.stats.shuffle_bytes, b.result.stats.shuffle_bytes);
  EXPECT_EQ(a.result.stats.enclave_transitions,
            b.result.stats.enclave_transitions);
  EXPECT_EQ(a.result.stats.simulated_cycles, b.result.stats.simulated_cycles);
  // Strongest form: the merged per-node obs v2 export (every counter on
  // every surviving node) byte-for-byte.
  EXPECT_EQ(a.obs_v2, b.obs_v2);
}

// Tentpole acceptance: a worker killed MID-MAP with loss+reorder armed.
// The job must still complete with output equal to the failure-free run,
// and the whole thing must be bit-identical at 1 vs 8 threads.
TEST(DistributedRecovery, KilledWorkerMidMapRecoversDeterministically) {
  const std::uint64_t seed = 0xD1E5;
  const std::uint64_t kill_ns = 1'500'000;  // inside worker 1's map compute
  const ChaosRun serial = run_chaos_kill_job(seed, 1, kill_ns, true);
  const ChaosRun pooled = run_chaos_kill_job(seed, 8, kill_ns, true);
  const ChaosRun clean = run_chaos_kill_job(seed, 1, /*kill=*/0, false);

  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(pooled.ok) << pooled.error;
  ASSERT_TRUE(clean.ok) << clean.error;

  // Recovery actually ran.
  EXPECT_GE(serial.worker_deaths, 1u);
  EXPECT_GE(serial.tasks_reexecuted, 1u);

  // Same output as if the worker had never died — epoch-baked nonces
  // make the re-executed task byte-identical, dedup keeps stats exact.
  EXPECT_EQ(serial.result.output, expected_word_counts());
  EXPECT_EQ(serial.result.output, clean.result.output);
  EXPECT_EQ(serial.result.stats.input_records, clean.result.stats.input_records);
  EXPECT_EQ(serial.result.stats.intermediate_pairs,
            clean.result.stats.intermediate_pairs);
  EXPECT_EQ(serial.result.stats.shuffle_bytes, clean.result.stats.shuffle_bytes);
  EXPECT_EQ(serial.result.stats.enclave_transitions,
            clean.result.stats.enclave_transitions);

  expect_chaos_runs_identical(serial, pooled);
}

// Same, but the worker dies MID-SHUFFLE: its map finished and reported,
// yet its produced blocks died with it, so its task re-executes anyway
// and its reduce bundle moves to a survivor.
TEST(DistributedRecovery, KilledWorkerMidShuffleRecoversDeterministically) {
  const std::uint64_t seed = 0x5AFE;
  const std::uint64_t kill_ns = 3'600'000;  // after map, inside the shuffle
  const ChaosRun serial = run_chaos_kill_job(seed, 1, kill_ns, true);
  const ChaosRun pooled = run_chaos_kill_job(seed, 8, kill_ns, true);
  const ChaosRun clean = run_chaos_kill_job(seed, 1, /*kill=*/0, false);

  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(pooled.ok) << pooled.error;
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_GE(serial.worker_deaths, 1u);
  EXPECT_EQ(serial.result.output, expected_word_counts());
  EXPECT_EQ(serial.result.output, clean.result.output);
  EXPECT_EQ(serial.result.stats.shuffle_bytes, clean.result.stats.shuffle_bytes);
  expect_chaos_runs_identical(serial, pooled);
}

// A dead worker cannot answer, but its bundle outlives it: the merged
// snapshot still lists the node.
TEST(DistributedRecovery, SnapshotListsKilledWorker) {
  const ChaosRun run = run_chaos_kill_job(0xD1E5, 1, 1'500'000, false);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GE(run.worker_deaths, 1u);
  EXPECT_NE(run.obs_v2.find("\"node\":\"worker-1\""), std::string::npos);
}

TEST(DistributedRecovery, SetupHandshakesSurviveArmedLoss) {
  // Loss armed BEFORE setup: the handshake retransmit timers (wired by
  // RecoveryConfig) must repair the lost handshake frames; pre-PR this
  // hung the fabric or failed setup outright.
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(3, &clock);
  fabric.set_fault_injector(&faults);
  faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 1.0, .max_fires = 2});
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 3;
  bigdata::DistributedMapReduce driver(fabric, config);
  ASSERT_TRUE(driver.setup(service).ok());

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->output, expected_word_counts());
}

TEST(DistributedRecovery, IntegrityFailureAbortsAndQuiescesDeterministically) {
  // A tampered input record is an *attack*, not a crash: the victim
  // worker must abort the job (typed integrity error), NOT recover —
  // and its quiesced counters must leave the obs surface bit-identical
  // across thread counts.
  auto run_once = [](std::size_t threads) {
    SimClock clock;
    net::Fabric fabric(clock);
    sgx::AttestationService service;
    bigdata::DistributedMapReduceConfig config;
    config.num_workers = 3;
    config.num_reducers = 3;
    bigdata::DistributedMapReduce driver(fabric, config);
    driver.enable_cluster_obs();
    EXPECT_TRUE(driver.setup(service).ok());

    std::vector<std::vector<Bytes>> encrypted;
    for (const auto& partition : word_partitions()) {
      encrypted.push_back(driver.encrypt_partition(partition));
    }
    encrypted[0][0][8] ^= 0x01;  // integrity violation at worker 0

    common::ThreadPool pool(threads);
    driver.set_pool(threads <= 1 ? nullptr : &pool);
    auto result = driver.run(encrypted, word_count_map(), sum_reduce());
    EXPECT_FALSE(result.ok());
    std::string error = result.ok() ? "" : result.error().message;
    EXPECT_NE(error.find("worker 0"), std::string::npos) << error;
    auto snapshot = driver.collect_cluster_snapshot();
    EXPECT_TRUE(snapshot.ok());
    return std::make_pair(error, snapshot.ok() ? snapshot->to_obs_json() : "");
  };
  const auto serial = run_once(1);
  const auto pooled = run_once(8);
  ASSERT_FALSE(serial.second.empty());
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);
}

TEST(DistributedRecovery, SpeculationShiftsCriticalPathOffStraggler) {
  // Without speculation the 4x-skewed worker 2 dominates the critical
  // path (StragglerDominatesCriticalPath above). With speculation on,
  // a copy of its map task launches on a healthy peer, the straggler's
  // execution is cancelled, and the analyzer must no longer name
  // worker-2 as dominant.
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.enable_combiner = true;
  config.map_compute_ns_per_record = 1'000'000;
  // Slack low enough that the copy launches (and the straggler's span is
  // cancelled) well before the straggler would have finished; with 50%
  // slack the cancelled span alone still out-weighs a full healthy map.
  config.speculation.enabled = true;
  config.speculation.slack_percent = 10;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  ASSERT_TRUE(driver.setup(service).ok());
  fabric.enable_delivery_log();
  ASSERT_TRUE(fabric.set_compute_skew(driver.worker_node(2), 4).ok());

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->output, expected_word_counts());

  auto& registry = driver.coordinator_obs()->registry;
  EXPECT_GE(registry.counter("dist_mapreduce_speculative_launched_total").value(),
            1u);
  EXPECT_GE(registry.counter("dist_mapreduce_speculative_wins_total").value(), 1u);

  auto snapshot = driver.collect_cluster_snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
  const std::vector<std::string> names = fabric.node_names();
  obs::CriticalPathOptions opts;
  opts.deliveries = &fabric.deliveries();
  opts.node_names = &names;
  auto report = obs::critical_path(*snapshot, opts);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_NE(report->dominant_node, "worker-2");
}

TEST(DistributedRecovery, AllWorkersDeadIsTypedUnavailable) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 2;
  config.num_reducers = 2;
  bigdata::DistributedMapReduce driver(fabric, config);
  ASSERT_TRUE(driver.setup(service).ok());

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  driver.schedule_worker_kill(0, 100'000);
  driver.schedule_worker_kill(1, 200'000);
  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  EXPECT_TRUE(fabric.idle());
}

// The host can inject a frame on the session channel. It fails the
// coordinator's session toward that worker, which has done its only job
// (releasing the key); the flow still decides liveness, so the worker is
// not declared dead and the job completes on every worker.
TEST(DistributedRecovery, SpoofedSessionFrameIsNotAWorkerDeath) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 3;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  ASSERT_TRUE(driver.setup(service).ok());

  ASSERT_TRUE(fabric.send(driver.worker_node(0), driver.coordinator_node(), 1, {1}).ok());
  fabric.run_until_idle();

  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& partition : word_partitions()) {
    encrypted.push_back(driver.encrypt_partition(partition));
  }
  auto result = driver.run(encrypted, word_count_map(), sum_reduce());
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->output, expected_word_counts());
  EXPECT_TRUE(driver.worker_alive(0));
  EXPECT_EQ(driver.coordinator_obs()
                ->registry.counter("dist_mapreduce_worker_deaths_total")
                .value(),
            0u);
  std::size_t session_failures = 0;
  for (const obs::FlightEvent& event : driver.coordinator_obs()->flight.events()) {
    if (event.category == "session_failure") ++session_failures;
  }
  EXPECT_EQ(session_failures, 1u);
}

}  // namespace
}  // namespace securecloud
