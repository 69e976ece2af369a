// Fault-injection & recovery tests.
//
// The invariant every test here asserts (see DESIGN.md "Fault model &
// recovery"): an injected fault either recovers to the bit-identical
// no-fault output, or surfaces as a typed Error with a matching stat —
// never a silent divergence. Determinism is the other pillar: the same
// seed must produce the same fault schedule on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "bigdata/transfer.hpp"
#include "common/fault_injector.hpp"
#include "container/engine.hpp"
#include "container/monitor.hpp"
#include "container/registry.hpp"
#include "container/scone_client.hpp"
#include "genpack/scheduler.hpp"
#include "genpack/simulator.hpp"
#include "microservice/event_bus.hpp"
#include "scbr/workload.hpp"
#include "sgx/epc.hpp"
#include "sgx/platform.hpp"

namespace securecloud {
namespace {

using common::FaultArm;
using common::FaultEvent;
using common::FaultInjector;
using common::FaultKind;
using crypto::DeterministicEntropy;

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    SimClock clock;
    FaultInjector inj(seed, &clock);
    inj.arm(FaultKind::kDropChunk, 0.3);
    inj.arm(FaultKind::kCorruptMessage, FaultArm{.probability = 0.2, .max_fires = 3});
    inj.arm(FaultKind::kKillContainer, 0.1);
    for (int i = 0; i < 300; ++i) {
      (void)inj.should_fire(FaultKind::kDropChunk);
      if (i % 2 == 0) (void)inj.should_fire(FaultKind::kCorruptMessage);
      if (i % 3 == 0) (void)inj.should_fire(FaultKind::kKillContainer);
      clock.advance_cycles(17);
    }
    return inj.schedule();
  };

  const auto a = run(42);
  const auto b = run(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run(43));
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Exercising one kind must not shift another kind's verdicts: kind B's
  // stream sees the same draws whether or not kind A is consulted.
  const auto drops_only = [](bool also_poll_kills) {
    FaultInjector inj(7);
    inj.arm(FaultKind::kDropChunk, 0.5);
    inj.arm(FaultKind::kKillContainer, 0.5);
    std::vector<bool> verdicts;
    for (int i = 0; i < 100; ++i) {
      verdicts.push_back(inj.should_fire(FaultKind::kDropChunk));
      if (also_poll_kills) (void)inj.should_fire(FaultKind::kKillContainer);
    }
    return verdicts;
  };
  EXPECT_EQ(drops_only(false), drops_only(true));
}

TEST(FaultInjector, MaxFiresBoundsAndWindowGates) {
  FaultInjector bounded(9);
  bounded.arm(FaultKind::kDropMessage, FaultArm{.probability = 1.0, .max_fires = 2});
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (bounded.should_fire(FaultKind::kDropMessage)) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(bounded.fired(FaultKind::kDropMessage), 2u);
  EXPECT_EQ(bounded.decisions(FaultKind::kDropMessage), 50u);

  SimClock clock;
  FaultInjector windowed(9, &clock);
  windowed.arm(FaultKind::kKillEnclave, FaultArm{.probability = 1.0,
                                                 .not_before_cycles = 100,
                                                 .not_after_cycles = 200});
  EXPECT_FALSE(windowed.should_fire(FaultKind::kKillEnclave));  // before window
  clock.advance_cycles(150);
  EXPECT_TRUE(windowed.should_fire(FaultKind::kKillEnclave));   // inside
  clock.advance_cycles(150);
  EXPECT_FALSE(windowed.should_fire(FaultKind::kKillEnclave));  // after
  ASSERT_EQ(windowed.schedule().size(), 1u);
  EXPECT_EQ(windowed.schedule()[0].at_cycles, 150u);
}

TEST(FaultInjector, ObserverSeesEveryFiredFault) {
  SimClock clock;
  FaultInjector inj(11, &clock);
  inj.arm(FaultKind::kDropChunk, 0.5);
  inj.arm(FaultKind::kCorruptMessage, 0.3);

  std::vector<FaultEvent> seen;
  inj.set_observer([&](const FaultEvent& ev) { seen.push_back(ev); });
  for (int i = 0; i < 200; ++i) {
    (void)inj.should_fire(FaultKind::kDropChunk);
    (void)inj.should_fire(FaultKind::kCorruptMessage);
    clock.advance_cycles(3);
  }
  // The observer saw exactly the fired schedule, in order.
  EXPECT_FALSE(seen.empty());
  EXPECT_EQ(seen, inj.schedule());

  // Detaching stops delivery but the schedule keeps growing.
  const std::size_t at_detach = seen.size();
  inj.set_observer(nullptr);
  inj.arm(FaultKind::kDropMessage, FaultArm{.probability = 1.0, .max_fires = 1});
  ASSERT_TRUE(inj.should_fire(FaultKind::kDropMessage));
  EXPECT_EQ(seen.size(), at_detach);
  EXPECT_EQ(inj.schedule().size(), at_detach + 1);
}

TEST(FaultInjector, CorruptFlipsExactlyOneBitReproducibly) {
  const Bytes original = to_bytes("the quick brown fox jumps over the lazy dog");
  FaultInjector a(5), b(5);
  Bytes wa = original, wb = original;
  a.corrupt(wa);
  b.corrupt(wb);
  EXPECT_EQ(wa, wb);
  EXPECT_NE(wa, original);

  int flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    flipped_bits += std::popcount(static_cast<unsigned>(wa[i] ^ original[i]));
  }
  EXPECT_EQ(flipped_bits, 1);

  // A second corruption of the same buffer advances the stream: it hits a
  // (reproducibly) different bit, not the same one again.
  Bytes wa2 = wa;
  a.corrupt(wa2);
  EXPECT_NE(wa2, original);
  EXPECT_NE(wa2, wa);
}

TEST(FaultInjector, PerturbChunksReproducible) {
  std::vector<Bytes> chunks;
  for (int i = 0; i < 24; ++i) {
    chunks.push_back(to_bytes("chunk-" + std::to_string(i) + "-payload"));
  }
  const auto perturb = [&](std::uint64_t seed) {
    FaultInjector inj(seed);
    inj.arm(FaultKind::kDropChunk, 0.2);
    inj.arm(FaultKind::kCorruptChunk, 0.2);
    inj.arm(FaultKind::kDuplicateChunk, 0.2);
    inj.arm(FaultKind::kReorderChunk, 0.5);
    return inj.perturb_chunks(chunks);
  };
  EXPECT_EQ(perturb(11), perturb(11));
  EXPECT_NE(perturb(11), perturb(12));
}

}  // namespace
}  // namespace securecloud

// --------------------------------------------------- Secure transfer recovery

namespace securecloud::bigdata {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;

Bytes make_payload(std::size_t n) {
  // Runs of repeated bytes so the RLE codec has something to chew on.
  Bytes p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>((i / 9) * 37 + (i % 3));
  }
  return p;
}

struct FaultyDelivery {
  std::vector<Bytes> payloads;
  ReceiverStats stats;
  Status health = Status{};
};

constexpr std::size_t kNackBudget = 8;

/// Sends `payload`, perturbs the wire through `inj`, and drives the
/// receiver's NACK/retransmit loop on `clock` until it converges (or the
/// stream dies). Models sender and receiver on either side of an
/// untrusted network.
FaultyDelivery deliver_with_faults(const Bytes& payload, FaultInjector& inj,
                                   SimClock& clock, std::size_t chunk_size) {
  const Bytes key(16, 0x44);
  SecureTransferSender sender(key, 7, chunk_size);
  SecureTransferReceiver receiver(key, 7, clock, kNackBudget);

  FaultyDelivery out;
  const std::vector<Bytes> chunks = sender.send(payload);
  for (const Bytes& wire : inj.perturb_chunks(chunks)) {
    auto got = receiver.receive(wire);
    if (!got.ok()) {
      out.health = got.error();
      out.stats = receiver.recovery_stats();
      return out;
    }
    for (Bytes& p : *got) out.payloads.push_back(std::move(p));
  }
  // Sender heartbeat: advertise the high-water mark so trailing losses
  // become NACKable gaps too.
  (void)receiver.expect_through(chunks.size() - 1);

  for (int round = 0; round < 200 && receiver.has_pending_gaps(); ++round) {
    for (const Nack& nack : receiver.take_due_nacks()) {
      auto wire = sender.retransmit(nack.sequence);
      if (!wire.ok()) continue;
      auto got = receiver.receive(*wire);
      if (!got.ok()) {
        out.health = got.error();
        out.stats = receiver.recovery_stats();
        return out;
      }
      for (Bytes& p : *got) out.payloads.push_back(std::move(p));
    }
    clock.advance_ns(1'000'000);
  }
  out.stats = receiver.recovery_stats();
  out.health = receiver.health();
  return out;
}

TEST(TransferRecovery, DroppedChunksRecoveredBitIdentical) {
  const Bytes payload = make_payload(20'000);
  SimClock clock;
  FaultInjector inj(21, &clock);
  inj.arm(FaultKind::kDropChunk, 0.3);

  const auto result = deliver_with_faults(payload, inj, clock, 256);
  ASSERT_GT(inj.fired(FaultKind::kDropChunk), 0u);  // faults actually injected
  ASSERT_TRUE(result.health.ok()) << result.health.error().message;
  ASSERT_EQ(result.payloads.size(), 1u);
  EXPECT_EQ(result.payloads[0], payload);
  EXPECT_GT(result.stats.nacks_sent, 0u);
  EXPECT_GT(result.stats.gaps_recovered, 0u);
  EXPECT_EQ(result.stats.gaps_abandoned, 0u);
}

TEST(TransferRecovery, CorruptChunksDetectedAndRepaired) {
  const Bytes payload = make_payload(20'000);
  SimClock clock;
  FaultInjector inj(33, &clock);
  inj.arm(FaultKind::kCorruptChunk, 0.4);

  const auto result = deliver_with_faults(payload, inj, clock, 256);
  ASSERT_GT(inj.fired(FaultKind::kCorruptChunk), 0u);
  ASSERT_TRUE(result.health.ok()) << result.health.error().message;
  ASSERT_EQ(result.payloads.size(), 1u);
  EXPECT_EQ(result.payloads[0], payload);
  EXPECT_GT(result.stats.corrupt, 0u);  // tampering observed, never silent
}

TEST(TransferRecovery, DuplicatesAndReorderingTolerated) {
  const Bytes payload = make_payload(20'000);
  SimClock clock;
  FaultInjector inj(55, &clock);
  inj.arm(FaultKind::kDuplicateChunk, 0.5);
  inj.arm(FaultKind::kReorderChunk, 1.0);

  const auto result = deliver_with_faults(payload, inj, clock, 256);
  ASSERT_TRUE(result.health.ok()) << result.health.error().message;
  ASSERT_EQ(result.payloads.size(), 1u);
  EXPECT_EQ(result.payloads[0], payload);
  EXPECT_GT(result.stats.duplicates, 0u);
  EXPECT_GT(result.stats.buffered, 0u);
}

TEST(TransferRecovery, AllWireFaultsAtOnceStillConverge) {
  const Bytes payload = make_payload(40'000);
  SimClock clock;
  FaultInjector inj(77, &clock);
  inj.arm(FaultKind::kDropChunk, 0.15);
  inj.arm(FaultKind::kCorruptChunk, 0.15);
  inj.arm(FaultKind::kDuplicateChunk, 0.15);
  inj.arm(FaultKind::kReorderChunk, 0.5);

  const auto result = deliver_with_faults(payload, inj, clock, 256);
  // Retransmissions come from the sender's pristine buffer, so recovery
  // converges no matter what the first copy suffered.
  ASSERT_TRUE(result.health.ok()) << result.health.error().message;
  ASSERT_EQ(result.payloads.size(), 1u);
  EXPECT_EQ(result.payloads[0], payload);
}

TEST(TransferRecovery, SameSeedSameFaultScheduleTwice) {
  const Bytes payload = make_payload(40'000);
  const auto run = [&] {
    SimClock clock;
    FaultInjector inj(77, &clock);
    inj.arm(FaultKind::kDropChunk, 0.15);
    inj.arm(FaultKind::kCorruptChunk, 0.15);
    inj.arm(FaultKind::kDuplicateChunk, 0.15);
    inj.arm(FaultKind::kReorderChunk, 0.5);
    auto result = deliver_with_faults(payload, inj, clock, 256);
    return std::pair(inj.schedule(), std::move(result));
  };
  const auto [schedule_a, result_a] = run();
  const auto [schedule_b, result_b] = run();
  EXPECT_FALSE(schedule_a.empty());
  EXPECT_EQ(schedule_a, schedule_b);
  EXPECT_EQ(result_a.payloads, result_b.payloads);
  EXPECT_EQ(result_a.stats.nacks_sent, result_b.stats.nacks_sent);
  EXPECT_EQ(result_a.stats.corrupt, result_b.stats.corrupt);
  EXPECT_EQ(result_a.stats.duplicates, result_b.stats.duplicates);
}

TEST(TransferRecovery, TrailingLossDetectedViaHighWaterMark) {
  const Bytes key(16, 0x44);
  const Bytes payload = make_payload(2'000);
  SimClock clock;
  SecureTransferSender sender(key, 7, 128);
  SecureTransferReceiver receiver(key, 7, clock, kNackBudget);

  const std::vector<Bytes> chunks = sender.send(payload);
  ASSERT_GT(chunks.size(), 2u);
  std::vector<Bytes> completed;
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // last chunk lost
    auto got = receiver.receive(chunks[i]);
    ASSERT_TRUE(got.ok());
    for (Bytes& p : *got) completed.push_back(std::move(p));
  }
  // Nothing arrived after the lost tail, so no gap is visible yet.
  EXPECT_FALSE(receiver.has_pending_gaps());
  ASSERT_TRUE(receiver.expect_through(chunks.size() - 1).ok());
  EXPECT_TRUE(receiver.has_pending_gaps());

  const auto nacks = receiver.take_due_nacks();
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0].sequence, chunks.size() - 1);
  auto wire = sender.retransmit(nacks[0].sequence);
  ASSERT_TRUE(wire.ok());
  auto got = receiver.receive(*wire);
  ASSERT_TRUE(got.ok());
  for (Bytes& p : *got) completed.push_back(std::move(p));
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], payload);
}

TEST(TransferRecovery, LossBeyondRetryBudgetIsTypedError) {
  const Bytes key(16, 0x44);
  const Bytes payload = make_payload(2'000);
  SimClock clock;
  SecureTransferSender sender(key, 7, 128);
  SecureTransferReceiver receiver(key, 7, clock, kNackBudget);

  const std::vector<Bytes> chunks = sender.send(payload);
  ASSERT_GT(chunks.size(), 2u);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i == 1) continue;  // chunk 1 is lost forever (no retransmissions)
    ASSERT_TRUE(receiver.receive(chunks[i]).ok());
  }
  EXPECT_TRUE(receiver.has_pending_gaps());

  // Ignore every NACK; the backoff schedule (1,2,4,...,64 ms on the
  // simulated clock) runs dry after max_nacks_per_gap attempts.
  std::uint64_t nacks_seen = 0;
  for (int round = 0; round < 20 && receiver.health().ok(); ++round) {
    nacks_seen += receiver.take_due_nacks().size();
    clock.advance_ns(100'000'000);
  }
  EXPECT_EQ(nacks_seen, kNackBudget);
  ASSERT_FALSE(receiver.health().ok());
  EXPECT_EQ(receiver.health().error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(receiver.recovery_stats().gaps_abandoned, 1u);

  // The stream is dead: further ingest reports the same typed error.
  auto dead = receiver.receive(chunks[1]);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, ErrorCode::kUnavailable);
}

TEST(TransferRecovery, NackBackoffRunsOnSimulatedTime) {
  const Bytes key(16, 0x44);
  SimClock clock;
  SecureTransferSender sender(key, 7, 64);
  SecureTransferReceiver receiver(key, 7, clock, kNackBudget);

  const std::vector<Bytes> chunks = sender.send(make_payload(1'000));
  ASSERT_GT(chunks.size(), 1u);
  ASSERT_TRUE(receiver.receive(chunks.back()).ok());  // reveals the gaps

  // First NACK is due immediately; the next only after 1 ms of
  // *simulated* time — no amount of waiting in wall time changes that.
  // (The ns↔cycle conversion truncates, so probe just inside and
  // comfortably past the deadline rather than at the exact nanosecond.)
  EXPECT_FALSE(receiver.take_due_nacks().empty());
  EXPECT_TRUE(receiver.take_due_nacks().empty());
  clock.advance_ns(990'000);
  EXPECT_TRUE(receiver.take_due_nacks().empty());
  clock.advance_ns(20'000);
  EXPECT_FALSE(receiver.take_due_nacks().empty());
}

}  // namespace
}  // namespace securecloud::bigdata

// -------------------------------------------------------- Event-bus recovery

namespace securecloud::microservice {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;
using crypto::DeterministicEntropy;
using scbr::Event;
using scbr::Filter;
using scbr::Op;
using scbr::Value;

struct BusFixture {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  DeterministicEntropy entropy{31};
  scbr::KeyService keys{attestation, entropy};
  sgx::Enclave* enclave = nullptr;

  BusFixture() {
    platform.provision(attestation);
    sgx::EnclaveImage image;
    image.name = "bus-router";
    image.code = to_bytes("router");
    DeterministicEntropy signer(404);
    sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
    auto created = platform.create_enclave(image);
    EXPECT_TRUE(created.ok());
    enclave = *created;
    keys.authorize_router(enclave->mrenclave());
  }
};

Filter temp_above(std::int64_t threshold) {
  Filter f;
  f.where("temp", Op::kGt, Value::of(threshold));
  return f;
}

/// Publishes three matching events and returns what the subscriber saw.
std::vector<std::int64_t> run_bus(FaultInjector* injector, BusStats* stats_out,
                                  std::size_t max_attempts = 4) {
  BusFixture fx;
  EventBus bus(*fx.enclave, fx.keys);
  bus.set_fault_injector(injector);
  bus.set_max_delivery_attempts(max_attempts);
  auto* sensor = bus.attach("sensor");
  auto* alarm = bus.attach("alarm");
  EXPECT_TRUE(bus.start().ok());

  std::vector<std::int64_t> seen;
  EXPECT_TRUE(bus.subscribe(*alarm, temp_above(30), [&](const Event& e) {
                   seen.push_back(e.find("temp")->as_int());
                 }).ok());
  for (std::int64_t t : {41, 52, 63}) {
    Event e;
    e.set("temp", t);
    EXPECT_TRUE(bus.publish(*sensor, e).ok());
  }
  bus.drain();
  if (stats_out != nullptr) *stats_out = bus.stats();
  return seen;
}

TEST(EventBusRecovery, TransientTamperRedeliveredBitIdentical) {
  const std::vector<std::int64_t> baseline = run_bus(nullptr, nullptr);
  ASSERT_EQ(baseline.size(), 3u);

  FaultInjector inj(101);
  inj.arm(FaultKind::kCorruptMessage, FaultArm{.probability = 1.0, .max_fires = 2});
  BusStats stats;
  std::vector<std::int64_t> faulty = run_bus(&inj, &stats);

  // A redelivery re-enters at the back of the queue, so at-least-once
  // guarantees the same *set* of handler invocations, not their order.
  std::vector<std::int64_t> sorted_baseline = baseline;
  std::sort(sorted_baseline.begin(), sorted_baseline.end());
  std::sort(faulty.begin(), faulty.end());
  EXPECT_EQ(faulty, sorted_baseline);  // every event delivered exactly once
  EXPECT_EQ(stats.tampered, 2u);
  EXPECT_EQ(stats.redeliveries, 2u);
  EXPECT_EQ(stats.dead_lettered, 0u);
}

TEST(EventBusRecovery, PersistentTamperDeadLettersWithTypedReason) {
  BusFixture fx;
  EventBus bus(*fx.enclave, fx.keys);
  FaultInjector inj(102);
  inj.arm(FaultKind::kCorruptMessage, 1.0);  // every attempt tampered
  bus.set_fault_injector(&inj);
  bus.set_max_delivery_attempts(3);
  auto* sensor = bus.attach("sensor");
  auto* alarm = bus.attach("alarm");
  ASSERT_TRUE(bus.start().ok());

  std::size_t invoked = 0;
  ASSERT_TRUE(bus.subscribe(*alarm, temp_above(30),
                            [&](const Event&) { ++invoked; }).ok());
  Event hot;
  hot.set("temp", std::int64_t{99});
  ASSERT_TRUE(bus.publish(*sensor, hot).ok());
  bus.drain();

  EXPECT_EQ(invoked, 0u);
  EXPECT_EQ(bus.stats().tampered, 3u);  // one per attempt
  ASSERT_EQ(bus.dead_letters().size(), 1u);
  const DeadLetter& dlq = bus.dead_letters().front();
  EXPECT_EQ(dlq.reason.code, ErrorCode::kIntegrityViolation);
  EXPECT_EQ(dlq.subscriber, "alarm");
  EXPECT_EQ(dlq.attempts, 3u);
  EXPECT_FALSE(dlq.wire.empty());  // pristine wire retained for replay
}

TEST(EventBusRecovery, DroppedDeliveryRedelivered) {
  FaultInjector inj(103);
  inj.arm(FaultKind::kDropMessage, FaultArm{.probability = 1.0, .max_fires = 1});
  BusStats stats;
  std::vector<std::int64_t> seen = run_bus(&inj, &stats);
  std::sort(seen.begin(), seen.end());  // redelivery reorders, never loses
  EXPECT_EQ(seen, (std::vector<std::int64_t>{41, 52, 63}));
  EXPECT_EQ(stats.dropped_in_transit, 1u);
  EXPECT_EQ(stats.redeliveries, 1u);
  EXPECT_EQ(stats.dead_lettered, 0u);
}

TEST(EventBusRecovery, HostDuplicatedDeliverySuppressed) {
  FaultInjector inj(104);
  inj.arm(FaultKind::kDuplicateMessage, 1.0);
  BusStats stats;
  const std::vector<std::int64_t> seen = run_bus(&inj, &stats);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{41, 52, 63}));  // no double dispatch
  EXPECT_EQ(stats.duplicates_suppressed, 3u);
}

TEST(EventBusRecovery, DetachedSubscriberDeadLettered) {
  BusFixture fx;
  EventBus bus(*fx.enclave, fx.keys);
  auto* sensor = bus.attach("sensor");
  auto* alarm = bus.attach("alarm");
  ASSERT_TRUE(bus.start().ok());
  ASSERT_TRUE(bus.subscribe(*alarm, temp_above(30), [](const Event&) {}).ok());

  Event hot;
  hot.set("temp", std::int64_t{77});
  ASSERT_TRUE(bus.publish(*sensor, hot).ok());
  ASSERT_TRUE(bus.detach("alarm").ok());  // crash between publish and drain
  bus.drain();

  EXPECT_EQ(bus.delivered(), 0u);
  EXPECT_EQ(bus.stats().detached_drops, 1u);
  ASSERT_EQ(bus.dead_letters().size(), 1u);
  EXPECT_EQ(bus.dead_letters().front().reason.code, ErrorCode::kNotFound);
}

}  // namespace
}  // namespace securecloud::microservice

// ----------------------------------------------- GenPack failure rescheduling

namespace securecloud::genpack {
namespace {

ContainerSpec service(const std::string& id, double cpu, double mem,
                      std::uint64_t arrival, std::uint64_t duration) {
  ContainerSpec c;
  c.id = id;
  c.cls = ContainerClass::kService;
  c.cpu_cores = cpu;
  c.mem_gb = mem;
  c.arrival_s = arrival;
  c.duration_s = duration;
  return c;
}

TEST(GenpackRecovery, FailedServerWorkloadsRescheduled) {
  // 6 services of 4 cores on 4×16-core servers: best-fit packs the first
  // four onto server 0 (fullest-that-fits), the rest onto server 1.
  std::vector<ContainerSpec> trace;
  for (int i = 0; i < 6; ++i) {
    trace.push_back(service("svc-" + std::to_string(i), 4.0, 8.0, 0, 7200));
  }
  ClusterSimulator sim(4);
  BestFitScheduler scheduler;
  const SimReport report = sim.run(trace, scheduler, 300, {{.at_s = 600, .server = 0}});

  EXPECT_EQ(report.placed, 6u);
  EXPECT_EQ(report.server_failures, 1u);
  EXPECT_EQ(report.rescheduled_on_failure, 4u);
  EXPECT_EQ(report.lost_on_failure, 0u);
  EXPECT_TRUE(sim.servers()[0].failed());
  EXPECT_EQ(sim.servers()[0].container_count(), 0u);
}

TEST(GenpackRecovery, GenPackReschedulesAcrossGenerations) {
  std::vector<ContainerSpec> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back(service("svc-" + std::to_string(i), 2.0, 4.0, 0, 7200));
  }
  ClusterSimulator sim(6);
  GenPackScheduler scheduler(6);
  // Fail the nursery while the containers are still inside their
  // monitoring window (before the t=900 promotion sweep empties it).
  const SimReport report = sim.run(trace, scheduler, 300, {{.at_s = 400, .server = 0}});

  EXPECT_EQ(report.server_failures, 1u);
  // The nursery is gone, so place() overflows onto the young/old servers:
  // every evacuated container is rescheduled, none lost.
  EXPECT_EQ(report.rescheduled_on_failure, 8u);
  EXPECT_EQ(report.lost_on_failure, 0u);
  EXPECT_TRUE(sim.servers()[0].failed());
  EXPECT_EQ(sim.servers()[0].container_count(), 0u);
}

TEST(GenpackRecovery, UnplaceableWorkloadsCountedAsLost) {
  // A single server: when it fails there is nowhere to go.
  std::vector<ContainerSpec> trace = {service("a", 8.0, 16.0, 0, 7200),
                                      service("b", 8.0, 16.0, 0, 7200)};
  ClusterSimulator sim(1);
  BestFitScheduler scheduler;
  const SimReport report = sim.run(trace, scheduler, 300, {{.at_s = 100, .server = 0}});

  EXPECT_EQ(report.placed, 2u);
  EXPECT_EQ(report.server_failures, 1u);
  EXPECT_EQ(report.rescheduled_on_failure, 0u);
  EXPECT_EQ(report.lost_on_failure, 2u);  // typed loss, never silent
}

TEST(GenpackRecovery, RepeatedFailureOfSameServerCountsOnce) {
  std::vector<ContainerSpec> trace = {service("a", 4.0, 8.0, 0, 7200)};
  ClusterSimulator sim(2);
  BestFitScheduler scheduler;
  const SimReport report = sim.run(
      trace, scheduler, 300, {{.at_s = 100, .server = 0}, {.at_s = 200, .server = 0}});
  EXPECT_EQ(report.server_failures, 1u);  // already-dead server: no double count
}

}  // namespace
}  // namespace securecloud::genpack

// ----------------------------------------------- Container restart policies

namespace securecloud::container {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;
using crypto::DeterministicEntropy;

struct PlainFixture {
  Registry registry;
  ContainerMonitor monitor;
  ContainerEngine engine{registry, monitor};

  std::string push_plain_image(const std::string& name) {
    Layer layer;
    layer.files["/data/input"] = to_bytes("42");
    ImageManifest manifest;
    manifest.name = name;
    manifest.layer_digests.push_back(registry.push_layer(layer));
    EXPECT_TRUE(registry.push_manifest(manifest).ok());
    return manifest.reference();
  }
};

Result<Bytes> echo_entry(scone::UntrustedFileSystem& fs) {
  auto in = fs.read_file("/data/input");
  if (!in.ok()) return in.error();
  return to_bytes("got:" + securecloud::to_string(*in));
}

TEST(ContainerRestart, HostKillRecoveredByOnFailurePolicy) {
  PlainFixture fx;
  auto container = fx.engine.create(fx.push_plain_image("svc"));
  ASSERT_TRUE(container.ok());

  FaultInjector inj(201);
  inj.arm(FaultKind::kKillContainer, FaultArm{.probability = 1.0, .max_fires = 2});
  fx.engine.set_fault_injector(&inj);

  auto result = fx.engine.run_with_restarts(
      **container, echo_entry,
      RestartSpec{.policy = RestartPolicy::kOnFailure, .max_restarts = 3});
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(securecloud::to_string(*result), "got:42");  // same output as no-fault
  EXPECT_EQ((*container)->state(), ContainerState::kExited);
  EXPECT_EQ(fx.engine.restart_count((*container)->id()), 2u);
}

TEST(ContainerRestart, NeverPolicySurfacesTypedError) {
  PlainFixture fx;
  auto container = fx.engine.create(fx.push_plain_image("svc"));
  ASSERT_TRUE(container.ok());

  FaultInjector inj(202);
  inj.arm(FaultKind::kKillContainer, FaultArm{.probability = 1.0, .max_fires = 1});
  fx.engine.set_fault_injector(&inj);

  auto result = fx.engine.run_with_restarts(**container, echo_entry,
                                            RestartSpec{.policy = RestartPolicy::kNever});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ((*container)->state(), ContainerState::kFailed);
  EXPECT_EQ(fx.engine.restart_count((*container)->id()), 0u);
}

TEST(ContainerRestart, RestartBudgetIsBounded) {
  PlainFixture fx;
  auto container = fx.engine.create(fx.push_plain_image("svc"));
  ASSERT_TRUE(container.ok());

  FaultInjector inj(203);
  inj.arm(FaultKind::kKillContainer, 1.0);  // the host kills every attempt
  fx.engine.set_fault_injector(&inj);

  auto result = fx.engine.run_with_restarts(
      **container, echo_entry,
      RestartSpec{.policy = RestartPolicy::kAlways, .max_restarts = 2});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(fx.engine.restart_count((*container)->id()), 2u);  // 1 run + 2 retries
}

struct SecureFixture {
  Registry registry;
  ContainerMonitor monitor;
  ContainerEngine engine{registry, monitor};
  sgx::Platform platform;
  sgx::AttestationService attestation;
  DeterministicEntropy entropy{99};
  DeterministicEntropy signer_entropy{1234};
  crypto::Ed25519KeyPair signer = crypto::ed25519_keypair(signer_entropy.array<32>());
  SconeClient client{registry, entropy, signer};
  scone::ConfigurationService config{attestation, entropy};

  SecureFixture() { platform.provision(attestation); }

  SecureImageSpec spec(const std::string& name) {
    SecureImageSpec s;
    s.name = name;
    s.app_code = to_bytes("static-binary-of-" + name);
    s.protected_files["/secrets/api-key"] = to_bytes("hunter2-api-key");
    s.args = {"--serve"};
    s.env = {{"MODE", "prod"}};
    return s;
  }
};

TEST(ContainerRestart, EnclaveKillRecoveredWithFreshAttestation) {
  SecureFixture fx;
  ASSERT_TRUE(fx.client.build_secure_image(fx.spec("svc"), fx.config).ok());
  const auto app = [](scone::AppContext& ctx) -> Result<Bytes> {
    auto key = ctx.fs.read_all("/secrets/api-key");
    if (!key.ok()) return key.error();
    return to_bytes("served:" + securecloud::to_string(*key));
  };

  // No-fault reference run.
  auto baseline_container = fx.engine.create("svc:latest");
  ASSERT_TRUE(baseline_container.ok());
  auto baseline = fx.engine.run_secure(**baseline_container, fx.platform, fx.config, app);
  ASSERT_TRUE(baseline.ok()) << baseline.error().message;

  // Faulty run: the host destroys the first enclave; the restart policy
  // re-creates and re-attests, converging to the identical output.
  FaultInjector inj(204);
  inj.arm(FaultKind::kKillEnclave, FaultArm{.probability = 1.0, .max_fires = 1});
  fx.engine.set_fault_injector(&inj);
  auto container = fx.engine.create("svc:latest");
  ASSERT_TRUE(container.ok());
  auto outcome = fx.engine.run_secure_with_restarts(
      **container, fx.platform, fx.config, app,
      RestartSpec{.policy = RestartPolicy::kOnFailure, .max_restarts = 3});
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome->app_result, baseline->app_result);  // bit-identical
  EXPECT_EQ(fx.engine.restart_count((*container)->id()), 1u);

  // Without a restart policy the kill is a typed error, never silent.
  FaultInjector inj2(205);
  inj2.arm(FaultKind::kKillEnclave, FaultArm{.probability = 1.0, .max_fires = 1});
  fx.engine.set_fault_injector(&inj2);
  auto doomed = fx.engine.create("svc:latest");
  ASSERT_TRUE(doomed.ok());
  auto dead = fx.engine.run_secure(**doomed, fx.platform, fx.config, app);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ((*doomed)->state(), ContainerState::kFailed);
}

}  // namespace
}  // namespace securecloud::container

// --------------------------------------------------------------- EPC pressure

namespace securecloud::sgx {
namespace {

using common::FaultInjector;
using common::FaultKind;

TEST(EpcPressure, SpikeRaisesCostButNotOutput) {
  CostModel cost;
  cost.epc_size_bytes = 16 * 4096;
  cost.epc_metadata_bytes = 0;

  // A toy enclave workload: stream over an 8-page working set computing a
  // checksum. The checksum depends only on the data — EPC residency can
  // change *when* pages fault, never *what* the program computes.
  const auto run = [&](FaultInjector* inj) {
    SimClock clock;
    EpcManager epc(cost, clock);
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < 4'000; ++i) {
      epc.touch((i % 8) * cost.page_size);
      checksum = checksum * 1315423911u + i;
      if (inj != nullptr && inj->should_fire(FaultKind::kEpcPressure)) {
        // Another tenant's enclave suddenly hammers the EPC: its pages
        // evict ours, so our next touches fault again.
        for (std::uint64_t p = 0; p < 16; ++p) {
          epc.touch((1'000 + p) * cost.page_size);
        }
      }
    }
    return std::tuple(checksum, clock.cycles(), epc.stats().faults);
  };

  const auto [base_sum, base_cycles, base_faults] = run(nullptr);

  FaultInjector inj(301);
  inj.arm(FaultKind::kEpcPressure, 0.02);
  const auto [sum, cycles, faults] = run(&inj);

  ASSERT_GT(inj.fired(FaultKind::kEpcPressure), 0u);
  EXPECT_EQ(sum, base_sum);          // output unchanged
  EXPECT_GT(cycles, base_cycles);    // cost visibly higher
  EXPECT_GT(faults, base_faults);    // and attributed to EPC faults
}

}  // namespace
}  // namespace securecloud::sgx
