// Literal pins on the cluster set-up of the three fabric-hosted apps.
//
// Every other test compares one run against another (1 vs 8 threads,
// faulted vs fault-free). These compare against constants: the fabric
// clock and FabricStats right after setup(), and the app's own end-of-run
// figures after one fault-free run. A reordered handshake, a changed
// platform_id or entropy seed (both feed every quote), an extra setup
// message, or one more byte in a sealed first record moves at least one
// of them.
#include <gtest/gtest.h>

#include <sstream>

#include "bigdata/distributed_mapreduce.hpp"
#include "bigdata/enclave_cluster.hpp"
#include "crypto/sha256.hpp"
#include "net/fabric.hpp"
#include "scbr/fabric_overlay.hpp"
#include "streams/pipeline.hpp"

namespace securecloud {
namespace {

std::string describe(const net::FabricStats& s) {
  std::ostringstream out;
  out << "sent=" << s.messages_sent << " delivered=" << s.messages_delivered
      << " dropped=" << s.messages_dropped << " unhandled=" << s.messages_unhandled
      << " frames=" << s.frames_sent << " frames_dropped=" << s.frames_dropped
      << " dup=" << s.frames_duplicated << " reordered=" << s.frames_reordered
      << " bytes=" << s.bytes_sent << " bytes_delivered=" << s.bytes_delivered
      << " timers=" << s.timers_fired;
  return out.str();
}

/// Digest of the fabric's delivery log: who sent how many bytes to whom,
/// on which channel, at which cycle, in delivery order. The trace id is
/// left out — it is the one field the obs mode is allowed to change.
std::string delivery_digest(const net::Fabric& fabric) {
  Bytes wire;
  for (const obs::LinkDelivery& d : fabric.deliveries()) {
    put_u32(wire, d.src);
    put_u32(wire, d.dst);
    put_u32(wire, d.channel);
    put_u64(wire, d.bytes);
    put_u64(wire, d.send_cycles);
    put_u64(wire, d.deliver_cycles);
  }
  const crypto::Sha256Digest digest = crypto::Sha256::hash(wire);
  return hex_encode(ByteView(digest.data(), 8));
}

// --- SecureStreams: source -> map -> sink -----------------------------------

struct PipelinePin {
  std::uint64_t setup_now_ns = 0;
  std::string setup_stats;
  std::string setup_log;
  std::uint64_t wall_ns = 0;
  std::uint64_t run_now_ns = 0;
  std::string run_stats;
  std::string run_log;
  double sunk = 0;
};

PipelinePin run_pipeline(bool shared_registry) {
  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  sgx::AttestationService service;
  std::vector<streams::Record> input;
  for (std::uint64_t i = 0; i < 200; ++i) {
    streams::Record r;
    r.key = "k" + std::to_string(i % 5);
    r.timestamp_s = i;
    r.value = static_cast<double>(i);
    input.push_back(std::move(r));
  }
  std::size_t next = 0;
  PipelinePin pin;
  auto stages =
      streams::PipelineBuilder()
          .source("gen",
                  [&]() -> std::optional<streams::Record> {
                    if (next == input.size()) return std::nullopt;
                    return input[next++];
                  })
          .map("double",
               [](const streams::Record& r) {
                 streams::Record out = r;
                 out.value *= 2;
                 return out;
               })
          .sink("sum", [&](const streams::Record& r, std::uint64_t) { pin.sunk += r.value; })
          .build();
  EXPECT_TRUE(stages.ok());
  streams::PipelineConfig config;
  config.credit_window = 16;
  config.grant_batch = 4;
  config.batch_size = 8;
  streams::Pipeline pipeline(fabric, std::move(*stages), config);
  obs::Registry registry;
  if (shared_registry) pipeline.set_obs(&registry);
  EXPECT_TRUE(pipeline.setup(service).ok());
  pin.setup_now_ns = fabric.now_ns();
  pin.setup_stats = describe(fabric.stats());
  pin.setup_log = delivery_digest(fabric);
  EXPECT_TRUE(pipeline.run().ok());
  pin.wall_ns = pipeline.stats().wall_ns;
  pin.run_now_ns = fabric.now_ns();
  pin.run_stats = describe(fabric.stats());
  pin.run_log = delivery_digest(fabric);
  return pin;
}

// Both obs modes put the same bytes on the wire: trace contexts ride the
// frame envelope and never change a frame's size.
void expect_pipeline_pins(const PipelinePin& pin) {
  EXPECT_EQ(pin.setup_now_ns, 6400136u);
  EXPECT_EQ(pin.setup_stats,
            "sent=8 delivered=8 dropped=0 unhandled=0 frames=8 frames_dropped=0 "
            "dup=0 reordered=0 bytes=1302 bytes_delivered=1302 timers=4");
  EXPECT_EQ(pin.wall_ns, 3208332u);
  EXPECT_EQ(pin.run_now_ns, 9608468u);
  EXPECT_EQ(pin.run_stats,
            "sent=258 delivered=258 dropped=0 unhandled=0 frames=258 frames_dropped=0 "
            "dup=0 reordered=0 bytes=24086 bytes_delivered=24086 timers=98");
  EXPECT_DOUBLE_EQ(pin.sunk, 39800.0);
  EXPECT_EQ(pin.setup_log, "0b427602d9845c8d");
  EXPECT_EQ(pin.run_log, "83edee502559b1a0");
}

TEST(ClusterPin, PipelinePerNode) { expect_pipeline_pins(run_pipeline(false)); }

TEST(ClusterPin, PipelineSharedRegistry) { expect_pipeline_pins(run_pipeline(true)); }

// --- SCBR overlay: the six-broker tree ---------------------------------------

scbr::Filter range_filter(const std::string& attr, std::int64_t lo, std::int64_t hi) {
  scbr::Filter f;
  f.where(attr, scbr::Op::kGe, scbr::Value::of(lo))
      .where(attr, scbr::Op::kLe, scbr::Value::of(hi));
  return f;
}

scbr::Event point_event(const std::string& attr, std::int64_t v) {
  scbr::Event e;
  e.set(attr, v);
  return e;
}

struct OverlayPin {
  std::uint64_t setup_now_ns = 0;
  std::string setup_stats;
  std::string setup_log;
  std::string overlay_stats;
  std::string deliveries;
  std::uint64_t run_now_ns = 0;
  std::string run_stats;
  std::string run_log;
};

OverlayPin run_overlay(bool shared_registry) {
  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  sgx::AttestationService service;
  scbr::FabricOverlayConfig config;
  config.broker_count = 6;
  config.links = {{0, 1}, {0, 4}, {1, 2}, {1, 3}, {3, 5}};
  scbr::FabricOverlay overlay(fabric, config);
  obs::Registry registry;
  if (shared_registry) overlay.set_obs(&registry);
  EXPECT_TRUE(overlay.setup(service).ok());
  OverlayPin pin;
  pin.setup_now_ns = fabric.now_ns();
  pin.setup_stats = describe(fabric.stats());
  pin.setup_log = delivery_digest(fabric);

  EXPECT_TRUE(overlay.subscribe(5, 1, range_filter("temp", 30, 100)).ok());
  EXPECT_TRUE(overlay.subscribe(2, 2, range_filter("temp", 0, 50)).ok());
  EXPECT_TRUE(overlay.subscribe(4, 3, range_filter("temp", 40, 45)).ok());
  overlay.drain();
  EXPECT_TRUE(overlay.publish(4, point_event("temp", 42)).ok());
  EXPECT_TRUE(overlay.publish(0, point_event("temp", 10)).ok());
  EXPECT_TRUE(overlay.publish(5, point_event("temp", 99)).ok());
  overlay.drain();

  const scbr::OverlayStats& s = overlay.stats();
  std::ostringstream stats;
  stats << "forwarded=" << s.subscriptions_forwarded
        << " suppressed=" << s.subscriptions_suppressed << " prunes=" << s.table_prunes
        << " hops=" << s.publication_hops << " deliveries=" << s.deliveries;
  pin.overlay_stats = stats.str();
  std::ostringstream deliveries;
  for (const auto& [publication, set] : overlay.deliveries()) {
    deliveries << publication << ":";
    for (const auto& [broker, id] : set) deliveries << " " << broker << "/" << id;
    deliveries << ";";
  }
  pin.deliveries = deliveries.str();
  pin.run_now_ns = fabric.now_ns();
  pin.run_stats = describe(fabric.stats());
  pin.run_log = delivery_digest(fabric);
  return pin;
}

void expect_overlay_pins(const OverlayPin& pin) {
  EXPECT_EQ(pin.setup_now_ns, 16000340u);
  EXPECT_EQ(pin.setup_stats,
            "sent=20 delivered=20 dropped=0 unhandled=0 frames=20 frames_dropped=0 "
            "dup=0 reordered=0 bytes=3230 bytes_delivered=3230 timers=10");
  EXPECT_EQ(pin.overlay_stats, "forwarded=12 suppressed=2 prunes=0 hops=7 deliveries=5");
  EXPECT_EQ(pin.deliveries, "0: 2/2 4/3 5/1;1: 2/2;2: 5/1;");
  EXPECT_EQ(pin.run_now_ns, 17400703u);
  EXPECT_EQ(pin.run_stats,
            "sent=58 delivered=58 dropped=0 unhandled=0 frames=58 frames_dropped=0 "
            "dup=0 reordered=0 bytes=5700 bytes_delivered=5700 timers=20");
  EXPECT_EQ(pin.setup_log, "ad14f2641a416b57");
  EXPECT_EQ(pin.run_log, "0129f25bf20bbd05");
}

TEST(ClusterPin, OverlayPerNode) { expect_overlay_pins(run_overlay(false)); }

TEST(ClusterPin, OverlaySharedRegistry) { expect_overlay_pins(run_overlay(true)); }

// --- Distributed MapReduce: coordinator + four workers -----------------------

struct DmrPin {
  std::uint64_t setup_now_ns = 0;
  std::string setup_stats;
  std::string setup_log;
  /// The job key is minted from the coordinator's entropy stream, so the
  /// sealed input pins the coordinator's seed and the mint order.
  std::string sealed_input;
  std::uint64_t simulated_cycles = 0;
  std::string output;
  std::string job_stats;
  std::uint64_t run_now_ns = 0;
  std::string run_stats;
  std::string run_log;
};

DmrPin run_dmr(bool cluster_obs) {
  SimClock clock;
  net::Fabric fabric(clock);
  fabric.enable_delivery_log();
  sgx::AttestationService service;
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 5;
  config.enable_combiner = true;
  bigdata::DistributedMapReduce driver(fabric, config);
  if (cluster_obs) driver.enable_cluster_obs();
  EXPECT_TRUE(driver.setup(service).ok());
  DmrPin pin;
  pin.setup_now_ns = fabric.now_ns();
  pin.setup_stats = describe(fabric.stats());
  pin.setup_log = delivery_digest(fabric);

  const std::vector<std::vector<std::string>> raw = {
      {"a secure cloud", "runs big data"},
      {"in enclaves a cloud", "cannot read"},
      {"data stays sealed", "a b c"},
      {"big big data"},
      {"the host is untrusted", "the data is not"},
  };
  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& lines : raw) {
    std::vector<Bytes> records;
    for (const std::string& line : lines) records.push_back(to_bytes(line));
    encrypted.push_back(driver.encrypt_partition(records));
  }
  crypto::Sha256 sealed;
  for (const auto& partition : encrypted) {
    for (const Bytes& record : partition) sealed.update(record);
  }
  const crypto::Sha256Digest sealed_digest = sealed.finish();
  pin.sealed_input = hex_encode(ByteView(sealed_digest.data(), 8));
  auto map_fn = [](ByteView record) {
    std::vector<bigdata::KeyValue> out;
    std::istringstream in(std::string(record.begin(), record.end()));
    std::string word;
    while (in >> word) out.push_back({word, 1.0});
    return out;
  };
  auto reduce_fn = [](const std::string&, const std::vector<double>& values) {
    double total = 0;
    for (double v : values) total += v;
    return total;
  };
  auto job = driver.run(encrypted, map_fn, reduce_fn);
  EXPECT_TRUE(job.ok());
  if (!job.ok()) return pin;
  pin.simulated_cycles = job->stats.simulated_cycles;
  std::ostringstream output;
  for (const auto& [word, count] : job->output) output << word << "=" << count << " ";
  pin.output = output.str();
  std::ostringstream stats;
  stats << "records=" << job->stats.input_records
        << " pairs=" << job->stats.intermediate_pairs
        << " shuffle=" << job->stats.shuffle_bytes
        << " transitions=" << job->stats.enclave_transitions;
  pin.job_stats = stats.str();
  pin.run_now_ns = fabric.now_ns();
  pin.run_stats = describe(fabric.stats());
  pin.run_log = delivery_digest(fabric);
  return pin;
}

void expect_dmr_pins(const DmrPin& pin) {
  EXPECT_EQ(pin.setup_now_ns, 12800492u);
  EXPECT_EQ(pin.setup_stats,
            "sent=16 delivered=16 dropped=0 unhandled=0 frames=16 frames_dropped=0 "
            "dup=0 reordered=0 bytes=2872 bytes_delivered=2872 timers=8");
  EXPECT_EQ(pin.simulated_cycles, 1768549u);
  EXPECT_EQ(pin.output,
            "a=3 b=1 big=3 c=1 cannot=1 cloud=2 data=4 enclaves=1 host=1 in=1 is=2 "
            "not=1 read=1 runs=1 sealed=1 secure=1 stays=1 the=2 untrusted=1 ");
  EXPECT_EQ(pin.job_stats, "records=9 pairs=29 shuffle=793 transitions=8");
  EXPECT_EQ(pin.run_now_ns, 13480713u);
  EXPECT_EQ(pin.run_stats,
            "sent=68 delivered=68 dropped=0 unhandled=0 frames=68 frames_dropped=0 "
            "dup=0 reordered=0 bytes=7340 bytes_delivered=7340 timers=21");
  EXPECT_EQ(pin.setup_log, "130196260daa7784");
  EXPECT_EQ(pin.run_log, "f3cc18bb1e3e8c18");
  EXPECT_EQ(pin.sealed_input, "7f3edb8dcf788dbc");
}

TEST(ClusterPin, DistributedMapReduceSharedRegistry) { expect_dmr_pins(run_dmr(false)); }

TEST(ClusterPin, DistributedMapReducePerNode) { expect_dmr_pins(run_dmr(true)); }

// --- the runtime itself ----------------------------------------------------

/// A three-node chain 0 -> 1 -> 2 whose nodes accept a first record iff
/// its layout is non-empty.
struct ChainRig {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  bigdata::EnclaveCluster cluster{fabric, {}, 16};

  Status build(Bytes layout) {
    for (std::size_t i = 0; i < 3; ++i) {
      cluster.add_node("n" + std::to_string(i), "platform-n" + std::to_string(i), 40 + i);
    }
    SC_RETURN_IF_ERROR(cluster.connect(0, 1));
    SC_RETURN_IF_ERROR(cluster.connect(1, 2));
    SC_RETURN_IF_ERROR(cluster.boot(service));
    return cluster.attest(
        {{0, 1, layout}, {1, 2, layout}},
        [](std::size_t, net::NodeId, Bytes, obs::TraceContext) {},
        [](std::size_t, ByteView received) { return !received.empty(); });
  }
};

TEST(EnclaveCluster, PerNodeModeGivesEveryNodeItsOwnBundle) {
  ChainRig rig;
  ASSERT_TRUE(rig.build(to_bytes("key")).ok());
  EXPECT_TRUE(rig.cluster.per_node());
  EXPECT_TRUE(rig.cluster.health().ok());
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_NE(rig.cluster.node_obs(i), nullptr);
    EXPECT_EQ(rig.cluster.registry(i), &rig.cluster.node_obs(i)->registry);
    EXPECT_EQ(rig.cluster.flight(i), &rig.cluster.node_obs(i)->flight);
    EXPECT_EQ(rig.cluster.index_of(rig.cluster.node_id(i)), i);
  }
  // Both ends of each edge exist and point at each other.
  EXPECT_NE(rig.cluster.session(0, 1), nullptr);
  EXPECT_NE(rig.cluster.session(1, 0), nullptr);
  EXPECT_EQ(rig.cluster.session(0, 2), nullptr);
  auto snapshot = rig.cluster.snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->nodes.size(), 3u);
  // The EPC reports into the node's own registry.
  EXPECT_EQ(snapshot->nodes[0].metrics.counters.count("sgx_epc_accesses_total"), 1u);
}

TEST(EnclaveCluster, SharedModeWiresOneRegistryAndNoBundles) {
  ChainRig rig;
  obs::Registry shared;
  rig.cluster.share_registry(&shared);
  ASSERT_TRUE(rig.build(to_bytes("key")).ok());
  EXPECT_FALSE(rig.cluster.per_node());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.cluster.node_obs(i), nullptr);
    EXPECT_EQ(rig.cluster.registry(i), &shared);
    EXPECT_EQ(rig.cluster.flight(i), nullptr);
    EXPECT_EQ(rig.cluster.tracer(i), nullptr);
  }
  EXPECT_EQ(shared.snapshot().counters.at("net_sessions_established_total"), 4u);
  auto snapshot = rig.cluster.snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.error().code, ErrorCode::kProtocolError);
}

TEST(EnclaveCluster, RefusedFirstRecordStopsTheEdgeWalk) {
  ChainRig rig;
  Status status = rig.build(Bytes{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kProtocolError);
  // The walk stopped at the first edge: the second was never attested.
  EXPECT_EQ(rig.cluster.session(1, 2), nullptr);
}

}  // namespace
}  // namespace securecloud
