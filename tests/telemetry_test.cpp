// Telemetry plane (obs v3) tests: time-series rollup rings, the
// delta-encoded frame codec (round trip + hardening fuzz), sampler
// delta semantics, monitor sequencing and alert dedup, histogram
// quantiles, the chaos determinism contract (timeline + alerts
// bit-identical at 1 vs 8 threads under armed loss/reorder), the
// straggler-drift acceptance scenario with its live postmortem pull,
// streams-pipeline emission, and a TSan hammer over the concurrent
// sampling surface.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "bigdata/distributed_mapreduce.hpp"
#include "crypto/sha256.hpp"
#include "net/fabric.hpp"
#include "obs/anomaly.hpp"
#include "obs/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "sgx/attestation.hpp"
#include "streams/pipeline.hpp"

namespace securecloud::obs {
namespace {

using common::FaultArm;
using common::FaultInjector;
using common::FaultKind;

// ------------------------------------------------------------ time series

TEST(TimeSeries, RollsObservationsIntoTumblingWindows) {
  TimeSeries ts(100, 8);
  ts.observe(10, 5);
  ts.observe(20, -3);
  ts.observe(99, 7);   // same window
  ts.observe(150, 2);  // next window
  ASSERT_EQ(ts.windows().size(), 2u);

  const RollupWindow& w0 = ts.windows()[0];
  EXPECT_EQ(w0.start_cycles, 0u);
  EXPECT_EQ(w0.min, -3);
  EXPECT_EQ(w0.max, 7);
  EXPECT_EQ(w0.sum, 9);
  EXPECT_EQ(w0.last, 7);
  EXPECT_EQ(w0.count, 3u);

  const RollupWindow& w1 = ts.windows()[1];
  EXPECT_EQ(w1.start_cycles, 100u);
  EXPECT_EQ(w1.count, 1u);
  EXPECT_EQ(w1.last, 2);
}

TEST(TimeSeries, EvictsFrontWindowsPastCapacity) {
  TimeSeries ts(10, 3);
  for (std::uint64_t i = 0; i < 6; ++i) ts.observe(i * 10, static_cast<std::int64_t>(i));
  EXPECT_EQ(ts.windows().size(), 3u);
  EXPECT_EQ(ts.evicted(), 3u);
  // The survivors are the newest three windows.
  EXPECT_EQ(ts.windows().front().start_cycles, 30u);
  EXPECT_EQ(ts.windows().back().start_cycles, 50u);
}

TEST(TimeSeries, EarlierStampFoldsIntoOpenWindow) {
  TimeSeries ts(100, 4);
  ts.observe(250, 1);
  ts.observe(120, 9);  // older than the open window: folds, never rewrites
  ASSERT_EQ(ts.windows().size(), 1u);
  EXPECT_EQ(ts.windows()[0].count, 2u);
  EXPECT_EQ(ts.windows()[0].max, 9);
}

TEST(TimeSeries, ZeroParamsClampToOne) {
  TimeSeries ts(0, 0);
  EXPECT_EQ(ts.window_cycles(), 1u);
  EXPECT_EQ(ts.capacity(), 1u);
  ts.observe(0, 1);
  ts.observe(1, 2);
  EXPECT_EQ(ts.windows().size(), 1u);
  EXPECT_EQ(ts.evicted(), 1u);
}

// ------------------------------------------------------ histogram quantile

TEST(HistogramQuantile, EmptyAndClampedInputs) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.observe(0);
  EXPECT_EQ(h.quantile(-1.0), 0.0);
  EXPECT_EQ(h.quantile(2.0), 0.0);  // all mass in bucket 0 => 0
}

TEST(HistogramQuantile, InterpolatesWithinLogBuckets) {
  Histogram h;
  // 100 observations of exactly 1000: all land in one bucket
  // [512, 1024), so every quantile interpolates inside it.
  for (int i = 0; i < 100; ++i) h.observe(1000);
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_LE(h.quantile(0.5), 1024.0);
  EXPECT_LE(h.quantile(0.01), h.quantile(0.99));

  // Bimodal: half tiny, half huge — the median straddles the low mode
  // and p99 must land in the high mode's bucket.
  Histogram bi;
  for (int i = 0; i < 50; ++i) bi.observe(1);
  for (int i = 0; i < 50; ++i) bi.observe(1 << 20);
  EXPECT_LT(bi.quantile(0.25), 2.0);
  EXPECT_GE(bi.quantile(0.99), static_cast<double>(1 << 19));
}

TEST(HistogramQuantile, MatchesBucketUpperBoundAtP100) {
  Histogram h;
  h.observe(3);  // bucket [2,4)
  const double p100 = h.quantile(1.0);
  EXPECT_GE(p100, 2.0);
  EXPECT_LE(p100, 4.0);
}

// ------------------------------------------------------------ frame codec

TelemetryFrame sample_frame() {
  TelemetryFrame f;
  f.node = "worker-3";
  f.seq = 12;
  f.at_cycles = 987654;
  f.counters["net_flow_payloads_delivered_total"] = 41;
  f.counters["dist_worker_tasks_done_total"] = 2;
  f.gauges["net_flow_chunks_in_flight"] = 7;
  f.gauges["trace_active_spans"] = -1;
  return f;
}

TEST(TelemetryCodec, FrameRoundTrips) {
  const TelemetryFrame f = sample_frame();
  auto back = deserialize_telemetry_frame(serialize_telemetry_frame(f));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(*back, f);
}

TEST(TelemetryCodec, EveryPrefixIsATypedError) {
  const Bytes wire = serialize_telemetry_frame(sample_frame());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(len));
    auto r = deserialize_telemetry_frame(prefix);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
  // Trailing garbage is also rejected: the frame is exactly delimited.
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(deserialize_telemetry_frame(trailing).ok());
}

TEST(TelemetryCodec, ByteFlipsNeverCrash) {
  const Bytes wire = serialize_telemetry_frame(sample_frame());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80},
                              std::uint8_t{0xFF}}) {
      Bytes mutated = wire;
      mutated[i] ^= flip;
      // A flip in a string body can be a valid alternate encoding; a
      // flip in a length or count must be a typed error. Either way:
      // total function, no UB, no unbounded allocation.
      auto r = deserialize_telemetry_frame(mutated);
      if (!r.ok()) {
        EXPECT_FALSE(r.error().message.empty());
      }
    }
  }
}

// --------------------------------------------------------------- sampler

TEST(TelemetrySampler, FirstFrameIsFullThenDeltas) {
  SimClock clock;
  NodeObs node("n0", clock, 1);
  node.registry.counter("a_total").inc(5);
  (void)node.registry.counter("idle_total");  // interned, never bumped
  node.registry.gauge("g").set(3);

  TelemetrySampler sampler(&node);
  const TelemetryFrame f0 = sampler.sample(100);
  EXPECT_EQ(f0.seq, 0u);
  // Frame 0 ships everything, zeros included, so the monitor learns the
  // node's full metric set up front.
  EXPECT_EQ(f0.counters.at("a_total"), 5u);
  EXPECT_EQ(f0.counters.at("idle_total"), 0u);
  EXPECT_EQ(f0.gauges.at("g"), 3);
  // Synthesized gauges always ride along.
  EXPECT_TRUE(f0.gauges.count("trace_active_spans"));
  EXPECT_TRUE(f0.gauges.count("obs_flight_events"));

  // Nothing moved: the next frame is just a header.
  const TelemetryFrame f1 = sampler.sample(200);
  EXPECT_EQ(f1.seq, 1u);
  EXPECT_TRUE(f1.counters.empty());
  EXPECT_TRUE(f1.gauges.empty());

  // Only the moved counter ships, as a delta.
  node.registry.counter("a_total").inc(2);
  node.registry.gauge("g").set(-1);
  const TelemetryFrame f2 = sampler.sample(300);
  EXPECT_EQ(f2.counters.size(), 1u);
  EXPECT_EQ(f2.counters.at("a_total"), 2u);
  EXPECT_EQ(f2.gauges.at("g"), -1);
}

TEST(TelemetrySampler, RegistryResetRebaselines) {
  SimClock clock;
  NodeObs node("n0", clock, 1);
  node.registry.counter("a_total").inc(10);
  TelemetrySampler sampler(&node);
  (void)sampler.sample(1);

  node.registry.reset();
  node.registry.counter("a_total").inc(4);
  const TelemetryFrame f = sampler.sample(2);
  // Shrunk counter: ship the full value, never underflow.
  EXPECT_EQ(f.counters.at("a_total"), 4u);
}

// --------------------------------------------------------------- monitor

TEST(TelemetryMonitor, AccumulatesDeltasAndRejectsOutOfSequence) {
  TelemetryMonitor monitor({.window_cycles = 100, .ring_capacity = 4});
  TelemetryFrame f;
  f.node = "n0";
  f.seq = 0;
  f.at_cycles = 50;
  f.counters["c_total"] = 3;
  ASSERT_TRUE(monitor.ingest(f).ok());
  f.seq = 1;
  f.at_cycles = 150;
  f.counters["c_total"] = 4;
  ASSERT_TRUE(monitor.ingest(f).ok());
  EXPECT_EQ(monitor.counter_value("n0", "c_total"), 7u);
  EXPECT_EQ(monitor.frames_ingested(), 2u);

  // Replay and gap both drop with a typed error.
  EXPECT_FALSE(monitor.ingest(f).ok());
  f.seq = 5;
  EXPECT_FALSE(monitor.ingest(f).ok());
  EXPECT_EQ(monitor.frames_dropped(), 2u);
  EXPECT_EQ(monitor.counter_value("n0", "c_total"), 7u);
}

TEST(TelemetryMonitor, StragglerDetectorAlertsOnceWithDedup) {
  TelemetryMonitor monitor;
  monitor.add_detector(
      std::make_unique<StragglerDriftDetector>("tasks_total", 2, 2));
  std::vector<Alert> hooked;
  monitor.set_on_alert([&](const Alert& a) { hooked.push_back(a); });

  const auto feed = [&](const std::string& node, std::uint64_t seq,
                        std::uint64_t tasks_delta) {
    TelemetryFrame f;
    f.node = node;
    f.seq = seq;
    f.at_cycles = 10 * (seq + 1);
    f.counters["tasks_total"] = tasks_delta;
    ASSERT_TRUE(monitor.ingest(f).ok());
  };

  // Round 0: everyone at zero — no alert (median below min_progress).
  feed("fast-a", 0, 0);
  feed("fast-b", 0, 0);
  feed("slow", 0, 0);
  EXPECT_TRUE(monitor.alerts().empty());

  // Fast nodes reach 3 while slow stays at 0: lag 3 >= 2, median 3 >= 2.
  feed("fast-a", 1, 3);
  feed("fast-b", 1, 3);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  const Alert& alert = monitor.alerts()[0];
  EXPECT_EQ(alert.detector, "straggler_drift");
  EXPECT_EQ(alert.node, "slow");
  EXPECT_EQ(alert.metric, "tasks_total");
  EXPECT_EQ(alert.value, 0);
  EXPECT_EQ(alert.seq, 0u);
  ASSERT_EQ(hooked.size(), 1u);
  EXPECT_EQ(hooked[0], alert);

  // The straggler keeps lagging across more frames: still one alert.
  feed("fast-a", 2, 3);
  feed("fast-b", 2, 3);
  feed("slow", 1, 0);
  EXPECT_EQ(monitor.alerts().size(), 1u);
}

TEST(TelemetryMonitor, FaultStormDetectorFiresOnWindowBurst) {
  TelemetryMonitor monitor({.window_cycles = 100, .ring_capacity = 8});
  monitor.add_detector(make_fault_storm_detector(100, 10));

  TelemetryFrame f;
  f.node = "n0";
  f.seq = 0;
  f.at_cycles = 10;
  f.counters["net_flow_nacks_sent_total"] = 4;
  ASSERT_TRUE(monitor.ingest(f).ok());
  EXPECT_TRUE(monitor.alerts().empty());

  // Same window: 4 NACKs + 7 retransmits = 11 >= 10 — storm.
  f.seq = 1;
  f.at_cycles = 60;
  f.counters.clear();
  f.counters["net_flow_retransmits_total"] = 7;
  ASSERT_TRUE(monitor.ingest(f).ok());
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].detector, "fault_storm");
}

TEST(TelemetryMonitor, TimelineJsonIsStable) {
  TelemetryMonitor monitor({.window_cycles = 100, .ring_capacity = 4});
  TelemetryFrame f;
  f.node = "n0";
  f.seq = 0;
  f.at_cycles = 42;
  f.counters["c_total"] = 1;
  f.gauges["g"] = -5;
  ASSERT_TRUE(monitor.ingest(f).ok());

  const std::string json = monitor.timeline_json();
  EXPECT_NE(json.find("\"schema\":\"securecloud.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"node\":\"n0\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_EQ(json, monitor.timeline_json());  // pure function of state
}

// ----------------------------------------- distributed chaos determinism

std::vector<bigdata::KeyValue> word_count_map(ByteView record) {
  std::vector<bigdata::KeyValue> pairs;
  std::string word;
  for (std::uint8_t c : record) {
    if (c == ' ') {
      if (!word.empty()) pairs.push_back({word, 1.0});
      word.clear();
    } else {
      word += static_cast<char>(c);
    }
  }
  if (!word.empty()) pairs.push_back({word, 1.0});
  return pairs;
}

double sum_reduce(const std::string&, const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

struct TelemetryRun {
  bool ok = false;
  std::string timeline;
  std::string dashboard;
  std::vector<Alert> alerts;
  std::size_t postmortems = 0;
  std::size_t straggler_flight_events = 0;
  net::FabricStats fabric;
  /// The coordinator's FlowStats as its registry exports them.
  std::string coordinator_flow;
};

// One full telemetry-armed job: worker-1 carries a 4x compute skew, and
// with_faults arms loss+reorder chaos after setup.
TelemetryRun run_telemetry_job(std::uint64_t seed, std::size_t threads,
                               bool with_faults) {
  SimClock clock;
  net::Fabric fabric(clock);
  FaultInjector faults(seed, &clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 4;
  config.map_compute_ns_per_record = 1'000'000;
  config.telemetry.enabled = true;
  config.telemetry.interval_ns = 250'000;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  if (!driver.setup(service).ok()) return {};

  (void)fabric.set_compute_skew(driver.worker_node(1), 4);
  fabric.set_fault_injector(&faults);
  if (with_faults) {
    faults.arm(FaultKind::kNetLoss, FaultArm{.probability = 0.25, .max_fires = 20});
    faults.arm(FaultKind::kNetReorder,
               FaultArm{.probability = 0.2, .max_fires = 12});
  }

  std::vector<std::vector<Bytes>> encrypted;
  for (int p = 0; p < 9; ++p) {
    const std::string text = "telemetry chaos partition " + std::to_string(p);
    encrypted.push_back(
        driver.encrypt_partition({Bytes(text.begin(), text.end())}));
  }

  common::ThreadPool pool(threads);
  driver.set_pool(threads <= 1 ? nullptr : &pool);
  auto result = driver.run(encrypted, word_count_map, sum_reduce);
  if (!result.ok()) return {};

  TelemetryRun out;
  out.ok = true;
  out.timeline = driver.telemetry_monitor()->timeline_json();
  out.dashboard = driver.telemetry_monitor()->dashboard_text();
  out.alerts = driver.telemetry_monitor()->alerts();
  out.postmortems = driver.alert_postmortems().size();
  out.fabric = fabric.stats();
  Registry& coordinator = driver.coordinator_obs()->registry;
  std::ostringstream flow;
  for (const char* name : {"net_flow_payloads_sent_total", "net_flow_payloads_delivered_total",
                           "net_flow_payload_bytes_sent_total",
                           "net_flow_payload_bytes_delivered_total",
                           "net_flow_chunks_sent_total", "net_flow_nacks_sent_total",
                           "net_flow_retransmits_total", "net_flow_beacons_sent_total"}) {
    flow << coordinator.counter(name).value() << ' ';
  }
  flow << coordinator.gauge("net_flow_chunks_in_flight").value() << ' '
       << coordinator.gauge("net_flow_chunks_queued").value();
  out.coordinator_flow = flow.str();
  if (auto it = driver.alert_postmortems().find("worker-1");
      it != driver.alert_postmortems().end()) {
    out.straggler_flight_events = it->second.flight.size();
  }
  return out;
}

// Satellite: the injected compute-skew straggler raises exactly one
// straggler alert naming the slow node, and the alert's postmortem pull
// returns that node's flight ring while the job is still running.
TEST(TelemetryCluster, StragglerAlertNamesSlowNodeAndPullsFlightRing) {
  const TelemetryRun run = run_telemetry_job(0xD1A6, 1, /*with_faults=*/false);
  ASSERT_TRUE(run.ok);

  std::size_t straggler_alerts = 0;
  for (const Alert& a : run.alerts) {
    if (a.detector != "straggler_drift") continue;
    ++straggler_alerts;
    EXPECT_EQ(a.node, "worker-1");
    EXPECT_EQ(a.metric, "dist_worker_tasks_done_total");
  }
  EXPECT_EQ(straggler_alerts, 1u);
  EXPECT_GE(run.postmortems, 1u);
  EXPECT_GE(run.straggler_flight_events, 1u);
}

// Tentpole acceptance: for a fixed seed, the exported timeline, the
// dashboard, and the alert sequence are bit-identical at 1 vs 8 pool
// threads and across repeats — with loss/reorder chaos armed.
TEST(TelemetryCluster, ChaosTimelineIsThreadCountAndRepeatInvariant) {
  const std::uint64_t kSeed = 0xBEEF;
  const TelemetryRun t1 = run_telemetry_job(kSeed, 1, /*with_faults=*/true);
  const TelemetryRun t8 = run_telemetry_job(kSeed, 8, /*with_faults=*/true);
  const TelemetryRun again = run_telemetry_job(kSeed, 8, /*with_faults=*/true);
  ASSERT_TRUE(t1.ok);
  ASSERT_TRUE(t8.ok);
  ASSERT_TRUE(again.ok);

  EXPECT_FALSE(t1.timeline.empty());
  EXPECT_EQ(t1.timeline, t8.timeline);
  EXPECT_EQ(t8.timeline, again.timeline);
  EXPECT_EQ(t1.dashboard, t8.dashboard);
  EXPECT_EQ(t8.dashboard, again.dashboard);
  EXPECT_EQ(t1.alerts, t8.alerts);
  EXPECT_EQ(t8.alerts, again.alerts);

  // The chaos run still catches the planted straggler.
  bool named = false;
  for (const Alert& a : t1.alerts) {
    if (a.detector == "straggler_drift" && a.node == "worker-1") named = true;
  }
  EXPECT_TRUE(named);
}

std::string describe(const net::FabricStats& s) {
  std::ostringstream out;
  out << "sent=" << s.messages_sent << " delivered=" << s.messages_delivered
      << " dropped=" << s.messages_dropped << " frames=" << s.frames_sent
      << " frames_dropped=" << s.frames_dropped << " dup=" << s.frames_duplicated
      << " reordered=" << s.frames_reordered << " bytes=" << s.bytes_sent
      << " timers=" << s.timers_fired;
  return out.str();
}

std::string describe(const std::vector<Alert>& alerts) {
  std::ostringstream out;
  for (const Alert& a : alerts) {
    out << a.seq << '@' << a.at_cycles << ' ' << a.detector << ' ' << a.node << ' '
        << a.metric << ' ' << a.value << '/' << a.threshold << ';';
  }
  return out.str();
}

/// Length and leading digest bytes of a long export.
std::string digest(const std::string& text) {
  const crypto::Sha256Digest d = crypto::Sha256::hash(to_bytes(text));
  return std::to_string(text.size()) + ":" + hex_encode(ByteView(d.data(), 8));
}

// Both runs end with the same monitor totals; only the timeline differs.
const char* const kPinnedDashboard =
      "sc-top — 4 nodes · 196 frames · 1 alerts\n"
      "NODE              DELIVERED  INFLIGHT     EPC   SPANS  ALERTS\n"
      "coordinator             147         0       1       1       0\n"
      "worker-0                  5         1       1       0       0\n"
      "worker-1                  3         4       1       1       1\n"
      "worker-2                  3         1       1       0       0\n"
      "ALERT[0] straggler_drift node=worker-1 metric=dist_worker_tasks_done_total "
      "value=0 threshold=0 — progress 0 lags cluster median 1 by >= 1\n";

// Literal pins on one telemetry-armed job, fault-free and under chaos:
// the timeline, the dashboard, the alert log, the fabric's totals and the
// coordinator's flow counters. The worker frames ride the attested flow to
// the coordinator, so a moved timer, an extra frame or one more byte on
// that path changes at least one of them.
TEST(TelemetryCluster, FaultFreeRunIsPinned) {
  const TelemetryRun run = run_telemetry_job(0xBEEF, 1, /*with_faults=*/false);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(digest(run.timeline), "38236:de5cffbc93dd0cf2");
  EXPECT_EQ(run.dashboard, kPinnedDashboard);
  EXPECT_EQ(describe(run.alerts),
            "0@33410888 straggler_drift worker-1 dist_worker_tasks_done_total 0/0;");
  EXPECT_EQ(describe(run.fabric),
            "sent=362 delivered=362 dropped=0 frames=362 frames_dropped=0 dup=0 "
            "reordered=0 bytes=64565 timers=288");
  EXPECT_EQ(run.coordinator_flow, "3 153 594 48613 3 0 0 0 0 0");
}

TEST(TelemetryCluster, ChaosRunIsPinned) {
  const TelemetryRun run = run_telemetry_job(0xBEEF, 8, /*with_faults=*/true);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(digest(run.timeline), "41511:cb25826233de95c4");
  EXPECT_EQ(run.dashboard, kPinnedDashboard);
  EXPECT_EQ(describe(run.alerts),
            "0@36010868 straggler_drift worker-1 dist_worker_tasks_done_total 0/0;");
  EXPECT_EQ(describe(run.fabric),
            "sent=394 delivered=374 dropped=20 frames=394 frames_dropped=20 dup=0 "
            "reordered=8 bytes=71594 timers=295");
  EXPECT_EQ(run.coordinator_flow, "3 153 594 51421 3 10 1 4 0 0");
}

// -------------------------------------------------- streams pipeline tap

TEST(TelemetryStreams, PipelineStagesStreamFramesDeterministically) {
  const auto run_once = [](std::size_t threads) {
    SimClock clock;
    net::Fabric fabric(clock);
    sgx::AttestationService service;

    std::vector<streams::Record> records;
    for (int i = 0; i < 200; ++i) {
      streams::Record r;
      r.key = "k" + std::to_string(i % 7);
      r.timestamp_s = static_cast<std::uint64_t>(i);
      r.value = static_cast<double>(i);
      records.push_back(std::move(r));
    }
    auto state = std::make_shared<std::pair<std::vector<streams::Record>,
                                            std::size_t>>(std::move(records),
                                                          0);
    std::size_t delivered = 0;
    auto stages =
        streams::PipelineBuilder()
            .source("src",
                    [state]() -> std::optional<streams::Record> {
                      if (state->second >= state->first.size())
                        return std::nullopt;
                      return state->first[state->second++];
                    })
            .map("scale",
                 [](const streams::Record& r) {
                   streams::Record out = r;
                   out.value *= 2;
                   return out;
                 })
            .sink("snk",
                  [&delivered](const streams::Record&, std::uint64_t) {
                    ++delivered;
                  })
            .build();
    EXPECT_TRUE(stages.ok());

    streams::PipelineConfig config;
    config.telemetry = {.enabled = true, .interval_ns = 100'000};
    streams::Pipeline pipeline(fabric, std::move(*stages), config);
    common::ThreadPool pool(threads);
    if (threads > 1) pipeline.set_pool(&pool);
    EXPECT_TRUE(pipeline.setup(service).ok());

    EXPECT_TRUE(pipeline.run().ok());
    EXPECT_EQ(delivered, 200u);
    const TelemetryMonitor& monitor = *pipeline.telemetry_monitor();
    EXPECT_GT(monitor.frames_ingested(), 0u);
    return monitor.timeline_json();
  };

  const std::string one = run_once(1);
  const std::string eight = run_once(8);
  const std::string repeat = run_once(8);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(eight, repeat);
}

struct RelayRun {
  std::vector<std::string> monitored;
  std::uint64_t frames = 0;
  std::string timeline;
  double sunk = 0;
  streams::PipelineStats stats;
  net::FabricStats fabric;
  std::uint64_t middle_payloads_sent = 0;
};

// A five-stage chain with the source as its monitor: the sink's frames
// have no link to the source, so they reach it only by being relayed,
// one attested edge at a time, through every stage between.
RelayRun run_relay_pipeline(std::size_t threads, bool telemetry) {
  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;
  std::uint64_t next = 0;
  RelayRun out;
  auto stages =
      streams::PipelineBuilder()
          .source("gen",
                  [&]() -> std::optional<streams::Record> {
                    if (next == 400) return std::nullopt;
                    streams::Record r;
                    r.key = "m" + std::to_string(next % 9);
                    r.timestamp_s = next;
                    r.value = static_cast<double>(next++);
                    return r;
                  })
          .map("scale",
               [](const streams::Record& r) {
                 streams::Record scaled = r;
                 scaled.value *= 3;
                 return scaled;
               })
          .filter("even", [](const streams::Record& r) { return r.timestamp_s % 2 == 0; })
          .key_by("rekey", [](const streams::Record& r) { return r.key + "/x"; })
          .sink("sum", [&](const streams::Record& r, std::uint64_t) { out.sunk += r.value; })
          .build();
  EXPECT_TRUE(stages.ok());
  streams::PipelineConfig config;
  config.batch_size = 8;
  config.telemetry = {.enabled = telemetry, .interval_ns = 200'000};
  streams::Pipeline pipeline(fabric, std::move(*stages), config);
  common::ThreadPool pool(threads);
  if (threads > 1) pipeline.set_pool(&pool);
  EXPECT_TRUE(pipeline.setup(service).ok());
  EXPECT_TRUE(pipeline.run().ok());
  if (const TelemetryMonitor* monitor = pipeline.telemetry_monitor()) {
    out.monitored = monitor->nodes();
    out.frames = monitor->frames_ingested();
    out.timeline = monitor->timeline_json();
  }
  out.stats = pipeline.stats();
  out.fabric = fabric.stats();
  out.middle_payloads_sent =
      pipeline.stage_obs(2)->registry.counter("net_flow_payloads_sent_total").value();
  return out;
}

TEST(TelemetryStreams, FramesRelayUpTheChainToTheSource) {
  const RelayRun one = run_relay_pipeline(1, /*telemetry=*/true);
  const RelayRun eight = run_relay_pipeline(8, /*telemetry=*/true);
  const RelayRun off = run_relay_pipeline(1, /*telemetry=*/false);

  // Every stage's frames reached the source's monitor, the sink's too.
  EXPECT_EQ(one.monitored,
            (std::vector<std::string>{"even", "gen", "rekey", "scale", "sum"}));
  EXPECT_GE(one.frames, 5u);
  // The frames rode the fabric: with telemetry on, the middle stage sends
  // its own and the downstream stages' frames upstream besides its data.
  EXPECT_GT(one.fabric.bytes_sent, off.fabric.bytes_sent);
  EXPECT_GT(one.middle_payloads_sent, off.middle_payloads_sent);
  // The data plane delivers the same records either way.
  EXPECT_EQ(one.stats.records_delivered, off.stats.records_delivered);
  EXPECT_EQ(one.stats.records_delivered, 200u);
  EXPECT_DOUBLE_EQ(one.sunk, off.sunk);
  EXPECT_TRUE(off.monitored.empty());

  // Bit-identical at 1 and 8 threads.
  EXPECT_EQ(one.timeline, eight.timeline);
  EXPECT_EQ(one.stats, eight.stats);
  EXPECT_DOUBLE_EQ(one.sunk, eight.sunk);
  EXPECT_EQ(one.fabric.bytes_sent, eight.fabric.bytes_sent);
  EXPECT_EQ(one.fabric.messages_sent, eight.fabric.messages_sent);
  EXPECT_EQ(one.fabric.timers_fired, eight.fabric.timers_fired);
}

TEST(TelemetryStreams, EnableTelemetryValidatesPreconditions) {
  const auto setup_with = [](bigdata::TelemetryConfig telemetry, bool shared) {
    SimClock clock;
    net::Fabric fabric(clock);
    sgx::AttestationService service;
    auto stages = streams::PipelineBuilder()
                      .source("s",
                              []() -> std::optional<streams::Record> {
                                return std::nullopt;
                              })
                      .sink("k", [](const streams::Record&, std::uint64_t) {})
                      .build();
    EXPECT_TRUE(stages.ok());
    streams::PipelineConfig config;
    config.telemetry = telemetry;
    streams::Pipeline pipeline(fabric, std::move(*stages), config);
    Registry registry;
    if (shared) pipeline.set_obs(&registry);
    const Status status = pipeline.setup(service);
    EXPECT_EQ(pipeline.telemetry_monitor() != nullptr, status.ok() && telemetry.enabled);
    return status.ok() ? std::optional<ErrorCode>{} : status.error().code;
  };

  // Zero interval / zero cap / shared registry: rejected.
  EXPECT_EQ(setup_with({.enabled = true, .interval_ns = 0}, false),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(setup_with({.enabled = true, .interval_ns = 1000, .max_frames_per_run = 0}, false),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(setup_with({.enabled = true, .interval_ns = 1000}, true),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(setup_with({.enabled = true, .interval_ns = 1000}, false), std::nullopt);
  // Off: nothing to validate.
  EXPECT_EQ(setup_with({.enabled = false, .interval_ns = 0}, true), std::nullopt);
}

// ------------------------------------------------------------ TSan hammer

// The sampling surface that is genuinely concurrent: pool threads bump
// a node's sharded registry while the serial loop samples and ingests.
// Run under scripts/tsan_check.sh.
TEST(TelemetryHammer, ConcurrentBumpsDuringSamplingAreRaceFree) {
  SimClock clock;
  NodeObs node("hammer", clock, 1);
  TelemetrySampler sampler(&node);
  TelemetryMonitor monitor({.window_cycles = 64, .ring_capacity = 16});

  std::atomic<bool> stop{false};
  std::vector<std::thread> bumpers;
  for (int t = 0; t < 4; ++t) {
    bumpers.emplace_back([&node, &stop, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        node.registry.counter("hammer_ops_total").inc();
        node.registry.gauge("hammer_gauge").set(t);
        node.registry.histogram("hammer_hist").observe(
            static_cast<std::uint64_t>(t) * 100 + 1);
      }
    });
  }

  std::uint64_t total_delta = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const TelemetryFrame frame = sampler.sample(i * 10);
    auto parsed =
        deserialize_telemetry_frame(serialize_telemetry_frame(frame));
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(monitor.ingest(*parsed).ok());
    if (const auto it = frame.counters.find("hammer_ops_total");
        it != frame.counters.end()) {
      total_delta += it->second;
    }
  }
  stop.store(true);
  for (auto& th : bumpers) th.join();

  // The cumulative fold equals the sum of the deltas we shipped, and a
  // final sample catches everything the bumpers wrote before joining.
  EXPECT_EQ(monitor.counter_value("hammer", "hammer_ops_total"), total_delta);
  const TelemetryFrame last = sampler.sample(1 << 20);
  const std::uint64_t tail =
      last.counters.count("hammer_ops_total")
          ? last.counters.at("hammer_ops_total")
          : 0;
  EXPECT_EQ(total_delta + tail,
            node.registry.counter("hammer_ops_total").value());
  EXPECT_EQ(monitor.frames_ingested(), 500u);
}

}  // namespace
}  // namespace securecloud::obs
