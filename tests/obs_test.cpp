// Observability layer tests: metric primitives, registry concurrency and
// export formats, span tracing, and the cross-subsystem determinism
// invariant (fixed seed + any thread count => bit-identical counters).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "bigdata/kvstore.hpp"
#include "bigdata/mapreduce.hpp"
#include "bigdata/transfer.hpp"
#include "common/sim_clock.hpp"
#include "common/thread_pool.hpp"
#include "obs/cluster.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scbr/poset_engine.hpp"
#include "scbr/router.hpp"
#include "scbr/workload.hpp"
#include "sgx/platform.hpp"

namespace securecloud::obs {
namespace {

// ------------------------------------------------------------- primitives

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramLogBuckets) {
  Histogram h;
  // Bucket 0 is exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b).
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(1024);

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 1034u);
  // Non-empty cells only, as (inclusive upper bound, count).
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0, 1},     // 0
      {1, 1},     // 1
      {3, 2},     // 2, 3
      {7, 1},     // 4
      {2047, 1},  // 1024 (bucket 11: [1024, 2048))
  };
  EXPECT_EQ(snap.buckets, expected);

  // Bucket edges: 2^k - 1 stays in bucket k, 2^k moves to bucket k + 1.
  Histogram edges;
  edges.observe((1ull << 16) - 1);
  edges.observe(1ull << 16);
  const auto esnap = edges.snapshot();
  ASSERT_EQ(esnap.buckets.size(), 2u);
  EXPECT_EQ(esnap.buckets[0].first, (1ull << 16) - 1);
  EXPECT_EQ(esnap.buckets[1].first, (1ull << 17) - 1);

  // The last bucket covers the top of the u64 range.
  Histogram top;
  top.observe(UINT64_MAX);
  EXPECT_EQ(top.snapshot().buckets[0].first, UINT64_MAX);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(h.snapshot().buckets.empty());
}

TEST(Metrics, CounterShardBatchesIncrements) {
  Counter c;
  {
    CounterShard shard(c);
    shard.inc(5);
    shard.inc();
    EXPECT_EQ(shard.pending(), 6u);
    EXPECT_EQ(c.value(), 0u);  // nothing published before flush
    shard.flush();
    EXPECT_EQ(c.value(), 6u);
    shard.inc(4);
  }  // destructor flushes the rest
  EXPECT_EQ(c.value(), 10u);
}

// --------------------------------------------------------------- registry

TEST(Registry, SameNameReturnsSameHandle) {
  Registry registry;
  Counter& a = registry.counter("x_total");
  Counter& b = registry.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(Registry, ConcurrentRegistrationAndIncrements) {
  Registry registry;
  Counter& total = registry.counter("work_total");
  common::ThreadPool pool(4);
  // Every task resolves the same names (racing registration) and batches
  // its increments through a CounterShard, flushed at task end.
  common::run_indexed(&pool, 64, [&](std::size_t) {
    Counter& same = registry.counter("work_total");
    CounterShard shard(same);
    for (int i = 0; i < 1000; ++i) shard.inc();
    registry.histogram("work_hist").observe(8);
    registry.gauge("work_gauge").add(1);
  });
  EXPECT_EQ(total.value(), 64'000u);
  EXPECT_EQ(registry.histogram("work_hist").count(), 64u);
  EXPECT_EQ(registry.gauge("work_gauge").value(), 64);
}

TEST(Registry, SnapshotJsonIsStableAndSorted) {
  Registry a, b;
  // Register in different orders; export must not care.
  a.counter("zz_total").inc(3);
  a.counter("aa_total").inc(1);
  a.gauge("mid_gauge").set(-5);
  a.histogram("lat").observe(100);

  b.histogram("lat").observe(100);
  b.gauge("mid_gauge").set(-5);
  b.counter("aa_total").inc(1);
  b.counter("zz_total").inc(3);

  EXPECT_EQ(a.snapshot(), b.snapshot());
  // A lone registry exports as a cluster of one.
  const std::string json =
      merge_snapshots({{.node = "solo", .metrics = a.snapshot()}}).to_obs_json();
  EXPECT_EQ(json,
            merge_snapshots({{.node = "solo", .metrics = b.snapshot()}}).to_obs_json());
  EXPECT_NE(json.find("\"schema\":\"securecloud.obs.v2\""), std::string::npos);
  // Sorted keys: aa before zz.
  EXPECT_LT(json.find("aa_total"), json.find("zz_total"));
}

TEST(Registry, ClusterOfOneExportsEveryMetricKind) {
  Registry registry;
  registry.counter("req_total").inc(7);
  registry.gauge("depth").set(-2);
  registry.histogram("lat").observe(3);
  registry.histogram("lat").observe(100);

  // One schema key for the document; the node's metrics object has
  // none. Histogram buckets are (inclusive upper bound, count) pairs.
  EXPECT_EQ(
      merge_snapshots({{.node = "solo", .metrics = registry.snapshot()}}).to_obs_json(),
      "{\"schema\":\"securecloud.obs.v2\",\"nodes\":[{\"node\":\"solo\",\"obs\":{"
      "\"counters\":{\"req_total\":7},\"gauges\":{\"depth\":-2},"
      "\"histograms\":{\"lat\":{\"count\":2,\"sum\":103,"
      "\"buckets\":[[3,1],[127,1]]}}}}]}");
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  Registry registry;
  Counter& c = registry.counter("c_total");
  c.inc(9);
  registry.gauge("g").set(4);
  registry.histogram("h").observe(2);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  EXPECT_EQ(registry.gauge("g").value(), 0);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
  c.inc();
  EXPECT_EQ(registry.snapshot().counters.at("c_total"), 1u);
}

// Regression: export used to hold the interning mutex while formatting
// JSON, so a slow serialization stalled every registration and (via the
// registration path) new components attaching mid-run. Export now walks
// RCU index snapshots only — writers intern fresh names and bump
// counters at full speed while exporters loop, and every export is a
// coherent prefix of the registration stream.
TEST(Registry, ExportNeverBlocksInterningOrBumps) {
  Registry registry;
  // Pre-size the document so each export has real formatting work.
  for (int i = 0; i < 256; ++i) {
    registry.counter("warm_" + std::to_string(i) + "_total").inc();
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> exports{0};
  std::vector<std::thread> exporters;
  for (int e = 0; e < 2; ++e) {
    exporters.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string json =
            merge_snapshots({{.node = "solo", .metrics = registry.snapshot()}})
                .to_obs_json();
        ASSERT_NE(json.find("\"schema\":\"securecloud.obs.v2\""),
                  std::string::npos);
        exports.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kWriters = 4;
  constexpr int kNamesPerWriter = 400;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kNamesPerWriter; ++i) {
        Counter& c = registry.counter("hot_" + std::to_string(w) + "_" +
                                      std::to_string(i) + "_total");
        c.inc(static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : exporters) t.join();

  EXPECT_GT(exports.load(), 0u);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.size(), 256u + kWriters * kNamesPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kNamesPerWriter; ++i) {
      ASSERT_EQ(snap.counters.at("hot_" + std::to_string(w) + "_" +
                                 std::to_string(i) + "_total"),
                static_cast<std::uint64_t>(i) + 1);
    }
  }
}

// ---------------------------------------------------------------- tracing

TEST(Trace, SpansNestViaThreadLocalStack) {
  SimClock clock;
  Tracer tracer(clock);
  {
    Span job(&tracer, "job");
    job.set_attribute("partitions", "4");
    clock.advance_cycles(10);
    {
      Span map(&tracer, "map");
      clock.advance_cycles(5);
    }
    // A sibling opened after `map` ended nests under `job`, not `map`.
    Span reduce(&tracer, "reduce");
    clock.advance_cycles(3);
  }
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 3u);
  // Finish order: map, reduce, job.
  EXPECT_EQ(spans[0].name, "map");
  EXPECT_EQ(spans[1].name, "reduce");
  EXPECT_EQ(spans[2].name, "job");
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[0].parent_id, spans[2].span_id);
  EXPECT_EQ(spans[1].parent_id, spans[2].span_id);
  EXPECT_EQ(spans[0].start_cycles, 10u);
  EXPECT_EQ(spans[0].end_cycles, 15u);
  EXPECT_EQ(spans[2].start_cycles, 0u);
  EXPECT_EQ(spans[2].end_cycles, 18u);
  ASSERT_EQ(spans[2].attributes.size(), 1u);
  EXPECT_EQ(spans[2].attributes[0].first, "partitions");

  const std::string json =
      merge_snapshots({{.node = "solo", .spans = tracer.finished()}}).to_trace_json();
  EXPECT_NE(json.find("\"schema\":\"securecloud.trace.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"map\""), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.finished_count(), 0u);
}

TEST(Trace, NullTracerSpanIsInert) {
  Span span(nullptr, "nothing");
  span.set_attribute("k", "v");
  span.end();  // must not crash; nothing recorded anywhere
  EXPECT_EQ(span.id(), 0u);
}

TEST(Trace, EndIsIdempotent) {
  SimClock clock;
  Tracer tracer(clock);
  Span span(&tracer, "once");
  span.end();
  span.end();
  EXPECT_EQ(tracer.finished_count(), 1u);
}

// ----------------------------------------------- cross-subsystem invariant

/// Drives MapReduce + SCBR routing + secure transfer + the KV store with
/// fixed seeds at the given thread count, all wired into one registry,
/// and returns the exported JSON. The acceptance criterion: runs at 1
/// and 8 threads export bit-identical counter values.
std::string run_workload(std::size_t threads) {
  common::ThreadPool pool(threads);
  common::ThreadPool* p = threads > 1 ? &pool : nullptr;
  Registry registry;

  // --- secure map/reduce (word count) -----------------------------------
  {
    sgx::Platform platform;
    crypto::DeterministicEntropy entropy(5);
    bigdata::SecureMapReduce job(platform, entropy);
    job.set_pool(p);
    job.set_obs(&registry);
    platform.set_obs(&registry);

    const char* words[] = {"enclave", "cloud", "secure", "data"};
    std::vector<std::vector<Bytes>> partitions;
    std::uint64_t lcg = 99;
    for (std::size_t part = 0; part < 8; ++part) {
      std::vector<Bytes> records;
      for (std::size_t rec = 0; rec < 8; ++rec) {
        std::string text;
        for (int w = 0; w < 12; ++w) {
          lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
          text += words[(lcg >> 33) % 4];
          text += ' ';
        }
        records.push_back(to_bytes(text));
      }
      partitions.push_back(job.encrypt_partition(records));
    }
    bigdata::MapReduceConfig config;
    config.num_mappers = 4;
    config.num_reducers = 4;
    auto out = job.run(
        config, partitions,
        [](ByteView record) {
          std::vector<bigdata::KeyValue> kvs;
          std::string word;
          for (std::uint8_t c : record) {
            if (c == ' ') {
              if (!word.empty()) kvs.push_back({word, 1.0});
              word.clear();
            } else {
              word += static_cast<char>(c);
            }
          }
          return kvs;
        },
        [](const std::string&, const std::vector<double>& vs) {
          double sum = 0;
          for (double v : vs) sum += v;
          return sum;
        });
    EXPECT_TRUE(out.ok());
  }

  // --- SCBR router batch publish ----------------------------------------
  {
    sgx::Platform platform;
    sgx::AttestationService attestation;
    platform.provision(attestation);
    crypto::DeterministicEntropy entropy(55);
    scbr::KeyService keys(attestation, entropy);

    sgx::EnclaveImage image;
    image.name = "scbr-router";
    image.code = to_bytes("router-binary");
    crypto::DeterministicEntropy signer(808);
    sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
    auto enclave = platform.create_enclave(image);
    EXPECT_TRUE(enclave.ok());
    keys.authorize_router((*enclave)->mrenclave());
    auto publisher = keys.register_client("publisher");
    auto subscriber = keys.register_client("subscriber");

    scbr::ScbrRouter router(**enclave, std::make_unique<scbr::PosetEngine>());
    EXPECT_TRUE(router.provision(keys).ok());
    router.set_obs(&registry);
    platform.set_obs(&registry);

    scbr::WorkloadConfig wl;
    wl.attribute_universe = 10;
    wl.attributes_per_filter = 3;
    wl.value_range = 10'000;
    wl.width_fraction = 0.25;
    wl.hierarchy_fraction = 0.8;
    scbr::ScbrWorkload workload(wl, 11);
    for (std::size_t i = 0; i < 64; ++i) {
      auto sub = router.subscribe(
          subscriber.name,
          encrypt_subscription(subscriber, workload.next_filter(), i + 1));
      EXPECT_TRUE(sub.ok());
    }
    std::vector<scbr::ScbrRouter::PublishRequest> batch;
    for (std::size_t i = 0; i < 64; ++i) {
      batch.push_back({publisher.name,
                       encrypt_publication(publisher, workload.next_event(), i + 1)});
    }
    for (const auto& outcome : router.publish_batch(batch, p)) {
      EXPECT_TRUE(outcome.ok());
    }
  }

  // --- secure transfer round trip ---------------------------------------
  {
    bigdata::SecureTransferSender sender(Bytes(16, 0x31), 1, 4 * 1024);
    sender.set_pool(p);
    sender.set_obs(&registry);
    SimClock clock;
    bigdata::SecureTransferReceiver receiver(Bytes(16, 0x31), 1, clock, 8);
    receiver.set_obs(&registry);

    Bytes payload;
    std::uint64_t lcg = 7;
    while (payload.size() < 64 * 1024) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      payload.push_back(static_cast<std::uint8_t>(lcg >> 33));
    }
    std::vector<Bytes> back;
    for (const Bytes& chunk : sender.send(payload)) {
      auto got = receiver.receive(chunk);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        for (Bytes& delivered : *got) back.push_back(std::move(delivered));
      }
    }
    EXPECT_EQ(back, std::vector<Bytes>{payload});
  }

  // --- secure KV store (serial) -----------------------------------------
  {
    scone::UntrustedFileSystem storage;
    crypto::DeterministicEntropy entropy(3);
    bigdata::SecureKvStore store(storage, Bytes(16, 0x2a), "obs", entropy);
    store.set_obs(&registry);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(store.put("k" + std::to_string(i), to_bytes("v")).ok());
    }
    EXPECT_TRUE(store.get("k0").ok());
  }

  return merge_snapshots({{.node = "workload", .metrics = registry.snapshot()}})
      .to_obs_json();
}

TEST(ObsIntegration, FiveSubsystemsReportAndCountersAreThreadCountInvariant) {
  const std::string one = run_workload(1);
  const std::string eight = run_workload(8);
  EXPECT_EQ(one, eight) << "obs export must be bit-identical across thread counts";

  // One snapshot shows non-zero metrics from >= 5 subsystems
  // (mapreduce, scbr, transfer, kvstore, sgx).
  for (const char* needle :
       {"\"mapreduce_jobs_total\":1", "\"scbr_publications_total\":64",
        "\"transfer_recv_accepted_total\":", "\"kvstore_puts_total\":8",
        "\"sgx_epc_accesses_total\":"}) {
    const auto pos = one.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle << " missing in " << one;
    // The character after the needle is the value's first digit; the
    // counters above are all expected non-zero.
    EXPECT_NE(one[pos + std::string(needle).size()], '0') << needle;
  }
}

TEST(ObsIntegration, RepeatRunsAreBitIdentical) {
  EXPECT_EQ(run_workload(2), run_workload(2));
}

// ----------------------------------------------- distributed tracing (v2)

TEST(Trace, ContextWireCodecRoundTrips) {
  const TraceContext ctx{0x1234'5678'9abc'def0ull, 0x0fed'cba9'8765'4321ull};
  Bytes wire;
  put_trace_context(wire, ctx);
  EXPECT_EQ(wire.size(), 16u);

  ByteReader r(wire);
  TraceContext back;
  ASSERT_TRUE(get_trace_context(r, back));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, ctx);

  Bytes truncated(wire.begin(), wire.begin() + 15);
  ByteReader tr(truncated);
  TraceContext scratch;
  EXPECT_FALSE(get_trace_context(tr, scratch));
}

TEST(Trace, RemoteParentContextIsAdopted) {
  SimClock clock;
  Tracer coordinator(clock);
  coordinator.set_id_prefix(1ull << 40);
  Tracer worker(clock);
  worker.set_id_prefix(2ull << 40);

  TraceContext job_ctx;
  {
    Span job(&coordinator, "job");
    job_ctx = job.context();
    EXPECT_TRUE(job_ctx.valid());
    clock.advance_cycles(5);
    Span remote(&worker, "task", job_ctx);
    EXPECT_EQ(remote.trace_id(), job_ctx.trace_id);
    clock.advance_cycles(5);
  }
  const auto spans = worker.finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_id, job_ctx.parent_span_id);
  EXPECT_EQ(spans[0].trace_id, job_ctx.trace_id);
  EXPECT_EQ(spans[0].span_id >> 40, 2u);  // node-unique id prefix applied

  // An invalid remote context falls back to the local stack / root rules.
  Span local_root(&worker, "detached", TraceContext{});
  EXPECT_EQ(local_root.trace_id(), local_root.id());
}

TEST(Trace, ParentScopeHandsParentAcrossThreads) {
  SimClock clock;
  Tracer tracer(clock);
  TraceContext ctx;
  std::uint64_t phase_id = 0;
  {
    Span phase(&tracer, "phase");
    ctx = phase.context();
    phase_id = phase.id();
    std::thread worker([&] {
      // A fresh thread has an empty span stack: without the handover
      // this span would become a root.
      ParentScope handover(&tracer, ctx);
      Span task(&tracer, "task");
    });
    worker.join();
  }
  const auto spans = tracer.finished();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "task");
  EXPECT_EQ(spans[0].parent_id, phase_id);
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
}

// Regression: SecureMapReduce's pool tasks used to open spans on pool
// threads with an empty parent stack, silently producing root spans.
TEST(Trace, MapReducePoolTaskSpansParentToPhaseSpans) {
  sgx::Platform platform;
  crypto::DeterministicEntropy entropy(7);
  bigdata::SecureMapReduce job(platform, entropy);
  Registry registry;
  Tracer tracer(platform.clock());
  job.set_obs(&registry, &tracer);
  common::ThreadPool pool(4);
  job.set_pool(&pool);

  std::vector<std::vector<Bytes>> encrypted;
  for (int p = 0; p < 4; ++p) {
    encrypted.push_back(job.encrypt_partition(
        {to_bytes("a b"), to_bytes("b c"), to_bytes("c a")}));
  }
  bigdata::MapReduceConfig config;
  config.num_mappers = 4;
  config.num_reducers = 3;
  auto result = job.run(
      config, encrypted,
      [](ByteView record) {
        std::vector<bigdata::KeyValue> out;
        std::string word;
        for (std::uint8_t c : record) {
          if (c == ' ') {
            if (!word.empty()) out.push_back({word, 1.0});
            word.clear();
          } else {
            word += static_cast<char>(c);
          }
        }
        if (!word.empty()) out.push_back({word, 1.0});
        return out;
      },
      [](const std::string&, const std::vector<double>& values) {
        double total = 0;
        for (double v : values) total += v;
        return total;
      });
  ASSERT_TRUE(result.ok()) << result.error().message;

  std::uint64_t map_phase_id = 0, reduce_phase_id = 0, job_trace = 0;
  for (const SpanRecord& s : tracer.finished()) {
    if (s.name == "mapreduce.map") map_phase_id = s.span_id;
    if (s.name == "mapreduce.reduce") reduce_phase_id = s.span_id;
    if (s.name == "mapreduce.job") job_trace = s.trace_id;
  }
  ASSERT_NE(map_phase_id, 0u);
  ASSERT_NE(reduce_phase_id, 0u);
  std::size_t map_tasks = 0, reduce_tasks = 0;
  for (const SpanRecord& s : tracer.finished()) {
    if (s.name == "mapreduce.map.task") {
      ++map_tasks;
      EXPECT_EQ(s.parent_id, map_phase_id) << "map task span became a root";
      EXPECT_EQ(s.trace_id, job_trace);
    }
    if (s.name == "mapreduce.reduce.task") {
      ++reduce_tasks;
      EXPECT_EQ(s.parent_id, reduce_phase_id) << "reduce task span became a root";
      EXPECT_EQ(s.trace_id, job_trace);
    }
  }
  EXPECT_EQ(map_tasks, 4u);
  EXPECT_EQ(reduce_tasks, 3u);
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, BoundedRingKeepsNewestAndCountsDrops) {
  SimClock clock;
  FlightRecorder rec(clock, 4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    clock.advance_cycles(10);
    rec.record("cat", "event-" + std::to_string(i));
  }
  EXPECT_EQ(rec.total_recorded(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().detail, "event-2");  // two oldest evicted
  EXPECT_EQ(events.back().detail, "event-5");
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.back().at_cycles, 60u);

  const std::string json =
      merge_snapshots({{.node = "solo",
                        .flight = rec.events(),
                        .flight_total = rec.total_recorded()}})
          .to_flight_json();
  EXPECT_NE(json.find("\"schema\":\"securecloud.flight.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_EQ(json.find("event-0"), std::string::npos);

  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(FlightRecorder, ConcurrentAppendsNeverLoseCounts) {
  SimClock clock;
  FlightRecorder rec(clock, 64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 500; ++i) {
        rec.record("hammer", "t" + std::to_string(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.total_recorded(), 2000u);
  EXPECT_EQ(rec.events().size(), 64u);
  // Sequence numbers in the retained window are strictly increasing.
  const auto events = rec.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// ------------------------------------------------- cluster snapshot merge

TEST(ClusterObs, MergeSortsNodesAndExportsAreLabelled) {
  SimClock clock;
  NodeObs b("node-b", clock, 2);
  NodeObs a("node-a", clock, 1);
  a.registry.counter("c_total").inc();
  b.registry.counter("c_total").inc(2);
  { Span s(&b.tracer, "beta"); }
  clock.advance_cycles(1);
  { Span s(&a.tracer, "alpha"); }
  b.flight.record("nack", "peer=1 seq=4");

  std::vector<NodeSnapshot> nodes;
  nodes.push_back(b.snapshot());
  nodes.push_back(a.snapshot());
  const ClusterSnapshot merged = merge_snapshots(std::move(nodes));
  ASSERT_EQ(merged.nodes.size(), 2u);
  EXPECT_EQ(merged.nodes[0].node, "node-a");

  const std::string obs = merged.to_obs_json();
  EXPECT_NE(obs.find("\"schema\":\"securecloud.obs.v2\""), std::string::npos);
  EXPECT_LT(obs.find("node-a"), obs.find("node-b"));

  const std::string trace = merged.to_trace_json();
  EXPECT_NE(trace.find("\"schema\":\"securecloud.trace.v2\""), std::string::npos);
  // Merged span order is (start, end, id) — beta started first.
  EXPECT_LT(trace.find("beta"), trace.find("alpha"));
  EXPECT_NE(trace.find("\"node\":\"node-a\""), std::string::npos);

  const std::string flight = merged.to_flight_json();
  EXPECT_NE(flight.find("\"schema\":\"securecloud.flight.v2\""), std::string::npos);
  EXPECT_NE(flight.find("peer=1 seq=4"), std::string::npos);
}

// --------------------------------------------------- critical-path walker

TEST(ClusterObs, CriticalPathChargesDeepestCoveringSpan) {
  SimClock clock;
  NodeObs coord("coord", clock, 0);
  NodeObs worker("worker", clock, 1);
  {
    Span job(&coord.tracer, "job");  // [0, 100]
    const TraceContext job_ctx = job.context();
    clock.advance_cycles(10);
    {
      Span task(&worker.tracer, "task", job_ctx);  // [10, 70]
      clock.advance_cycles(60);
    }
    clock.advance_cycles(30);
  }
  std::vector<NodeSnapshot> nodes;
  nodes.push_back(coord.snapshot());
  nodes.push_back(worker.snapshot());
  const ClusterSnapshot merged = merge_snapshots(std::move(nodes));

  auto report = critical_path(merged);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->total_cycles, 100u);
  ASSERT_EQ(report->steps.size(), 2u);
  // Steps appear in timeline order of first chain contribution.
  EXPECT_EQ(report->steps[0].name, "job");
  EXPECT_EQ(report->steps[0].self_cycles, 40u);  // [0,10) + [70,100)
  EXPECT_EQ(report->steps[0].depth, 0u);
  EXPECT_EQ(report->steps[1].name, "task");
  EXPECT_EQ(report->steps[1].self_cycles, 60u);
  EXPECT_EQ(report->steps[1].depth, 1u);
  EXPECT_EQ(report->node_self_cycles.at("coord"), 40u);
  EXPECT_EQ(report->node_self_cycles.at("worker"), 60u);
  EXPECT_EQ(report->dominant_node, "worker");

  const std::string json = report->to_json();
  EXPECT_NE(json.find("\"schema\":\"securecloud.critical_path.v1\""),
            std::string::npos);
  const std::string text = report->to_text();
  EXPECT_NE(text.find("- coord/job"), std::string::npos);
  EXPECT_NE(text.find("  - worker/task"), std::string::npos);

  // An empty snapshot has no root to walk.
  EXPECT_FALSE(critical_path(ClusterSnapshot{}).ok());
}

}  // namespace
}  // namespace securecloud::obs
