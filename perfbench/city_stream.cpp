// city_stream: the SecureStreams city pipeline
//   meters -> window -> theft -> billing -> sink
// five attested enclave stages with credit backpressure, followed by
// cluster_snapshot() and obs::critical_path() — the verdict.
//
// One unit of work is one pipeline over kMeters meters (24 readings
// each): build + setup (timed as setup), run(), then the verdict.
#include <charconv>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "sgx/attestation.hpp"
#include "smartgrid/streaming_ops.hpp"
#include "streams/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace securecloud;

namespace {

// A 4-hour horizon at 10-minute ticks; the window divides the theft
// split, the invariant the streaming theft stage needs.
constexpr std::uint64_t kHorizonS = 4 * 3600;
constexpr std::uint64_t kIntervalS = 600;
constexpr std::uint64_t kWindowS = 1800;
constexpr std::uint64_t kSplitS = 2 * 3600;
constexpr std::uint64_t kWindows = kHorizonS / kWindowS;
constexpr std::size_t kMeters = 5'000;
constexpr std::size_t kThieves = kMeters / 1000;
// Latency is measured on every kSampleEvery-th meter.
constexpr std::size_t kSampleEvery = 16;

/// Seeded city: per-meter load scale and jitter, and the dishonest
/// meters, which report 30% of their usage from kSplitS on.
struct City {
  std::vector<double> scale;
  std::vector<std::uint64_t> jitter;
  std::vector<bool> thief;
  std::set<std::string> thief_ids;
};

City make_city(std::uint64_t seed) {
  Rng rng(seed);
  City city;
  for (std::size_t m = 0; m < kMeters; ++m) {
    city.scale.push_back(0.5 + rng.uniform01());
    city.jitter.push_back(rng.uniform(50));
  }
  city.thief.assign(kMeters, false);
  while (city.thief_ids.size() < kThieves) {
    const std::size_t m = rng.uniform(kMeters);
    city.thief[m] = true;
    city.thief_ids.insert("m" + std::to_string(m));
  }
  return city;
}

/// Wall time at which the source handed out the last reading of each
/// sampled (meter, window), and the latencies the sink observed.
struct LatencyProbe {
  std::vector<std::int64_t> handed_ns =
      std::vector<std::int64_t>((kMeters / kSampleEvery + 1) * kWindows, 0);
  std::vector<double> samples_ms;
};

struct Clocks {
  BusyClock source, sink, theft, billing;
  void reset() {
    for (BusyClock* c : {&source, &sink, &theft, &billing}) c->reset();
  }
};

/// Time-major readings (all meters at tick t, then t+1): nondecreasing
/// event time, as the source contract asks.
streams::SourceFn city_source(const City& city, LatencyProbe& probe, BusyClock* clock) {
  struct State {
    std::uint64_t tick = 0;
    std::size_t meter = 0;
  };
  auto state = std::make_shared<State>();
  return [&city, &probe, clock, state]() {
    return timed(clock, [&]() -> std::optional<streams::Record> {
      if (state->tick >= kHorizonS / kIntervalS) return std::nullopt;
      const std::uint64_t t = state->tick * kIntervalS;
      const std::size_t m = state->meter;
      if (++state->meter >= kMeters) {
        state->meter = 0;
        ++state->tick;
      }
      const double swing = 1.0 + 0.5 * static_cast<double>((t / 3600) % 12) / 12.0;
      double power_w =
          400.0 * city.scale[m] * swing + static_cast<double>((city.jitter[m] + t) % 50);
      if (city.thief[m] && t >= kSplitS) power_w *= 0.3;
      streams::Record r;
      r.key = "m" + std::to_string(m);
      r.timestamp_s = t;
      r.value = power_w;
      if (m % kSampleEvery == 0 && t % kWindowS == kWindowS - kIntervalS) {
        probe.handed_ns[(m / kSampleEvery) * kWindows + t / kWindowS] = now_ns();
      }
      return r;
    });
  };
}

streams::ProcessFn timed_process(streams::ProcessFn fn, BusyClock* clock) {
  return [fn = std::move(fn), clock](const streams::Record& r) {
    return timed(clock, [&] { return fn(r); });
  };
}

streams::ProcessFlushFn timed_flush(streams::ProcessFlushFn fn, BusyClock* clock) {
  return [fn = std::move(fn), clock] { return timed(clock, [&] { return fn(); }); };
}

/// What the sink saw in one pipeline.
struct SinkTally {
  std::set<std::string> flagged;
  std::set<std::string> billed;
  std::uint64_t duplicate_bills = 0;
  std::uint64_t windows = 0;
};

}  // namespace

void run_city_stream(const Options& opts, Tally& tally, Output& out) {
  const City city = make_city(opts.seed);
  common::ThreadPool pool(opts.threads);
  obs::Registry shared;  // fabric counters plus every stage's counters
  SpanLog spans;
  Clocks clocks;
  LatencyProbe probe;

  std::vector<double> setup_s, rate, run_s;
  UnitQuantiles latency;
  double sim_s = 0;
  std::uint64_t batches = 0, records_in = 0, credit_stalls = 0, steps = 0, logged = 0;
  double stall_ppm = 0;
  UnitLoop loop(opts, out);
  while (loop.more()) {
    const bool traced = loop.traced();
    spans.set_enabled(traced, loop.ran());
    Clocks* c = traced ? &clocks : nullptr;
    clocks.reset();

    SimClock clock;
    net::Fabric fabric(clock);
    fabric.enable_delivery_log();
    fabric.set_obs(&shared);
    sgx::AttestationService service;
    SinkTally sink;

    const std::int64_t setup_start = now_ns();
    std::unique_ptr<streams::Pipeline> pipeline;
    {
      SpanLog::Scope span(spans, "streams", "streams.Pipeline::setup");
      auto theft = smartgrid::streaming_theft_stage(
          {.split_s = kSplitS, .ratio_threshold = 0.65});
      auto billing = smartgrid::streaming_billing_stage({});
      auto stages =
          streams::PipelineBuilder()
              .source("meters", city_source(city, probe, c ? &c->source : nullptr), 200)
              .window("window", {.size_s = kWindowS}, 500)
              .process("theft", timed_process(theft.process, c ? &c->theft : nullptr),
                       timed_flush(theft.flush, c ? &c->theft : nullptr), 500)
              .process("billing",
                       timed_process(billing.process, c ? &c->billing : nullptr),
                       timed_flush(billing.flush, c ? &c->billing : nullptr), 500)
              .sink("sink",
                    [&sink, &probe, c](const streams::Record& r, std::uint64_t) {
                      timed(c ? &c->sink : nullptr, [&] {
                        std::string meter;
                        if (smartgrid::is_flag_record(r, meter)) {
                          sink.flagged.insert(meter);
                        } else if (smartgrid::is_bill_record(r, meter)) {
                          if (!sink.billed.insert(meter).second) ++sink.duplicate_bills;
                        } else {
                          ++sink.windows;
                          std::size_t m = 0;
                          std::from_chars(r.key.data() + 1, r.key.data() + r.key.size(), m);
                          if (m % kSampleEvery != 0) return;
                          const std::int64_t handed =
                              probe.handed_ns[(m / kSampleEvery) * kWindows +
                                              r.timestamp_s / kWindowS];
                          if (handed != 0) {
                            probe.samples_ms.push_back(
                                static_cast<double>(now_ns() - handed) / 1e6);
                          }
                        }
                      });
                    },
                    2'500)
              .build();
      if (!tally.check(stages, "pipeline stages")) return;
      streams::PipelineConfig config;
      config.credit_window = 256;
      config.grant_batch = 64;
      config.batch_size = 64;
      config.watermark_interval_s = kIntervalS;
      pipeline = std::make_unique<streams::Pipeline>(fabric, std::move(*stages), config);
      pipeline->set_pool(&pool);
      if (!tally.check(pipeline->setup(service), "Pipeline::setup")) return;
    }
    if (!loop.warmup()) setup_s.push_back(since_s(setup_start));

    const std::int64_t unit_start = now_ns();
    {
      SpanLog::Scope span(spans, "streams", "streams.Pipeline::run");
      const std::int64_t start = now_ns();
      tally.check(pipeline->run(), "Pipeline::run");
      if (!loop.warmup()) run_s.push_back(since_s(start));
      spans.add_aggregate("operator", "operator.source", clocks.source.busy_ns(),
                          clocks.source.covered_ns());
      spans.add_aggregate("operator", "operator.sink", clocks.sink.busy_ns(),
                          clocks.sink.covered_ns());
      spans.add_aggregate("smartgrid", "smartgrid.theft", clocks.theft.busy_ns(),
                          clocks.theft.covered_ns());
      spans.add_aggregate("smartgrid", "smartgrid.billing", clocks.billing.busy_ns(),
                          clocks.billing.covered_ns());
    }
    tally.check(pipeline->health(), "Pipeline::health");

    // The verdict: snapshot collection plus the critical path.
    Result<obs::ClusterSnapshot> snapshot = Error::internal("unset");
    {
      SpanLog::Scope span(spans, "obs", "obs.cluster_snapshot");
      snapshot = pipeline->cluster_snapshot();
    }
    if (tally.check(snapshot, "Pipeline::cluster_snapshot")) {
      const std::vector<std::string> names = fabric.node_names();
      obs::CriticalPathOptions cp;
      cp.deliveries = &fabric.deliveries();
      cp.node_names = &names;
      SpanLog::Scope span(spans, "obs", "obs.critical_path");
      auto report = obs::critical_path(*snapshot, cp);
      if (tally.check(report, "obs::critical_path")) {
        steps += report->steps.size();
        tally.oracle(!report->dominant_node.empty(), "critical path names no stage");
      }
      for (const obs::NodeSnapshot& node : snapshot->nodes) absorb(shared, node.metrics);
    }
    logged += fabric.deliveries().size();
    if (!loop.warmup()) {
      rate.push_back(static_cast<double>(kMeters * (kHorizonS / kIntervalS)) / run_s.back());
      latency.add(probe.samples_ms);
    }
    probe.samples_ms.clear();
    loop.done(since_s(unit_start));

    tally.oracle(sink.flagged == city.thief_ids, "flagged meters differ from injected thieves");
    tally.oracle(sink.billed.size() == kMeters && sink.duplicate_bills == 0,
                 "not exactly one bill per meter");
    tally.oracle(sink.windows == kMeters * kWindows, "window aggregate count");

    const streams::PipelineStats stats = pipeline->stats();
    sim_s += static_cast<double>(stats.wall_ns) / 1e9;
    for (const auto& stage : stats.stages) {
      batches += stage.batches;
      records_in += stage.records_in;
    }
    credit_stalls += stats.credit_stalls;
    stall_ppm += stats.wall_ns == 0
                     ? 0
                     : static_cast<double>(stats.stall_ns) * 1e6 /
                           (static_cast<double>(stats.wall_ns) *
                            static_cast<double>(stats.stages.size() - 1));
  }
  const double units = static_cast<double>(loop.ran());  // counters cover the warm-up too
  out.info["meters_per_pipeline"] = std::to_string(kMeters);
  out.info["readings_per_pipeline"] = std::to_string(kMeters * (kHorizonS / kIntervalS));
  out.info["sim_seconds_per_pipeline"] = std::to_string(sim_s / units);
  out.info["latency_samples_per_pipeline"] = std::to_string(kMeters / kSampleEvery * kWindows);

  auto& m = out.metrics;
  if (!opts.trace) {
    m["setup_s"] = median(setup_s);
    m["throughput_per_s"] = median(rate);
    m["latency_p50_ms"] = median(latency.p50);
    m["latency_p99_ms"] = median(latency.p99);
    return;
  }

  const double traced = static_cast<double>(out.traced_units);
  m["streams.run_s"] = spans.total_s("streams.Pipeline::run") / traced;
  const double operator_s =
      (spans.total_s("operator.source") + spans.total_s("operator.sink") +
       spans.total_s("smartgrid.theft") + spans.total_s("smartgrid.billing")) /
      traced;
  m["streams.runtime_s"] = m["streams.run_s"] - operator_s;
  m["streams.batches"] = static_cast<double>(batches) / units;
  m["streams.records_per_batch"] =
      batches == 0 ? 0 : static_cast<double>(records_in) / static_cast<double>(batches);
  m["streams.credit_stalls"] = static_cast<double>(credit_stalls) / units;
  m["streams.stall_ppm"] = stall_ppm / units;
  m["operator.source_s"] = spans.total_s("operator.source") / traced;
  m["operator.sink_s"] = spans.total_s("operator.sink") / traced;
  m["smartgrid.theft_s"] = spans.total_s("smartgrid.theft") / traced;
  m["smartgrid.billing_s"] = spans.total_s("smartgrid.billing") / traced;
  m["obs.snapshot_s"] = spans.total_s("obs.cluster_snapshot") / traced;
  m["obs.critical_path_s"] = spans.total_s("obs.critical_path") / traced;
  m["obs.verdict_s"] = m["obs.snapshot_s"] + m["obs.critical_path_s"];
  m["obs.critical_path_steps"] = static_cast<double>(steps) / units;
  m["obs.deliveries_logged"] = static_cast<double>(logged) / units;

  const obs::Snapshot snap = shared.snapshot();
  const std::size_t chunk_bytes = fabric_layer_metrics(snap, units, out);
  crypto_probes(chunk_bytes, m["crypto.sealed_bytes"], median(run_s), out);
  finish_trace(opts, spans, out);
}

}  // namespace perfbench
