// dmr_theft: the paper's theft-detection job (§VI use case 1) as a
// DistributedMapReduce over 4 attested workers, combiner on, cluster
// observability and the telemetry plane on, no faults armed.
//
// The cluster is set up kSetups times (each timed as setup; the last one
// is kept). One unit of work is one job on it: the data owner seals the
// seeded MeterFleet readings (encrypt_partition), run() detects thieves,
// then collect_cluster_snapshot() and obs::critical_path() give the
// verdict.
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "bigdata/distributed_mapreduce.hpp"
#include "common/fault_injector.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "sgx/attestation.hpp"
#include "smartgrid/meter.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace securecloud;

namespace {

// 25 households x 2880 readings (30 s over 24 h) = 72k records per job.
constexpr std::size_t kHouseholds = 25;
constexpr std::size_t kThieves = 2;
constexpr std::size_t kPartitions = 8;
constexpr std::size_t kSetups = 15;
constexpr std::uint64_t kSplitS = 12 * 3600;
constexpr double kThreshold = 0.65;

/// Per-meter (baseline, recent) sums and counts -> flagged meters.
struct Windows {
  double base_sum = 0, base_n = 0, recent_sum = 0, recent_n = 0;
};

std::set<std::string> flag(const std::map<std::string, Windows>& by_meter) {
  std::set<std::string> flagged;
  for (const auto& [meter, w] : by_meter) {
    if (w.base_n <= 0 || w.recent_n <= 0) continue;
    const double base = w.base_sum / w.base_n;
    const double ratio = base > 0 ? (w.recent_sum / w.recent_n) / base : 1.0;
    if (ratio < kThreshold) flagged.insert(meter);
  }
  return flagged;
}

/// The oracle: the same aggregation over plaintext, outside any enclave.
std::set<std::string> plain_flagged(const smartgrid::MeterFleet& fleet) {
  std::map<std::string, Windows> by_meter;
  for (std::size_t h = 0; h < kHouseholds; ++h) {
    for (const auto& r : fleet.household_series(h)) {
      Windows& w = by_meter[r.meter_id];
      (r.timestamp_s < kSplitS ? w.base_sum : w.recent_sum) += r.power_w;
      (r.timestamp_s < kSplitS ? w.base_n : w.recent_n) += 1;
    }
  }
  return flag(by_meter);
}

/// The job's output keys are meter|window|sum and meter|window|cnt.
std::set<std::string> job_flagged(const bigdata::JobResult& job) {
  std::map<std::string, Windows> by_meter;
  for (const auto& [key, value] : job.output) {
    const std::size_t p1 = key.find('|');
    const std::size_t p2 = key.find('|', p1 + 1);
    if (p1 == std::string::npos || p2 == std::string::npos) continue;
    Windows& w = by_meter[key.substr(0, p1)];
    const bool base = key.compare(p1 + 1, p2 - p1 - 1, "base") == 0;
    const bool sum = key.compare(p2 + 1, std::string::npos, "sum") == 0;
    (base ? (sum ? w.base_sum : w.base_n) : (sum ? w.recent_sum : w.recent_n)) += value;
  }
  return flag(by_meter);
}

std::vector<bigdata::KeyValue> theft_map(ByteView record) {
  auto reading = smartgrid::MeterReading::deserialize(record);
  if (!reading.ok()) return {};
  const char* window = reading->timestamp_s < kSplitS ? "base" : "recent";
  return {
      {reading->meter_id + "|" + window + "|sum", reading->power_w},
      {reading->meter_id + "|" + window + "|cnt", 1.0},
  };
}

double sum_values(const std::string&, const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

struct Cluster {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  std::unique_ptr<bigdata::DistributedMapReduce> dmr;
};

/// Seeded MeterFleet readings in plaintext partitions, and the flagged
/// set the plaintext aggregation expects.
struct Inputs {
  std::vector<std::vector<Bytes>> plain = std::vector<std::vector<Bytes>>(kPartitions);
  std::size_t records = 0;
  std::set<std::string> expected;
};

Inputs make_inputs(std::uint64_t seed) {
  smartgrid::GridConfig grid;
  grid.households = kHouseholds;
  Rng rng(seed);
  std::set<std::size_t> thieves;
  while (thieves.size() < kThieves) thieves.insert(rng.uniform(kHouseholds));
  for (const std::size_t h : thieves) {
    grid.thefts.push_back({.household = h, .start_s = kSplitS, .reported_fraction = 0.3});
  }
  const smartgrid::MeterFleet fleet(grid, seed);
  Inputs in;
  for (std::size_t h = 0; h < kHouseholds; ++h) {
    for (const auto& reading : fleet.household_series(h)) {
      in.plain[h % kPartitions].push_back(reading.serialize());
      ++in.records;
    }
  }
  in.expected = plain_flagged(fleet);
  return in;
}

/// 4 workers, combiner on, cluster observability and telemetry on.
Result<std::unique_ptr<Cluster>> make_cluster(common::ThreadPool& pool,
                                              obs::Registry* fabric_obs) {
  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 4;
  config.num_reducers = 4;
  config.enable_combiner = true;
  config.telemetry.enabled = true;
  auto cluster = std::make_unique<Cluster>();
  cluster->fabric.set_obs(fabric_obs);
  cluster->dmr = std::make_unique<bigdata::DistributedMapReduce>(cluster->fabric, config);
  cluster->dmr->enable_cluster_obs();
  cluster->dmr->set_pool(&pool);
  SC_RETURN_IF_ERROR(cluster->dmr->setup(cluster->service));
  return cluster;
}

}  // namespace

void run_dmr_theft(const Options& opts, Tally& tally, Output& out) {
  const Inputs in = make_inputs(opts.seed);
  tally.oracle(in.expected.size() == kThieves, "plaintext baseline misses an injected thief");

  common::ThreadPool pool(opts.threads);
  obs::Registry shared;
  SpanLog spans;

  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (std::size_t i = 0; i < kSetups; ++i) {
    cluster.reset();  // the previous cluster goes before the next is built
    const std::int64_t start = now_ns();
    auto made = make_cluster(pool, &shared);
    if (!tally.check(made, "DistributedMapReduce::setup")) return;
    setup_s.push_back(since_s(start));
    cluster = std::move(*made);
  }
  bigdata::DistributedMapReduce& dmr = *cluster->dmr;

  BusyClock map_clock, reduce_clock;
  std::vector<double> run_ms, rate;
  double sim_ms = 0, map_covered_s = 0, reduce_covered_s = 0;
  std::uint64_t steps = 0, logged = 0;
  UnitLoop loop(opts, out);
  while (loop.more()) {
    const bool traced = loop.traced();
    spans.set_enabled(traced, loop.ran());
    map_clock.reset();
    reduce_clock.reset();
    BusyClock* mc = traced ? &map_clock : nullptr;
    BusyClock* rc = traced ? &reduce_clock : nullptr;
    // Each verdict covers one job: drop the previous job's spans and
    // delivery records.
    dmr.coordinator_obs()->tracer.clear();
    for (std::size_t w = 0; w < dmr.num_workers(); ++w) dmr.worker_obs(w)->tracer.clear();
    cluster->fabric.enable_delivery_log();

    const std::int64_t unit_start = now_ns();
    std::vector<std::vector<Bytes>> encrypted;
    {
      SpanLog::Scope span(spans, "dmr", "dmr.encrypt_partition");
      for (const auto& p : in.plain) encrypted.push_back(dmr.encrypt_partition(p));
    }
    Result<bigdata::JobResult> job = Error::internal("unset");
    {
      SpanLog::Scope span(spans, "dmr", "dmr.DistributedMapReduce::run");
      const std::int64_t start = now_ns();
      job = dmr.run(
          encrypted,
          [mc](ByteView record) { return timed(mc, [&] { return theft_map(record); }); },
          [rc](const std::string& key, const std::vector<double>& values) {
            return timed(rc, [&] { return sum_values(key, values); });
          });
      const double ms = since_s(start) * 1e3;
      if (!loop.warmup()) {
        run_ms.push_back(ms);
        rate.push_back(static_cast<double>(in.records) / (ms / 1e3));
      }
      spans.add_aggregate("operator", "operator.map", map_clock.busy_ns(),
                          map_clock.covered_ns());
      spans.add_aggregate("operator", "operator.reduce", reduce_clock.busy_ns(),
                          reduce_clock.covered_ns());
    }
    map_covered_s += static_cast<double>(map_clock.covered_ns()) / 1e9;
    reduce_covered_s += static_cast<double>(reduce_clock.covered_ns()) / 1e9;
    if (tally.check(job, "DistributedMapReduce::run")) {
      tally.oracle(job_flagged(*job) == in.expected, "flagged meters differ from plaintext");
      tally.oracle(job->stats.input_records == in.records, "job input record count");
      sim_ms += static_cast<double>(job->stats.simulated_cycles) /
                (cluster->clock.frequency_ghz() * 1e6);
    }

    Result<obs::ClusterSnapshot> snapshot = Error::internal("unset");
    {
      SpanLog::Scope span(spans, "obs", "obs.collect_cluster_snapshot");
      snapshot = dmr.collect_cluster_snapshot();
    }
    if (tally.check(snapshot, "collect_cluster_snapshot")) {
      const std::vector<std::string> names = cluster->fabric.node_names();
      obs::CriticalPathOptions cp;
      cp.deliveries = &cluster->fabric.deliveries();
      cp.node_names = &names;
      SpanLog::Scope span(spans, "obs", "obs.critical_path");
      auto report = obs::critical_path(*snapshot, cp);
      if (tally.check(report, "obs::critical_path")) steps += report->steps.size();
    }
    logged += cluster->fabric.deliveries().size();
    loop.done(since_s(unit_start));
  }
  const double units = static_cast<double>(loop.ran());  // counters cover the warm-up too
  out.info["records_per_job"] = std::to_string(in.records);
  out.info["sim_ms_per_job"] = std::to_string(sim_ms / units);

  auto& m = out.metrics;
  if (!opts.trace) {
    m["setup_s"] = median(setup_s);
    m["throughput_per_s"] = median(rate);
    m["latency_p50_ms"] = quantile(run_ms, 0.50);
    m["latency_p99_ms"] = quantile(run_ms, 0.99);
    return;
  }

  absorb(shared, dmr.coordinator_obs()->registry.snapshot());
  for (std::size_t w = 0; w < dmr.num_workers(); ++w) {
    absorb(shared, dmr.worker_obs(w)->registry.snapshot());
  }
  const obs::Snapshot snap = shared.snapshot();
  const auto per_job = [&](const char* name) {
    return static_cast<double>(counter(snap, name)) / units;
  };
  const double traced = static_cast<double>(out.traced_units);
  m["dmr.run_s"] = spans.total_s("dmr.DistributedMapReduce::run") / traced;
  m["dmr.runtime_s"] = m["dmr.run_s"] - (map_covered_s + reduce_covered_s) / traced;
  m["dmr.encrypt_partition_s"] = spans.total_s("dmr.encrypt_partition") / traced;
  m["dmr.shuffle_bytes"] = per_job("dist_mapreduce_shuffle_bytes_total");
  m["dmr.shuffle_blocks"] = per_job("dist_mapreduce_shuffle_blocks_total");
  m["dmr.worker_deaths"] = per_job("dist_mapreduce_worker_deaths_total");
  m["dmr.tasks_reexecuted"] = per_job("dist_mapreduce_tasks_reexecuted_total");
  m["operator.map_s"] = spans.total_s("operator.map") / traced;
  m["operator.reduce_s"] = spans.total_s("operator.reduce") / traced;
  m["obs.snapshot_s"] = spans.total_s("obs.collect_cluster_snapshot") / traced;
  m["obs.critical_path_s"] = spans.total_s("obs.critical_path") / traced;
  m["obs.verdict_s"] = m["obs.snapshot_s"] + m["obs.critical_path_s"];
  m["obs.critical_path_steps"] = static_cast<double>(steps) / units;
  m["obs.deliveries_logged"] = static_cast<double>(logged) / units;
  m["obs.telemetry_frames"] = per_job("dist_telemetry_frames_total");
  m["obs.alerts"] = static_cast<double>(dmr.telemetry_monitor()->alerts().size()) / units;

  const std::size_t chunk_bytes = fabric_layer_metrics(snap, units, out);
  crypto_probes(chunk_bytes, m["crypto.sealed_bytes"], m["dmr.run_s"], out);
  finish_trace(opts, spans, out);
}

void probe_dmr_faults(const Options& opts) {
  const Inputs in = make_inputs(opts.seed);
  common::ThreadPool pool(opts.threads);
  struct Setting {
    const char* name;
    common::FaultKind kind;
    double probability;
  };
  for (const Setting& setting : {Setting{"net_reorder", common::FaultKind::kNetReorder, 0.01},
                                 Setting{"net_loss", common::FaultKind::kNetLoss, 0.003}}) {
    for (std::uint64_t fault_seed = 1; fault_seed <= 5; ++fault_seed) {
      auto cluster = make_cluster(pool, nullptr);
      if (!cluster.ok()) {
        std::printf("{\"probe\":\"dmr_faults\",\"setup_error\":\"%s\"}\n",
                    cluster.error().message.c_str());
        return;
      }
      Cluster& c = **cluster;
      // Armed after setup: the job, not the handshakes, meets the faults.
      common::FaultInjector faults(fault_seed, &c.clock);
      faults.arm(setting.kind, setting.probability);
      c.fabric.set_fault_injector(&faults);
      std::vector<std::vector<Bytes>> encrypted;
      for (const auto& p : in.plain) encrypted.push_back(c.dmr->encrypt_partition(p));
      auto job = c.dmr->run(encrypted, theft_map, sum_values);
      const bool correct = job.ok() && job_flagged(*job) == in.expected;
      const auto deaths =
          c.dmr->coordinator_obs()->registry.counter("dist_mapreduce_worker_deaths_total").value();
      std::printf("{\"probe\":\"dmr_faults\",\"fault\":\"%s\",\"probability\":%g,"
                  "\"fault_seed\":%llu,\"records\":%zu,\"ok\":%s,\"correct\":%s,"
                  "\"worker_deaths\":%llu,\"error\":\"%s\"}\n",
                  setting.name, setting.probability,
                  static_cast<unsigned long long>(fault_seed), in.records,
                  job.ok() ? "true" : "false", correct ? "true" : "false",
                  static_cast<unsigned long long>(deaths),
                  job.ok() ? "" : job.error().message.c_str());
      c.fabric.set_fault_injector(nullptr);
    }
  }
}

}  // namespace perfbench
