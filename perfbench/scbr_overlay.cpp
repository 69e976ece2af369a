// scbr_overlay: the SCBR broker tree hosted on the fabric — 12
// FlowNode-backed brokers in a binary tree, attested sessions per edge.
//
// The overlay is set up kSetups times, each time with a fresh fabric:
// setup (timed as setup), then a containment-rich ScbrWorkload installed
// by per-call subscribe, drained every kDrainEvery. The last overlay
// serves every unit of work: kWavesPerUnit publish_batch waves of
// kPerWave events, each drained before the next, cycling through the
// same seeded waves.
#include <algorithm>
#include <memory>
#include <set>

#include "common/thread_pool.hpp"
#include "net/fabric.hpp"
#include "scbr/fabric_overlay.hpp"
#include "scbr/workload.hpp"
#include "sgx/attestation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace securecloud;

namespace {

constexpr std::size_t kBrokers = 12;
constexpr std::size_t kSubscriptions = 10'000;
constexpr std::size_t kDrainEvery = 1'024;
constexpr std::size_t kSetups = 7;
constexpr std::size_t kWaves = 384;
constexpr std::size_t kPerWave = 32;
constexpr std::size_t kWavesPerUnit = 192;
// The first waves of every unit are checked against the brute-force
// oracle.
constexpr std::size_t kCheckedPerUnit = 2;

/// Balanced binary tree: children of i are 2i+1 and 2i+2.
std::vector<std::pair<scbr::BrokerId, scbr::BrokerId>> binary_tree() {
  std::vector<std::pair<scbr::BrokerId, scbr::BrokerId>> links;
  for (scbr::BrokerId i = 0; 2 * i + 1 < kBrokers; ++i) {
    links.emplace_back(i, 2 * i + 1);
    if (2 * i + 2 < kBrokers) links.emplace_back(i, 2 * i + 2);
  }
  return links;
}

scbr::WorkloadConfig workload_config() {
  scbr::WorkloadConfig wcfg;
  wcfg.attribute_universe = 16;
  wcfg.attributes_per_filter = 3;
  wcfg.width_fraction = 0.05;
  wcfg.hierarchy_fraction = 0.95;
  wcfg.parent_pool = 4096;
  return wcfg;
}

struct Overlay {
  SimClock clock;
  net::Fabric fabric{clock};
  sgx::AttestationService service;
  std::unique_ptr<scbr::FabricOverlay> overlay;
};

bool checked(std::size_t wave) { return wave % kWavesPerUnit < kCheckedPerUnit; }

/// Counters of `now` minus those of `before`.
obs::Snapshot since(const obs::Snapshot& now, const obs::Snapshot& before) {
  obs::Snapshot out;
  for (const auto& [name, value] : now.counters) {
    out.counters[name] = value - counter(before, name);
  }
  return out;
}

}  // namespace

void run_scbr_overlay(const Options& opts, Tally& tally, Output& out) {
  static_assert(kWaves % kWavesPerUnit == 0, "units start at the same waves");
  // Seeded inputs, shared by every set-up and unit.
  scbr::ScbrWorkload workload(workload_config(), opts.seed);
  std::vector<scbr::Filter> filters;
  for (std::size_t i = 0; i < kSubscriptions; ++i) filters.push_back(workload.next_filter());
  std::vector<std::vector<scbr::Event>> waves(kWaves);
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < kPerWave; ++i) wave.push_back(workload.next_event());
  }
  // Brute-force oracle: subscription ids whose filter matches each event
  // of the checked waves.
  std::vector<std::vector<std::set<scbr::SubscriptionId>>> expected(kWaves);
  for (std::size_t w = 0; w < kWaves; ++w) {
    if (!checked(w)) continue;
    for (const scbr::Event& event : waves[w]) {
      std::set<scbr::SubscriptionId> ids;
      for (std::size_t i = 0; i < filters.size(); ++i) {
        if (filters[i].matches(event)) ids.insert(i + 1);
      }
      expected[w].push_back(std::move(ids));
    }
  }

  common::ThreadPool pool(opts.threads);
  obs::Registry shared;
  SpanLog setup_spans;  // set-ups are outside every unit
  setup_spans.set_enabled(opts.trace, 0);
  std::vector<double> setup_s, subscribe_rate;
  double suppression = 0, prunes = 0, remote = 0;
  std::unique_ptr<Overlay> o;
  for (std::size_t s = 0; s < kSetups; ++s) {
    o.reset();  // the previous overlay goes before the next is built
    o = std::make_unique<Overlay>();
    o->fabric.set_obs(&shared);
    scbr::FabricOverlayConfig config;
    config.broker_count = kBrokers;
    config.links = binary_tree();
    o->overlay = std::make_unique<scbr::FabricOverlay>(o->fabric, config);
    o->overlay->set_obs(&shared);
    {
      const std::int64_t start = now_ns();
      SpanLog::Scope span(setup_spans, "scbr", "scbr.FabricOverlay::setup");
      if (!tally.check(o->overlay->setup(o->service), "FabricOverlay::setup")) return;
      setup_s.push_back(since_s(start));
    }

    const std::int64_t install_start = now_ns();
    for (std::size_t i = 0; i < filters.size(); ++i) {
      const scbr::SubscriptionId id = i + 1;
      {
        SpanLog::Scope span(setup_spans, "scbr", "scbr.FabricOverlay::subscribe");
        tally.check(o->overlay->subscribe(id % kBrokers, id, filters[i]),
                    "FabricOverlay::subscribe");
      }
      if (id % kDrainEvery == 0 || id == filters.size()) o->overlay->drain();
    }
    subscribe_rate.push_back(static_cast<double>(filters.size()) / since_s(install_start));
    tally.check(o->overlay->health(), "FabricOverlay::health after install");
    const scbr::OverlayStats& installed = o->overlay->stats();
    const double adverts =
        static_cast<double>(installed.subscriptions_forwarded + installed.subscriptions_suppressed);
    suppression +=
        adverts == 0 ? 0 : static_cast<double>(installed.subscriptions_suppressed) / adverts;
    prunes += static_cast<double>(installed.table_prunes);
    for (scbr::BrokerId b = 0; b < kBrokers; ++b) {
      remote += static_cast<double>(o->overlay->remote_entries(b));
    }
  }
  scbr::FabricOverlay& overlay = *o->overlay;
  const scbr::OverlayStats installed = overlay.stats();
  const obs::Snapshot after_setup = shared.snapshot();
  const double sim_start_ns = static_cast<double>(o->fabric.now_ns());

  SpanLog spans;
  std::vector<double> publish_rate, wave_ms;
  UnitQuantiles latency;
  std::size_t next_wave = 0;
  UnitLoop loop(opts, out);
  while (loop.more()) {
    spans.set_enabled(loop.traced(), loop.ran());
    std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>> publications;
    const std::int64_t unit_start = now_ns();
    for (std::size_t i = 0; i < kWavesPerUnit; ++i) {
      const std::size_t w = next_wave;
      next_wave = (next_wave + 1) % kWaves;
      // Rotate the origin across leaves and the root.
      const scbr::BrokerId origin = (w * 5) % kBrokers;
      const std::int64_t start = now_ns();
      Result<std::vector<std::uint64_t>> ids = Error::internal("unset");
      {
        SpanLog::Scope span(spans, "scbr", "scbr.FabricOverlay::publish_batch");
        ids = overlay.publish_batch(origin, waves[w], &pool);
      }
      {
        SpanLog::Scope span(spans, "net", "net.FabricOverlay::drain");
        overlay.drain();
      }
      wave_ms.push_back(since_s(start) * 1e3);
      if (tally.check(ids, "FabricOverlay::publish_batch") && checked(w)) {
        publications.emplace_back(w, *ids);
      }
    }
    const double unit_s = since_s(unit_start);
    if (!loop.warmup()) {
      publish_rate.push_back(static_cast<double>(kWavesPerUnit * kPerWave) / unit_s);
      latency.add(wave_ms);
    }
    wave_ms.clear();

    for (const auto& [w, wave] : publications) {
      for (std::size_t e = 0; e < wave.size(); ++e) {
        std::set<scbr::SubscriptionId> got;
        auto it = overlay.deliveries().find(wave[e]);
        if (it != overlay.deliveries().end()) {
          for (const auto& [broker, id] : it->second) got.insert(id);
        }
        tally.oracle(got == expected[w][e], "deliveries differ from brute-force match");
      }
    }
    loop.done(unit_s);
  }
  tally.check(overlay.health(), "FabricOverlay::health after publish");
  const double units = static_cast<double>(loop.ran());  // counters cover the warm-up too
  const double events = units * kWavesPerUnit * kPerWave;
  out.info["subscriptions"] = std::to_string(kSubscriptions);
  out.info["events_per_unit"] = std::to_string(kWavesPerUnit * kPerWave);
  out.info["sim_ms_per_unit"] =
      std::to_string((static_cast<double>(o->fabric.now_ns()) - sim_start_ns) / 1e6 / units);

  auto& m = out.metrics;
  if (!opts.trace) {
    m["setup_s"] = median(setup_s);
    m["throughput_per_s"] = median(publish_rate);
    m["latency_p50_ms"] = median(latency.p50);
    m["latency_p99_ms"] = median(latency.p99);
    return;
  }

  const double traced = static_cast<double>(out.traced_units);
  m["scbr.subscribe_call_s"] =
      setup_spans.total_s("scbr.FabricOverlay::subscribe") /
      static_cast<double>(setup_spans.count("scbr.FabricOverlay::subscribe"));
  m["scbr.publish_call_s"] = spans.total_s("scbr.FabricOverlay::publish_batch") /
                             static_cast<double>(spans.count("scbr.FabricOverlay::publish_batch"));
  m["scbr.subscribe_per_s"] = median(subscribe_rate);
  m["net.drain_s"] = spans.total_s("net.FabricOverlay::drain") / traced;
  m["scbr.suppression_ratio"] = suppression / kSetups;
  m["scbr.table_prunes"] = prunes / kSetups;
  m["scbr.remote_entries"] = remote / kSetups;
  const scbr::OverlayStats& stats = overlay.stats();
  m["scbr.hops_per_event"] =
      static_cast<double>(stats.publication_hops - installed.publication_hops) / events;
  m["scbr.deliveries_per_event"] =
      static_cast<double>(stats.deliveries - installed.deliveries) / events;

  // Fabric counters per unit cover the units only; handshakes happen in
  // set-up, so they are counted per set-up.
  const std::size_t chunk_bytes =
      fabric_layer_metrics(since(shared.snapshot(), after_setup), units, out);
  m["session.handshakes"] =
      static_cast<double>(counter(after_setup, "net_sessions_established_total")) / kSetups;
  crypto_probes(chunk_bytes, m["crypto.sealed_bytes"], median(out.traced_unit_s), out);
  finish_trace(opts, spans, out);
}

}  // namespace perfbench
