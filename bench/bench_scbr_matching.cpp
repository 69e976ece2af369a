// §V-B mechanism — containment index vs. naive matching.
//
// "Performance is enhanced by storing subscriptions in data structures
//  that exploit containment relations between filters. Therefore, a
//  reduced number of comparisons is required whenever a message must be
//  matched against them."
//
// Reports real matching throughput and the comparison/node-inspection
// counts for the poset engine vs. the naive linear scan, sweeping the
// database size and the workload's containment richness (the ablation
// from DESIGN.md: with no containment the poset degenerates to a scan).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "bench_json.hpp"
#include "common/thread_pool.hpp"
#include "scbr/naive_engine.hpp"
#include "scbr/poset_engine.hpp"
#include "scbr/router.hpp"
#include "scbr/workload.hpp"
#include "sgx/platform.hpp"

namespace {

using namespace securecloud;
using namespace securecloud::scbr;

// Set by --threads N (default 1); sizes the pool for the batch benchmark.
int g_threads = 1;

WorkloadConfig config_with(double hierarchy_fraction) {
  WorkloadConfig config;
  config.attribute_universe = 10;
  config.attributes_per_filter = 3;
  config.value_range = 10'000;
  config.width_fraction = 0.25;
  config.hierarchy_fraction = hierarchy_fraction;
  config.parent_pool = 4'096;
  return config;
}

template <typename Engine>
void run_matching(benchmark::State& state, double hierarchy_fraction) {
  const auto subscriptions = static_cast<std::size_t>(state.range(0));
  ScbrWorkload workload(config_with(hierarchy_fraction), 11);
  Engine engine;
  for (std::size_t id = 1; id <= subscriptions; ++id) {
    engine.subscribe(id, workload.next_filter());
  }
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(workload.next_event());

  std::size_t cursor = 0;
  for (auto _ : state) {
    auto matched = engine.match(events[cursor++ % events.size()]);
    benchmark::DoNotOptimize(matched);
  }
  state.counters["nodes_per_event"] =
      static_cast<double>(engine.stats().nodes_visited) /
      static_cast<double>(engine.stats().events_matched);
  state.counters["comparisons_per_event"] =
      static_cast<double>(engine.stats().comparisons) /
      static_cast<double>(engine.stats().events_matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_NaiveMatch(benchmark::State& state) { run_matching<NaiveEngine>(state, 0.8); }
void BM_PosetMatch(benchmark::State& state) { run_matching<PosetEngine>(state, 0.8); }
BENCHMARK(BM_NaiveMatch)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_PosetMatch)->Arg(1000)->Arg(10000)->Arg(50000);

// Ablation: containment richness. hierarchy=0 -> no cover edges -> poset
// degenerates toward the scan; hierarchy=0.95 -> deep pruning.
void BM_PosetMatch_Containment(benchmark::State& state) {
  run_matching<PosetEngine>(state, static_cast<double>(state.range(1)) / 100.0);
}
BENCHMARK(BM_PosetMatch_Containment)
    ->Args({10000, 0})
    ->Args({10000, 50})
    ->Args({10000, 80})
    ->Args({10000, 95});

// Batch matching across the work-stealing pool (the publish_batch
// pattern): pure traversals fan out against the quiescent index, traces
// replay serially in batch order, so stats evolve exactly as in the
// sequential loop while the traversal work scales with --threads.
void BM_PosetMatchBatch(benchmark::State& state) {
  const auto subscriptions = static_cast<std::size_t>(state.range(0));
  ScbrWorkload workload(config_with(0.8), 11);
  PosetEngine engine;
  for (std::size_t id = 1; id <= subscriptions; ++id) {
    engine.subscribe(id, workload.next_filter());
  }
  std::vector<Event> events;
  for (int i = 0; i < 256; ++i) events.push_back(workload.next_event());

  common::ThreadPool pool(static_cast<std::size_t>(g_threads));
  common::ThreadPool* p = g_threads > 1 ? &pool : nullptr;
  std::vector<MatchTrace> traces(events.size());
  std::vector<std::vector<SubscriptionId>> matched(events.size());
  for (auto _ : state) {
    common::run_indexed(p, events.size(), [&](std::size_t i) {
      traces[i].clear();
      matched[i] = engine.match_with_trace(events[i], &traces[i]);
    });
    for (const auto& trace : traces) engine.apply_trace(trace);
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * events.size()));
  state.counters["threads"] = static_cast<double>(g_threads);
}
BENCHMARK(BM_PosetMatchBatch)->Arg(10000)->Arg(50000);

// A provisioned router in its own enclave with one publisher and eight
// subscribers, shared by the router benchmarks below.
struct RouterBench {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  crypto::DeterministicEntropy entropy{77};
  KeyService keys{attestation, entropy};
  ClientCredentials publisher;
  std::vector<ClientCredentials> subscribers;
  std::unique_ptr<ScbrRouter> router;

  // Returns false after SkipWithError when setup fails.
  bool init(benchmark::State& state, std::unique_ptr<MatchEngine> engine) {
    platform.provision(attestation);
    sgx::EnclaveImage image;
    image.name = "scbr-router-bench";
    image.code = to_bytes("router-binary");
    crypto::DeterministicEntropy signer(909);
    sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
    auto enclave = platform.create_enclave(image);
    if (!enclave.ok()) {
      state.SkipWithError("enclave creation failed");
      return false;
    }
    keys.authorize_router((*enclave)->mrenclave());
    publisher = keys.register_client("publisher");
    for (int s = 0; s < 8; ++s) {
      subscribers.push_back(keys.register_client("sub" + std::to_string(s)));
    }
    router = std::make_unique<ScbrRouter>(**enclave, std::move(engine));
    if (!router->provision(keys).ok()) {
      state.SkipWithError("router provisioning failed");
      return false;
    }
    return true;
  }

  // The next workload filter from subscriber (counter - 1) mod 8, under
  // nonce `counter`; counters from 1 ascend per subscriber.
  ScbrRouter::SubscribeRequest subscription(ScbrWorkload& workload, std::uint64_t counter) {
    const auto& sub = subscribers[(counter - 1) % subscribers.size()];
    return {sub.name, encrypt_subscription(sub, workload.next_filter(), counter)};
  }
};

// Full router pass per publication: AEAD open, signature verify, match,
// per-subscriber re-encryption — the paper's end-to-end SCBR data plane.
// Deliveries dominate (every publication fans out to its matches), so
// this is where per-delivery key-schedule and table-lookup costs show.
void BM_RouterPublishBatch(benchmark::State& state) {
  RouterBench bench;
  if (!bench.init(state, std::make_unique<PosetEngine>())) return;
  ScbrRouter& router = *bench.router;
  const auto& publisher = bench.publisher;

  const auto subscriptions = static_cast<std::size_t>(state.range(0));
  ScbrWorkload workload(config_with(0.8), 11);
  for (std::size_t i = 0; i < subscriptions; ++i) {
    const auto req = bench.subscription(workload, i + 1);
    if (!router.subscribe(req.client, req.wire).ok()) {
      state.SkipWithError("subscribe failed");
      return;
    }
  }

  common::ThreadPool pool(static_cast<std::size_t>(g_threads));
  common::ThreadPool* p = g_threads > 1 ? &pool : nullptr;
  std::uint64_t nonce = 1;
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    state.PauseTiming();  // wire prep (client-side crypto) is not router work
    std::vector<ScbrRouter::PublishRequest> batch;
    batch.reserve(64);
    for (int i = 0; i < 64; ++i) {
      batch.push_back(
          {publisher.name, encrypt_publication(publisher, workload.next_event(), nonce++)});
    }
    state.ResumeTiming();
    auto results = router.publish_batch(batch, p);
    for (const auto& r : results) {
      if (r.ok()) deliveries += r->size();
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 64));
  state.counters["threads"] = static_cast<double>(g_threads);
  state.counters["deliveries_per_pub"] =
      static_cast<double>(deliveries) /
      static_cast<double>(state.iterations() * 64);
}
BENCHMARK(BM_RouterPublishBatch)->Arg(2000)->Arg(10000);

// One per-call subscribe (a one-element subscribe_batch: ECALL, AEAD
// open, engine insert, table slot) against a table pre-installed with
// one subscribe_batch. The naive engine's insert is an append, so the
// call is the router's own work; the poset insert, whose cost depends on
// the workload's containment, is BM_PosetSubscribe. The table grows in
// place, so time per call should stay flat across table sizes. Each call
// adds a subscription, so the table ends larger than the arg. Wires are
// encrypted in chunks outside the timed region.
void BM_RouterSubscribeCall(benchmark::State& state) {
  RouterBench bench;
  if (!bench.init(state, std::make_unique<NaiveEngine>())) return;
  ScbrRouter& router = *bench.router;

  const auto subscriptions = static_cast<std::uint64_t>(state.range(0));
  ScbrWorkload workload(config_with(0.8), 13);
  std::vector<ScbrRouter::SubscribeRequest> install;
  install.reserve(subscriptions);
  for (std::uint64_t counter = 1; counter <= subscriptions; ++counter) {
    install.push_back(bench.subscription(workload, counter));
  }
  for (const auto& id : router.subscribe_batch(install)) {
    if (!id.ok()) {
      state.SkipWithError("install failed");
      return;
    }
  }
  install.clear();

  std::uint64_t counter = subscriptions;
  std::vector<ScbrRouter::SubscribeRequest> wires;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == wires.size()) {
      state.PauseTiming();
      wires.clear();
      for (int i = 0; i < 256; ++i) wires.push_back(bench.subscription(workload, ++counter));
      next = 0;
      state.ResumeTiming();
    }
    const auto& req = wires[next++];
    auto id = router.subscribe(req.client, req.wire);
    if (!id.ok()) {
      state.SkipWithError("subscribe failed");
      break;
    }
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["table"] = static_cast<double>(router.engine().size());
}
BENCHMARK(BM_RouterSubscribeCall)->Arg(10000)->Arg(100000);

void BM_PosetSubscribe(benchmark::State& state) {
  ScbrWorkload workload(config_with(0.8), 13);
  PosetEngine engine;
  std::size_t id = 1;
  // Pre-populate to the working size, then measure marginal inserts.
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    engine.subscribe(id++, workload.next_filter());
  }
  for (auto _ : state) {
    engine.subscribe(id++, workload.next_filter());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PosetSubscribe)->Arg(1000)->Arg(10000);

// End-to-end router pass (fixed seeds, serial metric accounting) whose
// only purpose is to populate the registry for the uniform JSON record.
int run_obs_workload(obs::Registry& registry) {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  platform.provision(attestation);
  crypto::DeterministicEntropy entropy(55);
  KeyService keys(attestation, entropy);

  sgx::EnclaveImage image;
  image.name = "scbr-router";
  image.code = to_bytes("router-binary");
  crypto::DeterministicEntropy signer(808);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  if (!enclave.ok()) return 1;
  keys.authorize_router((*enclave)->mrenclave());

  auto publisher = keys.register_client("publisher");
  auto subscriber = keys.register_client("subscriber");

  ScbrRouter router(**enclave, std::make_unique<PosetEngine>());
  if (!router.provision(keys).ok()) return 1;
  router.set_obs(&registry);
  platform.set_obs(&registry);

  ScbrWorkload workload(config_with(0.8), 11);
  for (std::size_t i = 0; i < 256; ++i) {
    auto sub = router.subscribe(
        subscriber.name, encrypt_subscription(subscriber, workload.next_filter(), i + 1));
    if (!sub.ok()) return 1;
  }
  std::vector<ScbrRouter::PublishRequest> batch;
  for (std::size_t i = 0; i < 128; ++i) {
    batch.push_back(
        {publisher.name, encrypt_publication(publisher, workload.next_event(), i + 1)});
  }
  for (const auto& outcome : router.publish_batch(batch)) {
    if (!outcome.ok()) return 1;
  }
  return 0;
}

}  // namespace

// Plain BENCHMARK_MAIN plus --threads N (pool size for the batch
// benchmark) and --smoke (skip the timed benchmarks, emit only the JSON
// record), both stripped before the benchmark library parses the rest.
int main(int argc, char** argv) {
  bool smoke = false;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = std::max(1, std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::max(1, std::atoi(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  securecloud::obs::Registry registry;
  const int rc = run_obs_workload(registry);
  if (rc != 0) {
    std::fprintf(stderr, "obs workload failed\n");
    return rc;
  }
  securecloud::benchutil::emit_bench_json("scbr_matching",
                                          static_cast<std::size_t>(g_threads), registry);
  return 0;
}
