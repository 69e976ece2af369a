// enclave_router: an enclave-resident ScbrRouter (PosetEngine, 832 B of
// engine metadata per subscription) whose database outgrows the usable
// EPC, so matching pages through the simulated EPC and every delivery is
// re-encrypted for its subscriber.
//
// The router is set up kSetups times — platform, enclave, provisioning
// and a subscribe_batch install of the database — each timed as setup;
// the last one is kept. One unit of work is one cycle on it:
// kCallsPerCycle per-call subscribes, then one kEventsPerBatch
// publish_batch. A twin PosetEngine with no memory model follows the
// same subscriptions and gives the expected match set of every event.
#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/entropy.hpp"
#include "scbr/poset_engine.hpp"
#include "scbr/router.hpp"
#include "sgx/platform.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace securecloud;

namespace {

constexpr std::size_t kInstall = 112'000;
constexpr std::size_t kSubscribers = 16;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kCallsPerCycle = 128;
constexpr std::size_t kEventsPerBatch = 64;
constexpr std::size_t kNodeOverhead = 832;

/// The Fig. 3 subscription workload: 64 broad region roots over a0,
/// refined by deep narrowing chains (containment-rich, bounded fan-out,
/// scattered subtree visits at match time). Kept here so the benchmark's
/// inputs do not change with the repository's own benches.
class Fig3Workload {
 public:
  static constexpr std::int64_t kValueRange = 1'000'000;
  static constexpr std::size_t kRegions = 64;
  static constexpr std::size_t kAttrs = 4;

  explicit Fig3Workload(std::uint64_t seed) : rng_(seed) {
    const std::int64_t width = kValueRange / static_cast<std::int64_t>(kRegions);
    for (std::size_t r = 0; r < kRegions; ++r) {
      scbr::Filter root;
      root.where("a0", scbr::Op::kGe, scbr::Value::of(static_cast<std::int64_t>(r) * width));
      root.where("a0", scbr::Op::kLe,
                 scbr::Value::of(static_cast<std::int64_t>(r + 1) * width));
      for (std::size_t a = 1; a < kAttrs; ++a) {
        root.where(attr(a), scbr::Op::kGe, scbr::Value::of(std::int64_t{0}));
        root.where(attr(a), scbr::Op::kLe, scbr::Value::of(kValueRange));
      }
      pool_.push_back(root);
    }
  }

  scbr::Filter next_filter() {
    if (emitted_ < kRegions) return pool_[emitted_++];
    // Narrow a random recent filter by a tiny epsilon per side: the
    // child is contained and matches along deep chains.
    const scbr::Filter& parent = pool_[rng_.uniform(pool_.size())];
    scbr::Filter child;
    for (const auto& c : parent.constraints()) {
      const std::int64_t v = c.value.as_int();
      child.where(c.attribute, c.op,
                  scbr::Value::of(c.op == scbr::Op::kGe
                                      ? v + rng_.uniform_in(0, 3)
                                      : std::max<std::int64_t>(0, v - rng_.uniform_in(0, 3))));
    }
    pool_.push_back(child);
    if (pool_.size() > 8192) pool_.erase(pool_.begin(), pool_.begin() + 4096);
    ++emitted_;
    return child;
  }

  scbr::Event next_event() {
    scbr::Event e;
    for (std::size_t a = 0; a < kAttrs; ++a) e.set(attr(a), rng_.uniform_in(0, kValueRange));
    return e;
  }

 private:
  static std::string attr(std::size_t i) { return "a" + std::to_string(i); }
  Rng rng_;
  std::vector<scbr::Filter> pool_;
  std::size_t emitted_ = 0;
};

std::string subscriber(std::size_t i) { return "sub" + std::to_string(i % kSubscribers); }

/// Registers the publisher and the subscribers; the same entropy seed
/// issues the same credentials to every router set up in a run.
std::vector<scbr::ClientCredentials> register_clients(scbr::KeyService& keys) {
  std::vector<scbr::ClientCredentials> creds;
  creds.push_back(keys.register_client("publisher"));
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    creds.push_back(keys.register_client(subscriber(i)));
  }
  return creds;
}

/// The client side: seeded subscriptions and events as encrypted wire
/// messages, and the twin engine's expected match sets. Runs outside
/// every timed span.
class Clients {
 public:
  explicit Clients(std::uint64_t seed)
      : entropy_(seed), keys_(attestation_, entropy_), creds_(register_clients(keys_)),
        counters_(creds_.size(), 0), subs_(seed), events_(seed + 1) {}

  std::vector<scbr::ScbrRouter::SubscribeRequest> subscriptions(std::size_t n) {
    std::vector<scbr::ScbrRouter::SubscribeRequest> out;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t client = 1 + next_id_ % kSubscribers;
      scbr::Filter filter = subs_.next_filter();
      out.push_back({creds_[client].name,
                     scbr::encrypt_subscription(creds_[client], filter, ++counters_[client])});
      twin_.subscribe(next_id_++, std::move(filter));
    }
    return out;
  }

  struct Batch {
    std::vector<scbr::ScbrRouter::PublishRequest> requests;
    std::vector<std::vector<scbr::SubscriptionId>> expected;  // sorted, per event
    double plain_match_s = 0;
  };

  Batch publications() {
    Batch batch;
    std::vector<scbr::Event> events;
    for (std::size_t i = 0; i < kEventsPerBatch; ++i) {
      events.push_back(events_.next_event());
      batch.requests.push_back(
          {creds_[0].name, scbr::encrypt_publication(creds_[0], events.back(), ++counters_[0])});
    }
    const std::int64_t start = now_ns();
    for (const scbr::Event& event : events) batch.expected.push_back(twin_.match(event));
    batch.plain_match_s = since_s(start);
    for (auto& ids : batch.expected) std::sort(ids.begin(), ids.end());
    return batch;
  }

  scbr::SubscriptionId next_id() const { return next_id_; }

 private:
  crypto::DeterministicEntropy entropy_;
  sgx::AttestationService attestation_;
  scbr::KeyService keys_;
  std::vector<scbr::ClientCredentials> creds_;
  std::vector<std::uint64_t> counters_;
  Fig3Workload subs_, events_;
  scbr::PosetEngine twin_;
  scbr::SubscriptionId next_id_ = 1;
};

struct Router {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  crypto::DeterministicEntropy entropy;
  scbr::KeyService keys{attestation, entropy};
  std::unique_ptr<scbr::ScbrRouter> router;
  explicit Router(std::uint64_t seed) : entropy(seed) {}
};

/// Platform, enclave, provisioning and the database install.
Result<std::unique_ptr<Router>> make_router(
    std::uint64_t seed, const std::vector<scbr::ScbrRouter::SubscribeRequest>& install,
    common::ThreadPool& pool, obs::Registry& registry, Tally& tally) {
  auto r = std::make_unique<Router>(seed);
  r->platform.provision(r->attestation);
  register_clients(r->keys);
  sgx::EnclaveImage image;
  image.name = "scbr-router";
  image.code = to_bytes("scbr routing engine");
  crypto::DeterministicEntropy signer(seed + 7);
  sgx::sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = r->platform.create_enclave(image);
  if (!enclave.ok()) return enclave.error();
  r->keys.authorize_router((*enclave)->mrenclave());
  auto engine = std::make_unique<scbr::PosetEngine>();
  engine->set_node_overhead(kNodeOverhead);
  r->router = std::make_unique<scbr::ScbrRouter>(**enclave, std::move(engine));
  r->router->set_obs(&registry);
  r->platform.set_obs(&registry);
  SC_RETURN_IF_ERROR(r->router->provision(r->keys));
  for (const auto& result : r->router->subscribe_batch(install, &pool)) {
    tally.check(result, "ScbrRouter::subscribe_batch");
  }
  return r;
}

}  // namespace

void run_enclave_router(const Options& opts, Tally& tally, Output& out) {
  Clients clients(opts.seed);
  const auto install = clients.subscriptions(kInstall);
  common::ThreadPool pool(opts.threads);
  obs::Registry shared;
  SpanLog spans;

  std::vector<double> setup_s;
  std::unique_ptr<Router> r;
  for (std::size_t i = 0; i < kSetups; ++i) {
    r.reset();  // the previous router goes before the next is built
    const std::int64_t start = now_ns();
    auto made = make_router(opts.seed, install, pool, shared, tally);
    if (!tally.check(made, "router setup")) return;
    setup_s.push_back(since_s(start));
    r = std::move(*made);
  }
  const double db_mib =
      static_cast<double>(r->router->engine().database_bytes()) / (1024.0 * 1024.0);

  std::vector<double> rate, subscribe_ms, plain_match_s;
  UnitQuantiles latency;
  double sealed_bytes = 0, delivered = 0;
  std::map<std::string, double> epc;  // sgx_epc_* deltas over the units
  UnitLoop loop(opts, out);
  while (loop.more()) {
    spans.set_enabled(loop.traced(), loop.ran());
    scbr::SubscriptionId expected_id = clients.next_id();
    const auto calls = clients.subscriptions(kCallsPerCycle);
    const Clients::Batch batch = clients.publications();
    plain_match_s.push_back(batch.plain_match_s);

    const obs::Snapshot before = shared.snapshot();
    const std::int64_t unit_start = now_ns();
    for (const auto& request : calls) {
      const std::int64_t start = now_ns();
      Result<scbr::SubscriptionId> id = Error::internal("unset");
      {
        SpanLog::Scope span(spans, "scbr", "scbr.ScbrRouter::subscribe");
        id = r->router->subscribe(request.client, request.wire);
      }
      subscribe_ms.push_back(since_s(start) * 1e3);
      if (tally.check(id, "ScbrRouter::subscribe")) {
        tally.oracle(*id == expected_id, "subscription id out of sequence");
      }
      ++expected_id;
    }
    std::vector<Result<std::vector<scbr::Delivery>>> results;
    {
      const std::int64_t start = now_ns();
      SpanLog::Scope span(spans, "scbr", "scbr.ScbrRouter::publish_batch");
      results = r->router->publish_batch(batch.requests, &pool);
      rate.push_back(static_cast<double>(kEventsPerBatch) / since_s(start));
    }
    const double unit_s = since_s(unit_start);

    for (const auto& [name, value] : shared.snapshot().counters) {
      if (name.rfind("sgx_epc_", 0) == 0) {
        epc[name] += static_cast<double>(value - counter(before, name));
      }
    }
    for (std::size_t e = 0; e < results.size(); ++e) {
      if (!tally.check(results[e], "ScbrRouter::publish_batch")) continue;
      std::vector<scbr::SubscriptionId> ids;
      for (const scbr::Delivery& d : *results[e]) {
        ids.push_back(d.subscription);
        sealed_bytes += static_cast<double>(d.wire.size());
      }
      delivered += static_cast<double>(ids.size());
      std::sort(ids.begin(), ids.end());
      tally.oracle(ids == batch.expected[e], "deliveries differ from the plain engine");
    }
    if (loop.warmup()) {
      rate.clear();
    } else {
      latency.add(subscribe_ms);
    }
    subscribe_ms.clear();
    loop.done(unit_s);
  }
  const double units = static_cast<double>(loop.ran());  // counters cover the warm-up too
  out.info["database_mib"] = std::to_string(db_mib);
  out.info["install_subscriptions"] = std::to_string(kInstall);

  auto& m = out.metrics;
  if (!opts.trace) {
    m["setup_s"] = median(setup_s);
    m["throughput_per_s"] = median(rate);
    m["latency_p50_ms"] = median(latency.p50);
    m["latency_p99_ms"] = median(latency.p99);
    return;
  }

  m["sgx.epc_accesses"] = epc["sgx_epc_accesses_total"] / units;
  m["sgx.epc_faults"] = epc["sgx_epc_faults_total"] / units;
  m["sgx.epc_evictions"] = epc["sgx_epc_evictions_total"] / units;
  m["sgx.epc_dirty_writebacks"] = epc["sgx_epc_dirty_writebacks_total"] / units;
  m["sgx.fault_ratio"] =
      m["sgx.epc_accesses"] == 0 ? 0 : m["sgx.epc_faults"] / m["sgx.epc_accesses"];
  m["scbr.subscribe_call_s"] = spans.total_s("scbr.ScbrRouter::subscribe") /
                               static_cast<double>(spans.count("scbr.ScbrRouter::subscribe"));
  m["scbr.subscribe_per_s"] = 1.0 / m["scbr.subscribe_call_s"];
  m["scbr.publish_call_s"] = spans.total_s("scbr.ScbrRouter::publish_batch") /
                             static_cast<double>(spans.count("scbr.ScbrRouter::publish_batch"));
  m["scbr.plain_match_s"] = median(plain_match_s);
  m["scbr.deliveries_per_event"] = delivered / (units * kEventsPerBatch);
  m["crypto.sealed_bytes"] = sealed_bytes / units;
  crypto_probes(delivered == 0 ? 64 : static_cast<std::size_t>(sealed_bytes / delivered),
                m["crypto.sealed_bytes"], m["scbr.publish_call_s"], out);
  finish_trace(opts, spans, out);
}

}  // namespace perfbench
