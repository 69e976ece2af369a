#include "scbr/router.hpp"

#include "sgx/platform.hpp"

namespace securecloud::scbr {

namespace {
constexpr std::uint32_t kSubDomain = 0x53554200;   // "SUB"
constexpr std::uint32_t kPubDomain = 0x50554200;   // "PUB"
constexpr std::uint32_t kDelDomain = 0x44454c00;   // "DEL"
}  // namespace

ClientCredentials KeyService::register_client(const std::string& name) {
  ClientCredentials creds;
  creds.name = name;
  creds.symmetric_key = entropy_.bytes(16);
  creds.signing_key = crypto::ed25519_keypair(entropy_.array<32>());
  clients_[name] = creds;
  return creds;
}

void KeyService::authorize_router(const sgx::Measurement& mrenclave) {
  authorized_measurements_.emplace_back(mrenclave.begin(), mrenclave.end());
}

Result<KeyService::RouterProvision> KeyService::provision_router(ByteView quote_wire) {
  auto report = attestation_.verify_wire(quote_wire);
  if (!report.ok()) return report.error();

  const Bytes measurement(report->mrenclave.begin(), report->mrenclave.end());
  const bool authorized =
      std::find(authorized_measurements_.begin(), authorized_measurements_.end(),
                measurement) != authorized_measurements_.end();
  if (!authorized) {
    return Error::permission_denied("enclave is not an authorized router build");
  }

  RouterProvision provision;
  for (const auto& [name, creds] : clients_) {
    provision.client_keys[name] = creds.symmetric_key;
    provision.client_verify_keys[name] = creds.signing_key.public_key;
  }
  return provision;
}

Bytes encrypt_subscription(const ClientCredentials& creds, const Filter& filter,
                           std::uint64_t nonce_counter) {
  crypto::AesGcm gcm(creds.symmetric_key);
  return gcm.seal_combined(crypto::nonce_from_counter(nonce_counter, kSubDomain),
                           to_bytes("sub:" + creds.name), filter.serialize());
}

Bytes encrypt_publication(const ClientCredentials& creds, const Event& event,
                          std::uint64_t nonce_counter) {
  // sign-then-encrypt: the signature travels inside the ciphertext.
  const Bytes payload = event.serialize();
  const auto signature = crypto::ed25519_sign(creds.signing_key, payload);
  Bytes signed_payload;
  put_blob(signed_payload, payload);
  append(signed_payload, signature);

  crypto::AesGcm gcm(creds.symmetric_key);
  return gcm.seal_combined(crypto::nonce_from_counter(nonce_counter, kPubDomain),
                           to_bytes("pub:" + creds.name), signed_payload);
}

Result<Event> decrypt_delivery(const ClientCredentials& creds, ByteView wire) {
  crypto::AesGcm gcm(creds.symmetric_key);
  auto plain = gcm.open_combined(to_bytes("del:" + creds.name), wire);
  if (!plain.ok()) return plain.error();
  return Event::deserialize(*plain);
}

Status ScbrRouter::check_freshness(const std::string& client, ByteView wire) {
  // The combined format starts with the 12-byte nonce: 4-byte domain ||
  // 8-byte counter (see crypto::nonce_from_counter).
  if (wire.size() < crypto::kGcmNonceSize) {
    return Error::protocol("message shorter than a nonce");
  }
  const std::uint32_t domain = load_be32(wire.subspan(0, 4));
  const std::uint64_t counter = load_be64(wire.subspan(4, 8));
  auto& last = last_counter_[{client, domain}];
  if (counter <= last) {
    ++metrics_.replays_blocked;
    if (obs_replays_blocked_ != nullptr) obs_replays_blocked_->inc();
    return Error::protocol("stale message counter (replay detected)");
  }
  last = counter;
  return {};
}

ScbrRouter::ScbrRouter(sgx::Enclave& enclave, std::unique_ptr<MatchEngine> engine)
    : enclave_(enclave), engine_(std::move(engine)) {
  engine_->set_memory(&enclave_.memory());
}

Status ScbrRouter::provision(KeyService& keys) {
  // The router proves its identity with a quote before receiving keys.
  const auto report = enclave_.create_report(sgx::ReportData{});
  auto quote = enclave_.platform().quote(report);
  if (!quote.ok()) return quote.error();
  auto provision = keys.provision_router(quote->serialize());
  if (!provision.ok()) return provision.error();
  // Build every client's immutable crypto context once — key schedules
  // and AAD strings — and publish the table as one RCU snapshot.
  ClientTable table;
  for (const auto& [name, key] : provision->client_keys) {
    table.emplace(name, std::make_shared<const ClientCrypto>(
                            name, key, provision->client_verify_keys.at(name)));
  }
  clients_.store(std::move(table));
  provisioned_ = true;
  return {};
}

Result<SubscriptionId> ScbrRouter::subscribe(const std::string& client, ByteView wire) {
  std::vector<SubscribeRequest> one;
  one.push_back({client, Bytes(wire.begin(), wire.end())});
  auto results = subscribe_batch(one, /*pool=*/nullptr);
  return std::move(results.front());
}

std::vector<Result<SubscriptionId>> ScbrRouter::subscribe_batch(
    const std::vector<SubscribeRequest>& batch, common::ThreadPool* pool) {
  struct Work {
    bool admitted = false;
    std::shared_ptr<const ClientCrypto> crypto;
    std::optional<Filter> filter;  // parsed in the parallel phase
    std::optional<Error> error;
    bool auth_failure = false;
  };
  auto clients = clients_.read();

  std::vector<Work> work(batch.size());
  std::vector<Result<SubscriptionId>> results;
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results.emplace_back(Error::internal("subscription not processed"));
  }

  // --- admission (serial): provisioning, key lookup, anti-replay ----------
  // last_counter_ is bumped in batch order — the same order a sequence of
  // subscribe() calls would observe.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& req = batch[i];
    if (!provisioned_) {
      results[i] = Error::unavailable("router not provisioned");
      continue;
    }
    auto it = clients->find(req.client);
    if (it == clients->end()) {
      results[i] = Error::permission_denied("unknown client: " + req.client);
      continue;
    }
    enclave_.platform().clock().advance_cycles(enclave_.platform().cost().ecall_cycles);
    if (Status fresh = check_freshness(req.client, req.wire); !fresh.ok()) {
      results[i] = fresh.error();
      continue;
    }
    work[i].admitted = true;
    work[i].crypto = it->second;
  }

  // --- AEAD open + parse (parallel) ----------------------------------------
  // Read-only against router state: the key table is immutable during the
  // batch and gcm.open is const.
  common::run_indexed(pool, batch.size(), [&](std::size_t i) {
    Work& w = work[i];
    if (!w.admitted) return;
    auto plain = w.crypto->gcm.open_combined(w.crypto->sub_aad, batch[i].wire);
    if (!plain.ok()) {
      w.auth_failure = true;
      w.error =
          Error::integrity("subscription failed authentication for " + batch[i].client);
      return;
    }
    auto filter = Filter::deserialize(*plain);
    if (!filter.ok()) {
      w.error = filter.error();
      return;
    }
    w.filter = std::move(filter).value();
  });

  // --- application (serial, batch order): ids, metrics, engine, table ------
  std::vector<std::pair<SubscriptionId, std::shared_ptr<const Subscription>>> added;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Work& w = work[i];
    if (!w.admitted) continue;
    if (w.error) {
      if (w.auth_failure) {
        ++metrics_.auth_failures;
        if (obs_auth_failures_ != nullptr) obs_auth_failures_->inc();
      }
      results[i] = *std::move(w.error);
      continue;
    }
    const SubscriptionId id = next_id_++;
    ++metrics_.subscriptions;
    if (obs_subscriptions_ != nullptr) obs_subscriptions_->inc();
    engine_->subscribe(id, *w.filter);
    added.emplace_back(id, std::make_shared<const Subscription>(Subscription{
                               batch[i].client, *std::move(w.filter),
                               std::move(w.crypto)}));
    results[i] = id;
  }
  if (!added.empty()) {
    // One RCU publish for the whole batch: readers see either none or all
    // of it — same final table as per-element updates, one copy instead
    // of N.
    subscriptions_.update([&](SubscriptionTable& table) {
      if (table.size() <= added.back().first) table.resize(added.back().first + 1);
      for (auto& [id, sub] : added) table[id] = std::move(sub);
    });
  }
  return results;
}

Status ScbrRouter::unsubscribe(const std::string& client, SubscriptionId id) {
  {
    auto subs = subscriptions_.read();
    if (id >= subs->size() || (*subs)[id] == nullptr) {
      return Error::not_found("no such subscription");
    }
    if ((*subs)[id]->owner != client) {
      return Error::permission_denied("subscription belongs to another client");
    }
  }
  engine_->unsubscribe(id);
  subscriptions_.update([&](SubscriptionTable& table) { table[id] = nullptr; });
  return {};
}

Result<std::vector<Delivery>> ScbrRouter::publish(const std::string& client,
                                                  ByteView wire) {
  std::vector<PublishRequest> one;
  one.push_back({client, Bytes(wire.begin(), wire.end())});
  auto results = publish_batch(one, /*pool=*/nullptr);
  return std::move(results.front());
}

std::vector<Result<std::vector<Delivery>>> ScbrRouter::publish_batch(
    const std::vector<PublishRequest>& batch, common::ThreadPool* pool) {
  // Per-publication scratch carried between the serial and parallel
  // phases. `error`/`auth_failure` produced in the parallel phase are
  // folded into results/metrics serially, in batch order.
  struct Work {
    bool admitted = false;
    const ClientCrypto* crypto = nullptr;  // publisher's cached context
    Bytes payload;  // verified signed payload (plaintext to re-encrypt)
    std::vector<SubscriptionId> matched;
    MatchTrace trace;
    std::optional<Error> error;
    bool auth_failure = false;
  };
  obs::Span batch_span(tracer_, "scbr.publish_batch");
  batch_span.set_attribute("batch_size", std::to_string(batch.size()));

  // One read pin for the whole batch: raw ClientCrypto/Subscription
  // pointers handed to pool workers stay valid until these refs drop
  // (reclamation is domain-wide, so workers need no guards of their own).
  auto clients = clients_.read();
  auto subscriptions = subscriptions_.read();

  std::vector<Work> work(batch.size());
  std::vector<Result<std::vector<Delivery>>> results;
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results.emplace_back(Error::internal("publication not processed"));
  }

  // --- admission (serial): provisioning, key lookup, anti-replay -------------
  // Freshness bumps last_counter_ in batch order — the same order a
  // sequence of publish() calls would observe.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& req = batch[i];
    if (!provisioned_) {
      results[i] = Error::unavailable("router not provisioned");
      continue;
    }
    auto it = clients->find(req.client);
    if (it == clients->end()) {
      results[i] = Error::permission_denied("unknown client: " + req.client);
      continue;
    }
    enclave_.platform().clock().advance_cycles(enclave_.platform().cost().ecall_cycles);
    if (Status fresh = check_freshness(req.client, req.wire); !fresh.ok()) {
      results[i] = fresh.error();
      continue;
    }
    work[i].admitted = true;
    work[i].crypto = it->second.get();
  }

  // --- decrypt + verify + match (parallel) -----------------------------------
  // Everything here is read-only against router state: the subscription
  // index is quiescent, client key/verify tables are immutable during the
  // batch, and match_with_trace is const. Accounting is recorded into
  // per-publication traces, not applied.
  common::run_indexed(pool, batch.size(), [&](std::size_t i) {
    Work& w = work[i];
    if (!w.admitted) return;
    const auto& req = batch[i];

    // Cached key schedule + AAD — no per-publication AesGcm construction
    // and no shared-map probes inside the pool.
    auto plain = w.crypto->gcm.open_combined(w.crypto->pub_aad, req.wire);
    if (!plain.ok()) {
      w.auth_failure = true;
      w.error = Error::integrity("publication failed authentication for " + req.client);
      return;
    }

    // Unwrap payload || signature and verify the publisher's signature.
    ByteReader reader(*plain);
    if (!reader.get_blob(w.payload)) {
      w.error = Error::protocol("malformed publication");
      return;
    }
    crypto::Ed25519Signature signature;
    if (reader.remaining() != signature.size()) {
      w.error = Error::protocol("malformed publication signature");
      return;
    }
    for (auto& b : signature) void(reader.get_u8(b));
    if (!crypto::ed25519_verify(w.crypto->verify_key, w.payload, signature)) {
      w.auth_failure = true;
      w.error = Error::integrity("publication signature invalid");
      return;
    }

    auto event = Event::deserialize(w.payload);
    if (!event.ok()) {
      w.error = event.error();
      return;
    }
    w.matched = engine_->match_with_trace(*event, &w.trace);
  });

  // --- accounting + nonce assignment (serial, batch order) -------------------
  // Replaying traces in order drives the cost model through the identical
  // access sequence as sequential matching; delivery nonces are assigned
  // in the same (publication, match) order publish() would use.
  struct PendingDelivery {
    std::size_t publication;
    SubscriptionId id;
    const Subscription* sub;  // owner + cached subscriber crypto
    const Bytes* payload;
    std::uint64_t counter;
  };
  std::vector<PendingDelivery> pending;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Work& w = work[i];
    if (!w.admitted) continue;
    if (w.error) {
      if (w.auth_failure) {
        ++metrics_.auth_failures;
        if (obs_auth_failures_ != nullptr) obs_auth_failures_->inc();
      }
      results[i] = *std::move(w.error);
      continue;
    }
    engine_->apply_trace(w.trace);
    ++metrics_.publications;
    if (obs_publications_ != nullptr) obs_publications_->inc();
    for (const SubscriptionId id : w.matched) {
      pending.push_back(
          {i, id, (*subscriptions)[id].get(), &w.payload, ++delivery_counter_});
    }
  }

  // --- per-subscriber re-encryption (parallel) -------------------------------
  // The subscriber's key schedule was built at provisioning; sealing is
  // const, so workers share the context without synchronization.
  std::vector<Bytes> wires(pending.size());
  common::run_indexed(pool, pending.size(), [&](std::size_t d) {
    const PendingDelivery& p = pending[d];
    const ClientCrypto& sub_crypto = *p.sub->crypto;
    wires[d] = sub_crypto.gcm.seal_combined(
        crypto::nonce_from_counter(p.counter, kDelDomain), sub_crypto.del_aad,
        *p.payload);
  });

  // --- assembly (serial) -----------------------------------------------------
  std::vector<std::vector<Delivery>> deliveries(batch.size());
  for (std::size_t d = 0; d < pending.size(); ++d) {
    const PendingDelivery& p = pending[d];
    deliveries[p.publication].push_back({p.sub->owner, p.id, std::move(wires[d])});
    ++metrics_.deliveries;
  }
  if (obs_deliveries_ != nullptr) obs_deliveries_->inc(pending.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (work[i].admitted && !work[i].error) {
      results[i] = std::move(deliveries[i]);
    }
  }
  return results;
}

void ScbrRouter::set_obs(obs::Registry* registry, obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    obs_publications_ = obs_subscriptions_ = obs_deliveries_ = nullptr;
    obs_auth_failures_ = obs_replays_blocked_ = nullptr;
    return;
  }
  obs_publications_ = &registry->counter("scbr_publications_total");
  obs_subscriptions_ = &registry->counter("scbr_subscriptions_total");
  obs_deliveries_ = &registry->counter("scbr_deliveries_total");
  obs_auth_failures_ = &registry->counter("scbr_auth_failures_total");
  obs_replays_blocked_ = &registry->counter("scbr_replays_blocked_total");
}

Bytes ScbrRouter::seal_state() const {
  // Slot index == subscription id, so walking the table in index order
  // emits (id, owner, filter) in the same ascending-id order the old
  // map-based format produced: sealed blobs stay byte-compatible.
  auto subs = subscriptions_.read();
  std::uint32_t live = 0;
  for (const auto& sub : *subs) {
    if (sub != nullptr) ++live;
  }

  Bytes plain;
  put_str(plain, "SCBRSTATE1");
  put_u64(plain, next_id_);
  put_u64(plain, delivery_counter_);
  put_u32(plain, live);
  for (SubscriptionId id = 0; id < subs->size(); ++id) {
    const auto& sub = (*subs)[id];
    if (sub == nullptr) continue;
    put_u64(plain, id);
    put_str(plain, sub->owner);
    put_blob(plain, sub->filter.serialize());
  }
  return enclave_.seal(plain, sgx::SealPolicy::kMrEnclave);
}

Status ScbrRouter::restore_state(ByteView blob) {
  auto plain = enclave_.unseal(blob);
  if (!plain.ok()) return plain.error();

  ByteReader reader(*plain);
  std::string magic;
  std::uint32_t count = 0;
  std::uint64_t next_id = 0, delivery_counter = 0;
  if (!reader.get_str(magic) || magic != "SCBRSTATE1" || !reader.get_u64(next_id) ||
      !reader.get_u64(delivery_counter) || !reader.get_u32(count)) {
    return Error::protocol("malformed router state");
  }

  // Subscriber crypto contexts are resolved against the *current*
  // provisioning (keys are never sealed with the subscription table); an
  // owner absent from the key table cannot receive deliveries, so it is
  // rejected here rather than at publish time.
  auto clients = clients_.read();
  SubscriptionTable restored;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::string owner;
    Bytes filter_wire;
    if (!reader.get_u64(id) || !reader.get_str(owner) || !reader.get_blob(filter_wire)) {
      return Error::protocol("truncated router state");
    }
    auto filter = Filter::deserialize(filter_wire);
    if (!filter.ok()) return filter.error();
    auto client = clients->find(owner);
    if (client == clients->end()) {
      return Error::permission_denied("restored subscription for unknown client: " +
                                      owner);
    }
    if (restored.size() <= id) restored.resize(id + 1);
    restored[id] = std::make_shared<const Subscription>(
        Subscription{std::move(owner), std::move(filter).value(), client->second});
  }

  // Swap in atomically only after the whole snapshot parsed.
  {
    auto current = subscriptions_.read();
    for (SubscriptionId id = 0; id < current->size(); ++id) {
      if ((*current)[id] != nullptr) engine_->unsubscribe(id);
    }
  }
  for (SubscriptionId id = 0; id < restored.size(); ++id) {
    if (restored[id] != nullptr) engine_->subscribe(id, restored[id]->filter);
  }
  subscriptions_.store(std::move(restored));
  next_id_ = next_id;
  delivery_counter_ = delivery_counter;
  return {};
}

}  // namespace securecloud::scbr
