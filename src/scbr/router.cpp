#include "scbr/router.hpp"

#include <algorithm>
#include <optional>

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
  // Build every client's immutable crypto context once: key schedules
  // and AAD strings.
  clients_.clear();
  for (const auto& [name, key] : provision->client_keys) {
    clients_.emplace(name, std::make_shared<const ClientCrypto>(
                               name, key, provision->client_verify_keys.at(name)));
  }
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
    auto it = clients_.find(req.client);
    if (it == clients_.end()) {
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
  // Ids are dense and ascending, so each new subscription lands in the
  // slot just past the table's end: the table grows in place.
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
    if (subscriptions_.size() <= id) subscriptions_.resize(id + 1);
    subscriptions_[id] = std::make_shared<const Subscription>(
        Subscription{batch[i].client, *std::move(w.filter), std::move(w.crypto)});
    results[i] = id;
  }
  return results;
}

Status ScbrRouter::unsubscribe(const std::string& client, SubscriptionId id) {
  if (id >= subscriptions_.size() || subscriptions_[id] == nullptr) {
    return Error::not_found("no such subscription");
  }
  if (subscriptions_[id]->owner != client) {
    return Error::permission_denied("subscription belongs to another client");
  }
  engine_->unsubscribe(id);
  subscriptions_[id] = nullptr;
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
    auto it = clients_.find(req.client);
    if (it == clients_.end()) {
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
          {i, id, subscriptions_[id].get(), &w.payload, ++delivery_counter_});
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
  std::uint32_t live = 0;
  for (const auto& sub : subscriptions_) {
    if (sub != nullptr) ++live;
  }

  Bytes plain;
  put_str(plain, "SCBRSTATE1");
  put_u64(plain, next_id_);
  put_u64(plain, delivery_counter_);
  put_u32(plain, live);
  for (SubscriptionId id = 0; id < subscriptions_.size(); ++id) {
    const auto& sub = subscriptions_[id];
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

  // Every entry is at least an id, an owner length and a filter length.
  constexpr std::size_t kMinEntryBytes = 8 + 4 + 4;
  ByteReader reader(*plain);
  std::string magic;
  std::uint32_t count = 0;
  std::uint64_t next_id = 0, delivery_counter = 0;
  if (!reader.get_str(magic) || magic != "SCBRSTATE1" || !reader.get_u64(next_id) ||
      !reader.get_u64(delivery_counter) || !reader.get_count(count, kMinEntryBytes)) {
    return Error::protocol("malformed router state");
  }
  // Ids are issued from 1 and the next subscribe grows the table to
  // next_id + 1 slots, so next_id must leave that size representable.
  if (next_id == 0 || next_id >= SubscriptionTable().max_size()) {
    return Error::protocol("router state next_id out of range");
  }

  // Subscriber crypto contexts are resolved against the *current*
  // provisioning (keys are never sealed with the subscription table); an
  // owner absent from the key table cannot receive deliveries, so it is
  // rejected here rather than at publish time.
  SubscriptionTable restored;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::string owner;
    Bytes filter_wire;
    if (!reader.get_u64(id) || !reader.get_str(owner) || !reader.get_blob(filter_wire)) {
      return Error::protocol("truncated router state");
    }
    // seal_state writes live ids strictly ascending and below next_id; a
    // checked id sizes the table at most to next_id slots.
    if (id == 0 || id >= next_id || id < restored.size()) {
      return Error::protocol("router state id out of order or range");
    }
    auto filter = Filter::deserialize(filter_wire);
    if (!filter.ok()) return filter.error();
    auto client = clients_.find(owner);
    if (client == clients_.end()) {
      return Error::permission_denied("restored subscription for unknown client: " +
                                      owner);
    }
    restored.resize(id + 1);
    restored[id] = std::make_shared<const Subscription>(
        Subscription{std::move(owner), std::move(filter).value(), client->second});
  }

  // Replace the live state only after the whole snapshot parsed.
  for (SubscriptionId id = 0; id < subscriptions_.size(); ++id) {
    if (subscriptions_[id] != nullptr) engine_->unsubscribe(id);
  }
  for (SubscriptionId id = 0; id < restored.size(); ++id) {
    if (restored[id] != nullptr) engine_->subscribe(id, restored[id]->filter);
  }
  subscriptions_ = std::move(restored);
  next_id_ = next_id;
  delivery_counter_ = delivery_counter;
  return {};
}

}  // namespace securecloud::scbr
