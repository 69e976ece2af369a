// SCBR: secure content-based routing (§V-B).
//
// "Outside of secure enclaves, both publications and subscriptions are
//  encrypted and signed, thus protecting the system from unauthorised
//  parties observing or tampering with the information. SCBR combines a
//  key exchange protocol and a state-of-the-art routing engine to provide
//  both security and performance while executing under the protection of
//  an enclave."
//
// Components:
//   * KeyService — the trusted key-exchange authority: registers clients
//     (publishers/subscribers), hands each a symmetric key, and
//     provisions the router *enclave* with the client key table after
//     verifying its attestation quote.
//   * ScbrRouter — runs inside the enclave: decrypts subscriptions and
//     publications (verifying publisher signatures), matches with a
//     pluggable engine, and re-encrypts each delivery under the
//     subscriber's key. The untrusted host only ever sees ciphertext.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/entropy.hpp"
#include "crypto/gcm.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scbr/engine.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"

namespace securecloud::scbr {

/// A client's credentials, as issued by the key service.
struct ClientCredentials {
  std::string name;
  Bytes symmetric_key;               // protects this client's messages
  crypto::Ed25519KeyPair signing_key;  // publications are signed
};

class KeyService {
 public:
  KeyService(const sgx::AttestationService& attestation, crypto::EntropySource& entropy)
      : attestation_(attestation), entropy_(entropy) {}

  /// Registers a client and issues its credentials.
  ClientCredentials register_client(const std::string& name);

  /// Marks an enclave measurement as an authorized router build.
  void authorize_router(const sgx::Measurement& mrenclave);

  /// Router provisioning: after verifying the quote (genuine platform +
  /// authorized MRENCLAVE), returns the client key table the router
  /// enclave needs. In deployment this crosses an attested channel; the
  /// channel mechanics are exercised in the SCF tests, so here the
  /// verified handoff is returned directly.
  struct RouterProvision {
    std::map<std::string, Bytes> client_keys;
    std::map<std::string, crypto::Ed25519PublicKey> client_verify_keys;
  };
  Result<RouterProvision> provision_router(ByteView quote_wire);

 private:
  const sgx::AttestationService& attestation_;
  crypto::EntropySource& entropy_;
  std::vector<Bytes> authorized_measurements_;
  std::map<std::string, ClientCredentials> clients_;
};

/// Client-side helpers: what publishers/subscribers send over the wire.
Bytes encrypt_subscription(const ClientCredentials& creds, const Filter& filter,
                           std::uint64_t nonce_counter);
Bytes encrypt_publication(const ClientCredentials& creds, const Event& event,
                          std::uint64_t nonce_counter);
/// Subscriber-side decryption of a delivery.
Result<Event> decrypt_delivery(const ClientCredentials& creds, ByteView wire);

/// Operational counters the router exposes for monitoring/QoS (layer-1
/// components "monitor hardware usage ... and allow for accounting").
struct RouterMetrics {
  std::uint64_t publications = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t auth_failures = 0;    // AEAD/signature rejections
  std::uint64_t replays_blocked = 0;  // stale-counter rejections
};

/// A matched event re-encrypted for one subscriber.
struct Delivery {
  std::string subscriber;
  SubscriptionId subscription = 0;
  Bytes wire;
};

/// One caller at a time: every call mutates the engine, the anti-replay
/// counters, the metrics and the tables without synchronization, so the
/// owner serializes calls (EventBus and every driver call it serially).
/// Inside a call, the batch paths fan pure work across a pool; those
/// workers only read the tables, which no one writes until the call
/// returns.
class ScbrRouter {
 public:
  /// `enclave` hosts the router; matching runs against its platform's
  /// enclave memory and every message pays an ECALL transition.
  /// Engine choice is injected (poset by default, naive for baselines).
  ScbrRouter(sgx::Enclave& enclave, std::unique_ptr<MatchEngine> engine);

  /// Completes provisioning against a key service (quote + key table).
  Status provision(KeyService& keys);

  /// Handles an encrypted subscription from `client`: a one-element
  /// subscribe_batch.
  Result<SubscriptionId> subscribe(const std::string& client, ByteView wire);

  /// One subscription of a batch: who sent it and its encrypted wire form.
  struct SubscribeRequest {
    std::string client;
    Bytes wire;
  };

  /// Installs a batch of encrypted subscriptions, fanning the AEAD open
  /// and filter parse across `pool`. Admission (key lookup, anti-replay)
  /// and application (id assignment, metrics, engine insert, table
  /// slot) run serially in batch order, so issued ids, metrics, and
  /// the engine's containment forests are bit-identical to one-element
  /// batches in the same order — at any thread count. Per-element failures
  /// surface in the matching slot; they do not abort the batch.
  std::vector<Result<SubscriptionId>> subscribe_batch(
      const std::vector<SubscribeRequest>& batch, common::ThreadPool* pool = nullptr);

  /// Anti-replay check + bump for an incoming combined-format message.
  Status check_freshness(const std::string& client, ByteView wire);
  Status unsubscribe(const std::string& client, SubscriptionId id);

  /// Handles an encrypted, signed publication; returns the deliveries
  /// (each encrypted for its subscriber).
  Result<std::vector<Delivery>> publish(const std::string& client, ByteView wire);

  /// One publication of a batch: who sent it and its encrypted wire form.
  struct PublishRequest {
    std::string client;
    Bytes wire;
  };

  /// Processes a batch of publications, fanning the expensive
  /// per-publication work (AEAD open, signature verification, matching,
  /// per-subscriber re-encryption) across `pool` against the quiescent
  /// subscription index. Anti-replay checks, metrics, delivery-nonce
  /// assignment, and cost-model accounting are applied serially in batch
  /// order, so results, metrics, and simulated cycle totals are
  /// bit-identical to calling publish() per element — at any thread
  /// count. `pool == nullptr` processes inline. Per-publication failures
  /// surface in the matching slot; they do not abort the batch.
  std::vector<Result<std::vector<Delivery>>> publish_batch(
      const std::vector<PublishRequest>& batch, common::ThreadPool* pool = nullptr);

  MatchEngine& engine() { return *engine_; }

  const RouterMetrics& metrics() const { return metrics_; }

  /// Mirrors RouterMetrics into `scbr_*` metrics; with a tracer, each
  /// publish_batch emits a scbr.publish_batch span. Every RouterMetrics
  /// bump site is in a serial phase of publish_batch or subscribe_batch,
  /// so mirrored counters stay bit-identical across thread counts.
  void set_obs(obs::Registry* registry, obs::Tracer* tracer = nullptr);

  /// Persists the subscription table, sealed to this router's enclave
  /// identity (MRENCLAVE policy): after a restart the *same* router build
  /// on the same platform restores it without re-collecting subscriptions.
  Bytes seal_state() const;
  Status restore_state(ByteView blob);

 private:
  /// Immutable per-client crypto context, built once at provisioning:
  /// the AES-GCM key schedule, the signature verification key, and the
  /// fixed AAD strings. Pool workers share these read-only during a
  /// batch (AesGcm seal/open are const and stateless), so the parallel
  /// phases never rebuild a key schedule or probe a map.
  struct ClientCrypto {
    ClientCrypto(const std::string& name, const Bytes& key,
                 const crypto::Ed25519PublicKey& verify)
        : gcm(key),
          verify_key(verify),
          sub_aad(to_bytes("sub:" + name)),
          pub_aad(to_bytes("pub:" + name)),
          del_aad(to_bytes("del:" + name)) {}
    crypto::AesGcm gcm;
    crypto::Ed25519PublicKey verify_key;
    Bytes sub_aad;
    Bytes pub_aad;
    Bytes del_aad;
  };
  using ClientTable = std::map<std::string, std::shared_ptr<const ClientCrypto>>;

  struct Subscription {
    std::string owner;
    Filter filter;
    std::shared_ptr<const ClientCrypto> crypto;  // subscriber's delivery context
  };
  /// Slot `id` holds subscription `id`; null = never issued or removed.
  /// Ids are dense and ascending, so a subscribe appends a slot in place
  /// and the hot lookup is O(1).
  using SubscriptionTable = std::vector<std::shared_ptr<const Subscription>>;

  sgx::Enclave& enclave_;
  std::unique_ptr<MatchEngine> engine_;
  ClientTable clients_;  // built by provision()
  SubscriptionTable subscriptions_;
  /// Anti-replay: highest message counter seen per (client, domain).
  /// Client nonces are domain||counter; the router requires counters to
  /// be strictly increasing, so a captured wire message replayed later
  /// (or reordered) is rejected even though its AEAD tag verifies.
  std::map<std::pair<std::string, std::uint32_t>, std::uint64_t> last_counter_;
  SubscriptionId next_id_ = 1;
  std::uint64_t delivery_counter_ = 0;
  bool provisioned_ = false;
  RouterMetrics metrics_;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* obs_publications_ = nullptr;
  obs::Counter* obs_subscriptions_ = nullptr;
  obs::Counter* obs_deliveries_ = nullptr;
  obs::Counter* obs_auth_failures_ = nullptr;
  obs::Counter* obs_replays_blocked_ = nullptr;
};

}  // namespace securecloud::scbr
