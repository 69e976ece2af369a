// Content-based routing overlay hosted on the cluster fabric.
//
// BrokerOverlay models the covering protocol with direct method calls;
// this driver runs the *same* protocol as a distributed system: the
// brokers are one bigdata::EnclaveCluster — a node per broker, an
// attested edge per overlay link (established breadth-first from broker
// 0), the overlay key released root-down as each edge's first sealed
// record — and all subscription/retraction/publication traffic rides
// FlowNode — chunked, AES-GCM sealed per chunk, NACK-recovered — so armed
// loss/reorder faults are survivable without protocol-level retries.
//
// Distribution changes one thing structurally: a broker can no longer
// probe its neighbour's routing table for the covering-suppression
// decision (BrokerOverlay cheats by reading the receiver's entries). So
// every broker keeps *two* sharded containment indexes per link:
//
//   recv[n] — what neighbour n advertised to us: the interest test a
//             publication consults before crossing toward n, and the
//             candidate pool for uncovering re-advertisement.
//   sent[n] — what we advertised to n: the sender-side mirror that
//             answers "is this filter already covered on the link"
//             without a round trip.
//
// sent[b→n] and recv[n←b] stay bit-identical mirrors by construction:
// FlowNode delivers payloads per directed link in send order, and both
// ends apply the identical deterministic update (prune covered entries,
// insert) for each kSubscribe/kRetract payload. The per-link tables are
// therefore always the covering frontier (maximal antichain) of the
// filters behind the link — the order-independence that makes churned
// and fresh overlays converge to identical state (overlay_test.cpp
// proves this for the in-process protocol; fabric_overlay_test.cpp for
// this one).
//
// Publication matching at the origin can fan a batch across a thread
// pool: the parallel phase (serialize + match + per-link interest) is
// read-only against quiescent tables — no fabric event runs between
// publish_batch() and the next drain() — and delivery recording plus
// flow sends happen serially in batch order, so deliveries, stats, and
// every obs counter are bit-identical at any pool size.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "bigdata/enclave_cluster.hpp"
#include "common/thread_pool.hpp"
#include "scbr/overlay.hpp"

namespace securecloud::scbr {

struct FabricOverlayConfig {
  std::size_t broker_count = 8;
  /// Overlay edges; must form a spanning tree over the brokers (key
  /// dissemination and routing both need every broker reachable). Empty
  /// means the chain 0-1-...-n-1.
  std::vector<std::pair<BrokerId, BrokerId>> links;
  /// Every broker's flow (overlay links take net::LinkConfig's defaults).
  bigdata::FlowConfig flow;
  /// Record every (publication, broker, subscription) delivery triple.
  /// Benchmarks with millions of deliveries turn this off and read the
  /// counters instead.
  bool record_deliveries = true;
};

class FabricOverlay {
 public:
  /// Deliveries of one publication, as (home broker, subscription) —
  /// a set, because cross-link arrival order under faults is not part
  /// of the contract (per-link order is).
  using DeliverySet = std::set<std::pair<BrokerId, SubscriptionId>>;

  /// Nodes and links are added to `fabric` in setup(); the fabric and
  /// its clock must outlive this driver.
  FabricOverlay(net::Fabric& fabric, FabricOverlayConfig config = {});
  FabricOverlay(const FabricOverlay&) = delete;
  FabricOverlay& operator=(const FabricOverlay&) = delete;
  ~FabricOverlay();

  /// Builds the broker tree as an EnclaveCluster: fabric nodes + links,
  /// an attested edge per link (breadth-first from broker 0), the overlay
  /// key released through each, and a FlowNode per broker keyed by it.
  Status setup(sgx::AttestationService& service);

  /// Shared-registry mode: call before setup() to wire every broker's
  /// overlay counters, sessions, and flows into one aggregate registry
  /// instead of per-broker NodeObs bundles (the bench mode).
  void set_obs(obs::Registry* registry);

  /// Installs a subscription at `broker` and advertises it through the
  /// overlay with covering suppression. Traffic converges on drain().
  Status subscribe(BrokerId broker, SubscriptionId id, const Filter& filter);
  Status unsubscribe(BrokerId broker, SubscriptionId id);

  /// Publishes at `broker`; returns the publication id deliveries are
  /// recorded under. Remote deliveries land during drain().
  Result<std::uint64_t> publish(BrokerId broker, const Event& event);

  /// Batch publish at one origin: serialization, local matching, and
  /// per-link interest tests fan across `pool`; delivery recording and
  /// flow sends apply serially in batch order (see file comment).
  Result<std::vector<std::uint64_t>> publish_batch(BrokerId broker,
                                                   const std::vector<Event>& events,
                                                   common::ThreadPool* pool = nullptr);

  /// Runs the fabric until no subscription/publication traffic is in
  /// flight.
  void drain() { fabric_.run_until_idle(); }

  const OverlayStats& stats() const { return stats_; }
  const std::map<std::uint64_t, DeliverySet>& deliveries() const {
    return deliveries_;
  }

  /// First failure across broker flows (abandoned gap, dead stream), ok
  /// when the data plane is healthy.
  Status health() const;

  /// Routing-table sizes: remote filter entries broker `b` learned
  /// (recv tables) / advertised (sent tables) across its links.
  std::size_t remote_entries(BrokerId broker) const;
  std::size_t sent_entries(BrokerId broker) const;
  std::size_t local_entries(BrokerId broker) const;
  /// Containment-index shard count across one broker's engines.
  std::size_t shard_count(BrokerId broker) const;

  /// Merged per-broker observability (securecloud.obs.v2 etc.). Error in
  /// shared-registry mode.
  Result<obs::ClusterSnapshot> cluster_snapshot() const;
  obs::NodeObs* broker_obs(BrokerId broker);

  net::NodeId broker_node(BrokerId broker) const;
  std::size_t broker_count() const { return brokers_.size(); }
  const Status& topology() const { return topology_; }

 private:
  // Flow payload types (first byte of every flow payload).
  static constexpr std::uint8_t kSubscribe = 1;
  static constexpr std::uint8_t kRetract = 2;
  static constexpr std::uint8_t kPublish = 3;
  static_assert(kPublish < bigdata::EnclaveCluster::kTelemetryTag,
                "tags run 1..kPublish; the cluster's telemetry tag is reserved");
  static constexpr BrokerId kNoBroker = static_cast<BrokerId>(-1);

  /// A broker's routing state; its enclave, sessions and flow live in the
  /// cluster under the broker's index.
  struct Broker {
    BrokerId index = 0;
    net::NodeId node = 0;
    std::vector<BrokerId> neighbours;

    ShardedPosetEngine local;
    std::map<BrokerId, ShardedPosetEngine> recv;  // peer -> advertised to us
    std::map<BrokerId, ShardedPosetEngine> sent;  // peer -> advertised by us

    obs::Counter* obs_forwarded = nullptr;
    obs::Counter* obs_suppressed = nullptr;
    obs::Counter* obs_prunes = nullptr;
    obs::Counter* obs_hops = nullptr;
    obs::Counter* obs_deliveries = nullptr;
  };

  void wire_counters(Broker& broker, obs::Registry* registry);
  void on_flow_payload(Broker& broker, net::NodeId from_node, Bytes payload);

  /// Single-link covering advertisement: suppress if sent[to] already
  /// covers `filter`, otherwise prune what it covers, mirror it into
  /// sent[to], and ship the kSubscribe payload.
  void advertise_on_link(Broker& broker, BrokerId to, SubscriptionId id,
                         const Filter& filter);
  void handle_subscribe(Broker& broker, BrokerId from, SubscriptionId id,
                        const Filter& filter);
  void handle_retract(Broker& broker, BrokerId from, SubscriptionId id);
  void handle_publish(Broker& broker, BrokerId came_from, std::uint64_t publication,
                      const Event& event);
  /// Re-advertises, covering-first, everything `broker` still knows that
  /// retraction left uncovered on the link toward `to`.
  void readvertise_uncovered(Broker& broker, BrokerId to);
  std::vector<std::pair<SubscriptionId, const Filter*>> advertised(
      const Broker& broker, BrokerId excluding_link) const;
  void record_delivery(std::uint64_t publication, BrokerId broker,
                       SubscriptionId id);
  void send_payload(Broker& broker, BrokerId to, Bytes payload);
  void obs_inc(obs::Counter* counter, std::uint64_t delta = 1) {
    if (counter != nullptr && delta != 0) counter->inc(delta);
  }

  net::Fabric& fabric_;
  FabricOverlayConfig config_;
  Status topology_;
  bool ready_ = false;
  bigdata::EnclaveCluster cluster_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::map<SubscriptionId, BrokerId> home_;
  std::uint64_t next_publication_ = 0;
  OverlayStats stats_;
  std::map<std::uint64_t, DeliverySet> deliveries_;
};

}  // namespace securecloud::scbr
