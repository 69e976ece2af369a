// Multi-broker content-based routing overlay.
//
// CBR deployments (§V-B cites the pub/sub literature [14]) run a
// *network* of routers: subscriptions propagate from edge brokers toward
// the rest of the overlay so publications flow only toward interested
// subscribers. The classic optimization — which SCBR's containment
// machinery enables — is *covering-based forwarding*: a broker does not
// forward a subscription to a neighbour if an already-forwarded
// subscription covers it, cutting routing-table state and forwarded
// traffic.
//
// This module implements a tree overlay of brokers, each running its own
// (enclave-hostable) matching engine:
//   * subscribe(broker, id, filter): installs locally and propagates with
//     covering suppression;
//   * publish(broker, event): routes hop by hop, following only links
//     whose forwarded filters match, delivering at brokers with matching
//     local subscribers;
//   * unsubscribe: retracts, re-advertising previously covered filters
//     that became uncovered ("uncovering" — the subtle part of the
//     protocol, exercised heavily in tests).
#pragma once

#include <functional>
#include <map>
#include <set>

#include "obs/registry.hpp"
#include "scbr/sharded_engine.hpp"

namespace securecloud::scbr {

using BrokerId = std::size_t;

struct OverlayStats {
  std::uint64_t subscriptions_forwarded = 0;
  std::uint64_t subscriptions_suppressed = 0;  // covering saved a forward
  std::uint64_t table_prunes = 0;  // entries dropped when a coverer arrived
  std::uint64_t publication_hops = 0;
  std::uint64_t deliveries = 0;
};

/// Validates that `links` form a forest over [0, broker_count): ids in
/// range, no self-loops, no duplicate links, no cycles (union-find).
Status validate_forest(std::size_t broker_count,
                       const std::vector<std::pair<BrokerId, BrokerId>>& links);

class BrokerOverlay {
 public:
  /// Builds an overlay with `broker_count` brokers connected by `links`
  /// (undirected pairs). The links must form a forest (acyclic, ids in
  /// range, no self-loops or duplicate links) — the standard CBR overlay
  /// topology, which guarantees loop-free routing without duplicate
  /// suppression. A bad topology is rejected at construction: the
  /// overlay stays inert and every operation returns the validation
  /// error (check topology() to fail fast). Cycles would otherwise loop
  /// forever in the propagate/retract/publish worklists, and
  /// out-of-range ids would index brokers_ out of bounds.
  BrokerOverlay(std::size_t broker_count,
                const std::vector<std::pair<BrokerId, BrokerId>>& links);

  /// Ok iff the constructor's link set was a valid forest.
  const Status& topology() const { return topology_; }

  /// Installs a subscription for a subscriber attached to `broker`.
  /// Propagates through the overlay with covering suppression.
  Status subscribe(BrokerId broker, SubscriptionId id, const Filter& filter);

  /// Removes a subscription previously installed at `broker`.
  Status unsubscribe(BrokerId broker, SubscriptionId id);

  /// Publishes at `broker`; returns ids of all matching subscriptions
  /// overlay-wide (each reached via its home broker).
  Result<std::vector<SubscriptionId>> publish(BrokerId broker, const Event& event);

  const OverlayStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Mirrors OverlayStats into `scbr_overlay_*` metrics. Routing is a
  /// serial worklist traversal, so every bump site is deterministic.
  void set_obs(obs::Registry* registry);

  /// Optional data-plane shadow: invoked once per overlay message that
  /// crosses a link — a subscription forward from propagate() or a
  /// publication hop from route() — with the (from, to) brokers and the
  /// message's serialized size. net::Fabric-backed transports use it to
  /// charge per-hop latency and bandwidth into the simulated cluster
  /// (see tests/net_test.cpp); unset, routing stays purely logical.
  using HopTransport =
      std::function<void(BrokerId from, BrokerId to, std::size_t bytes)>;
  void set_hop_transport(HopTransport hop) { hop_ = std::move(hop); }

  /// Routing-table sizes (for the covering-efficiency benchmarks):
  /// number of remote filter entries broker `b` holds per neighbour link.
  std::size_t remote_entries(BrokerId broker) const;

 private:
  struct Broker {
    std::vector<BrokerId> neighbours;
    /// Local subscriptions (subscriber attached here), indexed for
    /// sublinear delivery matching.
    ShardedPosetEngine local;
    /// Filters learned per neighbour, each link a sharded containment
    /// index: the per-hop interest test is a root scan per shard
    /// (matches_any) instead of a walk over every advertised filter,
    /// and covering suppression is a covered_by_any() probe.
    std::map<BrokerId, ShardedPosetEngine> per_link;
  };

  /// Forwards `filter` across edge (from, to) and onward through the
  /// tree, applying covering suppression and covering-triggered pruning.
  /// Iterative (explicit worklist): chains of 10⁴+ brokers must not
  /// overflow the stack.
  void propagate(BrokerId from, BrokerId to, SubscriptionId id, const Filter& filter);
  void retract(BrokerId from, BrokerId to, SubscriptionId id);
  /// Re-advertises, covering-first, everything `from` still advertises
  /// toward `to` that retraction left uncovered on the link.
  void readvertise_uncovered(BrokerId from, BrokerId to);
  /// All filters broker `at` would advertise toward neighbour `to`
  /// (local + everything learned from other links).
  std::vector<std::pair<SubscriptionId, const Filter*>> advertised(BrokerId at,
                                                                   BrokerId to) const;

  /// Bumps the obs mirror of one OverlayStats field (no-op when unwired).
  void obs_inc(obs::Counter* counter) {
    if (counter != nullptr) counter->inc();
  }

  std::vector<Broker> brokers_;
  std::map<SubscriptionId, BrokerId> home_;  // subscription -> home broker
  OverlayStats stats_;
  Status topology_;
  HopTransport hop_;

  obs::Counter* obs_forwarded_ = nullptr;
  obs::Counter* obs_suppressed_ = nullptr;
  obs::Counter* obs_prunes_ = nullptr;
  obs::Counter* obs_hops_ = nullptr;
  obs::Counter* obs_deliveries_ = nullptr;
};

}  // namespace securecloud::scbr
