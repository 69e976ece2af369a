#include "scbr/fabric_overlay.hpp"

#include <algorithm>
#include <deque>

namespace securecloud::scbr {

namespace {
/// Spanning-tree check: a forest (validate_forest) that is also connected,
/// because the overlay key is released root-down over the edges.
Status validate_tree(std::size_t broker_count,
                     const std::vector<std::pair<BrokerId, BrokerId>>& links) {
  if (broker_count == 0) return Error::invalid_argument("overlay needs a broker");
  SC_RETURN_IF_ERROR(validate_forest(broker_count, links));
  if (links.size() + 1 != broker_count) {
    return Error::invalid_argument(
        "overlay links do not connect all brokers (spanning tree needs " +
        std::to_string(broker_count - 1) + " links, got " +
        std::to_string(links.size()) + ")");
  }
  return {};
}

/// Broker i's platform draws entropy seed kEntropySeedBase + i.
constexpr std::uint64_t kEntropySeedBase = 0xB40C;
constexpr std::size_t kFlightCapacity = 64;
}  // namespace

FabricOverlay::FabricOverlay(net::Fabric& fabric, FabricOverlayConfig config)
    : fabric_(fabric),
      config_(std::move(config)),
      cluster_(fabric, config_.flow, kFlightCapacity) {
  if (config_.links.empty() && config_.broker_count > 1) {
    for (BrokerId i = 0; i + 1 < config_.broker_count; ++i) {
      config_.links.emplace_back(i, i + 1);
    }
  }
  topology_ = validate_tree(config_.broker_count, config_.links);
}

FabricOverlay::~FabricOverlay() = default;

void FabricOverlay::set_obs(obs::Registry* registry) {
  if (!ready_ && registry != nullptr) cluster_.share_registry(registry);
}

void FabricOverlay::wire_counters(Broker& broker, obs::Registry* registry) {
  if (registry == nullptr) return;
  broker.obs_forwarded =
      &registry->counter("scbr_overlay_subscriptions_forwarded_total");
  broker.obs_suppressed =
      &registry->counter("scbr_overlay_subscriptions_suppressed_total");
  broker.obs_prunes = &registry->counter("scbr_overlay_table_prunes_total");
  broker.obs_hops = &registry->counter("scbr_overlay_publication_hops_total");
  broker.obs_deliveries = &registry->counter("scbr_overlay_deliveries_total");
}

Status FabricOverlay::setup(sgx::AttestationService& service) {
  if (ready_) return Error::protocol("overlay already set up");
  SC_RETURN_IF_ERROR(topology_);

  for (BrokerId i = 0; i < config_.broker_count; ++i) {
    auto broker = std::make_unique<Broker>();
    broker->index = i;
    cluster_.add_node("broker-" + std::to_string(i),
                      "platform-broker-" + std::to_string(i), kEntropySeedBase + i);
    broker->node = cluster_.node_id(i);
    brokers_.push_back(std::move(broker));
  }
  for (const auto& [a, b] : config_.links) {
    brokers_[a]->neighbours.push_back(b);
    brokers_[b]->neighbours.push_back(a);
    SC_RETURN_IF_ERROR(cluster_.connect(a, b));
  }
  SC_RETURN_IF_ERROR(cluster_.boot(service));
  for (auto& broker : brokers_) wire_counters(*broker, cluster_.registry(broker->index));

  // The cluster mints the overlay key on the root; the edges, walked
  // breadth-first from the root, release it as their first sealed record
  // — so a parent always holds the key before any of its children's
  // edges are attested, and no broker joins the data plane without
  // proving the pinned MRENCLAVE.
  std::vector<bigdata::EnclaveCluster::Edge> edges;
  std::vector<bool> visited(brokers_.size(), false);
  visited[0] = true;
  std::deque<BrokerId> frontier{0};
  while (!frontier.empty()) {
    const BrokerId at = frontier.front();
    frontier.pop_front();
    for (const BrokerId next : brokers_[at]->neighbours) {
      if (visited[next]) continue;
      visited[next] = true;
      edges.push_back({at, next, {}});
      frontier.push_back(next);
    }
  }
  SC_RETURN_IF_ERROR(cluster_.attest(
      edges, [this](std::size_t broker, net::NodeId from, Bytes payload, obs::TraceContext) {
        on_flow_payload(*brokers_[broker], from, std::move(payload));
      }));

  ready_ = true;
  return {};
}

void FabricOverlay::send_payload(Broker& broker, BrokerId to, Bytes payload) {
  // Delivery failures (dead stream past the NACK budget) surface through
  // health(); routing does not retry above the flow layer.
  (void)cluster_.flow(broker.index)->send(brokers_[to]->node, payload);
}

void FabricOverlay::on_flow_payload(Broker& broker, net::NodeId from_node,
                                    Bytes payload) {
  const std::optional<std::size_t> origin = cluster_.index_of(from_node);
  if (!origin) return;
  const BrokerId from = *origin;
  ByteReader r(payload);
  std::uint8_t type = 0;
  if (!r.get_u8(type)) return;
  switch (type) {
    case kSubscribe: {
      std::uint64_t id = 0;
      Bytes filter_wire;
      if (!r.get_u64(id) || !r.get_blob(filter_wire) || !r.done()) return;
      auto filter = Filter::deserialize(filter_wire);
      if (!filter.ok()) return;
      handle_subscribe(broker, from, id, *filter);
      return;
    }
    case kRetract: {
      std::uint64_t id = 0;
      if (!r.get_u64(id) || !r.done()) return;
      handle_retract(broker, from, id);
      return;
    }
    case kPublish: {
      std::uint64_t publication = 0;
      Bytes event_wire;
      if (!r.get_u64(publication) || !r.get_blob(event_wire) || !r.done()) return;
      auto event = Event::deserialize(event_wire);
      if (!event.ok()) return;
      handle_publish(broker, from, publication, *event);
      return;
    }
    default:
      return;
  }
}

void FabricOverlay::advertise_on_link(Broker& broker, BrokerId to,
                                      SubscriptionId id, const Filter& filter) {
  ShardedPosetEngine& sent = broker.sent[to];
  // Sender-side covering suppression: the mirror answers what
  // BrokerOverlay reads out of the receiver's table directly.
  if (sent.covered_by_any(filter)) {
    ++stats_.subscriptions_suppressed;
    obs_inc(broker.obs_suppressed);
    return;
  }
  // Mirror the receiver's covering-triggered pruning so the tables stay
  // identical; the receiver counts these prunes, the mirror does not
  // (one logical prune per link, not two).
  (void)sent.prune_covered_by(filter);
  sent.subscribe(id, filter);
  ++stats_.subscriptions_forwarded;
  obs_inc(broker.obs_forwarded);

  Bytes wire;
  put_u8(wire, kSubscribe);
  put_u64(wire, id);
  put_blob(wire, filter.serialize());
  send_payload(broker, to, std::move(wire));
}

void FabricOverlay::handle_subscribe(Broker& broker, BrokerId from,
                                     SubscriptionId id, const Filter& filter) {
  ShardedPosetEngine& recv = broker.recv[from];
  const std::size_t pruned = recv.prune_covered_by(filter).size();
  if (pruned != 0) {
    stats_.table_prunes += pruned;
    obs_inc(broker.obs_prunes, pruned);
  }
  recv.subscribe(id, filter);
  // Continue the propagation (split horizon: never back toward `from`).
  for (const BrokerId next : broker.neighbours) {
    if (next != from) advertise_on_link(broker, next, id, filter);
  }
}

std::vector<std::pair<SubscriptionId, const Filter*>> FabricOverlay::advertised(
    const Broker& broker, BrokerId excluding_link) const {
  std::vector<std::pair<SubscriptionId, const Filter*>> out;
  broker.local.for_each([&](SubscriptionId id, const Filter& filter) {
    out.emplace_back(id, &filter);
  });
  for (const auto& [link, entries] : broker.recv) {
    if (link == excluding_link) continue;
    entries.for_each([&](SubscriptionId id, const Filter& filter) {
      out.emplace_back(id, &filter);
    });
  }
  return out;
}

void FabricOverlay::readvertise_uncovered(Broker& broker, BrokerId to) {
  const ShardedPosetEngine& sent = broker.sent[to];

  // Uncovering: everything this broker still knows that the retraction
  // left neither present nor covered on the link must be re-advertised.
  struct Candidate {
    SubscriptionId id;
    const Filter* filter;
    std::size_t coverers = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& [other_id, filter] : advertised(broker, to)) {
    if (sent.find(other_id) != nullptr) continue;
    if (sent.covered_by_any(*filter)) continue;
    candidates.push_back({other_id, filter});
  }
  if (candidates.empty()) return;

  // Covering *among the re-advertised set*: broad filters first, so
  // advertise_on_link suppresses the narrow ones they cover (the
  // uncovering-inflation fix BrokerOverlay::readvertise_uncovered
  // documents — same ordering, same reasoning).
  for (auto& c : candidates) {
    for (const auto& d : candidates) {
      if (d.id != c.id && d.filter->covers(*c.filter) &&
          !c.filter->covers(*d.filter)) {
        ++c.coverers;
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.coverers != b.coverers ? a.coverers < b.coverers
                                                    : a.id < b.id;
                   });
  for (const auto& c : candidates) advertise_on_link(broker, to, c.id, *c.filter);
}

void FabricOverlay::handle_retract(Broker& broker, BrokerId from,
                                   SubscriptionId id) {
  if (!broker.recv[from].unsubscribe(id)) {
    return;  // was suppressed (or pruned) on this link
  }
  for (const BrokerId next : broker.neighbours) {
    if (next == from) continue;
    if (!broker.sent[next].unsubscribe(id)) continue;  // never forwarded there
    Bytes wire;
    put_u8(wire, kRetract);
    put_u64(wire, id);
    send_payload(broker, next, std::move(wire));
    // Pre-order uncovering: re-advertisements ride the same FIFO link
    // behind the retract, so the neighbour applies them in order; the
    // final per-link antichain is the same one BrokerOverlay's
    // post-order traversal converges to.
    readvertise_uncovered(broker, next);
  }
}

void FabricOverlay::record_delivery(std::uint64_t publication, BrokerId broker,
                                    SubscriptionId id) {
  if (config_.record_deliveries) deliveries_[publication].insert({broker, id});
}

void FabricOverlay::handle_publish(Broker& broker, BrokerId came_from,
                                   std::uint64_t publication, const Event& event) {
  if (came_from != kNoBroker) {
    ++stats_.publication_hops;
    obs_inc(broker.obs_hops);
  }
  for (SubscriptionId id : broker.local.match_with_trace(event, nullptr)) {
    record_delivery(publication, broker.index, id);
    ++stats_.deliveries;
    obs_inc(broker.obs_deliveries);
  }
  Bytes wire;  // serialized lazily, once, if any link is interested
  for (const BrokerId next : broker.neighbours) {
    if (next == came_from) continue;
    const auto link = broker.recv.find(next);
    if (link == broker.recv.end() || !link->second.matches_any(event)) continue;
    if (wire.empty()) {
      put_u8(wire, kPublish);
      put_u64(wire, publication);
      put_blob(wire, event.serialize());
    }
    send_payload(broker, next, wire);
  }
}

Status FabricOverlay::subscribe(BrokerId broker, SubscriptionId id,
                                const Filter& filter) {
  if (!ready_) return Error::protocol("overlay not set up");
  if (broker >= brokers_.size()) return Error::invalid_argument("no such broker");
  if (home_.count(id)) return Error::invalid_argument("duplicate subscription id");
  Broker& home = *brokers_[broker];
  home.local.subscribe(id, filter);
  home_[id] = broker;
  for (const BrokerId next : home.neighbours) {
    advertise_on_link(home, next, id, filter);
  }
  return {};
}

Status FabricOverlay::unsubscribe(BrokerId broker, SubscriptionId id) {
  if (!ready_) return Error::protocol("overlay not set up");
  auto home = home_.find(id);
  if (home == home_.end() || home->second != broker) {
    return Error::not_found("subscription not installed at this broker");
  }
  Broker& at = *brokers_[broker];
  at.local.unsubscribe(id);
  home_.erase(home);
  for (const BrokerId next : at.neighbours) {
    if (!at.sent[next].unsubscribe(id)) continue;  // was suppressed
    Bytes wire;
    put_u8(wire, kRetract);
    put_u64(wire, id);
    send_payload(at, next, std::move(wire));
    readvertise_uncovered(at, next);
  }
  return {};
}

Result<std::uint64_t> FabricOverlay::publish(BrokerId broker, const Event& event) {
  if (!ready_) return Error::protocol("overlay not set up");
  if (broker >= brokers_.size()) return Error::invalid_argument("no such broker");
  const std::uint64_t publication = next_publication_++;
  handle_publish(*brokers_[broker], kNoBroker, publication, event);
  return publication;
}

Result<std::vector<std::uint64_t>> FabricOverlay::publish_batch(
    BrokerId broker, const std::vector<Event>& events, common::ThreadPool* pool) {
  if (!ready_) return Error::protocol("overlay not set up");
  if (broker >= brokers_.size()) return Error::invalid_argument("no such broker");
  Broker& origin = *brokers_[broker];

  std::vector<std::uint64_t> ids(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) ids[i] = next_publication_++;

  // Parallel phase: pure reads against quiescent tables (no fabric event
  // runs concurrently), results into per-event slots.
  struct Slot {
    std::vector<SubscriptionId> local;
    std::vector<BrokerId> targets;
    Bytes wire;
  };
  std::vector<Slot> slots(events.size());
  common::run_indexed(pool, events.size(), [&](std::size_t i) {
    Slot& slot = slots[i];
    const Event& event = events[i];
    slot.local = origin.local.match_with_trace(event, nullptr);
    for (const BrokerId next : origin.neighbours) {
      const auto link = origin.recv.find(next);
      if (link != origin.recv.end() && link->second.matches_any(event)) {
        slot.targets.push_back(next);
      }
    }
    if (!slot.targets.empty()) {
      put_u8(slot.wire, kPublish);
      put_u64(slot.wire, ids[i]);
      put_blob(slot.wire, events[i].serialize());
    }
  });

  // Serial phase, batch order: identical deliveries, stats, counters, and
  // flow send sequence at any pool size.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Slot& slot = slots[i];
    for (SubscriptionId id : slot.local) {
      record_delivery(ids[i], origin.index, id);
      ++stats_.deliveries;
      obs_inc(origin.obs_deliveries);
    }
    for (const BrokerId next : slot.targets) {
      send_payload(origin, next, slot.wire);
    }
  }
  return ids;
}

Status FabricOverlay::health() const { return cluster_.health(); }

std::size_t FabricOverlay::remote_entries(BrokerId broker) const {
  if (broker >= brokers_.size()) return 0;
  std::size_t n = 0;
  for (const auto& [link, entries] : brokers_[broker]->recv) n += entries.size();
  return n;
}

std::size_t FabricOverlay::sent_entries(BrokerId broker) const {
  if (broker >= brokers_.size()) return 0;
  std::size_t n = 0;
  for (const auto& [link, entries] : brokers_[broker]->sent) n += entries.size();
  return n;
}

std::size_t FabricOverlay::local_entries(BrokerId broker) const {
  return broker < brokers_.size() ? brokers_[broker]->local.size() : 0;
}

std::size_t FabricOverlay::shard_count(BrokerId broker) const {
  if (broker >= brokers_.size()) return 0;
  const Broker& b = *brokers_[broker];
  std::size_t n = b.local.shard_count();
  for (const auto& [link, entries] : b.recv) n += entries.shard_count();
  for (const auto& [link, entries] : b.sent) n += entries.shard_count();
  return n;
}

Result<obs::ClusterSnapshot> FabricOverlay::cluster_snapshot() const {
  return cluster_.snapshot();
}

obs::NodeObs* FabricOverlay::broker_obs(BrokerId broker) {
  return broker < cluster_.size() ? cluster_.node_obs(broker) : nullptr;
}

net::NodeId FabricOverlay::broker_node(BrokerId broker) const {
  return broker < brokers_.size() ? brokers_[broker]->node : 0;
}

}  // namespace securecloud::scbr
