#include "scbr/overlay.hpp"

#include <algorithm>

namespace securecloud::scbr {

Status validate_forest(std::size_t broker_count,
                       const std::vector<std::pair<BrokerId, BrokerId>>& links) {
  std::vector<BrokerId> parent(broker_count);
  for (BrokerId i = 0; i < broker_count; ++i) parent[i] = i;
  const auto find = [&](BrokerId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  std::set<std::pair<BrokerId, BrokerId>> seen;
  for (const auto& [a, b] : links) {
    if (a >= broker_count || b >= broker_count) {
      return Error::invalid_argument("overlay link references broker " +
                                     std::to_string(std::max(a, b)) + " of " +
                                     std::to_string(broker_count));
    }
    if (a == b) {
      return Error::invalid_argument("overlay self-loop at broker " + std::to_string(a));
    }
    if (!seen.insert({std::min(a, b), std::max(a, b)}).second) {
      return Error::invalid_argument("duplicate overlay link " + std::to_string(a) +
                                     "-" + std::to_string(b));
    }
    const BrokerId ra = find(a), rb = find(b);
    if (ra == rb) {
      return Error::invalid_argument("overlay links contain a cycle through broker " +
                                     std::to_string(a));
    }
    parent[ra] = rb;
  }
  return {};
}

BrokerOverlay::BrokerOverlay(std::size_t broker_count,
                             const std::vector<std::pair<BrokerId, BrokerId>>& links)
    : brokers_(broker_count), topology_(validate_forest(broker_count, links)) {
  if (!topology_.ok()) return;  // inert: no neighbour lists to recurse on
  for (const auto& [a, b] : links) {
    brokers_[a].neighbours.push_back(b);
    brokers_[b].neighbours.push_back(a);
  }
}

std::vector<std::pair<SubscriptionId, const Filter*>> BrokerOverlay::advertised(
    BrokerId at, BrokerId to) const {
  // Everything `at` knows except what it learned FROM `to` (split
  // horizon on the tree).
  std::vector<std::pair<SubscriptionId, const Filter*>> out;
  const Broker& broker = brokers_[at];
  broker.local.for_each([&](SubscriptionId id, const Filter& filter) {
    out.emplace_back(id, &filter);
  });
  for (const auto& [link, entries] : broker.per_link) {
    if (link == to) continue;
    entries.for_each([&](SubscriptionId id, const Filter& filter) {
      out.emplace_back(id, &filter);
    });
  }
  return out;
}

void BrokerOverlay::propagate(BrokerId from, BrokerId to, SubscriptionId id,
                              const Filter& filter) {
  // Explicit worklist in DFS preorder — identical decision/hop order to
  // the natural recursion, without a stack frame per overlay hop.
  struct Edge {
    BrokerId from, to;
  };
  const std::size_t wire_bytes = hop_ ? filter.serialize().size() : 0;
  std::vector<Edge> worklist{{from, to}};
  while (!worklist.empty()) {
    const Edge edge = worklist.back();
    worklist.pop_back();
    Broker& target = brokers_[edge.to];
    ShardedPosetEngine& entries = target.per_link[edge.from];

    // Covering suppression happens at the *sender*: `from` does not
    // forward a filter to `to` if it already advertised a covering
    // filter on that link. We model the sender's view by probing the
    // entries the receiver holds for this link (they mirror what was
    // sent). Root scan per shard — sublinear in advertised filters.
    if (entries.covered_by_any(filter)) {
      ++stats_.subscriptions_suppressed;
      obs_inc(obs_suppressed_);
      continue;  // neighbour already receives a superset: stop here
    }

    // Covering-triggered pruning: entries this filter covers become
    // redundant for the link's interest test the moment the coverer is
    // advertised, so drop them instead of letting the table inflate.
    // (Their retraction later finds them absent and stops — exactly the
    // suppressed-subscription path.)
    const std::size_t pruned = entries.prune_covered_by(filter).size();
    if (pruned != 0) {
      stats_.table_prunes += pruned;
      if (obs_prunes_ != nullptr) obs_prunes_->inc(pruned);
    }

    ++stats_.subscriptions_forwarded;
    obs_inc(obs_forwarded_);
    if (hop_) hop_(edge.from, edge.to, wire_bytes);
    entries.subscribe(id, filter);

    // Forward onward (split horizon: never back toward `from`).
    // Reverse push keeps neighbour processing in declaration order.
    const auto& neighbours = target.neighbours;
    for (auto it = neighbours.rbegin(); it != neighbours.rend(); ++it) {
      if (*it != edge.from) worklist.push_back({edge.to, *it});
    }
  }
}

Status BrokerOverlay::subscribe(BrokerId broker, SubscriptionId id,
                                const Filter& filter) {
  if (!topology_.ok()) return topology_.error();
  if (broker >= brokers_.size()) return Error::invalid_argument("no such broker");
  if (home_.count(id)) return Error::invalid_argument("duplicate subscription id");
  brokers_[broker].local.subscribe(id, filter);
  home_[id] = broker;
  for (const BrokerId neighbour : brokers_[broker].neighbours) {
    propagate(broker, neighbour, id, filter);
  }
  return {};
}

void BrokerOverlay::readvertise_uncovered(BrokerId from, BrokerId to) {
  const ShardedPosetEngine& entries = brokers_[to].per_link[from];

  // Uncovering: filters at `from` that were suppressed (or pruned)
  // because the removed filter covered them must now be re-advertised
  // to `to` — everything `from` still knows that is neither present nor
  // covered by a remaining entry on this link.
  struct Candidate {
    SubscriptionId id;
    const Filter* filter;
    std::size_t coverers = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& [other_id, filter] : advertised(from, to)) {
    if (entries.find(other_id) != nullptr) continue;
    if (entries.covered_by_any(*filter)) continue;
    candidates.push_back({other_id, filter});
  }
  if (candidates.empty()) return;

  // Apply covering *among the re-advertised set*: re-advertise broad
  // filters first so propagate() suppresses the narrow ones they cover.
  // In any other order a narrow filter admitted early sticks in the
  // table forever — subscribe→unsubscribe→re-subscribe then holds more
  // state than a fresh subscribe of the same set. Candidates are ordered
  // by how many other candidates strictly cover them (coverers sort
  // before covered; ties and equivalent filters by id).
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
  for (const auto& c : candidates) propagate(from, to, c.id, *c.filter);
}

void BrokerOverlay::retract(BrokerId from, BrokerId to, SubscriptionId id) {
  // Post-order worklist: remove the entry hop by hop down the tree, then
  // run uncovering per edge on the way back — the order the natural
  // recursion produced, without frames proportional to overlay depth.
  struct Frame {
    BrokerId from, to;
    bool uncover;
  };
  std::vector<Frame> stack{{from, to, false}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.uncover) {
      readvertise_uncovered(frame.from, frame.to);
      continue;
    }
    Broker& target = brokers_[frame.to];
    auto it = target.per_link.find(frame.from);
    if (it == target.per_link.end() || !it->second.unsubscribe(id)) {
      continue;  // was suppressed (or pruned) on this link
    }
    stack.push_back({frame.from, frame.to, true});  // uncover after subtree
    const auto& neighbours = target.neighbours;
    for (auto r = neighbours.rbegin(); r != neighbours.rend(); ++r) {
      if (*r != frame.from) stack.push_back({frame.to, *r, false});
    }
  }
}

Status BrokerOverlay::unsubscribe(BrokerId broker, SubscriptionId id) {
  if (!topology_.ok()) return topology_.error();
  auto home = home_.find(id);
  if (home == home_.end() || home->second != broker) {
    return Error::not_found("subscription not installed at this broker");
  }
  brokers_[broker].local.unsubscribe(id);
  home_.erase(home);
  for (const BrokerId neighbour : brokers_[broker].neighbours) {
    retract(broker, neighbour, id);
  }
  return {};
}

Result<std::vector<SubscriptionId>> BrokerOverlay::publish(BrokerId broker,
                                                           const Event& event) {
  if (!topology_.ok()) return topology_.error();
  if (broker >= brokers_.size()) return Error::invalid_argument("no such broker");
  constexpr BrokerId kNone = static_cast<BrokerId>(-1);
  struct Frame {
    BrokerId at, came_from;
  };
  const std::size_t wire_bytes = hop_ ? event.serialize().size() : 0;
  std::vector<SubscriptionId> out;
  std::vector<Frame> stack{{broker, kNone}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.came_from != kNone) {
      // This edge was chosen by the interest test below: charge the hop
      // when the publication actually traverses it.
      ++stats_.publication_hops;
      obs_inc(obs_hops_);
      if (hop_) hop_(frame.came_from, frame.at, wire_bytes);
    }
    Broker& here = brokers_[frame.at];

    // Local deliveries via the broker's containment index.
    for (SubscriptionId id : here.local.match_with_trace(event, nullptr)) {
      out.push_back(id);
      ++stats_.deliveries;
      obs_inc(obs_deliveries_);
    }

    // Forward toward a neighbour only if some subscriber behind it is
    // interested: per_link[next] holds the filters advertised from that
    // direction, and matches_any() is a per-shard root scan.
    for (auto it = here.neighbours.rbegin(); it != here.neighbours.rend(); ++it) {
      const BrokerId next = *it;
      if (next == frame.came_from) continue;
      const auto link = here.per_link.find(next);
      if (link != here.per_link.end() && link->second.matches_any(event)) {
        stack.push_back({next, frame.at});
      }
    }
  }
  return out;
}

void BrokerOverlay::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_forwarded_ = obs_suppressed_ = obs_prunes_ = obs_hops_ = obs_deliveries_ =
        nullptr;
    return;
  }
  obs_forwarded_ = &registry->counter("scbr_overlay_subscriptions_forwarded_total");
  obs_suppressed_ = &registry->counter("scbr_overlay_subscriptions_suppressed_total");
  obs_prunes_ = &registry->counter("scbr_overlay_table_prunes_total");
  obs_hops_ = &registry->counter("scbr_overlay_publication_hops_total");
  obs_deliveries_ = &registry->counter("scbr_overlay_deliveries_total");
}

std::size_t BrokerOverlay::remote_entries(BrokerId broker) const {
  if (broker >= brokers_.size()) return 0;
  std::size_t n = 0;
  for (const auto& [link, entries] : brokers_[broker].per_link) {
    n += entries.size();
  }
  return n;
}

}  // namespace securecloud::scbr
