#include "net/fabric.hpp"

#include <utility>

namespace securecloud::net {

namespace {
/// Serialization (transmission) delay of one frame, exact integer math.
std::uint64_t serialization_ns(std::size_t bytes, std::uint64_t bytes_per_sec) {
  if (bytes_per_sec == 0) return 0;
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(bytes) *
                                    1'000'000'000u / bytes_per_sec);
}
}  // namespace

NodeId Fabric::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name), {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

Fabric::Link* Fabric::find_link(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  auto it = links_.find(link_key(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

Status Fabric::connect(NodeId a, NodeId b, LinkConfig config) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Error::invalid_argument("connect: unknown node");
  }
  if (a == b) return Error::invalid_argument("connect: self-link (loopback is implicit)");
  if (a > b) std::swap(a, b);
  if (!links_.emplace(link_key(a, b), Link{config, false}).second) {
    return Error::invalid_argument("connect: link already exists");
  }
  return {};
}

Status Fabric::set_handler(NodeId node, std::uint32_t channel, Handler handler) {
  if (node >= nodes_.size()) return Error::invalid_argument("set_handler: unknown node");
  nodes_[node].handlers[channel] = std::move(handler);
  return {};
}

Status Fabric::set_partitioned(NodeId a, NodeId b, bool partitioned) {
  Link* link = find_link(a, b);
  if (link == nullptr) return Error::not_found("set_partitioned: no such link");
  // Sends issued before this call must be admitted against the old
  // partition state — the flip is itself an ordered observation point.
  std::lock_guard<std::mutex> lock(mu_);
  admit_ingress();
  link->partitioned = partitioned;
  return {};
}

Status Fabric::set_compute_skew(NodeId node, std::uint32_t numerator,
                                std::uint32_t denominator) {
  if (node >= nodes_.size()) {
    return Error::invalid_argument("set_compute_skew: unknown node");
  }
  if (numerator == 0 || denominator == 0) {
    return Error::invalid_argument("set_compute_skew: zero ratio");
  }
  compute_skews_[node] = {numerator, denominator};
  return {};
}

std::uint64_t Fabric::scaled_compute_ns(NodeId node, std::uint64_t ns) const {
  const auto it = compute_skews_.find(node);
  if (it == compute_skews_.end()) return ns;
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(ns) *
                                    it->second.first / it->second.second);
}

void Fabric::enable_delivery_log(std::size_t capacity) {
  delivery_log_enabled_ = true;
  delivery_log_capacity_ = capacity;
  deliveries_.clear();
  deliveries_.reserve(capacity < 1024 ? capacity : 1024);
}

std::vector<std::string> Fabric::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const Node& node : nodes_) names.push_back(node.name);
  return names;
}

void Fabric::set_obs(obs::Registry* registry, obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    obs_messages_sent_ = obs_messages_delivered_ = obs_messages_dropped_ =
        obs_messages_unhandled_ = obs_frames_sent_ = obs_frames_dropped_ =
            obs_frames_duplicated_ = obs_frames_reordered_ = obs_bytes_sent_ =
                obs_bytes_delivered_ = obs_timers_fired_ = nullptr;
    obs_queue_depth_ = nullptr;
    return;
  }
  obs_messages_sent_ = &registry->counter("net_messages_sent_total");
  obs_messages_delivered_ = &registry->counter("net_messages_delivered_total");
  obs_messages_dropped_ = &registry->counter("net_messages_dropped_total");
  obs_messages_unhandled_ = &registry->counter("net_messages_unhandled_total");
  obs_frames_sent_ = &registry->counter("net_frames_sent_total");
  obs_frames_dropped_ = &registry->counter("net_frames_dropped_total");
  obs_frames_duplicated_ = &registry->counter("net_frames_duplicated_total");
  obs_frames_reordered_ = &registry->counter("net_frames_reordered_total");
  obs_bytes_sent_ = &registry->counter("net_bytes_sent_total");
  obs_bytes_delivered_ = &registry->counter("net_bytes_delivered_total");
  obs_timers_fired_ = &registry->counter("net_timers_fired_total");
  obs_queue_depth_ = &registry->gauge("net_queue_depth");
}

void Fabric::push_event(EventItem event) {
  event.seq = next_seq_++;
  queue_.push(std::move(event));
}

void Fabric::set_queue_gauge() {
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
}

Status Fabric::send(NodeId src, NodeId dst, std::uint32_t channel, Bytes payload,
                    obs::TraceContext trace) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Error::invalid_argument("send: unknown node");
  }
  // Misuse is reported synchronously (topology is immutable during the
  // concurrent phase, so this read races nothing); the send is still
  // ticketed so its stats bumps land in admission order like the old
  // mutex path counted them.
  Status result = {};
  if (src != dst && find_link(src, dst) == nullptr) {
    result = Error::not_found("send: no link " + nodes_[src].name + " -> " +
                              nodes_[dst].name);
  }
  Ingress in;
  in.kind = Ingress::Kind::kSend;
  in.src = src;
  in.dst = dst;
  in.channel = channel;
  in.payload = std::move(payload);
  in.trace = trace;
  ingress_.push(std::move(in));
  return result;
}

void Fabric::schedule(std::uint64_t delay_ns, TimerFn fn) {
  Ingress in;
  in.kind = Ingress::Kind::kTimer;
  in.delay_ns = delay_ns;
  in.timer = std::move(fn);
  ingress_.push(std::move(in));
}

/// Drains the ingress rings and replays each completed send()/schedule()
/// in ticket order. Caller holds mu_; this is the only writer of the
/// event queue, stats, and fault-decision streams, so the schedule is a
/// pure function of (topology, ticket order, seed).
void Fabric::admit_ingress() {
  ingress_batch_.clear();
  ingress_.drain(ingress_batch_);
  if (ingress_batch_.empty()) return;
  for (auto& item : ingress_batch_) {
    Ingress& in = item.value;
    if (in.kind == Ingress::Kind::kTimer) {
      push_event(
          EventItem{.at_ns = now_ns_ + in.delay_ns, .timer = std::move(in.timer)});
    } else {
      admit_send(std::move(in));
    }
  }
  ingress_batch_.clear();
  set_queue_gauge();
}

void Fabric::admit_send(Ingress&& in) {
  const std::size_t payload_size = in.payload.size();
  ++stats_.messages_sent;
  bump(obs_messages_sent_);
  stats_.bytes_sent += payload_size;
  bump(obs_bytes_sent_, payload_size);

  // Loopback: no link, no latency, no faults — but still an event, so
  // handler re-entry stays impossible and ordering stays queue-defined.
  if (in.src == in.dst) {
    const std::uint64_t id = next_message_id_++;
    Pending& p = pending_[id];
    p.src = in.src;
    p.dst = in.dst;
    p.channel = in.channel;
    p.trace = in.trace;
    p.send_cycles = clock_->cycles();
    p.frags_total = 1;
    p.have.assign(1, false);
    p.payload = std::move(in.payload);
    p.frames_in_flight = 1;
    ++stats_.frames_sent;
    bump(obs_frames_sent_);
    push_event(EventItem{.at_ns = now_ns_, .message_id = id, .frag_index = 0,
                         .frag_total = 1, .timer = nullptr});
    return;
  }

  Link* link = find_link(in.src, in.dst);
  if (link == nullptr) return;  // send() already reported the misuse

  // Whole-message drops: an explicit partition, or a kNetPartition fault
  // (a transient routing black hole). Decision order per message is fixed
  // (partition, then per frame: loss, duplicate, reorder) — part of the
  // deterministic schedule function.
  if (link->partitioned ||
      (faults_ != nullptr && faults_->should_fire(common::FaultKind::kNetPartition))) {
    ++stats_.messages_dropped;
    bump(obs_messages_dropped_);
    return;  // the network ate it; not a caller error
  }

  const LinkConfig& cfg = link->config;
  const std::size_t mtu = cfg.mtu_bytes == 0 ? payload_size + 1 : cfg.mtu_bytes;
  const std::uint32_t frags =
      payload_size == 0
          ? 1
          : static_cast<std::uint32_t>((payload_size + mtu - 1) / mtu);

  const std::uint64_t id = next_message_id_++;
  Pending p;
  p.src = in.src;
  p.dst = in.dst;
  p.channel = in.channel;
  p.trace = in.trace;
  p.send_cycles = clock_->cycles();
  p.frags_total = frags;
  p.have.assign(frags, false);
  p.payload = std::move(in.payload);

  std::uint64_t ser_ns = 0;  // cumulative serialization delay on this link
  for (std::uint32_t i = 0; i < frags; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * mtu;
    const std::size_t len = std::min(mtu, payload_size - off);
    ++stats_.frames_sent;
    bump(obs_frames_sent_);
    ser_ns += serialization_ns(len, cfg.bandwidth_bytes_per_sec);

    if (faults_ != nullptr && faults_->should_fire(common::FaultKind::kNetLoss)) {
      ++stats_.frames_dropped;
      bump(obs_frames_dropped_);
      p.dead = true;  // the message can never reassemble
      // Duplicate/reorder decisions for a lost frame are still *taken* so
      // the per-kind decision streams stay aligned across runs that lose
      // different frames only by seed.
      if (faults_ != nullptr) {
        (void)faults_->should_fire(common::FaultKind::kNetDuplicate);
        (void)faults_->should_fire(common::FaultKind::kNetReorder);
      }
      continue;
    }

    std::uint64_t at = now_ns_ + cfg.latency_ns + ser_ns;
    const bool duplicate =
        faults_ != nullptr && faults_->should_fire(common::FaultKind::kNetDuplicate);
    if (faults_ != nullptr && faults_->should_fire(common::FaultKind::kNetReorder)) {
      ++stats_.frames_reordered;
      bump(obs_frames_reordered_);
      at += 2 * cfg.latency_ns;  // shoved behind later traffic
    }

    ++p.frames_in_flight;
    push_event(EventItem{.at_ns = at, .message_id = id, .frag_index = i,
                         .frag_total = frags, .timer = nullptr});
    if (duplicate) {
      ++stats_.frames_duplicated;
      bump(obs_frames_duplicated_);
      ++p.frames_in_flight;
      push_event(EventItem{.at_ns = at + cfg.latency_ns, .message_id = id,
                           .frag_index = i, .frag_total = frags, .timer = nullptr});
    }
  }

  if (p.dead) {
    ++stats_.messages_dropped;
    bump(obs_messages_dropped_);
  }
  if (p.frames_in_flight > 0) {
    pending_.emplace(id, std::move(p));  // keep: surviving frames must drain
  }
}

bool Fabric::idle() const {
  Fabric* self = const_cast<Fabric*>(this);
  std::lock_guard<std::mutex> lock(mu_);
  self->admit_ingress();
  return queue_.empty();
}

std::uint64_t Fabric::now_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_ns_;
}

const FabricStats& Fabric::stats() const {
  Fabric* self = const_cast<Fabric*>(this);
  std::lock_guard<std::mutex> lock(mu_);
  self->admit_ingress();
  return stats_;
}

std::size_t Fabric::run_until_idle(std::size_t max_events) {
  obs::Span span(tracer_, "net.run");
  std::size_t processed = 0;
  while (processed < max_events) {
    // Admit pending ingress, pull the next event, and mutate fabric state
    // under the lock; invoke the user callback (handler or timer) with
    // the lock released so it can send() and schedule(). Admission runs
    // before every pop, so a handler's sends are ordered into the queue
    // before the next event dispatches — exactly as when send() pushed
    // under the lock directly.
    Handler handler;  // copy: registrations may change between events
    Message message;
    bool deliver = false;
    bool unhandled = false;
    TimerFn timer;
    {
      std::lock_guard<std::mutex> lock(mu_);
      admit_ingress();
      if (queue_.empty()) break;
      EventItem event = queue_.top();
      queue_.pop();
      set_queue_gauge();
      ++processed;
      if (event.at_ns > now_ns_) {
        clock_->advance_ns(event.at_ns - now_ns_);
        now_ns_ = event.at_ns;
      }

      if (event.frag_total == 0) {
        ++stats_.timers_fired;
        bump(obs_timers_fired_);
        timer = std::move(event.timer);
      } else {
        auto it = pending_.find(event.message_id);
        if (it != pending_.end()) {
          Pending& p = it->second;
          --p.frames_in_flight;
          if (!p.dead && !p.have[event.frag_index]) {
            p.have[event.frag_index] = true;
            ++p.frags_received;
          }
          if (!p.dead && p.frags_received == p.frags_total) {
            ++stats_.messages_delivered;
            bump(obs_messages_delivered_);
            stats_.bytes_delivered += p.payload.size();
            bump(obs_bytes_delivered_, p.payload.size());
            if (delivery_log_enabled_ &&
                deliveries_.size() < delivery_log_capacity_) {
              deliveries_.push_back(obs::LinkDelivery{
                  .src = p.src,
                  .dst = p.dst,
                  .channel = p.channel,
                  .bytes = p.payload.size(),
                  .trace_id = p.trace.trace_id,
                  .send_cycles = p.send_cycles,
                  .deliver_cycles = clock_->cycles()});
            }
            message = Message{p.src, p.dst, p.channel, std::move(p.payload),
                              p.trace};
            auto& handlers = nodes_[p.dst].handlers;
            auto h = handlers.find(p.channel);
            if (h != handlers.end() && h->second) {
              handler = h->second;
              deliver = true;
            } else {
              ++stats_.messages_unhandled;
              bump(obs_messages_unhandled_);
              unhandled = true;
            }
            pending_.erase(it);  // stragglers (late duplicates) are ignored
          } else if (p.frames_in_flight == 0) {
            pending_.erase(it);  // dead or duplicate-drained: nothing left
          }
        }
        // else: duplicate frame of an already-delivered message — ignore.
      }
    }
    if (timer) timer();
    if (deliver) handler(message);
    (void)unhandled;
  }
  if (tracer_ != nullptr) {
    span.set_attribute("events", std::to_string(processed));
  }
  return processed;
}

}  // namespace securecloud::net
