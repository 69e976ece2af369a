#include "bigdata/flow.hpp"

namespace securecloud::bigdata {

FlowNode::FlowNode(net::Fabric& fabric, net::NodeId self, ByteView key,
                   FlowConfig config)
    : fabric_(fabric),
      self_(self),
      key_(key.begin(), key.end()),
      config_(config) {
  (void)fabric_.set_handler(self_, kChunkChannel,
                            [this](const net::Message& m) { on_chunk(m); });
  (void)fabric_.set_handler(self_, kControlChannel,
                            [this](const net::Message& m) { on_control(m); });
}

void FlowNode::set_obs(obs::Registry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    obs_payloads_sent_ = obs_payloads_delivered_ = obs_payload_bytes_sent_ =
        obs_payload_bytes_delivered_ = obs_chunks_sent_ = obs_nacks_sent_ =
            obs_retransmits_ = obs_beacons_sent_ = nullptr;
    obs_chunks_in_flight_ = obs_chunks_queued_ = nullptr;
    return;
  }
  obs_payloads_sent_ = &registry->counter("net_flow_payloads_sent_total");
  obs_payloads_delivered_ = &registry->counter("net_flow_payloads_delivered_total");
  obs_payload_bytes_sent_ = &registry->counter("net_flow_payload_bytes_sent_total");
  obs_payload_bytes_delivered_ =
      &registry->counter("net_flow_payload_bytes_delivered_total");
  obs_chunks_sent_ = &registry->counter("net_flow_chunks_sent_total");
  obs_nacks_sent_ = &registry->counter("net_flow_nacks_sent_total");
  obs_retransmits_ = &registry->counter("net_flow_retransmits_total");
  obs_beacons_sent_ = &registry->counter("net_flow_beacons_sent_total");
  obs_chunks_in_flight_ = &registry->gauge("net_flow_chunks_in_flight");
  obs_chunks_queued_ = &registry->gauge("net_flow_chunks_queued");
  for (auto& [peer, out] : outbound_) out.sender->set_obs(registry);
  for (auto& [peer, in] : inbound_) in.receiver->set_obs(registry);
}

FlowNode::Outbound& FlowNode::outbound(net::NodeId dst) {
  auto it = outbound_.find(dst);
  if (it == outbound_.end()) {
    auto sender = std::make_unique<SecureTransferSender>(
        key_, stream_id(self_, dst), config_.chunk_size,
        config_.retransmit_buffer_chunks);
    sender->set_obs(registry_);
    it = outbound_.try_emplace(dst).first;
    it->second.sender = std::move(sender);
  }
  return it->second;
}

FlowNode::Inbound& FlowNode::inbound(net::NodeId src) {
  auto it = inbound_.find(src);
  if (it == inbound_.end()) {
    auto receiver = std::make_unique<SecureTransferReceiver>(
        key_, stream_id(src, self_), fabric_.clock(), config_.max_nacks_per_gap);
    receiver->set_obs(registry_);
    it = inbound_.emplace(src, Inbound{std::move(receiver)}).first;
  }
  return it->second;
}

void FlowNode::send_chunk(net::NodeId dst, std::uint64_t high_water,
                          ByteView wire, obs::TraceContext trace) {
  // Chunk envelope: the sender's high-water mark rides along so the
  // receiver can detect trailing losses without waiting for a beacon,
  // and the trace context so delivered payloads keep their causal
  // parent across the hop.
  Bytes envelope;
  put_u64(envelope, high_water);
  obs::put_trace_context(envelope, trace);
  put_blob(envelope, wire);
  (void)fabric_.send(self_, dst, kChunkChannel, std::move(envelope), trace);
}

void FlowNode::note_flight(const char* category, net::NodeId peer,
                           std::uint64_t value) {
  if (flight_ == nullptr) return;
  flight_->record(category, "peer=" + std::to_string(peer) +
                                " seq=" + std::to_string(value));
}

void FlowNode::send_control(net::NodeId dst, std::uint8_t type,
                            std::uint64_t value) {
  Bytes wire;
  put_u8(wire, type);
  put_u64(wire, value);
  (void)fabric_.send(self_, dst, kControlChannel, std::move(wire));
}

void FlowNode::mark_peer_dead(Outbound& out, Status reason) {
  out.dead = true;
  out.death_reason = std::move(reason);
}

void FlowNode::notify_peer_dead(net::NodeId peer) {
  if (dead_notified_.insert(peer).second && on_peer_dead_) on_peer_dead_(peer);
}

void FlowNode::quiesce() {
  if (quiesced_) return;
  std::set<net::NodeId> peers;
  for (const auto& [peer, out] : outbound_) peers.insert(peer);
  for (const auto& [peer, in] : inbound_) peers.insert(peer);
  for (net::NodeId peer : peers) send_control(peer, kDead, 0);
  quiesced_ = true;
  outbound_.clear();
  inbound_.clear();
  refresh_depth();
}

void FlowNode::abandon_peer(net::NodeId peer) {
  outbound_.erase(peer);
  inbound_.erase(peer);
  refresh_depth();
}

Status FlowNode::send(net::NodeId dst, ByteView payload,
                      obs::TraceContext trace) {
  if (quiesced_) return Error::unavailable("flow node quiesced");
  Outbound& out = outbound(dst);
  if (out.dead) return out.death_reason;
  out.last_trace = trace;
  const std::vector<Bytes> chunks = out.sender->send(payload);
  for (const Bytes& chunk : chunks) {
    ++out.chunks_sent;
    ++stats_.chunks_sent;
    bump(obs_chunks_sent_);
    send_chunk(dst, out.chunks_sent, chunk, trace);
  }
  ++stats_.payloads_sent;
  bump(obs_payloads_sent_);
  stats_.payload_bytes_sent += payload.size();
  if (obs_payload_bytes_sent_ != nullptr) {
    obs_payload_bytes_sent_->inc(payload.size());
  }
  refresh_depth();
  arm_timer();
  return {};
}

void FlowNode::on_chunk(const net::Message& message) {
  if (quiesced_) return;  // dead hosts parse nothing and bump nothing
  ByteReader r(message.payload);
  std::uint64_t high_water = 0;
  obs::TraceContext trace;
  Bytes wire;
  if (!r.get_u64(high_water) || !obs::get_trace_context(r, trace) ||
      !r.get_blob(wire) || !r.done()) {
    // A frame-level corruption model would live in the fabric; a bad
    // envelope here means a peer bug — drop it, the gap machinery
    // re-requests whatever it carried.
    return;
  }
  Inbound& in = inbound(message.src);
  auto payloads = in.receiver->receive(wire);
  if (!payloads.ok()) {
    // The receiver's own health() surfaces this stream failure.
    note_flight("dead_stream", message.src, in.receiver->next_expected());
    send_control(message.src, kDead, 0);
    return;
  }
  if (high_water > 0) {
    (void)in.receiver->expect_through(high_water - 1);
  }
  if (!payloads->empty()) {
    // Progress: cumulatively ack so the peer can retire its beacons.
    send_control(message.src, kAck, in.receiver->next_expected());
    for (Bytes& payload : *payloads) {
      ++stats_.payloads_delivered;
      bump(obs_payloads_delivered_);
      stats_.payload_bytes_delivered += payload.size();
      if (obs_payload_bytes_delivered_ != nullptr) {
        obs_payload_bytes_delivered_->inc(payload.size());
      }
      if (on_payload_) on_payload_(message.src, std::move(payload), trace);
    }
  }
  refresh_depth();
  // A payload handler may have quiesced this node or abandoned the
  // sender, destroying `in`: look the stream up again.
  const auto it = inbound_.find(message.src);
  if (it != inbound_.end() && it->second.receiver->has_pending_gaps()) arm_timer();
}

void FlowNode::on_control(const net::Message& message) {
  if (quiesced_) return;
  ByteReader r(message.payload);
  std::uint8_t type = 0;
  std::uint64_t value = 0;
  if (!r.get_u8(type) || !r.get_u64(value) || !r.done()) return;
  switch (type) {
    case kNack: {
      auto it = outbound_.find(message.src);
      if (it == outbound_.end()) return;
      auto wire = it->second.sender->retransmit(value);
      if (wire.ok()) {
        ++stats_.retransmits;
        bump(obs_retransmits_);
        note_flight("retransmit", message.src, value);
        send_chunk(message.src, it->second.chunks_sent, *wire,
                   it->second.last_trace);
      }
      // kNotFound: acked or evicted from the retransmit buffer. The
      // receiver's NACK budget will exhaust and surface kUnavailable —
      // the typed failure path, tested with a tiny buffer.
      return;
    }
    case kAck: {
      auto it = outbound_.find(message.src);
      if (it == outbound_.end()) return;
      // Acks are unauthenticated: one past what was sent would wrap the
      // in-flight depth.
      it->second.acked_through =
          std::max(it->second.acked_through, std::min(value, it->second.chunks_sent));
      it->second.sender->acknowledge(it->second.acked_through);
      it->second.beacons_unanswered = 0;  // any ack proves liveness
      refresh_depth();
      return;
    }
    case kBeacon: {
      // Sender's high-water announcement: expose trailing losses, then
      // tell the sender where we actually are.
      Inbound& in = inbound(message.src);
      if (value > 0) (void)in.receiver->expect_through(value - 1);
      if (Status h = in.receiver->health(); !h.ok()) {
        // This stream is beyond recovery: answering the beacon with an
        // ack would keep the sender retrying forever.
        note_flight("dead_stream", message.src, in.receiver->next_expected());
        send_control(message.src, kDead, 0);
        return;
      }
      send_control(message.src, kAck, in.receiver->next_expected());
      if (in.receiver->has_pending_gaps()) arm_timer();
      return;
    }
    case kDead: {
      auto it = outbound_.find(message.src);
      if (it == outbound_.end()) return;
      note_flight("dead_stream", message.src, it->second.chunks_sent);
      mark_peer_dead(it->second, Status(Error{ErrorCode::kUnavailable,
                                              "peer abandoned inbound stream"}));
      refresh_depth();
      notify_peer_dead(message.src);  // last: the callback may mutate maps
      return;
    }
    default:
      return;
  }
}

bool FlowNode::work_pending() const {
  if (quiesced_) return false;
  for (const auto& [peer, out] : outbound_) {
    if (!out.dead && out.acked_through < out.chunks_sent) return true;
  }
  for (const auto& [peer, in] : inbound_) {
    if (in.receiver->has_pending_gaps()) return true;
  }
  return false;
}

void FlowNode::arm_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  fabric_.schedule(kPollIntervalNs, [this] { on_timer(); });
}

void FlowNode::on_timer() {
  timer_armed_ = false;
  if (quiesced_) return;
  // Re-NACK every due gap (receiver side)...
  for (auto& [peer, in] : inbound_) {
    for (const Nack& nack : in.receiver->take_due_nacks()) {
      ++stats_.nacks_sent;
      bump(obs_nacks_sent_);
      note_flight("nack", peer, nack.sequence);
      send_control(peer, kNack, nack.sequence);
    }
  }
  // ...and beacon every unacked outbound flow (sender side), so trailing
  // losses with no later chunk behind them still get detected. Too many
  // consecutive beacons with no ack at all ⇒ the peer is silently dead.
  std::vector<net::NodeId> newly_dead;
  for (auto& [peer, out] : outbound_) {
    if (out.dead || out.acked_through >= out.chunks_sent) continue;
    if (config_.beacon_death_threshold > 0 &&
        out.beacons_unanswered >= config_.beacon_death_threshold) {
      note_flight("dead_stream", peer, out.chunks_sent);
      mark_peer_dead(out, Status(Error{ErrorCode::kUnavailable,
                                       "peer silent past beacon death threshold"}));
      newly_dead.push_back(peer);
      continue;
    }
    ++out.beacons_unanswered;
    ++stats_.beacons_sent;
    bump(obs_beacons_sent_);
    send_control(peer, kBeacon, out.chunks_sent);
  }
  if (!newly_dead.empty()) refresh_depth();  // dead flows leave the gauge
  if (work_pending()) arm_timer();
  // Notify last: a driver's callback may abandon peers (mutating the
  // maps iterated above) or send new payloads.
  for (net::NodeId peer : newly_dead) notify_peer_dead(peer);
}

void FlowNode::refresh_depth() {
  std::uint64_t in_flight = 0;
  for (const auto& [peer, out] : outbound_) {
    if (!out.dead) in_flight += out.chunks_sent - out.acked_through;
  }
  std::uint64_t queued = 0;
  for (const auto& [peer, in] : inbound_) {
    queued += in.receiver->buffered_depth();
  }
  stats_.chunks_in_flight = in_flight;
  stats_.chunks_queued = queued;
  if (obs_chunks_in_flight_ != nullptr) {
    obs_chunks_in_flight_->set(static_cast<std::int64_t>(in_flight));
  }
  if (obs_chunks_queued_ != nullptr) {
    obs_chunks_queued_->set(static_cast<std::int64_t>(queued));
  }
}

FlowDepth FlowNode::peer_depth(net::NodeId peer) const {
  FlowDepth depth;
  if (auto it = outbound_.find(peer); it != outbound_.end() && !it->second.dead) {
    depth.in_flight = it->second.chunks_sent - it->second.acked_through;
  }
  if (auto it = inbound_.find(peer); it != inbound_.end()) {
    depth.queued = it->second.receiver->buffered_depth();
  }
  return depth;
}

bool FlowNode::settled() const { return !work_pending(); }

Status FlowNode::health() const {
  for (const auto& [peer, out] : outbound_) {
    if (out.dead) return out.death_reason;
  }
  for (const auto& [peer, in] : inbound_) {
    SC_RETURN_IF_ERROR(in.receiver->health());
  }
  return {};
}

}  // namespace securecloud::bigdata
