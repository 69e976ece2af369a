// Reliable encrypted payload flows over the cluster fabric.
//
// AttestedSession gives a node *identity*; FlowNode gives it *delivery*.
// It glues the existing secure-transfer layer (chunking, AES-GCM per
// chunk, NACK/backoff gap recovery) to net::Fabric: payloads are chunked
// by a SecureTransferSender per destination, each chunk rides a fabric
// message, and the matching SecureTransferReceiver on the far side
// reassembles — buffering reorder, dropping duplicates, and NACKing the
// holes a lossy link punches. A fabric timer drives the retry schedule
// (due NACKs, high-water beacons for trailing losses) and cumulative ACKs
// flow back so a sender knows when it may stop beaconing.
//
// With max_fires-bounded net faults, every payload converges to exact
// delivery (the invariant tests/net_test.cpp asserts); a gap whose NACK
// budget runs out surfaces as a typed kUnavailable through health(),
// never a silent divergence.
//
// Only the sealed chunk is authenticated. The envelope's high-water mark
// and the control values (NACK, ACK, beacon) are host-controlled bytes:
// a high-water mark registers at most the receiver's reorder window of
// gaps, and an ack never counts past what was sent.
//
// All flow activity happens inside fabric events, so a serially-driven
// fabric gives bit-identical transfer/NACK/ACK schedules per seed.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "bigdata/transfer.hpp"
#include "net/fabric.hpp"

namespace securecloud::bigdata {

struct FlowConfig {
  std::size_t chunk_size = 4096;
  /// NACKs per inbound gap before it is abandoned. Generous: a fabric
  /// test arms aggressive loss, and abandoning a gap kills the whole
  /// stream.
  std::size_t max_nacks_per_gap = 32;
  /// Cap on the sealed chunks a stream keeps for NACK repair; an ack
  /// retires the chunks below it sooner.
  std::size_t retransmit_buffer_chunks = 4096;
  /// Liveness: after this many consecutive beacons to one peer with no
  /// ack coming back, the peer is declared dead (outbound marked dead,
  /// on_peer_dead fired). 0 = beacon forever (legacy behavior). This is
  /// what bounds the event storm when a peer dies silently — without it
  /// a quiesced peer would be beaconed until run_until_idle's event cap.
  std::size_t beacon_death_threshold = 0;
};

struct FlowStats {
  std::uint64_t payloads_sent = 0;
  std::uint64_t payloads_delivered = 0;
  /// Application payload volume (pre-chunking plaintext bytes), the
  /// number bandwidth budgeting wants; chunk counters below measure the
  /// wire including retransmits.
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t payload_bytes_delivered = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t beacons_sent = 0;
  /// Current depth, not cumulative: outbound chunks sent but not yet
  /// cumulatively acked (in flight toward peers), and inbound
  /// out-of-order chunks buffered behind a gap. Before these existed a
  /// growing backlog was invisible to obs until a beacon fired; the
  /// streams credit layer also reads them to report transport pressure.
  std::uint64_t chunks_in_flight = 0;
  std::uint64_t chunks_queued = 0;

  bool operator==(const FlowStats&) const = default;
};

/// One directed channel's depth (see FlowNode::peer_depth).
struct FlowDepth {
  std::uint64_t in_flight = 0;  // sent minus acked toward this peer
  std::uint64_t queued = 0;     // out-of-order chunks buffered from this peer

  bool operator==(const FlowDepth&) const = default;
};

/// One node's endpoint in the flow mesh. Registers itself as the fabric
/// handler for its two channels; peers are discovered lazily (first
/// send() or first chunk from a new source creates the directed flow).
/// All peers share one symmetric `key` — in the full system it is the
/// app key released after attestation (see EnclaveCluster::attest).
class FlowNode {
 public:
  /// A delivered payload, with the trace context carried in the chunk
  /// header that completed it (invalid when the sender attached none).
  using OnPayload =
      std::function<void(net::NodeId from, Bytes payload, obs::TraceContext trace)>;
  /// How often the flow timer polls for due NACKs and unacked outbound
  /// flows while work is pending.
  static constexpr std::uint64_t kPollIntervalNs = 500'000;
  /// Fabric channels: data chunks, and NACK / ACK / beacon traffic.
  static constexpr std::uint32_t kChunkChannel = 101;
  static constexpr std::uint32_t kControlChannel = 102;

  FlowNode(net::Fabric& fabric, net::NodeId self, ByteView key,
           FlowConfig config = {});

  FlowNode(const FlowNode&) = delete;
  FlowNode& operator=(const FlowNode&) = delete;

  /// Chunks `payload`, sends every chunk toward `dst`, and arms the poll
  /// timer that will beacon/retransmit until the peer acknowledges.
  /// `trace` (optional) rides every chunk header; retransmits carry the
  /// flow's most recent context (best-effort attribution).
  Status send(net::NodeId dst, ByteView payload, obs::TraceContext trace = {});

  void set_on_payload(OnPayload fn) { on_payload_ = std::move(fn); }

  /// True when every outbound chunk has been cumulatively acked and no
  /// inbound flow has an open gap.
  bool settled() const;

  /// First failure across flows (dead peer, abandoned gap, dead stream)
  /// or ok. Per-peer: abandoning a peer removes its contribution, so one
  /// dead node does not poison the node's surviving flows.
  Status health() const;

  /// Fired once per peer when that peer's stream is declared dead —
  /// either it sent kDead (stream abandoned / dying host's RST) or the
  /// beacon death threshold tripped (silent death). Drivers use this as
  /// the node-failure detector.
  using OnPeerDead = std::function<void(net::NodeId)>;
  void set_on_peer_dead(OnPeerDead fn) { on_peer_dead_ = std::move(fn); }

  /// Models this node's process dying: broadcasts kDead to every known
  /// peer (the dying host's last-gasp RSTs — they ride the faulty fabric
  /// and may be lost; the beacon threshold covers that), then drops all
  /// flow state and ignores every subsequent frame and timer. After
  /// quiesce() nothing on this node parses frames or bumps counters.
  void quiesce();
  bool quiesced() const { return quiesced_; }

  /// Driver declared `peer` dead: forget both directions of its flows so
  /// its failures stop poisoning health() and no more recovery traffic
  /// is aimed at it.
  void abandon_peer(net::NodeId peer);

  const FlowStats& stats() const { return stats_; }

  /// Per-channel (directed peer) depth at this instant: chunks in flight
  /// toward `peer` and chunks buffered out-of-order from `peer`.
  FlowDepth peer_depth(net::NodeId peer) const;

  /// Wires `net_flow_*` counters and shares `registry` with the
  /// underlying transfer endpoints (transfer_send_* / transfer_recv_*
  /// aggregate across flows).
  void set_obs(obs::Registry* registry);

  /// Flight recorder notified of recovery activity on this node: NACKs
  /// sent, retransmits served, dead streams (both directions).
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

 private:
  // Control record types (first byte on kControlChannel).
  static constexpr std::uint8_t kNack = 1;
  static constexpr std::uint8_t kAck = 2;
  static constexpr std::uint8_t kBeacon = 3;
  /// Peer abandoned the inbound stream (NACK budget exhausted / dead
  /// stream). The sender must stop beaconing it or the fabric never
  /// idles.
  static constexpr std::uint8_t kDead = 4;

  struct Outbound {
    std::unique_ptr<SecureTransferSender> sender;
    std::uint64_t chunks_sent = 0;    // high-water: sequences 0..n-1 sent
    std::uint64_t acked_through = 0;  // peer's next_expected
    bool dead = false;                // peer declared dead (kDead / silence)
    Status death_reason;              // why, when dead
    std::uint64_t beacons_unanswered = 0;  // consecutive beacons, no ack
    obs::TraceContext last_trace;     // most recent send()'s context
  };
  struct Inbound {
    std::unique_ptr<SecureTransferReceiver> receiver;
  };

  /// Stream ids pair the directed endpoints so sender p->q and receiver
  /// p->q derive identical per-chunk AADs.
  static std::uint32_t stream_id(net::NodeId from, net::NodeId to) {
    return (from << 16) | (to & 0xffff);
  }

  Outbound& outbound(net::NodeId dst);
  Inbound& inbound(net::NodeId src);
  void send_chunk(net::NodeId dst, std::uint64_t high_water, ByteView wire,
                  obs::TraceContext trace);
  void note_flight(const char* category, net::NodeId peer, std::uint64_t value);
  void send_control(net::NodeId dst, std::uint8_t type, std::uint64_t value);
  void on_chunk(const net::Message& message);
  void on_control(const net::Message& message);
  void arm_timer();
  void on_timer();
  bool work_pending() const;
  /// Marks `out` dead with `reason`; the on_peer_dead notification fires
  /// at most once per peer (callers decide when it is safe to deliver).
  void mark_peer_dead(Outbound& out, Status reason);
  void notify_peer_dead(net::NodeId peer);
  /// Recomputes stats_.chunks_in_flight / chunks_queued (and their
  /// gauges) from the live flow state. Called wherever depth can change:
  /// send, ack, chunk arrival, abandon, quiesce.
  void refresh_depth();
  void bump(obs::Counter* counter) {
    if (counter != nullptr) counter->inc();
  }

  net::Fabric& fabric_;
  net::NodeId self_;
  Bytes key_;
  FlowConfig config_;
  OnPayload on_payload_;
  OnPeerDead on_peer_dead_;
  obs::FlightRecorder* flight_ = nullptr;
  std::map<net::NodeId, Outbound> outbound_;
  std::map<net::NodeId, Inbound> inbound_;
  std::set<net::NodeId> dead_notified_;
  bool timer_armed_ = false;
  bool quiesced_ = false;
  FlowStats stats_;
  obs::Registry* registry_ = nullptr;

  obs::Counter* obs_payloads_sent_ = nullptr;
  obs::Counter* obs_payloads_delivered_ = nullptr;
  obs::Counter* obs_payload_bytes_sent_ = nullptr;
  obs::Counter* obs_payload_bytes_delivered_ = nullptr;
  obs::Counter* obs_chunks_sent_ = nullptr;
  obs::Counter* obs_nacks_sent_ = nullptr;
  obs::Counter* obs_retransmits_ = nullptr;
  obs::Counter* obs_beacons_sent_ = nullptr;
  obs::Gauge* obs_chunks_in_flight_ = nullptr;
  obs::Gauge* obs_chunks_queued_ = nullptr;
};

}  // namespace securecloud::bigdata
