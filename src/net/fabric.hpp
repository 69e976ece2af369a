// Deterministic discrete-event cluster fabric.
//
// The paper's services are *distributed*: SCBR is a network of routers,
// SCONE services talk over TLS links, and MapReduce shuffles cross
// machines. Fabric simulates that cluster as a discrete-event network
// driven by SimClock: nodes register per-channel message handlers, links
// model propagation latency, serialization delay (from message size and
// bandwidth), and MTU-level fragmentation, and every delivery is an event
// in one priority queue.
//
// Ingress is lock-free: send() and schedule() stamp an atomic ticket and
// push onto a per-thread SPSC ring (common/lockfree MpscQueue) — no
// producer ever touches the event-loop mutex, so concurrent senders
// never contend with each other or with the consumer. Admission happens
// at deterministic observation points (each run_until_idle() iteration,
// idle(), stats(), set_partitioned()): the consumer drains the rings,
// sorts by ticket, and replays the classic admission body — stats, fault
// decisions, fragmentation, event creation — in ticket order under the
// event-loop mutex. Payload bytes are moved into the reassembly buffer
// once at admission; frame events carry only (message id, fragment
// index), never bytes (zero-copy frames).
//
// Determinism contract: events are ordered by (delivery time, enqueue
// sequence) — a total order with a stable tie-break. When sends are
// issued in a deterministic order (the serial driver, or inside event
// handlers — the same idiom the MapReduce driver uses for nonces and
// output slots), the ticket order IS the call order, so for a fixed
// fault seed the delivery schedule, the stats, and every `net_*` counter
// are bit-identical across runs and across worker-pool thread counts.
// Genuinely concurrent send() from pool workers is race-free and loses
// nothing, but its ticket interleaving (and hence the schedule) is
// timing-dependent — exactly the guarantee the old mutex gave, minus the
// contention; scripts/tsan_check.sh hammers that path for races.
//
// Fault plane: a FaultInjector (kNetLoss / kNetDuplicate / kNetReorder
// per frame, kNetPartition per message) perturbs link delivery, and
// set_partitioned() cuts a link deterministically for partition tests.
// All fault decisions happen at admission, in ticket order, so the
// schedule stays a pure function of (topology, send order, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/fault_injector.hpp"
#include "common/lockfree/mpsc_queue.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "obs/cluster.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace securecloud::net {

using NodeId = std::uint32_t;

/// One direction of a point-to-point link.
struct LinkConfig {
  std::uint64_t latency_ns = 100'000;  // propagation delay per frame (100 us)
  /// Serialization rate; delay per frame = bytes * 1e9 / rate (10 Gb/s).
  std::uint64_t bandwidth_bytes_per_sec = 1'250'000'000;
  /// Frames larger than this are fragmented; a message is delivered only
  /// once every fragment arrived (losing any fragment loses the message).
  std::size_t mtu_bytes = 16 * 1024;
};

/// A delivered application message.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t channel = 0;
  Bytes payload;
  /// Trace context the sender attached (invalid when untraced). Rides
  /// the frame envelope so worker-side spans can causally parent to a
  /// coordinator-side span across nodes.
  obs::TraceContext trace;
};

struct FabricStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;    // loss/partition killed >= 1 frame
  std::uint64_t messages_unhandled = 0;  // delivered, no handler registered
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t bytes_sent = 0;       // payload bytes handed to send()
  std::uint64_t bytes_delivered = 0;  // payload bytes of delivered messages
  std::uint64_t timers_fired = 0;

  bool operator==(const FabricStats&) const = default;
};

class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;
  using TimerFn = std::function<void()>;

  /// `clock` is advanced by exactly the simulated time between dispatched
  /// events, so per-hop latency lands in the same timeline the transfer
  /// layer's NACK backoff and the benchmarks read.
  explicit Fabric(SimClock& clock) : clock_(&clock) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- topology (single-threaded setup phase) -----------------------------
  NodeId add_node(std::string name);
  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const { return nodes_[id].name; }

  /// Adds a bidirectional link. Rejects unknown nodes, self-links, and
  /// duplicate links.
  Status connect(NodeId a, NodeId b, LinkConfig config = {});

  /// Registers the handler invoked (from the event loop thread, with no
  /// fabric lock held — handlers may send) for messages to `node` on
  /// `channel`. Replaces any previous handler.
  Status set_handler(NodeId node, std::uint32_t channel, Handler handler);

  /// Deterministic partition control: while partitioned, every message on
  /// the a<->b link is dropped (both directions). Admits any queued
  /// ingress first, so sends issued before the call see the old state.
  Status set_partitioned(NodeId a, NodeId b, bool partitioned);

  void set_fault_injector(common::FaultInjector* faults) { faults_ = faults; }

  /// Per-node compute-speed multiplier (numerator/denominator) for
  /// straggler modelling: a node with skew 4/1 takes 4x as long for the
  /// same compute. Applied by scaled_compute_ns(), which drivers use
  /// when charging a node's compute into fabric time (schedule()), so
  /// the critical path of a distributed job shows the slow node.
  Status set_compute_skew(NodeId node, std::uint32_t numerator,
                          std::uint32_t denominator = 1);

  /// `ns` of nominal compute scaled by `node`'s skew (exact 128-bit
  /// integer math; identity for nodes without a skew).
  std::uint64_t scaled_compute_ns(NodeId node, std::uint64_t ns) const;

  /// Starts recording one obs::LinkDelivery per delivered message
  /// (loopback included), capped at `capacity` records; the critical-
  /// path analyzer joins them against span boundaries for link
  /// attribution. Off by default — a long-lived fabric would otherwise
  /// grow without bound.
  void enable_delivery_log(std::size_t capacity = 65'536);
  const std::vector<obs::LinkDelivery>& deliveries() const { return deliveries_; }

  /// Node-name table indexed by NodeId (for CriticalPathOptions).
  std::vector<std::string> node_names() const;

  /// Mirrors FabricStats into `net_*` counters (+ `net_queue_depth`
  /// gauge) and, with a tracer, emits one `net.run` span per
  /// run_until_idle() batch.
  void set_obs(obs::Registry* registry, obs::Tracer* tracer = nullptr);

  // --- data plane ---------------------------------------------------------
  /// Queues `payload` for delivery over the direct src->dst link
  /// (src == dst loops back with zero delay and no faults). Returns an
  /// error only for misuse (unknown node, no link); a message the
  /// simulated network drops is counted, not errored. Wait-free: never
  /// blocks on the event loop or on other senders.
  /// `trace` (optional) is carried in the frame envelope and surfaces
  /// on the delivered Message.
  Status send(NodeId src, NodeId dst, std::uint32_t channel, Bytes payload,
              obs::TraceContext trace = {});

  /// Schedules `fn` to run as an event `delay_ns` of simulated time from
  /// now. Timers share the ingress ticket order and the event queue (and
  /// its total order) with frames. Wait-free, like send().
  void schedule(std::uint64_t delay_ns, TimerFn fn);

  /// Dispatches events in (time, sequence) order until the queue is empty
  /// or `max_events` were processed; returns the number processed.
  /// Handlers and timers may enqueue further work. Single consumer: call
  /// from one thread at a time.
  std::size_t run_until_idle(std::size_t max_events = 10'000'000);

  /// True when no admitted or queued-for-admission work remains
  /// (completed sends/schedules only; racing producers may add more).
  bool idle() const;
  /// Simulated fabric time (ns since construction).
  std::uint64_t now_ns() const;
  SimClock& clock() { return *clock_; }

  /// Admits queued ingress, then returns the stats — so counters are
  /// exact for every send/schedule that completed before the call.
  const FabricStats& stats() const;

 private:
  struct Node {
    std::string name;
    std::map<std::uint32_t, Handler> handlers;
  };

  struct Link {
    LinkConfig config;
    bool partitioned = false;
  };

  /// One send() or schedule() captured on the wait-free path, replayed
  /// in ticket order by admit_ingress().
  struct Ingress {
    enum class Kind : std::uint8_t { kSend, kTimer };
    Kind kind = Kind::kSend;
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t channel = 0;
    Bytes payload;
    obs::TraceContext trace;
    std::uint64_t delay_ns = 0;
    TimerFn timer;
  };

  /// Frame/timer event. Frames are bare (message id, fragment) markers:
  /// payload bytes live in the Pending reassembly buffer from admission
  /// on, so fragmentation and delivery never copy them.
  struct EventItem {
    std::uint64_t at_ns = 0;
    std::uint64_t seq = 0;  // enqueue order: the stable tie-break
    // Frame fields (frag_total == 0 marks a timer event).
    std::uint64_t message_id = 0;
    std::uint32_t frag_index = 0;
    std::uint32_t frag_total = 0;
    TimerFn timer;
  };
  struct EventAfter {
    bool operator()(const EventItem& a, const EventItem& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  /// Reassembly state for one in-flight message. Owns the whole payload
  /// from admission; frame arrivals only flip `have` bits.
  struct Pending {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t channel = 0;
    std::uint32_t frags_total = 0;
    std::uint32_t frags_received = 0;
    std::uint32_t frames_in_flight = 0;
    std::vector<bool> have;
    Bytes payload;
    bool dead = false;  // a frame was dropped: can never complete
    obs::TraceContext trace;
    std::uint64_t send_cycles = 0;  // clock stamp at admission
  };

  static std::uint64_t link_key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  Link* find_link(NodeId a, NodeId b);
  void admit_ingress();             // caller holds mu_
  void admit_send(Ingress&& in);    // caller holds mu_
  void push_event(EventItem event);  // assigns seq; caller holds mu_
  void bump(obs::Counter* counter, std::uint64_t delta = 1) {
    if (counter != nullptr) counter->inc(delta);
  }
  void set_queue_gauge();  // caller holds mu_

  SimClock* clock_;
  common::FaultInjector* faults_ = nullptr;

  std::vector<Node> nodes_;
  std::map<std::uint64_t, Link> links_;
  std::map<NodeId, std::pair<std::uint32_t, std::uint32_t>> compute_skews_;

  bool delivery_log_enabled_ = false;
  std::size_t delivery_log_capacity_ = 0;
  std::vector<obs::LinkDelivery> deliveries_;

  /// Wait-free producer side; drained by admit_ingress() under mu_.
  lockfree::MpscQueue<Ingress> ingress_{256};

  /// Event-loop state. mu_ serializes the consumer side (run loop,
  /// admission, partition control) — producers never take it.
  mutable std::mutex mu_;
  std::vector<lockfree::MpscQueue<Ingress>::Item> ingress_batch_;
  std::priority_queue<EventItem, std::vector<EventItem>, EventAfter> queue_;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t now_ns_ = 0;
  FabricStats stats_;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* obs_messages_sent_ = nullptr;
  obs::Counter* obs_messages_delivered_ = nullptr;
  obs::Counter* obs_messages_dropped_ = nullptr;
  obs::Counter* obs_messages_unhandled_ = nullptr;
  obs::Counter* obs_frames_sent_ = nullptr;
  obs::Counter* obs_frames_dropped_ = nullptr;
  obs::Counter* obs_frames_duplicated_ = nullptr;
  obs::Counter* obs_frames_reordered_ = nullptr;
  obs::Counter* obs_bytes_sent_ = nullptr;
  obs::Counter* obs_bytes_delivered_ = nullptr;
  obs::Counter* obs_timers_fired_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
};

}  // namespace securecloud::net
