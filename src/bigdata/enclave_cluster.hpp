// One enclave-cluster runtime under the fabric-hosted apps.
//
// SecureStreams (Pipeline), the SCBR broker tree (FabricOverlay) and
// distributed MapReduce all run the same cluster underneath: every node
// is a fabric node with its own sgx::Platform and measured enclave, every
// app edge is an attested session pair pinned to that enclave's
// MRENCLAVE, the app's key crosses each edge exactly once as the first
// sealed record, and from then on all traffic rides a FlowNode keyed by
// it. EnclaveCluster owns that per-node bundle — fabric node, platform,
// enclave, obs::NodeObs, SessionDemux, both session ends of every edge,
// the app key, FlowNode — and the key release itself, so the apps own
// only their layouts and data planes.
//
// Ordering contract (the wire bytes and fabric time of setup depend on
// it, and tests/cluster_pin_test.cpp pins both):
//   add_node()  — fabric nodes in the app's order; a node's index is its
//                 position in that order.
//   connect()   — fabric links in the app's order.
//   boot()      — per node, in index order: NodeObs (per-node mode),
//                 Platform (the app's platform_id and entropy seed),
//                 provisioning, EPC flight/obs wiring, the enclave, and
//                 the session demux.
//   attest()    — first the app key, 16 bytes drawn from node 0's
//                 platform entropy, and node 0's FlowNode. Then the app's
//                 edge list in the app's order. Per edge: the responder
//                 session, then the initiator, the handshake run to
//                 completion, then the first record blob(key) ‖ layout
//                 sealed to the responder and drained. The responder
//                 parses the key, the app vets the layout, and the node's
//                 FlowNode is attached. The next edge starts only after
//                 the previous responder accepted its record. Flows open
//                 no traffic during attest(). A responder's key-release
//                 parent is the initiator of the edge that attested it.
//   start_telemetry() — at the app's run start, one sampler timer per node
//                 armed in index order (see the telemetry plane below).
//
// Telemetry plane (obs v3, per-node mode): node 0 hosts the monitor. Each
// node the app still calls active samples its NodeObs every interval_ns.
// Node 0 ingests its own frames through the wire codec; any other node
// sends u8 kTelemetryTag ‖ blob(frame) on its flow to its key-release
// parent, which forwards it unchanged to its own parent, so frames reach
// node 0 hop by hop over attested edges, with no new link. The cluster
// takes payloads tagged kTelemetryTag before the app's callback sees them.
//
// Obs modes: per-node (the default) gives every node an obs::NodeObs
// bundle that its sessions, flow and EPC report into; shared mode wires
// every node's sessions and flows into one registry (which may be null)
// and records no spans or flight events. registry(), flight() and
// tracer() answer for either mode, so no app decides it again.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bigdata/flow.hpp"
#include "net/session_demux.hpp"
#include "obs/cluster.hpp"
#include "obs/telemetry.hpp"

namespace securecloud::bigdata {

/// The live telemetry plane (see the file comment).
struct TelemetryConfig {
  bool enabled = false;
  /// Fabric time between samples on each node.
  std::uint64_t interval_ns = 500'000;
  /// Per-node frame budget per start_telemetry(): a capped timer stops,
  /// so the event loop still drains and genuine stalls stay detectable.
  std::size_t max_frames_per_run = 256;
};

class EnclaveCluster {
 public:
  /// First payload byte of a telemetry frame on a flow; reserved.
  static constexpr std::uint8_t kTelemetryTag = 7;

  /// One edge to attest: `initiator` handshakes with `responder`, then
  /// seals blob(key) ‖ `layout` to it.
  struct Edge {
    std::size_t initiator = 0;
    std::size_t responder = 0;
    Bytes layout;
  };

  /// Vets the layout that followed the key in the first record sealed to
  /// responder `node`; returns whether the node accepts it.
  using AcceptLayout = std::function<bool(std::size_t node, ByteView layout)>;
  /// A payload delivered to node `node` by its FlowNode.
  using OnPayload = std::function<void(std::size_t node, net::NodeId from, Bytes payload,
                                       obs::TraceContext trace)>;
  /// The fabric must outlive the cluster. Every node's FlowNode runs
  /// `flow`; links take net::LinkConfig's defaults.
  EnclaveCluster(net::Fabric& fabric, FlowConfig flow, std::size_t flight_capacity);
  EnclaveCluster(const EnclaveCluster&) = delete;
  EnclaveCluster& operator=(const EnclaveCluster&) = delete;
  ~EnclaveCluster();

  /// Shared mode. Before boot() it replaces the per-node bundles; after
  /// boot() in shared mode it re-wires every live session and flow.
  void share_registry(obs::Registry* registry);
  bool per_node() const { return !shared_; }

  /// Adds a fabric node named `name`; returns its index.
  std::size_t add_node(std::string name, std::string platform_id,
                       std::uint64_t entropy_seed);
  Status connect(std::size_t a, std::size_t b);
  /// Builds every node's bundle (see the ordering contract). Every node
  /// runs the canonical worker image; its measurement is the pin.
  Status boot(sgx::AttestationService& service);

  /// Mints the app key and releases it over `edges` in order (see the
  /// ordering contract); every node that holds the key gets a FlowNode
  /// delivering into `on_payload`. Without `accept` a first record must
  /// carry the key alone. Fails with the first session failure, or
  /// kProtocol when a responder refused its first record.
  Status attest(const std::vector<Edge>& edges, OnPayload on_payload,
                AcceptLayout accept = {});

  /// Builds node 0's monitor and every node's sampler; a no-op unless
  /// `config.enabled`. After boot(), in per-node mode; kInvalidArgument
  /// for shared mode, a zero interval or a zero frame cap. Node 0 bumps
  /// `frames` (may be null) for every frame its monitor ingests.
  Status enable_telemetry(const TelemetryConfig& config, obs::Counter* frames = nullptr);
  /// Resets every node's frame budget and arms its sampler timer,
  /// `interval_ns` from now, in node-index order. A node's timer re-arms
  /// while `active(node)` holds. A no-op while telemetry is off.
  void start_telemetry(std::function<bool(std::size_t node)> active);
  /// Node 0's monitor; null while telemetry is off.
  obs::TelemetryMonitor* telemetry_monitor() const { return monitor_.get(); }

  std::size_t size() const { return nodes_.size(); }
  net::NodeId node_id(std::size_t i) const { return nodes_[i]->id; }
  /// The index of the node on fabric node `id`, if it is one of ours.
  std::optional<std::size_t> index_of(net::NodeId id) const;
  sgx::Platform& platform(std::size_t i) { return *nodes_[i]->platform; }
  FlowNode* flow(std::size_t i) const { return nodes_[i]->flow.get(); }
  /// The app key as node `i` holds it (empty until its edge released it).
  ByteView key(std::size_t i) const { return nodes_[i]->key; }
  /// The session node `i` terminates toward `peer` (null if none).
  net::AttestedSession* session(std::size_t i, std::size_t peer) const;

  /// Null in shared mode.
  obs::NodeObs* node_obs(std::size_t i) const { return nodes_[i]->obs.get(); }
  /// Node `i`'s registry: its own bundle's, or the shared one (may be null).
  obs::Registry* registry(std::size_t i) const;
  /// Per-node mode only; null in shared mode.
  obs::FlightRecorder* flight(std::size_t i) const;
  obs::Tracer* tracer(std::size_t i) const;

  /// First failure across node flows, in node order. Sessions are not
  /// asked: attest() returns their handshake failures, and after it they
  /// carry nothing, so a later session failure (an injected frame) is a
  /// flight event, not a failure of the data plane.
  Status health() const;
  /// Every node's bundle merged (per-node mode, after boot()).
  Result<obs::ClusterSnapshot> snapshot() const;

 private:
  static constexpr std::uint32_t kSessionChannel = 1;

  struct Node {
    std::string name;
    std::string platform_id;
    std::uint64_t entropy_seed = 0;
    net::NodeId id = 0;
    std::unique_ptr<obs::NodeObs> obs;
    std::unique_ptr<sgx::Platform> platform;
    sgx::Enclave* enclave = nullptr;
    std::unique_ptr<net::SessionDemux> demux;
    /// Both session ends this node terminates, keyed by peer index.
    std::map<std::size_t, std::unique_ptr<net::AttestedSession>> sessions;
    bool accepted = false;  // took its first record
    /// The initiator of the edge that released the key here (node 0: 0).
    std::size_t parent = 0;
    Bytes key;
    std::unique_ptr<FlowNode> flow;
    std::unique_ptr<obs::TelemetrySampler> sampler;
    std::size_t telemetry_frames = 0;  // this run's
  };

  net::AttestedSession& open_session(net::AttestedSession::Role role, std::size_t self,
                                     std::size_t peer);
  /// Node `i` holds `key`: it gets its FlowNode, wired to its obs.
  void attach_flow(std::size_t i, Bytes key);
  /// A first record sealed to responder `i`: blob(key) ‖ layout.
  bool on_first_record(std::size_t i, ByteView record);
  /// Telemetry is the cluster's; every other payload goes to the app.
  void on_flow_payload(std::size_t i, net::NodeId from, Bytes payload,
                       obs::TraceContext trace);
  void telemetry_tick(std::size_t i);
  /// Node 0 folds one serialized frame into its monitor.
  void ingest_telemetry(ByteView frame);

  net::Fabric& fabric_;
  FlowConfig flow_config_;
  std::size_t flight_capacity_;
  bool booted_ = false;
  bool shared_ = false;
  obs::Registry* shared_registry_ = nullptr;
  sgx::AttestationService* service_ = nullptr;
  sgx::Measurement policy_{};
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<net::NodeId, std::size_t> index_of_;
  AcceptLayout accept_;
  OnPayload on_payload_;
  TelemetryConfig telemetry_;
  std::unique_ptr<obs::TelemetryMonitor> monitor_;
  obs::Counter* telemetry_frames_ = nullptr;
  std::function<bool(std::size_t node)> telemetry_active_;
};

}  // namespace securecloud::bigdata
