#include "bigdata/enclave_cluster.hpp"

#include "bigdata/mapreduce.hpp"

namespace securecloud::bigdata {

namespace {
/// Telemetry monitor rollup window and ring depth (timeseries.hpp).
constexpr std::uint64_t kTelemetryWindowCycles = 4'000'000;
constexpr std::size_t kTelemetryRingCapacity = 64;
/// Handshake retransmits that let setup ride out armed kNetLoss.
constexpr net::AttestedSession::Config::RetryConfig kSessionRetry{
    .retransmit_timeout_ns = 3'000'000, .max_retries = 12};
}  // namespace

EnclaveCluster::EnclaveCluster(net::Fabric& fabric, FlowConfig flow,
                               std::size_t flight_capacity)
    : fabric_(fabric), flow_config_(flow), flight_capacity_(flight_capacity) {}

EnclaveCluster::~EnclaveCluster() = default;

void EnclaveCluster::share_registry(obs::Registry* registry) {
  if (booted_ && !shared_) return;  // per-node bundles are fixed at boot
  shared_ = true;
  shared_registry_ = registry;
  for (auto& node : nodes_) {
    for (auto& [peer, session] : node->sessions) session->set_obs(registry);
    if (node->flow) node->flow->set_obs(registry);
  }
}

std::size_t EnclaveCluster::add_node(std::string name, std::string platform_id,
                                     std::uint64_t entropy_seed) {
  auto node = std::make_unique<Node>();
  node->id = fabric_.add_node(name);
  node->name = std::move(name);
  node->platform_id = std::move(platform_id);
  node->entropy_seed = entropy_seed;
  index_of_[node->id] = nodes_.size();
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

Status EnclaveCluster::connect(std::size_t a, std::size_t b) {
  return fabric_.connect(nodes_[a]->id, nodes_[b]->id, net::LinkConfig{});
}

Status EnclaveCluster::boot(sgx::AttestationService& service) {
  if (nodes_.empty()) return Error::invalid_argument("cluster has no nodes");
  service_ = &service;
  // Nodes attest as the canonical worker image: operators, brokers and
  // map/reduce tasks all run inside the enclave the MapReduce plane ships.
  const sgx::EnclaveImage image = mapreduce_worker_image();
  for (auto& node : nodes_) {
    if (!shared_) {
      node->obs = std::make_unique<obs::NodeObs>(
          node->name, fabric_.clock(), static_cast<std::uint32_t>(node->id),
          flight_capacity_);
    }
    sgx::PlatformConfig cfg;
    cfg.platform_id = node->platform_id;
    cfg.entropy_seed = node->entropy_seed;
    node->platform = std::make_unique<sgx::Platform>(cfg);
    node->platform->provision(service);
    if (node->obs) {
      // EPC pressure lands in the node's own flight ring and registry:
      // the telemetry epc-thrash detector and the sc-top EPC column read
      // them.
      node->platform->memory().epc().set_flight(&node->obs->flight);
      node->platform->memory().epc().set_obs(&node->obs->registry);
    }
    auto enclave = node->platform->create_enclave(image);
    if (!enclave.ok()) return enclave.error();
    node->enclave = *enclave;
    node->demux = std::make_unique<net::SessionDemux>(fabric_, node->id, kSessionChannel);
    SC_RETURN_IF_ERROR(node->demux->bind());
  }
  policy_ = nodes_.front()->enclave->mrenclave();
  booted_ = true;
  return {};
}

net::AttestedSession& EnclaveCluster::open_session(net::AttestedSession::Role role,
                                                   std::size_t self, std::size_t peer) {
  Node& node = *nodes_[self];
  auto& slot = node.sessions[peer];
  slot = std::make_unique<net::AttestedSession>(
      role, net::AttestedSession::Config{
                .fabric = &fabric_,
                .self = node.id,
                .peer = nodes_[peer]->id,
                .channel = kSessionChannel,
                .enclave = node.enclave,
                .platform = node.platform.get(),
                .attestation = service_,
                .expected_peer_mrenclave = policy_,
                .retry = kSessionRetry,
            });
  net::AttestedSession& session = *slot;
  session.set_obs(registry(self));
  session.set_flight(flight(self));
  node.demux->add(nodes_[peer]->id, &session);
  return session;
}

Status EnclaveCluster::attest(const std::vector<Edge>& edges, OnPayload on_payload,
                              AcceptLayout accept) {
  on_payload_ = std::move(on_payload);
  accept_ = std::move(accept);
  attach_flow(0, nodes_.front()->platform->entropy().bytes(16));
  for (const Edge& edge : edges) {
    const std::string& name = nodes_[edge.responder]->name;
    net::AttestedSession& responder =
        open_session(net::AttestedSession::Role::kResponder, edge.responder,
                     edge.initiator);
    const std::size_t index = edge.responder;
    nodes_[index]->parent = edge.initiator;
    responder.set_on_record([this, index](Bytes record) {
      nodes_[index]->accepted = on_first_record(index, record);
    });
    net::AttestedSession& initiator = open_session(
        net::AttestedSession::Role::kInitiator, edge.initiator, edge.responder);

    SC_RETURN_IF_ERROR(initiator.start());
    fabric_.run_until_idle();
    if (!initiator.established()) {
      return initiator.failure().ok()
                 ? Error::unavailable("handshake with '" + name + "' did not complete")
                 : initiator.failure().error();
    }
    if (!responder.established()) {
      return responder.failure().ok()
                 ? Error::unavailable("'" + name + "' did not finish the handshake")
                 : responder.failure().error();
    }
    // The only place the app's key crosses the wire: one sealed record.
    Bytes record;
    put_blob(record, nodes_[edge.initiator]->key);
    append(record, edge.layout);
    SC_RETURN_IF_ERROR(initiator.send(record));
    fabric_.run_until_idle();
    if (!nodes_[index]->accepted) {
      return Error::protocol("'" + name + "' did not accept its first record");
    }
  }
  return {};
}

bool EnclaveCluster::on_first_record(std::size_t i, ByteView record) {
  ByteReader r(record);
  Bytes key;
  if (!r.get_blob(key) || key.empty()) return false;
  const ByteView layout = record.subspan(record.size() - r.remaining());
  if (accept_ ? !accept_(i, layout) : !layout.empty()) return false;
  attach_flow(i, std::move(key));
  return true;
}

void EnclaveCluster::attach_flow(std::size_t i, Bytes key) {
  Node& node = *nodes_[i];
  node.key = std::move(key);
  node.flow = std::make_unique<FlowNode>(fabric_, node.id, node.key, flow_config_);
  node.flow->set_obs(registry(i));
  node.flow->set_flight(flight(i));
  node.flow->set_on_payload(
      [this, i](net::NodeId from, Bytes payload, obs::TraceContext trace) {
        on_flow_payload(i, from, std::move(payload), trace);
      });
}

void EnclaveCluster::on_flow_payload(std::size_t i, net::NodeId from, Bytes payload,
                                     obs::TraceContext trace) {
  if (payload.empty() || payload.front() != kTelemetryTag) {
    on_payload_(i, from, std::move(payload), trace);
  } else if (i != 0) {
    // A relay reads nothing: the payload goes on as it came, one hop up.
    (void)nodes_[i]->flow->send(nodes_[nodes_[i]->parent]->id, payload);
  } else {
    ByteReader r(ByteView(payload).subspan(1));
    Bytes frame;
    if (r.get_blob(frame) && r.done()) ingest_telemetry(frame);
  }
}

// --- telemetry plane ------------------------------------------------------

Status EnclaveCluster::enable_telemetry(const TelemetryConfig& config,
                                        obs::Counter* frames) {
  if (!config.enabled) return {};
  if (shared_ || config.interval_ns == 0 || config.max_frames_per_run == 0) {
    return Error::invalid_argument("telemetry needs per-node obs mode, a non-zero "
                                   "interval and a non-zero frame cap");
  }
  if (!booted_) return Error::protocol("cluster not booted");
  telemetry_ = config;
  telemetry_frames_ = frames;
  monitor_ = std::make_unique<obs::TelemetryMonitor>(
      obs::TelemetryMonitorConfig{kTelemetryWindowCycles, kTelemetryRingCapacity});
  for (auto& node : nodes_) {
    node->sampler = std::make_unique<obs::TelemetrySampler>(node->obs.get());
  }
  return {};
}

void EnclaveCluster::start_telemetry(std::function<bool(std::size_t node)> active) {
  if (!monitor_) return;
  telemetry_active_ = std::move(active);
  // Index order fixes the timers' seq tie-breaks, which the bit-identical
  // timeline relies on.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->telemetry_frames = 0;
    fabric_.schedule(telemetry_.interval_ns, [this, i] { telemetry_tick(i); });
  }
}

void EnclaveCluster::telemetry_tick(std::size_t i) {
  // Inactive: stop re-arming, so the event loop drains.
  if (!telemetry_active_(i)) return;
  Node& node = *nodes_[i];
  if (!node.flow || node.telemetry_frames >= telemetry_.max_frames_per_run) return;
  ++node.telemetry_frames;
  const Bytes frame =
      obs::serialize_telemetry_frame(node.sampler->sample(fabric_.clock().cycles()));
  if (i == 0) {
    // Loopback still round-trips the wire codec: the monitor only ever
    // sees frames that survived (de)serialization, local or remote.
    ingest_telemetry(frame);
  } else {
    Bytes wire;
    put_u8(wire, kTelemetryTag);
    put_blob(wire, frame);
    (void)node.flow->send(nodes_[node.parent]->id, wire);
  }
  fabric_.schedule(telemetry_.interval_ns, [this, i] { telemetry_tick(i); });
}

void EnclaveCluster::ingest_telemetry(ByteView frame) {
  // A corrupt or out-of-sequence frame is dropped, never fatal.
  auto parsed = obs::deserialize_telemetry_frame(frame);
  if (!monitor_ || !parsed.ok() || !monitor_->ingest(*parsed).ok()) return;
  if (telemetry_frames_ != nullptr) telemetry_frames_->inc();
}

std::optional<std::size_t> EnclaveCluster::index_of(net::NodeId id) const {
  const auto it = index_of_.find(id);
  if (it == index_of_.end()) return std::nullopt;
  return it->second;
}

net::AttestedSession* EnclaveCluster::session(std::size_t i, std::size_t peer) const {
  const auto it = nodes_[i]->sessions.find(peer);
  return it == nodes_[i]->sessions.end() ? nullptr : it->second.get();
}

obs::Registry* EnclaveCluster::registry(std::size_t i) const {
  return nodes_[i]->obs ? &nodes_[i]->obs->registry : shared_registry_;
}

obs::FlightRecorder* EnclaveCluster::flight(std::size_t i) const {
  return nodes_[i]->obs ? &nodes_[i]->obs->flight : nullptr;
}

obs::Tracer* EnclaveCluster::tracer(std::size_t i) const {
  return nodes_[i]->obs ? &nodes_[i]->obs->tracer : nullptr;
}

Status EnclaveCluster::health() const {
  for (const auto& node : nodes_) {
    if (node->flow) SC_RETURN_IF_ERROR(node->flow->health());
  }
  return {};
}

Result<obs::ClusterSnapshot> EnclaveCluster::snapshot() const {
  if (shared_) return Error::protocol("cluster is in shared-registry mode");
  if (!booted_) return Error::protocol("cluster not booted");
  std::vector<obs::NodeSnapshot> snapshots;
  for (const auto& node : nodes_) snapshots.push_back(node->obs->snapshot());
  return obs::merge_snapshots(std::move(snapshots));
}

}  // namespace securecloud::bigdata
