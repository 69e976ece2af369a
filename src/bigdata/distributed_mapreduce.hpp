// Distributed secure MapReduce over the cluster fabric.
//
// The local engine (mapreduce.*) models one platform running every
// worker enclave; this driver spreads the same job across a *cluster*:
// a coordinator node plus N worker nodes, each worker on its own
// sgx::Platform (distinct fuse keys, distinct entropy), connected by
// net::Fabric links that charge latency and bandwidth into simulated
// time.
//
// Lifecycle:
//   setup(service)  — builds the cluster as a bigdata::EnclaveCluster
//                     (full mesh), attests every coordinator->worker
//                     edge (mutual quotes bound to the channel
//                     transcript, MRENCLAVE pinned to the canonical
//                     worker image), and releases the job key and the
//                     job layout as each edge's first sealed record.
//                     Untrusted wire never sees the key.
//   run(...)        — ships map tasks over reliable encrypted flows
//                     (FlowNode: chunking + NACK recovery, so armed
//                     loss/reorder/partition faults are survivable),
//                     workers map + combine and shuffle encrypted
//                     intermediate blocks *directly to the reducer
//                     owner's node*, reduce on block-complete, and the
//                     coordinator merges worker results in index order.
//
// Failure tolerance: work is identified by *logical* ids — map task t
// and reduce bundle b (the reducers {r : r % W == b}) — decoupled from
// the worker executing them. Shuffle and result nonces/AADs are pure
// functions of (epoch, task/bundle), so a task re-executed on any
// surviving node reproduces byte-identical sealed blocks, and the
// coordinator dedups kMapDone/kResult by id (first result in event order
// wins). The coordinator's flow is the one
// death signal: a worker is dead when its FlowNode sent kDead (stream
// abandon) or went silent past the beacon death threshold. The attested
// sessions only release the job key; a failed session is a flight event,
// never a death. Recovery re-places the victim's containers through
// EPC-aware GenPack bin-packing, re-sends its map tasks, and reassigns its
// reduce bundles (kAssign broadcast: peers resend their cached produced
// blocks to the new owner). The job key is not rotated: a worker declared
// dead keeps a valid copy (SECURITY.md, Known limitations).
//
// Speculative re-execution (SpeculationConfig, off by default): when all
// but the stragglers have reported map-done, a deferred check launches
// copies of the unfinished tasks on peers picked by the same placement
// model and cancels the originals; the coordinator's first-result-wins
// dedup commits whichever copy lands first.
//
// Telemetry (cluster-obs mode): EnclaveCluster's plane, in which the
// star makes every worker's key-release parent the coordinator, so each
// worker's frames travel one hop to the coordinator's monitor.
//
// Determinism: every fabric event is dispatched from the serial
// run_until_idle() loop, shuffle nonces / block slots / output order are
// pure functions of (epoch, task, reducer) indices, and per-record map
// compute uses the pre-assigned-slot run_indexed idiom — so the job
// output, JobStats, and every dist_mapreduce_*/net_* counter are
// bit-identical for a fixed fault seed at any thread-pool size, with or
// without worker kills.
#pragma once

#include <memory>
#include <set>

#include "bigdata/enclave_cluster.hpp"
#include "bigdata/mapreduce.hpp"
#include "genpack/scheduler.hpp"

namespace securecloud::bigdata {

struct DistributedMapReduceConfig {
  std::size_t num_workers = 4;
  std::size_t num_reducers = 4;
  bool enable_combiner = false;
  /// Every node's flow (mesh links take net::LinkConfig's defaults).
  /// DistributedMapReduce replaces beacon_death_threshold with its own
  /// constant (distributed_mapreduce.cpp).
  FlowConfig flow;
  /// Simulated worker compute charged into *fabric* time before a
  /// worker's shuffle (map) or result (reduce) leaves its node, scaled
  /// by the node's Fabric compute skew — the straggler model: a 4x-skew
  /// worker holds the whole shuffle barrier 4x longer, which the
  /// critical-path analyzer then attributes to that node.
  std::uint64_t map_compute_ns_per_record = 20'000;
  std::uint64_t reduce_compute_ns_per_pair = 2'000;

  /// Speculative re-execution of stragglers.
  struct SpeculationConfig {
    bool enabled = false;
    /// When all but the stragglers have reported map-done at elapsed E,
    /// the speculation check fires after another E * slack_percent/100.
    std::uint32_t slack_percent = 50;
  };
  SpeculationConfig speculation;

  /// EnclaveCluster's telemetry plane (cluster-obs mode only): workers
  /// stream frames to the coordinator's monitor, whose straggler alerts
  /// copy the named node's flight ring (alert_postmortems()).
  TelemetryConfig telemetry;
};

/// The body of a coordinator kMapTask payload (after the type byte).
struct MapTaskRecord {
  std::uint64_t epoch = 0;
  std::uint64_t task = 0;
  std::vector<Bytes> records;
};

/// The body of a coordinator kAssign payload: dead-node list, bundle
/// owner table, and task reassignments.
struct AssignRecord {
  std::uint64_t epoch = 0;
  std::vector<net::NodeId> dead;
  std::vector<net::NodeId> owners;
  std::vector<std::pair<std::uint64_t, net::NodeId>> reassigns;
};

/// Worker-side decoders for the two variable-length control records.
/// Total: truncated, trailing or oversized input is a typed kProtocol
/// error, and every wire count is bounded by the bytes left before it
/// sizes an allocation.
Result<MapTaskRecord> decode_map_task(ByteView body);
Result<AssignRecord> decode_assignment(ByteView body);

class DistributedMapReduce {
 public:
  using MapFn = SecureMapReduce::MapFn;
  using ReduceFn = SecureMapReduce::ReduceFn;

  /// Nodes and links are added to `fabric` in setup(); the fabric (and
  /// its clock) must outlive this driver.
  DistributedMapReduce(net::Fabric& fabric, DistributedMapReduceConfig config = {});

  DistributedMapReduce(const DistributedMapReduce&) = delete;
  DistributedMapReduce& operator=(const DistributedMapReduce&) = delete;
  ~DistributedMapReduce();

  /// Builds the cluster and attests every worker (see file comment).
  /// The handshakes retransmit through armed net faults.
  Status setup(sgx::AttestationService& service);

  /// Encrypts plaintext records into job-input format under the job key
  /// (data-owner side, after setup(); interchangeable with the local
  /// engine's format).
  std::vector<Bytes> encrypt_partition(const std::vector<Bytes>& records);

  /// Thread pool for per-record map compute inside worker handlers.
  /// Any size (or nullptr) yields bit-identical results.
  void set_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Runs one job: partitions are dealt round-robin over the workers.
  /// Requires setup() to have succeeded. Reentrant per job (epoch
  /// counter keeps shuffle nonces unique across runs).
  Result<JobResult> run(const std::vector<std::vector<Bytes>>& encrypted_partitions,
                        const MapFn& map_fn, const ReduceFn& reduce_fn);

  /// Chaos API: kills worker `w` *now* — its flow quiesces (last-gasp
  /// kDead RSTs, then silence: no frame is parsed, no counter bumped)
  /// and every later handler / deferred compute on it is inert. Dead
  /// workers stay dead across runs.
  Status kill_worker(std::size_t w);
  /// Chaos API: arms a kill at `delay_ns` of fabric time after the next
  /// run() starts (a deterministic fabric timer — mid-map / mid-shuffle
  /// kills are reproducible per seed).
  void schedule_worker_kill(std::size_t w, std::uint64_t delay_ns);
  bool worker_alive(std::size_t w) const { return worker_alive_[w]; }

  /// `dist_mapreduce_*` counters + a dist_mapreduce.job span per run.
  /// Also wires the underlying sessions and flows into `registry`.
  void set_obs(obs::Registry* registry, obs::Tracer* tracer = nullptr);

  /// Per-node observability mode: every node gets its own Registry /
  /// Tracer / FlightRecorder (obs::NodeObs) and sessions, flows, and
  /// worker spans wire to their *own* node's bundle; driver counters
  /// and the job span live on the coordinator node. Call before
  /// setup(); overrides any earlier set_obs() wiring. Worker spans
  /// causally parent to the coordinator's job span via TraceContexts
  /// carried in flow chunk headers.
  void enable_cluster_obs();
  bool cluster_obs_enabled() const { return cluster_obs_; }
  obs::NodeObs* coordinator_obs() { return node_obs(kCoordinator); }
  obs::NodeObs* worker_obs(std::size_t w) { return node_obs(w + 1); }

  /// Every node's bundle merged (EnclaveCluster::snapshot(), sorted by
  /// node name), dead workers included. Sends nothing on the fabric and
  /// leaves its clock alone. kProtocol without cluster-obs mode or
  /// before setup().
  Result<obs::ClusterSnapshot> collect_cluster_snapshot();

  /// Flight-recorder dump (securecloud.flight.v2 across every node)
  /// captured when run() returns a typed error in cluster-obs mode;
  /// empty until a failure happened.
  const std::string& last_postmortem() const { return postmortem_; }

  /// The live monitor (telemetry config + cluster-obs mode, built in
  /// setup()); null otherwise. Exposes the securecloud.telemetry.v1
  /// timeline, the alert log, and the sc-top dashboard.
  obs::TelemetryMonitor* telemetry_monitor() { return cluster_.telemetry_monitor(); }
  const obs::TelemetryMonitor* telemetry_monitor() const {
    return cluster_.telemetry_monitor();
  }

  /// Flight rings of the nodes named by alerts (node name -> flight-only
  /// NodeSnapshot). Each is copied the moment its alert fires, while the
  /// job is still in flight.
  const std::map<std::string, obs::NodeSnapshot>& alert_postmortems() const {
    return alert_postmortems_;
  }

  net::NodeId coordinator_node() const { return coordinator_node_; }
  net::NodeId worker_node(std::size_t w) const { return workers_[w]->node; }
  std::size_t num_workers() const { return config_.num_workers; }

 private:
  /// Cluster node index of the coordinator; worker w is node w + 1.
  static constexpr std::size_t kCoordinator = 0;
  // Flow payload types (first byte of every flow payload).
  static constexpr std::uint8_t kMapTask = 1;
  static constexpr std::uint8_t kShuffle = 2;
  static constexpr std::uint8_t kMapDone = 3;
  static constexpr std::uint8_t kResult = 4;
  /// Coordinator -> workers: dead-node list + bundle owner table + task
  /// reassignments (recovery and speculation control plane).
  static constexpr std::uint8_t kAssign = 5;
  /// Coordinator -> worker liveness probe. Workers ignore the payload;
  /// the *flow-level ack* of its chunk is the proof of life, and a
  /// quiesced worker's silence trips the beacon death threshold.
  static constexpr std::uint8_t kPing = 6;
  static_assert(kPing < EnclaveCluster::kTelemetryTag,
                "tags run 1..kPing; the cluster's telemetry tag is reserved");
  /// Nonce domain for sealed worker->coordinator result blocks.
  static constexpr std::uint32_t kResultDomain = 0x4452534c;  // "DRSL"

  /// One map task being executed (or cancelled) on a worker. Keyed by
  /// the *logical* task id — a worker can hold several after recovery.
  struct MapExec {
    bool finished = false;
    bool cancelled = false;
    /// Map output parked between compute start and the deferred
    /// shuffle send: per_reducer[r] = combined pairs for reducer r.
    std::vector<std::vector<KeyValue>> pending_output;
    std::size_t records = 0;
    std::size_t pairs = 0;
    std::unique_ptr<obs::Span> span;
  };
  /// One reduce bundle owned on a worker (bundle b = reducers r with
  /// r % W == b).
  struct BundleExec {
    bool reduced = false;
    Bytes pending_result_wire;
    std::unique_ptr<obs::Span> span;
  };
  /// A sealed shuffle block this worker produced, retained so it can be
  /// re-sent when a bundle moves to a new owner.
  struct ProducedBlock {
    Bytes block;
    std::set<net::NodeId> sent_to;
  };

  /// A worker's job state; its enclave, session and flow live in the
  /// cluster as node index + 1.
  struct Worker {
    std::size_t index = 0;
    net::NodeId node = 0;
    bool alive = true;

    // Job layout, released with the job key through the attested session.
    std::size_t num_workers = 0;
    std::size_t num_reducers = 0;
    bool combiner = false;
    net::NodeId coordinator_node = 0;
    std::vector<net::NodeId> worker_nodes;

    // Per-job (epoch) state, keyed by logical task / bundle ids.
    std::uint64_t epoch = 0;
    std::map<std::uint64_t, MapExec> map_execs;
    std::map<std::uint64_t, BundleExec> bundle_execs;
    /// (reducer, producing task) -> sealed block. Everything addressed
    /// to this node is stored regardless of current ownership (a block
    /// can arrive before the kAssign that made this node the owner).
    std::map<std::pair<std::size_t, std::size_t>, Bytes> shuffle_store;
    std::map<std::pair<std::uint64_t, std::size_t>, ProducedBlock> produced;
    /// Current owner node per bundle (kAssign updates; defaults to the
    /// identity assignment bundle b -> worker_nodes[b]).
    std::vector<net::NodeId> bundle_owner_node;

    /// Trace context of the coordinator's job span, adopted from the
    /// kMapTask chunk header; parents this worker's spans.
    obs::TraceContext job_ctx;
  };

  /// This node's obs bundle (null until setup and in shared mode).
  obs::NodeObs* node_obs(std::size_t node) {
    return node < cluster_.size() ? cluster_.node_obs(node) : nullptr;
  }
  FlowNode& coordinator_flow() { return *cluster_.flow(kCoordinator); }
  FlowNode* worker_flow(const Worker& worker) { return cluster_.flow(worker.index + 1); }
  /// The job key as the worker's node received it.
  ByteView worker_key(const Worker& worker) const { return cluster_.key(worker.index + 1); }
  bool worker_on_layout(Worker& worker, ByteView layout);
  void worker_begin_epoch(Worker& worker, std::uint64_t epoch);
  void worker_on_flow_payload(Worker& worker, net::NodeId from, Bytes payload,
                              obs::TraceContext ctx);
  void worker_handle_map_task(Worker& worker, ByteView body, obs::TraceContext ctx);
  void worker_finish_map_task(Worker& worker, std::uint64_t epoch,
                              std::uint64_t task);
  /// Routes produced block (task, r) to the current owner of bundle
  /// r % W: local store when that is this node, one flow send per
  /// distinct destination otherwise (re-send dedup via sent_to).
  void worker_send_block(Worker& worker, std::uint64_t epoch, std::uint64_t task,
                         std::size_t reducer, obs::TraceContext ctx);
  void worker_maybe_reduce(Worker& worker, std::uint64_t bundle);
  void worker_finish_reduce(Worker& worker, std::uint64_t epoch,
                            std::uint64_t bundle);
  void worker_apply_assignment(Worker& worker, ByteView body);
  void worker_fail(Worker& worker, Error error);
  void coordinator_on_flow_payload(net::NodeId from, Bytes payload);

  void on_telemetry_alert(const obs::Alert& alert);

  // --- recovery / speculation (coordinator side) ---
  /// Peer-death signal (flow kDead / beacon timeout).
  void on_worker_node_dead(net::NodeId node);
  void handle_worker_death(std::size_t w);
  /// Re-places `spec` through EPC-aware bin-packing over surviving
  /// servers; falls back to the least-loaded alive worker.
  std::size_t pick_replacement(const genpack::ContainerSpec& spec);
  void broadcast_assignment(
      const std::vector<std::pair<std::uint64_t, net::NodeId>>& reassigned_tasks);
  void send_map_task(std::size_t executor, std::uint64_t task);
  void maybe_schedule_speculation();
  void speculation_check(std::uint64_t epoch);
  void reset_placement();
  std::size_t alive_count() const;
  genpack::ContainerSpec map_task_spec(std::uint64_t task) const;
  genpack::ContainerSpec bundle_spec(std::uint64_t bundle) const;
  void note_coordinator_flight(const char* category, const std::string& message);

  void bump(obs::Counter* counter, std::uint64_t delta = 1) {
    if (counter != nullptr) counter->inc(delta);
  }

  net::Fabric& fabric_;
  DistributedMapReduceConfig config_;
  common::ThreadPool* pool_ = nullptr;

  bool ready_ = false;
  /// Declared before everything holding spans on its obs bundles, so it
  /// outlives them.
  EnclaveCluster cluster_;
  net::NodeId coordinator_node_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t record_counter_ = 0;
  std::uint64_t epoch_ = 0;
  /// Job code for the in-flight run (valid only inside run(); workers
  /// reach it through the shared driver, modeling map/reduce functions
  /// shipped inside the measured enclave image).
  const MapFn* current_map_fn_ = nullptr;
  const ReduceFn* current_reduce_fn_ = nullptr;

  // Per-run coordinator collection state.
  JobResult collect_;
  /// Dedup sets: first kMapDone per task / kResult per bundle wins, so
  /// re-executed and speculative copies cannot double-count stats.
  std::set<std::uint64_t> map_done_seen_;
  std::set<std::uint64_t> results_seen_;
  std::optional<Error> job_error_;
  /// The per-run dist_mapreduce.job span. Closed the moment the last
  /// worker result lands — not when the fabric drains — so the span
  /// covers the job, not the post-job flow-settle tail (which would
  /// otherwise be mis-charged to the coordinator by the critical-path
  /// analyzer).
  std::unique_ptr<obs::Span> job_span_;
  obs::TraceContext run_ctx_;

  // Recovery / speculation state.
  std::vector<bool> worker_alive_;  // coordinator's liveness view
  std::vector<std::vector<Bytes>> task_records_;        // cached per task
  std::vector<std::vector<std::size_t>> task_executors_;  // task -> workers
  std::vector<std::vector<std::size_t>> bundle_owners_;   // bundle -> workers
  std::vector<genpack::Server> placement_;
  std::map<std::uint64_t, std::size_t> spec_tasks_;  // task -> spec executor
  bool spec_check_scheduled_ = false;
  std::uint64_t job_start_ns_ = 0;
  struct PendingKill {
    std::size_t worker;
    std::uint64_t delay_ns;
  };
  std::vector<PendingKill> pending_kills_;

  bool cluster_obs_ = false;
  std::string postmortem_;

  std::map<std::string, obs::NodeSnapshot> alert_postmortems_;

  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* obs_jobs_ = nullptr;
  obs::Counter* obs_job_failures_ = nullptr;
  obs::Counter* obs_map_tasks_ = nullptr;
  obs::Counter* obs_shuffle_blocks_ = nullptr;
  obs::Counter* obs_shuffle_bytes_ = nullptr;
  obs::Counter* obs_results_ = nullptr;
  obs::Counter* obs_input_records_ = nullptr;
  obs::Counter* obs_worker_deaths_ = nullptr;
  obs::Counter* obs_tasks_reexecuted_ = nullptr;
  obs::Counter* obs_spec_launched_ = nullptr;
  obs::Counter* obs_spec_wins_ = nullptr;
  obs::Counter* obs_spec_losses_ = nullptr;
  obs::Counter* obs_telemetry_frames_ = nullptr;
  obs::Counter* obs_telemetry_alerts_ = nullptr;
};

}  // namespace securecloud::bigdata
