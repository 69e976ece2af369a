#include "bigdata/distributed_mapreduce.hpp"

#include <algorithm>

namespace securecloud::bigdata {

namespace {
Bytes shuffle_aad(std::size_t reducer) {
  Bytes aad;
  put_str(aad, "shuffle");
  put_u64(aad, reducer);
  return aad;
}

// Keyed by the *bundle* id, not the executing worker: a re-executed
// bundle reproduces byte-identical sealed results on any node.
Bytes result_aad(std::size_t bundle) {
  Bytes aad;
  put_str(aad, "result");
  put_u64(aad, bundle);
  return aad;
}

/// The coordinator's platform draws kEntropySeedBase, worker w's
/// kEntropySeedBase + 1 + w: distinct platforms must not share entropy
/// streams or their attestation keys would collide.
constexpr std::uint64_t kEntropySeedBase = 0x5EED;
constexpr std::size_t kFlightCapacity = 128;

/// Consecutive unanswered beacons before a peer counts as dead
/// (FlowConfig::beacon_death_threshold).
constexpr std::size_t kBeaconDeathThreshold = 8;
/// EPC-aware placement model: each worker node is a GenPack server with
/// these capacities, each map task / reduce bundle a container with these
/// demands. Replacement executors come out of EpcAwareBestFitScheduler
/// over the surviving servers.
constexpr double kWorkerCpuCores = 16.0;
constexpr double kWorkerMemGb = 64.0;
constexpr double kWorkerEpcMb = 93.0;  // usable SGX1 EPC
constexpr double kTaskCpuCores = 1.0;
constexpr double kTaskMemGb = 1.0;
constexpr double kTaskEpcMb = 8.0;

/// Silent-death detection depends on the flow liveness machinery.
FlowConfig with_death_threshold(FlowConfig flow) {
  flow.beacon_death_threshold = kBeaconDeathThreshold;
  return flow;
}
}  // namespace

Result<MapTaskRecord> decode_map_task(ByteView body) {
  ByteReader r(body);
  MapTaskRecord out;
  std::uint32_t count = 0;
  // Every record is a length-prefixed blob: at least its 4-byte length.
  if (!r.get_u64(out.epoch) || !r.get_u64(out.task) || !r.get_count(count, 4)) {
    return Error::protocol("malformed map task");
  }
  out.records.resize(count);
  for (Bytes& record : out.records) {
    if (!r.get_blob(record)) return Error::protocol("truncated map task");
  }
  return out;
}

Result<AssignRecord> decode_assignment(ByteView body) {
  ByteReader r(body);
  AssignRecord out;
  const auto get_nodes = [&r](std::vector<net::NodeId>& nodes) {
    std::uint32_t count = 0;
    if (!r.get_count(count, 8)) return false;
    nodes.resize(count);
    for (net::NodeId& node : nodes) {
      std::uint64_t id = 0;
      if (!r.get_u64(id)) return false;
      node = static_cast<net::NodeId>(id);
    }
    return true;
  };
  if (!r.get_u64(out.epoch) || !get_nodes(out.dead)) {
    return Error::protocol("malformed assignment record");
  }
  if (!get_nodes(out.owners)) return Error::protocol("malformed assignment owner table");
  std::uint32_t count = 0;
  if (!r.get_count(count, 16)) return Error::protocol("malformed assignment record");
  out.reassigns.resize(count);
  for (auto& [task, node] : out.reassigns) {
    std::uint64_t id = 0;
    if (!r.get_u64(task) || !r.get_u64(id)) {
      return Error::protocol("truncated assignment record");
    }
    node = static_cast<net::NodeId>(id);
  }
  if (!r.done()) return Error::protocol("trailing assignment bytes");
  return out;
}

DistributedMapReduce::DistributedMapReduce(net::Fabric& fabric,
                                           DistributedMapReduceConfig config)
    : fabric_(fabric),
      config_(std::move(config)),
      cluster_(fabric, with_death_threshold(config_.flow), kFlightCapacity) {}

DistributedMapReduce::~DistributedMapReduce() = default;

void DistributedMapReduce::set_obs(obs::Registry* registry, obs::Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry == nullptr) {
    obs_jobs_ = obs_job_failures_ = obs_map_tasks_ = obs_shuffle_blocks_ =
        obs_shuffle_bytes_ = obs_results_ = obs_input_records_ =
            obs_worker_deaths_ = obs_tasks_reexecuted_ = obs_spec_launched_ =
                obs_spec_wins_ = obs_spec_losses_ = obs_telemetry_frames_ =
                    obs_telemetry_alerts_ = nullptr;
  } else {
    obs_jobs_ = &registry->counter("dist_mapreduce_jobs_total");
    obs_job_failures_ = &registry->counter("dist_mapreduce_job_failures_total");
    obs_map_tasks_ = &registry->counter("dist_mapreduce_map_tasks_total");
    obs_shuffle_blocks_ = &registry->counter("dist_mapreduce_shuffle_blocks_total");
    obs_shuffle_bytes_ = &registry->counter("dist_mapreduce_shuffle_bytes_total");
    obs_results_ = &registry->counter("dist_mapreduce_results_total");
    obs_input_records_ = &registry->counter("dist_mapreduce_input_records_total");
    obs_worker_deaths_ = &registry->counter("dist_mapreduce_worker_deaths_total");
    obs_tasks_reexecuted_ =
        &registry->counter("dist_mapreduce_tasks_reexecuted_total");
    obs_spec_launched_ =
        &registry->counter("dist_mapreduce_speculative_launched_total");
    obs_spec_wins_ = &registry->counter("dist_mapreduce_speculative_wins_total");
    obs_spec_losses_ =
        &registry->counter("dist_mapreduce_speculative_losses_total");
    obs_telemetry_frames_ =
        &registry->counter("dist_telemetry_frames_total");
    obs_telemetry_alerts_ =
        &registry->counter("dist_telemetry_alerts_total");
  }
  if (ready_ && !cluster_obs_) cluster_.share_registry(registry);
}

void DistributedMapReduce::enable_cluster_obs() {
  if (!ready_) cluster_obs_ = true;
}

void DistributedMapReduce::note_coordinator_flight(const char* category,
                                                   const std::string& message) {
  if (obs::NodeObs* coordinator = coordinator_obs()) {
    coordinator->flight.record(category, message);
  }
}

Result<obs::ClusterSnapshot> DistributedMapReduce::collect_cluster_snapshot() {
  return cluster_.snapshot();
}

void DistributedMapReduce::on_telemetry_alert(const obs::Alert& alert) {
  bump(obs_telemetry_alerts_);
  note_coordinator_flight(
      "telemetry_alert",
      alert.detector + " node=" + alert.node + " metric=" + alert.metric);
  // Answer the alert with a copy of the named node's flight ring, taken
  // while the job still runs: a live postmortem, not an end-of-run autopsy.
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    const obs::NodeObs* onode = cluster_.node_obs(i);
    if (onode == nullptr || onode->node != alert.node) continue;
    alert_postmortems_[onode->node] = {.node = onode->node,
                                       .flight = onode->flight.events(),
                                       .flight_total = onode->flight.total_recorded()};
    return;
  }
}

Status DistributedMapReduce::setup(sgx::AttestationService& service) {
  if (ready_) return Error::protocol("cluster already set up");
  if (config_.num_workers == 0 || config_.num_reducers == 0) {
    return Error::invalid_argument("need at least one worker and one reducer");
  }

  // --- topology: coordinator + workers, full mesh ------------------------
  cluster_.add_node("coordinator", "platform-coordinator", kEntropySeedBase);
  coordinator_node_ = cluster_.node_id(kCoordinator);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    const std::size_t node = cluster_.add_node("worker-" + std::to_string(w),
                                               "platform-worker-" + std::to_string(w),
                                               kEntropySeedBase + 1 + w);
    worker->node = cluster_.node_id(node);
    workers_.push_back(std::move(worker));
  }
  worker_alive_.assign(config_.num_workers, true);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    SC_RETURN_IF_ERROR(cluster_.connect(kCoordinator, w + 1));
    for (std::size_t v = w + 1; v < config_.num_workers; ++v) {
      SC_RETURN_IF_ERROR(cluster_.connect(w + 1, v + 1));
    }
  }
  if (!cluster_obs_) cluster_.share_registry(registry_);
  SC_RETURN_IF_ERROR(cluster_.boot(service));

  if (cluster_obs_) {
    // Driver counters and the job span live on the coordinator node.
    set_obs(cluster_.registry(kCoordinator), cluster_.tracer(kCoordinator));
    // Telemetry plane: the cluster's samplers and coordinator-side
    // monitor, plus the straggler detector. The monitor's alert hook
    // copies the named node's flight ring while the job is still running.
    SC_RETURN_IF_ERROR(cluster_.enable_telemetry(config_.telemetry, obs_telemetry_frames_));
    if (obs::TelemetryMonitor* monitor = cluster_.telemetry_monitor()) {
      // Alert once the median worker has finished a task and a node
      // lags it by one.
      monitor->add_detector(std::make_unique<obs::StragglerDriftDetector>(
          "dist_worker_tasks_done_total", /*min_progress=*/1, /*min_lag=*/1));
      monitor->set_on_alert([this](const obs::Alert& alert) { on_telemetry_alert(alert); });
      // Intern the progress counter now so every worker's first frame
      // carries it at zero: the straggler detector compares it across
      // nodes, and a node that never shipped the metric would be
      // invisible — exactly the node most worth watching.
      for (auto& worker : workers_) {
        (void)worker_obs(worker->index)->registry.counter("dist_worker_tasks_done_total");
      }
    }
  }

  // --- attested sessions carrying the job key and layout ------------------
  // The cluster mints the job key on the coordinator; each worker's edge
  // releases it, with the job layout, as the edge's first sealed record.
  std::vector<EnclaveCluster::Edge> edges;
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    Bytes layout;
    put_u64(layout, w);
    put_u64(layout, config_.num_workers);
    put_u64(layout, config_.num_reducers);
    put_u8(layout, config_.enable_combiner ? 1 : 0);
    put_u64(layout, coordinator_node_);
    put_u32(layout, static_cast<std::uint32_t>(workers_.size()));
    for (const auto& peer : workers_) put_u64(layout, peer->node);
    edges.push_back({kCoordinator, w + 1, std::move(layout)});
  }
  SC_RETURN_IF_ERROR(cluster_.attest(
      edges,
      [this](std::size_t node, net::NodeId from, Bytes payload, obs::TraceContext ctx) {
        if (node == kCoordinator) {
          coordinator_on_flow_payload(from, std::move(payload));
        } else {
          worker_on_flow_payload(*workers_[node - 1], from, std::move(payload), ctx);
        }
      },
      [this](std::size_t node, ByteView layout) {
        return worker_on_layout(*workers_[node - 1], layout);
      }));

  // The failure detector: a worker flow that sent kDead (dying host's
  // RST) or went silent past the beacon threshold is pronounced dead.
  coordinator_flow().set_on_peer_dead(
      [this](net::NodeId node) { on_worker_node_dead(node); });

  ready_ = true;
  return {};
}

bool DistributedMapReduce::worker_on_layout(Worker& worker, ByteView layout) {
  if (!worker.alive) return false;
  ByteReader r(layout);
  std::uint64_t index = 0, num_workers = 0, num_reducers = 0, coordinator = 0;
  std::uint8_t combiner = 0;
  std::uint32_t peers = 0;
  if (!r.get_u64(index) || !r.get_u64(num_workers) || !r.get_u64(num_reducers) ||
      !r.get_u8(combiner) || !r.get_u64(coordinator) || !r.get_count(peers, 8) ||
      index != worker.index) {
    worker_fail(worker, Error::protocol("malformed job configuration record"));
    return false;
  }
  worker.num_workers = num_workers;
  worker.num_reducers = num_reducers;
  worker.combiner = combiner != 0;
  worker.coordinator_node = static_cast<net::NodeId>(coordinator);
  worker.worker_nodes.clear();
  for (std::uint32_t i = 0; i < peers; ++i) {
    std::uint64_t node = 0;
    if (!r.get_u64(node)) {
      worker_fail(worker, Error::protocol("truncated worker node list"));
      return false;
    }
    worker.worker_nodes.push_back(static_cast<net::NodeId>(node));
  }
  return true;
}

void DistributedMapReduce::worker_fail(Worker& worker, Error error) {
  // In a real deployment the worker would send an abort record to the
  // coordinator; the simulation short-circuits to the shared driver so
  // the first failure (in event order — deterministic) wins. An
  // integrity failure is an *attack*, not a crash: the job aborts rather
  // than re-executing onto other nodes. The failed worker quiesces so no
  // later frame is parsed or counted on it (counter bit-identity).
  if (!job_error_.has_value()) {
    job_error_ = Error{error.code,
                       "worker " + std::to_string(worker.index) + ": " + error.message};
  }
  worker.alive = false;
  if (FlowNode* flow = worker_flow(worker)) flow->quiesce();
}

void DistributedMapReduce::worker_on_flow_payload(Worker& worker, net::NodeId from,
                                                  Bytes payload,
                                                  obs::TraceContext ctx) {
  if (!worker.alive) return;
  ByteReader r(payload);
  std::uint8_t type = 0;
  if (!r.get_u8(type)) return;
  switch (type) {
    case kMapTask: {
      worker_handle_map_task(worker, ByteView(payload).subspan(1), ctx);
      return;
    }
    case kShuffle: {
      std::uint64_t epoch = 0, task = 0, reducer = 0;
      Bytes block;
      if (!r.get_u64(epoch) || !r.get_u64(task) || !r.get_u64(reducer) ||
          !r.get_blob(block) || !r.done() || task >= worker.num_workers ||
          reducer >= worker.num_reducers) {
        worker_fail(worker, Error::protocol("malformed shuffle record"));
        return;
      }
      if (epoch < worker.epoch) return;  // stale epoch: drop
      // A reordering network can deliver a peer's shuffle block before
      // our own map task for the same epoch — enter the epoch from
      // whichever message arrives first.
      worker_begin_epoch(worker, epoch);
      // Store whatever is addressed here, owner or not: after an owner
      // change a block can race its kAssign. Duplicate deliveries (and
      // re-executed copies — byte-identical by construction) collapse
      // into the same slot.
      worker.shuffle_store.emplace(
          std::make_pair(static_cast<std::size_t>(reducer),
                         static_cast<std::size_t>(task)),
          std::move(block));
      worker_maybe_reduce(worker, reducer % worker.num_workers);
      return;
    }
    case kAssign: {
      worker_apply_assignment(worker, ByteView(payload).subspan(1));
      return;
    }
    default:
      // kPing and coordinator-bound types carry no worker action: the
      // flow-level ack of the ping's chunk is the liveness proof.
      (void)from;
      return;
  }
}

void DistributedMapReduce::worker_begin_epoch(Worker& worker, std::uint64_t epoch) {
  // Idempotent per epoch: reached from the worker's own map task OR from
  // the first shuffle block / assignment of that epoch, whichever the
  // (possibly reordering) network delivers first. Epochs are strictly
  // increasing and never overlap (run() drains the fabric), so equality
  // suffices.
  if (worker.epoch == epoch) return;
  worker.epoch = epoch;
  worker.map_execs.clear();
  worker.bundle_execs.clear();
  worker.shuffle_store.clear();
  worker.produced.clear();
  // Identity assignment until a kAssign says otherwise: bundle b lives
  // on worker b.
  worker.bundle_owner_node = worker.worker_nodes;
  worker.bundle_execs[worker.index];
}

void DistributedMapReduce::worker_handle_map_task(Worker& worker, ByteView body,
                                                  obs::TraceContext ctx) {
  auto decoded = decode_map_task(body);
  if (!decoded.ok()) {
    worker_fail(worker, decoded.error());
    return;
  }
  const std::uint64_t epoch = decoded->epoch;
  const std::uint64_t task = decoded->task;
  if (task >= worker.num_workers) {
    worker_fail(worker, Error::protocol("malformed map task"));
    return;
  }
  const std::vector<Bytes>& records = decoded->records;

  const std::size_t R = worker.num_reducers;
  worker_begin_epoch(worker, epoch);
  // The chunk header carried the coordinator's job-span context; this
  // worker's map/reduce spans causally parent to it.
  worker.job_ctx = ctx;
  if (worker.map_execs.count(task) != 0) return;  // duplicate delivery
  MapExec& exec = worker.map_execs[task];
  obs::NodeObs* onode = worker_obs(worker.index);
  // Task timeline in the node's flight ring — what an alert-triggered
  // postmortem pull shows: which tasks this node accepted and when.
  if (onode) {
    onode->flight.record(
        "map_task_start", "epoch=" + std::to_string(epoch) +
                              " task=" + std::to_string(task) +
                              " records=" + std::to_string(records.size()));
  }

  // Entering the mapper enclave on this worker's platform.
  sgx::Platform& platform = cluster_.platform(worker.index + 1);
  platform.clock().advance_cycles(platform.cost().ecall_cycles);

  // Per-record decrypt + map with pre-assigned output slots; bucketing
  // runs serially afterwards, so thread count cannot perturb pair order.
  std::vector<std::vector<KeyValue>> mapped(records.size());
  std::vector<std::uint8_t> failed(records.size(), 0);
  // The map_fn for this job travels with the coordinator's run() call;
  // workers see it through the shared driver (simulating code shipped in
  // the measured enclave image).
  const MapFn& map_fn = *current_map_fn_;
  // One key schedule per task, shared by the pool threads: AesGcm's const
  // methods touch no mutable state.
  const crypto::AesGcm gcm(worker_key(worker));
  common::run_indexed(pool_, records.size(), [&](std::size_t i) {
    auto plain = gcm.open_combined(to_bytes("record"), records[i]);
    if (!plain.ok()) {
      failed[i] = 1;
      return;
    }
    mapped[i] = map_fn(*plain);
  });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (failed[i]) {
      worker_fail(worker, Error::integrity("input record failed authentication"));
      return;
    }
  }

  std::vector<std::vector<KeyValue>> per_reducer(R);
  TaskPartitioner partition(R);
  for (auto& pairs : mapped) {
    for (auto& kv : pairs) {
      per_reducer[partition(kv.key)].push_back(std::move(kv));
    }
  }

  std::size_t pair_count = 0;
  for (const auto& bucket : per_reducer) pair_count += bucket.size();

  if (worker.combiner) {
    const ReduceFn& reduce_fn = *current_reduce_fn_;
    for (auto& bucket : per_reducer) {
      std::map<std::string, std::vector<double>> groups;
      for (auto& kv : bucket) groups[kv.key].push_back(kv.value);
      bucket.clear();
      for (auto& [key, values] : groups) {
        bucket.push_back({key, reduce_fn(key, values)});
      }
    }
  }

  // Map span: opens at task arrival (fabric time), parented to the
  // coordinator's job span via the adopted chunk-header context; the
  // deferred finish event closes it after the modeled compute delay (or
  // at cancellation, if a speculative copy superseded this execution).
  if (onode) {
    exec.span = std::make_unique<obs::Span>(&onode->tracer, "dist_mapreduce.map_task",
                                            worker.job_ctx);
    exec.span->set_attribute("worker", std::to_string(worker.index));
    exec.span->set_attribute("task", std::to_string(task));
    exec.span->set_attribute("records", std::to_string(records.size()));
    onode->registry.counter("dist_worker_map_records_total").inc(records.size());
    onode->registry.counter("dist_worker_map_pairs_total").inc(pair_count);
  }

  exec.pending_output = std::move(per_reducer);
  exec.records = records.size();
  exec.pairs = pair_count;

  // Charge the modeled map compute into *fabric* time, scaled by this
  // node's compute skew (the straggler model): the shuffle cannot leave
  // the node before the mapper has finished, so a slowed node holds the
  // whole shuffle barrier back proportionally.
  const std::uint64_t compute_ns = fabric_.scaled_compute_ns(
      worker.node, config_.map_compute_ns_per_record *
                       static_cast<std::uint64_t>(records.size()));
  Worker* worker_ptr = &worker;
  const std::uint64_t epoch_now = worker.epoch;
  fabric_.schedule(compute_ns, [this, worker_ptr, epoch_now, task] {
    worker_finish_map_task(*worker_ptr, epoch_now, task);
  });
}

void DistributedMapReduce::worker_finish_map_task(Worker& worker,
                                                  std::uint64_t epoch,
                                                  std::uint64_t task) {
  if (!worker.alive || worker.epoch != epoch) return;  // dead / superseded
  auto it = worker.map_execs.find(task);
  if (it == worker.map_execs.end()) return;
  MapExec& exec = it->second;
  if (exec.finished || exec.cancelled) return;
  exec.finished = true;
  // Progress signal for the straggler-drift detector: bumps at map
  // *finish* (after the skew-scaled compute delay), so a slowed node's
  // counter visibly lags the cluster while the job is in flight.
  if (obs::NodeObs* onode = worker_obs(worker.index)) {
    onode->registry.counter("dist_worker_tasks_done_total").inc();
    onode->flight.record("map_task_done",
                                "epoch=" + std::to_string(epoch) +
                                    " task=" + std::to_string(task));
  }
  const std::size_t W = worker.num_workers;
  const std::size_t R = worker.num_reducers;
  std::vector<std::vector<KeyValue>> per_reducer = std::move(exec.pending_output);
  exec.pending_output.clear();

  // Shuffle and map-done records carry the map span's context so remote
  // deliveries of this worker's output attribute to it in the trace.
  obs::TraceContext ctx;
  if (exec.span) ctx = exec.span->context();

  // One sealed block per reducer — *always*, even when empty, so every
  // owner can count to exactly W blocks per reducer without timing out.
  // Nonce and AAD are pure functions of (epoch, task, reducer): any
  // re-execution of this task reproduces byte-identical blocks.
  crypto::AesGcm gcm(worker_key(worker));
  std::size_t shuffle_bytes = 0;
  for (std::size_t r = 0; r < R; ++r) {
    const std::uint64_t counter = epoch * (W * R) + task * R + r + 1;
    Bytes block =
        gcm.seal_combined(crypto::nonce_from_counter(counter, kMapReduceShuffleDomain),
                          shuffle_aad(r), serialize_pairs(per_reducer[r]));
    bump(obs_shuffle_blocks_);
    // Logical shuffle volume: block (task, r) counts as shuffled iff its
    // bundle does not *default* to this task's identity worker. A pure
    // function of (task, r) — JobStats stay bit-identical no matter
    // which node actually executed the task or owns the bundle.
    if (r % W != task) shuffle_bytes += block.size();
    worker.produced[std::make_pair(task, r)] =
        ProducedBlock{std::move(block), {}};
    worker_send_block(worker, epoch, task, r, ctx);
  }

  Bytes done;
  put_u8(done, kMapDone);
  put_u64(done, task);
  put_u64(done, exec.records);
  put_u64(done, exec.pairs);
  put_u64(done, shuffle_bytes);
  put_u64(done, 1);  // enclave transitions for the map task
  (void)worker_flow(worker)->send(worker.coordinator_node, done, ctx);

  if (exec.span) {
    exec.span->set_attribute("shuffle_bytes", std::to_string(shuffle_bytes));
    exec.span.reset();  // close at the post-compute fabric timestamp
  }

  for (auto& [bundle, bexec] : worker.bundle_execs) {
    (void)bexec;
    worker_maybe_reduce(worker, bundle);
  }
}

void DistributedMapReduce::worker_send_block(Worker& worker, std::uint64_t epoch,
                                             std::uint64_t task,
                                             std::size_t reducer,
                                             obs::TraceContext ctx) {
  auto pit = worker.produced.find(std::make_pair(task, reducer));
  if (pit == worker.produced.end()) return;
  ProducedBlock& p = pit->second;
  const std::size_t bundle = reducer % worker.num_workers;
  const net::NodeId dest = worker.bundle_owner_node[bundle];
  if (dest == worker.node) {
    worker.shuffle_store.emplace(std::make_pair(reducer, static_cast<std::size_t>(task)),
                                 p.block);
    return;
  }
  if (!p.sent_to.insert(dest).second) return;  // this owner already has it
  bump(obs_shuffle_bytes_, p.block.size());
  Bytes wire;
  put_u8(wire, kShuffle);
  put_u64(wire, epoch);
  put_u64(wire, task);
  put_u64(wire, reducer);
  put_blob(wire, p.block);
  (void)worker_flow(worker)->send(dest, wire, ctx);
}

void DistributedMapReduce::worker_maybe_reduce(Worker& worker,
                                               std::uint64_t bundle) {
  auto bit = worker.bundle_execs.find(bundle);
  if (bit == worker.bundle_execs.end() || bit->second.reduced) return;
  BundleExec& exec = bit->second;
  const std::size_t W = worker.num_workers;
  const std::size_t R = worker.num_reducers;
  // Bundle-complete check: every producing task's block for every
  // reducer of this bundle. Own blocks land here at map finish, so this
  // also gates on the local map being done.
  std::vector<std::size_t> owned;
  for (std::size_t r = bundle; r < R; r += W) {
    owned.push_back(r);
    for (std::size_t t = 0; t < W; ++t) {
      if (worker.shuffle_store.count(std::make_pair(r, t)) == 0) return;
    }
  }
  exec.reduced = true;

  // Entering the reducer enclave.
  sgx::Platform& platform = cluster_.platform(worker.index + 1);
  platform.clock().advance_cycles(platform.cost().ecall_cycles);

  const ReduceFn& reduce_fn = *current_reduce_fn_;
  crypto::AesGcm gcm(worker_key(worker));
  std::size_t pairs_consumed = 0;
  Bytes result_plain;
  put_u64(result_plain, 1);  // enclave transitions for the reduce task
  put_u32(result_plain, static_cast<std::uint32_t>(owned.size()));
  for (const std::size_t r : owned) {
    // Task-order consumption: block slots are indexed by producing task,
    // so arrival order (loss, reorder, NACK recovery, re-execution)
    // cannot change value order.
    std::map<std::string, std::vector<double>> groups;
    for (std::size_t t = 0; t < W; ++t) {
      const Bytes& block = worker.shuffle_store[std::make_pair(r, t)];
      auto plain = gcm.open_combined(shuffle_aad(r), block);
      if (!plain.ok()) {
        worker_fail(worker, Error::integrity("shuffle block failed authentication"));
        return;
      }
      auto pairs = deserialize_pairs(*plain);
      if (!pairs.ok()) {
        worker_fail(worker, pairs.error());
        return;
      }
      for (auto& kv : *pairs) {
        groups[kv.key].push_back(kv.value);
        ++pairs_consumed;
      }
    }
    std::vector<KeyValue> output;
    for (auto& [key, values] : groups) {
      output.push_back({key, reduce_fn(key, values)});
    }
    put_u64(result_plain, r);
    put_blob(result_plain, serialize_pairs(output));
  }

  // Reduce span: opens when the last shuffle block arrived (now, in
  // fabric time), parented to the job span; the deferred finish closes
  // it after the modeled reduce compute and ships the sealed result.
  if (obs::NodeObs* onode = worker_obs(worker.index)) {
    exec.span = std::make_unique<obs::Span>(&onode->tracer, "dist_mapreduce.reduce_task",
                                            worker.job_ctx);
    exec.span->set_attribute("worker", std::to_string(worker.index));
    exec.span->set_attribute("bundle", std::to_string(bundle));
    exec.span->set_attribute("pairs", std::to_string(pairs_consumed));
    onode->registry.counter("dist_worker_reduce_pairs_total").inc(pairs_consumed);
  }

  // Result nonce/AAD keyed by the bundle, not this worker: re-executed
  // bundles seal byte-identically wherever they run.
  const std::uint64_t counter = worker.epoch * W + bundle + 1;
  const Bytes sealed =
      gcm.seal_combined(crypto::nonce_from_counter(counter, kResultDomain),
                        result_aad(bundle), result_plain);
  Bytes wire;
  put_u8(wire, kResult);
  put_u64(wire, bundle);
  put_blob(wire, sealed);
  exec.pending_result_wire = std::move(wire);

  const std::uint64_t compute_ns = fabric_.scaled_compute_ns(
      worker.node, config_.reduce_compute_ns_per_pair *
                       static_cast<std::uint64_t>(pairs_consumed));
  Worker* worker_ptr = &worker;
  const std::uint64_t epoch_now = worker.epoch;
  fabric_.schedule(compute_ns, [this, worker_ptr, epoch_now, bundle] {
    worker_finish_reduce(*worker_ptr, epoch_now, bundle);
  });
}

void DistributedMapReduce::worker_finish_reduce(Worker& worker,
                                                std::uint64_t epoch,
                                                std::uint64_t bundle) {
  if (!worker.alive || worker.epoch != epoch) return;
  auto it = worker.bundle_execs.find(bundle);
  if (it == worker.bundle_execs.end() || it->second.pending_result_wire.empty()) {
    return;
  }
  obs::TraceContext ctx;
  if (it->second.span) ctx = it->second.span->context();
  (void)worker_flow(worker)->send(worker.coordinator_node,
                                 it->second.pending_result_wire, ctx);
  it->second.pending_result_wire.clear();
  it->second.span.reset();  // close at the post-compute fabric timestamp
}

void DistributedMapReduce::worker_apply_assignment(Worker& worker, ByteView body) {
  auto decoded = decode_assignment(body);
  if (!decoded.ok()) {
    worker_fail(worker, decoded.error());
    return;
  }
  if (decoded->owners.size() != worker.num_workers) {
    worker_fail(worker, Error::protocol("malformed assignment owner table"));
    return;
  }
  const std::uint64_t epoch = decoded->epoch;
  const std::vector<net::NodeId>& owners = decoded->owners;

  if (epoch < worker.epoch) return;  // stale
  worker_begin_epoch(worker, epoch);

  // Stop all recovery traffic toward the dead nodes.
  for (net::NodeId d : decoded->dead) {
    if (FlowNode* flow = worker_flow(worker)) flow->abandon_peer(d);
  }

  worker.bundle_owner_node = owners;
  for (std::size_t b = 0; b < owners.size(); ++b) {
    if (owners[b] == worker.node) worker.bundle_execs[b];  // adopt bundle
  }

  // A task reassigned to another node cancels any local in-flight
  // execution: the deferred finish becomes a no-op, no shuffle leaves
  // this node for it, and the map span closes *now* — so a straggler's
  // superseded attempt stops dominating the critical path.
  for (const auto& [task, node] : decoded->reassigns) {
    if (node == worker.node) continue;
    auto it = worker.map_execs.find(task);
    if (it == worker.map_execs.end()) continue;
    MapExec& exec = it->second;
    if (exec.finished || exec.cancelled) continue;
    exec.cancelled = true;
    exec.pending_output.clear();
    if (exec.span) {
      exec.span->set_attribute("cancelled", "1");
      exec.span.reset();
    }
  }

  // Re-route every block we already produced toward its *current* owner
  // (worker_send_block dedups per destination, so unchanged owners see
  // nothing new).
  for (const auto& [key, p] : worker.produced) {
    (void)p;
    worker_send_block(worker, worker.epoch, key.first, key.second, worker.job_ctx);
  }
  for (auto& [bundle, bexec] : worker.bundle_execs) {
    (void)bexec;
    worker_maybe_reduce(worker, bundle);
  }
}

void DistributedMapReduce::coordinator_on_flow_payload(net::NodeId from,
                                                       Bytes payload) {
  ByteReader r(payload);
  std::uint8_t type = 0;
  if (!r.get_u8(type)) return;
  switch (type) {
    case kMapDone: {
      std::uint64_t task = 0, records = 0, pairs = 0, shuffle = 0, transitions = 0;
      if (!r.get_u64(task) || !r.get_u64(records) || !r.get_u64(pairs) ||
          !r.get_u64(shuffle) || !r.get_u64(transitions) || !r.done() ||
          task >= config_.num_workers) {
        if (!job_error_) job_error_ = Error::protocol("malformed map-done record");
        return;
      }
      // First copy in event order wins; re-executed / speculative
      // duplicates are dropped so stats never double-count.
      if (!map_done_seen_.insert(task).second) return;
      collect_.stats.input_records += records;
      collect_.stats.intermediate_pairs += pairs;
      collect_.stats.shuffle_bytes += shuffle;
      collect_.stats.enclave_transitions += transitions;
      bump(obs_input_records_, records);
      auto sit = spec_tasks_.find(task);
      if (sit != spec_tasks_.end()) {
        if (from == workers_[sit->second]->node) {
          bump(obs_spec_wins_);
        } else {
          bump(obs_spec_losses_);
        }
      }
      maybe_schedule_speculation();
      return;
    }
    case kResult: {
      std::uint64_t bundle = 0;
      Bytes sealed;
      if (!r.get_u64(bundle) || !r.get_blob(sealed) || !r.done() ||
          bundle >= config_.num_workers) {
        if (!job_error_) job_error_ = Error::protocol("malformed result record");
        return;
      }
      if (results_seen_.count(bundle) != 0) return;  // duplicate copy
      crypto::AesGcm gcm(cluster_.key(kCoordinator));
      auto plain = gcm.open_combined(result_aad(bundle), sealed);
      if (!plain.ok()) {
        if (!job_error_) {
          job_error_ = Error::integrity("result block failed authentication");
        }
        return;
      }
      ByteReader rr(*plain);
      std::uint64_t transitions = 0;
      std::uint32_t reducers = 0;
      if (!rr.get_u64(transitions) || !rr.get_u32(reducers)) {
        if (!job_error_) job_error_ = Error::protocol("truncated result block");
        return;
      }
      std::map<std::string, double> merged;
      std::uint64_t result_transitions = transitions;
      for (std::uint32_t i = 0; i < reducers; ++i) {
        std::uint64_t reducer = 0;
        Bytes block;
        if (!rr.get_u64(reducer) || !rr.get_blob(block)) {
          if (!job_error_) job_error_ = Error::protocol("truncated result block");
          return;
        }
        auto pairs = deserialize_pairs(block);
        if (!pairs.ok()) {
          if (!job_error_) job_error_ = pairs.error();
          return;
        }
        for (auto& kv : *pairs) merged[kv.key] = kv.value;
      }
      results_seen_.insert(bundle);
      collect_.stats.enclave_transitions += result_transitions;
      // Reducer key spaces are disjoint, so inserts cannot collide.
      for (auto& [key, value] : merged) collect_.output[key] = value;
      bump(obs_results_);
      // Last result in: the job is logically complete — close its span
      // *now*, at the in-loop timestamp, so the post-job ACK/settle
      // traffic is not attributed to job time.
      if (results_seen_.size() == config_.num_workers) job_span_.reset();
      (void)from;
      return;
    }
    default:
      return;
  }
}

// --- recovery / speculation (coordinator side) ----------------------------

std::size_t DistributedMapReduce::alive_count() const {
  std::size_t n = 0;
  for (bool alive : worker_alive_) {
    if (alive) ++n;
  }
  return n;
}

genpack::ContainerSpec DistributedMapReduce::map_task_spec(
    std::uint64_t task) const {
  genpack::ContainerSpec spec;
  spec.id = "map-" + std::to_string(task);
  spec.cls = genpack::ContainerClass::kBatch;
  spec.cpu_cores = kTaskCpuCores;
  spec.mem_gb = kTaskMemGb;
  spec.epc_mb = kTaskEpcMb;
  return spec;
}

genpack::ContainerSpec DistributedMapReduce::bundle_spec(
    std::uint64_t bundle) const {
  genpack::ContainerSpec spec;
  spec.id = "bundle-" + std::to_string(bundle);
  spec.cls = genpack::ContainerClass::kService;
  spec.cpu_cores = kTaskCpuCores;
  spec.mem_gb = kTaskMemGb;
  spec.epc_mb = kTaskEpcMb;
  return spec;
}

void DistributedMapReduce::reset_placement() {
  genpack::ServerConfig server_cfg;
  server_cfg.cpu_capacity = kWorkerCpuCores;
  server_cfg.mem_capacity = kWorkerMemGb;
  server_cfg.epc_capacity = kWorkerEpcMb;
  placement_.clear();
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    placement_.emplace_back(w, server_cfg);
    if (!worker_alive_[w]) (void)placement_.back().fail();
  }
}

std::size_t DistributedMapReduce::pick_replacement(
    const genpack::ContainerSpec& spec) {
  // EPC-aware bin-packing over the surviving servers: enclave containers
  // go where the remaining EPC is tightest (failed servers never fit).
  genpack::EpcAwareBestFitScheduler placer;
  if (auto s = placer.place(spec, placement_)) {
    placement_[*s].place(spec);
    return *s;
  }
  // Saturated cluster: degrade to least-loaded alive worker (accounting
  // intentionally skipped — the model is over capacity already).
  std::size_t best = 0;
  double best_load = 2.0;
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    if (!worker_alive_[w]) continue;
    const double load = placement_[w].cpu_utilization();
    if (load < best_load) {
      best_load = load;
      best = w;
    }
  }
  return best;
}

void DistributedMapReduce::send_map_task(std::size_t executor,
                                         std::uint64_t task) {
  Bytes wire;
  put_u8(wire, kMapTask);
  put_u64(wire, epoch_);
  put_u64(wire, task);
  put_u32(wire, static_cast<std::uint32_t>(task_records_[task].size()));
  for (const Bytes& record : task_records_[task]) put_blob(wire, record);
  bump(obs_map_tasks_);
  (void)coordinator_flow().send(workers_[executor]->node, wire, run_ctx_);
}

void DistributedMapReduce::broadcast_assignment(
    const std::vector<std::pair<std::uint64_t, net::NodeId>>& reassigned_tasks) {
  Bytes wire;
  put_u8(wire, kAssign);
  put_u64(wire, epoch_);
  std::vector<net::NodeId> dead;
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    if (!worker_alive_[w]) dead.push_back(workers_[w]->node);
  }
  put_u32(wire, static_cast<std::uint32_t>(dead.size()));
  for (net::NodeId d : dead) put_u64(wire, d);
  put_u32(wire, static_cast<std::uint32_t>(config_.num_workers));
  for (std::size_t b = 0; b < config_.num_workers; ++b) {
    put_u64(wire, workers_[bundle_owners_[b].back()]->node);
  }
  put_u32(wire, static_cast<std::uint32_t>(reassigned_tasks.size()));
  for (const auto& [task, node] : reassigned_tasks) {
    put_u64(wire, task);
    put_u64(wire, node);
  }
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    if (!worker_alive_[w]) continue;
    (void)coordinator_flow().send(workers_[w]->node, wire, run_ctx_);
  }
}

void DistributedMapReduce::on_worker_node_dead(net::NodeId node) {
  const std::optional<std::size_t> index = cluster_.index_of(node);
  if (index && *index != kCoordinator) handle_worker_death(*index - 1);
}

void DistributedMapReduce::handle_worker_death(std::size_t w) {
  if (w >= workers_.size() || !worker_alive_[w]) return;
  if (job_error_.has_value()) return;  // aborting anyway (e.g. integrity)
  worker_alive_[w] = false;
  bump(obs_worker_deaths_);
  note_coordinator_flight("worker_dead", "worker=" + std::to_string(w));
  coordinator_flow().abandon_peer(workers_[w]->node);
  if (alive_count() == 0) {
    if (!job_error_) {
      job_error_ = Error::unavailable("all workers dead; job cannot complete");
    }
    return;
  }

  // Recovery proper only makes sense while a job is in flight (the
  // placement model and task-record cache belong to the current run).
  const bool job_live = current_map_fn_ != nullptr &&
                        placement_.size() == config_.num_workers &&
                        results_seen_.size() < config_.num_workers;
  std::vector<std::pair<std::uint64_t, net::NodeId>> reassigns;
  if (job_live) {
    auto evacuated = placement_[w].fail();
    for (auto& [id, spec] : evacuated) {
      if (id.rfind("map-", 0) == 0) {
        const std::uint64_t task = std::stoull(id.substr(4));
        // Re-execute unless some *alive* executor also holds the task —
        // even when its kMapDone was already collected: the dead node's
        // cached produced blocks die with it, and a later bundle
        // reassignment would need a surviving producer to re-send them.
        // The re-executed copy is byte-identical and its duplicate
        // kMapDone/blocks are absorbed by the dedup layers.
        bool covered = false;
        for (std::size_t e : task_executors_[task]) {
          covered = covered || (e != w && worker_alive_[e]);
        }
        if (covered) continue;
        const std::size_t x = pick_replacement(spec);
        task_executors_[task].push_back(x);
        bump(obs_tasks_reexecuted_);
        note_coordinator_flight("task_reexec", "task=" + std::to_string(task) +
                                                   " worker=" + std::to_string(x));
        send_map_task(x, task);
        reassigns.emplace_back(task, workers_[x]->node);
      } else if (id.rfind("bundle-", 0) == 0) {
        const std::uint64_t bundle = std::stoull(id.substr(7));
        auto& owners = bundle_owners_[bundle];
        owners.erase(std::remove(owners.begin(), owners.end(), w), owners.end());
        bool alive_owner = false;
        for (std::size_t o : owners) alive_owner = alive_owner || worker_alive_[o];
        if (alive_owner) continue;
        const std::size_t x = pick_replacement(spec);
        owners.assign(1, x);
        note_coordinator_flight("bundle_reassign",
                                "bundle=" + std::to_string(bundle) +
                                    " worker=" + std::to_string(x));
      }
    }
    broadcast_assignment(reassigns);
  }
}

void DistributedMapReduce::maybe_schedule_speculation() {
  if (!config_.speculation.enabled || spec_check_scheduled_) return;
  const std::size_t W = config_.num_workers;
  if (W < 2 || current_map_fn_ == nullptr) return;
  if (map_done_seen_.size() + 1 != W) return;  // all-but-stragglers quorum
  spec_check_scheduled_ = true;
  const std::uint64_t elapsed = fabric_.now_ns() - job_start_ns_;
  const std::uint64_t delay =
      elapsed * config_.speculation.slack_percent / 100;
  const std::uint64_t epoch_now = epoch_;
  fabric_.schedule(delay, [this, epoch_now] { speculation_check(epoch_now); });
}

void DistributedMapReduce::speculation_check(std::uint64_t epoch) {
  if (epoch != epoch_ || current_map_fn_ == nullptr || job_error_.has_value()) {
    return;
  }
  if (results_seen_.size() >= config_.num_workers) return;
  std::vector<std::pair<std::uint64_t, net::NodeId>> reassigns;
  for (std::uint64_t task = 0; task < config_.num_workers; ++task) {
    if (map_done_seen_.count(task) != 0) continue;
    // EPC-aware pick among alive workers *not* already executing the
    // task: tightest-EPC fit, ties to fullest CPU then lowest index.
    std::optional<std::size_t> best;
    for (std::size_t x = 0; x < config_.num_workers; ++x) {
      if (!worker_alive_[x]) continue;
      if (std::find(task_executors_[task].begin(), task_executors_[task].end(),
                    x) != task_executors_[task].end()) {
        continue;
      }
      if (!placement_[x].can_fit(map_task_spec(task))) continue;
      if (!best || placement_[x].epc_free_milli() < placement_[*best].epc_free_milli() ||
          (placement_[x].epc_free_milli() == placement_[*best].epc_free_milli() &&
           placement_[x].cpu_utilization() > placement_[*best].cpu_utilization())) {
        best = x;
      }
    }
    if (!best) continue;
    placement_[*best].place(map_task_spec(task));
    task_executors_[task].push_back(*best);
    spec_tasks_[task] = *best;
    bump(obs_spec_launched_);
    note_coordinator_flight("spec_launch", "task=" + std::to_string(task) +
                                               " worker=" + std::to_string(*best));
    send_map_task(*best, task);
    reassigns.emplace_back(task, workers_[*best]->node);
  }
  // The kAssign cancels the stragglers' superseded executions (first
  // finished copy still wins at the coordinator if the cancel loses the
  // race — both orders are deterministic per seed).
  if (!reassigns.empty()) broadcast_assignment(reassigns);
}

Status DistributedMapReduce::kill_worker(std::size_t w) {
  if (w >= workers_.size()) {
    return Error::invalid_argument("no such worker: " + std::to_string(w));
  }
  Worker& worker = *workers_[w];
  if (!worker.alive) return {};
  worker.alive = false;
  if (FlowNode* flow = worker_flow(worker)) flow->quiesce();
  return {};
}

void DistributedMapReduce::schedule_worker_kill(std::size_t w,
                                                std::uint64_t delay_ns) {
  pending_kills_.push_back(PendingKill{w, delay_ns});
}

std::vector<Bytes> DistributedMapReduce::encrypt_partition(
    const std::vector<Bytes>& records) {
  const std::uint64_t base = record_counter_;
  record_counter_ += records.size();
  crypto::AesGcm gcm(cluster_.key(kCoordinator));
  std::vector<Bytes> out(records.size());
  common::run_indexed(pool_, records.size(), [&](std::size_t i) {
    out[i] =
        gcm.seal_combined(crypto::nonce_from_counter(base + i + 1, kMapReduceRecordDomain),
                          to_bytes("record"), records[i]);
  });
  return out;
}

Result<JobResult> DistributedMapReduce::run(
    const std::vector<std::vector<Bytes>>& encrypted_partitions, const MapFn& map_fn,
    const ReduceFn& reduce_fn) {
  if (!ready_) return Error::protocol("setup() has not completed");
  const std::size_t W = config_.num_workers;
  if (alive_count() == 0) {
    return Error::unavailable("no workers alive; job cannot run");
  }
  const auto fail = [this](Error error) -> Error {
    bump(obs_job_failures_);
    // Typed failure: capture every node's flight-recorder ring alongside
    // the error (the deterministic postmortem). Shared mode has no rings.
    if (auto snapshot = cluster_.snapshot(); snapshot.ok()) {
      postmortem_ = snapshot->to_flight_json();
    }
    return error;
  };

  job_span_ = std::make_unique<obs::Span>(tracer_, "dist_mapreduce.job");
  job_span_->set_attribute("workers", std::to_string(W));
  job_span_->set_attribute("partitions",
                           std::to_string(encrypted_partitions.size()));
  run_ctx_ = job_span_->context();

  ++epoch_;
  collect_ = JobResult{};
  map_done_seen_.clear();
  results_seen_.clear();
  spec_tasks_.clear();
  spec_check_scheduled_ = false;
  job_error_.reset();
  current_map_fn_ = &map_fn;
  current_reduce_fn_ = &reduce_fn;
  job_start_ns_ = fabric_.now_ns();
  reset_placement();

  // Logical work-list: map task t holds the round-robin partition slice
  // t, reduce bundle b the reducers {r : r % W == b}. Records are cached
  // per task so a re-execution re-ships the identical input.
  task_records_.assign(W, {});
  for (std::size_t p = 0; p < encrypted_partitions.size(); ++p) {
    auto& bucket = task_records_[p % W];
    bucket.insert(bucket.end(), encrypted_partitions[p].begin(),
                  encrypted_partitions[p].end());
  }
  task_executors_.assign(W, {});
  bundle_owners_.assign(W, {});

  // Arm any chaos kills scheduled for this run (deterministic fabric
  // timers, so a mid-map kill is reproducible per seed).
  for (const PendingKill& kill : pending_kills_) {
    const std::size_t victim = kill.worker;
    fabric_.schedule(kill.delay_ns, [this, victim] { (void)kill_worker(victim); });
  }
  pending_kills_.clear();

  // Initial placement: identity (task t / bundle b on worker t / b) when
  // that worker is alive; EPC-aware re-placement over the survivors
  // otherwise (two passes so identity load is accounted before any
  // replacement pick).
  for (std::uint64_t t = 0; t < W; ++t) {
    if (!worker_alive_[t]) continue;
    if (placement_[t].can_fit(map_task_spec(t))) placement_[t].place(map_task_spec(t));
    task_executors_[t].assign(1, static_cast<std::size_t>(t));
  }
  for (std::uint64_t b = 0; b < W; ++b) {
    if (!worker_alive_[b]) continue;
    if (placement_[b].can_fit(bundle_spec(b))) placement_[b].place(bundle_spec(b));
    bundle_owners_[b].assign(1, static_cast<std::size_t>(b));
  }
  std::vector<std::pair<std::uint64_t, net::NodeId>> initial_reassigns;
  bool initial_shift = false;
  for (std::uint64_t t = 0; t < W; ++t) {
    if (worker_alive_[t]) continue;
    const std::size_t x = pick_replacement(map_task_spec(t));
    task_executors_[t].assign(1, x);
    initial_reassigns.emplace_back(t, workers_[x]->node);
    initial_shift = true;
  }
  for (std::uint64_t b = 0; b < W; ++b) {
    if (worker_alive_[b]) continue;
    bundle_owners_[b].assign(1, pick_replacement(bundle_spec(b)));
    initial_shift = true;
  }

  // Telemetry plane: arm every node's sampler before the first task
  // ships. Ticks stop once the job completed or failed, and on a dead
  // worker.
  cluster_.start_telemetry([this](std::size_t node) {
    return !job_error_.has_value() && results_seen_.size() < config_.num_workers &&
           (node == kCoordinator || workers_[node - 1]->alive);
  });

  const std::uint64_t cycles_before = fabric_.clock().cycles();
  for (std::uint64_t t = 0; t < W; ++t) send_map_task(task_executors_[t].front(), t);
  if (initial_shift) broadcast_assignment(initial_reassigns);

  // One serial event loop drives the entire job: task delivery, map
  // compute, shuffle, NACK recovery timers, reduce, result collection —
  // and, when a worker dies, detection + re-execution.
  fabric_.run_until_idle();

  // Probe-and-recover: a worker that died while the coordinator had
  // nothing in flight toward it (e.g. it acked its map task, then
  // crashed before producing results) leaves the fabric idle with the
  // job incomplete and no death signal. Ping every alive worker that
  // still owes output: live ones ack at the flow level, a dead one's
  // silence trips the beacon death threshold, whose on_peer_dead kicks
  // re-execution inside the same drained loop. Rounds are bounded — one
  // death per round at worst.
  std::size_t rounds = 0;
  while (!job_error_.has_value() && results_seen_.size() < W && rounds <= W) {
    ++rounds;
    const std::size_t alive_before = alive_count();
    bool probed = false;
    for (std::size_t w = 0; w < W; ++w) {
      if (!worker_alive_[w]) continue;
      bool owes = false;
      for (std::uint64_t t = 0; t < W && !owes; ++t) {
        owes = map_done_seen_.count(t) == 0 &&
               std::find(task_executors_[t].begin(), task_executors_[t].end(),
                         w) != task_executors_[t].end();
      }
      for (std::uint64_t b = 0; b < W && !owes; ++b) {
        owes = results_seen_.count(b) == 0 &&
               std::find(bundle_owners_[b].begin(), bundle_owners_[b].end(),
                         w) != bundle_owners_[b].end();
      }
      if (!owes) continue;
      Bytes ping;
      put_u8(ping, kPing);
      put_u64(ping, epoch_);
      if (coordinator_flow().send(workers_[w]->node, ping, run_ctx_).ok()) {
        probed = true;
      }
    }
    if (!probed) break;
    fabric_.run_until_idle();
    if (alive_count() == alive_before) break;  // nothing new learned
  }

  // Failure paths reach here with the span still open (the success path
  // closed it inside the event loop, at the last result's timestamp).
  job_span_.reset();
  current_map_fn_ = nullptr;
  current_reduce_fn_ = nullptr;

  if (job_error_.has_value()) return fail(*job_error_);
  if (results_seen_.size() < W) {
    // Surface the typed transport failure when one exists (abandoned
    // gap -> kUnavailable), else a generic incompleteness error.
    if (Status h = coordinator_flow().health(); !h.ok()) return fail(h.error());
    for (const auto& worker : workers_) {
      const FlowNode* flow = worker_flow(*worker);
      if (worker->alive && flow != nullptr) {
        if (Status h = flow->health(); !h.ok()) return fail(h.error());
      }
    }
    return fail(Error::unavailable(
        "job incomplete: " + std::to_string(results_seen_.size()) + "/" +
        std::to_string(W) + " worker results arrived"));
  }

  collect_.stats.simulated_cycles = fabric_.clock().cycles() - cycles_before;
  bump(obs_jobs_);
  return std::move(collect_);
}

}  // namespace securecloud::bigdata
