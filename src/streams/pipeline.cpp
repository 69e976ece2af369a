#include "streams/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <set>

#include "bigdata/mapreduce.hpp"

namespace securecloud::streams {

namespace {
const char* kind_name(StageKind kind) {
  switch (kind) {
    case StageKind::kSource: return "source";
    case StageKind::kMap: return "map";
    case StageKind::kFilter: return "filter";
    case StageKind::kKeyBy: return "key_by";
    case StageKind::kWindow: return "window";
    case StageKind::kProcess: return "process";
    case StageKind::kSink: return "sink";
  }
  return "?";
}

bool has_operator(const StageSpec& spec) {
  switch (spec.kind) {
    case StageKind::kSource: return static_cast<bool>(spec.source);
    case StageKind::kMap: return static_cast<bool>(spec.map);
    case StageKind::kFilter: return static_cast<bool>(spec.filter);
    case StageKind::kKeyBy: return static_cast<bool>(spec.key_by);
    case StageKind::kWindow: return true;  // the aggregator is the operator
    case StageKind::kProcess: return static_cast<bool>(spec.process);
    case StageKind::kSink: return static_cast<bool>(spec.sink);
  }
  return false;
}

/// The typing rules a Pipeline chain must satisfy; shared between
/// PipelineBuilder::build() and the Pipeline constructor so a
/// hand-rolled stage list gets the same checks.
Status validate_stages(const std::vector<StageSpec>& stages) {
  if (stages.size() < 2) {
    return Error::invalid_argument("pipeline needs at least a source and a sink");
  }
  std::set<std::string> names;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageSpec& spec = stages[i];
    if (spec.name.empty()) {
      return Error::invalid_argument("stage " + std::to_string(i) + " is unnamed");
    }
    if (!names.insert(spec.name).second) {
      return Error::invalid_argument("duplicate stage name '" + spec.name +
                                     "' (names become fabric node names)");
    }
    if (i == 0 && spec.kind != StageKind::kSource) {
      return Error::invalid_argument("first stage must be a source, '" + spec.name +
                                     "' is a " + kind_name(spec.kind));
    }
    if (i > 0 && spec.kind == StageKind::kSource) {
      return Error::invalid_argument("source '" + spec.name +
                                     "' must be the first stage");
    }
    if (i + 1 == stages.size() && spec.kind != StageKind::kSink) {
      return Error::invalid_argument("last stage must be a sink, '" + spec.name +
                                     "' is a " + kind_name(spec.kind));
    }
    if (i + 1 < stages.size() && spec.kind == StageKind::kSink) {
      return Error::invalid_argument("sink '" + spec.name +
                                     "' must be the last stage");
    }
    if (!has_operator(spec)) {
      return Error::invalid_argument("stage '" + spec.name + "' (" +
                                     kind_name(spec.kind) +
                                     ") is missing its operator function");
    }
  }
  return {};
}

void put_f64(Bytes& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

bool get_f64(ByteReader& in, double& v) {
  std::uint64_t bits = 0;
  if (!in.get_u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

static_assert(static_cast<std::uint8_t>(FrameType::kCredit) <
                  bigdata::EnclaveCluster::kTelemetryTag,
              "frame tags run 1..kCredit; the cluster's telemetry tag is reserved");

/// Stage i's platform draws entropy seed kEntropySeedBase + i.
constexpr std::uint64_t kEntropySeedBase = 0x57AE;
constexpr std::size_t kFlightCapacity = 64;
}  // namespace

// --- builder ---------------------------------------------------------------

PipelineBuilder& PipelineBuilder::source(std::string name, SourceFn fn,
                                         std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kSource;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.source = std::move(fn);
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::map(std::string name, MapFn fn,
                                      std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kMap;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.map = std::move(fn);
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::filter(std::string name, FilterFn fn,
                                         std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kFilter;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.filter = std::move(fn);
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::key_by(std::string name, KeyFn fn,
                                         std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kKeyBy;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.key_by = std::move(fn);
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::window(std::string name, WindowConfig config,
                                         std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kWindow;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.window = config;
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::process(std::string name, ProcessFn fn,
                                          ProcessFlushFn flush,
                                          std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kProcess;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.process = std::move(fn);
  spec.process_flush = std::move(flush);
  stages_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::sink(std::string name, SinkFn fn,
                                       std::uint64_t compute_ns_per_record) {
  StageSpec spec;
  spec.kind = StageKind::kSink;
  spec.name = std::move(name);
  spec.compute_ns_per_record = compute_ns_per_record;
  spec.sink = std::move(fn);
  stages_.push_back(std::move(spec));
  return *this;
}

Result<std::vector<StageSpec>> PipelineBuilder::build() const {
  SC_RETURN_IF_ERROR(validate_stages(stages_));
  return stages_;
}

// --- window-result records -------------------------------------------------

Record window_record(const bigdata::WindowResult& result, std::uint64_t now_ns) {
  Record record;
  record.key = result.key;
  record.timestamp_s = result.window_start_s;
  record.value = result.sum;
  record.origin_ns = now_ns;  // latency anchor: the window-close instant
  put_u64(record.payload, result.window_start_s);
  put_u64(record.payload, result.window_end_s);
  put_f64(record.payload, result.sum);
  put_f64(record.payload, result.min);
  put_f64(record.payload, result.max);
  put_u64(record.payload, static_cast<std::uint64_t>(result.count));
  return record;
}

bool get_window_payload(const Record& record, WindowPayload& payload) {
  ByteReader r(record.payload);
  return r.get_u64(payload.window_start_s) && r.get_u64(payload.window_end_s) &&
         get_f64(r, payload.sum) && get_f64(r, payload.min) &&
         get_f64(r, payload.max) && r.get_u64(payload.count) && r.done();
}

// --- pipeline setup --------------------------------------------------------

Pipeline::Pipeline(net::Fabric& fabric, std::vector<StageSpec> stages,
                   PipelineConfig config)
    : fabric_(fabric),
      config_(std::move(config)),
      cluster_(fabric, config_.flow, kFlightCapacity) {
  topology_ = validate_stages(stages);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    auto stage = std::make_unique<Stage>();
    stage->index = i;
    stage->spec = std::move(stages[i]);
    stages_.push_back(std::move(stage));
  }
}

Pipeline::~Pipeline() = default;

void Pipeline::set_obs(obs::Registry* registry) {
  if (!ready_ && registry != nullptr) cluster_.share_registry(registry);
}

void Pipeline::wire_counters(Stage& stage, obs::Registry* registry) {
  if (registry == nullptr) return;
  stage.obs_records_in = &registry->counter("streams_records_in_total");
  stage.obs_records_out = &registry->counter("streams_records_out_total");
  stage.obs_batches = &registry->counter("streams_batches_total");
  stage.obs_watermarks = &registry->counter("streams_watermarks_total");
  stage.obs_credits_granted = &registry->counter("streams_credits_granted_total");
  stage.obs_credit_stalls = &registry->counter("streams_credit_stalls_total");
  stage.obs_stall_ns = &registry->counter("streams_stall_ns_total");
}

Status Pipeline::setup(sgx::AttestationService& service) {
  if (ready_) return Error::protocol("pipeline already set up");
  SC_RETURN_IF_ERROR(topology_);

  // The fabric node (and NodeObs bundle) is *named after the stage*, so
  // spans carry the stage name as their node label and the critical-path
  // analyzer's dominant_node IS the bottleneck stage's name.
  for (auto& stage : stages_) {
    const std::string& name = stage->spec.name;
    cluster_.add_node(name, "platform-stage-" + name, kEntropySeedBase + stage->index);
    stage->node = cluster_.node_id(stage->index);
    if (stage->index + 1 < stages_.size()) {
      stage->credits = config_.credit_window;
    }
  }
  for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
    SC_RETURN_IF_ERROR(cluster_.connect(i, i + 1));
  }
  SC_RETURN_IF_ERROR(cluster_.boot(service));
  SC_RETURN_IF_ERROR(cluster_.enable_telemetry(config_.telemetry));

  for (auto& stage : stages_) {
    wire_counters(*stage, cluster_.registry(stage->index));
    if (stage->spec.kind != StageKind::kWindow) continue;
    Stage* raw = stage.get();
    stage->agg = std::make_unique<bigdata::TumblingWindowAggregator>(
        stage->spec.window.size_s, stage->spec.window.allowed_lateness_s,
        [this, raw](const bigdata::WindowResult& result) {
          raw->window_out.push_back(window_record(result, fabric_.now_ns()));
        });
    stage->agg->set_obs(cluster_.registry(stage->index));
  }

  // The cluster mints the pipeline key on the source; every edge, walked
  // source-down, releases it as the first sealed record — so no stage
  // joins the data plane without proving the pinned MRENCLAVE.
  std::vector<bigdata::EnclaveCluster::Edge> edges;
  for (std::size_t i = 0; i + 1 < stages_.size(); ++i) edges.push_back({i, i + 1, {}});
  SC_RETURN_IF_ERROR(cluster_.attest(
      edges, [this](std::size_t index, net::NodeId from, Bytes payload, obs::TraceContext) {
        on_frame(*stages_[index], from, std::move(payload));
      }));

  ready_ = true;
  return {};
}

// --- the data plane --------------------------------------------------------

void Pipeline::on_frame(Stage& stage, net::NodeId from, Bytes payload) {
  auto frame = decode_frame(payload);
  if (!frame.ok()) return;  // flow guaranteed integrity; a bad frame is a peer bug
  const bool from_upstream =
      stage.index > 0 && from == stages_[stage.index - 1]->node;
  const bool from_downstream =
      stage.index + 1 < stages_.size() && from == stages_[stage.index + 1]->node;
  switch (frame->type) {
    case FrameType::kCredit:
      if (!from_downstream) return;
      stage.credits += frame->credits;
      break;
    case FrameType::kData:
      if (!from_upstream) return;
      stage.stats.records_in += frame->batch.size();
      obs_inc(stage.obs_records_in, frame->batch.size());
      for (Record& record : frame->batch) {
        stage.inq.push_back(Item{Item::Kind::kRecord, std::move(record), 0});
        ++stage.inq_records;
      }
      break;
    case FrameType::kWatermark:
      if (!from_upstream) return;
      stage.inq.push_back(Item{Item::Kind::kWatermark, {}, frame->watermark_s});
      break;
    case FrameType::kEos:
      if (!from_upstream) return;
      stage.inq.push_back(Item{Item::Kind::kEos, {}, 0});
      break;
  }
  pump(stage.index);
}

void Pipeline::pump(std::size_t index) {
  Stage& stage = *stages_[index];
  flush_out(stage);
  if (stage.spec.kind == StageKind::kSource) maybe_generate(stage);
  maybe_consume(stage);
  flush_out(stage);  // controls consumed inline may have appended output
  maybe_grant(stage);
}

void Pipeline::flush_out(Stage& stage) {
  bigdata::FlowNode* out = flow(stage);
  if (stage.index + 1 >= stages_.size() || out == nullptr) return;
  Stage& down = *stages_[stage.index + 1];
  while (!stage.outq.empty()) {
    const Item::Kind kind = stage.outq.front().kind;
    if (kind == Item::Kind::kWatermark) {
      (void)out->send(down.node, encode_watermark_frame(stage.outq.front().watermark_s),
                      root_ctx_);
      stage.outq.pop_front();
      continue;
    }
    if (kind == Item::Kind::kEos) {
      (void)out->send(down.node, encode_eos_frame(), root_ctx_);
      stage.outq.pop_front();
      continue;
    }
    // Data records consume credits: none left means the downstream's
    // queue is full — stall here, deterministically, until it grants.
    if (stage.credits == 0) {
      if (stage.stalled_since_ns == 0) {
        stage.stalled_since_ns = fabric_.now_ns();
        ++stage.stats.credit_stalls;
        obs_inc(stage.obs_credit_stalls);
      }
      return;
    }
    if (stage.stalled_since_ns != 0) {
      const std::uint64_t stalled = fabric_.now_ns() - stage.stalled_since_ns;
      stage.stats.stall_ns += stalled;
      obs_inc(stage.obs_stall_ns, stalled);
      stage.stalled_since_ns = 0;
    }
    std::vector<Record> batch;
    while (!stage.outq.empty() && stage.outq.front().kind == Item::Kind::kRecord &&
           batch.size() < config_.batch_size && batch.size() < stage.credits) {
      batch.push_back(std::move(stage.outq.front().record));
      stage.outq.pop_front();
      --stage.outq_records;
    }
    stage.credits -= batch.size();
    (void)out->send(down.node, encode_data_frame(batch), root_ctx_);
  }
}

void Pipeline::maybe_generate(Stage& stage) {
  if (stage.busy || stage.source_done) return;
  // The source's own output bound: while stalled output piles up to the
  // credit window, generation pauses — bounded memory under backpressure.
  if (stage.outq_records >= config_.credit_window) return;
  std::vector<Record> pulled;
  while (pulled.size() < config_.batch_size) {
    auto next = stage.spec.source();
    if (!next.has_value()) {
      stage.source_done = true;
      break;
    }
    pulled.push_back(std::move(*next));
  }
  stage.busy = true;
  stage.pending_out = std::move(pulled);
  stage.batch_span = std::make_unique<obs::Span>(
      cluster_.tracer(stage.index), "stage." + stage.spec.name, root_ctx_);
  const std::uint64_t charge = fabric_.scaled_compute_ns(
      stage.node,
      stage.spec.compute_ns_per_record *
          std::max<std::uint64_t>(1, stage.pending_out.size()));
  const std::size_t index = stage.index;
  fabric_.schedule(charge, [this, index] { emit_generated(index); });
}

void Pipeline::emit_generated(std::size_t index) {
  Stage& stage = *stages_[index];
  const std::uint64_t now = fabric_.now_ns();
  if (!stage.pending_out.empty()) {
    // Source order is nondecreasing in event time, so the batch maximum
    // is its last record — the watermark candidate.
    const std::uint64_t max_ts = stage.pending_out.back().timestamp_s;
    for (Record& record : stage.pending_out) {
      record.origin_ns = now;
      push_out_record(stage, std::move(record));
    }
    if (!stage.watermark_started ||
        max_ts >= stage.last_watermark + config_.watermark_interval_s) {
      stage.outq.push_back(Item{Item::Kind::kWatermark, {}, max_ts});
      stage.watermark_started = true;
      stage.last_watermark = max_ts;
      ++stage.stats.watermarks;
      obs_inc(stage.obs_watermarks);
    }
  }
  stage.pending_out.clear();
  if (stage.source_done) {
    stage.outq.push_back(Item{Item::Kind::kEos, {}, 0});
  }
  ++stage.stats.batches;
  obs_inc(stage.obs_batches);
  stage.batch_span.reset();
  stage.busy = false;
  pump(index);
}

void Pipeline::maybe_consume(Stage& stage) {
  if (stage.busy) return;
  // Control records at the queue front are handled inline: they are
  // cheap, serial, and must not wait behind a compute charge.
  while (!stage.inq.empty() && stage.inq.front().kind != Item::Kind::kRecord) {
    Item item = std::move(stage.inq.front());
    stage.inq.pop_front();
    if (item.kind == Item::Kind::kWatermark) {
      ++stage.stats.watermarks;
      obs_inc(stage.obs_watermarks);
      if (stage.agg) {
        stage.agg->advance_to(item.watermark_s);
        for (Record& record : stage.window_out) {
          push_out_record(stage, std::move(record));
        }
        stage.window_out.clear();
      }
      if (stage.spec.kind != StageKind::kSink) {
        stage.outq.push_back(Item{Item::Kind::kWatermark, {}, item.watermark_s});
      }
    } else {  // kEos
      if (stage.agg) {
        (void)stage.agg->flush();  // drop count stays readable via late_dropped()
        for (Record& record : stage.window_out) {
          push_out_record(stage, std::move(record));
        }
        stage.window_out.clear();
      }
      if (stage.spec.kind == StageKind::kProcess && stage.spec.process_flush) {
        for (Record& record : stage.spec.process_flush()) {
          push_out_record(stage, std::move(record));
        }
      }
      if (stage.spec.kind == StageKind::kSink) {
        stage.done = true;
      } else {
        stage.outq.push_back(Item{Item::Kind::kEos, {}, 0});
      }
    }
  }
  if (stage.inq.empty() || stage.inq.front().kind != Item::Kind::kRecord) return;
  // Backpressure hold: a stage whose own output backlog reached the
  // credit window stops consuming — so it stops granting, and the stall
  // propagates upstream instead of growing queues.
  if (stage.spec.kind != StageKind::kSink &&
      stage.outq_records >= config_.credit_window) {
    return;
  }
  std::vector<Record> batch;
  while (!stage.inq.empty() && stage.inq.front().kind == Item::Kind::kRecord &&
         batch.size() < config_.batch_size) {
    batch.push_back(std::move(stage.inq.front().record));
    stage.inq.pop_front();
    --stage.inq_records;
  }
  begin_batch(stage, std::move(batch));
}

void Pipeline::begin_batch(Stage& stage, std::vector<Record> batch) {
  stage.busy = true;
  stage.pending_in = std::move(batch);
  stage.pending_out.clear();
  stage.batch_span = std::make_unique<obs::Span>(
      cluster_.tracer(stage.index), "stage." + stage.spec.name, root_ctx_);
  apply_pure(stage);
  const std::uint64_t charge = fabric_.scaled_compute_ns(
      stage.node,
      stage.spec.compute_ns_per_record *
          std::max<std::uint64_t>(1, stage.pending_in.size()));
  const std::size_t index = stage.index;
  fabric_.schedule(charge, [this, index] { end_batch(index); });
}

void Pipeline::apply_pure(Stage& stage) {
  // The only pool-parallel point in the pipeline: pure per-record
  // transforms into pre-assigned slots between two serial fabric events,
  // then merged in index order — bit-identical at any thread count.
  const std::size_t n = stage.pending_in.size();
  switch (stage.spec.kind) {
    case StageKind::kMap: {
      std::vector<Record> out(n);
      common::run_indexed(pool_, n, [&](std::size_t i) {
        out[i] = stage.spec.map(stage.pending_in[i]);
      });
      stage.pending_out = std::move(out);
      break;
    }
    case StageKind::kFilter: {
      std::vector<std::uint8_t> keep(n, 0);
      common::run_indexed(pool_, n, [&](std::size_t i) {
        keep[i] = stage.spec.filter(stage.pending_in[i]) ? 1 : 0;
      });
      for (std::size_t i = 0; i < n; ++i) {
        if (keep[i] != 0) stage.pending_out.push_back(std::move(stage.pending_in[i]));
      }
      break;
    }
    case StageKind::kKeyBy: {
      std::vector<std::string> keys(n);
      common::run_indexed(pool_, n, [&](std::size_t i) {
        keys[i] = stage.spec.key_by(stage.pending_in[i]);
      });
      for (std::size_t i = 0; i < n; ++i) {
        Record record = std::move(stage.pending_in[i]);
        record.key = std::move(keys[i]);
        stage.pending_out.push_back(std::move(record));
      }
      break;
    }
    default:
      break;  // stateful operators run serially in end_batch
  }
}

void Pipeline::end_batch(std::size_t index) {
  Stage& stage = *stages_[index];
  const std::uint64_t now = fabric_.now_ns();
  switch (stage.spec.kind) {
    case StageKind::kWindow:
      for (const Record& record : stage.pending_in) {
        stage.agg->observe(record.key, record.timestamp_s, record.value);
      }
      for (Record& record : stage.window_out) {
        stage.pending_out.push_back(std::move(record));
      }
      stage.window_out.clear();
      break;
    case StageKind::kProcess:
      for (const Record& record : stage.pending_in) {
        for (Record& out : stage.spec.process(record)) {
          stage.pending_out.push_back(std::move(out));
        }
      }
      break;
    case StageKind::kSink:
      for (const Record& record : stage.pending_in) {
        stage.spec.sink(record, now);
      }
      break;
    default:
      break;  // pure outputs were pre-computed in apply_pure
  }
  const std::uint64_t consumed = stage.pending_in.size();
  for (Record& record : stage.pending_out) {
    push_out_record(stage, std::move(record));
  }
  stage.pending_in.clear();
  stage.pending_out.clear();
  ++stage.stats.batches;
  obs_inc(stage.obs_batches);
  stage.batch_span.reset();
  stage.busy = false;
  stage.consumed_since_grant += consumed;
  pump(index);
}

void Pipeline::push_out_record(Stage& stage, Record record) {
  if (stage.index + 1 >= stages_.size()) return;  // sink emits nothing
  stage.outq.push_back(Item{Item::Kind::kRecord, std::move(record), 0});
  ++stage.outq_records;
  ++stage.stats.records_out;
  obs_inc(stage.obs_records_out);
}

void Pipeline::maybe_grant(Stage& stage) {
  if (stage.index == 0 || stage.consumed_since_grant == 0 || !flow(stage)) return;
  // Grant when a batch's worth accumulated — or whenever the input queue
  // drained, so credits never strand below the batch threshold.
  const bool drained = stage.inq_records == 0 && !stage.busy;
  if (stage.consumed_since_grant < config_.grant_batch && !drained) return;
  Stage& up = *stages_[stage.index - 1];
  (void)flow(stage)->send(up.node, encode_credit_frame(stage.consumed_since_grant),
                          root_ctx_);
  stage.stats.credits_granted += stage.consumed_since_grant;
  obs_inc(stage.obs_credits_granted, stage.consumed_since_grant);
  stage.consumed_since_grant = 0;
}

// --- driver ----------------------------------------------------------------

Status Pipeline::run() {
  if (!ready_) return Error::protocol("pipeline not set up");
  if (ran_) return Error::protocol("pipeline already ran");
  ran_ = true;
  run_start_ns_ = fabric_.now_ns();
  root_span_ = std::make_unique<obs::Span>(cluster_.tracer(0), "stream.pipeline");
  root_ctx_ = root_span_->context();
  pump(0);
  cluster_.start_telemetry([this](std::size_t) { return !stages_.back()->done; });
  while (!stages_.back()->done) {
    if (fabric_.run_until_idle() == 0) {
      root_span_.reset();
      Status health_status = health();
      return health_status.ok()
                 ? Error::unavailable("pipeline stalled before the sink saw EOS")
                 : health_status;
    }
  }
  fabric_.run_until_idle();  // drain residual grants, acks, beacons
  wall_ns_ = fabric_.now_ns() - run_start_ns_;
  root_span_.reset();  // root closes after every batch span ended
  return health();
}

PipelineStats Pipeline::stats() const {
  PipelineStats out;
  for (const auto& stage : stages_) {
    StageStats stats = stage->stats;
    stats.name = stage->spec.name;
    if (stage->agg) stats.late_dropped = stage->agg->late_dropped();
    out.credit_stalls += stats.credit_stalls;
    out.stall_ns += stats.stall_ns;
    out.stages.push_back(std::move(stats));
  }
  if (!stages_.empty()) out.records_delivered = stages_.back()->stats.records_in;
  out.wall_ns = wall_ns_;
  return out;
}

Status Pipeline::health() const { return cluster_.health(); }

Result<obs::ClusterSnapshot> Pipeline::cluster_snapshot() const {
  return cluster_.snapshot();
}

net::NodeId Pipeline::stage_node(std::size_t stage) const {
  return stage < stages_.size() ? stages_[stage]->node : 0;
}

obs::NodeObs* Pipeline::stage_obs(std::size_t stage) {
  return stage < cluster_.size() ? cluster_.node_obs(stage) : nullptr;
}

}  // namespace securecloud::streams
