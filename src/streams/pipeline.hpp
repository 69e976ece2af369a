// SecureStreams: reactive secure stream processing over the cluster
// fabric.
//
// A Pipeline is a linear chain of operator stages — source, map, filter,
// key_by, window, process, sink — each running in its own enclave on a
// fabric node. The stages are one bigdata::EnclaveCluster: one node per
// stage, one attested edge per adjacent pair (established source-down),
// the pipeline key minted at the source released hop by hop as each
// edge's first sealed record, and all inter-stage traffic on a FlowNode
// keyed by it — chunked, AES-GCM sealed per chunk, NACK-recovered, so
// armed loss/reorder faults are survivable with zero record loss.
//
// Backpressure is credit-based and deterministic. Each stage starts
// with `credit_window` records of budget toward its downstream; data
// records consume one credit each at send, and the downstream grants
// credits back (kCredit frames, upstream) as it consumes. A stage whose
// output queue backs up simply stops consuming — so it stops granting —
// and the stall propagates stage by stage to the source, which pauses
// generation. Nothing is ever dropped for flow-control reasons; the
// only sanctioned loss is a *late* event past its window's grace period
// (counted, and exported as streaming_late_dropped_total). Watermarks,
// EOS, and grants travel outside the credit budget, so the control
// plane that resolves a stall can never itself be stalled.
//
// Event time: the source stamps watermarks from its own emission order
// (nondecreasing event time); window stages feed them to a
// TumblingWindowAggregator (advance_to), emit closed windows as new
// records, and forward the watermark. EOS flushes every open window.
//
// Determinism contract: all queue, credit, and counter mutations happen
// inside fabric events — a serially-driven total order. A ThreadPool
// only ever applies *pure* per-record transforms (map / filter / key_by)
// into pre-assigned slots between two serial points, so outputs, stats,
// and every `streams_*` counter are bit-identical at 1 and 8 threads
// for a fixed fault seed (tests/streams_test.cpp proves it under armed
// kNetLoss + kNetReorder).
//
// Observability: per-stage NodeObs bundles named after the stage, one
// root span ("stream.pipeline") on the source's tracer, and one
// "stage.<name>" span per compute batch adopting the root's remote
// context — so obs::critical_path() over the merged snapshot names the
// bottleneck stage as its dominant node. With config.telemetry on, the
// cluster's telemetry plane relays every stage's frames upstream, hop by
// hop, to the source's monitor.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bigdata/enclave_cluster.hpp"
#include "bigdata/streaming.hpp"
#include "common/thread_pool.hpp"
#include "streams/record.hpp"

namespace securecloud::streams {

enum class StageKind : std::uint8_t {
  kSource,
  kMap,
  kFilter,
  kKeyBy,
  kWindow,
  kProcess,
  kSink,
};

/// Pulls the next record; nullopt ends the stream. Called serially from
/// the source stage's fabric events; must yield nondecreasing
/// timestamp_s (the watermark generator assumes event-time order).
using SourceFn = std::function<std::optional<Record>()>;
/// Pure per-record transform (may run on pool workers).
using MapFn = std::function<Record(const Record&)>;
/// Pure predicate: false drops the record (may run on pool workers).
using FilterFn = std::function<bool(const Record&)>;
/// Pure re-keying (may run on pool workers).
using KeyFn = std::function<std::string(const Record&)>;
/// Stateful one-to-many operator; runs serially in fabric events.
using ProcessFn = std::function<std::vector<Record>(const Record&)>;
/// End-of-stream flush for a process stage (emit retained state).
using ProcessFlushFn = std::function<std::vector<Record>()>;
/// Terminal consumer; `now_ns` is fabric time when the sink's compute
/// charge for the batch completed (latency = now_ns - record.origin_ns).
using SinkFn = std::function<void(const Record&, std::uint64_t now_ns)>;

struct WindowConfig {
  std::uint64_t size_s = 3600;
  std::uint64_t allowed_lateness_s = 0;
};

/// One stage of a pipeline; built through PipelineBuilder, which
/// enforces the typing rules (exactly one source first, one sink last).
struct StageSpec {
  StageKind kind = StageKind::kMap;
  std::string name;
  /// Simulated enclave compute charged per record (scaled by the node's
  /// compute skew); this is what makes a slow stage the bottleneck the
  /// critical-path analyzer names.
  std::uint64_t compute_ns_per_record = 500;
  SourceFn source;
  MapFn map;
  FilterFn filter;
  KeyFn key_by;
  WindowConfig window;
  ProcessFn process;
  ProcessFlushFn process_flush;
  SinkFn sink;
};

/// Fluent, order-checked pipeline assembly. build() returns the stage
/// list or a typed kInvalidArgument naming the first rule violated.
class PipelineBuilder {
 public:
  PipelineBuilder& source(std::string name, SourceFn fn,
                          std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& map(std::string name, MapFn fn,
                       std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& filter(std::string name, FilterFn fn,
                          std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& key_by(std::string name, KeyFn fn,
                          std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& window(std::string name, WindowConfig config,
                          std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& process(std::string name, ProcessFn fn,
                           ProcessFlushFn flush = nullptr,
                           std::uint64_t compute_ns_per_record = 500);
  PipelineBuilder& sink(std::string name, SinkFn fn,
                        std::uint64_t compute_ns_per_record = 500);

  /// Validates the chain: at least source + sink, source exactly first,
  /// sink exactly last, every stage named, names unique (they become
  /// fabric node names), every stage carrying its operator fn.
  Result<std::vector<StageSpec>> build() const;

 private:
  std::vector<StageSpec> stages_;
};

struct PipelineConfig {
  /// Every stage's flow (inter-stage links take net::LinkConfig's defaults).
  bigdata::FlowConfig flow;
  /// Records a stage may have outstanding (sent, not yet granted back)
  /// toward its downstream; also the source's output-queue bound, so
  /// per-stage memory is O(credit_window) regardless of stream length.
  std::uint64_t credit_window = 64;
  /// Downstream grants after consuming this many records (a residual
  /// grant fires whenever its input queue drains, so credits never
  /// strand below the batch threshold).
  std::uint64_t grant_batch = 16;
  /// Records per data frame / per compute batch.
  std::size_t batch_size = 32;
  /// Source emits a watermark when event time advanced this far past
  /// the last one.
  std::uint64_t watermark_interval_s = 60;
  /// EnclaveCluster's telemetry plane (per-node obs mode only): during
  /// run() every stage's frames travel upstream, stage by stage, to the
  /// source's monitor (telemetry_monitor()) until the sink saw EOS.
  bigdata::TelemetryConfig telemetry;
};

struct StageStats {
  std::string name;
  std::uint64_t records_in = 0;       // data records received off the link
  std::uint64_t records_out = 0;      // records appended to the output queue
  std::uint64_t batches = 0;          // compute batches charged
  std::uint64_t watermarks = 0;       // watermark controls consumed/emitted
  std::uint64_t credits_granted = 0;  // records granted back upstream
  std::uint64_t credit_stalls = 0;    // times the output stalled on 0 credits
  std::uint64_t stall_ns = 0;         // fabric time spent stalled
  std::uint64_t late_dropped = 0;     // window stage: late events dropped

  bool operator==(const StageStats&) const = default;
};

struct PipelineStats {
  std::vector<StageStats> stages;
  std::uint64_t records_delivered = 0;  // sink's records_in
  std::uint64_t credit_stalls = 0;      // summed over stages
  std::uint64_t stall_ns = 0;
  std::uint64_t wall_ns = 0;  // fabric time, run() start to sink EOS + drain

  bool operator==(const PipelineStats&) const = default;
};

/// Helpers for window-result records: the window stage emits one record
/// per closed window with value = sum and this payload attached.
struct WindowPayload {
  std::uint64_t window_start_s = 0;
  std::uint64_t window_end_s = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::uint64_t count = 0;
};
Record window_record(const bigdata::WindowResult& result, std::uint64_t now_ns);
bool get_window_payload(const Record& record, WindowPayload& payload);

class Pipeline {
 public:
  /// `stages` comes from PipelineBuilder::build(). Nodes and links are
  /// added to `fabric` in setup(); fabric and clock must outlive this.
  Pipeline(net::Fabric& fabric, std::vector<StageSpec> stages,
           PipelineConfig config = {});
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  ~Pipeline();

  /// Builds the chain as an EnclaveCluster: fabric nodes named after
  /// their stage, an attested edge per adjacent pair (source-down), the
  /// pipeline key released through each, and a FlowNode per stage.
  Status setup(sgx::AttestationService& service);

  /// Shared-registry mode: call before setup() to aggregate every
  /// stage's counters into one registry instead of per-stage NodeObs
  /// bundles (the bench / TSan-hammer mode; disables tracing).
  void set_obs(obs::Registry* registry);

  /// Pool for the pure per-record transforms (map/filter/key_by).
  /// Outputs are bit-identical with and without it.
  void set_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Drives the stream to completion: source exhaustion, EOS through
  /// every stage, sink done, all flow traffic settled. Single-shot.
  /// Returns kUnavailable if the fabric idles before the sink saw EOS
  /// (a credit-protocol deadlock — by construction unreachable) or the
  /// first flow failure.
  Status run();

  PipelineStats stats() const;

  /// First failure across stage flows.
  Status health() const;

  /// Merged per-stage observability (per-node mode only).
  Result<obs::ClusterSnapshot> cluster_snapshot() const;
  /// The source's telemetry monitor; null unless config.telemetry is on.
  const obs::TelemetryMonitor* telemetry_monitor() const {
    return cluster_.telemetry_monitor();
  }

  /// The pipeline root span's context (valid during/after run() in
  /// per-node mode); batch spans on every stage parent to it.
  obs::TraceContext root_context() const { return root_ctx_; }

  std::size_t stage_count() const { return stages_.size(); }
  net::NodeId stage_node(std::size_t stage) const;
  obs::NodeObs* stage_obs(std::size_t stage);
  const Status& topology() const { return topology_; }

 private:
  struct Item {
    enum class Kind : std::uint8_t { kRecord, kWatermark, kEos };
    Kind kind = Kind::kRecord;
    Record record;
    std::uint64_t watermark_s = 0;
  };

  /// A stage's data-plane state; its enclave, sessions and flow live in
  /// the cluster under the stage's index.
  struct Stage {
    std::size_t index = 0;
    StageSpec spec;
    net::NodeId node = 0;

    std::deque<Item> inq;
    std::size_t inq_records = 0;  // data records in inq (controls excluded)
    std::deque<Item> outq;
    std::size_t outq_records = 0;
    std::uint64_t credits = 0;  // records we may still send downstream
    std::uint64_t consumed_since_grant = 0;
    bool busy = false;         // a compute batch's charge is in flight
    bool source_done = false;  // source fn returned nullopt
    bool done = false;         // sink consumed EOS
    bool watermark_started = false;
    std::uint64_t last_watermark = 0;
    std::uint64_t stalled_since_ns = 0;  // 0 = not stalled

    std::unique_ptr<bigdata::TumblingWindowAggregator> agg;
    std::vector<Record> window_out;  // emissions captured by agg callback

    std::unique_ptr<obs::Span> batch_span;
    std::vector<Record> pending_in;   // batch awaiting its compute charge
    std::vector<Record> pending_out;  // pre-computed (pure) outputs

    StageStats stats;
    obs::Counter* obs_records_in = nullptr;
    obs::Counter* obs_records_out = nullptr;
    obs::Counter* obs_batches = nullptr;
    obs::Counter* obs_watermarks = nullptr;
    obs::Counter* obs_credits_granted = nullptr;
    obs::Counter* obs_credit_stalls = nullptr;
    obs::Counter* obs_stall_ns = nullptr;
  };

  bigdata::FlowNode* flow(const Stage& stage) const { return cluster_.flow(stage.index); }
  void wire_counters(Stage& stage, obs::Registry* registry);
  void on_frame(Stage& stage, net::NodeId from, Bytes payload);

  /// The per-stage scheduler; runs inside fabric events only.
  void pump(std::size_t index);
  void flush_out(Stage& stage);
  void maybe_generate(Stage& stage);
  void emit_generated(std::size_t index);
  void maybe_consume(Stage& stage);
  void begin_batch(Stage& stage, std::vector<Record> batch);
  void end_batch(std::size_t index);
  void maybe_grant(Stage& stage);
  void push_out_record(Stage& stage, Record record);
  void apply_pure(Stage& stage);
  void obs_inc(obs::Counter* counter, std::uint64_t delta = 1) {
    if (counter != nullptr && delta != 0) counter->inc(delta);
  }

  net::Fabric& fabric_;
  PipelineConfig config_;
  Status topology_;
  bool ready_ = false;
  bool ran_ = false;
  bigdata::EnclaveCluster cluster_;
  std::vector<std::unique_ptr<Stage>> stages_;
  common::ThreadPool* pool_ = nullptr;
  std::unique_ptr<obs::Span> root_span_;
  obs::TraceContext root_ctx_;
  std::uint64_t run_start_ns_ = 0;
  std::uint64_t wall_ns_ = 0;
};

}  // namespace securecloud::streams
