// obs v3 — the continuous telemetry plane.
//
// Post-hoc snapshots (obs v2) answer "what happened"; the telemetry
// plane answers "what is happening": every fabric node periodically
// samples its NodeObs into a delta-encoded, sequence-numbered
// TelemetryFrame and streams it over its attested FlowNode channel to
// a monitor enclave. The monitor folds frames into per-metric
// time-series rings (timeseries.hpp), runs pluggable anomaly
// detectors (anomaly.hpp), and raises typed alerts that the cluster
// layers answer with an on-demand flight-recorder postmortem pull from
// the offending node — live health, not an autopsy.
//
// Wire format (little-endian, common byte codec):
//   u32 magic "TLM1" · str node · u64 seq · u64 at_cycles
//   u32 n · n × (str name, u64 delta)     counters changed since the
//                                         previous frame (frame 0 is a
//                                         full dump: delta from zero)
//   u32 n · n × (str name, i64 value)     gauges whose value changed
//                                         (absolute — gauges don't sum)
// Delta encoding keeps steady-state frames tiny: an idle node ships a
// header and two zero counts. Every length is bounds-checked against
// the remaining wire before allocation, and any truncated or corrupt
// input yields a typed protocol error, never UB.
//
// Determinism contract: samplers run inside serial fabric timer
// events, frames travel ordered FlowNode channels, and the monitor's
// whole state is a pure function of its ingest order — so for a fixed
// seed the exported timeline_json() and alert log are bit-identical at
// 1 vs 8 pool threads and across repeats.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "obs/anomaly.hpp"
#include "obs/cluster.hpp"
#include "obs/timeseries.hpp"

namespace securecloud::obs {

/// One node's health sample: counter deltas + changed gauges since the
/// previous frame, sequence-numbered per node.
struct TelemetryFrame {
  std::string node;
  std::uint64_t seq = 0;        // 0-based, contiguous per node
  std::uint64_t at_cycles = 0;  // SimClock stamp at sampling time
  std::map<std::string, std::uint64_t> counters;  // name -> delta
  std::map<std::string, std::int64_t> gauges;     // name -> absolute

  bool operator==(const TelemetryFrame&) const = default;
};

Bytes serialize_telemetry_frame(const TelemetryFrame& frame);
Result<TelemetryFrame> deserialize_telemetry_frame(ByteView wire);

/// Turns a NodeObs into a frame stream: each sample() diffs the
/// registry against the previous sample and emits only what moved,
/// plus two synthesized gauges the registry doesn't carry —
/// `trace_active_spans` (live spans right now) and
/// `obs_flight_events` (flight-ring total, thrash/recovery trail).
class TelemetrySampler {
 public:
  explicit TelemetrySampler(NodeObs* obs) : obs_(obs) {}

  TelemetryFrame sample(std::uint64_t at_cycles);

  std::uint64_t frames_emitted() const { return next_seq_; }

 private:
  NodeObs* obs_;
  std::uint64_t next_seq_ = 0;
  std::map<std::string, std::uint64_t> prev_counters_;
  std::map<std::string, std::int64_t> prev_gauges_;
};

struct TelemetryMonitorConfig {
  std::uint64_t window_cycles = 1'000'000;  // rollup window width
  std::size_t ring_capacity = 64;           // windows retained per metric
};

/// The monitor enclave's brain: per-node cumulative state, per-metric
/// rollup rings, detector evaluation, typed alert log. Single-threaded
/// by design — ingest is called from the serial fabric event loop.
class TelemetryMonitor {
 public:
  explicit TelemetryMonitor(TelemetryMonitorConfig config = {})
      : config_(config) {}

  void add_detector(std::unique_ptr<AnomalyDetector> detector) {
    detectors_.push_back(std::move(detector));
  }

  /// Fired once per deduplicated alert, on the ingest path (so the
  /// callee may immediately send a postmortem pull over the fabric).
  void set_on_alert(std::function<void(const Alert&)> fn) {
    on_alert_ = std::move(fn);
  }

  /// Applies one frame: seq check, cumulative fold, ring update,
  /// detector pass. Out-of-sequence frames (a dup or a gap — the flow
  /// layer should make both impossible) are dropped with a typed error.
  Status ingest(const TelemetryFrame& frame);

  // -- queries (used by detectors, dashboards, and tests) -------------
  std::vector<std::string> nodes() const;
  std::uint64_t counter_value(const std::string& node,
                              const std::string& metric) const;
  std::int64_t gauge_value(const std::string& node,
                           const std::string& metric) const;
  /// (node, cumulative value) for every node that has reported
  /// `metric`, sorted by node name.
  std::vector<std::pair<std::string, std::uint64_t>> counter_across_nodes(
      const std::string& metric) const;

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::uint64_t frames_ingested() const { return frames_ingested_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  const TelemetryMonitorConfig& config() const { return config_; }

  /// One-line JSON, schema "securecloud.telemetry.v1": full per-node
  /// rollup timeline + the alert log, stable field order — equal
  /// monitor states serialize to byte-identical strings.
  std::string timeline_json() const;

  /// Live `sc-top`-style table: one row per node with throughput,
  /// in-flight chunks, EPC residency, active spans, and alert count.
  std::string dashboard_text() const;

 private:
  struct SeriesRef {
    // Keyed maps keep export order sorted by metric name.
    std::map<std::string, TimeSeries> counters;
    std::map<std::string, TimeSeries> gauges;
  };
  struct NodeState {
    bool seen = false;
    std::uint64_t last_seq = 0;
    std::uint64_t last_at_cycles = 0;
    std::uint64_t frames = 0;
    std::uint64_t alert_count = 0;
    std::map<std::string, std::uint64_t> counters;  // cumulative
    std::map<std::string, std::int64_t> gauges;     // last value
    SeriesRef series;
  };

  TimeSeries& series_for(std::map<std::string, TimeSeries>& kind,
                         const std::string& metric);

  TelemetryMonitorConfig config_;
  std::map<std::string, NodeState> nodes_;
  std::vector<std::unique_ptr<AnomalyDetector>> detectors_;
  std::vector<Alert> alerts_;
  std::set<std::pair<std::string, std::string>> raised_;  // (detector, node)
  std::function<void(const Alert&)> on_alert_;
  std::uint64_t frames_ingested_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace securecloud::obs
