// Pluggable anomaly detectors over the live telemetry stream (obs v3).
//
// Detectors are evaluated by the TelemetryMonitor after each frame is
// applied to its per-node state, on the serial ingest path — so every
// detector sees frames in the same deterministic order and may keep
// plain (non-atomic) state. A detector appends candidate Alerts; the
// monitor assigns sequence numbers, deduplicates per (detector, node)
// so one degraded node raises one alert rather than one per frame, and
// fires the alert hook (which the cluster layers use to pull a
// flight-recorder postmortem from the offending node).
//
// Two built-ins cover the failure modes the SecureCloud platform
// layer cares about:
//   StragglerDriftDetector — a node's progress counter falls behind
//                            the cluster median (compute skew, §V).
//   fault storm            — NACK + retransmit burst per window (lossy
//                            or partitioned link), a WindowedBurstDetector.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace securecloud::obs {

struct TelemetryFrame;
class TelemetryMonitor;

/// A typed anomaly raised by a detector. `seq` is assigned by the
/// monitor in raise order (deterministic for a fixed ingest order).
struct Alert {
  std::uint64_t seq = 0;
  std::uint64_t at_cycles = 0;
  std::string detector;
  std::string node;
  std::string metric;
  std::int64_t value = 0;      // observed value that tripped the rule
  std::int64_t threshold = 0;  // configured limit it crossed
  std::string detail;

  bool operator==(const Alert&) const = default;
};

class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;
  virtual const std::string& name() const = 0;

  /// Called after `frame` has been folded into the monitor's per-node
  /// state. Appends candidate alerts to `out` (the monitor dedups).
  virtual void evaluate(const TelemetryMonitor& monitor,
                        const TelemetryFrame& frame,
                        std::vector<Alert>& out) = 0;
};

/// Flags nodes whose cumulative progress counter lags the cluster
/// median by at least `min_lag`, once the median itself has reached
/// `min_progress` (so a cluster that has barely started never alarms).
class StragglerDriftDetector final : public AnomalyDetector {
 public:
  StragglerDriftDetector(std::string progress_metric,
                         std::uint64_t min_progress, std::uint64_t min_lag)
      : metric_(std::move(progress_metric)),
        min_progress_(min_progress),
        min_lag_(min_lag) {}

  const std::string& name() const override { return kName; }
  void evaluate(const TelemetryMonitor& monitor, const TelemetryFrame& frame,
                std::vector<Alert>& out) override;

 private:
  static const std::string kName;
  std::string metric_;
  std::uint64_t min_progress_;
  std::uint64_t min_lag_;
};

/// Shared machinery: accumulates the per-frame delta of a set of
/// counters into tumbling windows (per node) and alerts when one
/// window's accumulated delta reaches `threshold`.
class WindowedBurstDetector : public AnomalyDetector {
 public:
  WindowedBurstDetector(std::string name, std::vector<std::string> metrics,
                        std::uint64_t window_cycles, std::uint64_t threshold)
      : name_(std::move(name)),
        metrics_(std::move(metrics)),
        window_cycles_(window_cycles == 0 ? 1 : window_cycles),
        threshold_(threshold) {}

  const std::string& name() const override { return name_; }
  void evaluate(const TelemetryMonitor& monitor, const TelemetryFrame& frame,
                std::vector<Alert>& out) override;

 private:
  struct NodeWindow {
    std::uint64_t window_index = 0;
    std::uint64_t accumulated = 0;
  };

  std::string name_;
  std::vector<std::string> metrics_;
  std::uint64_t window_cycles_;
  std::uint64_t threshold_;
  std::map<std::string, NodeWindow> per_node_;
};

/// net_flow NACKs + retransmits bursting ≥ threshold per window.
std::unique_ptr<AnomalyDetector> make_fault_storm_detector(
    std::uint64_t window_cycles, std::uint64_t events_threshold);

}  // namespace securecloud::obs
