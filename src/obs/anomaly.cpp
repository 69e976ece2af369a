#include "obs/anomaly.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace securecloud::obs {

const std::string StragglerDriftDetector::kName = "straggler_drift";

void StragglerDriftDetector::evaluate(const TelemetryMonitor& monitor,
                                      const TelemetryFrame& /*frame*/,
                                      std::vector<Alert>& out) {
  const auto values = monitor.counter_across_nodes(metric_);
  if (values.size() < 2) return;  // no cluster to lag behind
  std::vector<std::uint64_t> sorted;
  sorted.reserve(values.size());
  for (const auto& [node, value] : values) sorted.push_back(value);
  std::sort(sorted.begin(), sorted.end());
  // Lower median: robust against the straggler itself dragging a mean.
  const std::uint64_t median = sorted[(sorted.size() - 1) / 2];
  if (median < min_progress_) return;  // cluster barely started
  const std::uint64_t lag = min_lag_ == 0 ? 1 : min_lag_;
  for (const auto& [node, value] : values) {
    if (value >= median || median - value < lag) continue;
    Alert alert;
    alert.detector = kName;
    alert.node = node;
    alert.metric = metric_;
    alert.value = static_cast<std::int64_t>(value);
    alert.threshold = static_cast<std::int64_t>(median - lag);
    alert.detail = "progress " + std::to_string(value) +
                   " lags cluster median " + std::to_string(median) +
                   " by >= " + std::to_string(lag);
    out.push_back(std::move(alert));
  }
}

void WindowedBurstDetector::evaluate(const TelemetryMonitor& /*monitor*/,
                                     const TelemetryFrame& frame,
                                     std::vector<Alert>& out) {
  std::uint64_t delta = 0;
  for (const std::string& metric : metrics_) {
    if (auto it = frame.counters.find(metric); it != frame.counters.end()) {
      delta += it->second;
    }
  }
  NodeWindow& window = per_node_[frame.node];
  const std::uint64_t index = frame.at_cycles / window_cycles_;
  if (index != window.window_index) {
    window.window_index = index;
    window.accumulated = 0;
  }
  window.accumulated += delta;
  if (threshold_ == 0 || window.accumulated < threshold_) return;
  Alert alert;
  alert.detector = name_;
  alert.node = frame.node;
  alert.metric = metrics_.front();
  alert.value = static_cast<std::int64_t>(window.accumulated);
  alert.threshold = static_cast<std::int64_t>(threshold_);
  alert.detail = std::to_string(window.accumulated) + " events in window " +
                 std::to_string(index);
  out.push_back(std::move(alert));
}

std::unique_ptr<AnomalyDetector> make_fault_storm_detector(
    std::uint64_t window_cycles, std::uint64_t events_threshold) {
  return std::make_unique<WindowedBurstDetector>(
      "fault_storm",
      std::vector<std::string>{"net_flow_nacks_sent_total",
                               "net_flow_retransmits_total"},
      window_cycles, events_threshold);
}

}  // namespace securecloud::obs
