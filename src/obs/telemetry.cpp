#include "obs/telemetry.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace securecloud::obs {

namespace {

constexpr std::uint32_t kTelemetryMagic = 0x544c4d31;  // "TLM1"

std::string pad_left(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

// Metric-map codec: u32 n · n × (str name, u64 value). V is std::uint64_t
// (counters) or std::int64_t (gauges, carried as their bit pattern).
// Each entry takes at least 12 wire bytes, so the count is bounded by
// the wire left before anything is decoded.
template <typename V>
void put_metric_map(Bytes& out, const std::map<std::string, V>& metrics) {
  put_u32(out, static_cast<std::uint32_t>(metrics.size()));
  for (const auto& [name, value] : metrics) {
    put_str(out, name);
    put_u64(out, static_cast<std::uint64_t>(value));
  }
}

template <typename V>
bool get_metric_map(ByteReader& in, std::map<std::string, V>& metrics) {
  std::uint32_t n = 0;
  if (!in.get_count(n, 12)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t raw = 0;
    if (!in.get_str(name) || !in.get_u64(raw)) return false;
    metrics.emplace(std::move(name), static_cast<V>(raw));
  }
  return true;
}

}  // namespace

Bytes serialize_telemetry_frame(const TelemetryFrame& frame) {
  Bytes out;
  put_u32(out, kTelemetryMagic);
  put_str(out, frame.node);
  put_u64(out, frame.seq);
  put_u64(out, frame.at_cycles);
  put_metric_map(out, frame.counters);
  put_metric_map(out, frame.gauges);
  return out;
}

Result<TelemetryFrame> deserialize_telemetry_frame(ByteView wire) {
  ByteReader in(wire);
  const auto fail = [] {
    return Error::protocol("telemetry frame: truncated or malformed");
  };
  std::uint32_t magic = 0;
  if (!in.get_u32(magic) || magic != kTelemetryMagic) return fail();

  TelemetryFrame frame;
  if (!in.get_str(frame.node) || !in.get_u64(frame.seq) ||
      !in.get_u64(frame.at_cycles) || !get_metric_map(in, frame.counters) ||
      !get_metric_map(in, frame.gauges) || in.remaining() != 0) {
    return fail();
  }
  return frame;
}

TelemetryFrame TelemetrySampler::sample(std::uint64_t at_cycles) {
  TelemetryFrame frame;
  frame.node = obs_->node;
  frame.seq = next_seq_++;
  frame.at_cycles = at_cycles;

  const Snapshot snap = obs_->registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    // A registry reset() between samples makes the counter shrink;
    // re-baseline by shipping the full value rather than underflowing.
    const std::uint64_t delta = value >= prev ? value - prev : value;
    // The first frame ships every counter — zeros included — so the
    // monitor learns which metrics a node *has* before they move (a
    // zero-progress straggler must still show up in cross-node
    // comparisons). Later frames ship only what changed.
    if (delta != 0 || frame.seq == 0) frame.counters[name] = delta;
    prev_counters_[name] = value;
  }

  std::map<std::string, std::int64_t> gauges = snap.gauges;
  gauges["trace_active_spans"] =
      static_cast<std::int64_t>(obs_->tracer.active_count());
  gauges["obs_flight_events"] =
      static_cast<std::int64_t>(obs_->flight.total_recorded());
  for (const auto& [name, value] : gauges) {
    const auto it = prev_gauges_.find(name);
    if (it == prev_gauges_.end() || it->second != value) {
      frame.gauges[name] = value;
    }
    prev_gauges_[name] = value;
  }
  return frame;
}

TimeSeries& TelemetryMonitor::series_for(
    std::map<std::string, TimeSeries>& kind, const std::string& metric) {
  auto it = kind.find(metric);
  if (it == kind.end()) {
    it = kind.emplace(metric, TimeSeries(config_.window_cycles,
                                         config_.ring_capacity))
             .first;
  }
  return it->second;
}

Status TelemetryMonitor::ingest(const TelemetryFrame& frame) {
  const auto it = nodes_.find(frame.node);
  const bool seen = it != nodes_.end() && it->second.seen;
  const std::uint64_t expected = seen ? it->second.last_seq + 1 : 0;
  if (frame.seq != expected) {
    ++frames_dropped_;
    return Error::protocol("telemetry: out-of-sequence frame " +
                           std::to_string(frame.seq) + " from " + frame.node +
                           " (expected " + std::to_string(expected) + ")");
  }

  NodeState& state = nodes_[frame.node];
  state.seen = true;
  state.last_seq = frame.seq;
  state.last_at_cycles = frame.at_cycles;
  ++state.frames;
  ++frames_ingested_;

  for (const auto& [name, delta] : frame.counters) {
    const std::uint64_t cumulative = (state.counters[name] += delta);
    series_for(state.series.counters, name)
        .observe(frame.at_cycles, static_cast<std::int64_t>(cumulative));
  }
  for (const auto& [name, value] : frame.gauges) {
    state.gauges[name] = value;
    series_for(state.series.gauges, name).observe(frame.at_cycles, value);
  }

  std::vector<Alert> candidates;
  for (const auto& detector : detectors_) {
    detector->evaluate(*this, frame, candidates);
  }
  for (Alert& alert : candidates) {
    if (!raised_.insert({alert.detector, alert.node}).second) continue;
    alert.seq = alerts_.size();
    if (alert.at_cycles == 0) alert.at_cycles = frame.at_cycles;
    if (const auto nit = nodes_.find(alert.node); nit != nodes_.end()) {
      ++nit->second.alert_count;
    }
    alerts_.push_back(std::move(alert));
    if (on_alert_) on_alert_(alerts_.back());
  }
  return {};
}

std::vector<std::string> TelemetryMonitor::nodes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [node, state] : nodes_) out.push_back(node);
  return out;
}

std::uint64_t TelemetryMonitor::counter_value(const std::string& node,
                                              const std::string& metric) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  const auto mit = it->second.counters.find(metric);
  return mit == it->second.counters.end() ? 0 : mit->second;
}

std::int64_t TelemetryMonitor::gauge_value(const std::string& node,
                                           const std::string& metric) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  const auto mit = it->second.gauges.find(metric);
  return mit == it->second.gauges.end() ? 0 : mit->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
TelemetryMonitor::counter_across_nodes(const std::string& metric) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [node, state] : nodes_) {
    if (const auto it = state.counters.find(metric);
        it != state.counters.end()) {
      out.emplace_back(node, it->second);
    }
  }
  return out;  // map order == sorted by node name
}

std::string TelemetryMonitor::timeline_json() const {
  std::string out = "{\"schema\":\"securecloud.telemetry.v1\"";
  out += ",\"window_cycles\":" + std::to_string(config_.window_cycles);
  out += ",\"ring_capacity\":" + std::to_string(config_.ring_capacity);
  out += ",\"frames\":" + std::to_string(frames_ingested_);
  out += ",\"dropped\":" + std::to_string(frames_dropped_);
  out += ",\"nodes\":[";
  bool first_node = true;
  for (const auto& [node, state] : nodes_) {
    if (!first_node) out += ',';
    first_node = false;
    out += "{\"node\":";
    append_json_string(out, node);
    out += ",\"frames\":" + std::to_string(state.frames);
    out += ",\"last_seq\":" + std::to_string(state.last_seq);
    out += ",\"last_at_cycles\":" + std::to_string(state.last_at_cycles);
    out += ",\"series\":[";
    bool first_series = true;
    const auto emit_series = [&](const std::string& metric,
                                 const char* kind, const TimeSeries& series) {
      if (!first_series) out += ',';
      first_series = false;
      out += "{\"metric\":";
      append_json_string(out, metric);
      out += ",\"kind\":\"";
      out += kind;
      out += "\",\"evicted\":" + std::to_string(series.evicted());
      out += ",\"windows\":[";
      bool first_window = true;
      for (const RollupWindow& w : series.windows()) {
        if (!first_window) out += ',';
        first_window = false;
        out += "{\"start\":" + std::to_string(w.start_cycles);
        out += ",\"min\":" + std::to_string(w.min);
        out += ",\"max\":" + std::to_string(w.max);
        out += ",\"sum\":" + std::to_string(w.sum);
        out += ",\"last\":" + std::to_string(w.last);
        out += ",\"count\":" + std::to_string(w.count) + "}";
      }
      out += "]}";
    };
    for (const auto& [metric, series] : state.series.counters) {
      emit_series(metric, "counter", series);
    }
    for (const auto& [metric, series] : state.series.gauges) {
      emit_series(metric, "gauge", series);
    }
    out += "]}";
  }
  out += "],\"alerts\":[";
  bool first_alert = true;
  for (const Alert& alert : alerts_) {
    if (!first_alert) out += ',';
    first_alert = false;
    out += "{\"seq\":" + std::to_string(alert.seq);
    out += ",\"at_cycles\":" + std::to_string(alert.at_cycles);
    out += ",\"detector\":";
    append_json_string(out, alert.detector);
    out += ",\"node\":";
    append_json_string(out, alert.node);
    out += ",\"metric\":";
    append_json_string(out, alert.metric);
    out += ",\"value\":" + std::to_string(alert.value);
    out += ",\"threshold\":" + std::to_string(alert.threshold);
    out += ",\"detail\":";
    append_json_string(out, alert.detail);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string TelemetryMonitor::dashboard_text() const {
  std::string out = "sc-top — " + std::to_string(nodes_.size()) + " nodes · " +
                    std::to_string(frames_ingested_) + " frames · " +
                    std::to_string(alerts_.size()) + " alerts\n";
  out += pad_right("NODE", 16) + pad_left("DELIVERED", 11) +
         pad_left("INFLIGHT", 10) + pad_left("EPC", 8) + pad_left("SPANS", 8) +
         pad_left("ALERTS", 8) + "\n";
  for (const auto& [node, state] : nodes_) {
    const auto counter = [&](const char* name) {
      const auto it = state.counters.find(name);
      return it == state.counters.end() ? std::uint64_t{0} : it->second;
    };
    const auto gauge = [&](const char* name) {
      const auto it = state.gauges.find(name);
      return it == state.gauges.end() ? std::int64_t{0} : it->second;
    };
    out += pad_right(node, 16);
    out += pad_left(std::to_string(counter("net_flow_payloads_delivered_total")), 11);
    out += pad_left(std::to_string(gauge("net_flow_chunks_in_flight")), 10);
    out += pad_left(std::to_string(gauge("sgx_epc_resident_pages")), 8);
    out += pad_left(std::to_string(gauge("trace_active_spans")), 8);
    out += pad_left(std::to_string(state.alert_count), 8);
    out += "\n";
  }
  for (const Alert& alert : alerts_) {
    out += "ALERT[" + std::to_string(alert.seq) + "] " + alert.detector +
           " node=" + alert.node + " metric=" + alert.metric +
           " value=" + std::to_string(alert.value) +
           " threshold=" + std::to_string(alert.threshold) + " — " +
           alert.detail + "\n";
  }
  return out;
}

}  // namespace securecloud::obs
