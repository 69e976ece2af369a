#include "obs/cluster.hpp"

#include <algorithm>
#include <utility>

namespace securecloud::obs {

namespace {

struct MergedSpan {
  const SpanRecord* span = nullptr;
  const std::string* node = nullptr;
};

// Global view of every span, in the total order the v2 export uses:
// (start_cycles, end_cycles, span_id). Span ids are unique cluster-wide
// (per-node id prefixes), so the order is deterministic.
std::vector<MergedSpan> merged_spans(const ClusterSnapshot& snap) {
  std::vector<MergedSpan> all;
  for (const NodeSnapshot& node : snap.nodes) {
    for (const SpanRecord& s : node.spans) all.push_back({&s, &node.node});
  }
  std::sort(all.begin(), all.end(), [](const MergedSpan& a, const MergedSpan& b) {
    if (a.span->start_cycles != b.span->start_cycles) {
      return a.span->start_cycles < b.span->start_cycles;
    }
    if (a.span->end_cycles != b.span->end_cycles) {
      return a.span->end_cycles < b.span->end_cycles;
    }
    return a.span->span_id < b.span->span_id;
  });
  return all;
}

// One node's metrics object: sorted keys, so equal snapshots write
// byte-identical JSON.
std::string metrics_json(const Snapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [le, n] : h.buckets) {
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "[" + std::to_string(le) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string flight_events_json(const std::vector<FlightEvent>& evs,
                               std::uint64_t total) {
  const std::uint64_t dropped = total >= evs.size() ? total - evs.size() : 0;
  std::string out = "{\"dropped\":" + std::to_string(dropped) + ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(ev.seq) +
           ",\"at_cycles\":" + std::to_string(ev.at_cycles) + ",\"category\":";
    append_json_string(out, ev.category);
    out += ",\"detail\":";
    append_json_string(out, ev.detail);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace

NodeSnapshot NodeObs::snapshot() const {
  NodeSnapshot snap;
  snap.node = node;
  snap.metrics = registry.snapshot();
  snap.spans = tracer.finished();
  snap.flight = flight.events();
  snap.flight_total = flight.total_recorded();
  return snap;
}

ClusterSnapshot merge_snapshots(std::vector<NodeSnapshot> nodes) {
  ClusterSnapshot snap;
  snap.nodes = std::move(nodes);
  std::stable_sort(
      snap.nodes.begin(), snap.nodes.end(),
      [](const NodeSnapshot& a, const NodeSnapshot& b) { return a.node < b.node; });
  return snap;
}

std::string ClusterSnapshot::to_obs_json() const {
  std::string out = "{\"schema\":\"securecloud.obs.v2\",\"nodes\":[";
  bool first = true;
  for (const NodeSnapshot& node : nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, node.node);
    out += ",\"obs\":" + metrics_json(node.metrics) + '}';
  }
  out += "]}";
  return out;
}

std::string ClusterSnapshot::to_trace_json() const {
  std::string out = "{\"schema\":\"securecloud.trace.v2\",\"spans\":[";
  bool first = true;
  for (const MergedSpan& m : merged_spans(*this)) {
    const SpanRecord& s = *m.span;
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, *m.node);
    out += ",\"trace\":" + std::to_string(s.trace_id) +
           ",\"id\":" + std::to_string(s.span_id) +
           ",\"parent\":" + std::to_string(s.parent_id) + ",\"name\":";
    append_json_string(out, s.name);
    out += ",\"start_cycles\":" + std::to_string(s.start_cycles) +
           ",\"end_cycles\":" + std::to_string(s.end_cycles) + ",\"attrs\":{";
    bool first_attr = true;
    for (const auto& [key, value] : s.attributes) {
      if (!first_attr) out += ',';
      first_attr = false;
      append_json_string(out, key);
      out += ':';
      append_json_string(out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string ClusterSnapshot::to_flight_json() const {
  std::string out = "{\"schema\":\"securecloud.flight.v2\",\"nodes\":[";
  bool first = true;
  for (const NodeSnapshot& node : nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, node.node);
    out += ",\"flight\":" + flight_events_json(node.flight, node.flight_total) +
           '}';
  }
  out += "]}";
  return out;
}

namespace {

// One contiguous stretch of chain time charged to a span.
struct ChainSegment {
  const MergedSpan* owner = nullptr;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t depth = 0;
};

// Backward walk: the chain charges [lo, hi) of `span`'s window to the
// deepest child covering each instant, walking children latest-end
// first. Whatever no child covers is the span's own (self) time.
void walk(const MergedSpan& span, std::uint64_t lo, std::uint64_t hi,
          std::size_t depth,
          const std::map<std::uint64_t, std::vector<const MergedSpan*>>& children,
          std::vector<ChainSegment>& out) {
  std::uint64_t t = hi;
  const auto it = children.find(span.span->span_id);
  if (it != children.end()) {
    // Children latest-end first; ties broken on span_id descending so
    // the walk is deterministic.
    std::vector<const MergedSpan*> kids = it->second;
    std::sort(kids.begin(), kids.end(), [](const MergedSpan* a, const MergedSpan* b) {
      if (a->span->end_cycles != b->span->end_cycles) {
        return a->span->end_cycles > b->span->end_cycles;
      }
      return a->span->span_id > b->span->span_id;
    });
    for (const MergedSpan* kid : kids) {
      if (t <= lo) break;
      const std::uint64_t ke = std::min(kid->span->end_cycles, t);
      const std::uint64_t ks = std::max(kid->span->start_cycles, lo);
      if (ke <= ks) continue;  // outside the remaining window
      if (ke < t) out.push_back({&span, ke, t, depth});  // self gap after kid
      walk(*kid, ks, ke, depth + 1, children, out);
      t = ks;
    }
  }
  if (t > lo) out.push_back({&span, lo, t, depth});
}

}  // namespace

Result<CriticalPathReport> critical_path(const ClusterSnapshot& snap,
                                         const CriticalPathOptions& opts) {
  const std::vector<MergedSpan> all = merged_spans(snap);

  const MergedSpan* root = nullptr;
  for (const MergedSpan& m : all) {
    if (m.span->parent_id != 0) continue;
    if (opts.trace_id != 0 && m.span->trace_id != opts.trace_id) continue;
    root = &m;
    break;
  }
  if (root == nullptr) {
    return Error::not_found("critical_path: no root span for trace");
  }

  // Children lists for the root's trace only, keyed by parent span id.
  std::map<std::uint64_t, std::vector<const MergedSpan*>> children;
  for (const MergedSpan& m : all) {
    if (m.span->trace_id != root->span->trace_id) continue;
    if (m.span->parent_id == 0) continue;
    children[m.span->parent_id].push_back(&m);
  }

  std::vector<ChainSegment> segments;
  walk(*root, root->span->start_cycles, root->span->end_cycles, 0, children,
       segments);
  // walk() emits segments latest-first; flip to timeline order.
  std::reverse(segments.begin(), segments.end());

  CriticalPathReport report;
  report.trace_id = root->span->trace_id;
  report.total_cycles = root->span->end_cycles - root->span->start_cycles;

  // Aggregate contiguous per-span: one step per span, in order of first
  // appearance on the chain.
  std::map<std::uint64_t, std::size_t> step_of;  // span_id -> index
  for (const ChainSegment& seg : segments) {
    const std::uint64_t id = seg.owner->span->span_id;
    auto it = step_of.find(id);
    if (it == step_of.end()) {
      CriticalPathStep step;
      step.node = *seg.owner->node;
      step.name = seg.owner->span->name;
      step.span_id = id;
      step.start_cycles = seg.owner->span->start_cycles;
      step.end_cycles = seg.owner->span->end_cycles;
      step.depth = seg.depth;
      step.self_cycles = seg.hi - seg.lo;
      step_of.emplace(id, report.steps.size());
      report.steps.push_back(std::move(step));
    } else {
      report.steps[it->second].self_cycles += seg.hi - seg.lo;
    }
  }

  // Link attribution: for each step whose span adopted a parent on a
  // different node, charge the fabric delivery that carried the hop —
  // the latest traced delivery into the step's node that arrived at or
  // before the span started.
  if (opts.deliveries != nullptr && opts.node_names != nullptr) {
    const std::vector<std::string>& names = *opts.node_names;
    for (CriticalPathStep& step : report.steps) {
      if (step.depth == 0) continue;
      const LinkDelivery* best = nullptr;
      for (const LinkDelivery& d : *opts.deliveries) {
        if (d.trace_id != report.trace_id) continue;
        if (d.dst >= names.size() || names[d.dst] != step.node) continue;
        if (d.deliver_cycles > step.start_cycles) continue;
        if (best == nullptr || d.deliver_cycles > best->deliver_cycles ||
            (d.deliver_cycles == best->deliver_cycles &&
             d.send_cycles > best->send_cycles)) {
          best = &d;
        }
      }
      if (best != nullptr && names[best->src] != step.node) {
        step.link_cycles = best->deliver_cycles - best->send_cycles;
        report.link_cycles_total += step.link_cycles;
      }
    }
  }

  // Recovery attribution: flight events on the step's node inside the
  // span window (NACKs, retransmits, dead streams, faults, ...).
  for (CriticalPathStep& step : report.steps) {
    for (const NodeSnapshot& node : snap.nodes) {
      if (node.node != step.node) continue;
      for (const FlightEvent& ev : node.flight) {
        if (ev.at_cycles >= step.start_cycles && ev.at_cycles <= step.end_cycles) {
          ++step.recovery_events;
        }
      }
    }
    report.recovery_events_total += step.recovery_events;
  }

  for (const CriticalPathStep& step : report.steps) {
    report.node_self_cycles[step.node] += step.self_cycles;
  }
  std::uint64_t best_self = 0;
  for (const auto& [node, self] : report.node_self_cycles) {
    if (self > best_self) {
      best_self = self;
      report.dominant_node = node;
    }
  }

  return report;
}

std::string CriticalPathReport::to_json() const {
  std::string out = "{\"schema\":\"securecloud.critical_path.v1\",\"trace\":" +
                    std::to_string(trace_id) +
                    ",\"total_cycles\":" + std::to_string(total_cycles) +
                    ",\"dominant_node\":";
  append_json_string(out, dominant_node);
  out += ",\"link_cycles_total\":" + std::to_string(link_cycles_total) +
         ",\"recovery_events_total\":" + std::to_string(recovery_events_total) +
         ",\"node_self_cycles\":{";
  bool first = true;
  for (const auto& [node, self] : node_self_cycles) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, node);
    out += ':' + std::to_string(self);
  }
  out += "},\"steps\":[";
  first = true;
  for (const CriticalPathStep& step : steps) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":";
    append_json_string(out, step.node);
    out += ",\"name\":";
    append_json_string(out, step.name);
    out += ",\"id\":" + std::to_string(step.span_id) +
           ",\"depth\":" + std::to_string(step.depth) +
           ",\"start_cycles\":" + std::to_string(step.start_cycles) +
           ",\"end_cycles\":" + std::to_string(step.end_cycles) +
           ",\"self_cycles\":" + std::to_string(step.self_cycles) +
           ",\"link_cycles\":" + std::to_string(step.link_cycles) +
           ",\"recovery_events\":" + std::to_string(step.recovery_events) + '}';
  }
  out += "]}";
  return out;
}

std::string CriticalPathReport::to_text() const {
  std::string out = "critical path: trace " + std::to_string(trace_id) +
                    ", total " + std::to_string(total_cycles) +
                    " cycles, dominant node " +
                    (dominant_node.empty() ? "<none>" : dominant_node) + "\n";
  for (const CriticalPathStep& step : steps) {
    const double pct =
        total_cycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(step.self_cycles) /
                  static_cast<double>(total_cycles);
    // Integer-scaled percent keeps the rendering bit-stable.
    const std::uint64_t pct_x10 = static_cast<std::uint64_t>(pct * 10.0 + 0.5);
    for (std::size_t i = 0; i < step.depth; ++i) out += "  ";
    out += "- " + step.node + "/" + step.name + "  self " +
           std::to_string(pct_x10 / 10) + "." + std::to_string(pct_x10 % 10) +
           "%";
    if (step.link_cycles != 0) {
      out += "  link " + std::to_string(step.link_cycles) + "cy";
    }
    if (step.recovery_events != 0) {
      out += "  recovery_events " + std::to_string(step.recovery_events);
    }
    out += "  [" + std::to_string(step.start_cycles) + " .. " +
           std::to_string(step.end_cycles) + "]\n";
  }
  return out;
}

}  // namespace securecloud::obs
