// Cluster-wide observability: per-node snapshots merged into one
// node-labelled export, plus critical-path analysis of a distributed
// trace.
//
// Each cluster node owns a NodeObs bundle (Registry + Tracer +
// FlightRecorder) stamped from the shared fabric SimClock, with a
// node-unique span-id prefix so merged span ids never collide. A
// driver takes every node's NodeSnapshot where the bundles live
// (bigdata::EnclaveCluster::snapshot()), merges them sorted by node
// name, and exports:
//
//   to_obs_json()   — "securecloud.obs.v2":   [{node, obs:{counters,
//                     gauges, histograms}}, ...] with sorted keys
//   to_trace_json() — "securecloud.trace.v2": all spans node-labelled,
//                     sorted by (start_cycles, span_id) — a total order,
//                     so the merged trace is bit-identical for a fixed
//                     seed regardless of collection interleaving.
//   to_flight_json()— "securecloud.flight.v2": per-node flight rings.
//
// These are the only JSON exporters. A lone Registry, Tracer or
// FlightRecorder is exported as a cluster of one: build a NodeSnapshot
// from it and call merge_snapshots({...}).
//
// critical_path() walks the merged span DAG backwards from a root
// span's end (Jaeger-style): at every instant the chain charges the
// deepest span covering it, so a parent's self-time is only what no
// child accounts for. Cross-node hops are attributed link time from
// fabric delivery records, and flight-recorder events inside a step's
// window are counted as recovery activity — separating per-node
// compute vs. link serialization vs. recovery stalls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace securecloud::obs {

/// Point-in-time copy of one node's observability state.
/// Every member has a default, so a lone registry, tracer or flight
/// ring fills just its own field: {.node = "solo", .spans = ...}.
struct NodeSnapshot {
  std::string node;
  Snapshot metrics{};
  std::vector<SpanRecord> spans{};      // tracer finish order
  std::vector<FlightEvent> flight{};    // ring order, oldest first
  std::uint64_t flight_total = 0;       // includes evicted events
};

/// One node's observability bundle. The tracer's id prefix reserves a
/// disjoint span-id range per node (node_index+1 shifted past any
/// plausible local sequence).
struct NodeObs {
  std::string node;
  Registry registry;
  Tracer tracer;
  FlightRecorder flight;

  NodeObs(std::string name, const SimClock& clock, std::uint32_t node_index,
          std::size_t flight_capacity = 128)
      : node(std::move(name)), tracer(clock), flight(clock, flight_capacity) {
    tracer.set_id_prefix(static_cast<std::uint64_t>(node_index + 1) << 40);
  }

  /// Point-in-time copy of everything.
  NodeSnapshot snapshot() const;
};

/// One delivered fabric message, recorded by net::Fabric when its
/// delivery log is enabled. Node ids match fabric NodeIds; cycle stamps
/// come from the same SimClock the tracers stamp, so they compare
/// directly against span boundaries.
struct LinkDelivery {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t channel = 0;
  std::uint64_t bytes = 0;
  std::uint64_t trace_id = 0;  // 0 = untraced message
  std::uint64_t send_cycles = 0;
  std::uint64_t deliver_cycles = 0;
};

struct ClusterSnapshot {
  std::vector<NodeSnapshot> nodes;  // sorted by node name

  std::string to_obs_json() const;     // securecloud.obs.v2
  std::string to_trace_json() const;   // securecloud.trace.v2
  std::string to_flight_json() const;  // securecloud.flight.v2
};

/// Sorts by node name (duplicate names are kept in given order).
ClusterSnapshot merge_snapshots(std::vector<NodeSnapshot> nodes);

struct CriticalPathStep {
  std::string node;
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t start_cycles = 0;  // span boundaries, not segment
  std::uint64_t end_cycles = 0;
  std::uint64_t self_cycles = 0;   // chain time charged to this span
  std::size_t depth = 0;           // root = 0
  std::uint64_t link_cycles = 0;   // inbound hop feeding this span
  std::uint64_t recovery_events = 0;  // flight events in-window, this node
};

struct CriticalPathReport {
  std::uint64_t trace_id = 0;
  std::uint64_t total_cycles = 0;  // root end - root start
  std::vector<CriticalPathStep> steps;  // order of first appearance on the chain
  std::map<std::string, std::uint64_t> node_self_cycles;
  std::string dominant_node;  // argmax of node_self_cycles (ties: first name)
  std::uint64_t link_cycles_total = 0;
  std::uint64_t recovery_events_total = 0;

  std::string to_json() const;  // one line, stable field order
  std::string to_text() const;  // indented tree for humans
};

struct CriticalPathOptions {
  /// Root selection: the root span (parent 0) of this trace. 0 = the
  /// first root in merged span order.
  std::uint64_t trace_id = 0;
  /// Fabric delivery records for link attribution (optional).
  const std::vector<LinkDelivery>* deliveries = nullptr;
  /// NodeId -> node-name mapping for matching deliveries against span
  /// node labels (index = fabric NodeId). Required for link attribution.
  const std::vector<std::string>* node_names = nullptr;
};

/// Computes the dominating chain of the trace's root span. Returns an
/// error if the snapshot has no root span for the requested trace.
Result<CriticalPathReport> critical_path(const ClusterSnapshot& snap,
                                         const CriticalPathOptions& opts = {});

}  // namespace securecloud::obs
