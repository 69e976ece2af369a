// Span tracing stamped from SimClock cycles.
//
// A Span is a scoped RAII region: constructing one stamps the start
// cycle, destruction (or explicit end()) stamps the end cycle and
// appends a finished SpanRecord to the owning Tracer. Spans opened while
// another span of the *same tracer* is live on the *same thread* become
// its children (thread-local parent stack), so nesting mirrors lexical
// scope:
//
//   obs::Span job(tracer, "mapreduce.job");
//   { obs::Span map(tracer, "mapreduce.map"); ... }   // child of job
//   { obs::Span red(tracer, "mapreduce.reduce"); ... } // child of job
//
// Two escape hatches cross the thread-local stack's boundaries:
//
//   * ParentScope hands a parent across threads explicitly: capture
//     `span.context()` at submit time, construct a ParentScope from it
//     inside the pool task, and spans opened in that scope parent to
//     the submitting span instead of silently becoming roots.
//   * The Span(tracer, name, TraceContext) constructor adopts a REMOTE
//     parent — a context carried over the network fabric — so a
//     worker-side span causally parents to a coordinator-side span.
//
// Every span belongs to a trace: roots mint trace_id = their own
// span_id; children (local, handed-over, or remote) inherit it. A
// Tracer can reserve a node-unique span-id range via set_id_prefix so
// ids stay unique cluster-wide and contexts can travel between nodes
// without collision.
//
// Span ids are assigned from an atomic sequence, and finished records
// are appended under a mutex — safe from pool workers. Because both the
// id order and the finish order depend on thread interleaving,
// POOL-SIDE spans are deliberately EXCLUDED from the bit-identical
// determinism invariant. Spans opened from a serial driver (e.g. the
// fabric event loop) ARE deterministic, which is what the cluster
// trace merge (obs/cluster.hpp) relies on.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"

namespace securecloud::obs {

/// The portable identity of a live span: enough to parent a child to it
/// from another thread or another node. trace_id == 0 means "no
/// context" (an inert or absent parent).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext& o) const {
    return trace_id == o.trace_id && parent_span_id == o.parent_span_id;
  }
};

/// Wire codec (16 bytes, little-endian) for carrying a context inside
/// fabric frames, session records, and flow chunk headers.
void put_trace_context(Bytes& out, const TraceContext& ctx);
bool get_trace_context(ByteReader& in, TraceContext& ctx);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  std::uint64_t start_cycles = 0;
  std::uint64_t end_cycles = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

class Span;

class Tracer {
 public:
  explicit Tracer(const SimClock& clock) : clock_(&clock) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserves a disjoint span-id range: ids become prefix | seq. Cluster
  /// drivers give each node a distinct prefix (node index shifted past
  /// any plausible local sequence) so merged traces never collide and a
  /// context minted on one node is unambiguous on another. Call before
  /// the first span; 0 (default) keeps plain sequential ids.
  void set_id_prefix(std::uint64_t prefix) { id_prefix_ = prefix; }
  std::uint64_t id_prefix() const { return id_prefix_; }

  /// Finished spans, in finish order.
  std::vector<SpanRecord> finished() const;
  std::size_t finished_count() const;

  /// Spans currently open (started, not yet ended) — the live-work
  /// signal the telemetry plane samples for the sc-top "spans" column.
  std::uint64_t active_count() const {
    return active_.load(std::memory_order_relaxed);
  }

  void clear();

 private:
  friend class Span;

  std::uint64_t next_id() {
    return id_prefix_ | (next_id_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  std::uint64_t now_cycles() const { return clock_->cycles(); }
  void record(SpanRecord rec);

  const SimClock* clock_;
  std::uint64_t id_prefix_ = 0;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> active_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> finished_;
};

class Span {
 public:
  /// Starts a span. Null tracer makes the span inert (zero-cost no-op),
  /// so call sites can trace unconditionally.
  Span(Tracer* tracer, std::string name);

  /// Starts a span adopting a remote parent context (one carried over
  /// the wire). An invalid context falls back to the local parent
  /// stack, so call sites can pass whatever arrived.
  Span(Tracer* tracer, std::string name, const TraceContext& remote_parent);

  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_attribute(std::string key, std::string value);

  /// Stamps the end cycle and hands the record to the tracer. Idempotent.
  void end();

  std::uint64_t id() const { return rec_.span_id; }
  std::uint64_t trace_id() const { return rec_.trace_id; }

  /// This span's identity as a parent for children elsewhere (another
  /// thread via ParentScope, another node via the wire). Inert spans
  /// return an invalid context.
  TraceContext context() const { return {rec_.trace_id, rec_.span_id}; }

 private:
  Tracer* tracer_;  // null when inert or already ended
  SpanRecord rec_;
};

/// Explicit cross-thread parent handover. The thread-local parent stack
/// does not follow work into a ThreadPool, so spans opened inside pool
/// tasks would silently become roots. Capture the submitting span's
/// context(), then inside the task:
///
///   obs::ParentScope scope(tracer, ctx);
///   obs::Span task_span(tracer, "phase.task");  // parents to ctx
///
/// No-op for a null tracer or invalid context.
class ParentScope {
 public:
  ParentScope(Tracer* tracer, const TraceContext& ctx);
  ~ParentScope();

  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  const Tracer* tracer_;  // null when inactive
  std::uint64_t span_id_ = 0;
};

}  // namespace securecloud::obs
