#include "obs/trace.hpp"

namespace securecloud::obs {

namespace {

// Per-thread stack of parent entries: the top entry for a given tracer
// is the parent of any span that thread opens next. Keyed by tracer so
// two tracers interleaved on one thread do not adopt each other's
// spans. Entries carry the trace id so children inherit it; a
// ParentScope pushes a synthetic entry (the handed-over context) with
// no backing live span.
struct ParentEntry {
  const Tracer* tracer = nullptr;
  std::uint64_t span_id = 0;
  std::uint64_t trace_id = 0;
};

thread_local std::vector<ParentEntry> g_span_stack;

const ParentEntry* current_parent(const Tracer* tracer) {
  for (auto it = g_span_stack.rbegin(); it != g_span_stack.rend(); ++it) {
    if (it->tracer == tracer) return &*it;
  }
  return nullptr;
}

void pop_span(const Tracer* tracer, std::uint64_t span_id) {
  for (auto it = g_span_stack.rbegin(); it != g_span_stack.rend(); ++it) {
    if (it->tracer == tracer && it->span_id == span_id) {
      g_span_stack.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

void put_trace_context(Bytes& out, const TraceContext& ctx) {
  put_u64(out, ctx.trace_id);
  put_u64(out, ctx.parent_span_id);
}

bool get_trace_context(ByteReader& in, TraceContext& ctx) {
  return in.get_u64(ctx.trace_id) && in.get_u64(ctx.parent_span_id);
}

std::vector<SpanRecord> Tracer::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

std::size_t Tracer::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

void Tracer::record(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.push_back(std::move(rec));
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
}

Span::Span(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  tracer_->active_.fetch_add(1, std::memory_order_relaxed);
  rec_.span_id = tracer_->next_id();
  if (const ParentEntry* parent = current_parent(tracer_)) {
    rec_.parent_id = parent->span_id;
    rec_.trace_id = parent->trace_id;
  } else {
    rec_.trace_id = rec_.span_id;  // root mints its own trace
  }
  rec_.name = std::move(name);
  rec_.start_cycles = tracer_->now_cycles();
  g_span_stack.push_back({tracer_, rec_.span_id, rec_.trace_id});
}

Span::Span(Tracer* tracer, std::string name, const TraceContext& remote_parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  tracer_->active_.fetch_add(1, std::memory_order_relaxed);
  rec_.span_id = tracer_->next_id();
  if (remote_parent.valid()) {
    rec_.parent_id = remote_parent.parent_span_id;
    rec_.trace_id = remote_parent.trace_id;
  } else if (const ParentEntry* parent = current_parent(tracer_)) {
    rec_.parent_id = parent->span_id;
    rec_.trace_id = parent->trace_id;
  } else {
    rec_.trace_id = rec_.span_id;
  }
  rec_.name = std::move(name);
  rec_.start_cycles = tracer_->now_cycles();
  g_span_stack.push_back({tracer_, rec_.span_id, rec_.trace_id});
}

void Span::set_attribute(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  rec_.attributes.emplace_back(std::move(key), std::move(value));
}

void Span::end() {
  if (tracer_ == nullptr) return;
  rec_.end_cycles = tracer_->now_cycles();
  pop_span(tracer_, rec_.span_id);
  tracer_->active_.fetch_sub(1, std::memory_order_relaxed);
  tracer_->record(std::move(rec_));
  tracer_ = nullptr;
}

ParentScope::ParentScope(Tracer* tracer, const TraceContext& ctx)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !ctx.valid()) {
    tracer_ = nullptr;
    return;
  }
  span_id_ = ctx.parent_span_id;
  g_span_stack.push_back({tracer_, span_id_, ctx.trace_id});
}

ParentScope::~ParentScope() {
  if (tracer_ == nullptr) return;
  pop_span(tracer_, span_id_);
}

}  // namespace securecloud::obs
