#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <utility>

namespace securecloud::obs {

void FlightRecorder::record(std::string category, std::string detail) {
  auto* ev = new FlightEvent;
  ev->seq = seq_.fetch_add(1, std::memory_order_relaxed);
  ev->at_cycles = clock_->cycles();
  ev->category = std::move(category);
  ev->detail = std::move(detail);
  ThreadRing* local = rings_.local(
      [this] { return new ThreadRing(domain_, capacity_); });
  local->ring.append(ev);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  {
    lockfree::EpochDomain::Guard guard(domain_);
    std::vector<const FlightEvent*> collected;
    for (ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      r->ring.collect(collected);
    }
    out.reserve(collected.size());
    for (const FlightEvent* ev : collected) out.push_back(*ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  // Global retention is the last `capacity_` events across all threads.
  // Each per-thread ring keeps its own last `capacity_`, a superset of
  // its share of the global suffix, so the trim never misses an event.
  if (out.size() > capacity_) {
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  return seq_.load(std::memory_order_relaxed);
}

void FlightRecorder::clear() {
  for (ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
    r->ring.clear();
  }
  seq_.store(0, std::memory_order_relaxed);
}

}  // namespace securecloud::obs
