#include "obs/registry.hpp"

namespace securecloud::obs {

// Metric names are generated in-tree from [a-z0-9_.] identifiers; escape
// the JSON specials anyway so a stray name cannot corrupt the document.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

Counter& Registry::counter(const std::string& name) {
  return counters_.intern(name);
}

Gauge& Registry::gauge(const std::string& name) { return gauges_.intern(name); }

Histogram& Registry::histogram(const std::string& name) {
  return histograms_.intern(name);
}

// Shard snapshots merge into one sorted map, so the export is identical
// to the old single-map walk; no writer mutex is ever taken here.
Snapshot Registry::snapshot() const {
  Snapshot snap;
  counters_.for_each(
      [&](const std::string& name, Counter* c) { snap.counters[name] = c->value(); });
  gauges_.for_each(
      [&](const std::string& name, Gauge* g) { snap.gauges[name] = g->value(); });
  histograms_.for_each([&](const std::string& name, Histogram* h) {
    snap.histograms[name] = h->snapshot();
  });
  return snap;
}

void Registry::reset() {
  counters_.for_each([](const std::string&, Counter* c) { c->reset(); });
  gauges_.for_each([](const std::string&, Gauge* g) { g->reset(); });
  histograms_.for_each([](const std::string&, Histogram* h) { h->reset(); });
}

}  // namespace securecloud::obs
