// Thread-safe registry of named metrics with stable export formats.
//
// Registration (counter()/gauge()/histogram()) is read-mostly lock-free:
// each instrument kind keeps a sharded name index of RCU snapshot cells
// (common/lockfree RcuCell), so looking up an already-interned name
// costs one epoch pin and one map probe — no mutex, no contention with
// exporters. First-time interning takes the owning shard's writer mutex,
// creates the instrument in shard-stable storage, and publishes a
// copy-on-write index snapshot. The call is idempotent: the same name
// always returns the same handle, and handles stay valid for the
// registry's lifetime. Components resolve their handles once at attach
// time (`set_obs`) and then update through bare pointers — the hot path
// never locks or hashes a name.
//
// Export (snapshot()) walks the RCU snapshots only: it never takes a
// writer mutex, so exporting a large registry cannot block concurrent
// interning or counter bumps (and vice versa). Snapshots compare equal
// exactly when the metric values match; JSON export goes through
// ClusterSnapshot (obs/cluster.hpp) — a lone registry is a cluster of
// one node.
//
// Metric naming convention (enforced by review, not code):
//   <subsystem>_<metric>[_total]   e.g. sgx_epc_faults_total
// Subsystem prefixes in use: sgx, mapreduce, scbr, transfer, bus,
// genpack, container, kvstore.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lockfree/epoch.hpp"
#include "obs/metrics.hpp"

namespace securecloud::obs {

/// Point-in-time copy of every metric in a registry. Maps are sorted by
/// name, so equality and serialization are order-stable.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool operator==(const Snapshot&) const = default;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. The returned reference is stable for the registry's lifetime.
  /// Lock-free for already-interned names.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Never blocks registration or bumps (reads RCU index snapshots only).
  Snapshot snapshot() const;

  /// Zeroes every registered instrument (handles stay valid).
  void reset();

 private:
  /// One instrument kind: a sharded read-mostly name index. Instruments
  /// live in per-shard deques (node-stable under growth); the index maps
  /// names to bare pointers and is republished copy-on-write.
  template <typename Instrument>
  struct Kind {
    static constexpr std::size_t kShards = 8;
    using Index = std::map<std::string, Instrument*>;

    struct Shard {
      lockfree::RcuCell<Index> index;
      std::mutex writer_mu;
      std::deque<std::unique_ptr<Instrument>> storage;
    };

    Shard& shard_for(const std::string& name) {
      return shards[std::hash<std::string>{}(name) % kShards];
    }

    Instrument& intern(const std::string& name) {
      Shard& shard = shard_for(name);
      {
        auto ref = shard.index.read();
        if (auto it = ref->find(name); it != ref->end()) return *it->second;
      }
      std::lock_guard<std::mutex> lock(shard.writer_mu);
      // Re-check: another thread may have interned it before we locked.
      {
        auto ref = shard.index.read();
        if (auto it = ref->find(name); it != ref->end()) return *it->second;
      }
      shard.storage.push_back(std::make_unique<Instrument>());
      Instrument* created = shard.storage.back().get();
      shard.index.update([&](Index& idx) { idx.emplace(name, created); });
      return *created;
    }

    /// Visits every (name, instrument) pair via the RCU snapshots.
    template <typename F>
    void for_each(F&& fn) const {
      for (const Shard& shard : shards) {
        auto ref = shard.index.read();
        for (const auto& [name, instrument] : *ref) fn(name, instrument);
      }
    }

    std::array<Shard, kShards> shards;
  };

  Kind<Counter> counters_;
  Kind<Gauge> gauges_;
  Kind<Histogram> histograms_;
};

/// Appends `s` as a quoted, escaped JSON string. Shared by every obs
/// exporter so all schemas escape identically.
void append_json_string(std::string& out, const std::string& s);

}  // namespace securecloud::obs
