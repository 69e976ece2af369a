// Shared plumbing for the perfbench workloads: options, failure
// accounting, the benchmark-side span log, busy-time clocks for
// operator callbacks, crypto probes, and the metric record each
// workload fills in.
//
// Everything here lives outside the library: spans wrap the benchmark's
// own calls into the library's public API, and layer counters are read
// from the library's obs registries after the fact.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double since_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // traced runs write their spans here
  std::size_t threads = 4;  // pool size: min(4, nproc)
};

/// Operations attempted and failed, with each error text tallied.
/// Oracle mismatches count as failed operations.
class Tally {
 public:
  bool check(const securecloud::Status& status, const std::string& op);
  template <typename T>
  bool check(const securecloud::Result<T>& result, const std::string& op) {
    return check(result.ok() ? securecloud::Status{}
                             : securecloud::Status(result.error()),
                 op);
  }
  bool oracle(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::uint64_t>& errors() const { return errors_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> errors_;
};

/// Benchmark-side spans: one per wrapped public call, kept in memory and
/// written out when the run ends. Spans nest on the driving thread; an
/// operator callback is folded into one aggregate span under the span
/// that invoked it (see add_aggregate).
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::uint64_t run = 0;     // unit of work the span belongs to
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  // time covered by children
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;
  };

  /// Spans are recorded only while enabled (the traced units of a run).
  void set_enabled(bool enabled, std::uint64_t run) {
    enabled_ = enabled;
    run_ = run;
  }
  bool enabled() const { return enabled_; }

  /// Folds a callback's time into the innermost open span: a child span
  /// of `busy_ns` (summed across threads) that covers `covered_ns` of
  /// the parent's wall time.
  void add_aggregate(const char* layer, const char* name, std::int64_t busy_ns,
                     std::int64_t covered_ns);

  /// Summed duration and count of spans called `name`.
  double total_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Duration minus child coverage, summed per layer.
  std::map<std::string, double> self_s_by_layer() const;

  /// One JSON object per line; false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Busy time of a callback that may run on several pool threads at once:
/// `busy` sums per-call time, `covered` is the wall time during which at
/// least one call was running.
class BusyClock {
 public:
  void enter();
  void leave(std::int64_t busy_ns);
  std::int64_t busy_ns() const;
  std::int64_t covered_ns() const;
  void reset();

 private:
  mutable std::mutex mu_;
  int active_ = 0;
  std::int64_t since_ns_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t covered_ns_ = 0;
};

/// Runs `fn`, charging its time to `clock` when one is given.
template <typename Fn>
decltype(auto) timed(BusyClock* clock, Fn&& fn) {
  if (clock == nullptr) return fn();
  struct Guard {
    BusyClock* clock;
    std::int64_t start;
    ~Guard() { clock->leave(now_ns() - start); }
  };
  clock->enter();
  Guard guard{clock, now_ns()};
  return fn();
}

/// Measured values of one run, by metric name. Values that are not
/// metrics (simulated time, sizes) go to `info` and are printed beside.
struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
  std::uint64_t units = 0;         // measured units of work (warm-up excluded)
  std::uint64_t traced_units = 0;  // of which traced
  std::vector<double> untraced_unit_s;
  std::vector<double> traced_unit_s;
  double peak_rss_mb = 0;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Latency quantiles that one unit the host stalled cannot swing: the
/// quantile within each unit, then the median over units.
struct UnitQuantiles {
  std::vector<double> p50, p99;
  void add(const std::vector<double>& samples) {
    p50.push_back(quantile(samples, 0.50));
    p99.push_back(quantile(samples, 0.99));
  }
};

double peak_rss_mb();

/// Adds every counter of `snapshot` into `into` (the shared registry the
/// per-layer counters are read from).
void absorb(securecloud::obs::Registry& into, const securecloud::obs::Snapshot& snapshot);
std::uint64_t counter(const securecloud::obs::Snapshot& snapshot, const std::string& name);

/// Reads the net/flow/transfer/session counters of `snapshot` into
/// metrics per unit of work; returns the mean sealed flow chunk size.
std::size_t fabric_layer_metrics(const securecloud::obs::Snapshot& snapshot, double units,
                                 Output& out);

/// Times AES-GCM seal/open at `chunk_bytes`, SHA-256, X25519 and Ed25519
/// verify, and derives crypto.est_share from `sealed_bytes` sealed over
/// `run_wall_s`. The probes run outside every unit of work.
void crypto_probes(std::size_t chunk_bytes, double sealed_bytes, double run_wall_s,
                   Output& out);

/// Shared tail of every traced run: self time per layer,
/// trace_overhead_pct from the alternating units, and the span file.
void finish_trace(const Options& opts, const SpanLog& spans, Output& out);

}  // namespace perfbench
