// The four perfbench workloads. Each runs units of work until
// `opts.seconds` of measured time have passed (at least one unit, two
// when traced), checks every output against its oracle through `tally`,
// and fills `out` with the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_city_stream(const Options& opts, Tally& tally, Output& out);
void run_dmr_theft(const Options& opts, Tally& tally, Output& out);
void run_scbr_overlay(const Options& opts, Tally& tally, Output& out);
void run_enclave_router(const Options& opts, Tally& tally, Output& out);

/// Not a workload: one dmr_theft-sized job per (fault setting, fault
/// seed) with net faults armed after setup, one JSON line per trial. The
/// baseline in README.md comes from it.
void probe_dmr_faults(const Options& opts);

/// Drives a workload's units of work. Unit 0 lets the allocator, caches
/// and lazy set-up settle and is not measured; then units run until
/// `opts.seconds` of measured time have passed (at least one unit, two
/// when traced). A traced run alternates untraced and traced units, so
/// their wall times give the tracing overhead.
class UnitLoop {
 public:
  UnitLoop(const Options& opts, Output& out) : opts_(opts), out_(out) {}

  bool more() const {
    return warmup() || out_.units < (opts_.trace ? 2u : 1u) || measured_s_ < opts_.seconds;
  }
  bool warmup() const { return ran_ == 0; }
  bool traced() const { return opts_.trace && ran_ % 2 == 0 && !warmup(); }
  /// Units run so far, warm-up included (counters cover all of them).
  std::uint64_t ran() const { return ran_; }

  /// Ends the current unit, which measured `unit_s` of wall time.
  void done(double unit_s) {
    if (!warmup()) {
      measured_s_ += unit_s;
      ++out_.units;
      (traced() ? out_.traced_unit_s : out_.untraced_unit_s).push_back(unit_s);
      if (traced()) ++out_.traced_units;
    }
    ++ran_;
    // The high-water mark after a fixed amount of work (the warm-up and
    // two measured units), so that state a long-lived system keeps per
    // unit does not tie memory to speed.
    if (ran_ <= 3 && (ran_ == 3 || !more())) out_.peak_rss_mb = peak_rss_mb();
  }

 private:
  const Options& opts_;
  Output& out_;
  std::uint64_t ran_ = 0;
  double measured_s_ = 0;
};

}  // namespace perfbench
