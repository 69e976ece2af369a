#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "crypto/ed25519.hpp"
#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace perfbench {

using namespace securecloud;

bool Tally::check(const Status& status, const std::string& op) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  ++errors_[op + ": " + status.error().message];
  return false;
}

bool Tally::oracle(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  ++errors_["oracle: " + what];
  return false;
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, const char* name) {
  if (!log.enabled_) return;
  log_ = &log;
  Span span;
  span.id = log.spans_.size() + 1;
  span.parent = log.open_.empty() ? 0 : log.spans_[log.open_.back()].id;
  span.run = log.run_;
  span.layer = layer;
  span.name = name;
  span.start_ns = now_ns();
  log.open_.push_back(log.spans_.size());
  log.spans_.push_back(std::move(span));
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[log_->open_.back()];
  span.end_ns = now_ns();
  log_->open_.pop_back();
  if (!log_->open_.empty()) {
    log_->spans_[log_->open_.back()].child_ns += span.end_ns - span.start_ns;
  }
}

void SpanLog::add_aggregate(const char* layer, const char* name, std::int64_t busy_ns,
                            std::int64_t covered_ns) {
  if (!enabled_ || open_.empty() || busy_ns <= 0) return;
  Span& parent = spans_[open_.back()];
  parent.child_ns += covered_ns;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent.id;
  span.run = run_;
  span.layer = layer;
  span.name = name;
  span.start_ns = parent.start_ns;
  span.end_ns = parent.start_ns + busy_ns;
  spans_.push_back(std::move(span));
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

std::map<std::string, double> SpanLog::self_s_by_layer() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const std::int64_t self = std::max<std::int64_t>(0, s.end_ns - s.start_ns - s.child_ns);
    out[s.layer] += static_cast<double>(self) / 1e9;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  for (const Span& s : spans_) {
    file << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
         << ",\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"self_ns\":" << std::max<std::int64_t>(0, s.end_ns - s.start_ns - s.child_ns)
         << "}\n";
  }
  return static_cast<bool>(file);
}

void BusyClock::enter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_++ == 0) since_ns_ = now_ns();
}

void BusyClock::leave(std::int64_t busy_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  busy_ns_ += busy_ns;
  if (--active_ == 0) covered_ns_ += now_ns() - since_ns_;
}

std::int64_t BusyClock::busy_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_ns_;
}

std::int64_t BusyClock::covered_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return covered_ns_;
}

void BusyClock::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  busy_ns_ = covered_ns_ = 0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void absorb(obs::Registry& into, const obs::Snapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) into.counter(name).inc(value);
}

std::uint64_t counter(const obs::Snapshot& snapshot, const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::size_t fabric_layer_metrics(const obs::Snapshot& snap, double units, Output& out) {
  const auto per_unit = [&](const char* name) {
    return static_cast<double>(counter(snap, name)) / units;
  };
  auto& m = out.metrics;
  m["flow.chunks_sent"] = per_unit("net_flow_chunks_sent_total");
  m["flow.payload_bytes_sent"] = per_unit("net_flow_payload_bytes_sent_total");
  m["flow.retransmits"] = per_unit("net_flow_retransmits_total");
  m["flow.nacks_sent"] = per_unit("net_flow_nacks_sent_total");
  m["flow.beacons_sent"] = per_unit("net_flow_beacons_sent_total");
  const double net_bytes = per_unit("net_bytes_sent_total");
  m["flow.payload_share"] = net_bytes == 0 ? 0 : m["flow.payload_bytes_sent"] / net_bytes;
  const double wire = per_unit("transfer_send_wire_bytes_total");
  m["transfer.compression_ratio"] =
      wire == 0 ? 0 : per_unit("transfer_send_plaintext_bytes_total") / wire;
  m["net.messages_sent"] = per_unit("net_messages_sent_total");
  m["net.frames_sent"] = per_unit("net_frames_sent_total");
  m["net.bytes_sent"] = net_bytes;
  m["net.timers_fired"] = per_unit("net_timers_fired_total");
  m["session.handshakes"] = per_unit("net_sessions_established_total");
  m["session.records_sent"] = per_unit("net_session_records_sent_total");
  m["session.records_rejected"] = per_unit("net_session_records_rejected_total");
  // Every flow chunk is one AES-GCM seal of its wire bytes.
  m["crypto.sealed_bytes"] = wire;
  const double chunks = per_unit("transfer_send_chunks_total");
  return chunks == 0 ? 4096 : static_cast<std::size_t>(wire / chunks);
}

namespace {

/// Repeats `op` until at least `min_s` elapsed; returns seconds per call.
template <typename Op>
double per_call_s(double min_s, Op&& op) {
  std::size_t calls = 0;
  const std::int64_t start = now_ns();
  double elapsed = 0;
  do {
    op();
    ++calls;
    elapsed = since_s(start);
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

void crypto_probes(std::size_t chunk_bytes, double sealed_bytes, double run_wall_s,
                   Output& out) {
  chunk_bytes = std::max<std::size_t>(chunk_bytes, 16);
  constexpr double kProbeS = 0.05;
  const crypto::AesGcm gcm(Bytes(16, 0x42));
  const Bytes aad(16, 0x17);
  const Bytes plain(chunk_bytes, 0x5a);
  crypto::GcmTag sealed_tag{};
  const Bytes sealed = gcm.seal(crypto::nonce_from_counter(0), aad, plain, sealed_tag);
  volatile std::size_t sink = 0;

  crypto::GcmTag tag{};
  std::uint64_t counter = 0;
  const double seal_s = per_call_s(kProbeS, [&] {
    sink = sink + gcm.seal(crypto::nonce_from_counter(++counter), aad, plain, tag).size();
  });
  const double open_s = per_call_s(kProbeS, [&] {
    sink = sink + gcm.open(crypto::nonce_from_counter(0), aad, sealed, sealed_tag).ok();
  });
  const Bytes block(64 * 1024, 0x33);
  const double sha_s =
      per_call_s(kProbeS, [&] { sink = sink + crypto::Sha256::hash(block)[0]; }) /
      static_cast<double>(block.size());
  crypto::X25519Key scalar{};
  scalar[0] = 9;
  const crypto::X25519Key point = crypto::x25519_base(scalar);
  const double x25519_s =
      per_call_s(kProbeS, [&] { sink = sink + crypto::x25519(scalar, point)[0]; });
  crypto::Ed25519Seed seed{};
  seed[0] = 1;
  const auto kp = crypto::ed25519_keypair(seed);
  const auto sig = crypto::ed25519_sign(kp, plain);
  const double verify_s = per_call_s(kProbeS, [&] {
    sink = sink + crypto::ed25519_verify(kp.public_key, plain, sig);
  });

  const double mb = static_cast<double>(chunk_bytes) / 1e6;
  auto& m = out.metrics;
  m["crypto.gcm_seal_MBps"] = mb / seal_s;
  m["crypto.gcm_open_MBps"] = mb / open_s;
  m["crypto.sha256_MBps"] = 1e-6 / sha_s;
  m["crypto.x25519_us"] = x25519_s * 1e6;
  m["crypto.ed25519_verify_us"] = verify_s * 1e6;
  m["crypto.probe_chunk_bytes"] = static_cast<double>(chunk_bytes);
  // An estimate: sealed bytes at the probed seal rate, as a share of the
  // wall time of the unit that sealed them.
  m["crypto.est_share"] =
      run_wall_s <= 0 ? 0 : (sealed_bytes / 1e6 / m["crypto.gcm_seal_MBps"]) / run_wall_s;
}

void finish_trace(const Options& opts, const SpanLog& spans, Output& out) {
  const double traced = std::max<double>(1, static_cast<double>(out.traced_units));
  for (const auto& [layer, self_s] : spans.self_s_by_layer()) {
    out.metrics["self." + layer + "_s"] = self_s / traced;
  }
  const double untraced = median(out.untraced_unit_s);
  out.metrics["trace_overhead_pct"] =
      untraced <= 0 ? 0 : (median(out.traced_unit_s) / untraced - 1.0) * 100.0;
  if (!opts.trace_dir.empty()) {
    const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".spans.jsonl";
    if (!spans.write_jsonl(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
