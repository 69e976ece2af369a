// Live cluster health: spot the straggler while the job is running.
//
// A coordinator fans an encrypted word-count job over three worker
// enclaves, with worker-1 handicapped by a 4x compute skew — the
// classic straggler. Every node streams delta-encoded telemetry frames
// over its attested flow to the coordinator's TelemetryMonitor, whose
// straggler-drift detector compares per-node task progress against the
// cluster median. The moment worker-1 falls behind, the monitor raises
// a typed alert and copies that node's flight-recorder ring — a live
// postmortem captured mid-job, not after the fact. The sc-top
// dashboard and the alert log print at the end.
//
// The scenario holds iff (a) exactly the straggler was named by a
// straggler_drift alert, (b) the alert captured worker-1's flight
// ring, and (c) the job still produced output. Exits
// nonzero otherwise.
//
// Build & run:  ./build/examples/cluster_health
#include <cstdio>
#include <string>
#include <vector>

#include "bigdata/distributed_mapreduce.hpp"
#include "net/fabric.hpp"
#include "sgx/attestation.hpp"

using namespace securecloud;

namespace {

std::vector<bigdata::KeyValue> word_count_map(ByteView record) {
  std::vector<bigdata::KeyValue> pairs;
  std::string word;
  for (std::uint8_t c : record) {
    if (c == ' ') {
      if (!word.empty()) pairs.push_back({word, 1.0});
      word.clear();
    } else {
      word += static_cast<char>(c);
    }
  }
  if (!word.empty()) pairs.push_back({word, 1.0});
  return pairs;
}

double sum_reduce(const std::string&, const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

}  // namespace

int main() {
  std::printf("=== SecureCloud live cluster health ===\n\n");

  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 4;
  // Enough simulated map compute that a 4x-skewed worker visibly lags
  // the cluster median while the others finish task after task.
  config.map_compute_ns_per_record = 1'000'000;
  config.telemetry.enabled = true;
  config.telemetry.interval_ns = 250'000;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();
  if (Status s = driver.setup(service); !s.ok()) {
    std::printf("setup failed: %s\n", s.error().message.c_str());
    return 1;
  }

  // Worker-1 runs all compute 4x slower than its peers.
  (void)fabric.set_compute_skew(driver.worker_node(1), 4);

  const char* lines[] = {
      "secure cloud data processing",  "untrusted cloud secure enclave",
      "data stays encrypted in cloud", "enclave attestation binds the job",
      "processing inside the enclave", "secure shuffle between workers",
      "telemetry frames stream live",  "the monitor watches every node",
      "stragglers cannot hide",
  };
  std::vector<std::vector<Bytes>> encrypted;
  for (const char* line : lines) {
    const std::string text = line;
    encrypted.push_back(
        driver.encrypt_partition({Bytes(text.begin(), text.end())}));
  }

  auto result = driver.run(encrypted, word_count_map, sum_reduce);
  if (!result.ok()) {
    std::printf("job failed: %s\n", result.error().message.c_str());
    return 1;
  }
  std::printf("job done: %zu distinct words\n\n", result->output.size());

  const obs::TelemetryMonitor* monitor = driver.telemetry_monitor();
  if (monitor == nullptr) {
    std::printf("FAIL: telemetry monitor was never built\n");
    return 1;
  }
  std::printf("%s\n", monitor->dashboard_text().c_str());

  // (a) The straggler-drift detector named worker-1 — and nobody else.
  std::size_t straggler_alerts = 0;
  bool named_worker1 = false;
  for (const obs::Alert& alert : monitor->alerts()) {
    if (alert.detector != "straggler_drift") continue;
    ++straggler_alerts;
    if (alert.node == "worker-1") named_worker1 = true;
  }
  if (!named_worker1) {
    std::printf("FAIL: no straggler_drift alert named worker-1\n");
    return 1;
  }
  if (straggler_alerts != 1) {
    std::printf("FAIL: expected exactly one straggler alert, got %zu\n",
                straggler_alerts);
    return 1;
  }

  // (b) The alert fired mid-job and captured worker-1's flight ring.
  const auto& postmortems = driver.alert_postmortems();
  auto it = postmortems.find("worker-1");
  if (it == postmortems.end() || it->second.flight.empty()) {
    std::printf("FAIL: alert did not capture worker-1's flight ring\n");
    return 1;
  }
  std::printf("postmortem: captured %zu flight events from worker-1 mid-job\n",
              it->second.flight.size());

  std::printf("\nOK: straggler named, flight ring captured, job completed\n");
  return 0;
}
