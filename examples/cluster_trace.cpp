// Cluster-wide distributed tracing: find the straggler.
//
// A coordinator fans an encrypted word-count job over three worker
// enclaves connected by the simulated cluster fabric. Worker 1 is a
// straggler — its node computes 4x slower. Every node records its own
// metrics, spans, and flight-recorder events; the driver collects the
// per-node snapshots, merges them into one node-labelled trace, and
// runs critical-path analysis joined against the fabric's link-delivery
// log.
//
// The scenario holds iff the analyzer *names* the straggler: the
// dominant node of the job's critical path must be worker-1, with its
// map task on the path. Exits nonzero otherwise.
//
// Build & run:  ./build/examples/cluster_trace
#include <cstdio>

#include "bigdata/distributed_mapreduce.hpp"
#include "net/fabric.hpp"
#include "obs/cluster.hpp"
#include "sgx/attestation.hpp"

using namespace securecloud;

int main() {
  std::printf("=== SecureCloud cluster tracing ===\n\n");

  SimClock clock;
  net::Fabric fabric(clock);
  sgx::AttestationService service;

  bigdata::DistributedMapReduceConfig config;
  config.num_workers = 3;
  config.num_reducers = 4;
  config.enable_combiner = true;
  bigdata::DistributedMapReduce driver(fabric, config);
  driver.enable_cluster_obs();  // per-node registries/tracers/flight rings
  if (Status s = driver.setup(service); !s.ok()) {
    std::printf("setup failed: %s\n", s.error().message.c_str());
    return 1;
  }
  fabric.enable_delivery_log();  // link records for the analyzer

  // Worker 1's node is 4x slower for the same compute — the straggler.
  const std::size_t straggler = 1;
  if (!fabric.set_compute_skew(driver.worker_node(straggler), 4).ok()) return 1;
  std::printf("cluster: coordinator + 3 workers, worker-1 computing 4x slower\n");

  // The data owner encrypts the input before upload; the cluster only
  // ever sees ciphertext.
  std::vector<std::vector<Bytes>> encrypted;
  const char* lines[] = {
      "secure cloud data processing",  "untrusted cloud secure enclave",
      "data stays encrypted in cloud", "enclave attestation binds the job",
      "processing inside the enclave", "secure shuffle between workers",
  };
  // Three passes over the corpus: enough map compute per worker that the
  // straggler's 4x skew, not link serialization, dominates the path.
  for (int rep = 0; rep < 3; ++rep) {
    for (int p = 0; p < 6; ++p) {
      const std::string text = lines[p];
      encrypted.push_back(
          driver.encrypt_partition({Bytes(text.begin(), text.end())}));
    }
  }

  auto result = driver.run(
      encrypted,
      [](ByteView record) {
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
      },
      [](const std::string&, const std::vector<double>& values) {
        double total = 0;
        for (double v : values) total += v;
        return total;
      });
  if (!result.ok()) {
    std::printf("job failed: %s\n", result.error().message.c_str());
    return 1;
  }
  std::printf("job done: %zu distinct words, %llu simulated cycles\n\n",
              result->output.size(),
              static_cast<unsigned long long>(result->stats.simulated_cycles));

  // Collect every node's snapshot over the fabric and merge.
  auto snapshot = driver.collect_cluster_snapshot();
  if (!snapshot.ok()) {
    std::printf("snapshot failed: %s\n", snapshot.error().message.c_str());
    return 1;
  }
  std::size_t span_count = 0;
  for (const auto& node : snapshot->nodes) span_count += node.spans.size();
  std::printf("merged %zu node snapshots, %zu spans\n\n", snapshot->nodes.size(),
              span_count);

  const std::vector<std::string> names = fabric.node_names();
  obs::CriticalPathOptions opts;
  opts.deliveries = &fabric.deliveries();
  opts.node_names = &names;
  auto report = obs::critical_path(*snapshot, opts);
  if (!report.ok()) {
    std::printf("critical path failed: %s\n", report.error().message.c_str());
    return 1;
  }
  std::printf("%s\n", report->to_text().c_str());

  // The whole point: the analyzer must name the slow node.
  if (report->dominant_node != "worker-1") {
    std::printf("FAIL: expected worker-1 to dominate, got %s\n",
                report->dominant_node.c_str());
    return 1;
  }
  bool straggler_map_on_path = false;
  for (const auto& step : report->steps) {
    if (step.node == "worker-1" && step.name == "dist_mapreduce.map_task") {
      straggler_map_on_path = true;
    }
  }
  if (!straggler_map_on_path) {
    std::printf("FAIL: straggler map task missing from the critical path\n");
    return 1;
  }
  std::printf("\nOK: critical path names worker-1 as the straggler\n");
  return 0;
}
