// Supporting benchmark — end-to-end secure big-data processing.
//
// Runs the smart-grid theft-detection job (SVI use case 1) as a secure
// map/reduce over encrypted readings and compares against a plaintext
// baseline performing the identical aggregation without enclaves or
// crypto — quantifying what "secure" costs at the application level.
// Also reports the transfer codec's effect on shuffle volume.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_json.hpp"
#include "bigdata/codec.hpp"
#include "bigdata/transfer.hpp"
#include "common/thread_pool.hpp"
#include "smartgrid/theft_detection.hpp"

namespace {

using namespace securecloud;
using namespace securecloud::smartgrid;

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Plaintext baseline: identical per-meter two-window aggregation, no
/// enclaves, no encryption.
std::size_t plain_baseline(const MeterFleet& fleet, std::uint64_t split_s,
                           double threshold) {
  struct Agg {
    double base_sum = 0, base_n = 0, recent_sum = 0, recent_n = 0;
  };
  std::map<std::string, Agg> by_meter;
  for (std::size_t h = 0; h < fleet.config().households; ++h) {
    for (const auto& r : fleet.household_series(h)) {
      Agg& agg = by_meter[r.meter_id];
      if (r.timestamp_s < split_s) {
        agg.base_sum += r.power_w;
        agg.base_n += 1;
      } else {
        agg.recent_sum += r.power_w;
        agg.recent_n += 1;
      }
    }
  }
  std::size_t flagged = 0;
  for (const auto& [meter, agg] : by_meter) {
    const double ratio =
        (agg.recent_sum / agg.recent_n) / (agg.base_sum / agg.base_n);
    if (ratio < threshold) ++flagged;
  }
  return flagged;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads N fans map/reduce tasks and bulk seals across a
  // work-stealing pool; outputs and JobStats stay identical.
  // --smoke shrinks the sweep to one small job (the CI sanity run).
  std::size_t threads = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (threads == 0) threads = 1;
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);

  obs::Registry registry;

  std::printf("=== Secure map/reduce: theft detection over encrypted readings ===\n");
  std::printf("(threads=%zu)\n\n", threads);

  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{50} : std::vector<std::size_t>{50, 200, 500};
  for (const std::size_t households : sweep) {
    GridConfig grid;
    grid.households = households;
    grid.interval_s = 120;  // 2-minute readings over 24h
    grid.thefts.push_back({.household = 7, .start_s = 12 * 3600, .reported_fraction = 0.3});
    const MeterFleet fleet(grid, 42);
    const std::size_t records =
        households * (grid.horizon_s / grid.interval_s);

    sgx::Platform platform;
    crypto::DeterministicEntropy entropy(5);
    TheftDetector detector(platform, entropy);
    detector.set_pool(pool.get());
    detector.set_obs(&registry);
    platform.set_obs(&registry);

    std::vector<std::vector<Bytes>> partitions;
    const double prep_s = wall_seconds(
        [&] { partitions = detector.prepare_partitions(fleet, 8); });

    TheftDetectionConfig config;
    config.job.num_mappers = 8;
    config.job.num_reducers = 4;
    Result<TheftReport> report = Error::internal("unset");
    const double secure_s = wall_seconds([&] { report = detector.run(config, partitions); });
    if (!report.ok()) {
      std::printf("job failed: %s\n", report.error().message.c_str());
      return 1;
    }

    // Combiner ablation: same job with map-side combining.
    sgx::Platform platform2;
    crypto::DeterministicEntropy entropy2(5);
    TheftDetector detector2(platform2, entropy2);
    detector2.set_pool(pool.get());
    auto partitions2 = detector2.prepare_partitions(fleet, 8);
    TheftDetectionConfig combined_config = config;
    combined_config.job.enable_combiner = true;
    auto combined = detector2.run(combined_config, partitions2);

    std::size_t plain_flagged = 0;
    const double plain_s = wall_seconds(
        [&] { plain_flagged = plain_baseline(fleet, config.split_s, config.ratio_threshold); });

    std::printf("households=%zu records=%zu\n", households, records);
    std::printf("  encrypt+partition: %.2fs (%.0f rec/s)\n", prep_s,
                static_cast<double>(records) / prep_s);
    std::printf("  secure job:        %.2fs (%.0f rec/s), flagged=%zu\n", secure_s,
                static_cast<double>(records) / secure_s, report->flagged.size());
    std::printf("  plain baseline:    %.2fs (%.0f rec/s), flagged=%zu\n", plain_s,
                static_cast<double>(records) / plain_s, plain_flagged);
    std::printf("  secure/plain slowdown: %.1fx\n", secure_s / plain_s);
    std::printf("  shuffle: %zu bytes encrypted, %llu enclave transitions, %.2fms sim time\n",
                report->job_stats.shuffle_bytes,
                static_cast<unsigned long long>(report->job_stats.enclave_transitions),
                static_cast<double>(report->job_stats.simulated_cycles) / 2.6e6);
    if (combined.ok()) {
      std::printf("  with map-side combiner: shuffle %zu bytes (%.1fx less), flagged=%zu\n\n",
                  combined->job_stats.shuffle_bytes,
                  static_cast<double>(report->job_stats.shuffle_bytes) /
                      static_cast<double>(combined->job_stats.shuffle_bytes),
                  combined->flagged.size());
    }
  }

  // --- transfer codec on meter telemetry --------------------------------------
  std::printf("=== Bulk transfer: delta+varint / RLE + AES-GCM on meter series ===\n");
  GridConfig grid;
  grid.households = 20;
  grid.interval_s = 30;
  const MeterFleet fleet(grid, 9);

  // Integer series codec on quantized power readings.
  std::vector<std::int64_t> series;
  for (std::size_t h = 0; h < grid.households; ++h) {
    for (const auto& r : fleet.household_series(h)) {
      series.push_back(static_cast<std::int64_t>(r.power_w * 10));
    }
  }
  const Bytes encoded = bigdata::encode_series(series);
  std::printf("series codec: %zu samples, %zu raw bytes -> %zu encoded (%.1fx)\n",
              series.size(), series.size() * 8, encoded.size(),
              static_cast<double>(series.size() * 8) / static_cast<double>(encoded.size()));

  // Chunked secure transfer of the serialized batch.
  Bytes batch;
  for (std::size_t h = 0; h < grid.households; ++h) {
    for (const auto& r : fleet.household_series(h)) append(batch, r.serialize());
  }
  bigdata::SecureTransferSender sender(Bytes(16, 0x31), 1);
  sender.set_pool(pool.get());
  sender.set_obs(&registry);
  const auto chunks = sender.send(batch);
  std::printf("secure transfer: %zu plaintext bytes -> %zu wire bytes in %zu chunks\n",
              sender.stats().plaintext_bytes, sender.stats().wire_bytes, chunks.size());

  benchutil::emit_bench_json("mapreduce", threads, registry);
  return 0;
}
