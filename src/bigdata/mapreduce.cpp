#include "bigdata/mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/sim_clock.hpp"
#include "crypto/sha256.hpp"

namespace securecloud::bigdata {

constexpr std::uint32_t kRecordDomain = kMapReduceRecordDomain;
constexpr std::uint32_t kShuffleDomain = kMapReduceShuffleDomain;

sgx::EnclaveImage mapreduce_worker_image() {
  // The canonical map/reduce worker binary; all workers share one
  // MRENCLAVE so the job key may be released to any of them.
  sgx::EnclaveImage image;
  image.name = "mapreduce-worker";
  image.code = to_bytes("securecloud-mapreduce-worker-v1");
  crypto::DeterministicEntropy signer(0x4d52);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  return image;
}

std::size_t reducer_of(const std::string& key, std::size_t num_reducers) {
  const auto digest = crypto::Sha256::hash(to_bytes(key));
  return static_cast<std::size_t>(load_be64(ByteView(digest.data(), 8)) % num_reducers);
}

Bytes serialize_pairs(const std::vector<KeyValue>& pairs) {
  Bytes out;
  put_u32(out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& kv : pairs) {
    put_str(out, kv.key);
    put_u64(out, std::bit_cast<std::uint64_t>(kv.value));
  }
  return out;
}

Result<std::vector<KeyValue>> deserialize_pairs(ByteView wire) {
  ByteReader reader(wire);
  std::uint32_t count = 0;
  // Each pair is at least an empty key plus a u64: 12 wire bytes.
  if (!reader.get_count(count, 12)) return Error::protocol("truncated pair block");
  std::vector<KeyValue> pairs;
  pairs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    KeyValue kv;
    std::uint64_t raw = 0;
    if (!reader.get_str(kv.key) || !reader.get_u64(raw)) {
      return Error::protocol("truncated pair");
    }
    kv.value = std::bit_cast<double>(raw);
    pairs.push_back(std::move(kv));
  }
  return pairs;
}

SecureMapReduce::SecureMapReduce(sgx::Platform& platform,
                                 crypto::EntropySource& entropy)
    : platform_(platform), entropy_(entropy), job_key_(entropy.bytes(16)) {}

std::vector<Bytes> SecureMapReduce::encrypt_partition(const std::vector<Bytes>& records) {
  // Nonce counters are claimed for the whole partition up front, so the
  // per-record seals can run in any order (and on any thread) while the
  // wire output stays byte-identical to the sequential loop.
  const std::uint64_t base = record_counter_;
  record_counter_ += records.size();

  crypto::AesGcm gcm(job_key_);
  std::vector<Bytes> out(records.size());
  common::run_indexed(pool_, records.size(), [&](std::size_t i) {
    out[i] = gcm.seal_combined(crypto::nonce_from_counter(base + i + 1, kRecordDomain),
                               to_bytes("record"), records[i]);
  });
  return out;
}

Result<JobResult> SecureMapReduce::run(
    const MapReduceConfig& config,
    const std::vector<std::vector<Bytes>>& encrypted_partitions, const MapFn& map_fn,
    const ReduceFn& reduce_fn) {
  if (config.num_mappers == 0 || config.num_reducers == 0) {
    return Error::invalid_argument("need at least one mapper and one reducer");
  }
  const auto fail = [this](Error error) -> Error {
    if (job_failures_ != nullptr) job_failures_->inc();
    return error;
  };

  obs::Span job_span(tracer_, "mapreduce.job");
  job_span.set_attribute("partitions", std::to_string(encrypted_partitions.size()));
  job_span.set_attribute("reducers", std::to_string(config.num_reducers));

  JobResult result;

  // --- worker pool ----------------------------------------------------------
  const sgx::EnclaveImage image = mapreduce_worker_image();
  std::vector<sgx::Enclave*> workers;
  const std::size_t pool =
      std::min(config.num_mappers, encrypted_partitions.size() ? encrypted_partitions.size() : 1);
  for (std::size_t i = 0; i < pool; ++i) {
    auto worker = platform_.create_enclave(image);
    if (!worker.ok()) return fail(worker.error());
    workers.push_back(*worker);
  }
  const std::uint64_t cycles_before = platform_.clock().cycles();
  const std::size_t partitions = encrypted_partitions.size();

  // --- map phase -------------------------------------------------------------
  // Map tasks run concurrently, one per partition, each against its own
  // AES-GCM context and ClockShard. Every order-sensitive value is a pure
  // function of the (partition, reducer) index: shuffle block p,r seals
  // under nonce counter p*num_reducers + r + 1 and lands in slot [r][p].
  // Tallies merge at the barrier in partition order, so JobStats is
  // bit-identical to the sequential (pool_ == nullptr) run.
  struct MapTally {
    std::size_t input_records = 0;
    std::size_t intermediate_pairs = 0;
    std::size_t shuffle_bytes = 0;
    std::uint64_t enclave_transitions = 0;
    std::optional<Error> error;
  };
  std::vector<MapTally> map_tallies(partitions);
  // blocks[r][p]: encrypted intermediate block from mapper p for reducer
  // r (empty when mapper p emitted nothing for r).
  std::vector<std::vector<Bytes>> blocks(config.num_reducers,
                                         std::vector<Bytes>(partitions));

  obs::Span map_span(tracer_, "mapreduce.map");
  const obs::TraceContext map_ctx = map_span.context();
  common::run_indexed(pool_, partitions, [&](std::size_t p) {
    // Pool threads start with an empty span stack — without this
    // explicit handover the task span would silently become a root.
    obs::ParentScope handover(tracer_, map_ctx);
    obs::Span task_span(tracer_, "mapreduce.map.task");
    task_span.set_attribute("partition", std::to_string(p));
    MapTally& tally = map_tallies[p];
    ClockShard shard(platform_.clock());
    crypto::AesGcm gcm(job_key_);

    // Entering the mapper enclave for this partition.
    shard.advance_cycles(platform_.cost().ecall_cycles);
    ++tally.enclave_transitions;

    std::vector<std::vector<KeyValue>> per_reducer(config.num_reducers);
    TaskPartitioner partition(config.num_reducers);
    for (const auto& sealed_record : encrypted_partitions[p]) {
      auto record = gcm.open_combined(to_bytes("record"), sealed_record);
      if (!record.ok()) {
        tally.error = Error::integrity("input record failed authentication");
        return;
      }
      ++tally.input_records;
      for (auto& kv : map_fn(*record)) {
        per_reducer[partition(kv.key)].push_back(std::move(kv));
      }
    }

    // Optional map-side combine (still inside the mapper enclave).
    if (config.enable_combiner) {
      for (auto& bucket : per_reducer) {
        std::map<std::string, std::vector<double>> groups;
        for (auto& kv : bucket) groups[kv.key].push_back(kv.value);
        bucket.clear();
        for (auto& [key, values] : groups) {
          bucket.push_back({key, reduce_fn(key, values)});
        }
      }
    }

    // Emit one encrypted shuffle block per reducer (leaves the enclave).
    for (std::size_t r = 0; r < config.num_reducers; ++r) {
      if (per_reducer[r].empty()) continue;
      tally.intermediate_pairs += per_reducer[r].size();
      Bytes aad;
      put_str(aad, "shuffle");
      put_u64(aad, r);
      Bytes block = gcm.seal_combined(
          crypto::nonce_from_counter(
              static_cast<std::uint64_t>(p) * config.num_reducers + r + 1,
              kShuffleDomain),
          aad, serialize_pairs(per_reducer[r]));
      tally.shuffle_bytes += block.size();
      blocks[r][p] = std::move(block);
    }
  });

  // Map barrier: merge tallies in partition order; the first failed
  // partition wins, matching the sequential early-return. Histogram
  // observations also happen here, serially, so bucket counts stay
  // bit-identical across thread counts.
  map_span.end();
  obs::Span shuffle_span(tracer_, "mapreduce.shuffle");
  for (const MapTally& tally : map_tallies) {
    if (tally.error) return fail(*tally.error);
    result.stats.input_records += tally.input_records;
    result.stats.intermediate_pairs += tally.intermediate_pairs;
    result.stats.shuffle_bytes += tally.shuffle_bytes;
    result.stats.enclave_transitions += tally.enclave_transitions;
    if (partition_records_ != nullptr) {
      partition_records_->observe(tally.input_records);
    }
  }
  shuffle_span.end();

  // --- reduce phase ------------------------------------------------------------
  // One task per reducer; each consumes its shuffle blocks in partition
  // order and produces an isolated output map. Reducer key spaces are
  // disjoint (hash partitioning), so the serial merge below just
  // concatenates into the ordered output map.
  struct ReduceTally {
    std::map<std::string, double> output;
    std::uint64_t enclave_transitions = 0;
    std::optional<Error> error;
  };
  std::vector<ReduceTally> reduce_tallies(config.num_reducers);

  obs::Span reduce_span(tracer_, "mapreduce.reduce");
  const obs::TraceContext reduce_ctx = reduce_span.context();
  common::run_indexed(pool_, config.num_reducers, [&](std::size_t r) {
    obs::ParentScope handover(tracer_, reduce_ctx);
    obs::Span task_span(tracer_, "mapreduce.reduce.task");
    task_span.set_attribute("reducer", std::to_string(r));
    ReduceTally& tally = reduce_tallies[r];
    ClockShard shard(platform_.clock());
    crypto::AesGcm gcm(job_key_);
    shard.advance_cycles(platform_.cost().ecall_cycles);
    ++tally.enclave_transitions;

    std::map<std::string, std::vector<double>> groups;
    for (std::size_t p = 0; p < partitions; ++p) {
      const Bytes& block = blocks[r][p];
      if (block.empty()) continue;
      Bytes aad;
      put_str(aad, "shuffle");
      put_u64(aad, r);
      auto plain = gcm.open_combined(aad, block);
      if (!plain.ok()) {
        tally.error = Error::integrity("shuffle block failed authentication");
        return;
      }
      auto pairs = deserialize_pairs(*plain);
      if (!pairs.ok()) {
        tally.error = pairs.error();
        return;
      }
      for (auto& kv : *pairs) {
        groups[kv.key].push_back(kv.value);
      }
    }
    for (auto& [key, values] : groups) {
      tally.output[key] = reduce_fn(key, values);
    }
  });

  // Reduce barrier: surface the first failure, then merge outputs.
  for (ReduceTally& tally : reduce_tallies) {
    if (tally.error) return fail(*tally.error);
    result.output.merge(tally.output);
    result.stats.enclave_transitions += tally.enclave_transitions;
  }
  reduce_span.end();

  result.stats.simulated_cycles = platform_.clock().cycles() - cycles_before;
  for (sgx::Enclave* worker : workers) {
    platform_.destroy_enclave(worker->id());
  }

  // Mirror the merged JobStats into the registry — one serial spot, after
  // every barrier, so counter totals are independent of thread count.
  if (jobs_ != nullptr) {
    jobs_->inc();
    input_records_->inc(result.stats.input_records);
    intermediate_pairs_->inc(result.stats.intermediate_pairs);
    shuffle_bytes_->inc(result.stats.shuffle_bytes);
    enclave_transitions_->inc(result.stats.enclave_transitions);
  }
  return result;
}

void SecureMapReduce::set_obs(obs::Registry* registry, obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    jobs_ = job_failures_ = input_records_ = nullptr;
    intermediate_pairs_ = shuffle_bytes_ = enclave_transitions_ = nullptr;
    partition_records_ = nullptr;
    return;
  }
  jobs_ = &registry->counter("mapreduce_jobs_total");
  job_failures_ = &registry->counter("mapreduce_job_failures_total");
  input_records_ = &registry->counter("mapreduce_input_records_total");
  intermediate_pairs_ = &registry->counter("mapreduce_intermediate_pairs_total");
  shuffle_bytes_ = &registry->counter("mapreduce_shuffle_bytes_total");
  enclave_transitions_ = &registry->counter("mapreduce_enclave_transitions_total");
  partition_records_ = &registry->histogram("mapreduce_partition_records");
}

}  // namespace securecloud::bigdata
