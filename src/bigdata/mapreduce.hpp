// Secure map/reduce over enclave workers (§III-B: "map/reduce based
// computations").
//
// Execution model:
//   * the input is a list of partitions (lists of encrypted records);
//   * each *mapper* runs in a worker enclave: it decrypts its partition
//     with the job key, applies the map function, and emits intermediate
//     (key, value) pairs grouped by reducer (hash partitioning), each
//     group encrypted with the job key before leaving the enclave;
//   * each *reducer* runs in a worker enclave: it decrypts and verifies
//     the intermediate groups addressed to it, sorts/groups by key, and
//     applies the reduce function;
//   * the driver schedules partitions over a bounded worker pool and
//     charges every enclave entry/exit to the platform clock.
// The untrusted host observes only ciphertext records and ciphertext
// shuffle traffic; tampering with shuffle data aborts the job.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "crypto/entropy.hpp"
#include "crypto/gcm.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sgx/platform.hpp"

namespace securecloud::bigdata {

struct KeyValue {
  std::string key;
  double value = 0;
};

/// AES-GCM nonce domains for job records and shuffle blocks. Shared with
/// the distributed driver (src/bigdata/distributed_mapreduce.*) so both
/// engines produce interchangeable ciphertext for the same job key.
inline constexpr std::uint32_t kMapReduceRecordDomain = 0x4d525245;   // "MRRE"
inline constexpr std::uint32_t kMapReduceShuffleDomain = 0x4d525348;  // "MRSH"

/// Wire codec for intermediate (key, value) pair blocks: u32 count, then
/// length-prefixed key + bit-cast double per pair.
Bytes serialize_pairs(const std::vector<KeyValue>& pairs);
Result<std::vector<KeyValue>> deserialize_pairs(ByteView wire);

/// Hash partitioner: the reducer owning `key` (SHA-256 prefix mod).
std::size_t reducer_of(const std::string& key, std::size_t num_reducers);

/// reducer_of memoized for one map task: one SHA-256 per distinct key
/// rather than per emitted pair. Not thread-safe; one per task.
class TaskPartitioner {
 public:
  explicit TaskPartitioner(std::size_t num_reducers) : num_reducers_(num_reducers) {}

  std::size_t operator()(const std::string& key) {
    auto [it, fresh] = reducer_by_key_.try_emplace(key, 0);
    if (fresh) it->second = reducer_of(key, num_reducers_);
    return it->second;
  }

 private:
  std::size_t num_reducers_;
  std::unordered_map<std::string, std::size_t> reducer_by_key_;
};

/// The canonical signed map/reduce worker image. All workers share one
/// MRENCLAVE, so the job key may be released to any attested worker.
sgx::EnclaveImage mapreduce_worker_image();

struct MapReduceConfig {
  std::size_t num_mappers = 4;
  std::size_t num_reducers = 2;
  /// Map-side combining: pre-reduce each mapper's output per key before
  /// it leaves the enclave. Cuts encrypted shuffle traffic for
  /// associative reductions (sums, counts, min/max) — the "efficient
  /// transmission" lever for aggregation-heavy jobs.
  bool enable_combiner = false;
};

struct JobStats {
  std::size_t input_records = 0;
  std::size_t intermediate_pairs = 0;
  std::size_t shuffle_bytes = 0;        // encrypted bytes crossing workers
  std::uint64_t enclave_transitions = 0;
  std::uint64_t simulated_cycles = 0;
};

struct JobResult {
  std::map<std::string, double> output;
  JobStats stats;
};

class SecureMapReduce {
 public:
  using MapFn = std::function<std::vector<KeyValue>(ByteView record)>;
  using ReduceFn =
      std::function<double(const std::string& key, const std::vector<double>& values)>;

  /// Worker enclaves are created on `platform` from a canonical signed
  /// worker image; the job key is generated from `entropy`.
  SecureMapReduce(sgx::Platform& platform, crypto::EntropySource& entropy);

  /// Fans map/reduce tasks and bulk encryption across `pool` (nullptr =
  /// sequential). The driver pre-assigns every order-sensitive value —
  /// nonce counters, shuffle slots, output slots — by partition/reducer
  /// index and merges per-task tallies at the phase barriers, so
  /// `run()`'s output and JobStats (including simulated_cycles) are
  /// bit-identical at every thread count.
  void set_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Encrypts plaintext records into job-input format (done by the data
  /// owner before upload — the cloud only ever stores the result).
  std::vector<Bytes> encrypt_partition(const std::vector<Bytes>& records);

  /// Runs the job over encrypted partitions. When the combiner is
  /// enabled, `reduce_fn` must be associative and idempotent over merges
  /// (it is applied once per mapper per key and again at the reducer).
  Result<JobResult> run(const MapReduceConfig& config,
                        const std::vector<std::vector<Bytes>>& encrypted_partitions,
                        const MapFn& map_fn, const ReduceFn& reduce_fn);

  /// Mirrors JobStats into `mapreduce_*` metrics and (with a tracer)
  /// emits mapreduce.job/.map/.shuffle/.reduce spans per run. Metric
  /// bumps happen only at the phase barriers, from the already-merged
  /// tallies, so exported counters inherit run()'s bit-identical
  /// determinism across thread counts; spans carry no such guarantee.
  void set_obs(obs::Registry* registry, obs::Tracer* tracer = nullptr);

 private:
  sgx::Platform& platform_;
  crypto::EntropySource& entropy_;
  Bytes job_key_;
  std::uint64_t record_counter_ = 0;
  common::ThreadPool* pool_ = nullptr;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* jobs_ = nullptr;
  obs::Counter* job_failures_ = nullptr;
  obs::Counter* input_records_ = nullptr;
  obs::Counter* intermediate_pairs_ = nullptr;
  obs::Counter* shuffle_bytes_ = nullptr;
  obs::Counter* enclave_transitions_ = nullptr;
  obs::Histogram* partition_records_ = nullptr;
};

}  // namespace securecloud::bigdata
