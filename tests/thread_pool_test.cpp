// Work-stealing pool tests (scheduling, stealing, exceptions, nesting)
// plus the determinism contract of every pooled path: SecureMapReduce,
// ScbrRouter::publish_batch, and the secure transfer pipeline must
// produce bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bigdata/mapreduce.hpp"
#include "bigdata/transfer.hpp"
#include "common/thread_pool.hpp"
#include "scbr/poset_engine.hpp"
#include "scbr/router.hpp"
#include "scbr/workload.hpp"
#include "sgx/platform.hpp"

namespace securecloud {
namespace {

using common::ThreadPool;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, GracefulShutdownDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(done.load(), 500);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i, std::size_t j) {
    for (; i < j; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(0, 1, [&](std::size_t i, std::size_t j) {
    total.fetch_add(static_cast<int>(j - i));
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> items(1'000);
  std::iota(items.begin(), items.end(), 0);
  const auto squares = pool.parallel_map(items, [](const int& x) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPool, StealsFromLoadedWorker) {
  ThreadPool pool(4);
  // Funnel all work through one worker's deque: a task submitted from a
  // worker thread lands on that worker's own deque. The submitter then
  // blocks its worker until every child ran, so the children can only
  // ever execute via steals by the other three workers.
  std::atomic<int> done{0};
  pool.submit([&] {
    for (int i = 0; i < 128; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    while (done.load() < 128) std::this_thread::yield();
  });
  while (done.load() < 128) std::this_thread::yield();
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1'000,
                        [](std::size_t i, std::size_t) {
                          if (i <= 500 && 500 < i + 1) {
                            throw std::runtime_error("grain failed");
                          }
                        },
                        1),
      std::runtime_error);
  // The pool survives and stays usable after a failed parallel_for.
  std::atomic<int> done{0};
  pool.parallel_for(0, 64, [&](std::size_t i, std::size_t j) {
    done.fetch_add(static_cast<int>(j - i));
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer_sums(8);
  pool.parallel_for(0, outer_sums.size(), [&](std::size_t a, std::size_t b) {
    for (; a < b; ++a) {
      pool.parallel_for(0, 100, [&, a](std::size_t i, std::size_t j) {
        outer_sums[a].fetch_add(static_cast<int>(j - i));
      });
    }
  });
  for (const auto& s : outer_sums) EXPECT_EQ(s.load(), 100);
}

TEST(ThreadPool, RunIndexedInlineWithoutPool) {
  std::vector<int> hits(64, 0);
  common::run_indexed(nullptr, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ------------------------------------------------- MapReduce determinism

namespace mr {

using bigdata::KeyValue;

std::vector<std::vector<Bytes>> make_plaintext_partitions() {
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  std::vector<std::vector<Bytes>> parts;
  std::uint64_t lcg = 3;
  for (int p = 0; p < 12; ++p) {
    std::vector<Bytes> records;
    for (int r = 0; r < 20; ++r) {
      std::string text;
      for (int w = 0; w < 10; ++w) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        text += words[(lcg >> 33) % 5];
        text += ' ';
      }
      records.push_back(to_bytes(text));
    }
    parts.push_back(std::move(records));
  }
  return parts;
}

std::vector<KeyValue> word_count_map(ByteView record) {
  std::vector<KeyValue> out;
  std::string word;
  for (std::uint8_t c : record) {
    if (c == ' ') {
      if (!word.empty()) out.push_back({word, 1.0});
      word.clear();
    } else {
      word += static_cast<char>(c);
    }
  }
  if (!word.empty()) out.push_back({word, 1.0});
  return out;
}

double sum_reduce(const std::string&, const std::vector<double>& vs) {
  double sum = 0;
  for (double v : vs) sum += v;
  return sum;
}

struct JobRun {
  std::map<std::string, double> output;
  bigdata::JobStats stats;
  std::uint64_t platform_cycles = 0;
  std::vector<std::vector<Bytes>> encrypted;
};

JobRun run_with(ThreadPool* pool, bool combiner) {
  sgx::Platform platform;
  crypto::DeterministicEntropy entropy(17);
  bigdata::SecureMapReduce job(platform, entropy);
  job.set_pool(pool);

  JobRun run;
  for (const auto& part : make_plaintext_partitions()) {
    run.encrypted.push_back(job.encrypt_partition(part));
  }
  bigdata::MapReduceConfig config;
  config.num_mappers = 4;
  config.num_reducers = 3;
  config.enable_combiner = combiner;
  auto result = job.run(config, run.encrypted, word_count_map, sum_reduce);
  EXPECT_TRUE(result.ok());
  if (result.ok()) {
    run.output = result->output;
    run.stats = result->stats;
  }
  run.platform_cycles = platform.clock().cycles();
  return run;
}

}  // namespace mr

TEST(ParallelMapReduce, EightThreadRunIdenticalToSequential) {
  for (const bool combiner : {false, true}) {
    const mr::JobRun seq = mr::run_with(nullptr, combiner);
    ThreadPool pool(8);
    const mr::JobRun par = mr::run_with(&pool, combiner);

    EXPECT_EQ(par.encrypted, seq.encrypted);  // bulk seal path, bit-exact
    EXPECT_EQ(par.output, seq.output);
    EXPECT_EQ(par.stats.input_records, seq.stats.input_records);
    EXPECT_EQ(par.stats.intermediate_pairs, seq.stats.intermediate_pairs);
    EXPECT_EQ(par.stats.shuffle_bytes, seq.stats.shuffle_bytes);
    EXPECT_EQ(par.stats.enclave_transitions, seq.stats.enclave_transitions);
    EXPECT_EQ(par.stats.simulated_cycles, seq.stats.simulated_cycles);
    EXPECT_EQ(par.platform_cycles, seq.platform_cycles);
  }
}

TEST(ParallelMapReduce, TamperedRecordFailsAtAnyThreadCount) {
  sgx::Platform platform;
  crypto::DeterministicEntropy entropy(17);
  bigdata::SecureMapReduce job(platform, entropy);
  auto parts = mr::make_plaintext_partitions();
  std::vector<std::vector<Bytes>> encrypted;
  for (const auto& part : parts) encrypted.push_back(job.encrypt_partition(part));
  encrypted[5][3][8] ^= 0x40;

  bigdata::MapReduceConfig config;
  config.num_mappers = 4;
  config.num_reducers = 3;
  ThreadPool pool(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    job.set_pool(p);
    auto result = job.run(config, encrypted, mr::word_count_map, mr::sum_reduce);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::kIntegrityViolation);
  }
}

// ------------------------------------------------ publish_batch determinism

namespace pb {

struct RouterRun {
  std::vector<std::vector<scbr::Delivery>> deliveries;
  scbr::RouterMetrics metrics;
  std::uint64_t platform_cycles = 0;
};

/// Builds an identical router from fixed seeds and pushes the same batch
/// through it: `mode` 0 = publish() loop, 1 = publish_batch inline,
/// 2 = publish_batch on an 8-thread pool.
RouterRun run_router(int mode) {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  platform.provision(attestation);
  crypto::DeterministicEntropy entropy(55);
  scbr::KeyService keys(attestation, entropy);

  sgx::EnclaveImage image;
  image.name = "scbr-router";
  image.code = to_bytes("router-binary");
  crypto::DeterministicEntropy signer(808);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  EXPECT_TRUE(enclave.ok());
  keys.authorize_router((*enclave)->mrenclave());

  auto publisher = keys.register_client("publisher");
  std::vector<scbr::ClientCredentials> subs;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(keys.register_client("sub-" + std::to_string(i)));
  }
  scbr::ScbrRouter router(**enclave, std::make_unique<scbr::PosetEngine>());
  EXPECT_TRUE(router.provision(keys).ok());

  scbr::WorkloadConfig wl;
  wl.attribute_universe = 6;
  wl.attributes_per_filter = 2;
  wl.value_range = 1'000;
  wl.width_fraction = 0.4;
  wl.hierarchy_fraction = 0.5;
  scbr::ScbrWorkload workload(wl, 7);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto& owner = subs[i % subs.size()];
    EXPECT_TRUE(router
                    .subscribe(owner.name, encrypt_subscription(
                                               owner, workload.next_filter(), i + 1))
                    .ok());
  }

  std::vector<scbr::ScbrRouter::PublishRequest> batch;
  for (std::size_t i = 0; i < 48; ++i) {
    batch.push_back({publisher.name,
                     encrypt_publication(publisher, workload.next_event(), i + 1)});
  }
  // One corrupt publication mid-batch: it must fail in its own slot
  // without disturbing anything around it.
  batch[20].wire[batch[20].wire.size() / 2] ^= 0x01;

  RouterRun run;
  if (mode == 0) {
    for (const auto& req : batch) {
      auto r = router.publish(req.client, req.wire);
      run.deliveries.push_back(r.ok() ? *r : std::vector<scbr::Delivery>{});
    }
  } else {
    ThreadPool pool(8);
    auto results = router.publish_batch(batch, mode == 2 ? &pool : nullptr);
    for (auto& r : results) {
      run.deliveries.push_back(r.ok() ? *r : std::vector<scbr::Delivery>{});
    }
  }
  run.metrics = router.metrics();
  run.platform_cycles = platform.clock().cycles();
  return run;
}

bool same_deliveries(const RouterRun& a, const RouterRun& b) {
  if (a.deliveries.size() != b.deliveries.size()) return false;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    if (a.deliveries[i].size() != b.deliveries[i].size()) return false;
    for (std::size_t d = 0; d < a.deliveries[i].size(); ++d) {
      const auto& x = a.deliveries[i][d];
      const auto& y = b.deliveries[i][d];
      if (x.subscriber != y.subscriber || x.subscription != y.subscription ||
          x.wire != y.wire) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pb

TEST(PublishBatch, MatchesSequentialPublishBitForBit) {
  const pb::RouterRun loop = pb::run_router(0);
  const pb::RouterRun inline_batch = pb::run_router(1);
  const pb::RouterRun pooled_batch = pb::run_router(2);

  EXPECT_TRUE(pb::same_deliveries(loop, inline_batch));
  EXPECT_TRUE(pb::same_deliveries(loop, pooled_batch));
  for (const pb::RouterRun* run : {&inline_batch, &pooled_batch}) {
    EXPECT_EQ(run->metrics.publications, loop.metrics.publications);
    EXPECT_EQ(run->metrics.deliveries, loop.metrics.deliveries);
    EXPECT_EQ(run->metrics.auth_failures, loop.metrics.auth_failures);
    EXPECT_EQ(run->metrics.replays_blocked, loop.metrics.replays_blocked);
    EXPECT_EQ(run->platform_cycles, loop.platform_cycles);
  }
  EXPECT_GT(loop.metrics.auth_failures, 0u);  // the corrupt slot registered
}

// --------------------------------------------------- transfer determinism

TEST(ParallelTransfer, PooledSendAndReceiveMatchSequential) {
  Bytes payload;
  std::uint64_t lcg = 23;
  while (payload.size() < 700'000) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    payload.insert(payload.end(), 1 + ((lcg >> 41) % 6),
                   static_cast<std::uint8_t>(lcg >> 33));
  }

  bigdata::SecureTransferSender seq_sender(Bytes(16, 0x31), 9);
  const auto seq_chunks = seq_sender.send(payload);

  ThreadPool pool(8);
  bigdata::SecureTransferSender par_sender(Bytes(16, 0x31), 9);
  par_sender.set_pool(&pool);
  const auto par_chunks = par_sender.send(payload);

  EXPECT_EQ(par_chunks, seq_chunks);
  EXPECT_EQ(par_sender.stats().wire_bytes, seq_sender.stats().wire_bytes);
  EXPECT_EQ(par_sender.stats().chunks, seq_sender.stats().chunks);

  // Both chunk sets reassemble to the payload, once.
  SimClock clock;
  for (const auto* chunks : {&seq_chunks, &par_chunks}) {
    bigdata::SecureTransferReceiver receiver(Bytes(16, 0x31), 9, clock, 8);
    std::vector<Bytes> delivered;
    for (const auto& c : *chunks) {
      auto got = receiver.receive(c);
      ASSERT_TRUE(got.ok());
      for (Bytes& p : *got) delivered.push_back(std::move(p));
    }
    EXPECT_EQ(delivered, std::vector<Bytes>{payload});
  }
}

TEST(ParallelTransfer, PooledChunksSurviveTamperAndReorder) {
  // Noise, so RLE cannot collapse the payload below several chunks.
  Bytes payload(300'000);
  std::uint64_t lcg = 41;
  for (auto& b : payload) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(lcg >> 33);
  }
  ThreadPool pool(4);
  bigdata::SecureTransferSender sender(Bytes(16, 0x31), 3);
  sender.set_pool(&pool);
  auto chunks = sender.send(payload);
  ASSERT_GT(chunks.size(), 2u);

  SimClock clock;
  const auto deliver = [&](const std::vector<Bytes>& wire,
                           bigdata::SecureTransferReceiver& receiver) {
    std::vector<Bytes> delivered;
    for (const auto& c : wire) {
      auto got = receiver.receive(c);
      EXPECT_TRUE(got.ok());
      if (!got.ok()) break;
      for (Bytes& p : *got) delivered.push_back(std::move(p));
    }
    return delivered;
  };
  {
    // A tampered chunk is dropped as corrupt; the payload waits on it.
    auto tampered = chunks;
    tampered[1][tampered[1].size() - 1] ^= 0x80;
    bigdata::SecureTransferReceiver receiver(Bytes(16, 0x31), 3, clock, 8);
    EXPECT_TRUE(deliver(tampered, receiver).empty());
    EXPECT_EQ(receiver.recovery_stats().corrupt, 1u);
    EXPECT_EQ(receiver.next_expected(), 1u);
    EXPECT_TRUE(receiver.has_pending_gaps());
  }
  {
    // A reordered stream delivers once, in order.
    auto reordered = chunks;
    std::swap(reordered[0], reordered[1]);
    bigdata::SecureTransferReceiver receiver(Bytes(16, 0x31), 3, clock, 8);
    EXPECT_EQ(deliver(reordered, receiver), std::vector<Bytes>{payload});
    EXPECT_EQ(receiver.recovery_stats().buffered, 1u);
  }
}

}  // namespace
}  // namespace securecloud
