#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-sensitive tests.
#
# Configures a second build tree with SECURECLOUD_SANITIZE=thread and
# runs the thread-pool / parallel-determinism tests (plus the common
# tests covering SimClock/ClockShard), the SPSC ring hammer, the
# lock-free data-plane hammers (MPSC queue N-producers/1-consumer,
# RcuCell reader/writer churn, arena concurrent bump, EventRing
# writer-vs-exporter reclamation — test_lockfree), the fault-injection
# suite, the obs registry/shard hammer + the flight-recorder
# concurrent-append hammer and cross-thread span handover
# (FlightRecorder.*/Trace.* in test_obs), the cluster fabric under
# concurrent enqueue (FabricConcurrency.*), distributed MapReduce at 8
# pool threads (one AesGcm per map task shared by the pool's record
# opens), the SCBR pooled batch
# paths (ScbrRouter::subscribe_batch and every Router.* test in
# test_scbr: pool workers read the router's plain tables with no epoch
# pin, which is sound only because the router takes one caller at a
# time; the fabric overlay's chaos publish_batch in
# test_fabric_overlay), and the SecureStreams
# backpressure hammer (fast producer, slow sink, pool workers on the
# pure stages, shared registry — StreamsHammer.* in test_streams), and
# the telemetry plane's concurrent sampling surface (pool threads
# bumping a sharded registry while the sampler snapshots and the
# monitor ingests — TelemetryHammer.* in test_telemetry), and the
# Ed25519 base-point tables built on first use from several pool threads
# (run alone, so that use is the process's first) under TSan.
# Part of the tier-1 flow for changes touching the parallel execution
# layer, the fault/recovery plane, the metrics plane, or src/net/.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" -DSECURECLOUD_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j "$(nproc)" \
      --target test_thread_pool test_common test_scone test_lockfree \
      test_fault_injection test_obs test_net test_fabric_overlay test_scbr \
      test_streams test_telemetry test_crypto

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
"${build_dir}/tests/test_thread_pool"
"${build_dir}/tests/test_common" --gtest_filter='SimClock.*'
"${build_dir}/tests/test_scone" --gtest_filter='SpscRing.*'
"${build_dir}/tests/test_lockfree"
"${build_dir}/tests/test_fault_injection"
"${build_dir}/tests/test_obs"
"${build_dir}/tests/test_net" \
  --gtest_filter='FabricConcurrency.*:Fabric.*:DistributedMapReduce.DeterministicUnderFaultsAtAnyThreadCount'
"${build_dir}/tests/test_fabric_overlay" --gtest_filter='*Chaos*'
"${build_dir}/tests/test_scbr" --gtest_filter='*Batch*:Router.*'
"${build_dir}/tests/test_streams" --gtest_filter='StreamsHammer.*:*Chaos*'
"${build_dir}/tests/test_telemetry" --gtest_filter='TelemetryHammer.*:*Chaos*'
"${build_dir}/tests/test_crypto" --gtest_filter='CurveOracle.FixedBaseTableFirstUseFromPoolThreads'
echo "TSan clean."
