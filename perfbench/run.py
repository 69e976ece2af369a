#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload city_stream --seed 1 --seconds 10 --trace 0

The first run configures and builds an optimized copy of the library and
the perfbench binary under .bench_build/perfbench (build output goes to
stderr). The binary's last output line is turned into the result record printed
as the last line here:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics, plus a span file per run under
.bench_build/traces. A per-layer metric whose layer the workload does not
exercise reads 0. Any build or run failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(TRACES, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACES]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with %d" % done.returncode)
    record = json.loads(lines[-1])

    metrics = {}
    for metric in declared:
        value = record["metrics"].get(metric["name"])
        if value is None:
            if not args.trace:
                fail("perfbench did not report " + metric["name"])
            value = 0.0  # the workload does not exercise this layer
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    # Everything the binary printed besides the result — simulated time,
    # input sizes, the seed, the error tally — is shown ahead of it.
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "trace", "threads", "units", "errors")}))
    positive = bool(args.trace) or all(m["value"] > 0 for m in metrics.values())
    print(json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0 and positive,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
