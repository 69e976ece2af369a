#!/usr/bin/env python3
"""Records one point of the perf trajectory as BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --pr N --seed 1 --seconds 20

Runs perfbench/run.py once with --trace 0 and once with --trace 1 for every
BENCHMARK.json workload, one run at a time, and writes BENCH_<pr>.json at the
root of the checkout. The file holds each run's identity and result records,
the seed, --seconds, and the host's CPU model, CPU count and CPU flags.
scripts/bench_compare.py compares two such files.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = sorted(value.split())
    except OSError:
        pass
    return {"cpu_model": model, "cpus": os.cpu_count(), "cpu_flags": flags}


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_record: {workload} --trace {trace} failed")
    return {"workload": workload, "trace": trace,
            "identity": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    runs = [run(w, args.seed, args.seconds, trace) for w in workloads for trace in (0, 1)]
    trail = {"schema": "securecloud.bench_trail.v1", "pr": args.pr, "seed": args.seed,
             "seconds": args.seconds, "host": host(), "runs": runs}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(trail, f, indent=1)
        f.write("\n")
    print(path)


if __name__ == "__main__":
    main()
