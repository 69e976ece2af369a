#!/usr/bin/env python3
"""Compare two bench JSON outputs.

Usage: bench_compare.py BASE_FILE HEAD_FILE [--threshold 0.10] [--spec BENCHMARK.json]

Two kinds of input are understood.

perfbench records: a BENCH_<pr>.json trail (scripts/bench_record.py), or the
stdout of one or more `perfbench/run.py` runs, whose identity line
({"workload", "trace", ...}) precedes the result line
({"metrics": {name: {"value", "unit"}}}). Records are paired by (workload,
trace), and every shared metric prints its HEAD/BASE ratio beside the
BENCHMARK.json bound and direction of an end-to-end metric. A metric worse
than its bound is marked, but this is a record trail, not a gate: the exit
status is 0 whenever something was compared. Perf claims still need
alternating parent/change pairs.

Files recorded at different times may also differ because the host did.
The probes of code a change rarely touches (HOST_PROBES, in the --trace 1
records) are compared first: when any of them moved by more than
HOST_DRIFT (25%), one "host drift suspected" line precedes the ratios.

Raw bench binaries: the stdout of bench_net_fabric, bench_scbr_matching, ...
Lines that parse as JSON objects with a "bench" key are bench records;
everything else (google-benchmark tables, trace documents) is ignored.
Records are paired across the two files by their identity key — ("bench",
plus "threads"/"senders"/"workers" when present) — and every shared
`*_per_sec` field is compared. Exit status is non-zero if any rate field in
HEAD is more than `threshold` (default 10%) below its BASE value.
Improvements and new/missing records are reported but never fail the
comparison (benches come and go; losing a record entirely shows up in the
summary for a human to notice).
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer crypto probes that time fixed work in code outside the apps.
HOST_PROBES = ("crypto.sha256_MBps", "crypto.x25519_us", "crypto.ed25519_verify_us")
HOST_DRIFT = 0.25


def load_perf_records(path):
    """Returns {(workload, trace): result} from a BENCH_<pr>.json trail or
    perfbench/run.py output; empty when `path` holds neither."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "runs" in doc:
        return {(run["workload"], run["trace"]): run["result"] for run in doc["runs"]}
    records = {}
    identity = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(doc, dict):
            continue
        if "workload" in doc and "trace" in doc:
            identity = (doc["workload"], doc["trace"])
        elif isinstance(doc.get("metrics"), dict) and identity is not None:
            records[identity] = doc
            identity = None
    return records


def host_drift(base, head):
    """Returns "workload probe xRATIO" for every host probe that moved by
    more than HOST_DRIFT between the two sides' --trace 1 records."""
    moved = []
    for workload, trace in sorted(set(base) & set(head)):
        if trace != 1:
            continue
        base_metrics = base[(workload, trace)]["metrics"]
        head_metrics = head[(workload, trace)]["metrics"]
        for name in HOST_PROBES:
            if name not in base_metrics or name not in head_metrics:
                continue
            old = base_metrics[name]["value"]
            new = head_metrics[name]["value"]
            if old and abs(new / old - 1) > HOST_DRIFT:
                moved.append(f"{workload} {name} x{new / old:.3f}")
    return moved


def compare_perf(base, head, spec_path):
    with open(spec_path) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    moved = host_drift(base, head)
    if moved:
        print(f"host drift suspected: probes of untouched code moved more than "
              f"{HOST_DRIFT:.0%} ({'; '.join(moved)})")
    compared = 0
    for identity in sorted(set(base) & set(head)):
        workload, trace = identity
        base_metrics = base[identity]["metrics"]
        head_metrics = head[identity]["metrics"]
        for name in sorted(set(base_metrics) & set(head_metrics)):
            old = base_metrics[name]["value"]
            new = head_metrics[name]["value"]
            ratio = f"{new / old:6.3f}" if old else "   n/a"
            note = ""
            if name in bounds:
                bound = bounds[name]
                note = f"  [bound {bound['bound']:.2f}, {bound['better']} is better]"
                if old:
                    worse = (old - new) / old if bound["better"] == "higher" else (new - old) / old
                    if worse > bound["bound"]:
                        note += "  << beyond bound"
            compared += 1
            print(f"{workload} trace={trace} {name}: {old:.6g} -> {new:.6g}  x{ratio}{note}")
    for identity in sorted(set(base) ^ set(head)):
        side = "base" if identity in base else "head"
        print(f"{identity[0]} trace={identity[1]}: only in {side} (not compared)")
    if compared == 0:
        print("error: no comparable perfbench metrics between the two files",
              file=sys.stderr)
        return 2
    print(f"\n{compared} metric(s) compared (record trail, not a gate)")
    return 0


def load_records(path):
    """Returns {identity: record} for every bench JSON line in `path`."""
    records = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(doc, dict) or "bench" not in doc:
                continue
            identity = [("bench", doc["bench"])]
            for axis in ("threads", "senders", "workers"):
                if axis in doc:
                    identity.append((axis, doc[axis]))
            records[tuple(identity)] = doc
    return records


def rate_fields(doc):
    return {
        k: v
        for k, v in doc.items()
        if k.endswith("_per_sec") and isinstance(v, (int, float)) and v > 0
    }


def describe(identity):
    return " ".join(f"{k}={v}" for k, v in identity)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", help="bench output of the baseline build")
    parser.add_argument("head", help="bench output of the candidate build")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max allowed fractional throughput drop (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--spec",
        default=os.path.join(ROOT, "BENCHMARK.json"),
        help="benchmark declaration holding the end-to-end bounds",
    )
    args = parser.parse_args()

    base_perf = load_perf_records(args.base)
    head_perf = load_perf_records(args.head)
    if base_perf or head_perf:
        return compare_perf(base_perf, head_perf, args.spec)

    base = load_records(args.base)
    head = load_records(args.head)
    if not base:
        print(f"error: no bench records in {args.base}", file=sys.stderr)
        return 2
    if not head:
        print(f"error: no bench records in {args.head}", file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    for identity in sorted(set(base) & set(head)):
        base_rates = rate_fields(base[identity])
        head_rates = rate_fields(head[identity])
        for field in sorted(set(base_rates) & set(head_rates)):
            old, new = base_rates[field], head_rates[field]
            delta = (new - old) / old
            compared += 1
            marker = ""
            if delta < -args.threshold:
                marker = "  << REGRESSION"
                regressions.append((identity, field, old, new, delta))
            print(
                f"{describe(identity)} {field}: "
                f"{old:,.0f} -> {new:,.0f} ({delta:+.1%}){marker}"
            )

    for identity in sorted(set(base) - set(head)):
        print(f"{describe(identity)}: missing from head (not compared)")
    for identity in sorted(set(head) - set(base)):
        print(f"{describe(identity)}: new in head (not compared)")

    if compared == 0:
        print("error: no comparable rate fields between the two files",
              file=sys.stderr)
        return 2
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} rate(s) regressed more than "
            f"{args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: {compared} rate(s) within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
