#!/usr/bin/env python3
"""Measure a trajectory point: every workload over several seeds.

    python3 perfbench/trajectory.py --label <name> [--seeds 10]
        [--traced-seeds 3] [--workloads fleet-zipf,edge-raw] [--first-seed 1]

Runs perfbench/run.py from the repository root, --seeds untraced runs and
--traced-seeds traced runs per workload, at BENCHMARK.json's run_seconds.
For each end-to-end metric it records the median, the quartiles
(statistics.quantiles(n=4)) and the spread (quartile distance over the
median); for each per-layer metric the median of the traced runs; the
untraced runs' attempted and failed operations, summed. The point
is appended to perfbench/trajectory.json with the commit, the source digest,
the kernel tier and the hardware thread count from the runs' records.
Exits non-zero if any run fails or reports incorrect answers.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "trajectory.json"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit "
                 f"{done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next((json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")), {})
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect answers")
    return result, record


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seeds", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    point = {"label": args.label,
             "date": datetime.date.today().isoformat(),
             "run_seconds": seconds,
             "seeds": [seeds.start, seeds.stop - 1],
             "workloads": {}}
    for workload in args.workloads.split(","):
        e2e, layers = {}, {}
        attempted = failed = 0
        for seed in seeds:
            result, record = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            for key in ("commit", "source_digest", "hardware_threads",
                        "build_type"):
                point.setdefault(key, record.get(key))
            point.setdefault("kernel", record.get("kernel"))
        for seed in list(seeds)[:args.traced_seeds]:
            result, _ = run_once(workload, seed, seconds, 1)
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        point["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: summary(v) for k, v in e2e.items()},
            "per_layer": {k: statistics.median(v) for k, v in layers.items()},
        }
        print(f"{workload}: {failed} of {attempted} failed; " + ", ".join(
            f"{k} {s['median']:.4g} ({s['spread']:.1%})"
            for k, s in point["workloads"][workload]["end_to_end"].items()),
            flush=True)

    doc = json.loads(OUT.read_text()) if OUT.is_file() else {"points": []}
    doc["points"].append(point)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended point '{args.label}' to {OUT}")


if __name__ == "__main__":
    main()
