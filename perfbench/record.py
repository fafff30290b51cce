"""Repeat the benchmark over several seeds and write one BENCH trajectory point.

    python3 perfbench/record.py --label seed

For every workload in BENCHMARK.json, runs ``run.py`` once per seed 1..10
with tracing off, then once with tracing on (seed 1).  Every point is taken
the same way, so any two can be compared.  Reports each end-to-end metric's
median and quartiles and its spread, the quartile distance as a share of the
median, next to the metric's bound.  Writes ``perfbench/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    environment = json.loads(lines[0].split(": ", 1)[1])
    return json.loads(lines[-1]), environment, elapsed


def spread_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, durations = [], []
        for seed in SEEDS:
            result, point["environment"], elapsed = run_once(bench, workload, seed, 0)
            runs.append(result)
            durations.append(elapsed)
        entry = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": spread_stats(durations),
            "end_to_end": {
                name: dict(spread_stats([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"], bound=bounds[name])
                for name in bounds
            },
        }
        print(f"{workload}: {entry['attempted']} children, {entry['failed']} failed, "
              f"run wall median {entry['run_wall_s']['median']:.1f} s")
        for name, stats in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or stats["spread"] < stats["bound"] / 3 else "  WIDE"
            print(f"  {name:14s} median {stats['median']:12.6g} {stats['unit']:4s} "
                  f"spread {stats['spread']:7.4f} bound {stats['bound']}{flag}")
        traced, _, _ = run_once(bench, workload, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_failed"] = traced["failed"]
        for name, value in entry["per_layer"].items():
            print(f"  {name:28s} {value:14.6g}")
        point["workloads"][workload] = entry
        out = HERE / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
