"""lpns benchmark: one workload, one seed, a timed or a traced run.

    python3 perfbench/run.py --workload sim-diag-n32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The seed generates the inputs (a
run config, or for analyze-n128 a snapshot); the program sees only those.
Each repetition is a fresh child process (``child.py``) with LPNS_THREADS=1
and BLAS/OpenMP pinned to one thread, started one after another until
``--seconds`` have passed.  Every child's outputs are checked (``checks.py``).

With ``--trace 0`` the end-to-end metrics are medians over the children.
With ``--trace 1`` one untraced child runs first, then traced children; the
per-layer metrics come from the traced spans (``tracing.py``) and the wall
time gap between the two kinds is the tracing overhead.

Prints the environment, every metric by name with its unit (names and units
as BENCHMARK.json lists them), and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  When no child passes there is
nothing to time: the end-to-end metrics are only ok_frac, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

#: Stop starting children once this many seconds have passed, whatever
#: --seconds says, so that one run ends well inside three minutes.
RUN_CAP_S = 120.0
CHILD_TIMEOUT_S = 170.0

#: Traced children per traced run, besides the untraced one: two give the
#: step-time tail of sim-step-n64 40 samples.
MIN_TRACED = 2

SIM_SPECTRUM = "0:0.3,1:0.2,2:0.1,3:0.05"

# Why each workload: see BENCHMARK.json.  sim-diag-n32 samples diagnostics on
# every step (the Riccati-monitoring traffic of the acceptance trajectories);
# sim-step-n64 is dominated by RK4 steps and ends with a snapshot write;
# analyze-n128 is one shell flux report on a seeded snapshot, no stepping.
# Child-to-child noise on a shared host is 10-15 %, so the step counts keep
# each child short enough for several children per run: 25 steps give
# sim-diag-n32 about ten.  With 50 (five children) the seed-to-seed spread
# of its 2 ms output_s went past the 0.25 bound.
WORKLOADS = {
    "sim-diag-n32": {"command": "simulate", "n": 32, "nu": 0.1, "dt": 1e-3, "steps": 25,
                     "diag_every": 1, "snapshot": False},
    "sim-step-n64": {"command": "simulate", "n": 64, "nu": 0.05, "dt": 1e-3, "steps": 20,
                     "diag_every": 10, "snapshot": True},
    "analyze-n128": {"command": "analyze", "n": 128, "nu": 0.05},
}

#: Shells 0 .. ANALYZE_SHELLS - 1 get a reference energy; phi_q vanishes on the
#: n = 128 dealiased lattice (|k| <= 42 sqrt 3 < 2^7) for every q above 7.
ANALYZE_SHELLS = 10

#: Wrappers (and transform contexts) that must fire in every traced child.
EXPECTED_WRAPPERS = {
    "sim-diag-n32": ("solver.simulate", "solver.step", "lp.build_filter_bank",
                     "fft in solver.step", "fft in solver.simulate"),
    "sim-step-n64": ("solver.simulate", "solver.step", "lp.build_filter_bank",
                     "snapshots.write_snapshot", "fft in solver.step",
                     "fft in solver.simulate"),
    "analyze-n128": ("flux.shell_flux_report", "flux.remainder", "lp.build_filter_bank",
                     "snapshots.read_snapshot", "fft in flux.shell_flux_report",
                     "fft in flux.remainder"),
}

CHILD_ENV = {"LPNS_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def environment(caller_threads) -> dict:
    """Versions, hardware, the caller's LPNS_THREADS and the children's pinned
    thread settings.  CPU model and cache sizes come from the Linux /proc and
    /sys descriptions when they exist."""
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "l2": caches.get("l2"), "l3": caches.get("l3"),
        "LPNS_THREADS": caller_threads, "child_env": CHILD_ENV,
    }


def prepare(spec, seed, work):
    """Write the workload's inputs; returns (lpns arguments per child, facts the checks need)."""
    if spec["command"] == "simulate":
        config = work / "run.cfg"
        config.write_text(
            f"n = {spec['n']}\nnu = {spec['nu']}\ndt = {spec['dt']}\n"
            f"t_end = {spec['steps'] * spec['dt']!r}\nic = random\nseed = {seed}\n"
            f"spectrum = {SIM_SPECTRUM}\ndiag_every = {spec['diag_every']}\n"
            f"snapshot_every = {spec['steps'] if spec['snapshot'] else 0}\n")
        return (lambda out: ["simulate", "--config", str(config), "--out", str(out)]), {}

    from lpns.snapshots import write_snapshot
    from lpns.spectral import GridSpec, inverse_transform
    from lpns.verify import random_solenoidal_field

    from checks import reference_shell_energies

    # A white-noise field fills every dealiased mode, so every shell carries
    # transfer and the flux residual is a ratio of nonzero sums.  The
    # lattice-sphere fields of make_random_field hold only axis-aligned
    # modes, whose triads are all collinear: every transfer vanishes and the
    # residual becomes round-off over round-off.
    phys = inverse_transform(random_solenoidal_field(GridSpec(spec["n"]), seed))
    snapshot = work / "field.lpns"
    write_snapshot(snapshot, phys, {"nu": spec["nu"], "seed": seed, "generator": "white_noise"})
    reference = reference_shell_energies(phys.values, spec["n"], range(ANALYZE_SHELLS))
    return (lambda out: ["analyze", str(snapshot)]), {"reference": reference}


def check_child(spec, out, facts):
    import checks

    if spec["command"] == "analyze":
        return checks.check_report(out / "stdout.json", facts["reference"])
    cols = checks.read_csv(out / "diagnostics.csv")
    failures = checks.check_trajectory(cols, spec["steps"] // spec["diag_every"] + 1)
    if failures:
        return failures
    if spec["diag_every"] == 1:
        failures += checks.check_riccati_fd(cols)
        failures += checks.check_energy_balance(cols, spec["nu"])
    if spec["snapshot"]:
        final = out / f"snapshot_{spec['steps']:08d}.lpns"
        failures += checks.check_snapshot_energy(final, float(cols["E"][-1]))
    return failures


def run_child(spec, argv_for, facts, work, index, traced):
    """One fresh process; returns its timings with 'failures' and 'wall_s'."""
    out = work / f"child{index}"
    out.mkdir()
    result_path = out / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), **CHILD_ENV)
    start = time.perf_counter()
    with open(out / "stdout.json", "w") as stdout:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result_path), "1" if traced else "0",
             "--", *argv_for(out)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, cwd=out,
            timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        result = {"failures": [f"child exited with code {proc.returncode}"]}
    else:
        result = json.loads(result_path.read_text())
        try:
            result["failures"] = check_child(spec, out, facts)
        except (OSError, ValueError, KeyError) as exc:
            result["failures"] = [f"output check could not run: {exc!r}"]
    result["wall_s"] = wall
    result["traced"] = traced
    shutil.rmtree(out)
    return result


def end_to_end(spec, children):
    """Medians over the children that passed; ok_frac over all of them.

    With no child passing there is nothing to time: only ok_frac is given."""
    ok = [c for c in children if not c["failures"]]
    if not ok:
        return {"ok_frac": 0.0}
    work_units = spec["steps"] if spec["command"] == "simulate" else 1

    def median(key):
        return statistics.median(c[key] for c in ok)

    return {
        "setup_s": median("setup_s"), "run_s": median("run_s"), "output_s": median("output_s"),
        "wall_s": median("wall_s"),
        "steps_per_s": statistics.median(work_units / c["run_s"] for c in ok),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok),
        "ok_frac": 1.0 - (len(children) - len(ok)) / len(children),
    }


def per_layer(workload, children):
    from tracing import layer_metrics, missing_wrappers

    traced = [c for c in children if c["traced"] and "spans" in c]
    plain = [c for c in children if not c["traced"] and not c["failures"]]
    for c in traced:
        missing = missing_wrappers(c, EXPECTED_WRAPPERS[workload])
        if missing:
            c["failures"].append("wrappers did not fire: " + ", ".join(missing))
        c["failures"] += [f"transform bypasses the counter: {b}" for b in c["bypasses"]]
    metrics, note = layer_metrics(traced)
    traced_wall = statistics.median(c["wall_s"] for c in traced) if traced else 0.0
    plain_wall = statistics.median(c["wall_s"] for c in plain) if plain else 0.0
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpns" / "__init__.py").is_file():
        print(f"error: no lpns sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    caller_threads = os.environ.get("LPNS_THREADS")
    os.environ.update(CHILD_ENV)
    print("environment: " + json.dumps(environment(caller_threads), sort_keys=True))
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = WORKLOADS[args.workload]
    traced = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        argv_for, facts = prepare(spec, args.seed, work)
        children = []
        start = time.perf_counter()
        while True:
            trace_this = traced and len(children) > 0
            children.append(run_child(spec, argv_for, facts, work, len(children), trace_this))
            elapsed = time.perf_counter() - start
            enough = elapsed >= args.seconds and (not traced or len(children) > MIN_TRACED)
            if enough or elapsed + children[-1]["wall_s"] > RUN_CAP_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        metrics, note = per_layer(args.workload, children)
        units = layer_units
        print(f"solver.step_ms_tail: {note}")
    else:
        metrics, units = end_to_end(spec, children), e2e_units
    failed = sum(1 for c in children if c["failures"])
    passed = len(children) - failed
    if passed and set(metrics) != set(units):
        print(f"error: computed metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    for i, c in enumerate(children):
        for failure in c["failures"]:
            print(f"child {i} failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(children)} children, {failed} failed"
          + (" (child 0 untraced)" if traced else ""))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
