"""Command-line front end: simulate, analyze, verify, bounds.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime numerical failure.  All emitted numbers round-trip doubles
(17 significant digits) and runs are byte-reproducible for a fixed config.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundSpec, NormSeries, blowup_floor, eval_lower_bound, fit_rate
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    FitError,
    LpnsError,
    ShellRangeError,
    StepSizeError,
)
from .flux import shell_flux_report
from .lp import PROFILE_ID, build_filter_bank
from .snapshots import read_snapshot, write_snapshot
from .solver import SolverParams, admissible_dt, simulate
from .spectral import (
    GridSpec,
    dealias,
    divergence_residual,
    forward_transform,
    inverse_transform,
    leray_project,
    make_random_field,
    make_taylor_green,
    zero_mean,
)
from .verify import SUITE_NAMES, run_suite

CSV_FIXED_COLUMNS = "t,E,enstrophy,H1,H32,y,riccati_lhs,riccati_rhs,A,B,C,flux_sum"

CONFIG_KEYS = frozenset((
    "n", "nu", "dt", "t_end", "ic", "amplitude", "seed", "spectrum", "snapshot", "s",
    "out", "diag_every", "snapshot_every", "dealias", "nonlinear",
))


def _fmt(x) -> str:
    return format(float(x), ".17g")


def parse_config_text(text: str) -> dict:
    """key = value lines, # comments, later keys override earlier ones."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        data[key.strip().lower()] = value.strip()
    return data


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_spectrum(text: str) -> dict:
    spectrum = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigurationError(f"bad spectrum entry {part!r}; expected q:energy")
        q, energy = part.split(":", 1)
        spectrum[int(q)] = float(energy)
    return spectrum


@dataclass
class RunConfig:
    n: int
    nu: float
    dt: float
    t_end: float
    ic: str
    amplitude: float = 1.0
    seed: int = 0
    spectrum: dict | None = None
    snapshot: str | None = None
    s_values: tuple = (1.0, 1.5)
    out: str = "."
    diag_every: int = 1
    snapshot_every: int = 0
    dealias_fraction: float = 2.0 / 3.0
    nonlinear: bool = True


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    raw = parse_config_text(text)
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    required = ("n", "nu", "dt", "t_end", "ic")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigurationError(f"config is missing required keys: {', '.join(missing)}")
    try:
        cfg = RunConfig(
            n=int(raw["n"]),
            nu=float(raw["nu"]),
            dt=float(raw["dt"]),
            t_end=float(raw["t_end"]),
            ic=raw["ic"],
            amplitude=float(raw.get("amplitude", "1.0")),
            seed=int(raw.get("seed", "0")),
            spectrum=_parse_spectrum(raw["spectrum"]) if "spectrum" in raw else None,
            snapshot=raw.get("snapshot"),
            s_values=tuple(float(v) for v in raw.get("s", "1.0,1.5").split(",")),
            out=raw.get("out", "."),
            diag_every=int(raw.get("diag_every", "1")),
            snapshot_every=int(raw.get("snapshot_every", "0")),
            dealias_fraction=_parse_fraction(raw.get("dealias", "2/3")),
            nonlinear=raw.get("nonlinear", "true").lower() in ("true", "1", "yes", "on"),
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc
    for key in ("nu", "dt", "t_end"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigurationError(f"{key} must be finite, got {raw[key]}")
    if cfg.ic not in ("taylor_green", "random", "snapshot"):
        raise ConfigurationError(f"unknown initial condition {cfg.ic!r}")
    if cfg.ic == "random" and cfg.spectrum is None:
        raise ConfigurationError("ic = random requires a spectrum key")
    if cfg.ic == "snapshot" and not cfg.snapshot:
        raise ConfigurationError("ic = snapshot requires a snapshot path")
    return cfg


def _initial_field(cfg: RunConfig, grid: GridSpec):
    if cfg.ic == "taylor_green":
        return make_taylor_green(grid, cfg.amplitude), "taylor_green"
    if cfg.ic == "random":
        return make_random_field(grid, cfg.seed, cfg.spectrum), "random"
    phys, _ = read_snapshot(cfg.snapshot)
    if phys.grid.n != grid.n:
        raise ConfigurationError(
            f"snapshot grid n={phys.grid.n} does not match configured n={grid.n}"
        )
    u = zero_mean(dealias(leray_project(forward_transform(
        type(phys)(grid, phys.values, phys.time)
    ))))
    return u, "snapshot"


def _precheck_cfl(u, dt):
    admissible = admissible_dt(inverse_transform(u).values, u.grid)
    if dt > admissible:
        raise ConfigurationError(
            f"dt = {dt:g} violates the CFL bound for this initial condition; "
            f"admissible dt <= {admissible:.9g}"
        )


def _write_csv(path, rows):
    n_shells = len(rows[0].shell_energies) if rows else 0
    header = CSV_FIXED_COLUMNS + "," + ",".join(f"Eq{q}" for q in range(n_shells))
    lines = [header]
    for r in rows:
        vals = (r.t, r.energy, r.enstrophy, r.h1, r.h32, r.y, r.riccati_lhs,
                r.riccati_rhs, r.A, r.B, r.C, r.flux_sum, *r.shell_energies)
        lines.append(",".join(_fmt(v) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.out:
        cfg.out = args.out
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(cfg.n, cfg.dealias_fraction)
    u0, generator = _initial_field(cfg, grid)
    _precheck_cfl(u0, cfg.dt)
    params = SolverParams(
        nu=cfg.nu,
        dt=cfg.dt,
        t_end=cfg.t_end,
        diag_every=cfg.diag_every,
        snapshot_every=cfg.snapshot_every,
        nonlinear_enabled=cfg.nonlinear,
    )
    bank = build_filter_bank(grid)
    result = simulate(u0, params, bank)
    _write_csv(out_dir / "diagnostics.csv", result.rows)
    manifest = {
        "code_version": __version__,
        "psi_profile": PROFILE_ID,
        "generator": generator,
        "config": {
            "n": cfg.n, "nu": cfg.nu, "dt": cfg.dt, "t_end": cfg.t_end,
            "ic": cfg.ic, "amplitude": cfg.amplitude, "seed": cfg.seed,
            "spectrum": {str(k): v for k, v in (cfg.spectrum or {}).items()},
            "snapshot": cfg.snapshot, "s": list(cfg.s_values),
            "diag_every": cfg.diag_every, "snapshot_every": cfg.snapshot_every,
            "dealias_fraction": cfg.dealias_fraction, "nonlinear": cfg.nonlinear,
        },
        "columns": (CSV_FIXED_COLUMNS + ","
                    + ",".join(f"Eq{q}" for q in bank.shells)).split(","),
        "n_steps": int(round(cfg.t_end / cfg.dt)),
        "threads": os.environ.get("LPNS_THREADS", "1"),
    }
    _dump_json(manifest, out_dir / "run_manifest.json")
    meta = {"nu": cfg.nu, "seed": cfg.seed, "generator": generator}
    for step_index, field in result.snapshots:
        write_snapshot(
            out_dir / f"snapshot_{step_index:08d}.lpns", inverse_transform(field), meta
        )
    return 0


def cmd_analyze(args) -> int:
    phys, meta = read_snapshot(args.snapshot)
    nu = args.nu if args.nu is not None else float(meta.get("nu", 1.0))
    u = zero_mean(dealias(forward_transform(phys)))
    bank = build_filter_bank(u.grid)
    report = shell_flux_report(u, bank, args.s, nu)
    payload = {
        "n": u.grid.n,
        "time": phys.time,
        "nu": nu,
        "s": args.s,
        "divergence_residual": divergence_residual(u),
        "shell_energies": {f"Eq{q}": report.shell_energies[q - bank.q_min] for q in bank.shells},
        "rows": [
            {
                "q": row.q,
                "transfer": row.transfer,
                "dissipation_exact": row.dissipation_exact,
                "dissipation_surrogate": row.dissipation_surrogate,
                "remainder_l2": row.remainder_l2,
                "lemma1_lhs": row.lemma1_lhs,
                "lemma1_rhs_terms": list(row.lemma1_rhs_terms),
            }
            for row in report.rows
        ],
        "trisums": {"A": report.trisums.A, "B": report.trisums.B, "C": report.trisums.C},
        "riccati": {"lhs": report.riccati.lhs, "rhs": report.riccati.rhs, "y": report.riccati.y},
        "flux_sum": report.flux_sum,
        "flux_residual": report.flux_residual,
    }
    _dump_json(payload)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed, args.n)
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        threshold = "finite" if math.isinf(check.threshold) else _fmt(check.threshold)
        print(f"{check.name}: value={check.value:.6g} threshold={threshold} {status}")
        failed += 0 if check.passed else 1
    print(f"{args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _read_series(path):
    try:
        with open(path, newline="") as fh:
            reader = csv_module.DictReader(fh)
            fields = reader.fieldnames or []
            if "t" not in fields or "y" not in fields:
                raise ConfigurationError(f"{path}: CSV needs 't' and 'y' columns")
            rows = list(reader)
    except OSError as exc:
        raise ConfigurationError(f"cannot read CSV {path}: {exc}") from exc
    t = np.array([float(r["t"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    energy0 = float(rows[0]["E"]) if rows and "E" in (rows[0] or {}) else None
    return NormSeries(t, y), energy0


def cmd_bounds(args) -> int:
    series, energy0 = _read_series(args.csv)
    floor = blowup_floor(series, args.c_emp)
    last_t = float(series.t[-1]) if len(series) else 0.0
    no_signal = not math.isfinite(floor) or floor > last_t
    alpha = c_fit = None
    if math.isfinite(floor):
        try:
            alpha, c_fit = fit_rate(series, floor)
        except (ShellRangeError, DomainError, FitError):
            pass
    envelope = {}
    for kind in args.kinds:
        spec = BoundSpec(
            kind=kind,
            c=args.c,
            t_star=floor if math.isfinite(floor) else last_t + 1.0,
            s=args.s,
            p=args.p,
            u0_l2=math.sqrt(energy0) if energy0 else None,
        )
        samples = []
        for t in series.t:
            try:
                samples.append([float(t), eval_lower_bound(spec, float(t))])
            except DomainError:
                samples.append([float(t), None])
        envelope[kind] = samples
    payload = {
        "csv": str(args.csv),
        "c": args.c,
        "c_emp": args.c_emp,
        "s": args.s,
        "blowup_floor": floor if math.isfinite(floor) else None,
        "no_blowup_signal": bool(no_signal),
        "fit": {"alpha": alpha, "c_fit": c_fit},
        "envelope": envelope,
    }
    _dump_json(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpns",
        description="Pseudo-spectral periodic-box Navier-Stokes with dyadic-shell diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"lpns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("--config", required=True, help="key = value run configuration file")
    p_sim.add_argument("--out", default=None, help="output directory (overrides config)")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="one-shot shell flux report for a snapshot")
    p_an.add_argument("snapshot", help="LPNS snapshot path")
    p_an.add_argument("--s", type=float, default=1.5, help="Sobolev exponent for the report")
    p_an.add_argument("--nu", type=float, default=None, help="viscosity (default: sidecar value)")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a named property suite")
    p_ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--n", type=int, default=None, help="grid size (suite default if omitted)")
    p_ver.set_defaults(func=cmd_verify)

    p_bnd = sub.add_parser("bounds", help="blow-up floor, rate fit, and bound envelopes")
    p_bnd.add_argument("csv", help="diagnostics CSV with t and y columns")
    p_bnd.add_argument("--s", type=float, default=1.5)
    p_bnd.add_argument("--c", type=float, default=1.0, help="bound constant")
    p_bnd.add_argument("--c-emp", type=float, default=1.0, dest="c_emp",
                       help="empirical constant for the blow-up floor")
    p_bnd.add_argument("--p", type=float, default=None, help="exponent for the lp kind")
    p_bnd.add_argument("--kinds", type=lambda v: v.split(","), default=["main_h32"],
                       help="comma-separated bound kinds")
    p_bnd.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StepSizeError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except LpnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
