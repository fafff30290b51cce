"""Command-line front end: simulate, analyze, verify, bounds.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime numerical failure.  All emitted numbers round-trip doubles
(17 significant digits) and runs are byte-reproducible for a fixed config.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _fft
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
    dealiased_spectrum,
    divergence_residual,
    inverse_transform,
    make_random_field,
    make_taylor_green,
)
from .verify import SUITE_NAMES, run_suite

#: (CSV column, TrajectoryRow attribute) of each fixed diagnostics column, in
#: file order; one Eq<q> column per shell follows, from ``shell_energies``.
CSV_COLUMNS = (
    ("t", "t"), ("E", "energy"), ("enstrophy", "enstrophy"), ("H1", "h1"), ("H32", "h32"),
    ("y", "y"), ("riccati_lhs", "riccati_lhs"), ("riccati_rhs", "riccati_rhs"),
    ("A", "A"), ("B", "B"), ("C", "C"), ("flux_sum", "flux_sum"),
)

CONFIG_KEYS = frozenset((
    "n", "nu", "dt", "t_end", "ic", "amplitude", "seed", "spectrum", "snapshot", "out",
    "diag_every", "snapshot_every", "dealias", "nonlinear",
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
        if float(den) == 0.0:
            raise ConfigurationError(f"dealias = {text} divides by zero")
        return float(num) / float(den)
    return float(text)


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parse_bool(key: str, text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ConfigurationError(f"{key} must be true or false, got {text!r}") from None


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
    out: str = "."
    diag_every: int = 1
    snapshot_every: int = 0
    dealias_fraction: float = 2.0 / 3.0
    nonlinear: bool = True


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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
            out=raw.get("out", "."),
            diag_every=int(raw.get("diag_every", "1")),
            snapshot_every=int(raw.get("snapshot_every", "0")),
            dealias_fraction=_parse_fraction(raw.get("dealias", "2/3")),
            nonlinear=_parse_bool("nonlinear", raw.get("nonlinear", "true")),
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc
    for key in ("nu", "dt", "t_end", "amplitude"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigurationError(f"{key} must be finite, got {raw[key]}")
    if cfg.snapshot_every < 0:
        raise ConfigurationError(f"snapshot_every must be >= 0, got {cfg.snapshot_every}")
    if cfg.ic not in ("taylor_green", "random", "snapshot"):
        raise ConfigurationError(f"unknown initial condition {cfg.ic!r}")
    if cfg.ic == "random" and cfg.spectrum is None:
        raise ConfigurationError("ic = random requires a spectrum key")
    if cfg.ic == "snapshot" and not cfg.snapshot:
        raise ConfigurationError("ic = snapshot requires a snapshot path")
    return cfg


def _initial_field(cfg: RunConfig, grid: GridSpec):
    if cfg.ic == "taylor_green":
        return make_taylor_green(grid, cfg.amplitude)
    if cfg.ic == "random":
        return make_random_field(grid, cfg.seed, cfg.spectrum)
    phys, _ = read_snapshot(cfg.snapshot)
    if phys.grid.n != grid.n:
        raise ConfigurationError(
            f"snapshot grid n={phys.grid.n} does not match configured n={grid.n}"
        )
    return dealiased_spectrum(type(phys)(grid, phys.values, phys.time), project=True)


def _checked_initial_field(cfg: RunConfig, grid: GridSpec):
    """The initial field, rejected with a configuration error when cfg.dt breaks
    its CFL bound.  Its result goes straight into ``simulate``, so that only the
    march holds it."""
    u = _initial_field(cfg, grid)
    admissible = admissible_dt(inverse_transform(u).values, grid)
    if cfg.dt > admissible:
        raise ConfigurationError(
            f"dt = {cfg.dt:g} violates the CFL bound for this initial condition; "
            f"admissible dt <= {admissible:.9g}"
        )
    return u


def _write_text(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for r in rows:
        vals = (*(getattr(r, attr) for _, attr in CSV_COLUMNS), *r.shell_energies)
        lines.append(",".join(_fmt(v) for v in vals))
    _write_text(path, "\n".join(lines) + "\n")


def _dump_json(obj, path=None):
    """Write obj as JSON to path or stdout; refuses a non-finite number before writing."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigurationError(
            "output holds a non-finite number, which JSON cannot represent; an input is out of range"
        ) from exc
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    threads = str(_fft.workers())  # before any work: a bad LPNS_THREADS is a configuration error
    if args.out:
        cfg.out = args.out
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {out_dir}: {exc}") from exc
    grid = GridSpec(cfg.n, cfg.dealias_fraction)
    params = SolverParams(
        nu=cfg.nu,
        dt=cfg.dt,
        t_end=cfg.t_end,
        diag_every=cfg.diag_every,
        nonlinear_enabled=cfg.nonlinear,
    )
    bank = build_filter_bank(grid)
    meta = {"nu": cfg.nu, "seed": cfg.seed, "generator": cfg.ic}

    def save_snapshot(i, u):
        if cfg.snapshot_every and i % cfg.snapshot_every == 0:
            write_snapshot(out_dir / f"snapshot_{i:08d}.lpns", inverse_transform(u), meta)

    failure = None
    try:
        result = simulate(_checked_initial_field(cfg, grid), params, bank, save_snapshot)
    except LpnsError as exc:  # one raised during the march keeps its rows: write them, then re-raise
        if not hasattr(exc, "result"):
            raise
        result, failure = exc.result, exc
    columns = [*(name for name, _ in CSV_COLUMNS), *(f"Eq{q}" for q in bank.shells)]
    # vars, not dataclasses.asdict: the fields are plain values, and asdict's deep
    # copy costs more than the rest of the manifest.
    config = {**vars(cfg), "spectrum": {str(k): v for k, v in (cfg.spectrum or {}).items()}}
    del config["out"]
    manifest = {
        "code_version": __version__,
        "psi_profile": PROFILE_ID,
        "generator": cfg.ic,
        "config": config,
        "columns": columns,
        "n_steps": int(round(cfg.t_end / cfg.dt)),
        "threads": threads,
        "status": "ok" if failure is None else "failed",
    }
    if failure is not None:
        manifest["error"] = {"kind": type(failure).__name__, "message": str(failure)}
        manifest["last_good_time"] = result.final.time
    for write, *write_args in ((_write_csv, out_dir / "diagnostics.csv", columns, result.rows),
                               (_dump_json, manifest, out_dir / "run_manifest.json")):
        try:
            write(*write_args)
        except ConfigurationError as exc:
            if failure is None:
                raise
            # After a failed march the run's own error decides the exit code.
            print(f"error: {exc}", file=sys.stderr)
    if failure is not None:
        raise failure
    return 0


def cmd_analyze(args) -> int:
    phys, meta = read_snapshot(args.snapshot)
    nu = args.nu if args.nu is not None else float(meta.get("nu", 1.0))
    u = dealiased_spectrum(phys)
    snapshot_time = phys.time
    del phys  # the report needs only the coefficients
    bank = build_filter_bank(u.grid)
    # An overflow leaves a non-finite number in the payload, which _dump_json refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        report = shell_flux_report(u, bank, args.s, nu)
    payload = {
        "n": u.grid.n,
        "time": snapshot_time,
        "nu": nu,
        "s": args.s,
        "divergence_residual": divergence_residual(u),
        "shell_energies": {f"Eq{q}": report.shell_energies[q - bank.q_min] for q in bank.shells},
        "rows": [dataclasses.asdict(row) for row in report.rows],
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
        t = np.array([float(r["t"]) for r in rows])
        y = np.array([float(r["y"]) for r in rows])
        energy0 = float(rows[0]["E"]) if rows and "E" in rows[0] else None
    except OSError as exc:
        raise ConfigurationError(f"cannot read CSV {path}: {exc}") from exc
    except (ValueError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{path}: malformed CSV: {exc}") from exc
    if energy0 is not None and not (math.isfinite(energy0) and energy0 >= 0.0):
        raise ConfigurationError(f"{path}: E must be finite and >= 0, got {energy0}")
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
