"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured value so the suite can
be read as a report (run with -s to see the lines as they happen).
"""

import json
import math
import time

import numpy as np
import pytest

from lpns.bounds import NormSeries, blowup_floor, BoundSpec, eval_lower_bound, fit_rate, riccati_solve
from lpns.cli import main
from lpns.flux import (
    lemma1_sides,
    nlt_split,
    product_tensor_hat,
    remainder,
    remainder_direct,
    riccati_sides,
    shell_transfers,
    tensor_l2_norm,
    total_flux,
)
from lpns.lp import (
    bernstein_ratio,
    build_filter_bank,
    decompose,
    partition_residual,
    reconstruct,
    shell_project,
)
from lpns.solver import SolverParams, energy_balance_residual, simulate, step
from lpns.spectral import (
    GridSpec,
    SpectralVelocity,
    l2_norm,
    make_random_field,
    make_taylor_green,
)
from lpns.verify import random_solenoidal_field

from conftest import mode_keyed_field, single_mode_field


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {detail} -> {status}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def grid32m():
    return GridSpec(32)


@pytest.fixture(scope="module")
def bank32m(grid32m):
    return build_filter_bank(grid32m)


@pytest.fixture(scope="module")
def nlt_ensemble(grid32m):
    """100 seeded dealiased solenoidal fields at n = 32."""
    return [random_solenoidal_field(grid32m, seed) for seed in range(100)]


@pytest.fixture(scope="module")
def trajectories(grid32m, bank32m):
    """Taylor-Green plus three seeded-random runs: n = 32, nu = 0.1, t in [0, 1],
    dt = 1e-3, diagnostics every step."""
    params = SolverParams(nu=0.1, dt=1e-3, t_end=1.0, diag_every=1)
    runs = {"taylor_green": simulate(make_taylor_green(grid32m, 1.0), params, bank32m)}
    spectra = [
        {0: 0.3, 1: 0.2, 2: 0.1},
        {0: 0.1, 1: 0.3, 3: 0.1},
        {1: 0.2, 2: 0.2, 3: 0.05},
    ]
    for i, spectrum in enumerate(spectra):
        u0 = make_random_field(grid32m, 100 + i, spectrum)
        runs[f"random{i}"] = simulate(u0, params, bank32m)
    return runs


def test_criterion_01_partition_of_unity():
    start = time.time()
    worst = max(partition_residual(build_filter_bank(GridSpec(n))) for n in (16, 32, 64))
    elapsed = time.time() - start
    _report(1, "partition-of-unity", worst < 1e-12 and elapsed < 1.0,
            f"max residual {worst:.3e} (tol 1e-12), {elapsed:.2f}s (cap 1s)")


def test_criterion_02_lp_reconstruction(grid32m, bank32m, nlt_ensemble):
    start = time.time()
    worst = 0.0
    for u in nlt_ensemble:
        rec = reconstruct(decompose(u, bank32m))
        err = l2_norm(SpectralVelocity(u.grid, rec.coeffs - u.coeffs)) / l2_norm(u)
        worst = max(worst, err)
    elapsed = time.time() - start
    _report(2, "lp-reconstruction", worst < 1e-12 and elapsed < 30.0,
            f"max rel L2 error {worst:.3e} over 100 fields (tol 1e-12), {elapsed:.1f}s (cap 30s)")


def test_criterion_03_tensor_identity():
    start = time.time()
    grid = GridSpec(16)
    bank = build_filter_bank(grid)
    fields = [make_taylor_green(grid, 1.0)]
    fields += [random_solenoidal_field(grid, 200 + s) for s in range(10)]
    worst = 0.0
    for u in fields:
        floor = 1e-6 * tensor_l2_norm(product_tensor_hat(u))
        for q in bank.shells:
            fast = remainder(u, bank, q)
            slow = remainder_direct(u, bank, q)
            scale = max(tensor_l2_norm(slow), floor, 1e-14)
            worst = max(worst, tensor_l2_norm(fast - slow) / scale)
    elapsed = time.time() - start
    _report(3, "tensor-remainder-vs-kernel-oracle", worst < 1e-8 and elapsed < 300.0,
            f"max rel error {worst:.3e} over 11 fields x 5 shells (tol 1e-8), {elapsed:.0f}s (cap 300s)")


def test_criterion_04_nlt_identity(bank32m, nlt_ensemble):
    start = time.time()
    worst = 0.0
    for u in nlt_ensemble:
        transfers = shell_transfers(u, bank32m)
        for q in bank32m.shells:
            part_r, part_low = nlt_split(u, bank32m, q)
            t = transfers[q - bank32m.q_min]
            resid = abs(part_r + part_low - t)
            resid /= max(abs(t), abs(part_r), abs(part_low), 1e-14)
            worst = max(worst, resid)
    elapsed = time.time() - start
    _report(4, "nonlinear-term-identity", worst < 1e-9 and elapsed < 120.0,
            f"max rel residual {worst:.3e} over 100 fields x 6 shells (tol 1e-9), {elapsed:.0f}s (cap 120s)")


def test_criterion_05_zero_total_flux(bank32m, nlt_ensemble):
    worst = 0.0
    for u in nlt_ensemble:
        flux_sum, scale = total_flux(u, bank32m)
        worst = max(worst, abs(flux_sum) / max(scale, 1e-14))
    _report(5, "zero-total-flux", worst < 1e-9,
            f"max |sum| / sum|terms| {worst:.3e} over 100 fields (tol 1e-9)")


def test_criterion_06_bernstein_grid_stability():
    maxima = {}
    for n in (32, 64):
        grid = GridSpec(n)
        bank = build_filter_bank(grid)
        worst = {(4, 2): 0.0, (math.inf, 2): 0.0}
        for i in range(100):
            q = i % 4
            piece = shell_project(mode_keyed_field(n, 300 + i), bank, q)
            if not np.any(piece.coeffs):
                continue
            for p, r in worst:
                worst[(p, r)] = max(worst[(p, r)], bernstein_ratio(piece, bank, q, p, r))
        maxima[n] = worst
    drifts = {}
    ok = True
    for pair in ((4, 2), (math.inf, 2)):
        hi, lo = maxima[64][pair], maxima[32][pair]
        ok &= math.isfinite(hi) and math.isfinite(lo) and lo > 0
        drifts[pair] = abs(hi - lo) / lo
        ok &= drifts[pair] < 0.2
    _report(6, "bernstein-ratio-grid-stability", ok,
            f"max ratios n=32 {maxima[32]}, drift 32->64 "
            f"{{(4,2): {drifts[(4, 2)]:.2%}, (inf,2): {drifts[(math.inf, 2)]:.2%}}} (cap 20%)")


def test_criterion_07_lemma1_constant_grid_stability():
    constants = {}
    for n in (32, 64):
        bank = build_filter_bank(GridSpec(n))
        worst = -math.inf
        for i in range(100):
            lhs, r1, r2, r3 = lemma1_sides(mode_keyed_field(n, 500 + i), bank)
            denom = r1 + r2 + r3
            worst = max(worst, float(np.max(lhs[denom > 0] / denom[denom > 0], initial=-math.inf)))
        constants[n] = worst
    drift = abs(constants[64] - constants[32]) / abs(constants[32])
    ok = all(math.isfinite(v) for v in constants.values()) and drift < 0.2
    _report(7, "trace-bound-constant-grid-stability", ok,
            f"K(32) = {constants[32]:.5g}, K(64) = {constants[64]:.5g}, drift {drift:.2%} (cap 20%)")


def test_criterion_08_riccati_inequality(trajectories):
    nu = 0.1
    worst_fd = 0.0
    k_r = -math.inf
    for rows in (run.rows for run in trajectories.values()):
        for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
            fd = (nxt.y - prev.y) / (nxt.t - prev.t)
            worst_fd = max(
                worst_fd, abs(fd - mid.riccati_lhs) / max(abs(fd), abs(mid.riccati_lhs), 1e-14)
            )
        for row in rows:
            if row.riccati_rhs > 0:
                k_r = max(k_r, row.riccati_lhs * nu**2 / row.riccati_rhs)
    ok = worst_fd < 1e-4 and math.isfinite(k_r)
    _report(8, "riccati-inequality", ok,
            f"trajectory-wide K_R = {k_r:.4g} (finite), FD-vs-instantaneous lhs "
            f"max rel err {worst_fd:.3e} (tol 1e-4) over 4 trajectories")


def test_criterion_09_solver_fidelity(trajectories):
    # Heat limit: with the nonlinearity off every mode decays by the exact factor.
    grid = GridSpec(16)
    u = single_mode_field(grid, (1, 0, 0), (0, -0.5j, 0), solenoidal=False)
    params = SolverParams(nu=0.7, dt=5e-2, t_end=1.0, nonlinear_enabled=False)
    factor = math.exp(-0.7 * 1.0 * 5e-2)
    cur, expected, heat_resid = u, u.coeffs.copy(), 0.0
    for m in range(1, 21):
        cur = step(cur, params)
        expected = expected * factor
        num = np.max(np.abs(cur.coeffs - expected))
        heat_resid = max(heat_resid, num / np.max(np.abs(expected)) / m)
    balance = energy_balance_residual(trajectories["taylor_green"])

    tg = make_taylor_green(grid, 1.0)
    bank = build_filter_bank(grid)

    def endpoint(dt):
        return simulate(tg, SolverParams(nu=0.05, dt=dt, t_end=0.4), bank).final

    ref = endpoint(0.02 / 8.0)
    ratio = np.linalg.norm(endpoint(0.02).coeffs - ref.coeffs) / np.linalg.norm(
        endpoint(0.01).coeffs - ref.coeffs
    )
    ok = heat_resid < 1e-12 and balance < 1e-5 and 12.0 < ratio < 20.0
    _report(9, "solver-fidelity", ok,
            f"heat-limit per-step residual {heat_resid:.2e} (tol 1e-12), "
            f"energy-balance residual {balance:.2e} (tol 1e-5), "
            f"dt-halving error ratio {ratio:.2f} (window [12, 20])")


def test_criterion_10_bounds_module():
    sol = riccati_solve(2.0, 0.8)
    t = np.linspace(0.0, 0.95 * sol.blowup_time, 200)
    floor = blowup_floor(NormSeries(t, sol(t)), 1.0 / 0.8)
    floor_err = abs(floor - sol.blowup_time)

    t_fit = np.linspace(0.0, 0.9, 60)
    alpha1, _ = fit_rate(NormSeries(t_fit, 1.0 / (1.0 - t_fit)), 1.0)
    alpha2, _ = fit_rate(NormSeries(t_fit, (1.0 - t_fit) ** -0.5), 1.0)
    rng = np.random.default_rng(77)
    noisy = (1.0 - t_fit) ** -1.0 * np.exp(rng.normal(0.0, 0.01, t_fit.size))
    alpha3, _ = fit_rate(NormSeries(t_fit, noisy), 1.0)

    spot1 = eval_lower_bound(BoundSpec("main_h32", 1.0, 1.0), 0.75)
    spec_log = BoundSpec("cmp_h32_log", 1.0, 2.0)
    spot2 = eval_lower_bound(spec_log, 2.0 - math.exp(-1.0))
    ok = (
        floor_err < 1e-9
        and abs(alpha1 - 1.0) < 1e-10
        and abs(alpha2 - 0.5) < 1e-10
        and abs(alpha3 - 1.0) < 0.05
        and abs(spot1 - 2.0) < 1e-12
        and abs(spot2 - math.sqrt(math.e)) < 1e-12
    )
    _report(10, "bounds-module", ok,
            f"floor err {floor_err:.2e} (tol 1e-9), exponents ({alpha1:.12f}, {alpha2:.12f}), "
            f"noisy exponent {alpha3:.3f} (tol 0.05), spot checks ({spot1}, {spot2:.6f})")


def test_criterion_11_general_exponent(grid32m, bank32m):
    checks = []
    for s, expected in ((1.0, 3.0), (2.0, 5.0 / 3.0)):
        u = make_random_field(grid32m, 900, {0: 0.6})
        rs = riccati_sides(u, bank32m, s, 1.0)
        closed = abs(rs.rhs - rs.y**expected) / rs.y**expected
        scale = 2.5
        rs2 = riccati_sides(
            SpectralVelocity(u.grid, u.coeffs * math.sqrt(scale)), bank32m, s, 1.0
        )
        measured = math.log(rs2.rhs / rs.rhs) / math.log(scale)
        checks.append((s, expected, closed, measured))
    ok = all(c < 1e-12 and abs(m - e) < 1e-12 for _, e, c, m in checks)
    detail = "; ".join(
        f"s={s}: exponent {m:.12f} (expected {e:.12f}), closed-form resid {c:.2e}"
        for s, e, c, m in checks
    )
    _report(11, "general-exponent-single-shell", ok, detail)


def test_criterion_12_determinism(tmp_path):
    cfg_text = (
        "n = 16\nnu = 0.3\ndt = 1e-3\nt_end = 0.02\nic = random\nseed = 5\n"
        "spectrum = 0:0.2,1:0.1\ndiag_every = 5\nsnapshot_every = 10\n"
    )
    outs = []
    for name in ("r1", "r2"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text + f"out = {tmp_path / name}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        outs.append(tmp_path / name)
    csv_same = (outs[0] / "diagnostics.csv").read_bytes() == (outs[1] / "diagnostics.csv").read_bytes()
    snap_same = (outs[0] / "snapshot_00000010.lpns").read_bytes() == (
        outs[1] / "snapshot_00000010.lpns"
    ).read_bytes()
    man0 = json.loads((outs[0] / "run_manifest.json").read_text())
    man1 = json.loads((outs[1] / "run_manifest.json").read_text())
    man0["config"].pop("out", None), man1["config"].pop("out", None)
    _report(12, "determinism", csv_same and snap_same and man0 == man1,
            f"CSV byte-identical: {csv_same}, snapshot byte-identical: {snap_same}")
