"""Named property suites driven by the command line's verify mode.

Each suite returns a list of CheckResult rows; a suite passes when every row
does.  ``nlt_suite`` also accepts an injected field, so callers can exercise
negative cases (e.g. a non-solenoidal field breaking the flux identities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .flux import (
    _relative_residual,
    lemma1_sides,
    nlt_split,
    product_tensor_hat,
    remainder,
    remainder_direct,
    shell_transfers,
    tensor_l2_norm,
    total_flux,
)
from .lp import bernstein_ratio, build_filter_bank, partition_residual, shell_project
from .solver import SolverParams, simulate
from .spectral import (
    GridSpec,
    SpectralVelocity,
    energy,
    enstrophy,
    make_taylor_green,
    random_solenoidal_field,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


def _finite_check(name, value):
    return CheckResult(name, value, math.inf, math.isfinite(value))


def partition_suite(n: int) -> list:
    bank = build_filter_bank(GridSpec(n))
    res = partition_residual(bank)
    return [CheckResult(f"partition_residual_n{n}", res, 1e-12, res < 1e-12)]


def tensor_suite(seed: int, n: int, n_fields: int = 2) -> list:
    """Rearranged remainder against the O(n^6) translation-kernel oracle."""
    if n > 16:
        raise ConfigurationError("tensor suite runs the O(n^6) oracle; use n <= 16")
    grid = GridSpec(n)
    bank = build_filter_bank(grid)
    fields = [("taylor_green", make_taylor_green(grid, 1.0))]
    fields += [
        (f"seed{seed + i}", random_solenoidal_field(grid, seed + i))
        for i in range(n_fields)
    ]
    results = []
    for label, u in fields:
        # Empty shells compare round-off against round-off; floor the scale
        # at a fraction of the full product norm so those stay meaningful.
        floor = 1e-6 * tensor_l2_norm(product_tensor_hat(u))
        for q in bank.shells:
            fast = remainder(u, bank, q)
            slow = remainder_direct(u, bank, q)
            scale = max(tensor_l2_norm(slow), floor, 1e-14)
            rel = tensor_l2_norm(fast - slow) / scale
            results.append(CheckResult(f"remainder_{label}_q{q}", rel, 1e-8, rel < 1e-8))
    return results


def nlt_suite(seed: int, n: int, n_fields: int = 5, field: SpectralVelocity | None = None) -> list:
    """Split identity per shell plus the telescoped zero-total-flux residual."""
    grid = GridSpec(n)
    bank = build_filter_bank(grid)
    if field is not None:
        fields = [("injected", field)]
    else:
        fields = [
            (f"seed{seed + i}", random_solenoidal_field(grid, seed + i))
            for i in range(n_fields)
        ]
    results = []
    for label, u in fields:
        e, z = energy(u), enstrophy(u)
        transfers = shell_transfers(u, bank)
        for q in bank.shells:
            part_r, part_low = nlt_split(u, bank, q)
            t = transfers[q - bank.q_min]
            scale = max(abs(t), abs(part_r), abs(part_low))
            rel = _relative_residual(part_r + part_low - t, scale, e, z)
            results.append(CheckResult(f"nlt_identity_{label}_q{q}", rel, 1e-9, rel < 1e-9))
        flux_sum, scale = total_flux(u, bank)
        rel = _relative_residual(flux_sum, scale, e, z)
        results.append(CheckResult(f"flux_sum_{label}", rel, 1e-9, rel < 1e-9))
    return results


def lemma1_suite(seed: int, n: int, n_fields: int = 20) -> list:
    """Empirical trace-bound constant over a seeded ensemble; must be finite."""
    grid = GridSpec(n)
    bank = build_filter_bank(grid)
    worst = -math.inf
    for i in range(n_fields):
        lhs, r1, r2, r3 = lemma1_sides(random_solenoidal_field(grid, seed + i), bank)
        denom = r1 + r2 + r3
        worst = max(worst, float(np.max(lhs[denom > 0] / denom[denom > 0], initial=-math.inf)))
    return [_finite_check(f"lemma1_constant_n{n}", worst)]


def bernstein_suite(seed: int, n: int, n_fields: int = 20) -> list:
    """Largest Bernstein ratios for (p, r) in {(4, 2), (inf, 2)} over shell pieces."""
    grid = GridSpec(n)
    bank = build_filter_bank(grid)
    shells = [q for q in bank.shells if 2 ** (q + 1) <= grid.k_max]
    worst = {4: -math.inf, math.inf: -math.inf}
    for i in range(n_fields):
        base = random_solenoidal_field(grid, seed + i)
        q = shells[i % len(shells)]
        piece = shell_project(base, bank, q)
        if not np.any(piece.coeffs):
            continue
        for p in (4, math.inf):
            worst[p] = max(worst[p], bernstein_ratio(piece, bank, q, p, 2))
    return [
        _finite_check(f"bernstein_ratio_p4_r2_n{n}", worst[4]),
        _finite_check(f"bernstein_ratio_pinf_r2_n{n}", worst[math.inf]),
    ]


def riccati_suite(seed: int, n: int) -> list:
    """Short trajectory: instantaneous slope against finite differences of y,
    and the trajectory-wide inequality constant."""
    grid = GridSpec(n)
    bank = build_filter_bank(grid)
    nu = 0.1
    params = SolverParams(nu=nu, dt=1e-3, t_end=0.05, diag_every=1)
    result = simulate(make_taylor_green(grid, 1.0), params, bank)
    rows = result.rows
    fd_err = 0.0
    k_r = -math.inf
    for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
        fd = (nxt.y - prev.y) / (nxt.t - prev.t)
        fd_err = max(fd_err, abs(fd - mid.riccati_lhs) / max(abs(fd), abs(mid.riccati_lhs), 1e-14))
    for row in rows:
        if row.riccati_rhs > 0:
            k_r = max(k_r, row.riccati_lhs * nu**2 / row.riccati_rhs)
    return [
        CheckResult(f"riccati_fd_match_n{n}", fd_err, 1e-4, fd_err < 1e-4),
        _finite_check(f"riccati_constant_n{n}", k_r),
    ]


#: Suite name -> (suite called with (seed, n), default n).
_SUITES = {
    "partition": (lambda seed, n: partition_suite(n), 32),
    "tensor": (tensor_suite, 16),
    "nlt": (nlt_suite, 32),
    "lemma1": (lemma1_suite, 32),
    "bernstein": (bernstein_suite, 32),
    "riccati": (riccati_suite, 32),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, n: int | None = None) -> list:
    if name not in _SUITES:
        raise ConfigurationError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    suite, default_n = _SUITES[name]
    return suite(seed, default_n if n is None else n)
