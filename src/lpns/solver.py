"""Integrating-factor RK4 time stepping for the unforced viscous dynamics.

The viscous term is integrated exactly through the factor exp(-nu |k|^2 dt);
the quadratic term is evaluated pseudo-spectrally in divergence form
-P grad.(u o u) with 2/3-rule dealiasing and Leray projection, so the shell
tensors produced by the flux diagnostics are exactly the objects the solver
advances.  Each trajectory row is ``flux._evaluate``, the one evaluation behind
flux reports too, at exponent DIAG_EXPONENT.

A step works in a fixed set of three velocity buffers, the workspace: one
accumulates the RK4 combination and two take turns as stage argument and
stage output.  Inside a stage the six product transforms stream through one
contraction, so a step that allocates its own workspace peaks below six
velocity arrays.  ``simulate`` allocates the workspace once per run and holds
one state and no snapshots: it hands each state, uncopied, to ``on_step``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import (
    ConfigurationError,
    DivergenceError,
    InvariantViolation,
    ShellRangeError,
    StepSizeError,
)
from .flux import _check_viscosity, _contract_k, _evaluate, _products
from .lp import FilterBank, build_filter_bank
from .spectral import (
    SpectralVelocity,
    _lattice,
    _physical,
    _project_coeffs,
    divergence_residual,
    is_dealiased,
)

CFL_CONSTANT = 0.5

#: Exponent used for the y / Riccati columns of trajectory rows.
DIAG_EXPONENT = 1.5


@dataclass(frozen=True)
class SolverParams:
    nu: float
    dt: float
    t_end: float
    diag_every: int = 1
    nonlinear_enabled: bool = True

    def __post_init__(self):
        _check_viscosity(self.nu)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"time step must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"end time must be finite and >= 0, got {self.t_end}")
        if self.diag_every < 1:
            raise ConfigurationError("diag_every must be a positive step count")


def _nonlinear_hat(phys, grid, out):
    """-P D grad.(u o u) of physical velocity values, written into out; D is the
    dealias projection.  The six products are transformed and contracted one at
    a time, so only one full-lattice transform is held."""
    half, scale = grid.n // 2 + 1, grid.n**3

    def half_hat(product):
        w = _fft.fftn(product)[..., :half]
        w /= scale
        return w

    _contract_k(map(half_hat, _products(phys)), out)
    out *= -1j
    out *= grid.dealias_mask()
    _project_coeffs(out, grid)
    return out


def admissible_dt(phys, grid) -> float:
    """Largest CFL-admissible step for physical velocity values; inf at rest."""
    vmax = math.sqrt(float(np.max(np.sum(phys**2, axis=0))))
    return CFL_CONSTANT * grid.dx / vmax if vmax > 0.0 else math.inf


def _cfl_check(phys, grid, dt):
    admissible = admissible_dt(phys, grid)
    if dt > admissible:
        raise StepSizeError(
            f"dt = {dt:g} violates the CFL bound; admissible dt <= {admissible:.9g}",
            admissible_dt=admissible,
        )


@functools.lru_cache(maxsize=4)
def _integrating_factors(n, nu, dt):
    """Read-only exp(-nu |k|^2 dt) and exp(-nu |k|^2 dt / 2) on the half spectrum."""
    k2 = _lattice(n)[3]
    e_full = np.exp(-nu * k2 * dt)
    e_half = np.exp(-nu * k2 * (0.5 * dt))
    e_full.flags.writeable = e_half.flags.writeable = False
    return e_full, e_half


def step(u: SpectralVelocity, params: SolverParams, *, _work=None) -> SpectralVelocity:
    """Advance one time step with the integrating-factor RK4 scheme,
    new = e_full c + (dt/6) (e_full k1 + 2 e_half (k2 + k3) + k4).

    ``_work`` holds the three velocity buffers acc, a and b, (3, 3, n, n,
    n/2 + 1) complex: acc gathers the bracket, and a and b take turns as stage
    argument and stage output.  ``simulate`` passes one per run and a direct
    call allocates its own.  Each operation is the formula's ufunc on the same
    operands, done in place; only real-by-complex products and complex sums
    swap operands, which is exact.  e_full c is formed once for stage 4 and
    once for the result, so the result is not held through stage 4."""
    grid = u.grid
    dt = params.dt
    phys = _physical(u.coeffs)
    _cfl_check(phys, grid, dt)
    e_full, e_half = _integrating_factors(grid.n, params.nu, dt)
    if not params.nonlinear_enabled:
        return SpectralVelocity(grid, u.coeffs * e_full, u.time + dt)
    c = u.coeffs
    acc, a, b = np.empty((3, *c.shape), dtype=c.dtype) if _work is None else _work
    _nonlinear_hat(phys, grid, a)  # a = k1
    del phys
    np.multiply(e_full, a, out=acc)
    np.multiply(a, 0.5 * dt, out=b)  # b = e_half (c + dt/2 k1)
    b += c
    b *= e_half
    _nonlinear_hat(_physical(b), grid, a)  # a = k2
    np.multiply(e_half, c, out=b)  # b = e_half c + dt/2 k2
    b += (0.5 * dt) * a
    _nonlinear_hat(_physical(b), grid, b)  # b = k3
    a += b
    b *= e_half  # b = e_full c + dt e_half k3
    b *= dt
    b += e_full * c
    a *= 2.0 * e_half
    acc += a  # acc = e_full k1 + 2 e_half (k2 + k3)
    _nonlinear_hat(_physical(b), grid, a)  # a = k4
    acc += a
    acc *= dt / 6.0
    new = e_full * c
    new += acc
    return SpectralVelocity(grid, new, u.time + dt)


@dataclass(frozen=True)
class TrajectoryRow:
    """One diagnostics sample along a trajectory."""

    t: float
    energy: float
    enstrophy: float
    h1: float
    h32: float
    y: float
    riccati_lhs: float
    riccati_rhs: float
    A: float
    B: float
    C: float
    flux_sum: float
    shell_energies: tuple


@dataclass
class SimulationResult:
    params: SolverParams
    rows: list
    final: SpectralVelocity


def _sample_row(u, bank, nu) -> TrajectoryRow:
    ev = _evaluate(u, bank, DIAG_EXPONENT, nu)
    return TrajectoryRow(
        t=u.time,
        energy=ev.energy,
        enstrophy=ev.enstrophy,
        h1=math.sqrt(float(np.sum(bank.lambdas() ** 2 * np.array(ev.shell_energies)))),
        h32=math.sqrt(ev.riccati.y),
        y=ev.riccati.y,
        riccati_lhs=ev.riccati.lhs,
        riccati_rhs=ev.riccati.rhs,
        A=ev.trisums.A,
        B=ev.trisums.B,
        C=ev.trisums.C,
        flux_sum=ev.flux_sum,
        shell_energies=ev.shell_energies,
    )


def _validate_initial(u):
    if not np.all(np.isfinite(u.coeffs.view(np.float64))):
        raise InvariantViolation("initial data contains non-finite coefficients")
    if not is_dealiased(u):
        raise ConfigurationError("initial data must be dealiased before time stepping")
    if np.any(u.coeffs[:, 0, 0, 0] != 0):
        raise InvariantViolation("initial data must have zero mean")
    if divergence_residual(u) > 1e-10:
        raise InvariantViolation("initial data is not divergence-free")


def simulate(u0: SpectralVelocity, params: SolverParams, bank: FilterBank | None = None,
             on_step=None) -> SimulationResult:
    """March the field to t_end, sampling diagnostics every diag_every steps and
    passing the initial state (i = 0) and each accepted step i, after its row,
    to ``on_step(i, u)``.  ``u`` is not a copy, so the hook must not write to
    it; neither ``step`` nor a row does.  ``final`` is ``u0`` when t_end = 0.

    A StepSizeError or DivergenceError raised during the march carries the
    partial result as its ``result`` attribute: the rows taken before it, with
    ``final`` the last finite state."""
    _validate_initial(u0)
    if bank is None:
        bank = build_filter_bank(u0.grid)
    n_steps = int(round(params.t_end / params.dt))
    if abs(n_steps * params.dt - params.t_end) > 1e-9 * max(params.dt, params.t_end):
        raise ConfigurationError("t_end must be an integer multiple of dt")
    u = u0
    work = np.empty((3, 3, *u.grid.spectral_shape), dtype=np.complex128)
    rows = [_sample_row(u, bank, params.nu)]
    if on_step is not None:
        on_step(0, u)
    try:
        for i in range(1, n_steps + 1):
            new = step(u, params, _work=work)
            if not np.all(np.isfinite(new.coeffs.view(np.float64))):
                raise DivergenceError(
                    f"solution diverged at t = {new.time:g}; last good time {(i - 1) * params.dt:g}",
                    last_good_time=(i - 1) * params.dt,
                )
            u = new
            if i % params.diag_every == 0:
                rows.append(_sample_row(u, bank, params.nu))
            if on_step is not None:
                on_step(i, u)
    except (StepSizeError, DivergenceError) as exc:
        exc.result = SimulationResult(params=params, rows=rows, final=u)
        raise
    return SimulationResult(params=params, rows=rows, final=u)


def energy_balance_residual(result: SimulationResult) -> float:
    """Max over interior samples of |dE/dt + 2 nu ||grad u||_2^2| / max(E(0), eps)
    with dE/dt from centered differences of the sampled energies."""
    rows = result.rows
    if len(rows) < 3:
        raise ShellRangeError("need at least 3 diagnostic rows for a centered difference")
    nu = result.params.nu
    scale = max(rows[0].energy, 1e-14)
    worst = 0.0
    for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
        dedt = (nxt.energy - prev.energy) / (nxt.t - prev.t)
        worst = max(worst, abs(dedt + 2.0 * nu * mid.enstrophy))
    return worst / scale
