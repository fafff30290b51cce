"""Integrating-factor RK4 time stepping for the unforced viscous dynamics.

The viscous term is integrated exactly through the factor exp(-nu |k|^2 dt);
the quadratic term is evaluated pseudo-spectrally in divergence form
-P grad.(u o u) with 2/3-rule dealiasing and Leray projection, so the shell
tensors produced by the flux diagnostics are exactly the objects the solver
advances.
"""

from __future__ import annotations

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
from .flux import SYM_PAIRS, _physical, _shell_l4_norms, _transfer_density, abc_sums
from .lp import FilterBank, build_filter_bank
from .spectral import (
    BOX_VOLUME,
    SpectralVelocity,
    _lattice,
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
    snapshot_every: int = 0
    nonlinear_enabled: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ConfigurationError(f"viscosity must be finite and positive, got {self.nu}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"time step must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"end time must be finite and >= 0, got {self.t_end}")
        if self.diag_every < 1:
            raise ConfigurationError("diag_every must be a positive step count")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0")


def _nonlinear_hat(coeffs, grid, phys=None):
    """-P D grad.(u o u) evaluated spectrally; D is the dealias projection."""
    n = grid.n
    if phys is None:
        phys = _physical(coeffs, n)
    what = _fft.fftn(
        np.stack([phys[i] * phys[j] for i, j in SYM_PAIRS]), axes=(1, 2, 3)
    ) / n**3
    kx, ky, kz, _, _ = _lattice(n)
    out = np.empty_like(coeffs)
    out[0] = kx * what[0] + ky * what[1] + kz * what[2]
    out[1] = kx * what[1] + ky * what[3] + kz * what[4]
    out[2] = kx * what[2] + ky * what[4] + kz * what[5]
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


def step(u: SpectralVelocity, params: SolverParams) -> SpectralVelocity:
    """Advance one time step with the integrating-factor RK4 scheme."""
    grid = u.grid
    dt = params.dt
    phys = _physical(u.coeffs, grid.n)
    _cfl_check(phys, grid, dt)
    k2 = grid.k_squared()
    e_full = np.exp(-params.nu * k2 * dt)
    if not params.nonlinear_enabled:
        return SpectralVelocity(grid, u.coeffs * e_full, u.time + dt)
    e_half = np.exp(-params.nu * k2 * (0.5 * dt))
    c = u.coeffs
    k1 = _nonlinear_hat(c, grid, phys)
    k2_ = _nonlinear_hat(e_half * (c + 0.5 * dt * k1), grid)
    k3 = _nonlinear_hat(e_half * c + 0.5 * dt * k2_, grid)
    k4 = _nonlinear_hat(e_full * c + dt * (e_half * k3), grid)
    new = e_full * c + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2_ + k3) + k4)
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
    snapshots: list      # (step index, SpectralVelocity)
    final: SpectralVelocity


def _sample_row(u, bank, nu) -> TrajectoryRow:
    k2 = u.grid.k_squared()
    e_density = np.sum(np.abs(u.coeffs) ** 2, axis=0)
    d_density = k2 * e_density
    energies = bank.shell_sum(e_density)
    dissip = bank.shell_sum(d_density)
    t_density = _transfer_density(u)
    transfers = bank.shell_sum(t_density)
    singles = bank.shell_sum(t_density, squared=False)
    lams = bank.lambdas()
    weights = lams**3  # 2s at the diagnostics exponent s = 3/2
    y = float(np.sum(weights * energies))
    tri = abc_sums(u, bank, DIAG_EXPONENT, nu,
                   _table=(np.sqrt(energies), _shell_l4_norms(u, bank)))
    return TrajectoryRow(
        t=u.time,
        energy=BOX_VOLUME * float(np.sum(e_density)),
        enstrophy=BOX_VOLUME * float(np.sum(d_density)),
        h1=math.sqrt(float(np.sum(lams**2 * energies))),
        h32=math.sqrt(y),
        y=y,
        riccati_lhs=float(np.sum(weights * (-2.0 * nu * dissip + 2.0 * transfers))),
        riccati_rhs=float(np.sum((weights * energies) ** 2)),
        A=tri.A,
        B=tri.B,
        C=tri.C,
        flux_sum=float(np.sum(singles)),
        shell_energies=tuple(float(e) for e in energies),
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


def simulate(u0: SpectralVelocity, params: SolverParams, bank: FilterBank | None = None) -> SimulationResult:
    """March the field to t_end, sampling diagnostics every diag_every steps."""
    _validate_initial(u0)
    if bank is None:
        bank = build_filter_bank(u0.grid)
    n_steps = int(round(params.t_end / params.dt))
    if abs(n_steps * params.dt - params.t_end) > 1e-9 * max(params.dt, params.t_end):
        raise ConfigurationError("t_end must be an integer multiple of dt")
    u = u0.copy()
    rows = [_sample_row(u, bank, params.nu)]
    snapshots = []
    if params.snapshot_every:
        snapshots.append((0, u.copy()))
    for i in range(1, n_steps + 1):
        u = step(u, params)
        if not np.all(np.isfinite(u.coeffs.view(np.float64))):
            raise DivergenceError(
                f"solution diverged at t = {u.time:g}; last good time {(i - 1) * params.dt:g}",
                last_good_time=(i - 1) * params.dt,
            )
        if i % params.diag_every == 0:
            rows.append(_sample_row(u, bank, params.nu))
        if params.snapshot_every and i % params.snapshot_every == 0:
            snapshots.append((i, u.copy()))
    return SimulationResult(params=params, rows=rows, snapshots=snapshots, final=u)


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
