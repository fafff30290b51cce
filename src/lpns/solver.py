"""Integrating-factor RK4 time stepping for the unforced viscous dynamics.

The viscous term is integrated exactly through the factor exp(-nu |k|^2 dt);
the quadratic term is evaluated pseudo-spectrally in divergence form
-P grad.(u o u) with 2/3-rule dealiasing and Leray projection, so the shell
tensors produced by the flux diagnostics are exactly the objects the solver
advances.  Each trajectory row is ``flux._evaluate``, the one evaluation behind
flux reports too, at exponent DIAG_EXPONENT.

A dealiased state is zero outside the retained block |k_i| <= k_max (30 % of
the half spectrum at the 2/3 rule), so a step cuts each product transform to
that block and does the contraction, projection and RK4 combination there,
with integrating factors cached on the block alone; with the nonlinearity off
it scales the block by exp(-nu |k|^2 dt).  Either way it pastes the new block
into zeros.  Its workspace is one allocation: four block buffers, one holding
the state's block, cut once, and three that accumulate the combination and
take turns as stage argument and output, and a half-spectrum staging buffer,
zero outside the block, that carries each stage argument to its inverse
transform and then takes the new state; about 2.1 velocity arrays in all at
the 2/3 rule.  A step that allocates its own workspace peaks below 4.5
velocity arrays.

``simulate`` runs the whole march in that one workspace: each state lives in
the staging buffer, is sampled and handed to ``on_step`` from there, and is
overwritten by the next step, so no state is allocated per step.  Only the
last state is copied, into ``final``.
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
    LpnsError,
    ShellRangeError,
    StepSizeError,
)
from .flux import _check_viscosity, _contract_k, _evaluate, _products
from .lp import FilterBank, build_filter_bank
from .spectral import (
    SpectralVelocity,
    _cube_extent,
    _cut,
    _dealias_block,
    _lattice,
    _paste,
    _physical,
    _project_coeffs,
    _squared_magnitude,
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
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigurationError(f"t_end / dt = {self.t_end:g} / {self.dt:g} overflows")
        if self.diag_every < 1:
            raise ConfigurationError("diag_every must be a positive step count")

    @property
    def n_steps(self) -> int:
        """Steps from 0 to t_end: t_end / dt, rounded."""
        return int(round(self.t_end / self.dt))


def _nonlinear_hat(phys, grid, out):
    """-P D grad.(u o u) of physical velocity values on the retained block, which
    is the dealias projection D, written into out.  The six products are
    transformed, cut to the block and contracted one at a time, so only one
    full-lattice transform is held."""
    extent, k, inv_k2 = _dealias_block(grid.n, grid.k_max)
    scale = grid.n**3

    def block_hat(product):
        w = _cut(_fft.fftn(product), extent)
        w /= scale
        return w

    _contract_k(map(block_hat, _products(phys)), k, out)
    out *= complex(0.0, -1.0)  # exactly -i: -1j is complex(-0.0, -1.0), whose -0 flips zeros
    _project_coeffs(out, k, inv_k2)
    return out


def admissible_dt(phys, grid) -> float:
    """Largest CFL-admissible step for physical velocity values; inf at rest."""
    vmax = math.sqrt(float(np.max(_squared_magnitude(phys))))
    return CFL_CONSTANT * grid.dx / vmax if vmax > 0.0 else math.inf


def _cfl_check(phys, grid, dt):
    admissible = admissible_dt(phys, grid)
    if dt > admissible:
        raise StepSizeError(
            f"dt = {dt:g} violates the CFL bound; admissible dt <= {admissible:.9g}",
            admissible_dt=admissible,
        )


@functools.lru_cache(maxsize=4)
def _block_factors(n, k_max, nu, dt):
    """Read-only exp(-nu |k|^2 dt) and exp(-nu |k|^2 dt / 2) on the retained block."""
    k2 = _cut(_lattice(n)[3], _cube_extent(k_max + 1))
    e_full = np.exp(-nu * k2 * dt)
    e_half = np.exp(-nu * k2 * (0.5 * dt))
    e_full.flags.writeable = e_half.flags.writeable = False
    return e_full, e_half


def _workspace(grid):
    """The step's buffers acc, a, b and c, each (3, *block shape), c for the
    state's block, and the staging buffer, (3, n, n, n/2 + 1), carved from one
    allocation."""
    lo, hi, depth = _cube_extent(grid.k_max + 1)
    block = (3, lo + hi, lo + hi, depth)
    size = math.prod(block)
    flat = np.empty(4 * size + 3 * math.prod(grid.spectral_shape), dtype=np.complex128)
    acc, a, b, c = flat[: 4 * size].reshape(4, *block)
    return acc, a, b, c, flat[4 * size :].reshape(3, *grid.spectral_shape)


def step(u: SpectralVelocity, params: SolverParams, *, _work=None) -> SpectralVelocity:
    """Advance one time step with the integrating-factor RK4 scheme,
    new = e_full c + (dt/6) (e_full k1 + 2 e_half (k2 + k3) + k4).

    ``_work`` is ``_workspace(grid)``: c takes the block of u, cut once, acc
    gathers the bracket on the block, a and b take turns as stage argument
    and stage output, and the staging buffer, cleared once c is cut, carries
    each stage argument to its inverse transform.  With ``_work`` the new state
    is pasted into the staging buffer and returned there: it aliases the
    workspace, so the next call with it overwrites it, and u may be such a
    state.  ``simulate`` passes one workspace per run; a direct call allocates
    its own and returns an array of its own.  On the block each operation is
    the formula's ufunc on the same operands, done in place; only
    real-by-complex products and complex sums swap operands, which is exact.
    Besides its transform, the step reads only the block of u and writes +0
    outside it: the formula's bits when u's zeros there are +0, and its value
    when they are -0."""
    grid = u.grid
    dt = params.dt
    phys = _physical(u.coeffs)
    _cfl_check(phys, grid, dt)
    extent = _cube_extent(grid.k_max + 1)
    e_full, e_half = _block_factors(grid.n, grid.k_max, params.nu, dt)
    acc, a, b, c, stage = _workspace(grid) if _work is None else _work
    _cut(u.coeffs, extent, out=c)
    stage[...] = 0.0  # after the cut: u may live in the staging buffer
    if params.nonlinear_enabled:
        _nonlinear_hat(phys, grid, a)  # a = k1
        del phys
        np.multiply(e_full, a, out=acc)
        np.multiply(a, 0.5 * dt, out=b)  # b = e_half (c + dt/2 k1)
        b += c
        b *= e_half
        _nonlinear_hat(_physical(_paste(b, extent, stage)), grid, a)  # a = k2
        np.multiply(e_half, c, out=b)  # b = e_half c + dt/2 k2
        b += (0.5 * dt) * a
        _nonlinear_hat(_physical(_paste(b, extent, stage)), grid, b)  # b = k3
        a += b
        b *= e_half  # b = e_full c + dt e_half k3
        b *= dt
        b += e_full * c
        a *= 2.0 * e_half
        acc += a  # acc = e_full k1 + 2 e_half (k2 + k3)
        _nonlinear_hat(_physical(_paste(b, extent, stage)), grid, a)  # a = k4
        acc += a
        acc *= dt / 6.0
        acc += e_full * c  # acc = new on the block
    else:
        np.multiply(e_full, c, out=acc)
    out = stage if _work is not None else np.zeros_like(stage)
    return SpectralVelocity(grid, _paste(acc, extent, out), u.time + dt)


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
    to ``on_step(i, u)``.  ``u`` is valid only during the call, as the next step
    overwrites it: a hook that keeps a state keeps ``u.copy()``, and it must not
    write to ``u``.  The first hook gets ``u0`` and the last one ``final``.

    Each state lives in the one workspace of the march.  Only the last is
    copied, into ``final``, and the workspace is freed before the last hook.
    ``final`` is ``u0`` when t_end = 0.  Once a step is accepted, only the
    caller holds ``u0``.

    Any LpnsError raised during the march, by a step, a row or ``on_step``,
    carries the partial result as its ``result`` attribute: the rows taken
    before it, with ``final`` the last finite state, the one the last hook got,
    which may keep the workspace alive."""
    _validate_initial(u0)
    if bank is None:
        bank = build_filter_bank(u0.grid)
    n_steps = params.n_steps
    if abs(n_steps * params.dt - params.t_end) > 1e-9 * max(params.dt, params.t_end):
        raise ConfigurationError("t_end must be an integer multiple of dt")
    u = u0
    del u0  # u is the last good state: the caller's field until a step is accepted
    work = _workspace(u.grid)
    rows = []
    try:
        rows.append(_sample_row(u, bank, params.nu))
        if on_step is not None:
            on_step(0, u)
        for i in range(1, n_steps + 1):
            new = step(u, params, _work=work)
            if not np.all(np.isfinite(new.coeffs.view(np.float64))):
                if new.coeffs is u.coeffs:  # u was overwritten: rebuild it from the block the step cut
                    new.coeffs[...] = 0.0
                    _paste(work[3], _cube_extent(u.grid.k_max + 1), new.coeffs)
                raise DivergenceError(
                    f"solution diverged at t = {new.time:g}; last good time {u.time:g}",
                    last_good_time=u.time,
                )
            u = new
            if i % params.diag_every == 0:
                rows.append(_sample_row(u, bank, params.nu))
            if i == n_steps:
                u = u.copy()
                del new, work  # the workspace goes before the last hook
            if on_step is not None:
                on_step(i, u)
    except LpnsError as exc:
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
