"""Dyadic shell filter bank, shell projections, and shell-based norms.

The radial profile psi equals 1 on [0, 1/2], 0 on [1, inf) and ramps smoothly
and monotonically in between; the band multipliers are
phi_q(k) = psi(|k| / 2^(q+1)) - psi(|k| / 2^q) with lam_q = 2^q.  On the
integer lattice the q >= 0 shells telescope to a partition of unity on every
retained nonzero mode, and shells with q < 0 vanish identically.

Every multiplier depends on k only through the integer m = |k|^2, so the bank
stores radial tables indexed by m in [0, 3 (n/2)^2] plus the integer lattice
of m.  A shell sum sum_k phi_q(k)^p density(k) is one radial histogram of the
density (np.bincount over the lattice) followed by a table-vector product;
a full-lattice multiplier is gathered from its table only where a field is
actually filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShellRangeError, UndefinedRatioError
from .spectral import (
    BOX_VOLUME,
    GridSpec,
    SpectralVelocity,
    _k2_index,
    inverse_transform,
    lp_norm,
)

#: Identifier of the smooth-step profile, recorded in run manifests/sidecars.
PROFILE_ID = "exp-ratio-smoothstep-v1"


def _bump(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def psi_profile(r):
    """Radial low-pass profile: 1 for r <= 1/2, 0 for r >= 1, smooth in between."""
    arr = np.asarray(r, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    out[arr <= 0.5] = 1.0
    mid = (arr > 0.5) & (arr < 1.0)
    b_hi = _bump(2.0 - 2.0 * arr[mid])
    b_lo = _bump(2.0 * arr[mid] - 1.0)
    out[mid] = b_hi / (b_hi + b_lo)
    return float(out[0]) if scalar else out


def phi_profile(r, q=0):
    """Band multiplier phi_q(r) = psi(r / 2^(q+1)) - psi(r / 2^q)."""
    lam = 2.0**q
    return psi_profile(np.asarray(r) / (2.0 * lam)) - psi_profile(np.asarray(r) / lam)


def lam(q) -> float:
    """Dyadic wavenumber lam_q = 2^q."""
    return float(2.0**q)


@dataclass(frozen=True)
class FilterBank:
    """Shell multipliers of one grid as radial tables; immutable and shareable.

    Table column m holds the multiplier's value at |k| = sqrt(m), so the
    full-lattice multiplier of shell q is ``phi[q - q_min][k2]``.  The array
    fields are the whole bank.
    """

    grid: GridSpec
    q_min: int
    q_max: int
    phi: np.ndarray      # (n_shells, 3 (n/2)^2 + 1), phi[q - q_min, m] = phi_q(sqrt(m))
    phi_sq: np.ndarray   # phi**2
    psi0: np.ndarray     # (3 (n/2)^2 + 1,), psi(sqrt(m))
    k2: np.ndarray       # (n, n, n) integer |k|^2: the lattice index into every table
    profile_id: str = PROFILE_ID

    @property
    def shells(self):
        return range(self.q_min, self.q_max + 1)

    @property
    def n_shells(self) -> int:
        return self.q_max - self.q_min + 1

    def lambdas(self) -> np.ndarray:
        return 2.0 ** np.arange(self.q_min, self.q_max + 1, dtype=np.float64)

    def multiplier(self, q) -> np.ndarray:
        """phi_q gathered onto the full (n, n, n) lattice."""
        if not self.q_min <= q <= self.q_max:
            raise ShellRangeError(f"shell {q} outside [{self.q_min}, {self.q_max}]")
        return self.phi[q - self.q_min][self.k2]

    def shell_sum(self, density, *, squared: bool = True) -> np.ndarray:
        """BOX_VOLUME * sum_k phi_q(k)^p density(k) for every shell, p = 2
        (or p = 1 with ``squared=False``); density is real on the lattice."""
        radial = np.bincount(
            self.k2.ravel(), weights=np.ravel(density), minlength=self.phi.shape[1]
        )
        return BOX_VOLUME * ((self.phi_sq if squared else self.phi) @ radial)


def build_filter_bank(grid: GridSpec) -> FilterBank:
    """Tabulate every representable shell multiplier on the grid's radii."""
    if grid.k_max < 2:
        raise ConfigurationError("grid cannot host shell 0; need k_max >= 2")
    q_max = int(math.ceil(math.log2(grid.k_max))) + 1
    radius = np.sqrt(np.arange(3 * (grid.n // 2) ** 2 + 1, dtype=np.float64))
    phi = np.stack([phi_profile(radius, q) for q in range(q_max + 1)])
    phi_sq = phi * phi
    psi0 = psi_profile(radius)
    for table in (phi, phi_sq, psi0):
        table.flags.writeable = False
    return FilterBank(grid, 0, q_max, phi, phi_sq, psi0, _k2_index(grid.n))


def partition_residual(bank: FilterBank) -> float:
    """Max |psi(|k|) + sum_q phi_q(k) - 1| over lattice modes 0 < |k| <= k_max."""
    radius = np.sqrt(np.arange(bank.psi0.size, dtype=np.float64))
    occupied = np.bincount(bank.k2.ravel(), minlength=bank.psi0.size) > 0
    sel = occupied & (radius > 0) & (radius <= bank.grid.k_max)
    total = bank.psi0 + np.sum(bank.phi, axis=0)
    return float(np.max(np.abs(total[sel] - 1.0)))


def shell_project(u: SpectralVelocity, bank: FilterBank, q: int) -> SpectralVelocity:
    """The q-th shell piece: coefficients multiplied by phi_q(k)."""
    return SpectralVelocity(u.grid, u.coeffs * bank.multiplier(q), u.time)


@dataclass
class ShellDecomposition:
    """All shell pieces of one field, keyed by shell index."""

    grid: GridSpec
    pieces: dict


def decompose(u: SpectralVelocity, bank: FilterBank) -> ShellDecomposition:
    pieces = {q: shell_project(u, bank, q) for q in bank.shells}
    return ShellDecomposition(u.grid, pieces)


def reconstruct(d: ShellDecomposition) -> SpectralVelocity:
    """Sum of the pieces; equals the zero-mean source to machine precision."""
    coeffs = np.zeros((3, *d.grid.shape), dtype=np.complex128)
    time = 0.0
    for piece in d.pieces.values():
        coeffs += piece.coeffs
        time = piece.time
    return SpectralVelocity(d.grid, coeffs, time)


def _low_multiplier(bank: FilterBank, q_top: int) -> np.ndarray:
    upper = min(q_top, bank.q_max) - bank.q_min + 1
    if upper <= 0:
        return np.zeros(bank.grid.shape)
    return np.sum(bank.phi[:upper], axis=0)[bank.k2]


def truncate_low(u: SpectralVelocity, bank: FilterBank, q_top: int) -> SpectralVelocity:
    """Partial sum u_{<=Q}; Q below the shell range yields the zero field."""
    return SpectralVelocity(u.grid, u.coeffs * _low_multiplier(bank, q_top), u.time)


def truncate_high(u: SpectralVelocity, bank: FilterBank, q_bottom: int) -> SpectralVelocity:
    """Partial sum u_{>=Q}, the exact complement of u_{<=Q-1} for zero-mean u."""
    return SpectralVelocity(
        u.grid, u.coeffs * (1.0 - _low_multiplier(bank, q_bottom - 1)), u.time
    )


def shell_energies(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """Squared L2 norms ||u_q||_2^2 for every shell in the bank."""
    return bank.shell_sum(np.sum(np.abs(u.coeffs) ** 2, axis=0))


def sobolev_norm(u: SpectralVelocity, bank: FilterBank, s: float) -> float:
    """Homogeneous Sobolev norm (sum_q lam_q^(2s) ||u_q||_2^2)^(1/2)."""
    return math.sqrt(float(np.sum(bank.lambdas() ** (2.0 * s) * shell_energies(u, bank))))


def bernstein_ratio(u_q: SpectralVelocity, bank: FilterBank, q: int, p, r) -> float:
    """||u_q||_p / (lam_q^(3(1/r - 1/p)) ||u_q||_r) for a shell-supported field."""
    if not bank.q_min <= q <= bank.q_max:
        raise ShellRangeError(f"shell {q} outside [{bank.q_min}, {bank.q_max}]")
    allowed = (2, 4, math.inf)
    if p not in allowed or r not in allowed:
        raise ConfigurationError("only p, r in {2, 4, inf} are supported")
    if r > p:
        raise ConfigurationError(f"need r <= p, got r={r}, p={p}")
    if not np.any(u_q.coeffs):
        raise UndefinedRatioError("Bernstein ratio undefined for the zero field")
    phys = inverse_transform(u_q)
    inv_p = 0.0 if p == math.inf else 1.0 / p
    exponent = 3.0 * (1.0 / r - inv_p)
    return lp_norm(phys, p) / (lam(q) ** exponent * lp_norm(phys, r))
