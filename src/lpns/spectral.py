"""Velocity fields on the periodic box [0, 2*pi)^3 and their transforms.

Fourier convention: u_hat(k) = (2*pi)^-3 * int u(x) exp(-i k.x) dx, so lattice
wavenumbers are the integers k in [-n/2, n/2)^3, reconstruction reads
u(x) = sum_k u_hat(k) exp(i k.x), and Parseval is
int |u|^2 dx = (2*pi)^3 * sum_k |u_hat(k)|^2.  All norms are unnormalized
integrals over the full box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import ConfigurationError, InvariantViolation

BOX_LENGTH = 2.0 * np.pi
BOX_VOLUME = BOX_LENGTH**3

_HERMITIAN_RTOL = 1e-10


@functools.lru_cache(maxsize=16)
def _lattice(n):
    freq = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    kx, ky, kz = np.meshgrid(freq, freq, freq, indexing="ij")
    k2 = (kx * kx + ky * ky + kz * kz).astype(np.float64)
    kmag = np.sqrt(k2)
    for a in (kx, ky, kz, k2, kmag):
        a.flags.writeable = False
    return kx, ky, kz, k2, kmag


@functools.lru_cache(maxsize=16)
def _k2_index(n):
    """Integer |k|^2 on the lattice (int64, read-only)."""
    kx, ky, kz, _, _ = _lattice(n)
    k2 = kx * kx + ky * ky + kz * kz
    k2.flags.writeable = False
    return k2


@functools.lru_cache(maxsize=16)
def _dealias_mask(n, k_max):
    kx, ky, kz, _, _ = _lattice(n)
    mask = (np.abs(kx) <= k_max) & (np.abs(ky) <= k_max) & (np.abs(kz) <= k_max)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid: n points per dimension, box length fixed at 2*pi."""

    n: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ConfigurationError(f"grid size must be a power of two >= 16, got {self.n}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ConfigurationError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}")
        if self.k_max < 2:
            raise ConfigurationError(f"dealias cutoff {self.k_max} < 2; grid too coarse for that fraction")

    @property
    def k_max(self) -> int:
        """Largest retained wavenumber component, floor(dealias_fraction * n/2)."""
        return int(math.floor(self.dealias_fraction * (self.n // 2) + 1e-12))

    @property
    def dx(self) -> float:
        return BOX_LENGTH / self.n

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    def wavevectors(self):
        """Integer wavevector components (kx, ky, kz), each shaped (n, n, n)."""
        return _lattice(self.n)[:3]

    def k_squared(self):
        return _lattice(self.n)[3]

    def k_magnitude(self):
        return _lattice(self.n)[4]

    def dealias_mask(self):
        """Boolean mask of modes with max-norm |k_i| <= k_max."""
        return _dealias_mask(self.n, self.k_max)


@dataclass
class SpectralVelocity:
    """Three-component Fourier coefficient lattice, complex128 (3, n, n, n)."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def copy(self) -> "SpectralVelocity":
        return SpectralVelocity(self.grid, self.coeffs.copy(), self.time)


@dataclass
class PhysicalVelocity:
    """Real-space mirror of SpectralVelocity, float64 (3, n, n, n)."""

    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def copy(self) -> "PhysicalVelocity":
        return PhysicalVelocity(self.grid, self.values.copy(), self.time)


def zero_velocity(grid: GridSpec) -> SpectralVelocity:
    return SpectralVelocity(grid, np.zeros((3, *grid.shape), dtype=np.complex128))


def forward_transform(f: PhysicalVelocity) -> SpectralVelocity:
    """Analyze a physical field into Fourier coefficients."""
    if f.values.shape != (3, *f.grid.shape):
        raise ConfigurationError(
            f"field shape {f.values.shape} does not match grid {(3, *f.grid.shape)}"
        )
    coeffs = _fft.fftn(f.values, axes=(1, 2, 3)) / f.grid.n**3
    return SpectralVelocity(f.grid, coeffs, f.time)


def hermitian_residual(u: SpectralVelocity) -> float:
    """Max |u_hat(-k) - conj(u_hat(k))| over the lattice."""
    reflected = np.roll(u.coeffs[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
    return float(np.max(np.abs(np.conj(reflected) - u.coeffs)))


def inverse_transform(u: SpectralVelocity) -> PhysicalVelocity:
    """Synthesize the real-space field; rejects non-Hermitian coefficient sets."""
    if u.coeffs.shape != (3, *u.grid.shape):
        raise ConfigurationError(
            f"coefficient shape {u.coeffs.shape} does not match grid {(3, *u.grid.shape)}"
        )
    scale = float(np.max(np.abs(u.coeffs))) if u.coeffs.size else 0.0
    if scale > 0.0 and hermitian_residual(u) > _HERMITIAN_RTOL * scale:
        raise InvariantViolation("coefficients break Hermitian symmetry; field is not real")
    values = _fft.ifftn(u.coeffs, axes=(1, 2, 3)).real * u.grid.n**3
    return PhysicalVelocity(u.grid, values, u.time)


def _project_coeffs(coeffs, grid):
    """Apply I - k k^T / |k|^2 to every mode of coeffs, in place."""
    kx, ky, kz, k2, _ = _lattice(grid.n)
    inv = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    div = kx * coeffs[0] + ky * coeffs[1] + kz * coeffs[2]
    div *= inv
    coeffs[0] -= kx * div
    coeffs[1] -= ky * div
    coeffs[2] -= kz * div


def leray_project(u: SpectralVelocity) -> SpectralVelocity:
    """Project each mode with I - k k^T / |k|^2, eliminating the pressure gradient."""
    coeffs = u.coeffs.copy()
    _project_coeffs(coeffs, u.grid)
    return SpectralVelocity(u.grid, coeffs, u.time)


def dealias(u: SpectralVelocity) -> SpectralVelocity:
    """Zero every coefficient with max-norm |k_i| > k_max (2/3-rule projection)."""
    return SpectralVelocity(u.grid, u.coeffs * u.grid.dealias_mask(), u.time)


def zero_mean(u: SpectralVelocity) -> SpectralVelocity:
    out = u.copy()
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


def is_dealiased(u: SpectralVelocity) -> bool:
    return not np.any(u.coeffs[:, ~u.grid.dealias_mask()])


def l2_norm(u: SpectralVelocity) -> float:
    """Unnormalized L2 norm, sqrt(int |u|^2 dx), computed spectrally."""
    return math.sqrt(BOX_VOLUME * float(np.sum(np.abs(u.coeffs) ** 2)))


def energy(u: SpectralVelocity) -> float:
    """Squared L2 norm int |u|^2 dx."""
    return BOX_VOLUME * float(np.sum(np.abs(u.coeffs) ** 2))


def enstrophy(u: SpectralVelocity) -> float:
    """Squared gradient norm int |grad u|^2 dx."""
    k2 = u.grid.k_squared()
    return BOX_VOLUME * float(np.sum(k2 * np.sum(np.abs(u.coeffs) ** 2, axis=0)))


def physical_l2_norm(f: PhysicalVelocity) -> float:
    """Quadrature L2 norm on the physical lattice (independent of l2_norm)."""
    return math.sqrt(float(np.sum(f.values**2)) * f.grid.dx**3)


def lp_norm(f: PhysicalVelocity, p) -> float:
    """L^p norm of the pointwise Euclidean magnitude; p in {2, 4, inf}."""
    mag2 = np.sum(f.values**2, axis=0)
    if p == 2:
        return math.sqrt(float(np.sum(mag2)) * f.grid.dx**3)
    if p == 4:
        return (float(np.sum(mag2**2)) * f.grid.dx**3) ** 0.25
    if p == math.inf or p == np.inf:
        return math.sqrt(float(np.max(mag2)))
    raise ConfigurationError(f"unsupported Lp exponent {p}; expected 2, 4 or inf")


def divergence_residual(u: SpectralVelocity) -> float:
    """Max over populated modes of |k . u_hat| / (|k| |u_hat|); 0 for the zero field.

    Modes below 1e-13 of the peak coefficient magnitude carry no field content
    and are excluded, so transform round-off junk does not dominate the ratio.
    """
    kx, ky, kz, _, kmag = _lattice(u.grid.n)
    vecmag = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
    scale = float(np.max(vecmag))
    if scale == 0.0:
        return 0.0
    good = (kmag > 0) & (vecmag > 1e-13 * scale)
    if not np.any(good):
        return 0.0
    num = np.abs(kx * u.coeffs[0] + ky * u.coeffs[1] + kz * u.coeffs[2])
    return float(np.max(num[good] / (kmag[good] * vecmag[good])))


def make_taylor_green(grid: GridSpec, amplitude: float) -> SpectralVelocity:
    """Taylor-Green vortex a*(sin x cos y cos z, -cos x sin y cos z, 0).

    Placed directly in coefficient space: the field lives on the eight modes
    (+-1, +-1, +-1), |k| = sqrt(3), and is divergence-free mode by mode.
    """
    if not math.isfinite(amplitude):
        raise ConfigurationError("Taylor-Green amplitude must be finite")
    coeffs = np.zeros((3, *grid.shape), dtype=np.complex128)
    n = grid.n
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                idx = (s1 % n, s2 % n, s3 % n)
                coeffs[(0, *idx)] = -0.125j * s1 * amplitude
                coeffs[(1, *idx)] = 0.125j * s2 * amplitude
    return SpectralVelocity(grid, coeffs)


def make_random_field(grid: GridSpec, seed: int, spectrum) -> SpectralVelocity:
    """Random solenoidal field with exact per-shell energies.

    Each requested shell q is realized on the lattice sphere |k| = 2^q, the
    locus where the dyadic multiplier phi_q is identically 1 and every other
    multiplier vanishes, so the shell energies are decoupled and can be scaled
    exactly.  Deterministic for a fixed seed.

    Parameters
    ----------
    spectrum : mapping int -> float
        Target squared L2 norm per shell; shells absent from the map are empty.
    """
    for q, target in spectrum.items():
        if q < 0 or 2**q > grid.k_max:
            raise ConfigurationError(
                f"shell {q} not resolvable: needs 2^q <= k_max = {grid.k_max}"
            )
        if target < 0 or not math.isfinite(target):
            raise ConfigurationError(f"shell {q} energy must be finite and >= 0")
    coeffs = np.zeros((3, *grid.shape), dtype=np.complex128)
    if spectrum:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((3, *grid.shape))
        nhat = _fft.fftn(noise, axes=(1, 2, 3)) / grid.n**3
        k2int = _k2_index(grid.n)
        for q in sorted(spectrum):
            target = spectrum[q]
            if target == 0.0:
                continue
            band = nhat * (k2int == 4**q)
            _project_coeffs(band, grid)
            have = BOX_VOLUME * float(np.sum(np.abs(band) ** 2))
            if have <= 0.0:
                raise ConfigurationError(f"degenerate draw left shell {q} empty")
            coeffs += band * math.sqrt(target / have)
    return SpectralVelocity(grid, coeffs)
