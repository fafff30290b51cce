"""Velocity fields on the periodic box [0, 2*pi)^3 and their transforms.

Fourier convention: u_hat(k) = (2*pi)^-3 * int u(x) exp(-i k.x) dx, so lattice
wavenumbers are the integers k in [-n/2, n/2)^3, reconstruction reads
u(x) = sum_k u_hat(k) exp(i k.x), and Parseval is
int |u|^2 dx = (2*pi)^3 * sum_k |u_hat(k)|^2.  All norms are unnormalized
integrals over the full box.

Every velocity is real, so u_hat(-k) = conj(u_hat(k)) and only the half
spectrum 0 <= kz <= n/2 is stored, as arrays (..., n, n, n/2 + 1).  Only the
kz = 0 and kz = n/2 planes hold both k and -k, so only there can the stored
coefficients fail to describe a real field (``hermitian_residual``).  In a
sum over the whole lattice each stored mode with 0 < kz < n/2 counts twice,
for itself and its partner -k; ``_lattice_sum`` and ``FilterBank.shell_sum``
apply that weight.

This module owns the discrete form of that convention.  ``_hat`` and
``_physical`` are the one transform pair (rfftn / n^3 and irfftn * n^3 over
the last three axes); every transform of the package goes through them except
the time step's forward transform, the O(n^6) oracle's kernel, a snapshot's
coefficients, taken from the retained block only below fraction 1
(``dealiased_spectrum``, by ``_fft.rfftn_cube``), and the shell transforms in
``flux``: u_q's n-point values, from its support cube where 2^(q+3) <= n
(``_fft.irfftn_cube``), and in a remainder norm each cross term's unnormalised
rfftn, only on that cube where 2^(q+3) < n (``_fft.rfftn_cube``).  The
lattice is stored once per n (``_lattice``): the integer wavenumber axes
shaped (n, 1, 1), (1, n, 1) and (1, 1, n/2 + 1), which broadcast against the
half spectrum, one read-only int64 |k|^2 on the half spectrum, which is also
the filter bank's index into its radial tables, and the half-spectrum weight;
no other module keeps a lattice table.  ``_cut`` and ``_paste`` are the one
four-corner block copy, the modes with every |k_i| within a cutoff: a shell's
cube in the flux diagnostics, or the retained block |k_i| <= k_max, which
``_block_extent`` alone defines; ``dealias`` keeps it, ``is_dealiased`` tests
the slabs outside it and ``_dealias_block`` caches its lattice for the step.
``_solenoidal_noise`` is the one random draw behind both random-field generators.
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
    """Read-only (kx, ky, kz, |k|^2, weight) on the half spectrum; every |k|^2 is
    below 2^53, so it converts to float exactly.  weight is 1 on the kz = 0 and
    kz = n/2 planes and 2 elsewhere."""
    freq = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    half = np.rint(np.fft.rfftfreq(n, d=1.0 / n)).astype(np.int64)
    freq.flags.writeable = half.flags.writeable = False
    kx, ky, kz = freq.reshape(n, 1, 1), freq.reshape(1, n, 1), half.reshape(1, 1, -1)
    k2 = kx * kx + ky * ky + kz * kz
    weight = np.where((kz == 0) | (kz == n // 2), 1.0, 2.0)
    k2.flags.writeable = weight.flags.writeable = False
    return kx, ky, kz, k2, weight


def _inverse(k2):
    """Read-only 1/k2 of integer |k|^2 values, 0 where k2 = 0: the Leray projector's divisor."""
    inv = np.zeros(k2.shape)  # float: zeros_like of the integer k2 would be int
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=16)
def _inverse_k2(n):
    """Read-only 1/|k|^2 on the half spectrum, 0 at k = 0."""
    return _inverse(_lattice(n)[3])


def _corners(n, lo, hi, depth):
    """(block index, half-spectrum index) of the four slabs of the block that keeps
    the first lo and last hi rows of both n-point axes and the first depth kz planes."""
    rows = ((slice(0, lo), slice(0, lo)), (slice(lo, lo + hi), slice(n - hi, n)))
    return [((..., bx, by, slice(None)), (..., fx, fy, slice(0, depth)))
            for bx, fx in rows for by, fy in rows]


def _cut(c, extent, out=None):
    """The block extent = (lo, hi, depth) of half-spectrum values c, written into
    ``out`` when given and otherwise into a new array."""
    lo, hi, depth = extent
    if out is None:
        out = np.empty((*c.shape[:-3], lo + hi, lo + hi, depth), dtype=c.dtype)
    for b, f in _corners(c.shape[-2], lo, hi, depth):
        out[b] = c[f]
    return out


def _paste(block, extent, out):
    """Write a block into half-spectrum values out; the rest of out is kept."""
    for b, f in _corners(out.shape[-2], *extent):
        out[f] = block[b]
    return out


def _block_extent(n, k_max):
    """(lo, hi, depth) of the retained block |k_i| <= k_max.  At k_max = n/2,
    lo = n/2 keeps the Nyquist row once, and the block is the whole half spectrum."""
    return min(k_max + 1, n - k_max), k_max, k_max + 1


def _keep_block(c, grid):
    """c on the retained block, plus 0.0, and +0 elsewhere, as a new array."""
    out = np.zeros(c.shape, dtype=c.dtype)
    for _, f in _corners(grid.n, *_block_extent(grid.n, grid.k_max)):
        np.add(c[f], 0.0, out=out[f])  # -0.0 + 0.0 is +0.0: no -0 is kept, as in a zero field
    return out


@functools.lru_cache(maxsize=16)
def _dealias_block(n, k_max):
    """The retained block: its extent and its read-only (kx, ky, kz) and 1/|k|^2,
    made on the block alone, so no half-spectrum table is built or kept."""
    lo, hi, depth = extent = _block_extent(n, k_max)
    kx, _, kz = _lattice(n)[:3]
    axis = np.concatenate((kx[:lo], kx[n - hi :]))
    axis.flags.writeable = False
    k = (axis, axis.reshape(1, -1, 1), kz[..., :depth])
    return extent, k, _inverse(k[0] * k[0] + k[1] * k[1] + k[2] * k[2])


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
        """Shape of one component on the physical grid."""
        return (self.n, self.n, self.n)

    @property
    def spectral_shape(self):
        """Shape of one component's half spectrum, 0 <= kz <= n/2."""
        return (self.n, self.n, self.n // 2 + 1)

    def k_squared(self):
        """Integer |k|^2 on the half spectrum (int64, read-only)."""
        return _lattice(self.n)[3]


@dataclass
class SpectralVelocity:
    """Three-component half spectrum of a real field, complex128 (3, n, n, n/2 + 1).

    coeffs[:, i, j, l] is u_hat at (kx, ky, kz) = (fftfreq[i], fftfreq[j], l); the
    modes with kz < 0 are the conjugates of stored ones and are not kept."""

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


def zero_velocity(grid: GridSpec) -> SpectralVelocity:
    return SpectralVelocity(grid, np.zeros((3, *grid.spectral_shape), dtype=np.complex128))


def _hat(values):
    """Half-spectrum coefficients of real values over the last three axes: rfftn / n^3."""
    out = _fft.rfftn(values, axes=(-3, -2, -1))
    out /= values.shape[-1] ** 3
    return out


def _physical(coeffs):
    """Real grid values of half-spectrum coefficients over the last three axes: irfftn * n^3."""
    out = _fft.irfftn(coeffs, axes=(-3, -2, -1))
    out *= coeffs.shape[-2] ** 3
    return out


def _lattice_sum(density):
    """BOX_VOLUME * sum_k density(k) over the whole lattice, for a real per-mode
    density held on the half spectrum; sums the last three axes."""
    weight = _lattice(density.shape[-2])[4]
    return BOX_VOLUME * np.sum(weight * density, axis=(-3, -2, -1))


def forward_transform(f: PhysicalVelocity) -> SpectralVelocity:
    """Analyze a physical field into Fourier coefficients."""
    if f.values.shape != (3, *f.grid.shape):
        raise ConfigurationError(
            f"field shape {f.values.shape} does not match grid {(3, *f.grid.shape)}"
        )
    return SpectralVelocity(f.grid, _hat(f.values), f.time)


def hermitian_residual(u: SpectralVelocity) -> float:
    """Max |u_hat(-k) - conj(u_hat(k))| over the kz = 0 and kz = n/2 planes, the
    only stored modes whose partner -k is stored too."""
    planes = u.coeffs[..., [0, -1]]
    reflected = np.roll(planes[:, ::-1, ::-1], 1, axis=(1, 2))
    return float(np.max(np.abs(np.conj(reflected) - planes)))


def inverse_transform(u: SpectralVelocity) -> PhysicalVelocity:
    """Synthesize the real-space field; rejects coefficients whose kz = 0 or
    kz = n/2 plane breaks Hermitian symmetry."""
    if u.coeffs.shape != (3, *u.grid.spectral_shape):
        raise ConfigurationError(
            f"coefficient shape {u.coeffs.shape} does not match grid {(3, *u.grid.spectral_shape)}"
        )
    scale = float(np.max(np.abs(u.coeffs))) if u.coeffs.size else 0.0
    if scale > 0.0 and hermitian_residual(u) > _HERMITIAN_RTOL * scale:
        raise InvariantViolation("coefficients break Hermitian symmetry; field is not real")
    return PhysicalVelocity(u.grid, _physical(u.coeffs), u.time)


def _project_coeffs(coeffs, k, inv_k2):
    """Apply I - k k^T / |k|^2 to every mode of coeffs, in place; k holds the
    three lattice axes of coeffs and inv_k2 its 1/|k|^2."""
    div = k[0] * coeffs[0]
    div += k[1] * coeffs[1]
    div += k[2] * coeffs[2]
    div *= inv_k2
    for component, k_i in zip(coeffs, k):
        component -= k_i * div


def leray_project(u: SpectralVelocity) -> SpectralVelocity:
    """Project each mode with I - k k^T / |k|^2, eliminating the pressure gradient."""
    coeffs = u.coeffs.copy()
    _project_coeffs(coeffs, _lattice(u.grid.n)[:3], _inverse_k2(u.grid.n))
    return SpectralVelocity(u.grid, coeffs, u.time)


def dealias(u: SpectralVelocity) -> SpectralVelocity:
    """Zero every coefficient with max-norm |k_i| > k_max (2/3-rule projection)."""
    return SpectralVelocity(u.grid, _keep_block(u.coeffs, u.grid), u.time)


def zero_mean(u: SpectralVelocity) -> SpectralVelocity:
    out = u.copy()
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


def dealiased_spectrum(f: PhysicalVelocity, project: bool = False) -> SpectralVelocity:
    """zero_mean(dealias(forward_transform(f))) bit for bit, with ``leray_project``
    applied before ``dealias`` when project is set.

    Below fraction 1 the retained block |k_i| <= k_max is a cube |k_i| < r with
    2r <= n, so only the block is transformed (``_fft.rfftn_cube``), scaled by
    1/n^3 (exact: n^3 is a power of two), projected on the block when asked,
    and plus 0.0 as in ``_keep_block``.  It is pasted into a half spectrum whose
    every element is written: pages left to np.zeros would be faulted in by the
    report that reads them.  At fraction 1 the block is the whole half
    spectrum, which is not such a cube, and the full transform is taken."""
    grid = f.grid
    if grid.k_max == grid.n // 2:
        u = forward_transform(f)
        return zero_mean(dealias(leray_project(u) if project else u))
    if f.values.shape != (3, *grid.shape):
        raise ConfigurationError(
            f"field shape {f.values.shape} does not match grid {(3, *grid.shape)}"
        )
    lo, hi, depth = _block_extent(grid.n, grid.k_max)
    block = _fft.rfftn_cube(f.values, r=grid.k_max + 1)
    block /= grid.n**3
    if project:
        _, k, inv_k2 = _dealias_block(grid.n, grid.k_max)
        _project_coeffs(block, k, inv_k2)
    block += 0.0  # -0.0 + 0.0 is +0.0, as in _keep_block
    block[:, 0, 0, 0] = 0.0
    coeffs = np.empty((3, *grid.spectral_shape), dtype=np.complex128)
    outside = slice(lo, grid.n - hi)  # |k| > k_max in FFT order
    coeffs[..., depth:] = coeffs[:, outside, :, :depth] = coeffs[:, :, outside, :depth] = 0.0
    return SpectralVelocity(grid, _paste(block, (lo, hi, depth), coeffs), f.time)


def is_dealiased(u: SpectralVelocity) -> bool:
    """No coefficient with max-norm |k_i| > k_max.  The modes outside the block are
    the slabs |kx| > k_max, |ky| > k_max and kz > k_max, tested as views."""
    lo, hi, depth = _block_extent(u.grid.n, u.grid.k_max)
    outside = slice(lo, u.grid.n - hi)  # |k| > k_max in FFT order
    c = u.coeffs
    return not (np.any(c[:, outside]) or np.any(c[:, :, outside]) or np.any(c[..., depth:]))


def l2_norm(u: SpectralVelocity) -> float:
    """Unnormalized L2 norm, sqrt(int |u|^2 dx), computed spectrally."""
    return math.sqrt(energy(u))


def energy(u: SpectralVelocity) -> float:
    """Squared L2 norm int |u|^2 dx."""
    return float(_lattice_sum(np.sum(np.abs(u.coeffs) ** 2, axis=0)))


def enstrophy(u: SpectralVelocity) -> float:
    """Squared gradient norm int |grad u|^2 dx."""
    k2 = u.grid.k_squared()
    return float(_lattice_sum(k2 * np.sum(np.abs(u.coeffs) ** 2, axis=0)))


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
    A dealiased field below fraction 1 is read on its retained block only: the
    zero modes outside it fall below that threshold and leave the peak alone.
    |u_hat| and k . u_hat are summed one component at a time, in place, and the
    ratio is taken in place where it is defined, so no three-component temporary
    and no gathered copy is made.
    """
    n, k_max = u.grid.n, u.grid.k_max
    kx, ky, kz, k2, _ = _lattice(n)
    c = u.coeffs
    if k_max < n // 2 and is_dealiased(u):
        extent, (kx, ky, kz), _ = _dealias_block(n, k_max)
        c, k2 = _cut(c, extent), _cut(k2, extent)
    vecmag = np.abs(c[0]) ** 2
    vecmag += np.abs(c[1]) ** 2
    vecmag += np.abs(c[2]) ** 2
    np.sqrt(vecmag, out=vecmag)
    scale = float(np.max(vecmag))
    if scale == 0.0:
        return 0.0
    good = (k2 > 0) & (vecmag > 1e-13 * scale)
    if not np.any(good):
        return 0.0
    div = kx * c[0]
    div += ky * c[1]
    div += kz * c[2]
    ratio = np.abs(div)
    del div
    vecmag *= np.sqrt(k2)
    np.divide(ratio, vecmag, out=ratio, where=good)
    return float(np.max(ratio, where=good, initial=0.0))


def make_taylor_green(grid: GridSpec, amplitude: float) -> SpectralVelocity:
    """Taylor-Green vortex a*(sin x cos y cos z, -cos x sin y cos z, 0).

    Placed directly in coefficient space: the field lives on the eight modes
    (+-1, +-1, +-1), |k| = sqrt(3), and is divergence-free mode by mode.  The
    half spectrum stores the four with kz = +1.
    """
    if not math.isfinite(amplitude):
        raise ConfigurationError("Taylor-Green amplitude must be finite")
    coeffs = np.zeros((3, *grid.spectral_shape), dtype=np.complex128)
    for s1 in (1, -1):
        for s2 in (1, -1):
            idx = (s1 % grid.n, s2 % grid.n, 1)
            coeffs[(0, *idx)] = -0.125j * s1 * amplitude
            coeffs[(1, *idx)] = 0.125j * s2 * amplitude
    return SpectralVelocity(grid, coeffs)


def _solenoidal_noise(grid: GridSpec, seed: int) -> np.ndarray:
    """Coefficients of seeded standard-normal noise on the grid, Leray-projected.

    Projection acts mode by mode, so masking the result to a set of modes
    equals projecting the masked noise."""
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    noise = np.random.default_rng(seed).standard_normal((3, *grid.shape))
    coeffs = _hat(noise)
    _project_coeffs(coeffs, _lattice(grid.n)[:3], _inverse_k2(grid.n))
    return coeffs


def random_solenoidal_field(grid: GridSpec, seed: int, l2: float = 1.0) -> SpectralVelocity:
    """Dealiased, divergence-free, zero-mean white-noise field with ||u||_2 = l2.

    The modes with some |k_i| = n/2 are zeroed.  Below fraction 1 the block
    holds none of them.  At fraction 1 the projection gives such a mode and its
    Hermitian partner, stored at the same index, different k, so they would
    break the symmetry and the field would not be real."""
    coeffs = _keep_block(_solenoidal_noise(grid, seed), grid)
    nyquist = grid.n // 2
    coeffs[:, nyquist] = coeffs[:, :, nyquist] = coeffs[..., nyquist] = 0.0
    coeffs[:, 0, 0, 0] = 0.0
    coeffs *= l2 / l2_norm(SpectralVelocity(grid, coeffs))
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
    if not spectrum:
        return zero_velocity(grid)
    noise = _solenoidal_noise(grid, seed)
    k2 = grid.k_squared()
    density = np.sum(np.abs(noise) ** 2, axis=0)
    gain = np.zeros(int(k2.max()) + 1)  # per |k|^2; 0 off the requested spheres
    for q in sorted(spectrum):
        target = spectrum[q]
        if target == 0.0:
            continue
        have = float(_lattice_sum(density * (k2 == 4**q)))  # energy of the shell's band
        if have <= 0.0:
            raise ConfigurationError(f"degenerate draw left shell {q} empty")
        gain[4**q] = math.sqrt(target / have)
    noise *= gain[k2]
    noise += 0.0  # -0.0 + 0.0 is +0.0: modes off the spheres are +0, as in a zero field
    return SpectralVelocity(grid, noise)
