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
the time step's forward transform, the O(n^6) oracle's kernel, the transform
of grid values to their retained block (``dealiased_spectrum``, by
``_fft.rfftn_cube``), and the shell transforms in ``flux``: u_q's values on
its own grid of min(n, 2^(q+3)) points, from its support cube on every shell
but the top ones, 2^(q+3) > n (``_fft.irfftn_cube``), and in a remainder norm
each cross term's unnormalised rfftn, only on that cube where 2^(q+3) < n
(``_fft.rfftn_cube``).  The lattice is stored once per n (``_lattice``): the
integer wavenumber axes shaped (n, 1, 1), (1, n, 1) and (1, 1, n/2 + 1),
which broadcast against the half spectrum, one read-only int64 |k|^2 on the
half spectrum, which is also the filter bank's index into its radial tables,
and the half-spectrum weight; no other module keeps a lattice table.  ``_cut`` and ``_paste`` are the one four-corner block copy of
a cube |k_i| < r with 2r <= n, whose extent ``_cube_extent`` alone defines: a
shell's support cube in the flux diagnostics, or the retained block
|k_i| <= k_max, r = k_max + 1, at every dealias fraction.  ``is_dealiased``
tests the slabs outside the block and ``_dealias_block`` caches its lattice.
``dealiased_spectrum`` is the one way grid values become a velocity, and the
seeded draw behind both random-field generators (``_solenoidal_noise``) goes
through it.
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


def _cube_extent(r):
    """(lo, hi, depth) of the cube |k_i| < r in the half spectrum: rows 0..r-1 and
    the top r - 1 rows of both n-point axes, and kz planes 0..r-1.  Every cube
    ``_cut`` and ``_paste`` copy has 2r <= n: the retained block (r = k_max + 1)
    and a shell's support cube (r = 2^(q+1)), the layout of ``_fft.rfftn_cube``
    and ``_fft.irfftn_cube``."""
    return r, r - 1, r


@functools.lru_cache(maxsize=16)
def _dealias_block(n, k_max):
    """The retained block: its extent and its read-only (kx, ky, kz) and 1/|k|^2,
    0 at k = 0, made on the block alone, so no half-spectrum table is built or kept."""
    lo, hi, depth = extent = _cube_extent(k_max + 1)
    kx, _, kz = _lattice(n)[:3]
    axis = np.concatenate((kx[:lo], kx[n - hi :]))
    axis.flags.writeable = False
    k = (axis, axis.reshape(1, -1, 1), kz[..., :depth])
    k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2]
    inv_k2 = np.zeros(k2.shape)  # float: zeros_like of the integer k2 would be int
    np.divide(1.0, k2, out=inv_k2, where=k2 > 0)
    inv_k2.flags.writeable = False
    return extent, k, inv_k2


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
        """Largest retained wavenumber component, floor(dealias_fraction * n/2), at
        most n/2 - 1: the retained block |k_i| <= k_max is the cube |k_i| < r with
        r = k_max + 1 and 2r <= n at every fraction.  It never holds a Nyquist
        mode |k_i| = n/2, whose Hermitian partner is stored at the same index
        with a different k, so no per-mode operator can make a real field
        complex there."""
        cutoff = int(math.floor(self.dealias_fraction * (self.n // 2) + 1e-12))
        return min(cutoff, self.n // 2 - 1)

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


def dealiased_spectrum(f: PhysicalVelocity, project: bool = False) -> SpectralVelocity:
    """The retained block of f's coefficients, Leray-projected when project is
    set, with zero mean, pasted into a half spectrum that is +0 elsewhere.

    Only the block, the cube |k_i| < k_max + 1, is transformed
    (``_fft.rfftn_cube``, the bits of the block of ``_hat``): it is scaled by
    1/n^3 (exact: n^3 is a power of two), projected with I - k k^T / |k|^2 on
    the block when asked, and plus 0.0, so no -0 is kept.  Every element of the
    half spectrum is written: pages left to np.zeros would be faulted in by the
    report that reads them."""
    grid = f.grid
    if f.values.shape != (3, *grid.shape):
        raise ConfigurationError(
            f"field shape {f.values.shape} does not match grid {(3, *grid.shape)}"
        )
    r = grid.k_max + 1
    lo, hi, depth = extent = _cube_extent(r)
    # The block's tables are looked up only to project, so a report caches
    # none and its peak RSS stays put, and before the transform: looked up
    # after it, the march that follows ran measurably slower (CHANGES.md).
    lattice = _dealias_block(grid.n, grid.k_max)[1:] if project else None
    block = _fft.rfftn_cube(f.values, r=r)
    block /= grid.n**3
    if project:
        _project_coeffs(block, *lattice)
    block += 0.0  # -0.0 + 0.0 is +0.0
    block[:, 0, 0, 0] = 0.0
    coeffs = np.empty((3, *grid.spectral_shape), dtype=np.complex128)
    outside = slice(lo, grid.n - hi)  # |k| > k_max in FFT order
    coeffs[..., depth:] = coeffs[:, outside, :, :depth] = coeffs[:, :, outside, :depth] = 0.0
    return SpectralVelocity(grid, _paste(block, extent, coeffs), f.time)


def is_dealiased(u: SpectralVelocity) -> bool:
    """No coefficient with max-norm |k_i| > k_max.  The modes outside the block are
    the slabs |kx| > k_max, |ky| > k_max and kz > k_max, tested as views."""
    lo, hi, depth = _cube_extent(u.grid.k_max + 1)
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


def _squared_magnitude(values):
    """|f|^2 of three component values, summed in place as np.sum(values**2, axis=0) sums."""
    mag2 = values[0] ** 2
    mag2 += values[1] ** 2
    mag2 += values[2] ** 2
    return mag2


def _l4_norm(values, m) -> float:
    """||f||_4 by the m-point grid quadrature of a field's component values."""
    mag2 = _squared_magnitude(values)
    return (float(np.sum(mag2**2)) * (BOX_LENGTH / m) ** 3) ** 0.25


def lp_norm(f: PhysicalVelocity, p) -> float:
    """L^p norm of the pointwise Euclidean magnitude; p in {2, 4, inf}."""
    if p == 2:
        return math.sqrt(float(np.sum(_squared_magnitude(f.values))) * f.grid.dx**3)
    if p == 4:
        return _l4_norm(f.values, f.grid.n)
    if p == math.inf or p == np.inf:
        return math.sqrt(float(np.max(_squared_magnitude(f.values))))
    raise ConfigurationError(f"unsupported Lp exponent {p}; expected 2, 4 or inf")


def divergence_residual(u: SpectralVelocity) -> float:
    """Max over populated modes of |k . u_hat| / (|k| |u_hat|); 0 for the zero field.

    Modes below 1e-13 of the peak coefficient magnitude carry no field content
    and are excluded, so transform round-off junk does not dominate the ratio.
    A dealiased field is read on its retained block only: the zero modes
    outside it fall below that threshold and leave the peak alone.
    |u_hat| and k . u_hat are summed one component at a time, in place, and the
    ratio is taken in place where it is defined, so no three-component temporary
    and no gathered copy is made.
    """
    n = u.grid.n
    kx, ky, kz, k2, _ = _lattice(n)
    c = u.coeffs
    if is_dealiased(u):
        extent, (kx, ky, kz), _ = _dealias_block(n, u.grid.k_max)
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


def _solenoidal_noise(grid: GridSpec, seed: int) -> SpectralVelocity:
    """Seeded standard-normal grid noise, taken to its retained block,
    Leray-projected and with zero mean (``dealiased_spectrum``)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    noise = np.random.default_rng(seed).standard_normal((3, *grid.shape))
    return dealiased_spectrum(PhysicalVelocity(grid, noise), project=True)


def random_solenoidal_field(grid: GridSpec, seed: int, l2: float = 1.0) -> SpectralVelocity:
    """Dealiased, divergence-free, zero-mean white-noise field with ||u||_2 = l2."""
    u = _solenoidal_noise(grid, seed)
    u.coeffs *= l2 / l2_norm(u)
    return u


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
    noise = _solenoidal_noise(grid, seed).coeffs
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
