import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from lpns import _fft
from lpns.lp import build_filter_bank
from lpns.spectral import GridSpec, SpectralVelocity, _hat, _lattice, _project_coeffs
from lpns.verify import random_solenoidal_field

# Property tests draw the same examples on every run and keep no example
# database, so a failure found once is found on every run.
settings.register_profile("lpns", derandomize=True, deadline=None, database=None)
settings.load_profile("lpns")


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64)


@pytest.fixture(scope="session")
def bank16(grid16):
    return build_filter_bank(grid16)


@pytest.fixture(scope="session")
def bank32(grid32):
    return build_filter_bank(grid32)


@pytest.fixture(scope="session")
def bank64(grid64):
    return build_filter_bank(grid64)


def peak_allocation(call):
    """tracemalloc peak of new allocations during call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fft_entries():
    """The functions of ``lpns._fft`` with an ``axes`` parameter, by name: the
    transforms that the benchmark tracer wraps."""
    return {name: fn for name, fn in vars(_fft).items()
            if inspect.isfunction(fn) and "axes" in inspect.signature(fn).parameters}


def count_transforms(call):
    """Transforms made by call(), counted as the benchmark tracer counts them: every
    entry of ``fft_entries`` is wrapped, and each call adds its batch, the product
    of the axes it does not transform.  A pruned ``irfftn_cube`` or ``rfftn_cube``
    call counts alike, one per component."""
    count = 0
    originals = fft_entries()

    def counting(fn):
        default_axes = inspect.signature(fn).parameters["axes"].default

        def wrapper(a, *args, **kwargs):
            nonlocal count
            axes = kwargs.get("axes", args[0] if args else default_axes)
            transformed = {ax % a.ndim for ax in axes}
            count += math.prod(a.shape[d] for d in range(a.ndim) if d not in transformed)
            return fn(a, *args, **kwargs)
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(_fft, name, counting(fn))
        call()
    finally:
        for name, fn in originals.items():
            setattr(_fft, name, fn)
    return count


def dealias_mask(grid):
    """The retained modes |k_i| <= k_max of the half spectrum as a boolean mask,
    written from the lattice: the reference for the dealiased block."""
    kx, ky, kz = _lattice(grid.n)[:3]
    return (np.abs(kx) <= grid.k_max) & (np.abs(ky) <= grid.k_max) & (np.abs(kz) <= grid.k_max)


def full_inverse_k2(n):
    """1/|k|^2 on the whole half spectrum, 0 at k = 0."""
    k2 = _lattice(n)[3]
    inv = np.zeros(k2.shape)
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    return inv


def full_projection(coeffs):
    """A copy of half-spectrum coefficients with I - k k^T / |k|^2 applied to every
    stored mode, on the whole lattice."""
    n = coeffs.shape[-2]
    out = coeffs.copy()
    _project_coeffs(out, _lattice(n)[:3], full_inverse_k2(n))
    return out


def keep_mask(coeffs, grid):
    """Coefficients on the retained modes plus 0.0, and +0 elsewhere, by the mask."""
    return np.where(dealias_mask(grid), coeffs + 0.0, 0.0)


def full_spectrum(f):
    """The whole half spectrum of physical values, rfftn / n^3, nothing cut."""
    return SpectralVelocity(f.grid, _hat(f.values), f.time)


def reference_spectrum(f, project=False):
    """``dealiased_spectrum`` computed on the whole lattice: the full transform,
    the Leray projection when project is set, the mask and zero mean.  It
    shares no block code with what it checks."""
    c = full_spectrum(f).coeffs
    c = keep_mask(full_projection(c) if project else c, f.grid)
    c[:, 0, 0, 0] = 0.0
    return SpectralVelocity(f.grid, c, f.time)


def negative_zero_noise(grid, seed, scale=1.0):
    """Standard-normal half-spectrum coefficients times scale, with -0.0 as the real
    part of about a third of them and as the imaginary part of another third, both
    inside and outside the retained block."""
    rng = np.random.default_rng(seed)
    shape = (3, *grid.spectral_shape)
    coeffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    pick = rng.integers(0, 3, shape)
    coeffs.real[pick == 0] = -0.0
    coeffs.imag[pick == 1] = -0.0
    return coeffs


def half_spectrum(full):
    """The stored half 0 <= kz <= n/2 of full-lattice coefficients (..., n, n, n)."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def single_mode_field(grid, k, component_amplitudes, solenoidal=True):
    """Field on the mode pair +-k; projected to divergence-free by default."""
    coeffs = np.zeros((3, *grid.shape), dtype=np.complex128)
    idx = tuple(ki % grid.n for ki in k)
    neg = tuple(-ki % grid.n for ki in k)
    for comp, amp in enumerate(component_amplitudes):
        coeffs[(comp, *idx)] = amp
        coeffs[(comp, *neg)] = np.conj(amp)
    c = half_spectrum(coeffs)
    return SpectralVelocity(grid, full_projection(c) if solenoidal else c)


def mode_keyed_field(n, seed, kcap=10, decay=0.02):
    """Same band-limited continuum field realized on any grid with k_max >= kcap.

    Amplitudes are drawn once for the cube |k_i| <= kcap independently of n,
    so two grids carrying those modes receive identical coefficients and grid
    refinement changes only quadrature, never the field.
    """
    grid = GridSpec(n)
    if kcap > grid.k_max:
        raise ValueError("kcap exceeds the grid's dealias cutoff")
    rng = np.random.default_rng(seed)
    m = 2 * kcap + 1
    cube = rng.standard_normal((3, m, m, m)) + 1j * rng.standard_normal((3, m, m, m))
    ks = np.arange(-kcap, kcap + 1)
    k2 = ks[:, None, None] ** 2 + ks[None, :, None] ** 2 + ks[None, None, :] ** 2
    cube *= np.exp(-decay * k2)
    coeffs = np.zeros((3, *grid.shape), dtype=np.complex128)
    coeffs[np.ix_(range(3), ks % n, ks % n, ks % n)] = cube
    reflected = np.roll(coeffs[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
    c = full_projection(half_spectrum(0.5 * (coeffs + np.conj(reflected))))
    c[:, 0, 0, 0] = 0.0
    return SpectralVelocity(grid, keep_mask(c, grid))


__all__ = ["count_transforms", "dealias_mask", "fft_entries", "full_inverse_k2", "full_projection",
           "full_spectrum", "half_spectrum", "keep_mask", "mode_keyed_field", "negative_zero_noise",
           "peak_allocation", "random_solenoidal_field", "reference_spectrum", "single_mode_field"]
