"""FFT entry points for the whole package.

LPNS_THREADS sets the transform worker count, a positive integer (default 1);
any other value is a configuration error.  pocketfft assigns each output
element to exactly one worker, so results are bit-identical for any worker
count and runs stay reproducible.

Each entry takes ``axes`` as its second parameter.  A benchmark that wraps the
entries counts a call as its batch, the product of the axes it does not
transform, however many passes the entry makes inside.  So each entry calls
``scipy.fft`` directly, never a sibling, whose call would count its passes
again.

Two transforms are pruned (Markel, IEEE Trans. Audio Electroacoust. 19, 305,
1971): pass by pass, each transforms only the lines that a cube of modes
|k_i| < r occupies, with the bits of the full transform.  ``irfftn_cube`` gives
the grid values of a field whose modes lie in the cube, and ``rfftn_cube`` the
cube's modes of real grid values.  Both take any cube with 2r <= n: a shell's
support cube in ``flux``, and, for the forward one, the retained block
|k_i| <= k_max, r = k_max + 1, which is such a cube at every dealias fraction
(``spectral.dealiased_spectrum``).  ``irfftn_cube`` takes n as the size of the
grid it synthesises, so it serves both a shell's n-point values and those on
its own coarse grid m = 2^(q+3) < n.
"""

import os

import numpy as np
from scipy import fft as _sfft

from .errors import ConfigurationError


def workers() -> int:
    text = os.environ.get("LPNS_THREADS", "1")
    try:
        w = int(text)
    except ValueError:
        w = 0
    if w < 1:
        raise ConfigurationError(f"LPNS_THREADS must be a positive integer, got {text!r}")
    return w


def fftn(a, axes=(-3, -2, -1)):
    return _sfft.fftn(a, axes=axes, workers=workers())


def ifftn(a, axes=(-3, -2, -1)):
    return _sfft.ifftn(a, axes=axes, workers=workers())


def rfftn(a, axes=(-3, -2, -1)):
    return _sfft.rfftn(a, axes=axes, workers=workers())


def irfftn(a, axes=(-3, -2, -1)):
    return _sfft.irfftn(a, axes=axes, workers=workers())


def rfftn_cube(a, axes=(-3, -2, -1), *, r):
    """The modes |k_i| < r of the unnormalised ``rfftn`` of real n-point values
    over ``axes`` (x, y, z), as (2r - 1, 2r - 1, r) values in the layout of
    :func:`irfftn_cube`.  The result is bit-identical to the block
    (r, r - 1, r) of ``rfftn(a)``.

    It transforms r2c along z on every line, keeping kz < r, then along x on
    those planes, keeping the cube's kx rows, and along y on the cube's lines
    only.  x before y is rfftn's own order; y before x moves bits.  The z pass
    takes 8 x rows at a time, so no full half spectrum is held."""
    w = workers()
    a = np.moveaxis(a, axes, (-3, -2, -1))
    n = a.shape[-1]
    if a.shape[-3:] != (n, n, n) or 2 * r > n:
        raise ValueError(f"a cube |k_i| < {r} of {a.shape[-3:]} values needs 2 r <= n")
    lead = a.shape[:-3]
    planes = np.empty((*lead, n, n, r), dtype=complex)
    for x in range(0, n, 8):
        planes[..., x : x + 8, :, :] = _sfft.rfft(a[..., x : x + 8, :, :], axis=-1, workers=w)[..., :r]
    planes = _sfft.fft(planes, axis=-3, overwrite_x=True, workers=w)
    lines = np.empty((*lead, 2 * r - 1, n, r), dtype=complex)
    lines[..., :r, :, :] = planes[..., :r, :, :]
    lines[..., r:, :, :] = planes[..., n - r + 1 :, :, :]
    del planes
    lines = _sfft.fft(lines, axis=-2, overwrite_x=True, workers=w)
    cube = np.empty((*lead, 2 * r - 1, 2 * r - 1, r), dtype=complex)
    cube[..., :r, :] = lines[..., :r, :]
    cube[..., r:, :] = lines[..., n - r + 1 :, :]
    return np.moveaxis(cube, (-3, -2, -1), axes)


def irfftn_cube(cube, axes=(-3, -2, -1), *, n):
    """Real n-point grid values, sum_k c(k) exp(i k.x) with no 1/n^3, of the
    half-spectrum modes in the cube |k_i| < r, given as (2r - 1, 2r - 1, r)
    values over ``axes`` (x, y, z): kx and ky in FFT order, 0..r-1 then
    1-r..-1, and kz in 0..r-1.  The result is bit-identical to
    ``irfftn(...) * n**3`` of the cube pasted into zeros.

    It transforms along x on the cube's lines, along y on its r kz planes, and
    c2r along z.  Every inverse is unscaled (norm="forward"); irfftn's 1/n^3
    and the caller's n^3 are powers of two, so dropping both moves no bit."""
    w = workers()
    cube = np.moveaxis(cube, axes, (-3, -2, -1))
    r = cube.shape[-1]
    if cube.shape[-3:] != (2 * r - 1, 2 * r - 1, r) or 2 * r > n:
        raise ValueError(f"cube of shape {cube.shape[-3:]} is not |k_i| < r on {n} points")
    lead = cube.shape[:-3]
    lines = np.zeros((*lead, n, 2 * r - 1, r), dtype=complex)
    lines[..., :r, :, :] = cube[..., :r, :, :]
    lines[..., n - r + 1 :, :, :] = cube[..., r:, :, :]
    lines = _sfft.ifft(lines, axis=-3, norm="forward", overwrite_x=True, workers=w)
    planes = np.zeros((*lead, n, n, n // 2 + 1), dtype=complex)
    planes[..., :r, :r] = lines[..., :r, :]
    planes[..., n - r + 1 :, :r] = lines[..., r:, :]
    del lines
    occupied = planes[..., :r]
    occupied[...] = _sfft.ifft(occupied, axis=-2, norm="forward", overwrite_x=True, workers=w)
    out = _sfft.irfft(planes, n=n, axis=-1, norm="forward", workers=w)
    return np.moveaxis(out, (-3, -2, -1), axes)
