"""FFT entry points for the whole package.

LPNS_THREADS caps the transform worker count (default 1).  pocketfft assigns
each output element to exactly one worker, so results are bit-identical for
any worker count and runs stay reproducible.
"""

import os

from scipy import fft as _sfft


def workers() -> int:
    try:
        w = int(os.environ.get("LPNS_THREADS", "1"))
    except ValueError:
        w = 1
    return max(1, w)


def fftn(a, axes=(-3, -2, -1)):
    return _sfft.fftn(a, axes=axes, workers=workers())


def ifftn(a, axes=(-3, -2, -1)):
    return _sfft.ifftn(a, axes=axes, workers=workers())


def rfftn(a, axes=(-3, -2, -1)):
    return _sfft.rfftn(a, axes=axes, workers=workers())


def irfftn(a, axes=(-3, -2, -1)):
    return _sfft.irfftn(a, axes=axes, workers=workers())
