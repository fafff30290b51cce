"""FFT entry points for the whole package.

LPNS_THREADS sets the transform worker count, a positive integer (default 1);
any other value is a configuration error.  pocketfft assigns each output
element to exactly one worker, so results are bit-identical for any worker
count and runs stay reproducible.
"""

import os

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
