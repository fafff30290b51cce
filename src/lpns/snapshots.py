"""LPNS snapshot files: physical velocity fields with a JSON sidecar.

Layout: magic "LPNS", version byte 0x01, little-endian u32 n, little-endian
f64 time, then 3*n^3 little-endian f64 physical values in component-major,
z-fastest order.  The sidecar (same basename, ".json") records the grid,
viscosity, seed, and generator provenance.

``read_snapshot`` checks the header and the file size first, then reads the
payload in one ``readinto`` into an aligned float64 array, which it returns.
The payload starts 17 bytes into the file, so a view of the file's bytes would
be misaligned and every transform of it slower.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .lp import PROFILE_ID
from .spectral import GridSpec, PhysicalVelocity

MAGIC = b"LPNS"
VERSION = 1
_HEADER = struct.Struct("<4sBId")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_snapshot(path, field: PhysicalVelocity, meta: dict | None = None) -> None:
    """Write the field and its JSON sidecar; meta entries land in the sidecar.
    Raises ConfigurationError when either file cannot be written."""
    path = Path(path)
    if field.values.shape != (3, *field.grid.shape):
        raise ConfigurationError("field shape does not match its grid")
    if not math.isfinite(field.time):
        raise ConfigurationError(f"snapshot time must be finite, got {field.time}")
    sidecar = {
        "grid": {"n": field.grid.n, "dealias_fraction": field.grid.dealias_fraction},
        "time": field.time,
        "psi_profile": PROFILE_ID,
    }
    sidecar.update(meta or {})
    try:
        text = json.dumps(sidecar, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigurationError(
            f"snapshot {path}: sidecar holds a non-finite number, which JSON cannot represent"
        ) from exc
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, field.grid.n, field.time))
            fh.write(memoryview(np.ascontiguousarray(field.values, dtype="<f8")))
        sidecar_path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write snapshot {exc.filename or path}: {exc.strerror or exc}") from exc


def read_snapshot(path) -> tuple[PhysicalVelocity, dict]:
    """Read a snapshot; raises ConfigurationError on a bad header, size or sidecar,
    or on a non-finite time or value.

    The header and the file size are checked before the payload is allocated.
    The payload is read straight into one aligned, writable, C-contiguous
    float64 array: no bytes object and no copy.  A read that comes up short,
    because the file shrank after the size check, raises."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ConfigurationError(f"{path}: truncated header")
            magic, version, n, time = _HEADER.unpack(header)
            if magic != MAGIC:
                raise ConfigurationError(f"{path}: bad magic {magic!r}; not an LPNS snapshot")
            if version != VERSION:
                raise ConfigurationError(f"{path}: unsupported snapshot version {version}")
            if not math.isfinite(time):
                raise ConfigurationError(f"{path}: non-finite time {time} in header")
            size = os.fstat(fh.fileno()).st_size
            expected = _HEADER.size + 3 * n**3 * 8
            if size != expected:
                raise ConfigurationError(f"{path}: payload is {size} bytes, expected {expected}")
            values = np.empty((3, n, n, n), dtype="<f8")
            got = fh.readinto(memoryview(values).cast("B"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read snapshot {path}: {exc}") from exc
    if got != values.nbytes:
        raise ConfigurationError(f"{path}: payload ended after {got} of {values.nbytes} bytes")
    meta = {}
    side = sidecar_path(path)
    if side.exists():
        try:
            meta = json.loads(side.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{side}: malformed sidecar: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigurationError(f"{side}: sidecar must hold a JSON object")
    try:
        fraction = float(meta.get("grid", {}).get("dealias_fraction", 2.0 / 3.0))
        float(meta.get("nu", 1.0))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{side}: malformed sidecar value: {exc}") from exc
    grid = GridSpec(n, fraction)
    values = values.astype(np.float64, copy=False)  # a copy only on a big-endian host
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{path}: payload holds non-finite values")
    return PhysicalVelocity(grid, values, time), meta
