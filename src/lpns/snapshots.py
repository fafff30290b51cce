"""LPNS snapshot files: physical velocity fields with a JSON sidecar.

Layout: magic "LPNS", version byte 0x01, little-endian u32 n, little-endian
f64 time, then 3*n^3 little-endian f64 physical values in component-major,
z-fastest order.  The sidecar (same basename, ".json") records the grid,
viscosity, seed, and generator provenance.
"""

from __future__ import annotations

import json
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
    """Write the field and its JSON sidecar; meta entries land in the sidecar."""
    path = Path(path)
    if field.values.shape != (3, *field.grid.shape):
        raise ConfigurationError("field shape does not match its grid")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, field.grid.n, field.time))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    sidecar = {
        "grid": {"n": field.grid.n, "dealias_fraction": field.grid.dealias_fraction},
        "time": field.time,
        "psi_profile": PROFILE_ID,
    }
    sidecar.update(meta or {})
    with open(sidecar_path(path), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_snapshot(path) -> tuple[PhysicalVelocity, dict]:
    """Read a snapshot; raises ConfigurationError on bad magic, version or size."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise ConfigurationError(f"{path}: truncated header")
    magic, version, n, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ConfigurationError(f"{path}: bad magic {magic!r}; not an LPNS snapshot")
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported snapshot version {version}")
    expected = _HEADER.size + 3 * n**3 * 8
    if len(raw) != expected:
        raise ConfigurationError(
            f"{path}: payload is {len(raw)} bytes, expected {expected}"
        )
    meta = {}
    side = sidecar_path(path)
    if side.exists():
        try:
            meta = json.loads(side.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{side}: malformed sidecar: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigurationError(f"{side}: sidecar must hold a JSON object")
    fraction = meta.get("grid", {}).get("dealias_fraction", 2.0 / 3.0)
    grid = GridSpec(n, fraction)
    values = (
        np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
        .reshape(3, n, n, n)
        .astype(np.float64)
    )
    return PhysicalVelocity(grid, values, time), meta
