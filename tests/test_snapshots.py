import json
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import lpns.snapshots
from lpns.cli import main
from lpns.errors import ConfigurationError
from lpns.snapshots import _HEADER, read_snapshot, sidecar_path, write_snapshot
from lpns.spectral import GridSpec, inverse_transform, make_taylor_green, random_solenoidal_field

from conftest import peak_allocation


@pytest.fixture
def tg_physical(grid16):
    field = inverse_transform(make_taylor_green(grid16, 1.0))
    field.time = 0.25
    return field


class TestRoundTrip:
    def test_values_exact(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical, {"nu": 0.1, "seed": 3, "generator": "taylor_green"})
        back, meta = read_snapshot(path)
        assert np.array_equal(back.values, tg_physical.values)
        assert back.time == 0.25
        assert back.grid.n == 16
        assert meta["nu"] == 0.1 and meta["generator"] == "taylor_green"
        assert meta["psi_profile"]

    def test_header_layout(self, tmp_path, tg_physical):
        """Magic, version, little-endian n and time occupy the first 17 bytes."""
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        raw = path.read_bytes()
        assert raw[:4] == b"LPNS"
        assert raw[4] == 1
        assert struct.unpack("<I", raw[5:9])[0] == 16
        assert struct.unpack("<d", raw[9:17])[0] == 0.25
        assert len(raw) == 17 + 3 * 16**3 * 8

    def test_component_major_z_fastest(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        raw = path.read_bytes()
        flat = np.frombuffer(raw, dtype="<f8", offset=17)
        assert flat[0] == tg_physical.values[0, 0, 0, 0]
        assert flat[1] == tg_physical.values[0, 0, 0, 1]          # z fastest
        assert flat[16**3] == tg_physical.values[1, 0, 0, 0]      # component major

    def test_values_are_aligned_writable_contiguous_float64(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        values = read_snapshot(path)[0].values
        assert values.dtype == np.float64 and values.shape == (3, 16, 16, 16)
        assert values.flags.aligned and values.flags.writeable and values.flags.c_contiguous

    def test_peak_allocation_is_one_payload(self, tmp_path):
        """The payload is read into the returned array: no bytes object and no
        converted copy (2.13 payloads before), only the finiteness mask."""
        grid = GridSpec(32)
        path = tmp_path / "field.lpns"
        write_snapshot(path, inverse_transform(random_solenoidal_field(grid, 1)))
        payload = 3 * 32**3 * 8
        assert peak_allocation(lambda: read_snapshot(path)) <= 1.25 * payload

    def test_sidecar_written(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical, {"nu": 2.0})
        side = json.loads(sidecar_path(path).read_text())
        assert side["grid"]["n"] == 16
        assert side["nu"] == 2.0


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.lpns"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ConfigurationError):
            read_snapshot(path)

    def test_bad_version(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, tg_physical):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ConfigurationError):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "sidecar",
        ["{not json", "[1, 2]", '{"nu": "abc"}', '{"nu": null}', '{"grid": 5}',
         '{"grid": {"dealias_fraction": "x"}}', '{"grid": {"dealias_fraction": null}}'],
    )
    def test_malformed_sidecar(self, tmp_path, tg_physical, capsys, sidecar):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        sidecar_path(path).write_text(sidecar)
        with pytest.raises(ConfigurationError):
            read_snapshot(path)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_not_written(self, tmp_path, tg_physical, time):
        path = tmp_path / "field.lpns"
        tg_physical.time = time
        with pytest.raises(ConfigurationError, match="time"):
            write_snapshot(path, tg_physical)
        assert not path.exists() and not sidecar_path(path).exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_meta_not_written(self, tmp_path, tg_physical, value):
        """A sidecar value JSON cannot represent is refused before either file is written."""
        path = tmp_path / "field.lpns"
        with pytest.raises(ConfigurationError, match="field.lpns"):
            write_snapshot(path, tg_physical, {"nu": value})
        assert not path.exists() and not sidecar_path(path).exists()

    @pytest.mark.parametrize(
        "offset", [_HEADER.size - 8, _HEADER.size + 8 * 1234], ids=["header-time", "payload-value"]
    )
    def test_nonfinite_data_rejected(self, tmp_path, tg_physical, capsys, offset):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical, {"nu": 0.1})
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", math.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError, match="non-finite"):
            read_snapshot(path)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_header_and_size_are_checked_before_the_payload_is_allocated(self, tmp_path):
        """A header that claims n = 2^20 would need a 24 EiB payload, which numpy
        would refuse with a MemoryError."""
        path = tmp_path / "huge.lpns"
        path.write_bytes(_HEADER.pack(b"LPNS", 1, 2**20, 0.0) + bytes(64))
        with pytest.raises(ConfigurationError, match="expected"):
            read_snapshot(path)

    def test_file_that_shrinks_after_the_size_check(self, tmp_path, tg_physical, monkeypatch):
        """A short read raises, naming the path, and returns no uninitialised values."""
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[: size - 8])
        stale = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size))
        monkeypatch.setattr(lpns.snapshots, "os", stale)
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: payload ended")):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_snapshot(tmp_path / "absent.lpns")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.lpns"
        path.write_bytes(b"LPNS\x01")
        with pytest.raises(ConfigurationError):
            read_snapshot(path)
