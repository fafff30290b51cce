import json
import struct

import numpy as np
import pytest

from lpns.cli import main
from lpns.errors import ConfigurationError
from lpns.snapshots import read_snapshot, sidecar_path, write_snapshot
from lpns.spectral import inverse_transform, make_taylor_green


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

    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
    def test_malformed_sidecar(self, tmp_path, tg_physical, capsys, sidecar):
        path = tmp_path / "field.lpns"
        write_snapshot(path, tg_physical)
        sidecar_path(path).write_text(sidecar)
        with pytest.raises(ConfigurationError):
            read_snapshot(path)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_snapshot(tmp_path / "absent.lpns")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.lpns"
        path.write_bytes(b"LPNS\x01")
        with pytest.raises(ConfigurationError):
            read_snapshot(path)
