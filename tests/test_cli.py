import json
import math

import numpy as np
import pytest

from lpns.bounds import riccati_solve
from lpns.cli import main, parse_config_text
from lpns.errors import ConfigurationError
from lpns.snapshots import write_snapshot
from lpns.spectral import inverse_transform, make_taylor_green, zero_velocity
from lpns.verify import nlt_suite

EXPECTED_HEADER = "t,E,enstrophy,H1,H32,y,riccati_lhs,riccati_rhs,A,B,C,flux_sum"


def write_config(path, **overrides):
    base = {
        "n": 16,
        "nu": 0.5,
        "dt": 1e-3,
        "t_end": 0.01,
        "ic": "taylor_green",
        "amplitude": 1.0,
        "diag_every": 5,
        "snapshot_every": 0,
        "out": str(path.parent / "out"),
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return base


class TestConfigParsing:
    def test_comments_and_spacing(self):
        data = parse_config_text("# hello\n n = 32  # trailing\n\nnu=0.1\n")
        assert data == {"n": "32", "nu": "0.1"}

    def test_bad_line(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("just words\n")


class TestSimulateCommand:
    def test_taylor_green_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, snapshot_every=5)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER + ",Eq0,Eq1,Eq2,Eq3,Eq4"
        assert len(lines) == 1 + 3  # rows at steps 0, 5, 10
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["psi_profile"]
        assert manifest["config"]["nu"] == 0.5
        assert (out / "snapshot_00000005.lpns").exists()
        assert (out / "snapshot_00000005.json").exists()

    def test_missing_nu_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, nu=None)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "nu" in capsys.readouterr().err

    def test_cfl_violation_exits_2_with_admissible_dt(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, dt=0.5, t_end=1.0)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "admissible dt" in err
        adm = float(err.rsplit("<=", 1)[1].strip())
        assert 0.0 < adm < 0.5

    @pytest.mark.parametrize(
        "overrides",
        [{"nu": "nan"}, {"dt": "nan"}, {"t_end": "inf"}, {"diag_evry": 5}],
        ids=["nu-nan", "dt-nan", "t_end-inf", "unknown-key"],
    )
    def test_bad_value_or_key_exits_2(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(overrides)) in err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = tmp_path / "a.cfg"
        write_config(cfg1, ic="random", seed=7, spectrum="0:0.2,1:0.1", out=str(tmp_path / "o1"))
        cfg2 = tmp_path / "b.cfg"
        write_config(cfg2, ic="random", seed=7, spectrum="0:0.2,1:0.1", out=str(tmp_path / "o2"))
        assert main(["simulate", "--config", str(cfg1)]) == 0
        assert main(["simulate", "--config", str(cfg2)]) == 0
        csv1 = (tmp_path / "o1" / "diagnostics.csv").read_bytes()
        csv2 = (tmp_path / "o2" / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        man1 = (tmp_path / "o1" / "run_manifest.json").read_bytes()
        man2 = (tmp_path / "o2" / "run_manifest.json").read_bytes()
        assert man1 == man2


class TestAnalyzeCommand:
    def test_zero_field_report(self, tmp_path, grid16, capsys):
        path = tmp_path / "zero.lpns"
        write_snapshot(path, inverse_transform(zero_velocity(grid16)), {"nu": 0.3})
        assert main(["analyze", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nu"] == 0.3
        assert all(v == 0.0 for v in report["shell_energies"].values())
        assert report["flux_sum"] == 0.0

    def test_taylor_green_two_shells(self, tmp_path, grid32, capsys):
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid32, 1.0)), {"nu": 0.1})
        assert main(["analyze", str(path), "--s", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        populated = [q for q, e in sorted(report["shell_energies"].items()) if e > 1e-20]
        assert populated == ["Eq0", "Eq1"]
        assert report["riccati"]["y"] > 0

    def test_truncated_file_exits_2(self, tmp_path, grid16):
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid16, 1.0)), {"nu": 0.1})
        raw = path.read_bytes()
        path.write_bytes(raw[:100])
        assert main(["analyze", str(path)]) == 2


class TestVerifyCommand:
    def test_partition_suite_passes(self, capsys):
        assert main(["verify", "--suite", "partition", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_nlt_suite_passes(self, capsys):
        assert main(["verify", "--suite", "nlt", "--seed", "5", "--n", "16"]) == 0

    def test_nlt_negative_injection_fails(self, grid16):
        """A non-solenoidal field must break the flux-sum check."""
        rng = np.random.default_rng(0)
        from lpns.spectral import PhysicalVelocity, dealias, forward_transform

        bad = dealias(forward_transform(
            PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        ))
        bad.coeffs[:, 0, 0, 0] = 0.0
        results = nlt_suite(seed=0, n=16, field=bad)
        flux_checks = [r for r in results if r.name.startswith("flux_sum")]
        assert flux_checks and not flux_checks[0].passed

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestBoundsCommand:
    def _write_series_csv(self, path, t, y, energy=None):
        lines = ["t,y" + (",E" if energy is not None else "")]
        for i, (ti, yi) in enumerate(zip(t, y)):
            row = f"{float(ti)!r},{float(yi)!r}"
            if energy is not None:
                row += f",{float(energy[i])!r}"
            lines.append(row)
        path.write_text("\n".join(lines) + "\n")

    def test_synthetic_riccati_floor(self, tmp_path, capsys):
        sol = riccati_solve(1.0, 1.0)
        t = np.linspace(0.0, 0.9, 60)
        self._write_series_csv(tmp_path / "series.csv", t, sol(t))
        assert main(["bounds", str(tmp_path / "series.csv"), "--c-emp", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blowup_floor"] == pytest.approx(1.0, abs=1e-9)
        assert report["fit"]["alpha"] == pytest.approx(1.0, abs=1e-6)
        assert not report["no_blowup_signal"] or report["blowup_floor"] > 0.9

    def test_decaying_series_flagged(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 30)
        y = 5.0 * np.exp(-2.0 * t)
        self._write_series_csv(tmp_path / "decay.csv", t, y)
        assert main(["bounds", str(tmp_path / "decay.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["no_blowup_signal"] is True
        assert report["blowup_floor"] > 1.0

    def test_envelope_kinds(self, tmp_path, capsys):
        sol = riccati_solve(1.0, 1.0)
        t = np.linspace(0.0, 0.9, 30)
        self._write_series_csv(tmp_path / "series.csv", t, sol(t), energy=np.full(30, 4.0))
        code = main([
            "bounds", str(tmp_path / "series.csv"),
            "--kinds", "main_h32,leray_h1,giga_hs", "--s", "1.0", "--c", "2.0",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["envelope"]) == {"main_h32", "leray_h1", "giga_hs"}
        t0, v0 = report["envelope"]["main_h32"][0]
        floor = report["blowup_floor"]
        assert v0 == pytest.approx(2.0 / math.sqrt(floor - t0), rel=1e-12)

    def test_missing_y_column_exits_2(self, tmp_path):
        (tmp_path / "bad.csv").write_text("t,z\n0.0,1.0\n")
        assert main(["bounds", str(tmp_path / "bad.csv")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["bounds", str(tmp_path / "none.csv")]) == 2
